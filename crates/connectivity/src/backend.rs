//! The [`SpanningBackend`] trait: what the connectivity engine needs from a
//! dynamic-tree structure, implemented here for the forests the engine races
//! (ufo, link-cut, Euler tour) and the naive oracle.
//!
//! The engine owns the decision of *which* edges form the spanning forest;
//! the backend only ever sees link/cut operations that keep it a forest, so
//! any structure with link, cut and connectivity queries qualifies.  Weighted
//! capabilities are part of the contract: each backend names the
//! [`CommutativeMonoid`] its vertex weights aggregate under (`Weights`) and
//! answers component / spanning-tree-path aggregates as `Agg<Weights>` when
//! it can.  `set_weight` returns a support flag, so the engine can
//! distinguish "aggregate is zero" from "backend is unweighted" instead of
//! silently returning wrong answers.

use dyntree_euler::EulerTourForest;
use dyntree_linkcut::LinkCutForest;
use dyntree_naive::NaiveForest;
use dyntree_primitives::algebra::{ActionOf, Agg, CommutativeMonoid, WeightOf};
use dyntree_primitives::ops::EdgeKind;
use dyntree_seqs::DynSequence;
use ufo_forest::{Extent, UfoForest};

/// A dynamic-tree structure able to host the spanning forest of a
/// [`DynConnectivity`](crate::DynConnectivity) engine.
///
/// Queries take `&mut self` because several backends (link-cut trees, Euler
/// tour trees) restructure themselves on reads; backends whose queries are
/// genuinely read-only can additionally expose
/// [`connected_snapshot`](Self::connected_snapshot), which the parallel
/// batch pre-pass probes from multiple threads at once.  Backends must be
/// `Send + Sync` so a shared reference can cross into the pool during that
/// pre-pass (all in-tree backends are plain owned data, so this is
/// automatic).
pub trait SpanningBackend: Send + Sync {
    /// The monoid the backend's vertex weights aggregate under.  Unweighted
    /// backends still pick one (conventionally
    /// [`SumMinMax`](dyntree_primitives::algebra::SumMinMax)) but report
    /// `WEIGHTED = false` and decline `set_weight`.
    type Weights: CommutativeMonoid;

    /// Name used in benchmark output and diagnostics.
    const NAME: &'static str;

    /// Whether the backend maintains vertex weights at all.  When `false`,
    /// `set_weight` returns `false` and the aggregate queries return `None`.
    const WEIGHTED: bool;

    /// Whether [`path_agg`](Self::path_agg) can answer (exactly).  Every
    /// in-tree backend can; a backend whose spanning-tree path answers would
    /// be inexact (a ternarized contraction at interior degree ≥ 4, say)
    /// sets it `false`, and the engine then reports
    /// [`UnsupportedQuery`](dyntree_primitives::ops::GraphError) instead of
    /// conflating "unsupported" with "disconnected".
    const SUPPORTS_PATH_AGG: bool;

    /// Whether [`component_agg`](Self::component_agg) can answer.  `false`
    /// for link-cut trees, which aggregate preferred paths, not whole trees.
    const SUPPORTS_COMPONENT_AGG: bool;

    /// Whether [`connected_snapshot`](Self::connected_snapshot) answers
    /// (`Some`).  The batch layer runs its parallel insert pre-pass only
    /// when this is `true`: without snapshot probes the chunk-local DSU
    /// certificates are a strict subset of what the sequential walk's own
    /// prefix DSU already proves, so the fan-out would be pure overhead.
    const SNAPSHOT_QUERIES: bool = false;

    /// Whether [`path_apply`](Self::path_apply) can answer.  `true` only for
    /// backends whose path access exposes the path as one lazily-taggable
    /// unit (link-cut trees) or that walk it explicitly (the naive oracle);
    /// the contraction-based backends would need lazy tags threaded through
    /// their cluster merge trees, which they do not have (DESIGN.md §13).
    const SUPPORTS_PATH_APPLY: bool = false;

    /// Whether [`component_apply`](Self::component_apply) can answer.
    /// `true` for Euler tour trees (a component is one sequence, so the tag
    /// lands on its root in `O(log n)`) and the naive oracle.
    const SUPPORTS_COMPONENT_APPLY: bool = false;

    /// Whether [`subtree_apply`](Self::subtree_apply) can answer.  Currently
    /// only the naive oracle: Euler tours expose a subtree as a contiguous
    /// range but the range endpoints are edge arcs, not yet split-taggable
    /// through the backend surface.
    const SUPPORTS_SUBTREE_APPLY: bool = false;

    /// Creates a forest of `n` isolated vertices.
    fn new(n: usize) -> Self;

    /// Appends isolated vertices until the forest has `n` of them (a smaller
    /// `n` is a no-op).  The engine calls this for `AddVertices` ops, so
    /// every backend must support in-place growth.
    fn ensure_vertices(&mut self, n: usize);

    /// Inserts forest edge `(u, v)`.  The engine only calls this for edges
    /// that join two distinct trees; returns whether the backend accepted.
    fn link(&mut self, u: usize, v: usize) -> bool;

    /// Removes forest edge `(u, v)`; returns whether the edge was present.
    fn cut(&mut self, u: usize, v: usize) -> bool;

    /// Whether `u` and `v` are in the same tree.
    fn connected(&mut self, u: usize, v: usize) -> bool;

    /// Read-only connectivity probe against the current state, for backends
    /// whose queries do not restructure the tree.  `None` means "cannot
    /// answer without `&mut self`" (splay-based structures), and callers
    /// fall back to [`connected`](Self::connected).
    ///
    /// The batch layer calls this concurrently from pool workers during the
    /// insert pre-pass, always strictly before any mutation of the same
    /// batch, so implementations only need plain shared-read safety.
    fn connected_snapshot(&self, u: usize, v: usize) -> Option<bool> {
        let _ = (u, v);
        None
    }

    /// Read-only probe of the current spanning forest for the delete
    /// pre-pass: `Some(EdgeKind::Tree)` when `(u, v)` is an edge of the
    /// backend's forest, `Some(EdgeKind::NonTree)` when it is not (the
    /// caller combines this with its own edge registry to tell a live
    /// non-tree edge from a missing one), and `None` when the backend cannot
    /// answer without `&mut self` (splay-based structures, which also report
    /// [`SNAPSHOT_QUERIES`](Self::SNAPSHOT_QUERIES)` = false`).
    ///
    /// Like [`connected_snapshot`](Self::connected_snapshot), this is probed
    /// concurrently from pool workers, always strictly before any mutation
    /// of the same batch, so implementations only need plain shared-read
    /// safety.
    fn edge_kind_snapshot(&self, u: usize, v: usize) -> Option<EdgeKind> {
        let _ = (u, v);
        None
    }

    /// Sets the weight of vertex `v`.  Returns whether the backend actually
    /// recorded it; the default declines, so an unweighted backend can never
    /// silently swallow weights.
    fn set_weight(&mut self, v: usize, w: WeightOf<Self::Weights>) -> bool {
        let _ = (v, w);
        false
    }

    /// Returns the current weight of vertex `v`, or `None` when the backend
    /// is unweighted.  `&mut self` because splay-based backends may
    /// restructure (or push pending lazy tags) to read a single vertex.  The
    /// serving layer uses this to re-base its shadow weight table after bulk
    /// updates, whose effects cannot be replayed from the op stream alone.
    fn vertex_weight(&mut self, v: usize) -> Option<WeightOf<Self::Weights>> {
        let _ = v;
        None
    }

    /// Applies `act` to every vertex weight on the spanning-tree path from
    /// `u` to `v` (inclusive; `u == v` touches one vertex) and returns the
    /// number of vertices updated, or `None` when `u` and `v` are
    /// disconnected.  Only called when
    /// [`SUPPORTS_PATH_APPLY`](Self::SUPPORTS_PATH_APPLY) is `true`; the
    /// default declines.
    fn path_apply(&mut self, u: usize, v: usize, act: ActionOf<Self::Weights>) -> Option<u64> {
        let _ = (u, v, act);
        None
    }

    /// Applies `act` to every vertex weight in `v`'s tree and returns the
    /// number of vertices updated (at least 1).  Only called when
    /// [`SUPPORTS_COMPONENT_APPLY`](Self::SUPPORTS_COMPONENT_APPLY) is
    /// `true`; the default declines with `None`.
    fn component_apply(&mut self, v: usize, act: ActionOf<Self::Weights>) -> Option<u64> {
        let _ = (v, act);
        None
    }

    /// Applies `act` to every vertex weight in the subtree of `v` away from
    /// `parent` and returns the number of vertices updated, or `None` when
    /// `(v, parent)` is not a forest edge.  Only called when
    /// [`SUPPORTS_SUBTREE_APPLY`](Self::SUPPORTS_SUBTREE_APPLY) is `true`.
    fn subtree_apply(
        &mut self,
        v: usize,
        parent: usize,
        act: ActionOf<Self::Weights>,
    ) -> Option<u64> {
        let _ = (v, parent, act);
        None
    }

    /// Number of vertices in `v`'s tree, when the backend can answer faster
    /// than a forest walk.
    fn component_size(&mut self, v: usize) -> Option<u64> {
        let _ = v;
        None
    }

    /// Monoid aggregate over `v`'s whole tree, when supported.
    fn component_agg(&mut self, v: usize) -> Option<Agg<Self::Weights>> {
        let _ = v;
        None
    }

    /// Monoid aggregate over the spanning-tree path from `u` to `v`, when
    /// supported.  Callers must check connectivity first; `None` means
    /// "unsupported or disconnected".
    fn path_agg(&mut self, u: usize, v: usize) -> Option<Agg<Self::Weights>> {
        let _ = (u, v);
        None
    }

    /// Writes one representative id per vertex into `out` — values below
    /// `n`, equal iff the vertices are in the same tree — and returns
    /// `true`.  The default declines with `false` (splay-based backends
    /// would need `&mut self` to walk themselves), and the engine falls back
    /// to a BFS over its own tree adjacency.  Either way the engine
    /// renumbers the representatives into canonical dense labels through a
    /// table indexed by them, so implementations may emit any vertex-range
    /// ids they like (a member vertex, a dense label, ...), but not ids
    /// from a larger space such as top-cluster slab ids.
    ///
    /// Read-only by contract: the serving layer's snapshot builder calls it
    /// while reader threads hold older snapshots.
    fn export_components(&self, out: &mut Vec<usize>) -> bool {
        let _ = out;
        false
    }

    /// Heap bytes owned by the backend (0 when not tracked).
    fn memory_bytes(&self) -> usize {
        0
    }
}

// Either extent policy: the engine reads only core summaries.
impl<M: CommutativeMonoid, X: Extent> SpanningBackend for UfoForest<M, X> {
    type Weights = M;
    const NAME: &'static str = "ufo";
    const WEIGHTED: bool = true;
    const SUPPORTS_PATH_AGG: bool = true;
    const SUPPORTS_COMPONENT_AGG: bool = true;
    const SNAPSHOT_QUERIES: bool = true;

    fn new(n: usize) -> Self {
        UfoForest::new(n)
    }
    fn ensure_vertices(&mut self, n: usize) {
        UfoForest::ensure_vertices(self, n)
    }
    // Updates only queue summary work: the engine reads no summary on its
    // update path, so the three summary reads below settle first instead.
    fn link(&mut self, u: usize, v: usize) -> bool {
        self.engine_mut().link(u, v)
    }
    fn cut(&mut self, u: usize, v: usize) -> bool {
        self.engine_mut().cut(u, v)
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        UfoForest::connected(self, u, v)
    }
    fn connected_snapshot(&self, u: usize, v: usize) -> Option<bool> {
        Some(UfoForest::connected(self, u, v))
    }
    fn edge_kind_snapshot(&self, u: usize, v: usize) -> Option<EdgeKind> {
        Some(if UfoForest::has_edge(self, u, v) {
            EdgeKind::Tree
        } else {
            EdgeKind::NonTree
        })
    }
    fn set_weight(&mut self, v: usize, w: WeightOf<M>) -> bool {
        self.engine_mut().set_weight(v, w);
        true
    }
    fn vertex_weight(&mut self, v: usize) -> Option<WeightOf<M>> {
        Some(UfoForest::weight(self, v))
    }
    // The bulk applies stay at their declining defaults: cluster aggregates
    // in the contraction engine have no lazy-tag channel (DESIGN.md §13).
    fn component_size(&mut self, v: usize) -> Option<u64> {
        self.engine_mut().settle();
        Some(UfoForest::component_size(self, v))
    }
    fn component_agg(&mut self, v: usize) -> Option<Agg<M>> {
        self.engine_mut().settle();
        Some(UfoForest::component_aggregate(self, v))
    }
    fn path_agg(&mut self, u: usize, v: usize) -> Option<Agg<M>> {
        self.engine_mut().settle();
        UfoForest::path_aggregate(self, u, v)
    }
    fn export_components(&self, out: &mut Vec<usize>) -> bool {
        self.engine().component_labels(out);
        true
    }
    fn memory_bytes(&self) -> usize {
        UfoForest::memory_bytes(self)
    }
}

impl<M: CommutativeMonoid> SpanningBackend for LinkCutForest<M> {
    type Weights = M;
    const NAME: &'static str = "linkcut";
    const WEIGHTED: bool = true;
    const SUPPORTS_PATH_AGG: bool = true;
    // Link-cut trees aggregate preferred paths, not whole trees (Table 1's
    // "no subtree queries" row).
    const SUPPORTS_COMPONENT_AGG: bool = false;
    // Exposing the u–v path as one splay tree makes bulk path updates an
    // O(log n) lazy tag on its root.
    const SUPPORTS_PATH_APPLY: bool = true;
    // SNAPSHOT_QUERIES stays false: splaying restructures on every access,
    // so `connected_snapshot` / `edge_kind_snapshot` keep their declining
    // defaults and the batch layers take the sequential walk.

    fn new(n: usize) -> Self {
        LinkCutForest::new(n)
    }
    fn ensure_vertices(&mut self, n: usize) {
        LinkCutForest::ensure_vertices(self, n)
    }
    fn link(&mut self, u: usize, v: usize) -> bool {
        LinkCutForest::link(self, u, v)
    }
    fn cut(&mut self, u: usize, v: usize) -> bool {
        LinkCutForest::cut(self, u, v)
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        LinkCutForest::connected(self, u, v)
    }
    fn set_weight(&mut self, v: usize, w: WeightOf<M>) -> bool {
        LinkCutForest::set_weight(self, v, w);
        true
    }
    fn vertex_weight(&mut self, v: usize) -> Option<WeightOf<M>> {
        Some(LinkCutForest::weight(self, v))
    }
    // component_agg stays `None`: link-cut trees aggregate preferred paths,
    // not whole trees (Table 1's "no subtree queries" row).
    fn path_agg(&mut self, u: usize, v: usize) -> Option<Agg<M>> {
        LinkCutForest::path_aggregate(self, u, v)
    }
    fn path_apply(&mut self, u: usize, v: usize, act: ActionOf<M>) -> Option<u64> {
        LinkCutForest::path_apply(self, u, v, act)
    }
    fn memory_bytes(&self) -> usize {
        LinkCutForest::memory_bytes(self)
    }
}

impl<M: CommutativeMonoid, S: DynSequence<M>> SpanningBackend for EulerTourForest<S, M> {
    type Weights = M;
    const NAME: &'static str = "euler";
    const WEIGHTED: bool = true;
    const SUPPORTS_PATH_AGG: bool = true;
    const SUPPORTS_COMPONENT_AGG: bool = true;
    // A component is one Euler tour sequence: the action is a lazy tag on
    // its root, O(log n).
    const SUPPORTS_COMPONENT_APPLY: bool = true;

    fn new(n: usize) -> Self {
        EulerTourForest::new(n)
    }
    fn ensure_vertices(&mut self, n: usize) {
        EulerTourForest::ensure_vertices(self, n)
    }
    fn link(&mut self, u: usize, v: usize) -> bool {
        EulerTourForest::link(self, u, v)
    }
    fn cut(&mut self, u: usize, v: usize) -> bool {
        EulerTourForest::cut(self, u, v)
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        EulerTourForest::connected(self, u, v)
    }
    fn set_weight(&mut self, v: usize, w: WeightOf<M>) -> bool {
        EulerTourForest::set_weight(self, v, w);
        true
    }
    fn vertex_weight(&mut self, v: usize) -> Option<WeightOf<M>> {
        Some(EulerTourForest::weight(self, v))
    }
    fn component_apply(&mut self, v: usize, act: ActionOf<M>) -> Option<u64> {
        Some(EulerTourForest::component_apply(self, v, act))
    }
    fn component_size(&mut self, v: usize) -> Option<u64> {
        Some(EulerTourForest::component_size(self, v) as u64)
    }
    fn component_agg(&mut self, v: usize) -> Option<Agg<M>> {
        Some(EulerTourForest::component_aggregate(self, v))
    }
    fn path_agg(&mut self, u: usize, v: usize) -> Option<Agg<M>> {
        // O(component) fallback walk; see `EulerTourForest::path_aggregate`.
        EulerTourForest::path_aggregate(self, u, v)
    }
    fn memory_bytes(&self) -> usize {
        EulerTourForest::memory_bytes(self)
    }
}

impl<M: CommutativeMonoid> SpanningBackend for NaiveForest<M> {
    type Weights = M;
    const NAME: &'static str = "naive";
    const WEIGHTED: bool = true;
    const SUPPORTS_PATH_AGG: bool = true;
    const SUPPORTS_COMPONENT_AGG: bool = true;
    const SNAPSHOT_QUERIES: bool = true;
    // The oracle walks vertex lists, so it supports every bulk apply — it is
    // the differential-testing reference for all of them.
    const SUPPORTS_PATH_APPLY: bool = true;
    const SUPPORTS_COMPONENT_APPLY: bool = true;
    const SUPPORTS_SUBTREE_APPLY: bool = true;

    fn new(n: usize) -> Self {
        NaiveForest::new(n)
    }
    fn ensure_vertices(&mut self, n: usize) {
        NaiveForest::ensure_vertices(self, n)
    }
    fn link(&mut self, u: usize, v: usize) -> bool {
        NaiveForest::link(self, u, v)
    }
    fn cut(&mut self, u: usize, v: usize) -> bool {
        NaiveForest::cut(self, u, v)
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        NaiveForest::connected(self, u, v)
    }
    fn connected_snapshot(&self, u: usize, v: usize) -> Option<bool> {
        Some(NaiveForest::connected(self, u, v))
    }
    fn edge_kind_snapshot(&self, u: usize, v: usize) -> Option<EdgeKind> {
        Some(if NaiveForest::has_edge(self, u, v) {
            EdgeKind::Tree
        } else {
            EdgeKind::NonTree
        })
    }
    fn set_weight(&mut self, v: usize, w: WeightOf<M>) -> bool {
        NaiveForest::set_weight(self, v, w);
        true
    }
    fn vertex_weight(&mut self, v: usize) -> Option<WeightOf<M>> {
        Some(NaiveForest::weight(self, v))
    }
    fn path_apply(&mut self, u: usize, v: usize, act: ActionOf<M>) -> Option<u64> {
        NaiveForest::path_apply(self, u, v, act)
    }
    fn component_apply(&mut self, v: usize, act: ActionOf<M>) -> Option<u64> {
        Some(NaiveForest::component_apply(self, v, act))
    }
    fn subtree_apply(&mut self, v: usize, parent: usize, act: ActionOf<M>) -> Option<u64> {
        NaiveForest::subtree_apply(self, v, parent, act)
    }
    fn component_size(&mut self, v: usize) -> Option<u64> {
        Some(NaiveForest::component_size(self, v) as u64)
    }
    fn component_agg(&mut self, v: usize) -> Option<Agg<M>> {
        Some(NaiveForest::component_aggregate(self, v))
    }
    fn path_agg(&mut self, u: usize, v: usize) -> Option<Agg<M>> {
        NaiveForest::path_aggregate(self, u, v)
    }
    fn export_components(&self, out: &mut Vec<usize>) -> bool {
        NaiveForest::component_labels(self, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyntree_primitives::algebra::SumMinMax;
    use dyntree_seqs::TreapSequence;

    fn exercise<B: SpanningBackend>() {
        let mut b = B::new(4);
        assert!(b.link(0, 1));
        assert!(b.link(1, 2));
        assert!(b.connected(0, 2));
        assert!(!b.connected(0, 3));
        assert!(b.cut(0, 1));
        assert!(!b.connected(0, 2));
        if let Some(s) = b.component_size(1) {
            assert_eq!(s, 2);
        }
    }

    fn exercise_weighted<B: SpanningBackend<Weights = SumMinMax>>() {
        let mut b = B::new(4);
        b.link(0, 1);
        b.link(1, 2);
        let recorded = b.set_weight(1, 7);
        assert_eq!(
            recorded,
            B::WEIGHTED,
            "{}: set_weight flag must match WEIGHTED",
            B::NAME
        );
        if let Some(agg) = b.component_agg(0) {
            assert_eq!(agg.sum, 7);
            assert_eq!(agg.count, 3);
        }
        if let Some(agg) = b.path_agg(0, 2) {
            assert_eq!(agg.sum, 7);
            assert_eq!(agg.edges, 2);
            assert_eq!(agg.max, 7);
        }
        assert!(
            b.path_agg(0, 3).is_none(),
            "{}: disconnected path must be None",
            B::NAME
        );
    }

    fn exercise_bulk_applies<B: SpanningBackend<Weights = SumMinMax>>() {
        use dyntree_primitives::algebra::AddConst;
        let mut b = B::new(5);
        b.link(0, 1);
        b.link(1, 2);
        b.link(3, 4);
        let mut expect = [0i64; 5];
        for (v, w) in expect.iter_mut().enumerate() {
            b.set_weight(v, v as i64);
            *w = v as i64;
        }
        let r = b.path_apply(0, 2, AddConst(10));
        assert_eq!(
            r.is_some(),
            B::SUPPORTS_PATH_APPLY,
            "{}: path_apply answers iff advertised",
            B::NAME
        );
        if B::SUPPORTS_PATH_APPLY {
            assert_eq!(r, Some(3), "{}", B::NAME);
            for w in expect.iter_mut().take(3) {
                *w += 10;
            }
            assert_eq!(
                b.path_apply(0, 3, AddConst(1)),
                None,
                "{}: disconnected pair is None",
                B::NAME
            );
            assert_eq!(
                b.path_apply(2, 2, AddConst(5)),
                Some(1),
                "{}: single-vertex path",
                B::NAME
            );
            expect[2] += 5;
        }
        let r = b.component_apply(4, AddConst(100));
        assert_eq!(
            r.is_some(),
            B::SUPPORTS_COMPONENT_APPLY,
            "{}: component_apply answers iff advertised",
            B::NAME
        );
        if B::SUPPORTS_COMPONENT_APPLY {
            assert_eq!(r, Some(2), "{}", B::NAME);
            expect[3] += 100;
            expect[4] += 100;
        }
        let r = b.subtree_apply(1, 0, AddConst(1000));
        assert_eq!(
            r.is_some(),
            B::SUPPORTS_SUBTREE_APPLY,
            "{}: subtree_apply answers iff advertised",
            B::NAME
        );
        if B::SUPPORTS_SUBTREE_APPLY {
            assert_eq!(r, Some(2), "{}", B::NAME);
            expect[1] += 1000;
            expect[2] += 1000;
            assert_eq!(
                b.subtree_apply(0, 2, AddConst(1)),
                None,
                "{}: not a forest edge",
                B::NAME
            );
        }
        if B::WEIGHTED {
            for (v, &w) in expect.iter().enumerate() {
                assert_eq!(b.vertex_weight(v), Some(w), "{}: vertex {v}", B::NAME);
            }
            if let Some(agg) = b.component_agg(0) {
                assert_eq!(agg.sum, expect[0] + expect[1] + expect[2], "{}", B::NAME);
            }
            if let Some(agg) = b.path_agg(0, 2) {
                assert_eq!(agg.sum, expect[0] + expect[1] + expect[2], "{}", B::NAME);
            }
        }
    }

    fn exercise_growth<B: SpanningBackend>() {
        let mut b = B::new(2);
        assert!(b.link(0, 1), "{}", B::NAME);
        b.ensure_vertices(5);
        assert!(b.connected(0, 1), "{}: old edge survives growth", B::NAME);
        assert!(!b.connected(0, 4), "{}: new vertex isolated", B::NAME);
        assert!(b.link(1, 4), "{}: link to grown vertex", B::NAME);
        assert!(b.connected(0, 4), "{}", B::NAME);
        if let Some(s) = b.component_size(4) {
            assert_eq!(s, 3, "{}", B::NAME);
        }
        assert!(b.cut(1, 4), "{}", B::NAME);
        assert!(!b.connected(0, 4), "{}", B::NAME);
        b.ensure_vertices(3); // shrinking is a no-op
        assert!(b.connected(0, 1), "{}", B::NAME);
    }

    #[test]
    fn every_backend_supports_growth() {
        exercise_growth::<UfoForest>();
        exercise_growth::<LinkCutForest>();
        exercise_growth::<EulerTourForest<TreapSequence>>();
        exercise_growth::<NaiveForest>();
    }

    #[test]
    fn growth_from_empty_forest() {
        fn go<B: SpanningBackend>() {
            let mut b = B::new(0);
            b.ensure_vertices(3);
            assert!(b.link(0, 2), "{}", B::NAME);
            assert!(b.connected(0, 2), "{}", B::NAME);
            assert!(!b.connected(0, 1), "{}", B::NAME);
        }
        go::<UfoForest>();
        go::<LinkCutForest>();
        go::<EulerTourForest<TreapSequence>>();
        go::<NaiveForest>();
    }

    #[test]
    fn grown_vertices_carry_weights() {
        fn go<B: SpanningBackend<Weights = SumMinMax>>() {
            let mut b = B::new(1);
            b.ensure_vertices(3);
            b.link(0, 1);
            b.link(1, 2);
            assert!(b.set_weight(2, 9), "{}", B::NAME);
            if let Some(agg) = b.component_agg(0) {
                assert_eq!(agg.sum, 9, "{}", B::NAME);
                assert_eq!(agg.count, 3, "{}", B::NAME);
            }
            if let Some(agg) = b.path_agg(0, 2) {
                assert_eq!(agg.max, 9, "{}", B::NAME);
            }
        }
        go::<UfoForest>();
        go::<LinkCutForest>();
        go::<EulerTourForest<TreapSequence>>();
        go::<NaiveForest>();
    }

    #[test]
    fn snapshot_probes_answer_iff_advertised() {
        fn go<B: SpanningBackend>() {
            let mut b = B::new(4);
            b.link(0, 1);
            let conn = b.connected_snapshot(0, 1);
            let kind = b.edge_kind_snapshot(0, 1);
            assert_eq!(conn.is_some(), B::SNAPSHOT_QUERIES, "{}", B::NAME);
            assert_eq!(kind.is_some(), B::SNAPSHOT_QUERIES, "{}", B::NAME);
            if B::SNAPSHOT_QUERIES {
                assert_eq!(conn, Some(true), "{}", B::NAME);
                assert_eq!(kind, Some(EdgeKind::Tree), "{}", B::NAME);
                // a connected pair without a direct forest edge is NonTree …
                b.link(1, 2);
                assert_eq!(b.edge_kind_snapshot(0, 2), Some(EdgeKind::NonTree));
                // … and so is a disconnected pair (the caller's edge registry
                // tells live non-tree edges from missing ones)
                assert_eq!(b.edge_kind_snapshot(0, 3), Some(EdgeKind::NonTree));
            }
        }
        go::<UfoForest>();
        go::<LinkCutForest>();
        go::<EulerTourForest<TreapSequence>>();
        go::<NaiveForest>();
    }

    #[test]
    fn component_exports_agree_with_connectivity() {
        fn go<B: SpanningBackend>(expect_export: bool) {
            let mut b = B::new(5);
            b.link(0, 1);
            b.link(1, 2);
            b.link(3, 4);
            let mut reps = Vec::new();
            assert_eq!(b.export_components(&mut reps), expect_export, "{}", B::NAME);
            if !expect_export {
                return;
            }
            assert_eq!(reps.len(), 5, "{}", B::NAME);
            // the engine renumbers through a table indexed by representative
            assert!(reps.iter().all(|&r| r < 5), "{}: {reps:?}", B::NAME);
            for u in 0..5 {
                for v in 0..5 {
                    assert_eq!(
                        reps[u] == reps[v],
                        b.connected(u, v),
                        "{}: ({u},{v})",
                        B::NAME
                    );
                }
            }
        }
        go::<UfoForest>(true);
        go::<NaiveForest>(true);
        go::<LinkCutForest>(false);
        go::<EulerTourForest<TreapSequence>>(false);
    }

    #[test]
    fn every_forest_implements_the_backend() {
        exercise::<UfoForest>();
        exercise::<LinkCutForest>();
        exercise::<EulerTourForest<TreapSequence>>();
        exercise::<NaiveForest>();
    }

    #[test]
    fn bulk_applies_answer_iff_advertised() {
        exercise_bulk_applies::<UfoForest>();
        exercise_bulk_applies::<LinkCutForest>();
        exercise_bulk_applies::<EulerTourForest<TreapSequence>>();
        exercise_bulk_applies::<NaiveForest>();
    }

    #[test]
    fn weighted_surface_is_consistent() {
        exercise_weighted::<UfoForest>();
        exercise_weighted::<LinkCutForest>();
        exercise_weighted::<EulerTourForest<TreapSequence>>();
        exercise_weighted::<NaiveForest>();
    }
}
