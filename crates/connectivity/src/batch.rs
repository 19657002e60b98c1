//! Batch front-end for [`DynConnectivity`]: [`apply`](DynConnectivity::apply)
//! splits a transaction of [`GraphOp`]s into maximal runs of same-kind ops,
//! and every run goes through one gated path.
//!
//! An insert run is classified by a union-find pre-pass over the run
//! itself: once earlier edges of the run have united two endpoints, a later
//! edge between them is provably a cycle edge and skips the backend's
//! connectivity probe.  For runs past the
//! [`ParallelConfig`](dyntree_primitives::ParallelConfig) grain the pre-pass
//! runs **in parallel**: the run is split into contiguous chunks, each
//! chunk builds its own sparse DSU (and, for backends with read-only
//! queries, probes the pre-batch forest via
//! [`SpanningBackend::connected_snapshot`]), and the sequential application
//! walk then consumes the per-chunk certificates.  Both certificates are
//! *sound* under the one property insert runs have — connectivity only ever
//! grows — so the outcomes are byte-identical to the sequential pre-pass at
//! every thread count and chunk split; see `DESIGN.md` §8.

use dyntree_primitives::hash::{FxHashMap, FxHashSet};

use dyntree_primitives::algebra::WeightOf;
use dyntree_primitives::ops::{grown_len, BatchReport, EdgeKind, GraphError, GraphOp, OpOutcome};
use dyntree_primitives::telemetry::{BatchTelemetry, Counter, Phase};
use rayon::prelude::*;

use crate::backend::SpanningBackend;
use crate::engine::DynConnectivity;
use crate::search::canonical;
use crate::Vertex;

/// The [`GraphOp`] type a `DynConnectivity<B>` engine accepts: weights are
/// drawn from the backend's monoid.
pub type OpOf<B> = GraphOp<WeightOf<<B as SpanningBackend>::Weights>>;

/// What the delete pre-pass concluded about one pair of a delete run,
/// against the pre-batch state (with in-run duplicate accounting).
///
/// Public only as test instrumentation for the classification proptests;
/// hidden from docs.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeleteClass {
    /// Self loop or out-of-range endpoint: rejected without touching state.
    Invalid(GraphError),
    /// Not live at its application moment (dead pre-batch, or an earlier op
    /// of the same run already deletes it): a benign skip.
    Missing,
    /// Live non-tree edge — drainable without the replacement search,
    /// unless an earlier in-run tree deletion promotes it first.
    NonTree,
    /// Live spanning-forest edge: must take the sequential HDT replacement
    /// search.
    Tree,
}

/// One pre-batch forest component's worth of certified deletions from a
/// delete run: the unit the rebuild escape hatch takes wholesale
/// (DESIGN.md §10).
struct DeleteGroup {
    /// Canonical DSU root of the pre-batch component.
    root: Vertex,
    /// Run indices of the component's certified deletions, ascending.
    indices: Vec<usize>,
    /// How many of those are certified tree deletions (searches to run).
    tree_dels: usize,
    /// Vertex count of the pre-batch component.
    comp_size: usize,
}

/// The components of one delete run the rebuild hatch takes, plus the DSU
/// that certified the partition (the rebuild reuses it to attribute
/// surviving registry edges to their component).
struct DeletePlan {
    /// The hatch's groups in canonical (first run index) order.
    groups: Vec<DeleteGroup>,
    /// Union-find over the endpoints of every pre-batch tree edge.
    dsu: SparseDsu,
}

impl<B: SpanningBackend> DynConnectivity<B> {
    /// Parallel pre-pass over an insert run: splits the run into contiguous
    /// chunks and computes, per edge, whether its endpoints are *provably
    /// already connected* at the moment the edge will be applied.
    ///
    /// Two sound certificates feed the flag:
    /// * **chunk-prefix DSU** — earlier edges *of the same chunk* united the
    ///   endpoints.  Those edges precede this one in the whole run, and
    ///   every valid run edge is live by the time later edges apply.
    /// * **snapshot probe** — the endpoints were connected in the pre-batch
    ///   forest ([`SpanningBackend::connected_snapshot`]).  Insert runs only
    ///   ever merge components, so pre-batch connectivity persists.
    ///
    /// `false` merely means "no cheap proof": the sequential walk falls back
    /// to its own prefix DSU and, lastly, a live backend probe.  Outcomes
    /// are therefore byte-identical whichever certificates fire, which is
    /// what makes results independent of thread count and chunk boundaries.
    ///
    /// Returns `None` (purely sequential classification) below the
    /// configured grain, on a 1-thread pool, or for backends without
    /// snapshot probes ([`SpanningBackend::SNAPSHOT_QUERIES`]): the
    /// sequential walk's own prefix DSU subsumes every chunk-prefix
    /// certificate, so for those backends the fan-out could never save a
    /// live probe.  The chunks read the ops in place, so no run ever pays
    /// for a pair list.
    fn plan_insert_pairs(&self, run: &[OpOf<B>]) -> Option<Vec<bool>> {
        if !B::SNAPSHOT_QUERIES || !self.par.worth(run.len()) {
            return None;
        }
        let chunks = self.par.chunks_for(run.len());
        if chunks <= 1 {
            return None;
        }
        let _pre_pass_span = self.telemetry().span(Phase::InsertPrePass);
        let n = self.len();
        let backend = self.backend();
        let ranges = dyntree_primitives::chunk_ranges(run.len(), chunks);
        // per chunk: (certificates, snapshot probes issued, certificates set)
        let parts: Vec<(Vec<bool>, u64, u64)> = ranges
            .par_iter()
            .map(|&(lo, hi)| {
                let mut dsu = SparseDsu::default();
                let mut probes = 0u64;
                let mut issued = 0u64;
                let flags = run[lo..hi]
                    .iter()
                    .map(|op| {
                        let (u, v) = insert_pair(op);
                        if u == v || u >= n || v >= n {
                            return false;
                        }
                        let known = if dsu.same(u, v) {
                            true
                        } else {
                            probes += 1;
                            backend.connected_snapshot(u, v).unwrap_or(false)
                        };
                        dsu.union(u, v);
                        issued += u64::from(known);
                        known
                    })
                    .collect();
                (flags, probes, issued)
            })
            .collect();
        let mut flags = Vec::with_capacity(run.len());
        for (chunk_flags, probes, issued) in parts {
            self.telemetry().add(Counter::SnapshotProbes, probes);
            self.telemetry()
                .add(Counter::InsertCertificatesIssued, issued);
            flags.extend(chunk_flags);
        }
        Some(flags)
    }

    /// The bulk path of a delete run that passed
    /// [`apply_delete_run`](Self::apply_delete_run)'s gate, reporting one
    /// [`OpOutcome`] per pair in run order.
    ///
    /// A chunked **classification pre-pass**
    /// ([`classify_delete_pairs`](Self::classify_delete_pairs)) labels every
    /// pair missing / non-tree / tree against the pre-batch forest, and the
    /// walk then *drains* certified non-tree deletions — record removal now,
    /// adjacency mirrors in one grouped parallel flush — while every
    /// tree-edge deletion still runs the sequential HDT replacement search
    /// in canonical order.  Outcomes and end state are byte-identical to the
    /// sequential walk at every thread count and chunk split; `DESIGN.md` §8
    /// gives the soundness argument (non-tree drains commute; promotions are
    /// the one way a certificate can go stale, and they are tracked
    /// exactly).
    fn apply_delete_pairs(
        &mut self,
        pairs: &[(Vertex, Vertex)],
        chunks: usize,
        report: &mut BatchReport,
    ) {
        let classes = self.classify_delete_pairs(pairs, chunks);
        let _walk_span = self.telemetry().span(Phase::DeleteWalk);
        // Components taken by the rebuild hatch land their outcomes in
        // `slots`; the sequential walk below records them in run order and
        // handles everything else.
        let mut slots: Vec<Option<OpOutcome>> = vec![None; pairs.len()];
        if let Some(mut plan) = self.plan_delete_groups(pairs, &classes) {
            self.execute_rebuild_groups(pairs, &classes, &mut plan, &mut slots);
        }
        // Certified non-tree removals of the current drain segment, in run
        // order; flushed (grouped, parallel) before any tree deletion runs.
        let mut drain: Vec<(Vertex, Vertex, usize)> = Vec::new();
        // Non-tree edges promoted into the forest by this run's replacement
        // searches: the only certificates that can go stale, tracked exactly.
        let mut promoted: FxHashSet<(Vertex, Vertex)> = FxHashSet::default();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if let Some(outcome) = slots[i].take() {
                report.record(outcome);
                continue;
            }
            match classes[i] {
                DeleteClass::Invalid(e) => report.record(OpOutcome::from_error(e)),
                DeleteClass::Missing => {
                    report.record(OpOutcome::from_error(GraphError::MissingEdge {
                        u: u.min(v),
                        v: u.max(v),
                    }))
                }
                DeleteClass::NonTree if !promoted.contains(&(u.min(v), u.max(v))) => {
                    self.telemetry().incr(Counter::DeleteNonTreeDrained);
                    let level = self.take_certified_nontree_record(u, v);
                    drain.push((u, v, level));
                    report.record(OpOutcome::EdgeDeleted {
                        kind: EdgeKind::NonTree,
                        split: false,
                    });
                }
                // A tree edge — or a non-tree certificate invalidated by an
                // earlier in-run promotion.  The replacement search must see
                // current adjacency, so the pending drain flushes first.
                class @ (DeleteClass::Tree | DeleteClass::NonTree) => {
                    if class == DeleteClass::NonTree {
                        self.telemetry().incr(Counter::DeleteCertificatesStale);
                    }
                    self.flush_nontree_drain(&mut drain);
                    report.record(match self.try_delete_edge_traced(u, v) {
                        Ok((outcome, promo)) => {
                            if let Some(edge) = promo {
                                promoted.insert(edge);
                            }
                            OpOutcome::EdgeDeleted {
                                kind: outcome.kind,
                                split: outcome.split,
                            }
                        }
                        Err(e) => OpOutcome::from_error(e),
                    });
                }
            }
        }
        self.flush_nontree_drain(&mut drain);
    }

    /// Partitions a classified delete run by pre-batch forest component and
    /// keeps the components the rebuild hatch takes.  Returns `None` when
    /// the hatch is off or takes nothing — the sequential walk then handles
    /// every op.
    ///
    /// The independence certificate: a replacement search only ever reads
    /// and writes inside its deletion's pre-batch component, and certified
    /// deletions in *distinct* components therefore commute with each other
    /// (DESIGN.md §10), so a rebuilt component can be taken out of the walk
    /// without changing what the walk does anywhere else.  The partition comes from a sparse union-find over
    /// the endpoints of every live tree edge — the spanning forest covers
    /// every component of size ≥ 2, and every certified deletion's endpoints
    /// carry at least one tree edge, so every grouped endpoint is a DSU key.
    fn plan_delete_groups(
        &self,
        pairs: &[(Vertex, Vertex)],
        classes: &[DeleteClass],
    ) -> Option<DeletePlan> {
        if !self.par.rebuild_enabled() || !classes.contains(&DeleteClass::Tree) {
            // Hatch off, or no searches for it to save.
            return None;
        }
        let mut dsu = SparseDsu::default();
        for (&(a, b), info) in &self.edges {
            if info.tree {
                dsu.union(a, b);
            }
        }
        // Component vertex counts: every vertex of a size ≥ 2 component has
        // a tree edge, so the DSU key set is exactly the non-isolated
        // vertex set.
        let keys: Vec<Vertex> = dsu.parent.keys().copied().collect();
        let mut sizes: FxHashMap<Vertex, usize> = FxHashMap::default();
        for k in keys {
            *sizes.entry(dsu.find(k)).or_insert(0) += 1;
        }
        let mut group_of: FxHashMap<Vertex, usize> = FxHashMap::default();
        let mut groups: Vec<DeleteGroup> = Vec::new();
        for (i, &(u, _)) in pairs.iter().enumerate() {
            if !matches!(classes[i], DeleteClass::Tree | DeleteClass::NonTree) {
                continue;
            }
            let root = dsu.find(u);
            let gi = *group_of.entry(root).or_insert_with(|| {
                groups.push(DeleteGroup {
                    root,
                    indices: Vec::new(),
                    tree_dels: 0,
                    comp_size: sizes.get(&root).copied().unwrap_or(0),
                });
                groups.len() - 1
            });
            groups[gi].indices.push(i);
            groups[gi].tree_dels += usize::from(classes[i] == DeleteClass::Tree);
        }
        groups.retain(|g| self.par.rebuild_worth(g.tree_dels, g.comp_size));
        if groups.is_empty() {
            return None;
        }
        Some(DeletePlan { groups, dsu })
    }

    /// Executes the groups of a delete plan: removes every
    /// certified deletion wholesale, then rebuilds each component's spanning
    /// forest from the surviving registry edges with a sparse union-find
    /// (surviving non-tree edges are reset to level 0, which re-establishes
    /// the HDT level invariant the later replacement searches depend on),
    /// and finally attributes per-op split flags by a **reverse replay** of
    /// the group's deletions (checking `(u, v)` connectivity before
    /// re-unioning it examines exactly the post-op live graph, so the split
    /// flags are identical to the sequential walk's).  This skips the
    /// replacement searches entirely — the relaxed canonical-outcome
    /// contract (DESIGN.md §10): tree membership, edge levels, and the
    /// search counters may diverge from the sequential walk; connectivity,
    /// the component partition, split flags and the live edge set do not.
    fn execute_rebuild_groups(
        &mut self,
        pairs: &[(Vertex, Vertex)],
        classes: &[DeleteClass],
        plan: &mut DeletePlan,
        slots: &mut [Option<OpOutcome>],
    ) {
        let _rebuild_span = self.telemetry().span(Phase::Rebuild);
        // Remove every certified deletion of every group.  No searches run
        // here, so no certificate can go stale: the registry still agrees
        // with the pre-pass classes.
        for g in &plan.groups {
            for &i in &g.indices {
                let (u, v) = pairs[i];
                let info = self
                    .edges
                    .remove(&canonical(u, v))
                    .expect("certified delete of a dead edge");
                if info.tree {
                    let removed = self.adj.tree_remove(u, v);
                    debug_assert_eq!(removed, Some(info.level));
                    let cut = self.backend.cut(u, v);
                    debug_assert!(cut, "backend rejected cutting tree edge ({u},{v})");
                } else {
                    self.tel.incr(Counter::DeleteNonTreeDrained);
                    let removed = self.adj.nontree_remove(u, v, info.level);
                    debug_assert!(removed, "drained non-tree edge ({u},{v}) not in adjacency");
                }
            }
        }
        // One shared scan attributes every surviving registry edge to its
        // group (survivors of other components are skipped).
        let group_of_root: FxHashMap<Vertex, usize> = plan
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| (g.root, gi))
            .collect();
        let mut survivors: Vec<Vec<(Vertex, Vertex, usize, bool)>> =
            vec![Vec::new(); plan.groups.len()];
        for (&(a, b), info) in &self.edges {
            if let Some(&gi) = group_of_root.get(&plan.dsu.find(a)) {
                survivors[gi].push((a, b, info.level, info.tree));
            }
        }
        for (gi, g) in plan.groups.iter().enumerate() {
            // Deterministic rebuild order regardless of registry hashing:
            // canonical (min, max) keys are unique, so the sort is total.
            let mut edges = std::mem::take(&mut survivors[gi]);
            edges.sort_unstable();
            let mut forest = SparseDsu::default();
            for &(a, b, _, tree) in &edges {
                if tree {
                    debug_assert!(!forest.same(a, b), "surviving spanning forest has a cycle");
                    forest.union(a, b);
                }
            }
            // Promote non-tree survivors until the component's spanning
            // forest is maximal again, resetting every surviving non-tree
            // edge — promoted or not — to level 0.  Keeping higher levels
            // would break the HDT level invariant (a level-i non-tree edge
            // must have its endpoints connected by tree edges of level ≥ i):
            // the forced tree survivors plus the promotions give no ≥ i
            // path guarantee, and a later replacement search for a
            // lower-level tree edge never scans the stranded bucket — a
            // false split with the edge still live.  Tree survivors keep
            // their levels: F_i components only shrink here, and every
            // non-tree edge they must cover now sits at level 0.
            for &(a, b, level, tree) in &edges {
                if tree {
                    continue;
                }
                if !forest.same(a, b) {
                    let removed = self.adj.nontree_remove(a, b, level);
                    debug_assert!(
                        removed,
                        "surviving non-tree edge ({a},{b}) not in adjacency"
                    );
                    self.adj.tree_insert(a, b, 0);
                    let info = self.edges.get_mut(&(a, b)).expect("surviving edge");
                    info.tree = true;
                    info.level = 0;
                    let linked = self.backend.link(a, b);
                    debug_assert!(linked, "backend rejected rebuild link ({a},{b})");
                } else if level != 0 {
                    let removed = self.adj.nontree_remove(a, b, level);
                    debug_assert!(
                        removed,
                        "surviving non-tree edge ({a},{b}) not in adjacency"
                    );
                    self.adj.nontree_insert(a, b, 0);
                    self.edges.get_mut(&(a, b)).expect("surviving edge").level = 0;
                }
                forest.union(a, b);
            }
            // Reverse replay: walking the group's deletions last-to-first,
            // `!same(u, v)` *before* re-unioning is connectivity in the live
            // graph right after op `i` ran — the sequential split flag.
            let mut splits = 0u64;
            for &i in g.indices.iter().rev() {
                let (u, v) = pairs[i];
                let split = !forest.same(u, v);
                forest.union(u, v);
                splits += u64::from(split);
                let kind = if classes[i] == DeleteClass::Tree {
                    EdgeKind::Tree
                } else {
                    EdgeKind::NonTree
                };
                slots[i] = Some(OpOutcome::EdgeDeleted { kind, split });
            }
            self.components += splits as usize;
            self.tel.add(Counter::ComponentSplits, splits);
            self.tel.incr(Counter::RebuildsTaken);
        }
    }

    /// Chunked classification pre-pass over a delete run: labels every pair
    /// against the **pre-batch** state — endpoint validity, liveness from
    /// the engine's edge registry, and tree-ness from the backend's
    /// read-only [`SpanningBackend::edge_kind_snapshot`] probe — then runs a
    /// sequential in-run duplicate fixup (a later occurrence of an edge the
    /// run already deletes is [`DeleteClass::Missing`]).  Chunks are probed
    /// on the pool; the result is independent of the chunk split, which the
    /// classification proptests pin down.
    ///
    /// Public only as test instrumentation (hidden from docs): the
    /// differential proptests compare chunked against sequential
    /// classification at arbitrary splits.
    #[doc(hidden)]
    pub fn classify_delete_pairs(
        &self,
        pairs: &[(Vertex, Vertex)],
        chunks: usize,
    ) -> Vec<DeleteClass> {
        let _classify_span = self.telemetry().span(Phase::DeleteClassify);
        let classify = |&(u, v): &(Vertex, Vertex)| self.classify_one_delete(u, v);
        let mut classes: Vec<DeleteClass> = if chunks <= 1 {
            pairs.iter().map(classify).collect()
        } else {
            let ranges = dyntree_primitives::chunk_ranges(pairs.len(), chunks);
            let parts: Vec<Vec<DeleteClass>> = ranges
                .par_iter()
                .map(|&(lo, hi)| pairs[lo..hi].iter().map(classify).collect())
                .collect();
            parts.concat()
        };
        // In-run duplicates: only the first occurrence of a live edge sees
        // the pre-batch state; every later one finds it already deleted.
        let mut deleted: FxHashSet<(Vertex, Vertex)> = FxHashSet::default();
        for (class, &(u, v)) in classes.iter_mut().zip(pairs) {
            if matches!(class, DeleteClass::NonTree | DeleteClass::Tree)
                && !deleted.insert((u.min(v), u.max(v)))
            {
                *class = DeleteClass::Missing;
            }
        }
        if self.telemetry().is_enabled() {
            let issued = classes
                .iter()
                .filter(|c| matches!(c, DeleteClass::NonTree))
                .count() as u64;
            self.telemetry()
                .add(Counter::DeleteCertificatesIssued, issued);
        }
        classes
    }

    /// Classifies a single pair against the pre-batch state (no duplicate
    /// accounting — [`classify_delete_pairs`](Self::classify_delete_pairs)
    /// layers that on top).  Validation order matches `check_edge`, so the
    /// drained path reports byte-identical errors to the single-op path.
    fn classify_one_delete(&self, u: Vertex, v: Vertex) -> DeleteClass {
        let n = self.len();
        if u == v {
            return DeleteClass::Invalid(GraphError::SelfLoop { v: u });
        }
        if u >= n || v >= n {
            let bad = if u >= n { u } else { v };
            return DeleteClass::Invalid(GraphError::VertexOutOfRange { v: bad, len: n });
        }
        // a plain shared registry read, probed concurrently from pool
        // workers strictly before any mutation of the run
        match self.edges.get(&canonical(u, v)).map(|info| info.tree) {
            None => DeleteClass::Missing,
            Some(tree) => match self.backend().edge_kind_snapshot(u, v) {
                Some(kind) => {
                    debug_assert_eq!(
                        kind == EdgeKind::Tree,
                        tree,
                        "backend forest disagrees with the edge registry on ({u},{v})"
                    );
                    match kind {
                        EdgeKind::Tree => DeleteClass::Tree,
                        EdgeKind::NonTree => DeleteClass::NonTree,
                    }
                }
                // Unreachable when gated on SNAPSHOT_QUERIES; the registry
                // answers for backends that decline the probe (test hook).
                None if tree => DeleteClass::Tree,
                None => DeleteClass::NonTree,
            },
        }
    }

    /// Removes the drained non-tree edges' adjacency mirrors, grouped by
    /// endpoint.  Each touched vertex's level buckets are rebuilt by
    /// replaying that vertex's removals on a cloned bucket with the same
    /// order-preserving position-remove the per-op path uses — buckets are
    /// sorted by neighbour id (the flat layout's canonical order), so any
    /// removal sequence lands on the same sorted survivor set and per-vertex
    /// effects are disjoint: the final adjacency is byte-identical to
    /// one-at-a-time deletion at every thread count and chunk split.  Past
    /// the chunk grain the rebuild fans out over
    /// [`dyntree_primitives::chunk_ranges`] vertex groups.
    fn flush_nontree_drain(&mut self, drain: &mut Vec<(Vertex, Vertex, usize)>) {
        if drain.is_empty() {
            return;
        }
        let _drain_span = self.telemetry().span(Phase::NonTreeDrain);
        let chunks = self.par.chunks_for(drain.len());
        if chunks <= 1 {
            for &(u, v, level) in drain.iter() {
                let removed = self.adj.nontree_remove(u, v, level);
                debug_assert!(removed, "drained non-tree edge ({u},{v}) not in adjacency");
            }
            drain.clear();
            return;
        }
        let mut by_vertex: FxHashMap<Vertex, Vec<(Vertex, usize)>> = FxHashMap::default();
        for &(u, v, level) in drain.iter() {
            by_vertex.entry(u).or_default().push((v, level));
            by_vertex.entry(v).or_default().push((u, level));
        }
        let mut verts: Vec<Vertex> = by_vertex.keys().copied().collect();
        verts.sort_unstable();
        // per worker chunk: one `(vertex, [(level, rebuilt bucket)])` entry
        // per touched vertex
        type RebuiltChunk = Vec<(Vertex, Vec<(usize, Vec<Vertex>)>)>;
        let rebuilt: Vec<RebuiltChunk> = {
            let adj = &self.adj;
            let ranges = dyntree_primitives::chunk_ranges(verts.len(), chunks.min(verts.len()));
            ranges
                .par_iter()
                .map(|&(lo, hi)| {
                    verts[lo..hi]
                        .iter()
                        .map(|&x| {
                            // evolving copies of x's touched level buckets
                            let mut touched: Vec<(usize, Vec<Vertex>)> = Vec::new();
                            for &(y, level) in &by_vertex[&x] {
                                let bucket = match touched.iter_mut().find(|(l, _)| *l == level) {
                                    Some((_, b)) => b,
                                    None => {
                                        touched.push((level, adj.nontree_neighbors_at(x, level)));
                                        &mut touched.last_mut().expect("just pushed").1
                                    }
                                };
                                let pos = bucket
                                    .iter()
                                    .position(|&w| w == y)
                                    .expect("drained non-tree edge in its bucket");
                                // order-preserving remove: the bucket stays
                                // sorted, which `nontree_set_bucket` requires
                                bucket.remove(pos);
                            }
                            (x, touched)
                        })
                        .collect()
                })
                .collect()
        };
        for (x, touched) in rebuilt.into_iter().flatten() {
            for (level, bucket) in touched {
                self.adj.nontree_set_bucket(x, level, &bucket);
            }
        }
        drain.clear();
    }

    /// Applies a transaction of [`GraphOp`]s in submission order and reports
    /// per-op outcomes plus aggregate counters.
    ///
    /// Every op is validated at the engine boundary — nothing invalid ever
    /// reaches a backend, and nothing panics: self loops, out-of-range
    /// vertices and unweighted backends surface as
    /// [`Rejected`](OpOutcome::Rejected) outcomes, while duplicate inserts
    /// and missing deletes are benign [`Skipped`](OpOutcome::Skipped)
    /// no-ops, so replaying a batch is safe.  `AddVertices` grows the vertex
    /// set mid-batch, and later ops in the same batch may use the new ids.
    ///
    /// Consecutive runs of `InsertEdge` ops are applied in bulk through a
    /// sparse union-find pre-pass: once earlier inserts of the run have
    /// united two endpoints, a later edge between them is classified
    /// non-tree without a backend connectivity probe.  Consecutive runs of
    /// `DeleteEdge` ops past the
    /// [`ParallelConfig::delete_grain`](dyntree_primitives::ParallelConfig::delete_grain)
    /// likewise take a chunked classification pre-pass and drain certified
    /// non-tree deletions in bulk.  The outcomes are exactly those of
    /// applying the ops one at a time.
    ///
    /// ```
    /// use dyntree_connectivity::UfoConnectivity;
    /// use dyntree_primitives::ops::GraphOp;
    ///
    /// let mut g = UfoConnectivity::new(0);
    /// let report = g.apply(&[
    ///     GraphOp::AddVertices(3),
    ///     GraphOp::InsertEdge(0, 1),
    ///     GraphOp::InsertEdge(0, 1), // duplicate: skipped
    ///     GraphOp::InsertEdge(2, 2), // self loop: rejected
    ///     GraphOp::SetWeight(1, 7),
    /// ]);
    /// assert_eq!((report.applied, report.skipped, report.rejected), (3, 1, 1));
    /// assert_eq!(report.vertices_after, 3);
    /// assert_eq!(report.components_after, 2);
    /// ```
    pub fn apply(&mut self, ops: &[OpOf<B>]) -> BatchReport {
        self.apply_with(ops, |_| {})
    }

    /// [`apply`](Self::apply) with a post-batch hook that runs *inside* the
    /// batch's `apply` phase span, after the ops execute but before the
    /// report is sealed.  The serving layer builds and publishes its
    /// snapshot here, so snapshot construction is charged to the same apply
    /// wall the phase tree reports (under its own `snapshot_build` child
    /// phase) instead of being invisible writer-side overhead.
    pub fn apply_with(&mut self, ops: &[OpOf<B>], after: impl FnOnce(&mut Self)) -> BatchReport {
        // With telemetry enabled, the report carries this batch's counter and
        // phase deltas (cumulative snapshot before vs after).
        let before = self.telemetry_snapshot();
        let mut report = BatchReport::new(self.len(), self.component_count());
        report.outcomes.reserve(ops.len());
        {
            let _apply_span = self.telemetry().span(Phase::Apply);
            self.apply_runs(ops, &mut report);
            self.version += 1;
            after(self);
        }
        report.close(self.len(), self.component_count());
        report.version = self.version;
        if let (Some(before), Some(now)) = (before, self.telemetry_snapshot()) {
            report.telemetry = Some(BatchTelemetry {
                delta: now.delta_since(&before),
            });
        }
        report
    }

    /// The run-splitting walk of [`Self::apply`], factored out so the
    /// `apply` phase span can scope exactly the op execution.
    fn apply_runs(&mut self, ops: &[OpOf<B>], report: &mut BatchReport) {
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                GraphOp::InsertEdge(..) => {
                    let mut j = i;
                    while j < ops.len() && matches!(ops[j], GraphOp::InsertEdge(..)) {
                        j += 1;
                    }
                    self.apply_insert_run(&ops[i..j], report);
                    i = j;
                }
                GraphOp::DeleteEdge(..) => {
                    let mut j = i;
                    while j < ops.len() && matches!(ops[j], GraphOp::DeleteEdge(..)) {
                        j += 1;
                    }
                    self.apply_delete_run(&ops[i..j], report);
                    i = j;
                }
                GraphOp::AddVertices(count) => {
                    let first = self.len();
                    // growth past the u32 id space is a typed rejection,
                    // not a panic or a silent id truncation
                    report.record(match grown_len(first, count) {
                        Ok(target) => {
                            self.ensure_vertices(target);
                            OpOutcome::VerticesAdded { first, count }
                        }
                        Err(e) => OpOutcome::from_error(e),
                    });
                    i += 1;
                }
                GraphOp::SetWeight(v, w) => {
                    report.record(match self.try_set_weight(v, w) {
                        Ok(()) => OpOutcome::WeightSet,
                        Err(e) => OpOutcome::from_error(e),
                    });
                    i += 1;
                }
                // The bulk applies run as singletons, like SetWeight: they
                // mutate weights sequentially in op order, so reports are
                // byte-identical at every thread count by construction.
                GraphOp::PathApply(u, v, delta) => {
                    report.record(match self.try_path_apply(u, v, delta) {
                        Ok(Some(count)) => OpOutcome::PathApplied { count },
                        Ok(None) => OpOutcome::from_error(GraphError::Disconnected { u, v }),
                        Err(e) => OpOutcome::from_error(e),
                    });
                    i += 1;
                }
                GraphOp::ComponentApply(v, delta) => {
                    report.record(match self.try_component_apply(v, delta) {
                        Ok(count) => OpOutcome::ComponentApplied { count },
                        Err(e) => OpOutcome::from_error(e),
                    });
                    i += 1;
                }
            }
        }
    }

    /// Applies one maximal run of consecutive `InsertEdge` ops with the
    /// sparse-DSU cycle-classification pre-pass, recording one outcome per
    /// op.  The DSU is seeded from the run itself: an edge is unioned once
    /// it is live (freshly applied or already present), so `same(u, v)`
    /// proves engine connectivity and the backend probe can be skipped.
    ///
    /// An `AddVertices` op can never sit inside a run, so `self.len()` is
    /// constant across it — which is what lets the parallel pre-pass
    /// ([`plan_insert_pairs`](Self::plan_insert_pairs)) validate endpoints
    /// and compute connectedness certificates chunk-by-chunk up front.
    fn apply_insert_run(&mut self, run: &[OpOf<B>], report: &mut BatchReport) {
        let known = self.plan_insert_pairs(run);
        let _walk_span = self.telemetry().span(Phase::InsertWalk);
        let mut dsu = SparseDsu::default();
        for (i, op) in run.iter().enumerate() {
            let (u, v) = insert_pair(op);
            let outcome = if u == v {
                OpOutcome::from_error(GraphError::SelfLoop { v: u })
            } else if u >= self.len() || v >= self.len() {
                // same endpoint order as `check_edge`, so the bulk path
                // reports byte-identical errors to the single-op path
                let bad = if u >= self.len() { u } else { v };
                OpOutcome::from_error(GraphError::VertexOutOfRange {
                    v: bad,
                    len: self.len(),
                })
            } else if self.has_edge(u, v) {
                dsu.union(u, v);
                OpOutcome::from_error(GraphError::DuplicateEdge {
                    u: u.min(v),
                    v: u.max(v),
                })
            } else {
                let certified = known.as_deref().is_some_and(|k| k[i]);
                if certified || dsu.same(u, v) {
                    // Either certificate proves the endpoints are already
                    // connected, so this is a cycle edge — same conclusion
                    // the live probe below would reach, minus the probe.
                    self.telemetry().incr(if certified {
                        Counter::InsertCertificatesUsed
                    } else {
                        Counter::InsertDsuHits
                    });
                    self.telemetry().incr(Counter::LiveProbesSaved);
                    self.insert_nontree_edge(u, v);
                    dsu.union(u, v);
                    OpOutcome::EdgeInserted {
                        kind: EdgeKind::NonTree,
                    }
                } else {
                    let kind = self
                        .try_insert_edge(u, v)
                        .expect("pre-validated insert rejected");
                    dsu.union(u, v);
                    OpOutcome::EdgeInserted { kind }
                }
            };
            report.record(outcome);
        }
    }

    /// Applies one maximal run of consecutive `DeleteEdge` ops, recording
    /// one outcome per op.  The one gate of the delete machinery: short runs
    /// (the common case in mixed streams), runs on a 1-thread config and
    /// snapshot-less backends take the per-op walk without materializing a
    /// pair list.  Chunkable runs past the delete grain — or, with the
    /// rebuild hatch on, any run past it, since the hatch pays off even on a
    /// 1-thread pool — go through the classification pre-pass + non-tree
    /// drain of [`apply_delete_pairs`](Self::apply_delete_pairs).
    ///
    /// An `AddVertices` op can never sit inside a run, so `self.len()` is
    /// constant across it — endpoint validity certified by the pre-pass
    /// cannot go stale mid-run.
    fn apply_delete_run(&mut self, run: &[OpOf<B>], report: &mut BatchReport) {
        let hatch = self.par.rebuild_enabled() && run.len() >= self.par.delete_grain;
        if B::SNAPSHOT_QUERIES && (self.par.worth_delete(run.len()) || hatch) {
            let chunks = self.par.chunks_for(run.len());
            if chunks > 1 || hatch {
                let pairs: Vec<(Vertex, Vertex)> = run.iter().map(delete_pair).collect();
                self.apply_delete_pairs(&pairs, chunks, report);
                return;
            }
        }
        let _walk_span = self.telemetry().span(Phase::DeleteWalk);
        for op in run {
            let (u, v) = delete_pair(op);
            report.record(match self.try_delete_edge(u, v) {
                Ok(d) => OpOutcome::EdgeDeleted {
                    kind: d.kind,
                    split: d.split,
                },
                Err(e) => OpOutcome::from_error(e),
            });
        }
    }
}

/// The endpoints of an op of an insert run.
fn insert_pair<W>(op: &GraphOp<W>) -> (Vertex, Vertex) {
    let &GraphOp::InsertEdge(u, v) = op else {
        unreachable!("insert runs contain only InsertEdge ops");
    };
    (u, v)
}

/// The endpoints of an op of a delete run.
fn delete_pair<W>(op: &GraphOp<W>) -> (Vertex, Vertex) {
    let &GraphOp::DeleteEdge(u, v) = op else {
        unreachable!("delete runs contain only DeleteEdge ops");
    };
    (u, v)
}

/// Union-find over only the vertices that actually appear in a batch, so
/// the insertion pre-pass never pays for the graph's full vertex range.
#[derive(Default)]
struct SparseDsu {
    parent: FxHashMap<Vertex, Vertex>,
}

impl SparseDsu {
    /// Iterative find with full path compression — a chain-shaped batch must
    /// not recurse `O(batch)` deep.
    fn find(&mut self, x: Vertex) -> Vertex {
        let mut root = x;
        loop {
            let p = *self.parent.entry(root).or_insert(root);
            if p == root {
                break;
            }
            root = p;
        }
        let mut cur = x;
        while cur != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    fn same(&mut self, a: Vertex, b: Vertex) -> bool {
        self.find(a) == self.find(b)
    }

    fn union(&mut self, a: Vertex, b: Vertex) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UfoConnectivity;
    use dyntree_primitives::ops::MAX_VERTICES;

    #[test]
    fn apply_reports_per_op_outcomes_and_counters() {
        let mut g = UfoConnectivity::new(0);
        let report = g.apply(&[
            GraphOp::AddVertices(4),
            GraphOp::InsertEdge(0, 1),
            GraphOp::InsertEdge(1, 2),
            GraphOp::InsertEdge(2, 0),  // closes a cycle within the run
            GraphOp::InsertEdge(0, 1),  // duplicate
            GraphOp::InsertEdge(3, 3),  // self loop
            GraphOp::InsertEdge(0, 99), // out of range
            GraphOp::SetWeight(2, 5),
            GraphOp::SetWeight(42, 5), // out of range
            GraphOp::DeleteEdge(0, 1), // tree edge, replaced by (2,0)
            GraphOp::DeleteEdge(0, 1), // now missing
            GraphOp::DeleteEdge(1, 2), // splits
        ]);
        use OpOutcome::*;
        assert_eq!(
            report.outcomes,
            vec![
                VerticesAdded { first: 0, count: 4 },
                EdgeInserted {
                    kind: EdgeKind::Tree
                },
                EdgeInserted {
                    kind: EdgeKind::Tree
                },
                EdgeInserted {
                    kind: EdgeKind::NonTree
                },
                Skipped(GraphError::DuplicateEdge { u: 0, v: 1 }),
                Rejected(GraphError::SelfLoop { v: 3 }),
                Rejected(GraphError::VertexOutOfRange { v: 99, len: 4 }),
                WeightSet,
                Rejected(GraphError::VertexOutOfRange { v: 42, len: 4 }),
                EdgeDeleted {
                    kind: EdgeKind::Tree,
                    split: false
                },
                Skipped(GraphError::MissingEdge { u: 0, v: 1 }),
                EdgeDeleted {
                    kind: EdgeKind::Tree,
                    split: true
                },
            ]
        );
        assert_eq!((report.applied, report.skipped, report.rejected), (7, 2, 3));
        assert_eq!((report.vertices_before, report.vertices_after), (0, 4));
        assert_eq!(report.components_before, 0);
        assert_eq!(report.components_after, 3); // {0,2}, {1}, {3}
        assert_eq!(g.try_connected(0, 2), Ok(true));
        assert_eq!(g.try_connected(0, 1), Ok(false));
        g.check_invariants().unwrap();
    }

    #[test]
    fn apply_rejects_vertex_id_space_overflow() {
        let mut g = UfoConnectivity::new(1);
        let report = g.apply(&[GraphOp::AddVertices(usize::MAX)]);
        assert_eq!(
            report.outcomes,
            vec![OpOutcome::Rejected(GraphError::VertexOutOfRange {
                v: usize::MAX,
                len: 1,
            })]
        );
        assert_eq!(g.len(), 1, "no growth on a rejected op");
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn apply_vertex_growth_mid_batch_enables_later_ops() {
        let mut g = UfoConnectivity::new(2);
        let report = g.apply(&[
            GraphOp::InsertEdge(0, 3), // not yet grown: rejected
            GraphOp::AddVertices(2),
            GraphOp::InsertEdge(0, 3), // now valid
            GraphOp::SetWeight(3, 9),
        ]);
        assert_eq!(
            report.outcomes[0],
            OpOutcome::Rejected(GraphError::VertexOutOfRange { v: 3, len: 2 })
        );
        assert_eq!(
            report.outcomes[2],
            OpOutcome::EdgeInserted {
                kind: EdgeKind::Tree
            }
        );
        assert_eq!(report.outcomes[3], OpOutcome::WeightSet);
        assert_eq!(g.try_connected(0, 3), Ok(true));
        assert_eq!(g.try_component_agg(3).map(|a| a.sum), Ok(9));
    }

    #[test]
    fn bulk_apply_ops_report_counts_and_typed_declines() {
        use crate::{EulerConnectivity, LinkCutConnectivity};
        // Link-cut: path applies work, component applies decline.
        let mut g = LinkCutConnectivity::new(5);
        let report = g.apply(&[
            GraphOp::InsertEdge(0, 1),
            GraphOp::InsertEdge(1, 2),
            GraphOp::InsertEdge(3, 4),
            GraphOp::SetWeight(1, 7),
            GraphOp::PathApply(0, 2, 10),
            GraphOp::PathApply(0, 3, 1),   // disconnected: benign skip
            GraphOp::PathApply(0, 99, 1),  // out of range: rejected
            GraphOp::ComponentApply(0, 1), // linkcut declines: rejected
        ]);
        use OpOutcome::*;
        assert_eq!(
            &report.outcomes[3..],
            &[
                WeightSet,
                PathApplied { count: 3 },
                Skipped(GraphError::Disconnected { u: 0, v: 3 }),
                Rejected(GraphError::VertexOutOfRange { v: 99, len: 5 }),
                Rejected(GraphError::UnsupportedQuery),
            ]
        );
        assert_eq!(
            g.try_path_agg(0, 2).map(|a| a.map(|a| a.sum)),
            Ok(Some(7 + 30))
        );
        assert_eq!(
            g.try_path_agg(3, 4).map(|a| a.map(|a| a.sum)),
            Ok(Some(0)),
            "other component untouched"
        );

        // Euler: component applies work, path applies decline.
        let mut g = EulerConnectivity::new(4);
        let report = g.apply(&[
            GraphOp::InsertEdge(0, 1),
            GraphOp::InsertEdge(1, 2),
            GraphOp::ComponentApply(2, 100),
            GraphOp::PathApply(0, 2, 1), // euler declines: rejected
        ]);
        assert_eq!(
            &report.outcomes[2..],
            &[
                ComponentApplied { count: 3 },
                Rejected(GraphError::UnsupportedQuery),
            ]
        );
        assert_eq!(g.try_component_agg(0).map(|a| a.sum), Ok(300));
        assert_eq!(
            g.try_component_agg(3).map(|a| a.sum),
            Ok(0),
            "isolated vertex untouched"
        );
        // the bulk update is visible through per-vertex readback too
        assert_eq!(g.vertex_weight(1), Some(100));
    }

    #[test]
    fn apply_matches_singleton_ops() {
        // one big mixed batch vs the same ops applied one at a time
        let n = 30;
        let mut ops: Vec<OpOf<ufo_forest::UfoForest>> = vec![GraphOp::AddVertices(n)];
        let mut x = 1u64;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as usize % (n + 2); // occasionally out of range
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as usize % (n + 2);
            ops.push(if x & 4 == 0 {
                GraphOp::DeleteEdge(u, v)
            } else {
                GraphOp::InsertEdge(u, v)
            });
        }
        let mut bulk = UfoConnectivity::new(0);
        let bulk_report = bulk.apply(&ops);
        let mut single = UfoConnectivity::new(0);
        let mut single_outcomes = Vec::new();
        for op in &ops {
            let r = single.apply(std::slice::from_ref(op));
            single_outcomes.extend(r.outcomes);
        }
        assert_eq!(bulk_report.outcomes, single_outcomes);
        assert_eq!(bulk.component_count(), single.component_count());
        assert_eq!(bulk.num_edges(), single.num_edges());
        bulk.check_invariants().unwrap();
    }

    #[test]
    fn parallel_pre_pass_outcomes_match_sequential() {
        use dyntree_primitives::ParallelConfig;
        // A grain of 8 forces the chunked pre-pass on modest batches even
        // when the global pool has a single thread (the chunked *code path*
        // still runs; the pool just executes its chunks inline).
        let forced = ParallelConfig {
            threads: 4,
            batch_grain: 8,
            chunk_grain: 4,
            delete_grain: 8,
            ..ParallelConfig::default()
        };
        fn trace(n: usize) -> Vec<GraphOp> {
            let mut ops = vec![GraphOp::AddVertices(n)];
            let mut x = 7u64;
            for i in 0..600 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (x >> 33) as usize % (n + 2); // sometimes out of range
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (x >> 33) as usize % (n + 2);
                // long insert runs (the parallel pre-pass needs runs, not
                // singletons) with occasional delete breaks
                ops.push(if i % 97 == 96 {
                    GraphOp::DeleteEdge(u, v)
                } else {
                    GraphOp::InsertEdge(u, v)
                });
            }
            ops
        }
        fn check<B: SpanningBackend<Weights = dyntree_primitives::algebra::SumMinMax>>(
            forced: ParallelConfig,
        ) {
            let ops = trace(40);
            let mut par: DynConnectivity<B> = DynConnectivity::new(0).with_parallel_config(forced);
            let mut seq: DynConnectivity<B> =
                DynConnectivity::new(0).with_parallel_config(ParallelConfig::sequential());
            let pr = par.apply(&ops);
            let sr = seq.apply(&ops);
            assert_eq!(pr.outcomes, sr.outcomes, "byte-identical outcomes");
            assert_eq!(pr.applied, sr.applied);
            assert_eq!(par.component_count(), seq.component_count());
            assert_eq!(par.num_edges(), seq.num_edges());
            par.check_invariants().unwrap();
        }
        // ufo runs the chunked pre-pass (snapshot probes); link-cut skips it
        // entirely (`SNAPSHOT_QUERIES = false` — its chunk-DSU certificates
        // would be subsumed by the walk's own DSU) — both capability classes
        // must match the sequential walk exactly.
        check::<ufo_forest::UfoForest>(forced);
        check::<dyntree_linkcut::LinkCutForest>(forced);
    }

    #[test]
    fn parallel_delete_pre_pass_outcomes_match_sequential() {
        use dyntree_primitives::ParallelConfig;
        // Low grains force the classification pre-pass + drain on modest
        // runs even on a 1-thread pool (chunks then run inline).
        let forced = ParallelConfig {
            threads: 4,
            batch_grain: 8,
            chunk_grain: 4,
            delete_grain: 8,
            ..ParallelConfig::default()
        };
        fn delete_heavy_trace(n: usize) -> Vec<GraphOp> {
            let mut ops = vec![GraphOp::AddVertices(n)];
            let mut live: Vec<(usize, usize)> = Vec::new();
            let mut x = 42u64;
            let mut rand = move |m: usize| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as usize) % m
            };
            // build: chain + random extra edges (plenty of non-tree cycles)
            for i in 0..n - 1 {
                ops.push(GraphOp::InsertEdge(i, i + 1));
                live.push((i, i + 1));
            }
            for _ in 0..3 * n {
                let (u, v) = (rand(n), rand(n));
                ops.push(GraphOp::InsertEdge(u, v));
                if u != v {
                    live.push((u, v));
                }
            }
            // one long delete run: live edges (tree deletions trigger
            // replacements that promote later-deleted non-tree edges),
            // duplicates, missing edges, self loops and out-of-range ids
            let total = live.len() + 40;
            for i in 0..total {
                ops.push(match i % 10 {
                    7 => GraphOp::DeleteEdge(rand(n), rand(n)), // often missing
                    8 => {
                        let v = rand(n);
                        GraphOp::DeleteEdge(v, v) // self loop
                    }
                    9 => GraphOp::DeleteEdge(rand(n), n + rand(4)), // out of range
                    _ if !live.is_empty() => {
                        let idx = rand(live.len());
                        let (u, v) = live[idx];
                        if i % 3 == 0 {
                            live.swap_remove(idx);
                        } // else: keep → a later duplicate delete
                        GraphOp::DeleteEdge(u, v)
                    }
                    _ => GraphOp::DeleteEdge(rand(n), rand(n)),
                });
            }
            ops
        }
        let ops = delete_heavy_trace(48);
        let mut par: DynConnectivity<ufo_forest::UfoForest> =
            DynConnectivity::new(0).with_parallel_config(forced);
        let mut seq: DynConnectivity<ufo_forest::UfoForest> =
            DynConnectivity::new(0).with_parallel_config(ParallelConfig::sequential());
        let pr = par.apply(&ops);
        let sr = seq.apply(&ops);
        assert_eq!(pr.outcomes, sr.outcomes, "byte-identical outcomes");
        assert_eq!(
            (pr.applied, pr.skipped, pr.rejected),
            (sr.applied, sr.skipped, sr.rejected)
        );
        assert_eq!(par.component_count(), seq.component_count());
        assert_eq!(par.num_edges(), seq.num_edges());
        par.check_invariants().unwrap();

        // a pure delete run tearing the whole graph down, duplicates included
        let edges: Vec<(usize, usize)> = (0..200).map(|i| (i % 29, (i * 11 + 1) % 29)).collect();
        let mut a: DynConnectivity<ufo_forest::UfoForest> =
            DynConnectivity::new(29).with_parallel_config(forced);
        let mut b: DynConnectivity<ufo_forest::UfoForest> =
            DynConnectivity::new(29).with_parallel_config(ParallelConfig::sequential());
        a.apply(&inserts(&edges));
        b.apply(&inserts(&edges));
        let (ar, br) = (a.apply(&deletes(&edges)), b.apply(&deletes(&edges)));
        assert_eq!(ar.outcomes, br.outcomes);
        assert_eq!(a.component_count(), b.component_count());
        assert_eq!(a.num_edges(), 0);
        a.check_invariants().unwrap();
    }

    #[test]
    fn snapshotless_backends_take_the_sequential_delete_walk() {
        use dyntree_primitives::ParallelConfig;
        let forced = ParallelConfig {
            threads: 8,
            batch_grain: 8,
            chunk_grain: 2,
            delete_grain: 4,
            ..ParallelConfig::default()
        };
        // link-cut declines snapshot probes; the delete run must still give
        // byte-identical outcomes through the per-op fallback
        let edges: Vec<(usize, usize)> = (0..60).map(|i| (i % 13, (i * 5 + 1) % 13)).collect();
        let mut par: DynConnectivity<dyntree_linkcut::LinkCutForest> =
            DynConnectivity::new(13).with_parallel_config(forced);
        let mut seq: DynConnectivity<dyntree_linkcut::LinkCutForest> =
            DynConnectivity::new(13).with_parallel_config(ParallelConfig::sequential());
        par.apply(&inserts(&edges));
        seq.apply(&inserts(&edges));
        let ops: Vec<GraphOp> = edges
            .iter()
            .flat_map(|&(u, v)| [GraphOp::DeleteEdge(u, v); 2]) // with duplicates
            .collect();
        let pr = par.apply(&ops);
        let sr = seq.apply(&ops);
        assert_eq!(pr.outcomes, sr.outcomes);
        par.check_invariants().unwrap();
    }

    #[test]
    fn pre_pass_survives_more_chunks_than_items_per_chunk() {
        // Regression: a uniform ceil-division chunk split sent trailing
        // chunks past the end of the batch (lo > hi slice panic) whenever
        // chunks² exceeded the batch length, e.g. a wide explicit fan-out
        // over a modest batch.
        use dyntree_primitives::ParallelConfig;
        let cfg = ParallelConfig {
            threads: 64,
            batch_grain: 8,
            chunk_grain: 1,
            delete_grain: 8,
            ..ParallelConfig::default()
        };
        let mut g: DynConnectivity<ufo_forest::UfoForest> =
            DynConnectivity::new(200).with_parallel_config(cfg);
        let edges: Vec<(usize, usize)> = (0..100).map(|i| (i, i + 100)).collect();
        assert_eq!(g.apply(&inserts(&edges)).applied, 100);
        g.check_invariants().unwrap();
    }

    #[test]
    fn insert_runs_skip_duplicates_and_reject_invalid_edges() {
        let mut g = UfoConnectivity::new(5);
        let report = g.apply(&inserts(&[(0, 1), (1, 0), (1, 2), (2, 0), (3, 3), (0, 9)]));
        // (1,0) duplicates (0,1); (3,3) self loop; (0,9) out of range
        assert_eq!((report.applied, report.skipped, report.rejected), (3, 1, 2));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.component_count(), 3); // {0,1,2}, {3}, {4}
        assert_eq!(g.spanning_forest_size(), 2);
    }

    #[test]
    fn batch_delete_triggers_replacements() {
        let mut g = UfoConnectivity::new(6);
        // two triangles bridged by (2, 3)
        g.apply(&inserts(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (2, 3),
        ]));
        assert_eq!(g.component_count(), 1);
        // delete one tree edge per triangle: non-tree edges replace them
        let report = g.apply(&deletes(&[(0, 1), (3, 4)]));
        assert_eq!(report.applied, 2);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.try_connected(0, 5), Ok(true));
        // deleting the bridge splits; the repeat is a benign skip
        let report = g.apply(&deletes(&[(2, 3), (2, 3)]));
        assert_eq!((report.applied, report.skipped), (1, 1));
        assert_eq!(g.try_connected(0, 5), Ok(false));
        assert_eq!(g.component_count(), 2);
    }

    #[test]
    fn huge_chain_batch_does_not_overflow_the_stack() {
        // one chain-shaped insert run plus a closing edge: link-cut takes no
        // pre-pass, so the walk's own DSU must resolve the length-k parent
        // chain iteratively
        let k = 200_000;
        let mut g = crate::LinkCutConnectivity::new(k + 1);
        let mut batch: Vec<(usize, usize)> = (0..k).map(|i| (i, i + 1)).collect();
        batch.push((0, k));
        assert_eq!(g.apply(&inserts(&batch)).applied, k + 1);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.spanning_forest_size(), k);
    }

    #[test]
    fn batch_matches_sequential() {
        let mut batched = UfoConnectivity::new(40);
        let mut sequential = UfoConnectivity::new(40);
        let edges: Vec<(usize, usize)> = (0..40)
            .flat_map(|u| [(u, (u + 1) % 40), (u, (u + 7) % 40)])
            .collect();
        for chunk in edges.chunks(8) {
            batched.apply(&inserts(chunk));
            for &(u, v) in chunk {
                let _ = sequential.try_insert_edge(u, v);
            }
        }
        assert_eq!(batched.num_edges(), sequential.num_edges());
        assert_eq!(batched.component_count(), sequential.component_count());
        for chunk in edges.chunks(16) {
            batched.apply(&deletes(chunk));
            for &(u, v) in chunk {
                let _ = sequential.try_delete_edge(u, v);
            }
            assert_eq!(batched.component_count(), sequential.component_count());
        }
        assert_eq!(batched.num_edges(), 0);
    }

    #[test]
    fn growth_past_the_u32_id_space_is_rejected_without_allocating() {
        let mut g = UfoConnectivity::new(3);
        let bytes = g.memory_bytes();
        let report = g.apply(&[GraphOp::AddVertices(1 << 32), GraphOp::SetWeight(2, 4)]);
        assert_eq!(
            report.outcomes,
            vec![
                OpOutcome::Rejected(GraphError::VertexOutOfRange {
                    v: usize::MAX,
                    len: 3,
                }),
                OpOutcome::WeightSet,
            ]
        );
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.memory_bytes(),
            bytes,
            "a rejected growth allocates nothing"
        );
        assert_eq!(g.vertex_weight(2), Some(4));
        // the direct form refuses the same growth loudly
        let mut h = UfoConnectivity::new(0);
        let grow = std::panic::catch_unwind(move || h.ensure_vertices(MAX_VERTICES + 1));
        assert!(grow.is_err(), "ensure_vertices past the ceiling panics");
    }

    fn inserts(edges: &[(Vertex, Vertex)]) -> Vec<GraphOp> {
        edges
            .iter()
            .map(|&(u, v)| GraphOp::InsertEdge(u, v))
            .collect()
    }

    fn deletes(edges: &[(Vertex, Vertex)]) -> Vec<GraphOp> {
        edges
            .iter()
            .map(|&(u, v)| GraphOp::DeleteEdge(u, v))
            .collect()
    }
}
