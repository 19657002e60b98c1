//! The HDT replacement-search core, factored out of the engine and made
//! generic over an *adjacency view* ([`SearchAdj`]).
//!
//! Two views implement the trait:
//!
//! * [`DirectAdj`] — mutable borrows of the engine's own level adjacency and
//!   edge registry.  The engine's sequential `find_replacement` goes through
//!   this view; it is a zero-cost field-borrow split, byte-identical to the
//!   old in-place code.
//! * [`OverlayAdj`] — a copy-on-touch overlay over a *shared* engine
//!   reference.  Pool workers run whole replacement searches against it
//!   without mutating the engine: the first touch of a vertex clones its
//!   [`VertexAdj`] into the overlay, and every subsequent primitive
//!   operation hits the clone through the **same** one-sided `VertexAdj`
//!   methods the direct view uses.  The finished clones and the edge-record
//!   deltas are the diff; the batch layer installs them wholesale, in
//!   canonical run order, so the final state is byte-identical to having run
//!   the searches in place.  Soundness of sharing `&self` across workers
//!   rests on an independence certificate: the batch layer only fans out
//!   searches whose deletions live in *distinct pre-batch forest
//!   components*, and a replacement search never reads or writes outside its
//!   deletion's component (DESIGN.md §10).
//!
//! The search body itself is restructured relative to the historical
//! per-edge code: the tree-edge level bumps of each pass run as a grouped
//! collect-then-apply sweep over the side (the read-only collect can fan out
//! over [`chunk_ranges`] for huge sides), and the side queues, the bump
//! buffer and the drained non-tree bucket live in a reusable
//! [`SearchScratch`] arena instead of fresh allocations per search.  The
//! lock-step BFS walks borrowed adjacency slices
//! ([`SearchAdj::tree_neighbors_from`]) through a slice cursor, so with
//! warm scratch a search through [`DirectAdj`] allocates nothing unless it
//! fans its bump collect out over the pool (DESIGN.md §12).  The non-tree
//! scan stays a strictly sequential early-exit loop: its scanned-edge count
//! is part of the deterministic telemetry contract, and the first
//! qualifying edge — in canonical bucket order — must be the one promoted.

use dyntree_primitives::hash::FxHashMap;

use dyntree_primitives::chunk_ranges;
use dyntree_primitives::telemetry::{Counter, Phase};
use dyntree_primitives::{ParallelConfig, Telemetry};
use rayon::prelude::*;

use crate::levels::{LevelAdjacency, VertexAdj};
use crate::Vertex;

/// Book-keeping for one live edge (level only ever increases; `tree` tracks
/// spanning-forest membership).  Lives here so both the engine and the
/// overlay can share it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EdgeInfo {
    pub(crate) level: usize,
    pub(crate) tree: bool,
}

/// Canonical `(min, max)` orientation for an undirected edge key.
#[inline]
pub(crate) fn canonical(u: Vertex, v: Vertex) -> (Vertex, Vertex) {
    (u.min(v), u.max(v))
}

/// The adjacency + edge-registry surface a replacement search needs.  Every
/// mutation is expressed in the same vocabulary [`LevelAdjacency`] exposes,
/// so the direct and overlay implementations stay line-for-line parallel.
/// Reads hand out borrowed slices and bucket drains fill a caller-owned
/// buffer, so the surface itself never allocates.
pub(crate) trait SearchAdj {
    /// `v`'s tree edges with level ≥ `level`: the borrowed tail slice of
    /// its `(level, neighbour)` mirror, in ascending `(level, neighbour)`
    /// order (see [`VertexAdj::tree_neighbors_from`]).
    fn tree_neighbors_from(&self, v: Vertex, level: usize) -> &[(u32, u32)];

    /// Appends `(v, w)` for every tree neighbour `w` of `v` at exactly
    /// `level`.
    fn collect_bumps(&self, v: Vertex, level: usize, out: &mut Vec<(Vertex, Vertex)>);

    /// Level of live tree edge `(u, v)`, or `None`.
    fn tree_level(&self, u: Vertex, v: Vertex) -> Option<usize>;

    /// Raises tree edge `(x, w)` to `level` (adjacency both sides + registry).
    fn bump_tree_edge(&mut self, x: Vertex, w: Vertex, level: usize);

    /// Removes `v`'s own level-`level` non-tree bucket, appending it to
    /// `out` in ascending neighbour order.
    fn nontree_take_bucket(&mut self, v: Vertex, level: usize, out: &mut Vec<Vertex>);

    /// Replaces `v`'s own level-`level` non-tree bucket with `bucket`
    /// (ascending).
    fn nontree_set_bucket(&mut self, v: Vertex, level: usize, bucket: &[Vertex]);

    /// Raises non-tree edge `(x, y)` from `level` to `level + 1`: re-files
    /// the mirror at `y` and pushes both sides at the new level (`x`'s old
    /// entry is the drained-bucket slot the caller is already holding), and
    /// bumps the registry level.
    fn bump_nontree_edge(&mut self, x: Vertex, y: Vertex, level: usize);

    /// Promotes non-tree edge `(x, y)` of `level` into the spanning forest:
    /// removes the mirror at `y` (again, `x`'s own entry is the drained
    /// slot), inserts the tree edge at `level`, and flips the registry flag.
    /// The *backend* link is the caller's business — the search never
    /// touches the backend.
    fn promote(&mut self, x: Vertex, y: Vertex, level: usize);

    /// Optional chunked fan-out of the read-only bump collect over `side`;
    /// returns `false` when unsupported or not worth it (the caller then
    /// collects sequentially).  Implementations must append exactly what the
    /// sequential collect would: per-vertex pairs in side order, bucket
    /// order within a vertex.
    fn par_collect_bumps(
        &self,
        _side: &[Vertex],
        _level: usize,
        _out: &mut Vec<(Vertex, Vertex)>,
    ) -> bool {
        false
    }
}

/// Field-borrow split of the engine: the sequential search path.
pub(crate) struct DirectAdj<'a> {
    pub adj: &'a mut LevelAdjacency,
    pub edges: &'a mut FxHashMap<(Vertex, Vertex), EdgeInfo>,
    pub par: ParallelConfig,
}

impl SearchAdj for DirectAdj<'_> {
    fn tree_neighbors_from(&self, v: Vertex, level: usize) -> &[(u32, u32)] {
        self.adj.tree_neighbors_from(v, level)
    }

    fn collect_bumps(&self, v: Vertex, level: usize, out: &mut Vec<(Vertex, Vertex)>) {
        out.extend(self.adj.vertex(v).tree_neighbors_at(level).map(|w| (v, w)));
    }

    fn tree_level(&self, u: Vertex, v: Vertex) -> Option<usize> {
        self.adj.tree_level(u, v)
    }

    fn bump_tree_edge(&mut self, x: Vertex, w: Vertex, level: usize) {
        self.adj.tree_set_level(x, w, level);
        self.edges
            .get_mut(&canonical(x, w))
            .expect("live tree edge")
            .level = level;
    }

    fn nontree_take_bucket(&mut self, v: Vertex, level: usize, out: &mut Vec<Vertex>) {
        self.adj.nontree_take_bucket(v, level, out);
    }

    fn nontree_set_bucket(&mut self, v: Vertex, level: usize, bucket: &[Vertex]) {
        self.adj.nontree_set_bucket(v, level, bucket);
    }

    fn bump_nontree_edge(&mut self, x: Vertex, y: Vertex, level: usize) {
        let moved = self.adj.nontree_remove_one_sided(y, x, level);
        debug_assert!(moved, "mirror of ({x},{y}) missing");
        self.adj.nontree_push_one_sided(y, x, level + 1);
        self.adj.nontree_push_one_sided(x, y, level + 1);
        self.edges
            .get_mut(&canonical(x, y))
            .expect("live non-tree edge")
            .level = level + 1;
    }

    fn promote(&mut self, x: Vertex, y: Vertex, level: usize) {
        let removed = self.adj.nontree_remove_one_sided(y, x, level);
        debug_assert!(removed, "mirror of ({x},{y}) missing");
        self.adj.tree_insert(x, y, level);
        self.edges
            .get_mut(&canonical(x, y))
            .expect("live non-tree edge")
            .tree = true;
    }

    fn par_collect_bumps(
        &self,
        side: &[Vertex],
        level: usize,
        out: &mut Vec<(Vertex, Vertex)>,
    ) -> bool {
        // Worth it only for genuinely huge sides: the collect is a read-only
        // bucket sweep, so per-chunk dispatch must amortize over many
        // vertices.  Chunk results are concatenated in range order, which is
        // exactly the sequential append order — byte-identical by
        // construction.
        let chunks = self.par.chunks_for(side.len());
        if chunks <= 1 || side.len() < self.par.chunk_grain {
            return false;
        }
        let adj: &LevelAdjacency = self.adj;
        let parts: Vec<Vec<(Vertex, Vertex)>> = chunk_ranges(side.len(), chunks)
            .par_iter()
            .map(|&(lo, hi)| {
                let mut part = Vec::new();
                for &x in &side[lo..hi] {
                    part.extend(adj.vertex(x).tree_neighbors_at(level).map(|w| (x, w)));
                }
                part
            })
            .collect();
        for part in parts {
            out.extend(part);
        }
        true
    }
}

/// Copy-on-touch overlay over a shared engine: pool workers run searches
/// here without mutating the engine, producing a wholesale per-vertex diff.
pub(crate) struct OverlayAdj<'a> {
    base_adj: &'a LevelAdjacency,
    base_edges: &'a FxHashMap<(Vertex, Vertex), EdgeInfo>,
    touched: FxHashMap<Vertex, VertexAdj>,
    /// Edge-registry delta: `Some(info)` = insert/replace, `None` = remove.
    edge_overlay: FxHashMap<(Vertex, Vertex), Option<EdgeInfo>>,
}

impl<'a> OverlayAdj<'a> {
    pub fn new(
        base_adj: &'a LevelAdjacency,
        base_edges: &'a FxHashMap<(Vertex, Vertex), EdgeInfo>,
    ) -> Self {
        Self {
            base_adj,
            base_edges,
            touched: FxHashMap::default(),
            edge_overlay: FxHashMap::default(),
        }
    }

    fn view(&self, v: Vertex) -> &VertexAdj {
        self.touched
            .get(&v)
            .unwrap_or_else(|| self.base_adj.vertex(v))
    }

    fn touch(&mut self, v: Vertex) -> &mut VertexAdj {
        self.touched
            .entry(v)
            .or_insert_with(|| self.base_adj.vertex(v).clone())
    }

    fn edge_info(&self, key: (Vertex, Vertex)) -> Option<EdgeInfo> {
        match self.edge_overlay.get(&key) {
            Some(delta) => *delta,
            None => self.base_edges.get(&key).copied(),
        }
    }

    fn set_edge(&mut self, key: (Vertex, Vertex), info: EdgeInfo) {
        self.edge_overlay.insert(key, Some(info));
    }

    /// Removes live edge `(u, v)`'s registry record, returning it.
    pub fn remove_edge_record(&mut self, u: Vertex, v: Vertex) -> EdgeInfo {
        let key = canonical(u, v);
        let info = self.edge_info(key).expect("certified delete of dead edge");
        self.edge_overlay.insert(key, None);
        info
    }

    /// Removes tree edge `(u, v)` from both adjacency sides, returning its
    /// level.
    pub fn tree_remove(&mut self, u: Vertex, v: Vertex) -> Option<usize> {
        let level = self.touch(u).tree_remove_one(v)?;
        let other = self.touch(v).tree_remove_one(u);
        debug_assert_eq!(other, Some(level));
        Some(level)
    }

    /// Removes non-tree edge `(u, v)` at `level` from both adjacency sides.
    pub fn nontree_remove(&mut self, u: Vertex, v: Vertex, level: usize) -> bool {
        let a = self.touch(u).nontree_remove_one(v, level);
        let b = self.touch(v).nontree_remove_one(u, level);
        debug_assert!(a && b, "non-tree edge ({u},{v}) missing from adjacency");
        a || b
    }

    /// The finished diff: touched vertex states and edge-registry deltas,
    /// both in canonical sorted order so the install loop is deterministic
    /// regardless of hash-map iteration order.
    pub fn into_diffs(self) -> OverlayDiffs {
        let mut vertices: Vec<(Vertex, VertexAdj)> = self.touched.into_iter().collect();
        vertices.sort_unstable_by_key(|&(v, _)| v);
        let mut edges: Vec<((Vertex, Vertex), Option<EdgeInfo>)> =
            self.edge_overlay.into_iter().collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        OverlayDiffs { vertices, edges }
    }
}

/// What one overlay search run produced, ready to install wholesale.
pub(crate) struct OverlayDiffs {
    pub vertices: Vec<(Vertex, VertexAdj)>,
    pub edges: Vec<((Vertex, Vertex), Option<EdgeInfo>)>,
}

impl SearchAdj for OverlayAdj<'_> {
    fn tree_neighbors_from(&self, v: Vertex, level: usize) -> &[(u32, u32)] {
        self.view(v).tree_neighbors_from(level)
    }

    fn collect_bumps(&self, v: Vertex, level: usize, out: &mut Vec<(Vertex, Vertex)>) {
        out.extend(self.view(v).tree_neighbors_at(level).map(|w| (v, w)));
    }

    fn tree_level(&self, u: Vertex, v: Vertex) -> Option<usize> {
        self.view(u).tree_level(v)
    }

    fn bump_tree_edge(&mut self, x: Vertex, w: Vertex, level: usize) {
        self.touch(x).tree_set_level_one(w, level);
        self.touch(w).tree_set_level_one(x, level);
        let key = canonical(x, w);
        let mut info = self.edge_info(key).expect("live tree edge");
        info.level = level;
        self.set_edge(key, info);
    }

    // An empty bucket is read through the view: taking it, or writing an
    // empty one back over it, changes nothing, so neither copies `v` into
    // the diff.
    fn nontree_take_bucket(&mut self, v: Vertex, level: usize, out: &mut Vec<Vertex>) {
        if !self.view(v).nontree_bucket_is_empty(level) {
            self.touch(v).nontree_take_bucket_one(level, out);
        }
    }

    fn nontree_set_bucket(&mut self, v: Vertex, level: usize, bucket: &[Vertex]) {
        if !bucket.is_empty() || !self.view(v).nontree_bucket_is_empty(level) {
            self.touch(v).nontree_set_bucket_one(level, bucket);
        }
    }

    fn bump_nontree_edge(&mut self, x: Vertex, y: Vertex, level: usize) {
        let moved = self.touch(y).nontree_remove_one(x, level);
        debug_assert!(moved, "mirror of ({x},{y}) missing");
        self.touch(y).nontree_push_one(x, level + 1);
        self.touch(x).nontree_push_one(y, level + 1);
        let key = canonical(x, y);
        let mut info = self.edge_info(key).expect("live non-tree edge");
        info.level = level + 1;
        self.set_edge(key, info);
    }

    fn promote(&mut self, x: Vertex, y: Vertex, level: usize) {
        let removed = self.touch(y).nontree_remove_one(x, level);
        debug_assert!(removed, "mirror of ({x},{y}) missing");
        self.touch(x).tree_insert_one(y, level);
        self.touch(y).tree_insert_one(x, level);
        let key = canonical(x, y);
        let mut info = self.edge_info(key).expect("live non-tree edge");
        info.tree = true;
        self.set_edge(key, info);
    }
}

/// Reusable per-engine (or per-worker) search scratch: the two lock-step
/// side queues, the bump-pair buffer and the non-tree bucket the scan
/// drains into.  With these warm, a replacement search through
/// [`DirectAdj`] on one thread allocates nothing (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchScratch {
    queue_a: Vec<Vertex>,
    queue_b: Vec<Vertex>,
    bump_pairs: Vec<(Vertex, Vertex)>,
    bucket: Vec<Vertex>,
}

impl SearchScratch {
    /// Whether this arena has warm capacity from a previous search (feeds
    /// the `scratch_arena_reuses` telemetry counter).
    fn warm(&self) -> bool {
        self.queue_a.capacity() != 0 || self.queue_b.capacity() != 0
    }

    /// Exact heap bytes held by the arena: `capacity × entry size` per
    /// buffer.
    pub fn memory_bytes(&self) -> usize {
        let vertex = std::mem::size_of::<Vertex>();
        (self.queue_a.capacity() + self.queue_b.capacity() + self.bucket.capacity()) * vertex
            + self.bump_pairs.capacity() * std::mem::size_of::<(Vertex, Vertex)>()
    }
}

/// One side of the per-edge lock-step BFS: each `step` consumes at most one
/// level ≥ `level` adjacency entry of the frontier (lower-level entries are
/// never visited — the bucketed adjacency keeps them out of the slice), so
/// alternating two sides costs `O(min(|A|, |B|))` `F_level` edges before
/// the smaller one exhausts.  The side is a cursor: the index of the vertex
/// being expanded plus the unconsumed rest of its borrowed adjacency slice,
/// so stepping allocates nothing.  The queue lives in the caller's scratch
/// arena.
struct LockstepSide<'a> {
    /// Index of the vertex currently being expanded.
    qi: usize,
    /// The current vertex's level ≥ `level` entries not yet consumed.
    cur: &'a [(u32, u32)],
}

impl<'a> LockstepSide<'a> {
    fn new<A: SearchAdj + ?Sized>(adj: &'a A, start: Vertex, level: usize) -> Self {
        Self {
            qi: 0,
            cur: adj.tree_neighbors_from(start, level),
        }
    }

    /// Consumes one qualifying adjacency entry; returns `false` once the
    /// component is exhausted.
    fn step<A: SearchAdj + ?Sized>(
        &mut self,
        adj: &'a A,
        queue: &mut Vec<Vertex>,
        mark: &mut [u64],
        stamp: u64,
        level: usize,
    ) -> bool {
        loop {
            if let Some((&(_, w), rest)) = self.cur.split_first() {
                self.cur = rest;
                let w = w as Vertex;
                if mark[w] != stamp {
                    mark[w] = stamp;
                    queue.push(w);
                }
                return true;
            }
            self.qi += 1;
            if self.qi >= queue.len() {
                return false;
            }
            self.cur = adj.tree_neighbors_from(queue[self.qi], level);
        }
    }
}

/// Vertex set of the smaller (or tied) of the two `F_level` components
/// containing `u` and `v`, written into one of the two scratch queues;
/// returns `true` when the winner is `queue_a` (seeded from `u`).  Within
/// `F_level` each component is a tree, so the side consuming fewer
/// adjacency entries is exactly the side with fewer vertices — the HDT
/// `n/2^i` promotion invariant selects the right side, and a tiny side
/// split off a hub returns without scanning the hub's adjacency.
// The arguments are disjoint pieces of one `SearchScratch`, passed split so
// the caller can keep borrowing its other fields.
#[allow(clippy::too_many_arguments)]
fn smaller_side_into<A: SearchAdj + ?Sized>(
    adj: &A,
    mark: &mut [u64],
    stamp: &mut u64,
    queue_a: &mut Vec<Vertex>,
    queue_b: &mut Vec<Vertex>,
    u: Vertex,
    v: Vertex,
    level: usize,
) -> bool {
    *stamp += 1;
    let stamp_a = *stamp;
    *stamp += 1;
    let stamp_b = *stamp;
    queue_a.clear();
    queue_b.clear();
    queue_a.push(u);
    queue_b.push(v);
    mark[u] = stamp_a;
    mark[v] = stamp_b;
    let mut a = LockstepSide::new(adj, u, level);
    let mut b = LockstepSide::new(adj, v, level);
    loop {
        if !a.step(adj, queue_a, mark, stamp_a, level) {
            return true;
        }
        if !b.step(adj, queue_b, mark, stamp_b, level) {
            return false;
        }
    }
}

/// HDT replacement search after cutting tree edge `(u, v)` of level `l`,
/// against any [`SearchAdj`] view.  Returns the (canonically oriented)
/// non-tree edge that was promoted as the replacement — the **caller** must
/// apply the backend link — or `None` when the component split.
///
/// `with_spans` gates the phase-timer spans: the engine's sequential path
/// records them, pool workers must not (their overlapping wall times would
/// break the profile's child ≤ parent nesting check); counters are recorded
/// either way, and are identical across paths by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_replacement<A: SearchAdj>(
    adj: &mut A,
    mark: &mut [u64],
    stamp: &mut u64,
    scratch: &mut SearchScratch,
    tel: &Telemetry,
    with_spans: bool,
    level_cap: usize,
    u: Vertex,
    v: Vertex,
    l: usize,
) -> Option<(Vertex, Vertex)> {
    let _search_span = with_spans.then(|| tel.span(Phase::ReplacementSearch));
    tel.incr(Counter::ReplacementSearches);
    if scratch.warm() {
        tel.incr(Counter::ScratchArenaReuses);
    }
    for level in (0..=l).rev() {
        // The smaller of the two F_level components the cut produced.
        let side_is_a = {
            let _side_span = with_spans.then(|| tel.span(Phase::SmallerSide));
            smaller_side_into(
                adj,
                mark,
                stamp,
                &mut scratch.queue_a,
                &mut scratch.queue_b,
                u,
                v,
                level,
            )
        };
        let side = std::mem::take(if side_is_a {
            &mut scratch.queue_a
        } else {
            &mut scratch.queue_b
        });
        tel.add(Counter::SmallerSideVertices, side.len() as u64);
        *stamp += 1;
        for &x in &side {
            mark[x] = *stamp;
        }

        // Charge the search: push the side's level-`level` tree edges up, as
        // a grouped collect-then-apply sweep.  The collect is read-only (so
        // it can fan out over chunk ranges for huge sides) and sees each
        // edge from both endpoints; the apply deduplicates by skipping edges
        // already at `level + 1`, bumping each edge exactly once, in
        // first-occurrence order.
        if level + 1 < level_cap {
            scratch.bump_pairs.clear();
            if !adj.par_collect_bumps(&side, level, &mut scratch.bump_pairs) {
                for &x in &side {
                    adj.collect_bumps(x, level, &mut scratch.bump_pairs);
                }
            }
            let mut bumps = 0u64;
            for &(x, w) in scratch.bump_pairs.iter() {
                debug_assert_eq!(mark[w], *stamp, "F_level tree edge leaves side");
                if adj.tree_level(x, w) == Some(level) {
                    adj.bump_tree_edge(x, w, level + 1);
                    bumps += 1;
                }
            }
            tel.add(Counter::LevelBumpsTree, bumps);
        }

        // Scan the side's level-`level` non-tree edges: the first one
        // leaving the side reconnects the components; the scanned ones
        // before it are pushed up a level (they stay inside the side).
        // Each vertex's bucket is drained wholesale into the scratch buffer
        // and every drained edge re-filed exactly once, so the scan is
        // linear in the number of scanned edges.  The survivors are
        // compacted in place (the kept scanned prefix, then the unscanned
        // tail) and written back from the buffer.  Strictly sequential with
        // early exit — the scanned count and the promoted edge are part of
        // the deterministic contract.
        let mut promoted: Option<(Vertex, Vertex)> = None;
        for &x in &side {
            let bucket = &mut scratch.bucket;
            bucket.clear();
            adj.nontree_take_bucket(x, level, bucket);
            let mut kept = 0;
            let mut found: Option<(usize, Vertex)> = None;
            let mut bumped = 0u64;
            for (i, &y) in bucket.iter().enumerate() {
                if mark[y] != *stamp {
                    found = Some((i, y));
                    break;
                }
                if level + 1 < level_cap {
                    adj.bump_nontree_edge(x, y, level);
                    bumped += 1;
                } else {
                    kept += 1;
                }
            }
            let scanned = found.map_or(bucket.len(), |(i, _)| i + 1);
            tel.add(Counter::ReplacementEdgesScanned, scanned as u64);
            tel.add(Counter::LevelBumpsNonTree, bumped);
            // drop the bumped edges and the promoted one; unscanned edges
            // keep their level
            bucket.drain(kept..scanned);
            adj.nontree_set_bucket(x, level, bucket);
            if let Some((_, y)) = found {
                // Replacement found: promote to a tree edge.
                adj.promote(x, y, level);
                tel.incr(Counter::ReplacementPromotions);
                promoted = Some(canonical(x, y));
                break;
            }
        }

        // Return the winner queue to the arena before leaving the pass.
        if side_is_a {
            scratch.queue_a = side;
        } else {
            scratch.queue_b = side;
        }
        if promoted.is_some() {
            return promoted;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A take/set round trip on an empty bucket copies no vertex into the
    /// overlay, while one on a non-empty bucket does.
    #[test]
    fn empty_bucket_round_trip_leaves_the_overlay_diff_empty() {
        let mut adj = LevelAdjacency::new(3);
        adj.nontree_insert(0, 1, 0);
        let edges = FxHashMap::default();
        let mut overlay = OverlayAdj::new(&adj, &edges);
        let mut bucket = Vec::new();
        // vertex 2 has no non-tree edges; vertex 0 has none at level 1
        for (v, level) in [(2, 0), (0, 1)] {
            overlay.nontree_take_bucket(v, level, &mut bucket);
            assert!(bucket.is_empty());
            overlay.nontree_set_bucket(v, level, &bucket);
        }
        let diffs = overlay.into_diffs();
        assert!(diffs.vertices.is_empty() && diffs.edges.is_empty());

        let mut overlay = OverlayAdj::new(&adj, &edges);
        overlay.nontree_take_bucket(0, 0, &mut bucket);
        assert_eq!(bucket, [1]);
        overlay.nontree_set_bucket(0, 0, &bucket);
        let touched: Vec<Vertex> = overlay
            .into_diffs()
            .vertices
            .iter()
            .map(|&(v, _)| v)
            .collect();
        assert_eq!(touched, [0]);
    }
}
