//! Per-vertex, per-level adjacency bookkeeping for the HDT level scheme.
//!
//! The engine keeps the *spanning forest* in the backend, but the level
//! machinery needs its own view of the graph: for every vertex, which tree
//! edges leave it (and at what level), and which non-tree edges leave it at
//! each level.  Levels only ever increase, so the amortized work of the
//! replacement searches is bounded by the total number of level bumps,
//! `O(m log n)`.
//!
//! The state is factored into one [`VertexAdj`] per vertex holding that
//! vertex's **one-sided** view of its edges, with [`LevelAdjacency`]
//! composing the two-sided operations out of per-endpoint primitives.  The
//! replacement scan needs the one-sided forms: it drains a vertex's own
//! bucket and re-files each drained edge's mirror separately.
//!
//! # Flat storage (DESIGN.md §12)
//!
//! A `VertexAdj` is three flat sorted `Vec<(u32, u32)>` arrays, not maps:
//! one `(neighbour, level)` array sorted by neighbour (binary-searched level
//! lookups), one `(level, neighbour)` mirror sorted lexicographically (the
//! level-restricted traversals walk a contiguous `partition_point` range),
//! and one `(level, neighbour)` array for the non-tree buckets.  Per-vertex
//! degrees are tiny on the workloads this engine serves, so the `O(degree)`
//! memmove on insert/remove loses to cache-line locality everywhere it was
//! measured — and the sorted arrays make the canonical iteration order the
//! determinism contract depends on *structural*: neighbours at a level are
//! always visited in ascending id order, identically on every code path
//! (per-op walk, drain replay), at every thread count.
//! Entries are `u32` pairs (8 bytes), not `usize` pairs: half the bytes per
//! edge endpoint, twice the entries per cache line.
#[cfg(test)]
use std::collections::BTreeMap;

/// Narrows a vertex id or level to the `u32` the flat arrays store.
/// Vertex counts beyond `u32::MAX` are out of scope for this engine (the
/// mark array alone would need 32 GiB); the debug assertion keeps the
/// boundary loud under the debug-assertions CI leg.
#[inline]
fn narrow(x: usize) -> u32 {
    debug_assert!(x <= u32::MAX as usize, "index {x} exceeds u32 storage");
    x as u32
}

/// One vertex's adjacency state: its tree edges (neighbour-sorted array plus
/// a level-bucketed mirror) and its non-tree edges bucketed by level.  Every
/// operation here is **one-sided** — it maintains this endpoint's view only;
/// [`LevelAdjacency`] composes the two-sided edits.
///
/// The arrays are kept sorted **deliberately**: the replacement search
/// iterates them, and the iteration order decides which replacement edge is
/// promoted and which edges are level-bumped.  With randomized hashers every
/// engine instance made different (all valid, but different) choices, so
/// per-op outcome reports were not reproducible across instances or
/// processes — exactly what the cross-thread-count determinism contract
/// forbids.  Sorted flat arrays make every choice canonical *structurally*
/// (ascending `(level, neighbour)`), and the arrays are per-vertex and tiny,
/// so insertion memmoves are performance-neutral while iteration gets
/// cache-contiguous.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VertexAdj {
    /// `(neighbour, level)` for spanning-forest edges at this vertex, sorted
    /// by neighbour — `tree_level` is one binary search.
    tree: Vec<(u32, u32)>,
    /// `(level, neighbour)` mirror of `tree`, sorted lexicographically (so
    /// traversals of the level-`l` forest `F_l` walk one contiguous tail
    /// range — the smaller-side search must never pay for a hub's
    /// lower-level edges, or the HDT `n/2^i` component-size invariant would
    /// be selected against the wrong side).
    tree_by_level: Vec<(u32, u32)>,
    /// `(level, neighbour)` for non-tree edges at this vertex, sorted
    /// lexicographically — each level's bucket is a contiguous run.
    nontree: Vec<(u32, u32)>,
}

/// First index of the `(level, _)` run in a `(level, neighbour)`-sorted
/// array.
#[inline]
fn level_start(arr: &[(u32, u32)], level: u32) -> usize {
    arr.partition_point(|&(l, _)| l < level)
}

/// One-past-last index of the `(level, _)` run.
#[inline]
fn level_end(arr: &[(u32, u32)], level: u32) -> usize {
    arr.partition_point(|&(l, _)| l <= level)
}

impl VertexAdj {
    /// Records tree neighbour `w` at `level` (this endpoint only).
    pub fn tree_insert_one(&mut self, w: usize, level: usize) {
        let (w, level) = (narrow(w), narrow(level));
        let pos = self.tree.partition_point(|&(n, _)| n < w);
        debug_assert!(
            self.tree.get(pos).map(|&(n, _)| n) != Some(w),
            "duplicate tree neighbour {w}"
        );
        self.tree.insert(pos, (w, level));
        let pos = self.tree_by_level.partition_point(|&e| e < (level, w));
        self.tree_by_level.insert(pos, (level, w));
    }

    /// Removes tree neighbour `w` (this endpoint only), returning its level.
    pub fn tree_remove_one(&mut self, w: usize) -> Option<usize> {
        let w = narrow(w);
        let pos = self.tree.partition_point(|&(n, _)| n < w);
        if self.tree.get(pos).map(|&(n, _)| n) != Some(w) {
            return None;
        }
        let (_, level) = self.tree.remove(pos);
        self.tree_mirror_remove(w, level);
        Some(level as usize)
    }

    /// Raises tree neighbour `w` to `level` (this endpoint only), returning
    /// the previous level.
    pub fn tree_set_level_one(&mut self, w: usize, level: usize) -> usize {
        let (w, level) = (narrow(w), narrow(level));
        let pos = self.tree.partition_point(|&(n, _)| n < w);
        debug_assert_eq!(
            self.tree.get(pos).map(|&(n, _)| n),
            Some(w),
            "live tree edge"
        );
        let old = std::mem::replace(&mut self.tree[pos].1, level);
        debug_assert!(old <= level);
        if old != level {
            self.tree_mirror_remove(w, old);
            let pos = self.tree_by_level.partition_point(|&e| e < (level, w));
            self.tree_by_level.insert(pos, (level, w));
        }
        old as usize
    }

    fn tree_mirror_remove(&mut self, w: u32, level: u32) {
        let pos = self.tree_by_level.partition_point(|&e| e < (level, w));
        debug_assert_eq!(
            self.tree_by_level.get(pos),
            Some(&(level, w)),
            "tree edge present in its level run"
        );
        self.tree_by_level.remove(pos);
    }

    /// The level of the tree edge to `w`, if it exists.
    pub fn tree_level(&self, w: usize) -> Option<usize> {
        let w = narrow(w);
        self.tree
            .binary_search_by_key(&w, |&(n, _)| n)
            .ok()
            .map(|pos| self.tree[pos].1 as usize)
    }

    /// All tree neighbours with their levels, in ascending neighbour order.
    pub fn tree_neighbors(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.tree.iter().map(|&(w, l)| (w as usize, l as usize))
    }

    /// Tree edges with level **at least** `level`, as the borrowed tail
    /// slice of the `(level, neighbour)`-sorted mirror: ascending level,
    /// then ascending neighbour id within a level (a deterministic order:
    /// the lock-step BFS consumes these entries one at a time, and its
    /// consumption order picks the replacement edge).  A slice, not an
    /// iterator, so the search can hold a cursor into it without boxing.
    pub fn tree_neighbors_from(&self, level: usize) -> &[(u32, u32)] {
        &self.tree_by_level[level_start(&self.tree_by_level, narrow(level))..]
    }

    /// Appends the tree neighbours at exactly `level` to `out` (the arena
    /// variant of a snapshot: the caller reuses one buffer across searches).
    pub fn tree_neighbors_at_into(&self, level: usize, out: &mut Vec<usize>) {
        out.extend(self.tree_neighbors_at(level));
    }

    /// Tree neighbours at exactly `level`, in ascending id order, without
    /// allocating.
    pub fn tree_neighbors_at(&self, level: usize) -> impl Iterator<Item = usize> + '_ {
        let level = narrow(level);
        let (lo, hi) = (
            level_start(&self.tree_by_level, level),
            level_end(&self.tree_by_level, level),
        );
        self.tree_by_level[lo..hi].iter().map(|&(_, w)| w as usize)
    }

    /// Files `w` into the level-`level` non-tree bucket (this endpoint
    /// only), keeping the bucket sorted by neighbour id.
    pub fn nontree_push_one(&mut self, w: usize, level: usize) {
        let (w, level) = (narrow(w), narrow(level));
        let pos = self.nontree.partition_point(|&e| e < (level, w));
        self.nontree.insert(pos, (level, w));
    }

    /// Removes `w` from the level-`level` non-tree bucket (this endpoint
    /// only); returns whether it was present.
    pub fn nontree_remove_one(&mut self, w: usize, level: usize) -> bool {
        let (w, level) = (narrow(w), narrow(level));
        let pos = self.nontree.partition_point(|&e| e < (level, w));
        if self.nontree.get(pos) == Some(&(level, w)) {
            self.nontree.remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes the level-`level` non-tree bucket wholesale, appending it to
    /// `out` in ascending neighbour order.  The caller owns `out`, so a
    /// search that drains bucket after bucket reuses one buffer.
    pub fn nontree_take_bucket_one(&mut self, level: usize, out: &mut Vec<usize>) {
        let level = narrow(level);
        let (lo, hi) = (
            level_start(&self.nontree, level),
            level_end(&self.nontree, level),
        );
        out.extend(self.nontree.drain(lo..hi).map(|(_, w)| w as usize));
    }

    /// Replaces the level-`level` non-tree bucket wholesale.  `neighbors`
    /// must be sorted ascending — every caller holds a sorted subsequence of
    /// a previously taken (sorted) bucket, so the canonical order is
    /// preserved by construction rather than re-established by sorting.
    /// Writing back a subsequence of a just-taken bucket reuses the array's
    /// capacity, so the take/set round trip allocates nothing.
    pub fn nontree_set_bucket_one(&mut self, level: usize, neighbors: &[usize]) {
        let level = narrow(level);
        debug_assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "bucket for level {level} not sorted: {neighbors:?}"
        );
        let (lo, hi) = (
            level_start(&self.nontree, level),
            level_end(&self.nontree, level),
        );
        self.nontree
            .splice(lo..hi, neighbors.iter().map(|&w| (level, narrow(w))));
    }

    /// Snapshot of the level-`level` non-tree neighbours, ascending.
    pub fn nontree_neighbors_at(&self, level: usize) -> Vec<usize> {
        let level = narrow(level);
        let (lo, hi) = (
            level_start(&self.nontree, level),
            level_end(&self.nontree, level),
        );
        self.nontree[lo..hi]
            .iter()
            .map(|&(_, w)| w as usize)
            .collect()
    }

    /// Number of non-tree edge endpoints stored here (across all levels).
    pub fn nontree_degree(&self) -> usize {
        self.nontree.len()
    }

    /// Exact heap bytes per substructure: `(neighbour-sorted tree array,
    /// level-sorted tree mirror, non-tree buckets)`.  Flat `Vec`s make this
    /// true byte accounting — `capacity × entry size` — with no occupancy
    /// model.
    fn memory_parts(&self) -> (usize, usize, usize) {
        let entry = std::mem::size_of::<(u32, u32)>();
        (
            self.tree.capacity() * entry,
            self.tree_by_level.capacity() * entry,
            self.nontree.capacity() * entry,
        )
    }
}

/// Adjacency structures for one graph: tree edges with their levels, and
/// non-tree edges bucketed by level — a [`VertexAdj`] per vertex, with the
/// two-sided edge operations composed from per-endpoint primitives.
///
/// Tree adjacency is stored **twice** per endpoint (neighbour-sorted array
/// for cheap level lookups, level-sorted mirror for level-restricted
/// traversals); both are flat 8-byte-entry arrays, so the doubled view costs
/// 16 bytes per tree-edge endpoint and stays cache-contiguous.
#[derive(Clone, Debug, Default)]
pub struct LevelAdjacency {
    verts: Vec<VertexAdj>,
}

impl LevelAdjacency {
    /// Empty adjacency over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            verts: vec![VertexAdj::default(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Appends isolated vertices (empty adjacency) until there are `n` of
    /// them.  A smaller `n` is a no-op.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.verts.len() {
            self.verts.resize_with(n, VertexAdj::default);
        }
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Shared access to one vertex's adjacency state.
    pub fn vertex(&self, v: usize) -> &VertexAdj {
        &self.verts[v]
    }

    /// Records tree edge `(u, v)` at `level`.
    pub fn tree_insert(&mut self, u: usize, v: usize, level: usize) {
        self.verts[u].tree_insert_one(v, level);
        self.verts[v].tree_insert_one(u, level);
    }

    /// Removes tree edge `(u, v)`, returning its level.
    pub fn tree_remove(&mut self, u: usize, v: usize) -> Option<usize> {
        let level = self.verts[u].tree_remove_one(v)?;
        let other = self.verts[v].tree_remove_one(u);
        debug_assert_eq!(other, Some(level));
        Some(level)
    }

    /// Raises the level of tree edge `(u, v)` to `level`.
    pub fn tree_set_level(&mut self, u: usize, v: usize, level: usize) {
        self.verts[u].tree_set_level_one(v, level);
        self.verts[v].tree_set_level_one(u, level);
    }

    /// The level of tree edge `(u, v)`, if it is a live tree edge.
    pub fn tree_level(&self, u: usize, v: usize) -> Option<usize> {
        self.verts[u].tree_level(v)
    }

    /// All tree neighbours of `v` with their levels.
    pub fn tree_neighbors(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.verts[v].tree_neighbors()
    }

    /// `v`'s tree edges with level **at least** `level`, as the
    /// `(level, neighbour)` tail slice of its mirror — never the lower-level
    /// entries — in ascending `(level, neighbour)` order.
    pub fn tree_neighbors_from(&self, v: usize, level: usize) -> &[(u32, u32)] {
        self.verts[v].tree_neighbors_from(level)
    }

    /// Snapshot of the tree neighbours of `v` at exactly `level`.
    pub fn tree_neighbors_at(&self, v: usize, level: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.verts[v].tree_neighbors_at_into(level, &mut out);
        out
    }

    /// Records non-tree edge `(u, v)` at `level`.
    pub fn nontree_insert(&mut self, u: usize, v: usize, level: usize) {
        self.verts[u].nontree_push_one(v, level);
        self.verts[v].nontree_push_one(u, level);
    }

    /// Removes non-tree edge `(u, v)` at `level`; returns whether present.
    pub fn nontree_remove(&mut self, u: usize, v: usize, level: usize) -> bool {
        let a = self.verts[u].nontree_remove_one(v, level);
        let b = self.verts[v].nontree_remove_one(u, level);
        a || b
    }

    /// Snapshot of the level-`level` non-tree neighbours of `v`.
    pub fn nontree_neighbors_at(&self, v: usize, level: usize) -> Vec<usize> {
        self.verts[v].nontree_neighbors_at(level)
    }

    /// Removes `v`'s **own** level-`level` bucket wholesale, appending it to
    /// `out`.  The mirror entries at the neighbours are left untouched — the
    /// caller is responsible for them (used by the replacement scan, which
    /// re-files every drained edge exactly once, keeping its cost linear in
    /// the bucket instead of quadratic remove-by-scan).
    pub fn nontree_take_bucket(&mut self, v: usize, level: usize, out: &mut Vec<usize>) {
        self.verts[v].nontree_take_bucket_one(level, out);
    }

    /// Replaces `v`'s own level-`level` bucket wholesale (mirrors untouched).
    pub fn nontree_set_bucket(&mut self, v: usize, level: usize, neighbors: &[usize]) {
        self.verts[v].nontree_set_bucket_one(level, neighbors);
    }

    /// Files `w` into `v`'s own level-`level` bucket (mirror untouched).
    pub fn nontree_push_one_sided(&mut self, v: usize, w: usize, level: usize) {
        self.verts[v].nontree_push_one(w, level);
    }

    /// Removes `w` from `v`'s own level-`level` bucket (mirror untouched);
    /// returns whether it was present.
    pub fn nontree_remove_one_sided(&mut self, v: usize, w: usize, level: usize) -> bool {
        self.verts[v].nontree_remove_one(w, level)
    }

    /// Number of non-tree edge endpoints stored at `v` (across all levels).
    pub fn nontree_degree(&self, v: usize) -> usize {
        self.verts[v].nontree_degree()
    }

    /// Exact heap bytes owned by the adjacency structures (both tree views,
    /// the level-sorted mirror included, plus the non-tree buckets).
    pub fn memory_bytes(&self) -> usize {
        let (tree, tree_levels, nontree) = self.memory_breakdown();
        tree + tree_levels + nontree
    }

    /// Exact heap bytes per substructure: `(neighbour-sorted tree arrays,
    /// level-sorted tree mirrors, non-tree buckets)`.
    ///
    /// The flat layout makes this true byte accounting: every substructure
    /// is a `Vec` of 8-byte `(u32, u32)` entries, so the cost is exactly
    /// `capacity × 8` per array plus the per-vertex spine (three `Vec`
    /// headers per [`VertexAdj`], charged one per substructure).  The old
    /// B-tree node-occupancy *model* (≈70%-full B = 6 nodes) is gone along
    /// with the B-trees it approximated.
    pub fn memory_breakdown(&self) -> (usize, usize, usize) {
        let spine = self.verts.capacity() * std::mem::size_of::<Vec<(u32, u32)>>();
        let (mut tree, mut tree_levels, mut nontree) = (spine, spine, spine);
        for v in &self.verts {
            let (t, tl, nt) = v.memory_parts();
            tree += t;
            tree_levels += tl;
            nontree += nt;
        }
        (tree, tree_levels, nontree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_edge_roundtrip() {
        let mut adj = LevelAdjacency::new(4);
        adj.tree_insert(0, 1, 0);
        adj.tree_insert(1, 2, 3);
        assert_eq!(adj.tree_neighbors(1).count(), 2);
        assert_eq!(adj.tree_neighbors(1).filter(|&(_, l)| l >= 1).count(), 1);
        adj.tree_set_level(0, 1, 2);
        assert_eq!(adj.tree_level(0, 1), Some(2));
        assert_eq!(adj.tree_remove(0, 1), Some(2));
        assert_eq!(adj.tree_remove(0, 1), None);
        assert_eq!(adj.tree_level(0, 1), None);
        assert_eq!(adj.tree_neighbors(1).count(), 1);
    }

    #[test]
    fn one_sided_bucket_ops_compose_with_two_sided_state() {
        let mut adj = LevelAdjacency::new(4);
        adj.nontree_insert(0, 1, 0);
        adj.nontree_insert(0, 2, 0);
        let mut bucket = Vec::new();
        adj.nontree_take_bucket(0, 0, &mut bucket);
        assert_eq!(bucket, vec![1, 2]);
        assert!(adj.nontree_neighbors_at(0, 0).is_empty());
        // mirrors still present until the caller re-files them
        assert!(adj.nontree_remove_one_sided(1, 0, 0));
        adj.nontree_push_one_sided(1, 0, 1);
        adj.nontree_push_one_sided(0, 1, 1);
        adj.nontree_set_bucket(0, 0, &[2]);
        assert_eq!(adj.nontree_neighbors_at(0, 0), vec![2]);
        assert_eq!(adj.nontree_neighbors_at(0, 1), vec![1]);
        assert!(adj.nontree_remove(0, 2, 0));
        assert!(adj.nontree_remove(0, 1, 1));
        assert_eq!(adj.nontree_degree(0), 0);
    }

    #[test]
    fn nontree_edge_roundtrip() {
        let mut adj = LevelAdjacency::new(4);
        adj.nontree_insert(0, 1, 0);
        adj.nontree_insert(0, 2, 0);
        adj.nontree_insert(0, 3, 1);
        assert_eq!(adj.nontree_degree(0), 3);
        assert_eq!(adj.nontree_neighbors_at(0, 0), vec![1, 2]);
        assert!(adj.nontree_remove(0, 2, 0));
        assert!(!adj.nontree_remove(0, 2, 0));
        assert_eq!(adj.nontree_neighbors_at(0, 0), vec![1]);
        assert_eq!(adj.nontree_neighbors_at(0, 1), vec![3]);
    }

    #[test]
    fn iteration_orders_are_canonical() {
        // The determinism contract's canonical order: ascending (level,
        // neighbour) for the level-restricted views, ascending neighbour for
        // the full tree view — independent of insertion order.
        let mut adj = LevelAdjacency::new(8);
        adj.tree_insert(0, 5, 1);
        adj.tree_insert(0, 3, 0);
        adj.tree_insert(0, 7, 1);
        adj.tree_insert(0, 1, 2);
        assert_eq!(
            adj.tree_neighbors(0).collect::<Vec<_>>(),
            vec![(1, 2), (3, 0), (5, 1), (7, 1)]
        );
        assert_eq!(adj.tree_neighbors_from(0, 1), [(1, 5), (1, 7), (2, 1)]);
        assert_eq!(adj.tree_neighbors_at(0, 1), vec![5, 7]);
        adj.nontree_insert(0, 6, 1);
        adj.nontree_insert(0, 2, 1);
        adj.nontree_insert(0, 4, 0);
        assert_eq!(adj.nontree_neighbors_at(0, 1), vec![2, 6]);
        let mut taken = vec![9];
        adj.nontree_take_bucket(0, 1, &mut taken);
        assert_eq!(taken, vec![9, 2, 6], "the take appends to the buffer");
        assert_eq!(adj.nontree_neighbors_at(0, 0), vec![4]);
    }

    #[test]
    fn memory_breakdown_is_exact_capacity_accounting() {
        let mut adj = LevelAdjacency::new(2);
        let spine = adj.verts.capacity() * std::mem::size_of::<Vec<(u32, u32)>>();
        assert_eq!(adj.memory_breakdown(), (spine, spine, spine));
        adj.tree_insert(0, 1, 0);
        adj.nontree_insert(0, 1, 1);
        let entry = std::mem::size_of::<(u32, u32)>();
        let expect = |caps: [usize; 2]| spine + caps.iter().sum::<usize>() * entry;
        let (tree, tree_levels, nontree) = adj.memory_breakdown();
        let cap = |v: &Vec<(u32, u32)>| v.capacity();
        assert_eq!(
            tree,
            expect([cap(&adj.verts[0].tree), cap(&adj.verts[1].tree)])
        );
        assert_eq!(
            tree_levels,
            expect([
                cap(&adj.verts[0].tree_by_level),
                cap(&adj.verts[1].tree_by_level)
            ])
        );
        assert_eq!(
            nontree,
            expect([cap(&adj.verts[0].nontree), cap(&adj.verts[1].nontree)])
        );
        assert_eq!(adj.memory_bytes(), tree + tree_levels + nontree);
    }

    /// Reference model for the flat structure: the exact BTreeMap trio the
    /// pre-flat implementation stored, mutated through the same one-sided
    /// vocabulary.  The canonical order differs only *within* a level run
    /// (insertion order then, ascending id now), so the model compares
    /// level-keyed **sets** plus the cross-level orderings the search
    /// actually depends on.
    #[derive(Default)]
    struct ModelAdj {
        tree: BTreeMap<usize, usize>,
        nontree: BTreeMap<usize, Vec<usize>>,
    }

    impl ModelAdj {
        fn assert_matches(&self, v: &VertexAdj) {
            let flat_tree: Vec<(usize, usize)> = v.tree_neighbors().collect();
            let model_tree: Vec<(usize, usize)> = self.tree.iter().map(|(&w, &l)| (w, l)).collect();
            assert_eq!(flat_tree, model_tree, "neighbour-sorted tree view");
            for &level in self.tree.values() {
                let mut model_at: Vec<usize> = self
                    .tree
                    .iter()
                    .filter(|&(_, &l)| l == level)
                    .map(|(&w, _)| w)
                    .collect();
                model_at.sort_unstable();
                assert_eq!(
                    v.tree_neighbors_at(level).collect::<Vec<_>>(),
                    model_at,
                    "level-{level} tree bucket"
                );
            }
            // range-from-level traversal: ascending level, ascending id
            for from in 0..8 {
                let mut model_from: Vec<(usize, usize)> = self
                    .tree
                    .iter()
                    .filter(|&(_, &l)| l >= from)
                    .map(|(&w, &l)| (l, w))
                    .collect();
                model_from.sort_unstable();
                let flat_from: Vec<(usize, usize)> = v
                    .tree_neighbors_from(from)
                    .iter()
                    .map(|&(l, w)| (l as usize, w as usize))
                    .collect();
                assert_eq!(flat_from, model_from, "tree_neighbors_from({from})");
            }
            for (&level, bucket) in &self.nontree {
                let mut sorted = bucket.clone();
                sorted.sort_unstable();
                assert_eq!(
                    v.nontree_neighbors_at(level),
                    sorted,
                    "level-{level} non-tree bucket"
                );
            }
            let model_degree: usize = self.nontree.values().map(Vec::len).sum();
            assert_eq!(v.nontree_degree(), model_degree);
        }
    }

    #[test]
    fn flat_structure_matches_btreemap_model_on_random_op_streams() {
        // Deterministic xorshift stream; 64 rounds × 200 ops covers
        // insert/remove/level-raise/take/set interleavings including
        // re-insertion into recycled positions.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..64 {
            let mut flat = VertexAdj::default();
            let mut model = ModelAdj::default();
            for _op in 0..200 {
                let w = (rng() % 24) as usize;
                let level = (rng() % 6) as usize;
                match rng() % 6 {
                    0 => {
                        // tree insert (skip duplicates like the engine does)
                        if let std::collections::btree_map::Entry::Vacant(e) = model.tree.entry(w) {
                            flat.tree_insert_one(w, level);
                            e.insert(level);
                        }
                    }
                    1 => {
                        assert_eq!(flat.tree_remove_one(w), model.tree.remove(&w));
                    }
                    2 => {
                        // level raise (levels only ever increase)
                        if let Some(&old) = model.tree.get(&w) {
                            let to = old.max(level);
                            assert_eq!(flat.tree_set_level_one(w, to), old);
                            model.tree.insert(w, to);
                        }
                    }
                    3 => {
                        let dup = model.nontree.get(&level).is_some_and(|b| b.contains(&w));
                        if !dup {
                            flat.nontree_push_one(w, level);
                            model.nontree.entry(level).or_default().push(w);
                        }
                    }
                    4 => {
                        let in_model = match model.nontree.get_mut(&level) {
                            Some(bucket) => match bucket.iter().position(|&x| x == w) {
                                Some(pos) => {
                                    bucket.swap_remove(pos);
                                    if bucket.is_empty() {
                                        model.nontree.remove(&level);
                                    }
                                    true
                                }
                                None => false,
                            },
                            None => false,
                        };
                        assert_eq!(flat.nontree_remove_one(w, level), in_model);
                    }
                    _ => {
                        // take-then-set round trip with a filtered survivor
                        // subsequence (what the replacement scan does)
                        let mut taken = Vec::new();
                        flat.nontree_take_bucket_one(level, &mut taken);
                        let mut model_taken = model.nontree.remove(&level).unwrap_or_default();
                        model_taken.sort_unstable();
                        assert_eq!(taken, model_taken);
                        let survivors: Vec<usize> =
                            taken.iter().copied().filter(|&x| x % 3 != 0).collect();
                        if !survivors.is_empty() {
                            model.nontree.insert(level, survivors.clone());
                        }
                        flat.nontree_set_bucket_one(level, &survivors);
                    }
                }
                model.assert_matches(&flat);
            }
        }
    }
}
