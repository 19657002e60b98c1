//! The contraction-forest engine shared by UFO trees and topology trees.
//!
//! The engine is *level-synchronised*: leaf clusters (one per vertex) live at
//! level 0 and every cluster at level ℓ has its parent at level ℓ+1; clusters
//! that do not merge in a round receive a copy parent.  The paper's Lemma B.4 /
//! B.17 shows the total number of clusters under this scheme is `O(n)`.
//!
//! Sequential updates implement Algorithms 1 and 2: delete the ancestors of
//! the updated endpoints (skipping high-degree / high-fanout clusters under
//! the UFO policy), apply the edge change at every level where both endpoints'
//! surviving ancestors are distinct, then recluster the resulting root
//! clusters bottom-up.  An update only queues the clusters whose summaries
//! (boundaries, path/subtree aggregates, distances) it invalidated;
//! [`ContractionForest::settle`] refreshes everything queued in one
//! bottom-up pass.  Callers settle at their own boundary — once per batch,
//! or before the first summary read — and every summary query asserts that
//! the forest is settled.  Structural queries (`connected`, `has_edge`,
//! `top_cluster`, `height`) never read a summary and stay valid while work
//! is queued.

use dyntree_primitives::algebra::SumMinMax;
use dyntree_primitives::hash::FxHashMap;
use dyntree_primitives::ops::assert_id_space;

use crate::summary::{deeper, nearer, Agg, CommutativeMonoid, Core, Extent, Extents, Summary};
use crate::{ClusterId, Vertex, NIL32};

/// Narrows a cluster/vertex id to its stored `u32` form.
#[inline]
pub(crate) fn narrow(x: usize) -> u32 {
    debug_assert!(x < NIL32 as usize, "cluster id {x} exceeds u32 storage");
    x as u32
}

/// The id of a cluster pushed onto a slab that holds `len` clusters.  Ids are
/// stored as `u32` with `NIL32` reserved, so a slab that would reach the
/// sentinel is a hard error in every build instead of a silent wrap.
fn slab_id(len: usize) -> u32 {
    assert!(
        len < NIL32 as usize,
        "cluster slab exhausted: id {len} would reach the u32 sentinel"
    );
    len as u32
}

/// Pendant children per fold block.  A cluster with more than `B` children
/// caches one [`Fold`] per block of `B` pendant slots (DESIGN.md §2), so an
/// update at a hub re-folds `O(B + log f)` children instead of all `f`.
const B: usize = 32;

/// Which contraction rules the engine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// UFO trees: pair merges between degree ≤ 2 clusters plus unbounded
    /// fan-out merges of a high-degree cluster with all its degree-1
    /// neighbours.  Accepts arbitrary-degree inputs.
    Ufo,
    /// Topology trees: pair merges only ((1,1), (1,2), (2,2), (1,3)); inputs
    /// must have maximum degree 3.
    Topology,
}

/// One directed adjacency record: an original edge with `my_end` inside this
/// cluster and `other_end` inside `neighbor`.
///
/// All three ids are stored narrowed to `u32` (DESIGN.md §12): an entry is 12
/// bytes instead of 24, and adjacency lists — the dominant per-edge cost of
/// the hierarchy — halve in size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjEntry {
    /// The adjacent cluster at the same level.
    pub neighbor: u32,
    /// Endpoint of the original edge inside this cluster.
    pub my_end: u32,
    /// Endpoint of the original edge inside `neighbor`.
    pub other_end: u32,
}

/// A cluster of the contraction hierarchy.
///
/// Clusters live on a flat `Vec` slab with freelist recycling; all links
/// (child list, adjacency) are narrowed `u32` slab ids.  The parent pointer
/// is not stored here but in [`ContractionForest`]'s dense `parents` array
/// beside the slab, so a walk up the hierarchy reads 4 bytes per level
/// instead of a whole cluster (DESIGN.md §2).
#[derive(Clone, Debug)]
pub struct Cluster<M: CommutativeMonoid = SumMinMax, X: Extent = Core> {
    /// Level in the hierarchy (leaves are level 0).  The height is
    /// `O(log n)`, so 16 bits hold it (`new_cluster` checks the
    /// narrowing).
    pub level: u16,
    /// State bits ([`ALIVE`], [`QUEUED`], [`FULL`], [`PENDING`],
    /// [`MOVED`]), packed into one byte of the struct's padding.
    flags: u8,
    /// Index of this cluster in `parent.children` (meaningless for roots).
    /// A cluster with fan-out ≥ 3 keeps its hub at slot 0.
    pub slot: u32,
    /// Adjacent clusters at this level (one entry per incident original edge
    /// whose other endpoint lies in a different cluster at this level).
    pub neighbors: Vec<AdjEntry>,
    /// Child clusters (empty for leaves).
    pub children: Vec<u32>,
    /// Augmented values.
    pub summary: Summary<M, X>,
}

/// The cluster is live (clear for freed slots).
const ALIVE: u8 = 1;
/// The id is queued for a summary refresh, on the dirty list or in a level
/// bucket of [`ContractionForest::settle`], so it is queued at most once.
const QUEUED: u8 = 2;
/// The queued refresh is full: a child list, a child's summary or a vertex's
/// weight, phantom flag or mark changed.  A queued cluster without this bit
/// is adjacency-only: only its neighbour list changed, so only its boundary
/// can have moved.
const FULL: u8 = 4;
/// The id waits in the `pending` bucket of its level for reclustering, so it
/// enters that bucket at most once.
const PENDING: u8 = 8;
/// A leaf whose vertex data changed in the running `settle`: its parent and
/// every ancestor that keeps it as a boundary vertex read its weight
/// directly, so they are refreshed even where their summaries do not move.
const MOVED: u8 = 16;

impl<M: CommutativeMonoid, X: Extent> Cluster<M, X> {
    /// An unlinked cluster at `level` with no children and no adjacency.
    fn unlinked(level: u16, alive: bool, summary: Summary<M, X>) -> Self {
        Cluster {
            level,
            flags: if alive { ALIVE } else { 0 },
            slot: 0,
            neighbors: Vec::new(),
            children: Vec::new(),
            summary,
        }
    }

    fn new_leaf(summary: Summary<M, X>) -> Self {
        Self::unlinked(0, true, summary)
    }

    /// Whether the cluster is live (false for freed slots).
    pub fn is_alive(&self) -> bool {
        self.has(ALIVE)
    }

    #[inline]
    fn has(&self, bits: u8) -> bool {
        self.flags & bits != 0
    }

    #[inline]
    fn set(&mut self, bits: u8) {
        self.flags |= bits;
    }

    #[inline]
    fn clear(&mut self, bits: u8) {
        self.flags &= !bits;
    }

    /// Degree of the cluster at its level.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Fan-out (number of children).
    pub fn fanout(&self) -> usize {
        self.children.len()
    }
}

/// A plain `Vec` indexed by cluster id: the cluster arena itself and the
/// parent array beside it.  It is additionally indexable by the narrowed
/// `u32` ids stored inside clusters and adjacency entries, so
/// `clusters[entry.neighbor]` works without a cast at every site.
#[derive(Clone, Debug)]
pub(crate) struct ClusterSlab<T>(Vec<T>);

impl<T> std::ops::Deref for ClusterSlab<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> std::ops::DerefMut for ClusterSlab<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T> std::ops::Index<u32> for ClusterSlab<T> {
    type Output = T;
    fn index(&self, i: u32) -> &T {
        &self.0[i as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for ClusterSlab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.0[i as usize]
    }
}

impl<T> std::ops::Index<usize> for ClusterSlab<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.0[i]
    }
}

impl<T> std::ops::IndexMut<usize> for ClusterSlab<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.0[i]
    }
}

/// The fold of a run of pendant children (every child of a cluster but the
/// hub at slot 0).  Merging is associative, so blocks fold independently and
/// combine up a tree; the parent summary is the hub summary combined with the
/// fold of all pendants ([`ContractionForest::compute_summary`]).  Its
/// extent part is zero-sized under [`Core`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Fold<M: CommutativeMonoid, X: Extent> {
    sub: Agg<M>,
    vertices: u64,
    ext: X::Fold,
}

impl<M: CommutativeMonoid, X: Extent> Fold<M, X> {
    const EMPTY: Fold<M, X> = Fold {
        sub: Agg::IDENTITY,
        vertices: 0,
        ext: X::EMPTY_FOLD,
    };

    fn merge(&self, other: &Fold<M, X>) -> Fold<M, X> {
        let mut ext = self.ext;
        if let (Some(a), Some(b)) = (X::fold_mut(&mut ext), X::fold(&other.ext)) {
            *a = a.merge(b);
        }
        Fold {
            sub: Agg::combine(self.sub, other.sub),
            vertices: self.vertices + other.vertices,
            ext,
        }
    }

    /// Folds the pendants `ys` of a cluster whose hub is `hub`.  Only the
    /// extent part reads a pendant's edge to the hub, so under [`Core`] no
    /// adjacency list is read.
    fn of(clusters: &ClusterSlab<Cluster<M, X>>, hub: u32, ys: &[u32]) -> Fold<M, X> {
        let hub_sum = &clusters[hub].summary;
        let mut f = Fold::EMPTY;
        for &y in ys {
            #[cfg(test)]
            tests::FOLD_READS.with(|n| n.set((n.get().0 + 1, n.get().1)));
            let ch = &clusters[y];
            f.sub = Agg::combine(f.sub, ch.summary.sub);
            f.vertices += ch.summary.vertices;
            let (Some(fx), Some(cx)) = (X::fold_mut(&mut f.ext), ch.summary.ext.get()) else {
                continue;
            };
            fx.diam = fx.diam.max(cx.diam);
            // boundary indices of the pendant's one edge to the hub (`my_end`
            // inside the pendant, `other_end` inside the hub); with a single
            // boundary on both sides they are 0 without reading the edge
            let (ci, hi) = if ch.summary.nbound <= 1 && hub_sum.nbound <= 1 {
                (0, 0)
            } else {
                #[cfg(test)]
                tests::ADJ_READS.with(|n| n.set(n.get() + 1));
                let e = ch
                    .neighbors
                    .iter()
                    .find(|e| e.neighbor == hub)
                    .expect("pendant must be attached to the hub");
                (
                    ch.summary.boundary_index(e.my_end).unwrap_or(0),
                    hub_sum.boundary_index(e.other_end).unwrap_or(0),
                )
            };
            fx.deep[hi].offer(1 + cx.ecc[ci], y, deeper);
            fx.near[hi].offer(cx.near[ci].saturating_add(1), y, nearer);
        }
        f
    }
}

/// The cached block folds of a cluster with more than `B` children: a
/// complete binary tree over `cap` leaves (a power of two).  Leaf `k` folds
/// the pendant slots `1 + kB .. 1 + (k+1)B` (empty past the last child),
/// node `i` merges nodes `2i` and `2i + 1`, and node 1 folds every pendant.
#[derive(Clone, Debug)]
pub(crate) struct FoldTree<M: CommutativeMonoid, X: Extent> {
    /// The hub and its boundary the leaves were folded against; a change to
    /// either re-folds every block.
    hub: u32,
    hub_bounds: ([u32; 2], u8),
    nodes: Vec<Fold<M, X>>,
    /// One bit per block: whether its children changed since the last
    /// refresh.  Its size is fixed by `cap`, however many updates touch the
    /// tree before the next refresh.
    stale: Vec<u64>,
}

impl<M: CommutativeMonoid, X: Extent> FoldTree<M, X> {
    fn cap(&self) -> usize {
        self.nodes.len() / 2
    }

    /// Folds every block of `children` into a fresh tree with `cap` leaves.
    fn build(
        clusters: &ClusterSlab<Cluster<M, X>>,
        children: &[u32],
        cap: usize,
    ) -> FoldTree<M, X> {
        let hub = children[0];
        let hs = &clusters[hub].summary;
        let mut nodes = vec![Fold::EMPTY; 2 * cap];
        for (k, ys) in children[1..].chunks(B).enumerate() {
            nodes[cap + k] = Fold::of(clusters, hub, ys);
        }
        for i in (1..cap).rev() {
            nodes[i] = nodes[2 * i].merge(&nodes[2 * i + 1]);
        }
        FoldTree {
            hub,
            hub_bounds: (hs.boundary, hs.nbound),
            nodes,
            stale: vec![0; cap.div_ceil(64)],
        }
    }

    /// Marks block `k` stale.  A block at or past `cap` has no leaf: the
    /// tree no longer fits and is rebuilt on its next refresh.
    fn mark_stale(&mut self, k: usize) {
        if k < self.cap() {
            self.stale[k / 64] |= 1 << (k % 64);
        }
    }

    /// Whether the tree still fits `children`: same hub and hub boundary,
    /// and a block count within `(cap / 4, cap]` so a fan-out oscillating at
    /// a power of two does not rebuild on every update.
    fn fits(&self, clusters: &ClusterSlab<Cluster<M, X>>, children: &[u32]) -> bool {
        let hs = &clusters[children[0]].summary;
        let blocks = blocks(children.len());
        self.hub == children[0]
            && self.hub_bounds == (hs.boundary, hs.nbound)
            && blocks <= self.cap()
            && (self.cap() == 1 || blocks > self.cap() / 4)
    }

    /// Re-folds the stale blocks, in block order, then merges every tree
    /// node above them exactly once, bottom-up.  `work` (caller-owned
    /// scratch) holds one tree level's re-computed nodes in ascending
    /// order; each pass replaces them, in place, by their distinct parents.
    fn refresh(
        &mut self,
        clusters: &ClusterSlab<Cluster<M, X>>,
        children: &[u32],
        work: &mut Vec<usize>,
    ) {
        let cap = self.cap();
        work.clear();
        for w in 0..self.stale.len() {
            let mut bits = std::mem::take(&mut self.stale[w]);
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let lo = (1 + k * B).min(children.len());
                let hi = (1 + (k + 1) * B).min(children.len());
                self.nodes[cap + k] = Fold::of(clusters, self.hub, &children[lo..hi]);
                work.push(cap + k);
            }
        }
        // The nodes of one pass share a level, so their parents come out
        // ascending with duplicates adjacent, and the write index never
        // passes the read index.
        while work.first().is_some_and(|&i| i > 1) {
            let mut len = 0;
            for r in 0..work.len() {
                let p = work[r] / 2;
                if len > 0 && work[len - 1] == p {
                    continue;
                }
                #[cfg(test)]
                tests::FOLD_READS.with(|n| n.set((n.get().0, n.get().1 + 1)));
                self.nodes[p] = self.nodes[2 * p].merge(&self.nodes[2 * p + 1]);
                work[len] = p;
                len += 1;
            }
            work.truncate(len);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Fold<M, X>>()
            + self.stale.capacity() * std::mem::size_of::<u64>()
    }
}

/// The boundary of a cluster with adjacency list `neighbors`: the distinct
/// `my_end`s, ascending and `NIL32`-padded, with their count.  The order does
/// not depend on the list's order, so a `swap_remove` that reorders the list
/// changes neither the summary nor the hub boundary a fold tree is keyed by.
fn boundary_of(neighbors: &[AdjEntry]) -> ([u32; 2], u8) {
    let mut b = [NIL32, NIL32];
    let mut n = 0;
    for e in neighbors {
        if !b[..n].contains(&e.my_end) {
            debug_assert!(n < 2, "a cluster has more than two boundary vertices");
            if n < 2 {
                b[n] = e.my_end;
                n += 1;
            }
        }
    }
    if b[0] > b[1] {
        b.swap(0, 1);
    }
    (b, n as u8)
}

/// Number of fold blocks of a cluster with `fanout` children.
fn blocks(fanout: usize) -> usize {
    (fanout - 1).div_ceil(B)
}

/// Where a parent boundary vertex lies: in the hub (`child == NIL32`) or in
/// the pendant `child`, attached to the hub by the edge `x`–`y` (`x` in the
/// hub, `y` in the pendant).
struct BoundaryLoc {
    child: u32,
    x: u32,
    y: u32,
    /// distance from the boundary to each hub boundary vertex
    d_hub: [u64; 2],
    /// eccentricity / nearest-marked distance within the hub plus `child`
    /// (0 under [`Core`])
    ecc: u64,
    near: u64,
}

/// The contraction forest over vertices `0..n`, generic over the vertex
/// weight monoid (default: the `i64` sum/min/max aggregate) and the
/// [`Extent`] policy (default: [`Core`], no extents; name [`Extents`] for
/// diameter and nearest-marked queries).
#[derive(Clone, Debug)]
pub struct ContractionForest<M: CommutativeMonoid = SumMinMax, X: Extent = Core> {
    policy: Policy,
    pub(crate) weights: Vec<M::Weight>,
    pub(crate) phantom: Vec<bool>,
    /// Per-vertex marks for nearest-marked queries; empty under [`Core`].
    pub(crate) marked: Vec<bool>,
    pub(crate) clusters: ClusterSlab<Cluster<M, X>>,
    /// The parent of each slab id, one level up: `NIL32` for roots and for
    /// freed slots.  Kept as a dense array beside `clusters` rather than in
    /// each cluster, so the walks up the hierarchy (`connected`, the
    /// ancestor deletions, the edge walks, the snapshot export) touch one
    /// 4-byte entry per level instead of one cluster; it is always as long
    /// as `clusters`.
    pub(crate) parents: ClusterSlab<u32>,
    free: Vec<u32>,
    /// Root clusters awaiting reclustering, indexed by level.
    pending: Vec<Vec<u32>>,
    /// Clusters whose summaries must be recomputed, each id at most once
    /// (see [`QUEUED`]); empty exactly when the forest is settled.
    dirty: Vec<u32>,
    /// Per-level buckets reused by [`settle`](Self::settle).
    flush_levels: Vec<Vec<u32>>,
    /// Scratch buffers reused across updates, so a steady-state update
    /// allocates nothing: the level being flushed, the level being
    /// reclustered, the parents created at that level, one hub's
    /// neighbours in Phase A, and the fold-tree nodes a refresh re-merges.
    flush_work: Vec<u32>,
    roots: Vec<u32>,
    new_parents: Vec<u32>,
    hub_nbrs: Vec<u32>,
    fold_work: Vec<usize>,
    /// Cached block folds, keyed by cluster id; present exactly for the
    /// clusters with more than `B` children.
    folds: FxHashMap<u32, FoldTree<M, X>>,
    num_edges: usize,
}

impl<M: CommutativeMonoid, X: Extent> ContractionForest<M, X> {
    /// Creates a forest of `n` isolated vertices under the given policy.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn new(n: usize, policy: Policy) -> Self {
        assert_id_space(n);
        let mut forest = ContractionForest {
            policy,
            weights: vec![M::Weight::default(); n],
            phantom: vec![false; n],
            marked: vec![false; if X::ENABLED { n } else { 0 }],
            clusters: ClusterSlab(Vec::with_capacity(2 * n)),
            parents: ClusterSlab(Vec::with_capacity(2 * n)),
            free: Vec::new(),
            pending: Vec::new(),
            dirty: Vec::new(),
            flush_levels: Vec::new(),
            flush_work: Vec::new(),
            roots: Vec::new(),
            new_parents: Vec::new(),
            hub_nbrs: Vec::new(),
            fold_work: Vec::new(),
            folds: FxHashMap::default(),
            num_edges: 0,
        };
        for v in 0..n {
            let summary = forest.leaf_summary(v);
            forest.clusters.push(Cluster::new_leaf(summary));
            forest.parents.push(NIL32);
        }
        forest
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Appends isolated vertices (with default weight, non-phantom, unmarked)
    /// until the forest has `n` of them.  A smaller `n` is a no-op.
    ///
    /// Leaf clusters must occupy ids `0..n` — queries and the ternarization
    /// layer rely on `leaf id == vertex id` — so an internal cluster
    /// currently sitting on a soon-to-be-leaf id is relocated to a fresh slot
    /// at the end of the arena first, with every reference to it (parent's
    /// child list, children's parent pointers, adjacency mirrors) repointed.
    /// Queued summary work is settled first, because a dirty-list entry
    /// names a cluster by id and would not follow the move.  The parents of
    /// the relocated clusters are left queued.  Cost is O(added + relocated
    /// degrees) plus the settle.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert_id_space(n);
        let old = self.len();
        if n <= old {
            return;
        }
        self.settle();
        // ids below `n` stop being available for internal clusters
        self.free.retain(|&id| id as usize >= n);
        self.weights.resize(n, M::Weight::default());
        self.phantom.resize(n, false);
        if X::ENABLED {
            self.marked.resize(n, false);
        }
        for v in old..n {
            if v < self.clusters.len() && self.clusters[v].is_alive() {
                self.relocate_cluster(v);
            }
            let summary = self.leaf_summary(v);
            if v < self.clusters.len() {
                self.clusters[v] = Cluster::new_leaf(summary);
                self.parents[v] = NIL32;
            } else {
                debug_assert_eq!(self.clusters.len(), v);
                self.clusters.push(Cluster::new_leaf(summary));
                self.parents.push(NIL32);
            }
        }
    }

    /// Moves the internal cluster at id `from` to a fresh id at the end of
    /// the arena, repointing its parent's child list, its children's parent
    /// pointers and its neighbours' mirror adjacency entries.  Only
    /// [`ensure_vertices`](Self::ensure_vertices) calls this, to vacate a
    /// slot needed for a new leaf.
    fn relocate_cluster(&mut self, from: ClusterId) {
        let from = narrow(from);
        let to = slab_id(self.clusters.len());
        let dead = Cluster::unlinked(0, false, Summary::empty());
        let mut cluster = std::mem::replace(&mut self.clusters[from], dead);
        debug_assert!(cluster.level > 0, "leaves are never relocated");
        // a dirty-list entry names the old id and does not follow the move:
        // a queued cluster (the parent of one moved before it) is queued
        // afresh under `to`
        let queued = cluster.flags & (QUEUED | FULL);
        cluster.clear(QUEUED | FULL);
        let parent = std::mem::replace(&mut self.parents[from], NIL32);
        if parent != NIL32 {
            self.clusters[parent].children[cluster.slot as usize] = to;
        }
        for &ch in &cluster.children {
            self.parents[ch] = to;
        }
        for e in &cluster.neighbors {
            for m in self.clusters[e.neighbor].neighbors.iter_mut() {
                if m.neighbor == from && m.my_end == e.other_end && m.other_end == e.my_end {
                    m.neighbor = to;
                }
            }
        }
        if cluster.children.len() > B {
            if let Some(tree) = self.folds.remove(&from) {
                self.folds.insert(to, tree);
            }
        }
        let slot = cluster.slot;
        self.clusters.push(cluster);
        self.parents.push(parent);
        if queued != 0 {
            self.queue(to, queued & FULL);
        }
        // the moved cluster's summary is unchanged, but its parent's child
        // list now names `to`: the next settle re-folds its block (an
        // extent fold records pendant ids) and refreshes the parent
        if parent != NIL32 {
            self.touch_slot(parent, slot);
            self.mark_dirty(parent);
        }
    }

    /// Whether the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Policy in use.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Marks vertex `v` as phantom: its weight is ignored by every aggregate.
    /// Used by the ternarization wrapper for the auxiliary path vertices.
    /// Queues the summary refresh (see [`settle`](Self::settle)).
    pub fn set_phantom(&mut self, v: Vertex, phantom: bool) {
        self.phantom[v] = phantom;
        self.mark_dirty(narrow(v));
    }

    /// Sets the weight of vertex `v`, queueing the summary refresh.
    pub fn set_weight(&mut self, v: Vertex, w: M::Weight) {
        self.weights[v] = w;
        self.mark_dirty(narrow(v));
    }

    /// Returns the weight of vertex `v`.
    pub fn weight(&self, v: Vertex) -> M::Weight {
        self.weights[v]
    }

    /// Whether edge `(u, v)` is currently present.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u >= self.len() || v >= self.len() {
            return false;
        }
        // scan the shorter list: a hub's list is as long as its degree
        let (a, b) = if self.clusters[u].degree() <= self.clusters[v].degree() {
            (u, v)
        } else {
            (v, u)
        };
        self.clusters[a]
            .neighbors
            .iter()
            .any(|e| e.my_end as usize == a && e.other_end as usize == b)
    }

    /// The topmost cluster of the tree containing `v`.
    pub fn top_cluster(&self, v: Vertex) -> ClusterId {
        let mut c = narrow(v);
        while self.parents[c] != NIL32 {
            c = self.parents[c];
        }
        c as usize
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        u == v || self.top_cluster(u) == self.top_cluster(v)
    }

    /// Writes one component label per vertex into `out`: dense ids counted
    /// up from 0 in order of first appearance by vertex id, so every label
    /// is below [`len`](Self::len).  One walk up the parent array per
    /// vertex, with the labels handed out kept in a table indexed by top
    /// cluster id.
    pub fn component_labels(&self, out: &mut Vec<usize>) {
        let mut label = vec![NIL32; self.clusters.len()];
        let mut next = 0;
        out.clear();
        out.extend((0..self.len()).map(|v| {
            let top = self.top_cluster(v);
            if label[top] == NIL32 {
                label[top] = next;
                next += 1;
            }
            label[top] as usize
        }));
    }

    /// Height of the hierarchy above `v` (number of ancestor levels).
    pub fn height(&self, v: Vertex) -> usize {
        let mut c = narrow(v);
        let mut h = 0;
        while self.parents[c] != NIL32 {
            c = self.parents[c];
            h += 1;
        }
        h
    }

    /// Inserts edge `(u, v)`, queueing the summary refresh.  Returns `false`
    /// for self loops, duplicate edges and edges that would close a cycle.
    pub fn link(&mut self, u: Vertex, v: Vertex) -> bool {
        if u == v || u >= self.len() || v >= self.len() || self.has_edge(u, v) {
            return false;
        }
        if self.connected(u, v) {
            return false;
        }
        self.update_edge(u, v, false);
        self.num_edges += 1;
        true
    }

    /// Removes edge `(u, v)`, queueing the summary refresh.  Returns `false`
    /// if the edge is not present.
    pub fn cut(&mut self, u: Vertex, v: Vertex) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        self.update_edge(u, v, true);
        self.num_edges -= 1;
        true
    }

    /// Heap bytes owned by the hierarchy: the cluster slab with every
    /// cluster's adjacency and child buffers, the parent array beside it,
    /// the vertex arrays, the freelist and the fold-tree side table.  The
    /// work queues (`dirty`, `pending`) and the settle and recluster scratch
    /// buffers are not counted.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.clusters.capacity() * std::mem::size_of::<Cluster<M, X>>()
            + self.parents.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<M::Weight>()
            + self.phantom.capacity()
            + self.marked.capacity()
            + self.free.capacity() * std::mem::size_of::<u32>();
        for c in self.clusters.iter() {
            bytes += c.neighbors.capacity() * std::mem::size_of::<AdjEntry>();
            bytes += c.children.capacity() * std::mem::size_of::<u32>();
        }
        bytes += self.folds.capacity() * (std::mem::size_of::<(u32, FoldTree<M, X>)>() + 1);
        bytes + self.folds.values().map(FoldTree::heap_bytes).sum::<usize>()
    }

    /// Number of live clusters (leaves plus internal).
    pub fn live_clusters(&self) -> usize {
        self.clusters.iter().filter(|c| c.is_alive()).count()
    }

    // ------------------------------------------------------------------
    // Sequential update (Algorithms 1 and 2)
    // ------------------------------------------------------------------

    fn update_edge(&mut self, u: Vertex, v: Vertex, delete: bool) {
        let (u, v) = (narrow(u), narrow(v));
        self.delete_ancestors(u);
        self.delete_ancestors(v);
        if self.parents[u] == NIL32 {
            self.push_pending(u);
        }
        if self.parents[v] == NIL32 {
            self.push_pending(v);
        }
        self.apply_edge_all_levels(u, v, delete);
        self.recluster();
    }

    /// Algorithm 1: walk up from `c0`'s parent, deleting every ancestor that
    /// the policy allows to be deleted and disconnecting low-degree clusters
    /// from surviving parents.
    fn delete_ancestors(&mut self, c0: u32) {
        let mut prev = c0;
        let mut prev_deleted = false;
        let mut curr = self.parents[c0];
        while curr != NIL32 {
            let next = self.parents[curr];
            let deletable = self.deletable(curr);
            if deletable {
                self.delete_cluster(curr);
                prev_deleted = true;
            } else {
                // a freed `prev` has no parent, so a match means it is live
                if !prev_deleted && self.parents[prev] == curr && self.clusters[prev].degree() <= 2
                {
                    self.disconnect_child(prev, curr);
                }
                prev_deleted = false;
            }
            prev = curr;
            curr = next;
        }
    }

    fn deletable(&self, c: u32) -> bool {
        match self.policy {
            Policy::Topology => true,
            Policy::Ufo => self.clusters[c].degree() < 3 && self.clusters[c].fanout() < 3,
        }
    }

    /// Deletes cluster `c`: its children become pending root clusters, its
    /// adjacency entries are removed from neighbours (and from surviving
    /// ancestors at higher levels), and the slot is freed.
    fn delete_cluster(&mut self, c: u32) {
        debug_assert!(self.clusters[c].is_alive() && self.clusters[c].level > 0);
        let parent = self.parents[c];
        // `c`'s own list is cleared below; the loop only edits other lists
        let mut entries = std::mem::take(&mut self.clusters[c].neighbors);
        for e in &entries {
            self.remove_adj(e.neighbor, e.other_end, e.my_end);
            self.mark_adjacency(e.neighbor);
            // the vertices of `c` leave every surviving ancestor, so the edge
            // must disappear from the levels above as well
            if parent != NIL32 {
                let qp = self.parents[e.neighbor];
                self.remove_edge_upward(parent, qp, e.my_end, e.other_end);
            }
        }
        let mut children = std::mem::take(&mut self.clusters[c].children);
        if children.len() > B {
            self.folds.remove(&c);
        }
        // a child's summary does not read its parent, so the children
        // need no refresh; each one's next parent is marked when it attaches
        for &y in &children {
            self.parents[y] = NIL32;
            self.push_pending(y);
        }
        if parent != NIL32 {
            self.detach_child(c);
            self.mark_dirty(parent);
        }
        // the freed slot keeps both buffers for its next tenant
        entries.clear();
        children.clear();
        debug_assert_eq!(self.parents[c], NIL32, "a freed slot has no parent");
        let cl = &mut self.clusters[c];
        cl.clear(ALIVE);
        cl.neighbors = entries;
        cl.children = children;
        self.free.push(c);
    }

    /// Removes `child` from its parent's child list in O(1): the last child
    /// moves into the vacated slot, and both slots' fold blocks go stale.
    fn detach_child(&mut self, child: u32) {
        let parent = self.parents[child];
        let slot = self.clusters[child].slot;
        let kids = &mut self.clusters[parent].children;
        kids.swap_remove(slot as usize);
        let last = kids.len() as u32;
        if slot < last {
            let moved = kids[slot as usize];
            self.clusters[moved].slot = slot;
        }
        self.parents[child] = NIL32;
        if self.clusters[parent].children.len() == B {
            // dropped to `B` children: folded directly from now on
            self.folds.remove(&parent);
        } else {
            self.touch_slot(parent, slot);
            self.touch_slot(parent, last);
        }
    }

    /// Marks the fold block holding `slot` of `parent` stale (a no-op for
    /// the hub and for clusters folded directly).
    fn touch_slot(&mut self, parent: u32, slot: u32) {
        if slot == 0 || self.clusters[parent].children.len() <= B {
            return;
        }
        if let Some(tree) = self.folds.get_mut(&parent) {
            tree.mark_stale((slot - 1) as usize / B);
        }
    }

    /// Disconnects `child` from its surviving parent `parent`, turning `child`
    /// into a pending root cluster.  If removing the child would disconnect the
    /// parent's remaining children (the child is the hub of a star merge), the
    /// parent is deleted instead.
    fn disconnect_child(&mut self, child: u32, parent: u32) {
        // Count the child's internal edges (edges to siblings).
        let internal = self.clusters[child]
            .neighbors
            .iter()
            .filter(|e| self.parents[e.neighbor] == parent)
            .count();
        if self.clusters[parent].fanout() >= 3 && internal >= 2 {
            // `child` is the hub; removing it would shatter the parent.
            self.delete_cluster(parent);
            return;
        }
        self.detach_child(child);
        self.mark_dirty(parent);
        self.push_pending(child);
        self.mark_adjacency(child);
        // The child's vertices leave the parent's subtree: remove its external
        // edges from the parent's level and above (never the child's own
        // level, so its list is stable).
        for i in 0..self.clusters[child].neighbors.len() {
            let e = self.clusters[child].neighbors[i];
            let qp = self.parents[e.neighbor];
            self.remove_edge_upward(parent, qp, e.my_end, e.other_end);
        }
    }

    /// Removes the original edge `(my_end, other_end)` from every level where
    /// it currently connects the two ancestor chains starting at `pa` / `pb`.
    fn remove_edge_upward(&mut self, mut pa: u32, mut pb: u32, a: u32, b: u32) {
        while pa != NIL32 && pb != NIL32 && pa != pb {
            if !self.clusters[pa].is_alive() || !self.clusters[pb].is_alive() {
                break;
            }
            self.remove_adj(pa, a, b);
            self.remove_adj(pb, b, a);
            self.mark_adjacency(pa);
            self.mark_adjacency(pb);
            pa = self.parents[pa];
            pb = self.parents[pb];
        }
    }

    /// Adds the original edge `(my_end, other_end)` at every level where the
    /// two ancestor chains starting at `pa` / `pb` are distinct.
    fn add_edge_upward(&mut self, mut pa: u32, mut pb: u32, a: u32, b: u32) {
        while pa != NIL32 && pb != NIL32 && pa != pb {
            self.add_adj(pa, pb, a, b);
            self.add_adj(pb, pa, b, a);
            self.mark_adjacency(pa);
            self.mark_adjacency(pb);
            pa = self.parents[pa];
            pb = self.parents[pb];
        }
    }

    /// Inserts or deletes the original edge `(u, v)` at every level where the
    /// two endpoints' ancestors are distinct live clusters.  A leaf summary
    /// reads no adjacency, so only the ancestors above the two leaves are
    /// marked.
    fn apply_edge_all_levels(&mut self, u: u32, v: u32, delete: bool) {
        let mut au = u;
        let mut av = v;
        while au != NIL32 && av != NIL32 && au != av {
            if delete {
                self.remove_adj(au, u, v);
                self.remove_adj(av, v, u);
            } else {
                // a linked edge is absent at every level: no duplicate scan
                // (a hub's list is as long as its degree)
                self.push_adj(au, av, u, v);
                self.push_adj(av, au, v, u);
            }
            if au != u {
                self.mark_adjacency(au);
                self.mark_adjacency(av);
            }
            au = self.parents[au];
            av = self.parents[av];
        }
    }

    fn add_adj(&mut self, c: u32, nbr: u32, my_end: u32, other_end: u32) {
        debug_assert!(self.clusters[c].is_alive());
        if !self.clusters[c]
            .neighbors
            .iter()
            .any(|e| e.my_end == my_end && e.other_end == other_end)
        {
            self.push_adj(c, nbr, my_end, other_end);
        } else {
            // keep the neighbour pointer fresh
            for e in &mut self.clusters[c].neighbors {
                if e.my_end == my_end && e.other_end == other_end {
                    e.neighbor = nbr;
                }
            }
        }
    }

    /// Adds an adjacency entry known to be absent from `c`'s list.
    fn push_adj(&mut self, c: u32, nbr: u32, my_end: u32, other_end: u32) {
        debug_assert!(self.clusters[c].is_alive());
        debug_assert!(!self.clusters[c]
            .neighbors
            .iter()
            .any(|e| e.my_end == my_end && e.other_end == other_end));
        self.clusters[c].neighbors.push(AdjEntry {
            neighbor: nbr,
            my_end,
            other_end,
        });
        // A parentless cluster that gains an edge stops being a finished
        // tree top: it must take part in the coming reclustering rounds, or
        // its tree would never merge with the edge's other side.
        if self.parents[c] == NIL32 {
            self.push_pending(c);
        }
    }

    fn remove_adj(&mut self, c: u32, my_end: u32, other_end: u32) {
        let list = &mut self.clusters[c].neighbors;
        if let Some(pos) = list
            .iter()
            .position(|e| e.my_end == my_end && e.other_end == other_end)
        {
            list.swap_remove(pos);
        }
    }

    /// Queues root `c` for reclustering in the bucket of its level, once: a
    /// root whose [`PENDING`] bit is set already waits there.
    fn push_pending(&mut self, c: u32) {
        let cl = &mut self.clusters[c];
        if cl.has(PENDING) {
            return;
        }
        cl.set(PENDING);
        let level = cl.level as usize;
        #[cfg(test)]
        tests::PENDING_PUSHES.with(|n| n.set(n.get() + 1));
        if self.pending.len() <= level {
            self.pending.resize_with(level + 1, Vec::new);
        }
        self.pending[level].push(c);
    }

    /// Queues `c` for a full summary refresh: its child list, a child's
    /// summary or its own vertex data changed.
    fn mark_dirty(&mut self, c: u32) {
        #[cfg(test)]
        tests::MARKS.with(|n| n.set((n.get().0 + 1, n.get().1)));
        self.queue(c, FULL);
    }

    /// Queues `c` for an adjacency-only refresh: only its neighbour list
    /// changed, so [`settle`](Self::settle) recomputes it only if its
    /// boundary moved.
    fn mark_adjacency(&mut self, c: u32) {
        #[cfg(test)]
        tests::MARKS.with(|n| n.set((n.get().0, n.get().1 + 1)));
        self.queue(c, 0);
    }

    /// Adds `bits` to `c`'s mark and puts it on the dirty list, once: a
    /// cluster already queued is not pushed again, so the dirty list needs
    /// no sort or dedup.
    fn queue(&mut self, c: u32, bits: u8) {
        let cl = &mut self.clusters[c];
        cl.set(bits);
        if !cl.has(QUEUED) {
            cl.set(QUEUED);
            self.dirty.push(c);
        }
    }

    // ------------------------------------------------------------------
    // Reclustering (Algorithm 2)
    // ------------------------------------------------------------------

    fn recluster(&mut self) {
        let mut level = 0;
        // swapped with each level's bucket, so the buffers are reused
        let mut roots = std::mem::take(&mut self.roots);
        while level < self.pending.len() {
            if self.pending[level].is_empty() {
                level += 1;
                continue;
            }
            roots.clear();
            std::mem::swap(&mut roots, &mut self.pending[level]);
            #[cfg(test)]
            tests::count_distinct_roots(&roots);
            // the bucket is taken, so its roots may be queued again (an
            // entry whose slot was re-tenanted at another level leaves that
            // tenant's bit alone); only this level's unparented roots merge
            let (clusters, parents) = (&mut self.clusters, &self.parents);
            roots.retain(|&c| {
                let cl = &mut clusters[c];
                if cl.level as usize != level {
                    return false;
                }
                cl.clear(PENDING);
                cl.is_alive() && parents[c] == NIL32
            });
            // the merge order fixes the hierarchy's shape: process the
            // roots in id order, whatever order they were pushed in.  A
            // slot re-tenanted twice can leave a second entry, so dedup.
            roots.sort_unstable();
            roots.dedup();
            if roots.is_empty() {
                // a later push may refill this level; re-check before moving on
                if self.pending[level].is_empty() {
                    level += 1;
                }
                continue;
            }
            self.recluster_level(level, &roots);
            // do not advance: the level may have received new pending roots
            // (e.g. children of clusters deleted while absorbing neighbours)
        }
        roots.clear();
        self.roots = roots;
    }

    fn recluster_level(&mut self, level: usize, roots: &[u32]) {
        let mut new_parents = std::mem::take(&mut self.new_parents);

        // Phase A (UFO only): high-degree root clusters absorb all their
        // degree-1 neighbours.
        if self.policy == Policy::Ufo {
            for &x in roots {
                if !self.is_unparented_root(x, level) || self.clusters[x].degree() < 3 {
                    continue;
                }
                let p = self.new_cluster(level as u32 + 1);
                self.attach_child(x, p);
                let mut nbrs = std::mem::take(&mut self.hub_nbrs);
                nbrs.extend(self.clusters[x].neighbors.iter().map(|e| e.neighbor));
                for &y in &nbrs {
                    if !self.clusters[y].is_alive() || self.clusters[y].degree() != 1 {
                        continue;
                    }
                    if self.parents[y] != NIL32 {
                        self.delete_ancestors(y);
                    }
                    if self.parents[y] == NIL32 {
                        self.attach_child(y, p);
                    }
                }
                nbrs.clear();
                self.hub_nbrs = nbrs;
                new_parents.push(p);
            }
        }

        // Phase B: degree-2 (and, for topology trees, degree-3) root clusters
        // try to pair with an unmerged neighbour.
        for &x in roots {
            if !self.is_unparented_root(x, level) {
                continue;
            }
            let dx = self.clusters[x].degree();
            let pairable = match self.policy {
                Policy::Ufo => dx == 2,
                Policy::Topology => dx == 2 || dx == 3,
            };
            if !pairable {
                continue;
            }
            let partner = self.clusters[x]
                .neighbors
                .iter()
                .map(|e| e.neighbor)
                .find(|&y| {
                    self.clusters[y].is_alive()
                        && self.pair_allowed(dx, self.clusters[y].degree())
                        && !self.merges(y)
                });
            match partner {
                Some(y) if self.parents[y] != NIL32 => {
                    // y sits alone under a copy parent: join it there
                    let yp = self.parents[y];
                    self.delete_ancestors(yp);
                    self.attach_to_existing(x, yp);
                }
                Some(y) => {
                    let p = self.new_cluster(level as u32 + 1);
                    self.attach_child(x, p);
                    self.attach_child(y, p);
                    new_parents.push(p);
                }
                None => {
                    let p = self.new_cluster(level as u32 + 1);
                    self.attach_child(x, p);
                    new_parents.push(p);
                }
            }
        }

        // Phase C: degree-1 root clusters.
        for &x in roots {
            if !self.is_unparented_root(x, level) || self.clusters[x].degree() != 1 {
                continue;
            }
            let e = self.clusters[x].neighbors[0];
            let y = e.neighbor;
            let dy = if self.clusters[y].is_alive() {
                self.clusters[y].degree()
            } else {
                0
            };
            if self.clusters[y].is_alive() && self.parents[y] != NIL32 && !self.merges(y) {
                let yp = self.parents[y];
                self.delete_ancestors(yp);
                self.attach_to_existing(x, yp);
            } else if self.clusters[y].is_alive()
                && self.parents[y] != NIL32
                && dy >= 3
                && self.policy == Policy::Ufo
            {
                // y is a high-degree cluster already merged into its star
                // parent: x joins that star.  Phase A attached y first, so
                // it is the hub at slot 0.
                let yp = self.parents[y];
                self.delete_ancestors(yp);
                debug_assert_eq!(self.clusters[y].slot, 0, "a star's hub sits at slot 0");
                self.attach_to_existing(x, yp);
            } else if self.clusters[y].is_alive()
                && self.parents[y] == NIL32
                && self.pair_allowed(1, dy)
            {
                let p = self.new_cluster(level as u32 + 1);
                self.attach_child(x, p);
                self.attach_child(y, p);
                new_parents.push(p);
            } else {
                let p = self.new_cluster(level as u32 + 1);
                self.attach_child(x, p);
                new_parents.push(p);
            }
        }

        // Degree-0 root clusters are finished trees: they get no parent.

        // Populate the adjacency lists of the newly created parents.
        for &p in &new_parents {
            if !self.clusters[p].is_alive() {
                continue;
            }
            // `attach_child` marked `p` already
            self.populate_parent_adjacency(p);
            self.push_pending(p);
        }
        new_parents.clear();
        self.new_parents = new_parents;
    }

    fn is_unparented_root(&self, c: u32, level: usize) -> bool {
        self.clusters[c].is_alive()
            && self.parents[c] == NIL32
            && self.clusters[c].level as usize == level
    }

    fn pair_allowed(&self, da: usize, db: usize) -> bool {
        match self.policy {
            Policy::Ufo => (1..=2).contains(&da) && (1..=2).contains(&db),
            Policy::Topology => {
                matches!((da.min(db), da.max(db)), (1, 1) | (1, 2) | (2, 2) | (1, 3))
            }
        }
    }

    /// Whether `y` already participates in a genuine merge (its parent has
    /// more than one child).
    fn merges(&self, y: u32) -> bool {
        let p = self.parents[y];
        p != NIL32 && self.clusters[p].fanout() >= 2
    }

    /// A fresh cluster at `level`.  A freed slot is reset in place, so its
    /// new tenant takes over the cleared `neighbors`/`children` buffers
    /// [`delete_cluster`](Self::delete_cluster) left there.  The refresh
    /// mark is kept, since a slot freed mid-update may still sit on the
    /// dirty list; so is [`PENDING`] if the new tenant's level is the old
    /// one, since the old entry then sits in the tenant's own bucket.
    fn new_cluster(&mut self, level: u32) -> u32 {
        assert!(
            level < u32::from(u16::MAX),
            "cluster level {level} exceeds u16 storage"
        );
        let level = level as u16;
        if let Some(id) = self.free.pop() {
            debug_assert_eq!(self.parents[id], NIL32, "a freed slot has no parent");
            let cl = &mut self.clusters[id];
            debug_assert!(!cl.is_alive() && cl.neighbors.is_empty() && cl.children.is_empty());
            let keep = if cl.level == level {
                QUEUED | FULL | PENDING
            } else {
                QUEUED | FULL
            };
            cl.flags = ALIVE | (cl.flags & keep);
            cl.level = level;
            cl.slot = 0;
            cl.summary = Summary::empty();
            id
        } else {
            let id = slab_id(self.clusters.len());
            self.clusters
                .push(Cluster::unlinked(level, true, Summary::empty()));
            self.parents.push(NIL32);
            id
        }
    }

    fn attach_child(&mut self, child: u32, parent: u32) {
        debug_assert_eq!(self.parents[child], NIL32);
        debug_assert_eq!(
            self.clusters[child].level + 1,
            self.clusters[parent].level,
            "level mismatch while attaching"
        );
        let slot = self.clusters[parent].children.len() as u32;
        self.parents[child] = parent;
        self.clusters[child].slot = slot;
        self.clusters[parent].children.push(child);
        self.touch_slot(parent, slot);
        self.mark_dirty(parent);
    }

    /// Attaches root cluster `x` to an already-existing parent `p` and fixes
    /// up the adjacency of `p` (and of `p`'s surviving ancestors) to account
    /// for `x`'s external edges.
    fn attach_to_existing(&mut self, x: u32, p: u32) {
        debug_assert!(self.clusters[p].is_alive());
        self.attach_child(x, p);
        // the edges go in at `p`'s level and above, so `x`'s list is stable
        for i in 0..self.clusters[x].neighbors.len() {
            let e = self.clusters[x].neighbors[i];
            let qp = self.parents[e.neighbor];
            if qp == p || qp == NIL32 {
                continue;
            }
            self.add_edge_upward(p, qp, e.my_end, e.other_end);
        }
    }

    /// Builds the adjacency list of a freshly created parent from its
    /// children's adjacency, inserting the symmetric entries into neighbouring
    /// clusters that already exist.
    fn populate_parent_adjacency(&mut self, p: u32) {
        // only lists one level up change, so the children and their lists
        // are stable
        for k in 0..self.clusters[p].children.len() {
            let c = self.clusters[p].children[k];
            for i in 0..self.clusters[c].neighbors.len() {
                let e = self.clusters[c].neighbors[i];
                // a freed neighbour has no parent, so it is skipped here
                let qp = self.parents[e.neighbor];
                if qp == p || qp == NIL32 {
                    continue;
                }
                self.add_adj(p, qp, e.my_end, e.other_end);
                self.add_adj(qp, p, e.other_end, e.my_end);
                self.mark_adjacency(qp);
            }
        }
    }

    // ------------------------------------------------------------------
    // Summary maintenance
    // ------------------------------------------------------------------

    /// Panics unless the forest is settled (no summary work is queued).
    /// Every summary-reading query calls this first, in every build: an
    /// unsettled forest would answer from stale summaries.
    #[inline]
    pub(crate) fn assert_settled(&self) {
        assert!(
            self.dirty.is_empty(),
            "summary query on an unsettled ContractionForest: call settle() after updating"
        );
    }

    /// Recomputes the summary of every queued cluster whose inputs changed,
    /// and of every ancestor a changed summary reaches, bottom-up, in one
    /// pass however many updates queued them.  A no-op on a settled forest.
    ///
    /// - An adjacency-only cluster (queued by `mark_adjacency`)
    ///   is skipped if it is a leaf or if the boundary recomputed from its
    ///   neighbour list equals the stored one: nothing else it reads moved.
    /// - A recomputed summary that equals the stored one stops there: the
    ///   parent's fold block stays valid and the parent is not queued.  The
    ///   one exception is a boundary vertex whose weight changed, because a
    ///   parent reads its children's boundary weights directly (`MOVED`).
    /// - A changed summary marks its fold block in the parent stale and
    ///   queues the parent full, so a parent with more than `B` children
    ///   re-folds only those blocks and the fold-tree path above them.
    ///
    /// A cluster's `QUEUED` bit stays set from its mark until its level is
    /// processed, and parents are queued through the same bit, so every
    /// level bucket holds each id once.  A summary depends only on its
    /// children's summaries, which are final before their level is
    /// processed, so the order inside a level is free.
    pub fn settle(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        // bucket the dirty clusters by level; each level's changed clusters
        // push their parents one level up
        let mut levels = std::mem::take(&mut self.flush_levels);
        for &c in &self.dirty {
            let cl = &mut self.clusters[c];
            if cl.is_alive() {
                let l = cl.level as usize;
                if levels.len() <= l {
                    levels.resize_with(l + 1, Vec::new);
                }
                levels[l].push(c);
            } else {
                // freed after it was queued; nothing to recompute
                cl.clear(QUEUED | FULL);
            }
        }
        self.dirty.clear();
        let mut work = std::mem::take(&mut self.flush_work);
        // whether a leaf's vertex data changed in this pass
        let mut moved = false;
        let mut l = 0;
        while l < levels.len() {
            std::mem::swap(&mut work, &mut levels[l]);
            for &c in &work {
                let cl = &mut self.clusters[c];
                debug_assert!(cl.is_alive(), "settle reached a dead cluster {c}");
                let full = cl.has(FULL);
                cl.clear(QUEUED | FULL);
                if !full
                    && (cl.children.is_empty()
                        || boundary_of(&cl.neighbors) == (cl.summary.boundary, cl.summary.nbound))
                {
                    #[cfg(test)]
                    tests::ADJ_SKIPS.with(|n| n.set(n.get() + 1));
                    debug_assert!(
                        self.summary_is_current(c),
                        "adjacency-only cluster {c} skipped with a stale summary"
                    );
                    continue;
                }
                let pendants = self.pendant_fold(c);
                let s = self.compute_summary(c, &pendants);
                #[cfg(test)]
                tests::SUMMARIES.with(|n| n.set(n.get() + 1));
                let cl = &mut self.clusters[c];
                let changed = cl.summary != s;
                cl.summary = s;
                let (parent, slot) = (self.parents[c], cl.slot);
                if changed && l == 0 {
                    cl.set(MOVED);
                    moved = true;
                }
                if parent == NIL32 || !(changed || moved && self.exports_moved_vertex(c)) {
                    continue;
                }
                if changed {
                    self.touch_slot(parent, slot);
                }
                let pc = &mut self.clusters[parent];
                pc.set(FULL);
                if !pc.has(QUEUED) {
                    pc.set(QUEUED);
                    if levels.len() <= l + 1 {
                        levels.resize_with(l + 2, Vec::new);
                    }
                    levels[l + 1].push(parent);
                }
            }
            if l == 0 && moved {
                // keep the leaves until the pass ends, to clear their bits
                std::mem::swap(&mut work, &mut levels[0]);
            } else {
                work.clear();
            }
            l += 1;
        }
        if moved {
            for &v in &levels[0] {
                self.clusters[v].clear(MOVED);
            }
            levels[0].clear();
        }
        self.flush_levels = levels;
        self.flush_work = work;
    }

    /// Whether a boundary vertex of `c` is a leaf whose vertex data changed
    /// in the running settle.
    fn exports_moved_vertex(&self, c: u32) -> bool {
        let s = &self.clusters[c].summary;
        s.boundary[..s.nbound as usize]
            .iter()
            .any(|&b| self.clusters[b].has(MOVED))
    }

    /// Whether `c`'s stored summary equals a recompute from its current
    /// inputs.  It reads a fold tree's root as cached rather than
    /// refreshing it, so it changes nothing (for debug checks).
    fn summary_is_current(&self, c: u32) -> bool {
        let pendants = match self.folds.get(&c) {
            Some(tree) => tree.nodes[1],
            None => self.fresh_pendant_fold(c),
        };
        self.compute_summary(c, &pendants) == self.clusters[c].summary
    }

    /// The fold of `c`'s pendant children: folded directly for at most `B`
    /// children, otherwise read from `c`'s fold tree after re-folding its
    /// stale blocks (the whole tree when it no longer fits).
    fn pendant_fold(&mut self, c: u32) -> Fold<M, X> {
        let children = &self.clusters[c].children;
        if children.len() <= 1 {
            return Fold::EMPTY;
        }
        if children.len() <= B {
            return Fold::of(&self.clusters, children[0], &children[1..]);
        }
        match self.folds.get_mut(&c) {
            Some(tree) if tree.fits(&self.clusters, children) => {
                tree.refresh(&self.clusters, children, &mut self.fold_work);
                tree.nodes[1]
            }
            _ => {
                let cap = blocks(children.len()).next_power_of_two();
                let tree = FoldTree::build(&self.clusters, children, cap);
                let all = tree.nodes[1];
                self.folds.insert(c, tree);
                all
            }
        }
    }

    /// The fold of `c`'s pendant children from scratch, block by block in
    /// the shape of `c`'s fold tree (for invariant checks).
    fn fresh_pendant_fold(&self, c: u32) -> Fold<M, X> {
        let children = &self.clusters[c].children;
        if children.len() <= 1 {
            return Fold::EMPTY;
        }
        if children.len() <= B {
            return Fold::of(&self.clusters, children[0], &children[1..]);
        }
        let cap = self
            .folds
            .get(&c)
            .map_or_else(|| blocks(children.len()).next_power_of_two(), FoldTree::cap);
        FoldTree::build(&self.clusters, children, cap).nodes[1]
    }

    fn leaf_summary(&self, v: Vertex) -> Summary<M, X> {
        let mut ext = X::EMPTY;
        if let Some(e) = ext.get_mut() {
            if self.marked[v] {
                e.near = [0, 0];
            }
        }
        Summary {
            boundary: [narrow(v), narrow(v)],
            nbound: 1,
            sub: Agg::vertex_if(self.weights[v], self.phantom[v]),
            vertices: 1,
            path: Agg::IDENTITY,
            ext,
        }
    }

    /// The vertex-weight contribution of `v` to a path aggregate (identity for
    /// phantom vertices, but the vertex still counts as a hop).
    pub(crate) fn vertex_path_value(&self, v: Vertex) -> Agg<M> {
        if self.phantom[v] {
            Agg::IDENTITY
        } else {
            Agg::vertex(self.weights[v])
        }
    }

    /// Recomputes the summary of cluster `c` from the summaries of its hub
    /// (slot 0) and the fold of its pendant children (or from the vertex
    /// data for leaves).  Besides the fold it reads the hub and the at most
    /// two pendants that hold a boundary vertex of `c`; under [`Core`] it
    /// reads those pendants only for a two-boundary cluster's path.
    pub(crate) fn compute_summary(&self, c: u32, pendants: &Fold<M, X>) -> Summary<M, X> {
        let cl = &self.clusters[c];
        if cl.children.is_empty() {
            // a leaf's boundary is always itself
            return self.leaf_summary(c as usize);
        }
        let (boundary, nbound) = boundary_of(&cl.neighbors);
        let nbound = nbound as usize;

        let hub = cl.children[0];
        let hub_sum = &self.clusters[hub].summary;
        let mut s: Summary<M, X> = Summary::empty();
        s.boundary = boundary;
        s.nbound = nbound as u8;
        s.sub = Agg::combine(hub_sum.sub, pendants.sub);
        s.vertices = hub_sum.vertices + pendants.vertices;

        if cl.children.len() == 1 {
            s.path = if nbound == 2 {
                hub_sum.path
            } else {
                Agg::IDENTITY
            };
            if let (Some(sx), Some(hx)) = (s.ext.get_mut(), hub_sum.ext.get()) {
                sx.diam = hx.diam;
                for (i, &b) in boundary.iter().enumerate().take(nbound) {
                    let bi = hub_sum
                        .boundary_index(b)
                        .expect("parent boundary must be a child boundary");
                    sx.ecc[i] = hx.ecc[bi];
                    sx.near[i] = hx.near[bi];
                }
            }
            return s;
        }

        // General case: the children form a pair or a star, every pendant
        // attached to the hub by exactly one internal edge.  Locate each
        // parent boundary (in the hub, or in a pendant) with its distance to
        // every hub boundary vertex and its base (within its own child + the
        // hub) eccentricity / nearest-marked distance.  Without extents only
        // the cluster path of a two-boundary cluster needs the locations.
        let locs = if X::ENABLED || nbound == 2 {
            [0, 1].map(|i| (i < nbound).then(|| self.locate(c, hub, boundary[i])))
        } else {
            [None, None]
        };

        if let (Some(sx), Some(hx), Some(px)) =
            (s.ext.get_mut(), hub_sum.ext.get(), X::fold(&pendants.ext))
        {
            // Diameter: the hub's, the pendants', a deepest pendant plus the
            // hub's eccentricity at its attach vertex, and the two deepest
            // pendants at one hub boundary vertex or across both.
            let hn = hub_sum.nbound as usize;
            let deep = &px.deep;
            let mut diam = hx.diam.max(px.diam);
            for (j, d) in deep.iter().enumerate() {
                if d.val[0] > 0 {
                    diam = diam.max(d.val[0] + hx.ecc[j]);
                }
                if j < hn && d.val[1] > 0 {
                    diam = diam.max(d.val[0] + d.val[1]);
                }
            }
            if hn == 2 && deep[0].val[0] > 0 && deep[1].val[0] > 0 {
                diam = diam.max(deep[0].val[0] + hub_sum.path.edges + deep[1].val[0]);
            }
            // Eccentricity / nearest from each parent boundary: through the
            // hub into every pendant except the one holding the boundary.
            for (i, loc) in locs.iter().enumerate() {
                let Some(loc) = loc else { continue };
                sx.ecc[i] = loc.ecc;
                sx.near[i] = loc.near;
                for ((d, near), through) in deep.iter().zip(&px.near).zip(loc.d_hub) {
                    let depth = d.without(loc.child);
                    if depth > 0 {
                        sx.ecc[i] = sx.ecc[i].max(through + depth);
                    }
                    let near = near.without(loc.child);
                    sx.near[i] = sx.near[i].min(through.saturating_add(near));
                }
            }
            sx.diam = diam.max(sx.ecc[..nbound].iter().copied().max().unwrap_or(0));
        }

        // Cluster path: only meaningful with two boundary vertices.
        if let [Some(l0), Some(l1)] = &locs {
            s.path = self.path_between_in_parent(hub, (boundary[0], l0), (boundary[1], l1));
        }
        s
    }

    /// Locates the boundary vertex `b` of cluster `c` (whose hub is `hub`).
    fn locate(&self, c: u32, hub: u32, b: u32) -> BoundaryLoc {
        #[cfg(test)]
        tests::LOCATES.with(|n| n.set(n.get() + 1));
        let hub_sum = &self.clusters[hub].summary;
        let hn = hub_sum.nbound as usize;
        let mut d_hub = [0u64; 2];
        if let Some(bi) = hub_sum.boundary_index(b) {
            for (j, d) in d_hub.iter_mut().enumerate().take(hn) {
                *d = hub_sum.boundary_distance(b, hub_sum.boundary[j]);
            }
            let (ecc, near) = hub_sum
                .ext
                .get()
                .map_or((0, 0), |hx| (hx.ecc[bi], hx.near[bi]));
            return BoundaryLoc {
                child: NIL32,
                x: NIL32,
                y: NIL32,
                d_hub,
                ecc,
                near,
            };
        }
        // b lies in a pendant: the pair's other child, or its ancestor one
        // level below `c`
        let children = &self.clusters[c].children;
        let child = if children.len() == 2 {
            children[1]
        } else {
            let level = u32::from(self.clusters[c].level) - 1;
            narrow(
                self.ancestor_at_level(b as usize, level)
                    .expect("parent boundary must lie in a child"),
            )
        };
        debug_assert_eq!(self.parents[child], c);
        let cl = &self.clusters[child];
        let e = cl
            .neighbors
            .iter()
            .find(|e| e.neighbor == hub)
            .expect("pendant must be attached to the hub");
        let ch = &cl.summary;
        let bi = ch
            .boundary_index(b)
            .expect("parent boundary must lie in a child");
        let (x, y) = (e.other_end, e.my_end);
        let d_to_hub_attach = ch.boundary_distance(b, y) + 1;
        let xi = hub_sum.boundary_index(x).unwrap_or(0);
        for (j, d) in d_hub.iter_mut().enumerate().take(hn) {
            *d = d_to_hub_attach + hub_sum.boundary_distance(x, hub_sum.boundary[j]);
        }
        let (ecc, near) = match (ch.ext.get(), hub_sum.ext.get()) {
            (Some(cx), Some(hx)) => (
                cx.ecc[bi].max(d_to_hub_attach + hx.ecc[xi]),
                cx.near[bi].min(d_to_hub_attach.saturating_add(hx.near[xi])),
            ),
            _ => (0, 0),
        };
        BoundaryLoc {
            child,
            x,
            y,
            d_hub,
            ecc,
            near,
        }
    }

    /// Aggregate over the vertices strictly between `b0` and `b1`, the two
    /// boundary vertices of a parent whose hub is `hub`, each with its
    /// location.
    fn path_between_in_parent(
        &self,
        hub: u32,
        (b0, l0): (u32, &BoundaryLoc),
        (b1, l1): (u32, &BoundaryLoc),
    ) -> Agg<M> {
        let hub_sum = &self.clusters[hub].summary;
        // the path inside pendant `child` from `from` to `to`
        let inside_child = |child: u32, from: u32, to: u32| -> Agg<M> {
            if from == to {
                Agg::IDENTITY
            } else {
                self.clusters[child].summary.path
            }
        };
        // from a hub boundary `b` to the boundary `bc` of the pendant at `l`
        let hub_to_child = |b: u32, bc: u32, l: &BoundaryLoc| -> Agg<M> {
            let mut agg = if b == l.x {
                Agg::IDENTITY
            } else {
                Agg::combine(hub_sum.path, self.vertex_path_value(l.x as usize))
            };
            agg = agg.cross_edge();
            if l.y != bc {
                agg = Agg::combine(agg, self.vertex_path_value(l.y as usize));
                agg = Agg::combine(agg, inside_child(l.child, l.y, bc));
            }
            agg
        };
        match (l0.child == NIL32, l1.child == NIL32) {
            // both boundaries are inside the hub: the parent path is the
            // hub's own cluster path
            (true, true) if b0 == b1 => Agg::IDENTITY,
            (true, true) => hub_sum.path,
            (true, false) => hub_to_child(b0, b1, l1),
            (false, true) => hub_to_child(b1, b0, l0),
            (false, false) => {
                // both boundaries in (distinct) pendants:
                // b0 .. y0 - x0 .. hub .. x1 - y1 .. b1
                let mut agg = if l0.y != b0 {
                    Agg::combine(
                        inside_child(l0.child, b0, l0.y),
                        self.vertex_path_value(l0.y as usize),
                    )
                } else {
                    Agg::IDENTITY
                };
                agg = agg.cross_edge();
                agg = Agg::combine(agg, self.vertex_path_value(l0.x as usize));
                if l0.x != l1.x {
                    agg = Agg::combine(agg, hub_sum.path);
                    agg = Agg::combine(agg, self.vertex_path_value(l1.x as usize));
                }
                agg = agg.cross_edge();
                if l1.y != b1 {
                    agg = Agg::combine(agg, self.vertex_path_value(l1.y as usize));
                    agg = Agg::combine(agg, inside_child(l1.child, l1.y, b1));
                }
                agg
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests)
    // ------------------------------------------------------------------

    /// Exhaustively checks the structural invariants of the hierarchy against
    /// the ground-truth forest described by the leaf adjacency.  Intended for
    /// tests on small inputs; cost is O(n · height).  An unsettled forest
    /// fails the check: call [`settle`](Self::settle) first.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        // 0. once settled nothing is queued, and every freed slot is dead
        //    and holds cleared buffers for its next tenant
        if !self.dirty.is_empty() || self.pending.iter().any(|b| !b.is_empty()) {
            return Err("dirty or pending work left: the forest is not settled".into());
        }
        if let Some(id) = self
            .clusters
            .iter()
            .position(|c| c.has(QUEUED | FULL | PENDING | MOVED))
        {
            return Err(format!(
                "cluster {} still has a queue bit set after settling",
                id
            ));
        }
        for &id in &self.free {
            let c = &self.clusters[id];
            if c.is_alive() || !c.neighbors.is_empty() || !c.children.is_empty() {
                return Err(format!("freelist slot {} is live or holds entries", id));
            }
        }
        // the parent array covers the slab, and a dead slot has no parent
        if self.parents.len() != self.clusters.len() {
            return Err(format!(
                "parent array holds {} entries for {} slab slots",
                self.parents.len(),
                self.clusters.len()
            ));
        }
        if let Some(id) = (0..self.clusters.len())
            .find(|&id| !self.clusters[id].is_alive() && self.parents[id] != NIL32)
        {
            return Err(format!("dead slot {} still has a parent", id));
        }
        // 1. leaf adjacency is symmetric and defines a forest
        let mut dsu = vec![usize::MAX; n];
        fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
            if dsu[x] == usize::MAX {
                return x;
            }
            let r = find(dsu, dsu[x]);
            dsu[x] = r;
            r
        }
        for v in 0..n {
            for e in &self.clusters[v].neighbors {
                if e.my_end as usize != v {
                    return Err(format!("leaf {} has entry with my_end {}", v, e.my_end));
                }
                let u = e.other_end as usize;
                if !self.clusters[u]
                    .neighbors
                    .iter()
                    .any(|r| r.my_end as usize == u && r.other_end as usize == v)
                {
                    return Err(format!("edge ({},{}) not symmetric", v, u));
                }
                if v < u {
                    let (ru, rv) = (find(&mut dsu, v), find(&mut dsu, u));
                    if ru == rv {
                        return Err(format!("cycle detected at edge ({},{})", v, u));
                    }
                    dsu[ru] = rv;
                }
            }
        }
        // 2. parent/child consistency, level synchronisation
        for (id, c) in self.clusters.iter().enumerate() {
            if !c.is_alive() {
                continue;
            }
            let parent = self.parents[id];
            if parent != NIL32 {
                let p = &self.clusters[parent];
                if !p.is_alive() {
                    return Err(format!("cluster {} has dead parent", id));
                }
                if p.level != c.level + 1 {
                    return Err(format!("cluster {} level mismatch with parent", id));
                }
                if p.children.get(c.slot as usize) != Some(&narrow(id)) {
                    return Err(format!(
                        "cluster {} is not at its slot {} of its parent's children",
                        id, c.slot
                    ));
                }
            }
            for &ch in &c.children {
                if !self.clusters[ch].is_alive() || self.parents[ch] != narrow(id) {
                    return Err(format!("child {} of {} inconsistent", ch, id));
                }
            }
            // the hub sits at slot 0: every other child hangs off it
            if let Some((&hub, pendants)) = c.children.split_first() {
                for &y in pendants {
                    if !self.clusters[y].neighbors.iter().any(|e| e.neighbor == hub) {
                        return Err(format!(
                            "child {} of {} is not attached to the slot-0 hub {}",
                            y, id, hub
                        ));
                    }
                }
            }
        }
        // 2b. every stored summary equals a from-scratch fold and lists two
        //     boundary vertices in ascending order, and every cached fold
        //     block equals a fresh fold of its children
        for (id, c) in self.clusters.iter().enumerate() {
            let id = narrow(id);
            if !c.is_alive() {
                continue;
            }
            if c.summary != self.compute_summary(id, &self.fresh_pendant_fold(id)) {
                return Err(format!("cluster {} has a stale summary", id));
            }
            if c.summary.nbound == 2 && c.summary.boundary[0] >= c.summary.boundary[1] {
                return Err(format!("cluster {} lists its boundary out of order", id));
            }
        }
        for (&id, tree) in &self.folds {
            let c = &self.clusters[id];
            if !c.is_alive() || c.children.len() <= B {
                return Err(format!("cluster {} has a fold tree it must not keep", id));
            }
            if !tree.fits(&self.clusters, &c.children) || tree.stale.iter().any(|&w| w != 0) {
                return Err(format!("cluster {} has an out-of-date fold tree", id));
            }
            let cap = tree.cap();
            let mut blocks = c.children[1..].chunks(B);
            for k in 0..cap {
                let fresh = blocks.next().map_or(Fold::EMPTY, |ys| {
                    Fold::of(&self.clusters, c.children[0], ys)
                });
                if tree.nodes[cap + k] != fresh {
                    return Err(format!("cluster {} has a stale fold of block {}", id, k));
                }
            }
            for i in 1..cap {
                if tree.nodes[i] != tree.nodes[2 * i].merge(&tree.nodes[2 * i + 1]) {
                    return Err(format!("cluster {} has a stale fold-tree node {}", id, i));
                }
            }
        }
        for (id, c) in self.clusters.iter().enumerate() {
            if c.is_alive() && c.children.len() > B && !self.folds.contains_key(&narrow(id)) {
                return Err(format!(
                    "cluster {} has {} children but no fold tree",
                    id,
                    c.children.len()
                ));
            }
        }
        // 3. every connected component contracts to a single top cluster and
        //    membership is consistent
        for v in 0..n {
            for e in &self.clusters[v].neighbors {
                let u = e.other_end as usize;
                if self.top_cluster(u) != self.top_cluster(v) {
                    return Err(format!(
                        "endpoints of edge ({},{}) have different top clusters",
                        v, u
                    ));
                }
            }
        }
        // 4. cluster adjacency at every level matches the ground truth: an
        //    entry (my_end, other_end) exists at level ℓ iff the leaf edge
        //    exists and the two ancestors at level ℓ are distinct.
        for v in 0..n {
            let leaf_edges: Vec<(u32, u32)> = self.clusters[v]
                .neighbors
                .iter()
                .map(|e| (e.my_end, e.other_end))
                .collect();
            for (a, b) in leaf_edges {
                let mut ca = a;
                let mut cb = b;
                loop {
                    if ca == cb {
                        break;
                    }
                    if !self.clusters[ca]
                        .neighbors
                        .iter()
                        .any(|e| e.my_end == a && e.other_end == b && e.neighbor == cb)
                    {
                        return Err(format!(
                            "edge ({},{}) missing at level {} between clusters {} and {}",
                            a, b, self.clusters[ca].level, ca, cb
                        ));
                    }
                    let (pa, pb) = (self.parents[ca], self.parents[cb]);
                    if pa == NIL32 || pb == NIL32 {
                        if pa != pb {
                            return Err(format!(
                                "edge ({},{}): one chain ended before meeting",
                                a, b
                            ));
                        }
                        break;
                    }
                    ca = pa;
                    cb = pb;
                }
            }
            // no stale entries: every adjacency entry of every ancestor of v
            // must correspond to a real leaf edge with v's side inside it
        }
        for (id, cl) in self.clusters.iter().enumerate() {
            if !cl.is_alive() {
                continue;
            }
            for e in &cl.neighbors {
                // the recorded original edge must exist at the leaves
                if !self.clusters[e.my_end]
                    .neighbors
                    .iter()
                    .any(|l| l.other_end == e.other_end)
                {
                    return Err(format!(
                        "cluster {} has stale edge ({},{})",
                        id, e.my_end, e.other_end
                    ));
                }
                // my_end must be contained in this cluster, other_end in the neighbour
                if self.ancestor_at_level(e.my_end as usize, cl.level.into()) != Some(id) {
                    return Err(format!(
                        "cluster {} lists edge endpoint {} it does not contain",
                        id, e.my_end
                    ));
                }
                if self.ancestor_at_level(e.other_end as usize, cl.level.into())
                    != Some(e.neighbor as usize)
                {
                    return Err(format!(
                        "cluster {} neighbour pointer stale for edge ({},{})",
                        id, e.my_end, e.other_end
                    ));
                }
            }
        }
        Ok(())
    }

    /// The ancestor of leaf `v` at `level`, if the chain reaches it.  Leaves
    /// sit at level 0 and every parent one level up, so that ancestor is
    /// `level` steps up the parent array.
    pub fn ancestor_at_level(&self, v: Vertex, level: u32) -> Option<ClusterId> {
        let mut c = narrow(v);
        for _ in 0..level {
            c = self.parents[c];
            if c == NIL32 {
                return None;
            }
        }
        Some(c as usize)
    }

    /// The chain of ancestors of `v` from the leaf to the top, inclusive.
    pub fn ancestor_chain(&self, v: Vertex) -> Vec<ClusterId> {
        let mut out = vec![v];
        let mut c = narrow(v);
        while self.parents[c] != NIL32 {
            c = self.parents[c];
            out.push(c as usize);
        }
        out
    }
}

/// The mutators that exist only under the [`Extents`] policy.
impl<M: CommutativeMonoid> ContractionForest<M, Extents> {
    /// Marks or unmarks vertex `v` for nearest-marked-vertex queries,
    /// queueing the summary refresh.
    pub fn set_marked(&mut self, v: Vertex, m: bool) {
        self.marked[v] = m;
        self.mark_dirty(narrow(v));
    }

    /// Whether vertex `v` is marked.
    pub fn is_marked(&self, v: Vertex) -> bool {
        self.marked[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Pendant summaries read by [`Fold::of`] and fold-tree nodes
        /// re-merged by [`FoldTree::refresh`] on this thread.
        pub(super) static FOLD_READS: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
        /// Cluster summaries recomputed by [`ContractionForest::settle`]
        /// on this thread.
        pub(super) static SUMMARIES: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// Pendant adjacency lists searched by [`Fold::of`] on this thread.
        pub(super) static ADJ_READS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// [`ContractionForest::locate`] calls on this thread.
        pub(super) static LOCATES: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// Adjacency-only clusters [`ContractionForest::settle`] skipped
        /// without a recompute on this thread.
        pub(super) static ADJ_SKIPS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// (full, adjacency-only) refresh marks made on this thread.
        pub(super) static MARKS: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
        /// Roots pushed onto a `pending` bucket on this thread.
        pub(super) static PENDING_PUSHES: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// Distinct ids in the `pending` buckets `recluster` took on this
        /// thread.
        static PENDING_DISTINCT: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    /// Adds the distinct ids of a taken `pending` bucket to
    /// `PENDING_DISTINCT`.
    pub(super) fn count_distinct_roots(bucket: &[u32]) {
        let mut ids = bucket.to_vec();
        ids.sort_unstable();
        ids.dedup();
        PENDING_DISTINCT.with(|n| n.set(n.get() + ids.len()));
    }

    /// The narrowed adjacency entry must stay at 12 bytes — this is the
    /// memory contract behind the bytes-per-edge gate (DESIGN.md §12).
    #[test]
    fn adj_entry_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<AdjEntry>(), 12);
    }

    /// The `slot` back-pointer and the state bits live in the cluster's
    /// padding, the parent pointer in the dense array beside the slab, and
    /// the level in 16 bits.  The core summary is 104 bytes, so a core
    /// cluster is 160; the extent record adds 40.  A core pendant fold is 48
    /// bytes, an extent one 152.
    #[test]
    fn cluster_is_160_bytes_core_and_200_with_extents() {
        assert_eq!(std::mem::size_of::<Summary<SumMinMax>>(), 104);
        assert_eq!(std::mem::size_of::<Cluster<SumMinMax>>(), 160);
        assert_eq!(std::mem::size_of::<Cluster<SumMinMax, Extents>>(), 200);
        assert_eq!(std::mem::size_of::<Fold<SumMinMax, Core>>(), 48);
        assert_eq!(std::mem::size_of::<Fold<SumMinMax, Extents>>(), 152);
    }

    /// Slab ids stop one short of the `NIL32` sentinel in every build.
    #[test]
    fn slab_id_stops_short_of_the_sentinel() {
        assert_eq!(slab_id(0), 0);
        assert_eq!(slab_id(NIL32 as usize - 1), NIL32 - 1);
        let err = std::panic::catch_unwind(|| slab_id(NIL32 as usize)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("cluster slab exhausted"), "{msg}");
    }

    /// A 1 + `leaves`-vertex star under policy `X`, settled.
    fn star<X: Extent>(leaves: usize) -> ContractionForest<SumMinMax, X> {
        let mut f = ContractionForest::new(leaves + 1, Policy::Ufo);
        for v in 1..=leaves {
            assert!(f.link(0, v));
        }
        f.settle();
        f
    }

    /// One cut and one relink at a leaf of a 16 384-leaf star re-fold a
    /// bounded number of child records: the cut re-folds the vacated slot's
    /// block and the last block, the link the last block (at most `3·B`
    /// pendants), plus the fold-tree paths above those three blocks — never
    /// the whole fan-out.  The bound holds under both policies.
    #[test]
    fn hub_update_refolds_a_bounded_number_of_pendants() {
        hub_update_refolds_a_bounded_number_of_pendants_under::<Core>();
        hub_update_refolds_a_bounded_number_of_pendants_under::<Extents>();
    }

    fn hub_update_refolds_a_bounded_number_of_pendants_under<X: Extent>() {
        const LEAVES: usize = 16_384;
        let mut f = star::<X>(LEAVES);
        let star = f.top_cluster(0) as u32;
        assert_eq!(f.clusters[star].fanout(), LEAVES + 1);
        let depth = (LEAVES / B).ilog2() as usize;
        FOLD_READS.with(|n| n.set((0, 0)));
        assert!(f.cut(0, 777));
        assert!(f.link(777, 0));
        f.settle();
        let (pendants, nodes) = FOLD_READS.with(|n| n.get());
        assert!(
            pendants <= 3 * B,
            "one cut+link re-folded {pendants} pendants"
        );
        assert!(
            nodes <= 3 * depth,
            "one cut+link re-merged {nodes} tree nodes"
        );
        f.check_invariants().unwrap();
    }

    /// A small seeded LCG, so the tests below need no RNG dependency.
    fn lcg(state: &mut u64) -> usize {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 33) as usize
    }

    /// A seeded random recursive tree on `n` vertices, as `(parent, child)`
    /// edges.
    fn random_tree(n: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = seed;
        (1..n).map(|v| (lcg(&mut rng) % v, v)).collect()
    }

    /// Counts of one settle under policy `X`: summaries recomputed,
    /// (pendants, fold-tree nodes) re-folded, pendant adjacency lists
    /// searched, `locate` calls.
    fn settle_counts<X: Extent>(f: &mut ContractionForest<SumMinMax, X>) -> [usize; 5] {
        SUMMARIES.with(|n| n.set(0));
        FOLD_READS.with(|n| n.set((0, 0)));
        ADJ_READS.with(|n| n.set(0));
        LOCATES.with(|n| n.set(0));
        f.settle();
        let (pendants, nodes) = FOLD_READS.with(|n| n.get());
        let counts = [
            SUMMARIES.with(|n| n.get()),
            pendants,
            nodes,
            ADJ_READS.with(|n| n.get()),
            LOCATES.with(|n| n.get()),
        ];
        f.check_invariants().unwrap();
        counts
    }

    /// Settling a cut+link at a 4 096-leaf star recomputes the same
    /// summaries and re-folds the same pendants and fold-tree nodes under
    /// both policies, and the core fold reads no pendant adjacency.  On a
    /// random tree, whose hubs have two boundaries, the extent fold does
    /// read pendant adjacency and `locate` runs more often; the core fold
    /// still reads none.
    #[test]
    fn core_settle_reads_no_pendant_adjacency() {
        fn star_counts<X: Extent>() -> [usize; 5] {
            let mut f = star::<X>(4096);
            assert!(f.cut(0, 777));
            assert!(f.link(777, 0));
            settle_counts(&mut f)
        }
        let (core, ext) = (star_counts::<Core>(), star_counts::<Extents>());
        assert_eq!(core[..3], ext[..3], "summaries, pendants, fold-tree nodes");
        assert_eq!(core[3], 0, "the core fold read a pendant's adjacency");

        fn random_counts<X: Extent>() -> [usize; 5] {
            const N: usize = 4096;
            let edges = random_tree(N, 0xad1);
            let mut f = ContractionForest::<SumMinMax, X>::new(N, Policy::Ufo);
            for &(u, v) in &edges {
                assert!(f.link(u, v));
            }
            f.settle();
            for &(u, v) in edges.iter().step_by(97) {
                assert!(f.cut(u, v));
                assert!(f.link(v, u));
            }
            settle_counts(&mut f)
        }
        let (core, ext) = (random_counts::<Core>(), random_counts::<Extents>());
        assert_eq!(core[..3], ext[..3], "summaries, pendants, fold-tree nodes");
        assert_eq!(core[3], 0, "the core fold read a pendant's adjacency");
        assert!(ext[3] > 0, "the extent fold reads pendant adjacency");
        assert!(
            core[4] < ext[4],
            "core {} vs extent {} locates",
            core[4],
            ext[4]
        );
    }

    /// Updates only queue work, and the queues stay bounded however many
    /// updates run unsettled: 20 000 cut+link pairs at a 4 096-leaf star
    /// leave each fold tree's stale set at one bit per block and the dirty
    /// list within the live clusters.  One settle then restores every
    /// invariant, and a summary query on an unsettled forest panics.  The
    /// bounds hold under both policies.
    #[test]
    fn unsettled_updates_keep_queues_bounded() {
        unsettled_updates_keep_queues_bounded_under::<Core>();
        unsettled_updates_keep_queues_bounded_under::<Extents>();
    }

    fn unsettled_updates_keep_queues_bounded_under<X: Extent>() {
        const LEAVES: usize = 4096;
        let mut f = star::<X>(LEAVES);
        let mut rng = 0x5eed;
        for _ in 0..20_000 {
            let v = 1 + lcg(&mut rng) % LEAVES;
            assert!(f.cut(0, v));
            assert!(f.link(v, 0));
        }
        assert!(!f.folds.is_empty(), "the star keeps a fold tree");
        for tree in f.folds.values() {
            assert_eq!(tree.stale.len(), tree.cap().div_ceil(64));
        }
        assert!(!f.dirty.is_empty());
        assert!(f.dirty.len() <= f.live_clusters());
        // the refresh re-merges each fold-tree node above a stale block
        // once, however many updates staled blocks below it
        let merge_bound: usize = f.folds.values().map(|t| t.cap() - 1).sum();
        FOLD_READS.with(|n| n.set((0, 0)));
        f.settle();
        let (_, merged) = FOLD_READS.with(|n| n.get());
        assert!(
            merged <= merge_bound,
            "settling re-merged {merged} fold-tree nodes, at most {merge_bound} exist"
        );
        f.check_invariants().unwrap();
        assert_eq!(f.component_size(0), LEAVES as u64 + 1);

        assert!(f.cut(0, 1));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.component_size(0)))
            .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("unsettled"), "{msg}");
    }

    /// A batch settles once, so a cluster on the ancestor chains of several
    /// cut edges is recomputed once rather than once per cut: 256 cuts on a
    /// seeded 8 192-vertex random recursive tree recompute strictly fewer
    /// summaries as one `batch_cut` than settled one at a time, and at most
    /// 1 500.
    #[test]
    fn batch_cut_recomputes_fewer_summaries_than_single_cuts() {
        const N: usize = 8192;
        let mut rng = 0xba7c;
        let edges: Vec<(usize, usize)> = (1..N).map(|v| (lcg(&mut rng) % v, v)).collect();
        let mut batched: crate::UfoForest = crate::UfoForest::from_edges(N, &edges);
        let mut single = batched.clone();
        let mut cuts = edges.clone();
        for i in 0..256 {
            let j = i + lcg(&mut rng) % (cuts.len() - i);
            cuts.swap(i, j);
        }
        cuts.truncate(256);

        SUMMARIES.with(|n| n.set(0));
        assert_eq!(batched.batch_cut(&cuts), 256);
        let batch_count = SUMMARIES.with(|n| n.get());
        // a cluster whose inputs did not change is not recomputed: 2 899
        // before adjacency-only marks and the unchanged-summary cutoff
        assert!(batch_count <= 1500, "batch_cut recomputed {batch_count}");
        SUMMARIES.with(|n| n.set(0));
        for &(u, v) in &cuts {
            assert!(single.cut(u, v));
        }
        let single_count = SUMMARIES.with(|n| n.get());
        println!("summaries recomputed: batch_cut {batch_count}, single cuts {single_count}");
        assert!(
            batch_count < single_count,
            "batch {batch_count} vs single {single_count}"
        );
        batched.engine().check_invariants().unwrap();
        single.engine().check_invariants().unwrap();
    }

    /// Rewriting a vertex's weight with the value it has leaves its leaf
    /// summary unchanged, so settling recomputes that one summary and stops;
    /// a new weight still reaches every ancestor.
    #[test]
    fn rewriting_a_weight_recomputes_one_summary() {
        const N: usize = 4096;
        let mut f: ContractionForest = ContractionForest::new(N, Policy::Ufo);
        for (u, v) in random_tree(N, 0x3e1) {
            assert!(f.link(u, v));
        }
        for v in 0..N {
            f.set_weight(v, (v % 7) as i64);
        }
        f.settle();
        let v = (0..N).max_by_key(|&v| f.height(v)).unwrap();
        SUMMARIES.with(|n| n.set(0));
        f.set_weight(v, f.weight(v));
        f.settle();
        assert_eq!(SUMMARIES.with(|n| n.get()), 1);
        SUMMARIES.with(|n| n.set(0));
        f.set_weight(v, 100);
        f.settle();
        assert_eq!(SUMMARIES.with(|n| n.get()), f.height(v) + 1);
        f.check_invariants().unwrap();
    }

    /// A parent reads the weights of its children's boundary vertices
    /// directly.  Under a max monoid a weight change below a larger weight
    /// leaves a cluster that keeps the vertex as a boundary with an
    /// unchanged summary, while its parent's path through the vertex moves;
    /// `settle` must refresh that parent anyway.
    #[test]
    fn boundary_weight_changes_reach_the_parents_that_read_them() {
        use dyntree_primitives::algebra::I64Max;
        const N: usize = 512;
        let mut rng = 0x3a7;
        let mut f = ContractionForest::<I64Max>::new(N, Policy::Ufo);
        for v in 1..N {
            assert!(f.link(v - 1, v));
            f.set_weight(v, (lcg(&mut rng) % 100) as i64);
        }
        f.set_weight(0, 1_000);
        f.settle();
        for _ in 0..2_000 {
            for _ in 0..1 + lcg(&mut rng) % 3 {
                f.set_weight(1 + lcg(&mut rng) % (N - 1), (lcg(&mut rng) % 100) as i64);
            }
            f.settle();
            f.check_invariants().unwrap();
        }
    }

    /// Each root enters its level's pending bucket once: over settled
    /// random cut+link pairs on an 8 192-vertex random tree, the pushes
    /// equal the distinct ids the buckets held.  Prints the per-pair queue
    /// counts DESIGN.md §2 quotes.
    #[test]
    fn pending_buckets_hold_each_root_once() {
        const N: usize = 8192;
        const PAIRS: usize = 500;
        let edges = random_tree(N, 0x9e7d);
        let mut f: ContractionForest = ContractionForest::new(N, Policy::Ufo);
        for &(u, v) in &edges {
            assert!(f.link(u, v));
        }
        f.settle();
        let mut rng = 0x71;
        PENDING_PUSHES.with(|n| n.set(0));
        PENDING_DISTINCT.with(|n| n.set(0));
        MARKS.with(|n| n.set((0, 0)));
        SUMMARIES.with(|n| n.set(0));
        ADJ_SKIPS.with(|n| n.set(0));
        for _ in 0..PAIRS {
            let (u, v) = edges[lcg(&mut rng) % edges.len()];
            assert!(f.cut(u, v));
            assert!(f.link(v, u));
            f.settle();
        }
        let pushes = PENDING_PUSHES.with(|n| n.get());
        let distinct = PENDING_DISTINCT.with(|n| n.get());
        let (full, adjacency) = MARKS.with(|n| n.get());
        let per_pair = |x: usize| x as f64 / PAIRS as f64;
        println!(
            "per cut+link pair: {:.1} pending pushes, {:.1} full and {:.1} adjacency-only marks, \
             {:.1} summaries recomputed, {:.1} adjacency-only skips",
            per_pair(pushes),
            per_pair(full),
            per_pair(adjacency),
            per_pair(SUMMARIES.with(|n| n.get())),
            per_pair(ADJ_SKIPS.with(|n| n.get())),
        );
        assert_eq!(pushes, distinct);
        f.check_invariants().unwrap();
    }

    /// `memory_bytes` sizes the slab by the forest's own cluster layout:
    /// 200 bytes a slot under `Extents`, not the core 160.
    #[test]
    fn memory_bytes_counts_the_extent_slab() {
        let f = ContractionForest::<SumMinMax, Extents>::new(64, Policy::Ufo);
        assert!(f.memory_bytes() >= f.clusters.capacity() * 200);
    }

    /// Repeatedly linking and cutting the same edges must recycle dead
    /// cluster slots through the freelist instead of growing the slab without
    /// bound (regression test for slab reuse-after-free bookkeeping).
    #[test]
    fn cluster_freelist_recycles_slots() {
        let mut f: ContractionForest = ContractionForest::new(8, Policy::Ufo);
        for v in 0..7 {
            assert!(f.link(v, v + 1));
        }
        let after_build = f.clusters.len();
        for _ in 0..50 {
            assert!(f.cut(3, 4));
            assert!(f.link(3, 4));
            f.settle();
            f.check_invariants().unwrap();
        }
        // The slab may grow a little past the initial build (churn can retire
        // a few clusters before their slots hit the freelist), but it must
        // not grow linearly with the number of cut/link cycles.
        assert!(
            f.clusters.len() <= after_build + 16,
            "slab leaked: {} -> {}",
            after_build,
            f.clusters.len()
        );
        // Freed ids really are handed back out: a fresh link after a cut must
        // not allocate more than it freed.
        let before = f.clusters.len();
        assert!(f.cut(0, 1));
        assert!(f.link(0, 1));
        assert!(f.clusters.len() <= before + 2);
    }

    /// Dead slots on the freelist are never reachable through live links.
    #[test]
    fn freelist_slots_are_dead() {
        let mut f: ContractionForest = ContractionForest::new(16, Policy::Ufo);
        for v in 0..15 {
            f.link(v, v + 1);
        }
        for v in (1..15).step_by(3) {
            f.cut(v, v + 1);
        }
        f.settle();
        f.check_invariants().unwrap();
        for &id in f.free.iter() {
            assert!(!f.clusters[id].is_alive(), "freelist slot {id} is alive");
        }
        // And every live cluster's links point at live clusters only.
        for (c, &parent) in f.clusters.iter().zip(f.parents.iter()) {
            if !c.is_alive() {
                assert_eq!(parent, NIL32, "a dead slot has a parent");
                continue;
            }
            if parent != NIL32 {
                assert!(f.clusters[parent].is_alive());
            }
            for &ch in &c.children {
                assert!(f.clusters[ch].is_alive());
            }
        }
    }
}
