//! The Euler tour forest, generic over the sequence backend and the
//! aggregation monoid.

use dyntree_primitives::hash::FxHashMap;
use dyntree_primitives::ops::assert_id_space;

use dyntree_seqs::{ActionOf, Agg, CommutativeMonoid, DynSequence, Handle, SumMinMax};

/// Narrows a vertex id or sequence handle to its stored `u32` form (the
/// in-tree sequence backends allocate slab ids well below `u32::MAX`).
#[inline]
fn narrow(x: usize) -> u32 {
    debug_assert!(x < u32::MAX as usize, "index {x} exceeds u32 storage");
    x as u32
}

/// An Euler tour forest over vertices `0..n` with vertex weights drawn from
/// the commutative monoid `M` (default: the `i64` sum/min/max aggregate).
///
/// Each tree's Euler tour is stored as a sequence containing one *vertex
/// occurrence* node per vertex (carrying the vertex weight) and two *arc*
/// nodes per edge.  Supported operations: `link`, `cut`, `connected`,
/// `reroot`, component aggregates and subtree aggregates — all answered as
/// [`Agg<M>`].  Path aggregates are *not* an ETT primitive (the paper
/// stresses this); [`path_aggregate`](Self::path_aggregate) is an honest
/// `O(component)` walk over the explicit adjacency lists kept alongside the
/// tour, provided so every forest answers the full shared query surface.
///
/// The arc registry and the forest adjacency are one flat structure
/// (DESIGN.md §12): per vertex, a `(neighbour, arc handle)` array sorted by
/// neighbour id.  This replaces the historical trio of two `(u, v)`-keyed
/// hash maps plus per-vertex neighbour lists — same information, one
/// cache-contiguous array per vertex, binary-searched lookups, zero hashing.
#[derive(Clone, Debug)]
pub struct EulerTourForest<S: DynSequence<M>, M: CommutativeMonoid = SumMinMax> {
    seq: S,
    vertex_node: Vec<Handle>,
    /// Per vertex: `(neighbour, handle of the outgoing arc u→neighbour)`,
    /// sorted by neighbour id.  Doubles as the arc registry (`cut`,
    /// `subtree_aggregate`) and the path-fallback adjacency.
    nbrs: Vec<Vec<(u32, u32)>>,
    /// Live edge count (`nbrs` stores two entries per edge).
    edges: usize,
    /// Weights live in the sequence nodes, not here (see [`Self::weight`]);
    /// the monoid only parameterizes `seq`'s node payloads.
    _monoid: std::marker::PhantomData<M>,
}

impl<S: DynSequence<M>, M: CommutativeMonoid> EulerTourForest<S, M> {
    /// Creates a forest of `n` isolated vertices with default weight.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn new(n: usize) -> Self {
        assert_id_space(n);
        let mut seq = S::new();
        let vertex_node = (0..n)
            .map(|_| seq.make(M::Weight::default(), true))
            .collect();
        Self {
            seq,
            vertex_node,
            nbrs: vec![Vec::new(); n],
            edges: 0,
            _monoid: std::marker::PhantomData,
        }
    }

    /// Handle of the outgoing arc `u → v`, if the edge exists.
    fn arc(&self, u: usize, v: usize) -> Option<Handle> {
        let list = &self.nbrs[u];
        list.binary_search_by_key(&narrow(v), |&(n, _)| n)
            .ok()
            .map(|pos| list[pos].1 as usize)
    }

    fn adj_insert(&mut self, u: usize, v: usize, arc: Handle) {
        let (v, arc) = (narrow(v), narrow(arc));
        let pos = self.nbrs[u].partition_point(|&(n, _)| n < v);
        debug_assert!(self.nbrs[u].get(pos).map(|&(n, _)| n) != Some(v));
        self.nbrs[u].insert(pos, (v, arc));
    }

    fn adj_remove(&mut self, u: usize, v: usize) {
        let v = narrow(v);
        let pos = self.nbrs[u]
            .binary_search_by_key(&v, |&(n, _)| n)
            .expect("adjacency entry exists");
        self.nbrs[u].remove(pos);
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertex_node.len()
    }

    /// Appends isolated vertices (with default weight) until the forest has
    /// `n` of them.  Each new vertex becomes a singleton Euler tour; existing
    /// tours are untouched.  A smaller `n` is a no-op.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert_id_space(n);
        while self.vertex_node.len() < n {
            let h = self.seq.make(M::Weight::default(), true);
            self.vertex_node.push(h);
            self.nbrs.push(Vec::new());
        }
    }

    /// Whether the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_node.is_empty()
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Whether edge `(u, v)` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.arc(u, v).is_some()
    }

    /// Sets the weight of vertex `v`.
    pub fn set_weight(&mut self, v: usize, w: M::Weight) {
        self.seq.set_value(self.vertex_node[v], w);
    }

    /// Returns the weight of vertex `v`, read from its tour occurrence node.
    /// The sequence is the single source of truth — bulk actions applied via
    /// [`component_apply`](Self::component_apply) land there, so a separate
    /// weight mirror would silently diverge.
    pub fn weight(&self, v: usize) -> M::Weight {
        self.seq.value(self.vertex_node[v])
    }

    /// Applies `act` to every vertex of the component containing `v` and
    /// returns the number of vertices touched (≥ 1).  `O(1)` beyond finding
    /// the tour root: a single pending tag covers the whole tour, and arc
    /// (non-item) nodes are skipped by the sequence layer.
    pub fn component_apply(&mut self, v: usize, act: ActionOf<M>) -> u64 {
        let h = self.vertex_node[v];
        let count = self.seq.aggregate(h).count;
        self.seq.apply_seq(h, act);
        count
    }

    /// Re-roots the Euler tour of `v`'s tree so that it starts at `v`.
    pub fn reroot(&mut self, v: usize) {
        let h = self.vertex_node[v];
        let (left, right) = self.seq.split_before(h);
        if left.is_some() {
            self.seq.join(Some(right), left);
        }
    }

    /// Inserts edge `(u, v)`.  Returns `false` if it would create a cycle, if
    /// `u == v`, or if the edge already exists.
    pub fn link(&mut self, u: usize, v: usize) -> bool {
        if u == v || self.has_edge(u, v) || self.connected(u, v) {
            return false;
        }
        self.reroot(u);
        self.reroot(v);
        let uv = self.seq.make(M::Weight::default(), false);
        let vu = self.seq.make(M::Weight::default(), false);
        self.adj_insert(u, v, uv);
        self.adj_insert(v, u, vu);
        self.edges += 1;
        let tu = self.seq.root(self.vertex_node[u]);
        let tv = self.seq.root(self.vertex_node[v]);
        let t = self.seq.join(Some(tu), Some(uv));
        let t = self.seq.join(t, Some(tv));
        self.seq.join(t, Some(vu));
        true
    }

    /// Removes edge `(u, v)`.  Returns `false` if the edge is not present.
    pub fn cut(&mut self, u: usize, v: usize) -> bool {
        let (Some(a), Some(b)) = (self.arc(u, v), self.arc(v, u)) else {
            return false;
        };
        self.adj_remove(u, v);
        self.adj_remove(v, u);
        self.edges -= 1;
        let (first, second) = if self.seq.position(a) < self.seq.position(b) {
            (a, b)
        } else {
            (b, a)
        };
        // tour = A ++ [first] ++ inner ++ [second] ++ C
        let (prefix, _rest) = self.seq.split_before(first);
        let (_middle, suffix) = self.seq.split_after(second);
        let (_first_alone, inner_with_second) = self.seq.split_after(first);
        let inner_with_second =
            inner_with_second.expect("tour segment between arcs is never empty");
        let (_inner, _second_alone) = self.seq.split_before(second);
        let _ = inner_with_second;
        // One component keeps `inner` as its tour, the other is A ++ C.
        self.seq.join(prefix, suffix);
        self.seq.free(first);
        self.seq.free(second);
        true
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&mut self, u: usize, v: usize) -> bool {
        if u == v {
            return true;
        }
        self.seq.root(self.vertex_node[u]) == self.seq.root(self.vertex_node[v])
    }

    /// Aggregate over every vertex of the component containing `v`.
    pub fn component_aggregate(&mut self, v: usize) -> Agg<M> {
        self.seq.aggregate(self.vertex_node[v])
    }

    /// Number of vertices in the component containing `v`.
    pub fn component_size(&mut self, v: usize) -> usize {
        self.component_aggregate(v).count as usize
    }

    /// Aggregate over the subtree of `v` away from its neighbour `parent`,
    /// or `None` if `(v, parent)` is not an edge.
    pub fn subtree_aggregate(&mut self, v: usize, parent: usize) -> Option<Agg<M>> {
        if !self.has_edge(parent, v) {
            return None;
        }
        // Root the tour at `parent` so that arc (parent, v) precedes (v, parent);
        // the segment strictly between them is exactly v's subtree.
        self.reroot(parent);
        let a = self.arc(parent, v).expect("checked edge");
        let b = self.arc(v, parent).expect("checked edge");
        debug_assert!(self.seq.position(a) < self.seq.position(b));
        let (prefix, _rest) = self.seq.split_before(a);
        let (_middle, suffix) = self.seq.split_after(b);
        let (a_alone, _inner_part) = self.seq.split_after(a);
        let (inner, b_alone) = self.seq.split_before(b);
        let agg = inner
            .map(|i| self.seq.aggregate(i))
            .unwrap_or(Agg::IDENTITY);
        // stitch the tour back together: prefix ++ [a] ++ inner ++ [b] ++ suffix
        let t = self.seq.join(prefix, Some(a_alone));
        let t = self.seq.join(t, inner);
        let t = self.seq.join(t, Some(b_alone));
        self.seq.join(t, suffix);
        Some(agg)
    }

    /// Number of vertices in the subtree of `v` away from `parent`.
    pub fn subtree_size(&mut self, v: usize, parent: usize) -> Option<usize> {
        self.subtree_aggregate(v, parent).map(|a| a.count as usize)
    }

    /// Aggregate over the vertex weights on the `u`–`v` path (endpoints
    /// inclusive), or `None` if the vertices are disconnected.
    ///
    /// **Cost caveat:** Euler tours do not support path decomposition, so
    /// this is a BFS over the explicit forest adjacency — `O(k)` time and
    /// space for a component of `k` vertices, vs. the polylogarithmic path
    /// queries of UFO / link-cut trees.  Table 1's `weighted_aggregates`
    /// column records this asymmetry.
    pub fn path_aggregate(&mut self, u: usize, v: usize) -> Option<Agg<M>> {
        if u == v {
            return Some(Agg::vertex(self.weight(u)));
        }
        // predecessor map confined to the traversed component
        let mut pred: FxHashMap<usize, usize> = FxHashMap::default();
        pred.insert(u, u);
        let mut queue = std::collections::VecDeque::from([u]);
        'bfs: while let Some(x) = queue.pop_front() {
            for &(y, _) in &self.nbrs[x] {
                let y = y as usize;
                if let std::collections::hash_map::Entry::Vacant(e) = pred.entry(y) {
                    e.insert(x);
                    if y == v {
                        break 'bfs;
                    }
                    queue.push_back(y);
                }
            }
        }
        if !pred.contains_key(&v) {
            return None;
        }
        let mut agg = Agg::vertex(self.weight(v));
        let mut cur = v;
        while cur != u {
            cur = pred[&cur];
            agg = Agg::<M>::combine(agg, Agg::vertex(self.weight(cur))).cross_edge();
        }
        Some(agg)
    }

    /// Exact heap bytes owned by the structure (flat arrays throughout:
    /// every term is `capacity × entry size`).
    pub fn memory_bytes(&self) -> usize {
        let nbr_bytes: usize = self
            .nbrs
            .iter()
            .map(|a| a.capacity() * std::mem::size_of::<(u32, u32)>())
            .sum::<usize>()
            + self.nbrs.capacity() * std::mem::size_of::<Vec<(u32, u32)>>();
        self.seq.memory_bytes()
            + self.vertex_node.capacity() * std::mem::size_of::<Handle>()
            + nbr_bytes
    }
}

/// The historical `i64` convenience surface, preserved for the default
/// monoid.
impl<S: DynSequence<SumMinMax>> EulerTourForest<S, SumMinMax> {
    /// Sum of vertex weights in the component containing `v`.
    pub fn component_sum(&mut self, v: usize) -> i64 {
        self.component_aggregate(v).sum
    }

    /// Sum of vertex weights in the subtree of `v` away from its neighbour
    /// `parent`, or `None` if `(v, parent)` is not an edge.
    pub fn subtree_sum(&mut self, v: usize, parent: usize) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.sum)
    }

    /// Maximum vertex weight in the subtree of `v` away from `parent`.
    pub fn subtree_max(&mut self, v: usize, parent: usize) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.max)
    }

    /// Sum of vertex weights on the `u`–`v` path (see the cost caveat on
    /// [`path_aggregate`](Self::path_aggregate)).
    pub fn path_sum(&mut self, u: usize, v: usize) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyntree_seqs::{SplaySequence, TreapSequence};

    fn basic_ops<S: DynSequence>() {
        let mut f = EulerTourForest::<S>::new(8);
        assert!(f.link(0, 1));
        assert!(f.link(1, 2));
        assert!(f.link(2, 3));
        assert!(f.link(5, 6));
        assert!(!f.link(0, 3), "cycle rejected");
        assert!(!f.link(0, 0), "self loop rejected");
        assert!(f.connected(0, 3));
        assert!(!f.connected(0, 5));
        assert_eq!(f.component_size(0), 4);
        assert_eq!(f.component_size(5), 2);
        assert_eq!(f.component_size(7), 1);
        assert!(f.cut(1, 2));
        assert!(!f.connected(0, 3));
        assert!(f.connected(2, 3));
        assert_eq!(f.component_size(0), 2);
        assert_eq!(f.component_size(3), 2);
        assert!(!f.cut(1, 2), "double cut rejected");
        assert_eq!(f.num_edges(), 3);
    }

    fn subtree_queries<S: DynSequence>() {
        let mut f = EulerTourForest::<S>::new(7);
        // 0 - 1, 1 - 2, 1 - 3, 0 - 4, 4 - 5; weights = vertex id
        for v in 0..7 {
            f.set_weight(v, v as i64);
        }
        for (u, v) in [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)] {
            assert!(f.link(u, v));
        }
        assert_eq!(f.subtree_sum(1, 0), Some(1 + 2 + 3));
        assert_eq!(f.subtree_size(1, 0), Some(3));
        assert_eq!(f.subtree_sum(0, 1), Some(4 + 5));
        assert_eq!(f.subtree_sum(4, 0), Some(9));
        assert_eq!(f.subtree_max(0, 1), Some(5));
        assert_eq!(f.subtree_sum(2, 0), None, "(2, 0) is not an edge");
        // after the query the structure still works
        assert!(f.connected(2, 5));
        assert!(f.cut(0, 1));
        assert_eq!(f.subtree_sum(4, 0), Some(9));
        assert!(!f.connected(2, 5));
    }

    fn weights_update<S: DynSequence>() {
        let mut f = EulerTourForest::<S>::new(4);
        f.link(0, 1);
        f.link(1, 2);
        f.link(2, 3);
        f.set_weight(2, 10);
        assert_eq!(f.component_sum(0), 10);
        assert_eq!(f.subtree_sum(2, 1), Some(10));
        f.set_weight(3, -4);
        assert_eq!(f.subtree_sum(2, 1), Some(6));
        assert_eq!(f.weight(3), -4);
    }

    fn path_fallback<S: DynSequence>() {
        let mut f = EulerTourForest::<S>::new(7);
        for v in 0..7 {
            f.set_weight(v, 10 * v as i64);
        }
        // path 0-1-2-3 plus a branch 1-4-5, isolated 6
        for (u, v) in [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)] {
            assert!(f.link(u, v));
        }
        let a = f.path_aggregate(0, 3).unwrap();
        assert_eq!(a.sum, 10 + 20 + 30);
        assert_eq!(a.edges, 3);
        assert_eq!(a.count, 4);
        let b = f.path_aggregate(3, 5).unwrap();
        assert_eq!(b.sum, 30 + 20 + 10 + 40 + 50);
        assert_eq!(b.max, 50);
        assert_eq!(f.path_sum(2, 2), Some(20));
        assert!(f.path_aggregate(0, 6).is_none(), "disconnected");
        // the walk must not disturb the tour
        assert!(f.cut(1, 2));
        assert!(f.path_aggregate(0, 3).is_none());
        assert_eq!(f.path_sum(0, 4), Some(10 + 40));
    }

    #[test]
    fn treap_basic() {
        basic_ops::<TreapSequence>();
    }

    #[test]
    fn splay_basic() {
        basic_ops::<SplaySequence>();
    }

    #[test]
    fn treap_subtree() {
        subtree_queries::<TreapSequence>();
    }

    #[test]
    fn splay_subtree() {
        subtree_queries::<SplaySequence>();
    }

    #[test]
    fn treap_weights() {
        weights_update::<TreapSequence>();
    }

    #[test]
    fn splay_weights() {
        weights_update::<SplaySequence>();
    }

    #[test]
    fn treap_path_fallback() {
        path_fallback::<TreapSequence>();
    }

    #[test]
    fn splay_path_fallback() {
        path_fallback::<SplaySequence>();
    }

    fn star_teardown_keeps_adjacency_consistent<S: DynSequence>() {
        // hub with many leaves: every cut must find and remove the hub's
        // adjacency entry by binary search on the sorted neighbour array,
        // and the path fallback must stay correct as entries shift
        let n = 64;
        let mut f = EulerTourForest::<S>::new(n);
        for v in 1..n {
            f.set_weight(v, v as i64);
            assert!(f.link(0, v));
        }
        assert_eq!(f.path_sum(5, 9), Some(5 + 9));
        for v in (1..n).step_by(2) {
            assert!(f.cut(0, v));
        }
        for v in (2..n).step_by(2) {
            assert!(f.connected(0, v));
            assert_eq!(f.path_sum(v, 0), Some(v as i64));
        }
        assert_eq!(f.path_sum(4, 6), Some(4 + 6));
        assert!(f.path_aggregate(0, 1).is_none(), "odd leaves detached");
        assert_eq!(f.num_edges(), (n - 1) / 2);
    }

    fn component_apply_shifts_one_component<S: DynSequence>() {
        use dyntree_primitives::algebra::AddConst;
        let mut f = EulerTourForest::<S>::new(8);
        for v in 0..8 {
            f.set_weight(v, v as i64);
        }
        // components {0,1,2,3}, {4,5}, {6}, {7}
        for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            assert!(f.link(u, v));
        }
        assert_eq!(f.component_apply(2, AddConst(100)), 4);
        assert_eq!(f.component_sum(0), 100 + 101 + 102 + 103);
        assert_eq!(f.component_sum(4), 4 + 5, "other components untouched");
        assert_eq!(f.weight(1), 101, "weight reads through the tour");
        assert_eq!(f.weight(4), 4);
        // the singleton case: the tag lands on a lone occurrence node
        assert_eq!(f.component_apply(6, AddConst(-6)), 1);
        assert_eq!(f.weight(6), 0);
        // arc (non-item) nodes stay identity: cut after a bulk apply and
        // re-check both halves against the eager expectation
        assert!(f.cut(1, 2));
        assert_eq!(f.component_sum(0), 100 + 101);
        assert_eq!(f.component_sum(3), 102 + 103);
        assert_eq!(f.subtree_sum(1, 0), Some(101));
        // path fallback reads acted weights
        assert_eq!(f.path_sum(2, 3), Some(102 + 103));
    }

    #[test]
    fn treap_component_apply() {
        component_apply_shifts_one_component::<TreapSequence>();
    }

    #[test]
    fn splay_component_apply() {
        component_apply_shifts_one_component::<SplaySequence>();
    }

    #[test]
    fn treap_star_teardown() {
        star_teardown_keeps_adjacency_consistent::<TreapSequence>();
    }

    #[test]
    fn splay_star_teardown() {
        star_teardown_keeps_adjacency_consistent::<SplaySequence>();
    }

    #[test]
    fn memory_is_accounted() {
        let f = EulerTourForest::<TreapSequence>::new(100);
        assert!(f.memory_bytes() > 100 * 8);
        assert_eq!(f.len(), 100);
        assert!(!f.is_empty());
    }
}
