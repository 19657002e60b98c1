//! A deliberately simple, obviously-correct dynamic forest.
//!
//! Every operation runs in `O(n)` time by walking adjacency lists, which makes
//! this crate useless as a data structure but invaluable as a *differential
//! testing oracle*: every query that the UFO tree, link-cut tree, Euler tour
//! tree, topology tree and rake-compress tree crates answer is also answered
//! here, and the property tests assert they agree on random operation
//! sequences.  Like the real structures, the oracle is generic over the
//! [`CommutativeMonoid`] its weights aggregate under and answers path /
//! subtree / component queries as [`Agg<M>`], folding with the same
//! (saturating) `combine` the structures use.

use std::collections::{HashSet, VecDeque};

use dyntree_primitives::algebra::{Action, ActionOf, Agg, CommutativeMonoid, SumMinMax};
use dyntree_primitives::ops::assert_id_space;

/// A vertex identifier.
pub type Vertex = usize;

/// Reference dynamic forest over `n` vertices with monoid vertex weights
/// (default: `i64` sum/min/max) and unit edge lengths.
#[derive(Clone, Debug)]
pub struct NaiveForest<M: CommutativeMonoid = SumMinMax> {
    adj: Vec<Vec<Vertex>>,
    weight: Vec<M::Weight>,
    marked: Vec<bool>,
}

impl<M: CommutativeMonoid> NaiveForest<M> {
    /// Creates a forest of `n` isolated vertices with default weight.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn new(n: usize) -> Self {
        assert_id_space(n);
        Self {
            adj: vec![Vec::new(); n],
            weight: vec![M::Weight::default(); n],
            marked: vec![false; n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Appends isolated vertices (with default weight, unmarked) until the
    /// forest has `n` of them.  Shrinking is not supported; a smaller `n` is
    /// a no-op.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert_id_space(n);
        if n > self.adj.len() {
            self.adj.resize_with(n, Vec::new);
            self.weight.resize(n, M::Weight::default());
            self.marked.resize(n, false);
        }
    }

    /// Whether the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Current degree of `v`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v].len()
    }

    /// Sets the weight of vertex `v`.
    pub fn set_weight(&mut self, v: Vertex, w: M::Weight) {
        self.weight[v] = w;
    }

    /// Returns the weight of vertex `v`.
    pub fn weight(&self, v: Vertex) -> M::Weight {
        self.weight[v]
    }

    /// Marks or unmarks vertex `v` (for nearest-marked-vertex queries).
    pub fn set_marked(&mut self, v: Vertex, marked: bool) {
        self.marked[v] = marked;
    }

    /// Whether the edge `(u, v)` is present.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.adj[u].contains(&v)
    }

    /// Inserts edge `(u, v)`.  Returns `false` (and does nothing) if the edge
    /// already exists or if it would create a cycle.
    pub fn link(&mut self, u: Vertex, v: Vertex) -> bool {
        if u == v || self.has_edge(u, v) || self.connected(u, v) {
            return false;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        true
    }

    /// Removes edge `(u, v)`.  Returns `false` if it was not present.
    pub fn cut(&mut self, u: Vertex, v: Vertex) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        self.adj[u].retain(|&x| x != v);
        self.adj[v].retain(|&x| x != u);
        true
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return true;
        }
        self.bfs_path(u, v).is_some()
    }

    /// The unique path from `u` to `v`, inclusive, or `None` if disconnected.
    pub fn path(&self, u: Vertex, v: Vertex) -> Option<Vec<Vertex>> {
        self.bfs_path(u, v)
    }

    /// Monoid aggregate over the vertex weights along the `u`–`v` path
    /// (inclusive), or `None` if disconnected.
    pub fn path_aggregate(&self, u: Vertex, v: Vertex) -> Option<Agg<M>> {
        self.path(u, v).map(|p| {
            let mut agg = Agg::<M>::IDENTITY;
            for (i, &x) in p.iter().enumerate() {
                agg = Agg::combine(agg, Agg::vertex(self.weight[x]));
                if i > 0 {
                    agg = agg.cross_edge();
                }
            }
            agg
        })
    }

    /// Number of edges on the `u`–`v` path.
    pub fn path_length(&self, u: Vertex, v: Vertex) -> Option<usize> {
        self.path(u, v).map(|p| p.len() - 1)
    }

    /// All vertices in the component of `v` when the edge `(v, parent)` is
    /// removed, i.e. the subtree of `v` rooted away from `parent`.
    /// Requires `(v, parent)` to be an edge.
    pub fn subtree_vertices(&self, v: Vertex, parent: Vertex) -> Option<Vec<Vertex>> {
        if !self.has_edge(v, parent) {
            return None;
        }
        let mut seen = HashSet::new();
        seen.insert(parent);
        seen.insert(v);
        let mut out = vec![v];
        let mut queue = VecDeque::from([v]);
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if seen.insert(y) {
                    out.push(y);
                    queue.push_back(y);
                }
            }
        }
        Some(out)
    }

    /// Monoid aggregate over the subtree of `v` away from `parent`.
    pub fn subtree_aggregate(&self, v: Vertex, parent: Vertex) -> Option<Agg<M>> {
        self.subtree_vertices(v, parent).map(|s| self.fold(&s))
    }

    /// Number of vertices in the subtree of `v` away from `parent`.
    pub fn subtree_size(&self, v: Vertex, parent: Vertex) -> Option<usize> {
        self.subtree_vertices(v, parent).map(|s| s.len())
    }

    /// All vertices in the same component as `v`.
    pub fn component(&self, v: Vertex) -> Vec<Vertex> {
        let mut seen = HashSet::new();
        seen.insert(v);
        let mut out = vec![v];
        let mut queue = VecDeque::from([v]);
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if seen.insert(y) {
                    out.push(y);
                    queue.push_back(y);
                }
            }
        }
        out
    }

    /// Writes one representative id per vertex into `out` — the minimum
    /// vertex id of its component — so two entries are equal iff the
    /// vertices are connected.  One BFS sweep over the whole forest,
    /// `O(n + m)`; the connectivity engine's snapshot builder uses this as
    /// the oracle-side labels dump.
    pub fn component_labels(&self, out: &mut Vec<Vertex>) {
        out.clear();
        out.resize(self.adj.len(), usize::MAX);
        let mut queue = VecDeque::new();
        for start in 0..self.adj.len() {
            if out[start] != usize::MAX {
                continue;
            }
            out[start] = start;
            queue.push_back(start);
            while let Some(x) = queue.pop_front() {
                for &y in &self.adj[x] {
                    if out[y] == usize::MAX {
                        out[y] = start;
                        queue.push_back(y);
                    }
                }
            }
        }
    }

    /// Monoid aggregate over the whole component containing `v`.
    pub fn component_aggregate(&self, v: Vertex) -> Agg<M> {
        self.fold(&self.component(v))
    }

    /// Applies `act` to every vertex weight on the `u`–`v` path (inclusive;
    /// `u == v` touches exactly one vertex).  Returns the number of vertices
    /// updated, or `None` if `u` and `v` are disconnected.
    pub fn path_apply(&mut self, u: Vertex, v: Vertex, act: ActionOf<M>) -> Option<u64> {
        let path = self.path(u, v)?;
        for &x in &path {
            self.weight[x] = act.act_weight(self.weight[x]);
        }
        Some(path.len() as u64)
    }

    /// Applies `act` to every vertex weight in the component of `v` and
    /// returns the number of vertices updated (at least 1: `v` itself).
    pub fn component_apply(&mut self, v: Vertex, act: ActionOf<M>) -> u64 {
        let comp = self.component(v);
        for &x in &comp {
            self.weight[x] = act.act_weight(self.weight[x]);
        }
        comp.len() as u64
    }

    /// Applies `act` to every vertex weight in the subtree of `v` away from
    /// `parent`.  Returns the number of vertices updated, or `None` if
    /// `(v, parent)` is not an edge.
    pub fn subtree_apply(&mut self, v: Vertex, parent: Vertex, act: ActionOf<M>) -> Option<u64> {
        let sub = self.subtree_vertices(v, parent)?;
        for &x in &sub {
            self.weight[x] = act.act_weight(self.weight[x]);
        }
        Some(sub.len() as u64)
    }

    /// Size of the component containing `v`.
    pub fn component_size(&self, v: Vertex) -> usize {
        self.component(v).len()
    }

    /// Diameter (in edges) of the component containing `v`.
    pub fn component_diameter(&self, v: Vertex) -> usize {
        let (far, _) = self.farthest_from(v);
        let (_, d) = self.farthest_from(far);
        d
    }

    /// Distance (in edges) from `v` to the nearest marked vertex in its
    /// component, or `None` if no marked vertex is reachable.
    pub fn nearest_marked_distance(&self, v: Vertex) -> Option<usize> {
        let mut seen = HashSet::new();
        seen.insert(v);
        let mut queue = VecDeque::from([(v, 0usize)]);
        while let Some((x, d)) = queue.pop_front() {
            if self.marked[x] {
                return Some(d);
            }
            for &y in &self.adj[x] {
                if seen.insert(y) {
                    queue.push_back((y, d + 1));
                }
            }
        }
        None
    }

    /// Lowest common ancestor of `u` and `v` when the tree is rooted at `r`.
    pub fn lca(&self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        let pu = self.path(r, u)?;
        let pv = self.path(r, v)?;
        let set: HashSet<Vertex> = pv.into_iter().collect();
        pu.into_iter().rev().find(|x| set.contains(x))
    }

    /// Total number of edges currently in the forest.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    fn fold(&self, vertices: &[Vertex]) -> Agg<M> {
        vertices.iter().fold(Agg::IDENTITY, |acc, &x| {
            Agg::combine(acc, Agg::vertex(self.weight[x]))
        })
    }

    fn bfs_path(&self, u: Vertex, v: Vertex) -> Option<Vec<Vertex>> {
        if u == v {
            return Some(vec![u]);
        }
        let mut pred = vec![usize::MAX; self.adj.len()];
        pred[u] = u;
        let mut queue = VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if pred[y] == usize::MAX {
                    pred[y] = x;
                    if y == v {
                        let mut path = vec![v];
                        let mut cur = v;
                        while cur != u {
                            cur = pred[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(y);
                }
            }
        }
        None
    }

    fn farthest_from(&self, v: Vertex) -> (Vertex, usize) {
        let mut seen = HashSet::new();
        seen.insert(v);
        let mut queue = VecDeque::from([(v, 0usize)]);
        let mut best = (v, 0);
        while let Some((x, d)) = queue.pop_front() {
            if d > best.1 {
                best = (x, d);
            }
            for &y in &self.adj[x] {
                if seen.insert(y) {
                    queue.push_back((y, d + 1));
                }
            }
        }
        best
    }
}

/// The historical `i64` convenience surface, preserved for the default
/// monoid.  These fold through [`Agg`], so they saturate exactly where the
/// real structures saturate.
impl NaiveForest<SumMinMax> {
    /// Sum of vertex weights along the `u`–`v` path (inclusive).
    pub fn path_sum(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.sum)
    }

    /// Maximum vertex weight along the `u`–`v` path (inclusive).
    pub fn path_max(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.max)
    }

    /// Minimum vertex weight along the `u`–`v` path (inclusive).
    pub fn path_min(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.min)
    }

    /// Sum of vertex weights in the subtree of `v` away from `parent`.
    pub fn subtree_sum(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.sum)
    }

    /// Maximum vertex weight in the subtree of `v` away from `parent`.
    pub fn subtree_max(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_forest(n: usize) -> NaiveForest {
        let mut f = NaiveForest::new(n);
        for i in 0..n - 1 {
            assert!(f.link(i, i + 1));
        }
        f
    }

    #[test]
    fn link_cut_connectivity() {
        let mut f: NaiveForest = NaiveForest::new(5);
        assert!(f.link(0, 1));
        assert!(f.link(1, 2));
        assert!(!f.link(0, 2), "cycle rejected");
        assert!(f.connected(0, 2));
        assert!(!f.connected(0, 4));
        assert!(f.cut(1, 2));
        assert!(!f.connected(0, 2));
        assert!(!f.cut(1, 2), "double cut rejected");
    }

    #[test]
    fn path_queries() {
        let mut f = path_forest(6);
        for v in 0..6 {
            f.set_weight(v, (v as i64) * 10);
        }
        assert_eq!(f.path_sum(1, 4), Some(10 + 20 + 30 + 40));
        assert_eq!(f.path_max(0, 5), Some(50));
        assert_eq!(f.path_min(2, 5), Some(20));
        assert_eq!(f.path_length(0, 5), Some(5));
        assert_eq!(f.path_sum(3, 3), Some(30));
        let agg = f.path_aggregate(1, 4).unwrap();
        assert_eq!(agg.edges, 3);
        assert_eq!(agg.count, 4);
    }

    #[test]
    fn subtree_queries() {
        // star centred at 0 with leaves 1..=4
        let mut f: NaiveForest = NaiveForest::new(5);
        for v in 1..5 {
            f.link(0, v);
            f.set_weight(v, v as i64);
        }
        f.set_weight(0, 100);
        assert_eq!(f.subtree_sum(1, 0), Some(1));
        assert_eq!(f.subtree_sum(0, 1), Some(100 + 2 + 3 + 4));
        assert_eq!(f.subtree_size(0, 1), Some(4));
        assert_eq!(f.subtree_max(0, 2), Some(100));
        assert_eq!(f.subtree_sum(1, 3), None, "not an edge");
        assert_eq!(f.component_aggregate(2).sum, 100 + 1 + 2 + 3 + 4);
    }

    #[test]
    fn diameter_and_marked() {
        let mut f = path_forest(7);
        assert_eq!(f.component_diameter(3), 6);
        assert_eq!(f.nearest_marked_distance(0), None);
        f.set_marked(5, true);
        assert_eq!(f.nearest_marked_distance(0), Some(5));
        assert_eq!(f.nearest_marked_distance(5), Some(0));
    }

    #[test]
    fn lca_queries() {
        // rooted at 0: 0-1, 1-2, 1-3, 0-4
        let mut f: NaiveForest = NaiveForest::new(5);
        f.link(0, 1);
        f.link(1, 2);
        f.link(1, 3);
        f.link(0, 4);
        assert_eq!(f.lca(2, 3, 0), Some(1));
        assert_eq!(f.lca(2, 4, 0), Some(0));
        assert_eq!(f.lca(2, 1, 0), Some(1));
    }

    #[test]
    fn components() {
        let mut f: NaiveForest = NaiveForest::new(6);
        f.link(0, 1);
        f.link(2, 3);
        f.link(3, 4);
        assert_eq!(f.component_size(0), 2);
        assert_eq!(f.component_size(3), 3);
        assert_eq!(f.component_size(5), 1);
        assert_eq!(f.num_edges(), 3);
    }

    #[test]
    fn bulk_applies_touch_exactly_the_target_set() {
        use dyntree_primitives::algebra::AddConst;
        // path 0-1-2-3-4-5 plus an isolated pair 6-7
        let mut f: NaiveForest = NaiveForest::new(8);
        for i in 0..5 {
            f.link(i, i + 1);
        }
        f.link(6, 7);
        for v in 0..8 {
            f.set_weight(v, v as i64);
        }
        assert_eq!(f.path_apply(1, 3, AddConst(100)), Some(3));
        assert_eq!(f.weight(0), 0);
        assert_eq!(f.weight(1), 101);
        assert_eq!(f.weight(2), 102);
        assert_eq!(f.weight(3), 103);
        assert_eq!(f.weight(4), 4);
        assert_eq!(f.path_apply(2, 2, AddConst(1)), Some(1), "single vertex");
        assert_eq!(f.weight(2), 103);
        assert_eq!(f.path_apply(0, 6, AddConst(5)), None, "disconnected");
        assert_eq!(f.component_apply(7, AddConst(-10)), 2);
        assert_eq!(f.weight(6), -4);
        assert_eq!(f.weight(7), -3);
        assert_eq!(f.subtree_apply(3, 2, AddConst(1000)), Some(3));
        assert_eq!(f.weight(3), 1103);
        assert_eq!(f.weight(4), 1004);
        assert_eq!(f.weight(5), 1005);
        assert_eq!(f.weight(2), 103, "parent side untouched");
        assert_eq!(f.subtree_apply(0, 5, AddConst(1)), None, "not an edge");
    }

    #[test]
    fn generic_monoid_oracle() {
        use dyntree_primitives::algebra::{MaxEdge, WeightedId};
        let mut f: NaiveForest<MaxEdge> = NaiveForest::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            f.link(u, v);
        }
        f.set_weight(1, WeightedId { weight: 9, id: 1 });
        f.set_weight(2, WeightedId { weight: 4, id: 2 });
        let a = f.path_aggregate(0, 3).unwrap();
        assert_eq!(a.value, WeightedId { weight: 9, id: 1 });
        let b = f.path_aggregate(2, 3).unwrap();
        assert_eq!(b.value, WeightedId { weight: 4, id: 2 });
    }
}
