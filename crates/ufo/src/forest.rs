//! The public forest types: [`UfoForest`] (the paper's contribution) and
//! [`TopologyForest`] (topology trees behind dynamic ternarization).

use dyntree_primitives::algebra::SumMinMax;
use dyntree_ternary::{Ternarizer, UnderlyingOp};

use crate::engine::{ContractionForest, Policy};
use crate::summary::{Agg, CommutativeMonoid, Core, Extent, Extents};
use crate::Vertex;

/// A UFO tree forest over vertices `0..n`, generic over the vertex weight
/// monoid (default: `i64` sum/min/max) and the [`Extent`] policy.
///
/// Thin façade over [`ContractionForest`] with the UFO merge policy; see the
/// crate documentation for the supported operations.  Every mutator settles
/// the engine before it returns (a batch settles once), so the summary
/// queries are always available here.  Callers that want to defer the
/// refresh across several updates drive [`engine_mut`](Self::engine_mut)
/// and call [`ContractionForest::settle`] before reading a summary.
///
/// The default policy, [`Core`], keeps what connectivity, path and subtree
/// queries read.  The diameter and nearest-marked queries
/// ([`component_diameter`](UfoForest::component_diameter),
/// [`nearest_marked_distance`](UfoForest::nearest_marked_distance) and
/// [`set_marked`](UfoForest::set_marked)) need the [`Extents`] policy,
/// named as the second parameter: `UfoForest<SumMinMax, Extents>`.  Each
/// refresh then also folds eccentricities, diameters and nearest-marked
/// distances, and every cluster is 40 bytes larger (DESIGN.md §2).
#[derive(Clone, Debug)]
pub struct UfoForest<M: CommutativeMonoid = SumMinMax, X: Extent = Core> {
    inner: ContractionForest<M, X>,
}

impl<M: CommutativeMonoid, X: Extent> UfoForest<M, X> {
    /// Creates a forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            inner: ContractionForest::new(n, Policy::Ufo),
        }
    }

    /// Builds a forest from an edge list (edges that would create cycles are
    /// skipped).
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut f = Self::new(n);
        for &(u, v) in edges {
            f.inner.link(u, v);
        }
        f.inner.settle();
        f
    }

    /// Access to the underlying contraction engine (for advanced queries and
    /// instrumentation).
    pub fn engine(&self) -> &ContractionForest<M, X> {
        &self.inner
    }

    /// Mutable access to the underlying contraction engine.
    pub fn engine_mut(&mut self) -> &mut ContractionForest<M, X> {
        &mut self.inner
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Appends isolated vertices until the forest has `n` of them.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.inner.ensure_vertices(n);
        self.inner.settle();
    }

    /// Whether the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    /// Inserts edge `(u, v)`; returns `false` for self loops, duplicates and
    /// cycle-creating edges.
    pub fn link(&mut self, u: Vertex, v: Vertex) -> bool {
        let linked = self.inner.link(u, v);
        self.inner.settle();
        linked
    }

    /// Removes edge `(u, v)`; returns `false` if not present.
    pub fn cut(&mut self, u: Vertex, v: Vertex) -> bool {
        let cut = self.inner.cut(u, v);
        self.inner.settle();
        cut
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        self.inner.connected(u, v)
    }

    /// Whether edge `(u, v)` is present.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.inner.has_edge(u, v)
    }

    /// Sets the weight of vertex `v`.
    pub fn set_weight(&mut self, v: Vertex, w: M::Weight) {
        self.inner.set_weight(v, w);
        self.inner.settle();
    }

    /// Returns the weight of vertex `v`.
    pub fn weight(&self, v: Vertex) -> M::Weight {
        self.inner.weight(v)
    }

    /// Monoid aggregate over the vertex weights on the `u`–`v` path.
    pub fn path_aggregate(&self, u: Vertex, v: Vertex) -> Option<Agg<M>> {
        self.inner.path_aggregate(u, v)
    }

    /// Number of edges on the `u`–`v` path.
    pub fn path_length(&self, u: Vertex, v: Vertex) -> Option<u64> {
        self.inner.path_length(u, v)
    }

    /// Monoid aggregate over the subtree of `v` away from its neighbour
    /// `parent`.
    pub fn subtree_aggregate(&self, v: Vertex, parent: Vertex) -> Option<Agg<M>> {
        self.inner.subtree_aggregate(v, parent)
    }

    /// Number of vertices in the subtree of `v` away from `parent`.
    pub fn subtree_size(&self, v: Vertex, parent: Vertex) -> Option<u64> {
        self.inner.subtree_size(v, parent)
    }

    /// Monoid aggregate over the whole component containing `v`.
    pub fn component_aggregate(&self, v: Vertex) -> Agg<M> {
        self.inner.component_aggregate(v)
    }

    /// Number of vertices in the component containing `v`.
    pub fn component_size(&self, v: Vertex) -> u64 {
        self.inner.component_size(v)
    }

    /// Exact heap bytes owned by the structure.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// The queries that exist only under the [`Extents`] policy.
impl<M: CommutativeMonoid> UfoForest<M, Extents> {
    /// Marks or unmarks `v` for nearest-marked-vertex queries.
    pub fn set_marked(&mut self, v: Vertex, m: bool) {
        self.inner.set_marked(v, m);
        self.inner.settle();
    }

    /// Diameter, in edges, of the component containing `v`.
    pub fn component_diameter(&self, v: Vertex) -> u64 {
        self.inner.component_diameter(v)
    }

    /// Distance from `v` to the nearest marked vertex in its component.
    pub fn nearest_marked_distance(&self, v: Vertex) -> Option<u64> {
        self.inner.nearest_marked_distance(v)
    }
}

/// The historical `i64` convenience surface, preserved for the default
/// monoid.
impl<X: Extent> UfoForest<SumMinMax, X> {
    /// Sum of vertex weights on the `u`–`v` path.
    pub fn path_sum(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.inner.path_sum(u, v)
    }

    /// Maximum vertex weight on the `u`–`v` path.
    pub fn path_max(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.inner.path_max(u, v)
    }

    /// Minimum vertex weight on the `u`–`v` path.
    pub fn path_min(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.inner.path_min(u, v)
    }

    /// Sum of vertex weights in the subtree of `v` away from `parent`.
    pub fn subtree_sum(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.inner.subtree_sum(v, parent)
    }

    /// Maximum vertex weight in the subtree of `v` away from `parent`.
    pub fn subtree_max(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.inner.subtree_max(v, parent)
    }

    /// Minimum vertex weight in the subtree of `v` away from `parent`.
    pub fn subtree_min(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.inner.subtree_min(v, parent)
    }
}

/// Topology trees over arbitrary-degree inputs: the contraction engine with
/// the topology policy, wrapped in dynamic ternarization exactly as the paper
/// does for its topology-tree and RC-tree baselines.
#[derive(Clone, Debug)]
pub struct TopologyForest<M: CommutativeMonoid = SumMinMax> {
    ternarizer: Ternarizer,
    inner: ContractionForest<M>,
    n: usize,
}

impl<M: CommutativeMonoid> TopologyForest<M> {
    /// Creates a forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        let cap = Ternarizer::capacity_bound(n);
        let mut inner: ContractionForest<M> = ContractionForest::new(cap, Policy::Topology);
        // Vertices above `n` are phantom ternarization helpers: they carry
        // the monoid identity (via the phantom flag), so the generic interior
        // weights thread through ternarization untouched.
        for v in n..cap {
            inner.set_phantom(v, true);
        }
        inner.settle();
        Self {
            ternarizer: Ternarizer::new(n),
            inner,
            n,
        }
    }

    /// Builds a forest from an edge list.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut f = Self::new(n);
        for &(u, v) in edges {
            f.link(u, v);
        }
        f
    }

    /// Number of original vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of original edges currently present.
    pub fn num_edges(&self) -> usize {
        self.ternarizer.num_edges()
    }

    /// Inserts edge `(u, v)`.
    pub fn link(&mut self, u: Vertex, v: Vertex) -> bool {
        if u == v || u >= self.n || v >= self.n || self.ternarizer.has_edge(u, v) {
            return false;
        }
        if self.connected(u, v) {
            return false;
        }
        let ops = match self.ternarizer.link(u, v) {
            Some(ops) => ops,
            None => return false,
        };
        self.apply(&ops);
        true
    }

    /// Removes edge `(u, v)`.
    pub fn cut(&mut self, u: Vertex, v: Vertex) -> bool {
        let ops = match self.ternarizer.cut(u, v) {
            Some(ops) => ops,
            None => return false,
        };
        self.apply(&ops);
        true
    }

    /// Applies one original update's underlying ops, then settles once.
    fn apply(&mut self, ops: &[UnderlyingOp]) {
        for op in ops {
            match *op {
                UnderlyingOp::Link(a, b) => {
                    let ok = self.inner.link(a, b);
                    debug_assert!(ok, "underlying link ({a},{b}) rejected");
                }
                UnderlyingOp::Cut(a, b) => {
                    let ok = self.inner.cut(a, b);
                    debug_assert!(ok, "underlying cut ({a},{b}) rejected");
                }
            }
        }
        self.inner.settle();
    }

    /// Whether `u` and `v` are connected.
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        self.inner.connected(
            self.ternarizer.representative(u),
            self.ternarizer.representative(v),
        )
    }

    /// Whether edge `(u, v)` is present.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.ternarizer.has_edge(u, v)
    }

    /// Sets the weight of original vertex `v` (stored on its primary slot).
    pub fn set_weight(&mut self, v: Vertex, w: M::Weight) {
        self.inner.set_weight(self.ternarizer.representative(v), w);
        self.inner.settle();
    }

    /// Returns the weight of vertex `v`.
    pub fn weight(&self, v: Vertex) -> M::Weight {
        self.inner.weight(self.ternarizer.representative(v))
    }

    /// Monoid aggregate over the vertex weights on the `u`–`v` path (phantom
    /// ternarization vertices contribute the identity; see the exactness
    /// caveat on [`path_sum`](TopologyForest::path_sum), which applies to
    /// every weight component — the `edges` counter counts *underlying*
    /// edges and is exact only for degree ≤ 3 interiors too).
    pub fn path_aggregate(&self, u: Vertex, v: Vertex) -> Option<Agg<M>> {
        self.inner.path_aggregate(
            self.ternarizer.representative(u),
            self.ternarizer.representative(v),
        )
    }

    /// Monoid aggregate over the subtree of `v` away from `parent`.
    pub fn subtree_aggregate(&self, v: Vertex, parent: Vertex) -> Option<Agg<M>> {
        let (sv, sp) = self.ternarizer.edge_slots(v, parent)?;
        self.inner.subtree_aggregate(sv, sp)
    }

    /// Monoid aggregate over the whole component containing `v`.
    pub fn component_aggregate(&self, v: Vertex) -> Agg<M> {
        self.inner
            .component_aggregate(self.ternarizer.representative(v))
    }

    /// Number of original vertices in the component containing `v`.
    pub fn component_size(&self, v: Vertex) -> u64 {
        self.component_aggregate(v).count
    }

    /// Exact heap bytes owned (engine + ternarizer).
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.ternarizer.memory_bytes()
    }

    /// Access to the underlying contraction engine.
    pub fn engine(&self) -> &ContractionForest<M> {
        &self.inner
    }
}

/// The historical `i64` convenience surface, preserved for the default
/// monoid.
impl TopologyForest<SumMinMax> {
    /// Sum of vertex weights on the `u`–`v` path (phantom ternarization
    /// vertices contribute nothing).
    ///
    /// **Exactness caveat** (applies to [`path_max`](Self::path_max) and
    /// [`path_min`](Self::path_min) too): the answer is exact whenever every
    /// *interior* vertex of the path has degree ≤ 3.  An interior vertex of
    /// degree ≥ 4 may be entered and left through edges hosted on two extra
    /// ternarization slots whose underlying path misses the weight-carrying
    /// primary slot, silently omitting that vertex's weight.  This is a
    /// fundamental limit of weight-on-one-slot dynamic ternarization (any two
    /// disjoint pairs of hosted edges would both need to bracket the same
    /// slot) and one of the paper's motivations for UFO trees, which support
    /// unbounded degrees natively and are always exact.  Endpoint weights are
    /// always included regardless of degree.
    pub fn path_sum(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.inner.path_sum(
            self.ternarizer.representative(u),
            self.ternarizer.representative(v),
        )
    }

    /// Maximum vertex weight on the `u`–`v` path (see the exactness caveat on
    /// [`path_sum`](Self::path_sum)).
    pub fn path_max(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.inner.path_max(
            self.ternarizer.representative(u),
            self.ternarizer.representative(v),
        )
    }

    /// Minimum vertex weight on the `u`–`v` path (see the exactness caveat on
    /// [`path_sum`](Self::path_sum)).
    pub fn path_min(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.inner.path_min(
            self.ternarizer.representative(u),
            self.ternarizer.representative(v),
        )
    }

    /// Sum of vertex weights in the subtree of `v` away from `parent`.
    ///
    /// The subtree is delimited by the original edge `(v, parent)`, which maps
    /// to a specific underlying edge between two slots.
    pub fn subtree_sum(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        // The underlying edge may be attached to non-primary slots, so resolve
        // through the engine's adjacency from the representative slots: use
        // the component split defined by the mapped edge.
        let _ = (v, parent);
        self.subtree_aggregate(v, parent).map(|a| a.sum)
    }

    /// Number of original vertices in the subtree of `v` away from `parent`.
    pub fn subtree_size(&self, v: Vertex, parent: Vertex) -> Option<u64> {
        self.subtree_aggregate(v, parent).map(|a| a.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ufo_basic_link_cut() {
        let mut f: UfoForest = UfoForest::new(8);
        assert!(f.link(0, 1));
        assert!(f.link(1, 2));
        assert!(f.link(2, 3));
        assert!(!f.link(3, 0));
        assert!(f.connected(0, 3));
        assert!(!f.connected(0, 4));
        assert!(f.cut(1, 2));
        assert!(!f.connected(0, 3));
        assert!(f.connected(2, 3));
        assert_eq!(f.num_edges(), 2);
        f.engine().check_invariants().unwrap();
    }

    #[test]
    fn ufo_star_and_queries() {
        let mut f: UfoForest<SumMinMax, Extents> = UfoForest::new(10);
        for v in 0..10 {
            f.set_weight(v, v as i64);
        }
        for v in 1..10 {
            assert!(f.link(0, v));
        }
        f.engine().check_invariants().unwrap();
        assert_eq!(f.component_size(0), 10);
        assert_eq!(f.component_diameter(0), 2);
        assert_eq!(f.path_sum(3, 7), Some(3 + 7));
        assert_eq!(f.path_length(3, 7), Some(2));
        assert_eq!(f.path_max(1, 2), Some(2));
        assert_eq!(f.subtree_sum(0, 4), Some((0..10).sum::<i64>() - 4));
        assert_eq!(f.subtree_sum(4, 0), Some(4));
        assert_eq!(f.subtree_size(0, 4), Some(9));
    }

    #[test]
    fn ufo_path_graph_queries() {
        let n = 50;
        let mut f: UfoForest<SumMinMax, Extents> = UfoForest::new(n);
        for v in 0..n {
            f.set_weight(v, v as i64);
        }
        for v in 0..n - 1 {
            assert!(f.link(v, v + 1));
        }
        f.engine().check_invariants().unwrap();
        assert_eq!(f.component_diameter(0), (n - 1) as u64);
        assert_eq!(f.path_length(0, n - 1), Some((n - 1) as u64));
        assert_eq!(f.path_sum(10, 20), Some((10..=20).sum::<i64>()));
        assert_eq!(f.path_min(10, 20), Some(10));
        assert_eq!(f.path_max(10, 20), Some(20));
        assert_eq!(f.subtree_size(20, 19), Some((n - 20) as u64));
        // nearest marked
        let mut f2 = f.clone();
        f2.set_marked(40, true);
        assert_eq!(f2.nearest_marked_distance(10), Some(30));
        assert_eq!(f2.nearest_marked_distance(45), Some(5));
        assert_eq!(f.nearest_marked_distance(0), None);
    }

    #[test]
    fn ufo_height_is_logarithmic_on_paths_and_constant_on_stars() {
        let n = 1024;
        let mut path: UfoForest = UfoForest::new(n);
        for v in 0..n - 1 {
            path.link(v, v + 1);
        }
        let h_path = path.engine().height(0);
        assert!(h_path <= 4 * 11, "path height too large: {}", h_path);

        let mut star: UfoForest = UfoForest::new(n);
        for v in 1..n {
            star.link(0, v);
        }
        let h_star = star.engine().height(0);
        assert!(h_star <= 6, "star height should be O(D): {}", h_star);
    }

    #[test]
    fn ufo_growth_relocates_internal_clusters() {
        // links first, so internal clusters occupy the ids the new leaves
        // need; ensure_vertices must relocate them and stay consistent
        let mut f: UfoForest = UfoForest::new(4);
        for v in 0..4 {
            f.set_weight(v, 10 + v as i64);
        }
        assert!(f.link(0, 1));
        assert!(f.link(1, 2));
        assert!(f.link(2, 3));
        f.engine().check_invariants().unwrap();
        f.ensure_vertices(9);
        f.engine().check_invariants().unwrap();
        assert_eq!(f.len(), 9);
        // the relocated clusters' parent entries lead the export's walks
        let mut labels = Vec::new();
        f.engine().component_labels(&mut labels);
        assert_eq!(labels, [0, 0, 0, 0, 1, 2, 3, 4, 5]);
        assert!(f.connected(0, 3), "old path survives growth");
        assert!(!f.connected(0, 7), "new vertices start isolated");
        assert_eq!(f.path_sum(0, 3), Some(10 + 11 + 12 + 13));
        // the grown vertices are full citizens: link, weigh, query
        for v in 4..9 {
            f.set_weight(v, v as i64);
            assert!(f.link(v - 1, v));
        }
        f.engine().check_invariants().unwrap();
        assert_eq!(f.component_size(0), 9);
        assert_eq!(f.path_sum(4, 6), Some(4 + 5 + 6));
        assert_eq!(f.subtree_sum(8, 7), Some(8));
        // growth is repeatable
        f.ensure_vertices(12);
        f.engine().check_invariants().unwrap();
        assert!(f.link(8, 11));
        assert!(f.connected(0, 11));
    }

    #[test]
    fn ufo_growth_on_star_hub() {
        // a star makes the hub's ancestor a high-fanout cluster; growth must
        // not disturb it even when its id gets claimed by a new leaf
        let mut f: UfoForest<SumMinMax, Extents> = UfoForest::new(6);
        for v in 1..6 {
            assert!(f.link(0, v));
        }
        f.ensure_vertices(40);
        f.engine().check_invariants().unwrap();
        for v in 6..40 {
            assert!(f.link(0, v), "hub absorbs grown vertex {v}");
        }
        f.engine().check_invariants().unwrap();
        assert_eq!(f.component_size(0), 40);
        assert_eq!(f.component_diameter(0), 2);
    }

    #[test]
    fn topology_forest_with_ternarization() {
        let mut f: TopologyForest = TopologyForest::new(12);
        for v in 0..12 {
            f.set_weight(v, v as i64);
        }
        // a star forces ternarization
        for v in 1..12 {
            assert!(f.link(0, v));
        }
        assert!(f.connected(3, 9));
        assert_eq!(f.component_size(0), 12);
        assert_eq!(f.path_sum(3, 7), Some(3 + 7));
        assert_eq!(f.path_max(3, 7), Some(7));
        assert!(f.cut(0, 3));
        assert!(!f.connected(3, 9));
        assert_eq!(f.num_edges(), 10);
        f.engine().check_invariants().unwrap();
    }
}
