//! Per-cluster summaries (the augmented values maintained during contraction).
//!
//! The aggregate types themselves live in `dyntree_primitives::algebra`: the
//! engine is generic over a [`CommutativeMonoid`] `M`, and every path or
//! subtree aggregate is an [`Agg<M>`].  The historical `i64` sum/min/max
//! structs survive as type aliases over the [`SumMinMax`] monoid —
//! [`PathAggregate`] and [`SubtreeAggregate`] are the same type today, and
//! `Agg`'s `Deref` to the monoid value keeps `agg.sum` / `agg.min` /
//! `agg.max` field reads compiling unchanged.

use dyntree_primitives::algebra::SumMinMax;
pub use dyntree_primitives::algebra::{Agg, CommutativeMonoid, Monoid};

use crate::{INF_DIST, NIL32};

/// Aggregate over the vertex weights of a path (endpoints inclusive unless
/// stated otherwise) under the default `i64` sum/min/max monoid.
pub type PathAggregate = Agg<SumMinMax>;

/// Aggregate over the vertex weights of a subtree (or whole component) under
/// the default `i64` sum/min/max monoid.
pub type SubtreeAggregate = Agg<SumMinMax>;

/// The augmented values each cluster maintains, generic over the vertex
/// weight monoid.
///
/// `boundary` holds the cluster's boundary vertices (the endpoints, inside the
/// cluster, of its external edges).  The paper proves every cluster has at
/// most two boundary vertices and that high-degree clusters have exactly one;
/// the engine asserts this in debug builds.  Boundary vertices are stored as
/// narrowed `u32` ids, like every other intra-forest link (DESIGN.md §12).
#[derive(Clone, Debug, PartialEq)]
pub struct Summary<M: CommutativeMonoid = SumMinMax> {
    /// Boundary vertices (`NIL32`-padded).
    pub boundary: [u32; 2],
    /// Number of valid entries of `boundary` (0, 1 or 2).
    pub nbound: u8,
    /// Aggregate over every vertex contained in the cluster.
    pub sub: Agg<M>,
    /// Total number of vertices contained (including phantom vertices).
    pub vertices: u64,
    /// Aggregate over the vertices strictly between the two boundary vertices
    /// (identity unless `nbound == 2`); `path.edges` is the number of edges on
    /// that cluster path.
    pub path: Agg<M>,
    /// Eccentricity (max distance in edges to any contained vertex) from each
    /// boundary vertex.
    pub ecc: [u64; 2],
    /// Longest path (in edges) between two vertices contained in the cluster.
    pub diam: u64,
    /// Distance from each boundary vertex to the nearest marked vertex inside
    /// the cluster (`INF_DIST` when none).
    pub near: [u64; 2],
}

impl<M: CommutativeMonoid> Summary<M> {
    /// Summary of an empty cluster (used as a starting point for folds).
    pub fn empty() -> Self {
        Summary {
            boundary: [NIL32, NIL32],
            nbound: 0,
            sub: Agg::IDENTITY,
            vertices: 0,
            path: Agg::IDENTITY,
            ecc: [0, 0],
            diam: 0,
            near: [INF_DIST, INF_DIST],
        }
    }

    /// Index of vertex `v` in the boundary array, if it is a boundary vertex.
    pub fn boundary_index(&self, v: u32) -> Option<usize> {
        (0..self.nbound as usize).find(|&i| self.boundary[i] == v)
    }

    /// Distance (in edges) between two boundary vertices of this cluster.
    /// Both arguments must be boundary vertices.
    pub fn boundary_distance(&self, a: u32, b: u32) -> u64 {
        if a == b {
            0
        } else {
            self.path.edges
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_aggregate_combines() {
        let a = PathAggregate::vertex(3);
        let b = PathAggregate::vertex(-1).cross_edge();
        let c = PathAggregate::combine(a, b);
        assert_eq!(c.sum, 2);
        assert_eq!(c.min, -1);
        assert_eq!(c.max, 3);
        assert_eq!(c.edges, 1);
        let d = PathAggregate::combine(c, PathAggregate::IDENTITY);
        assert_eq!(d, c);
    }

    #[test]
    fn subtree_aggregate_combines() {
        let a = SubtreeAggregate::vertex_if(5, false);
        let b = SubtreeAggregate::vertex_if(100, true); // phantom ignored
        let c = SubtreeAggregate::combine(a, b);
        assert_eq!(c.sum, 5);
        assert_eq!(c.count, 1);
        let d = SubtreeAggregate::combine(c, SubtreeAggregate::vertex_if(-2, false));
        assert_eq!(d.min, -2);
        assert_eq!(d.max, 5);
        assert_eq!(d.count, 2);
    }

    #[test]
    fn summary_boundary_helpers() {
        let mut s: Summary = Summary::empty();
        s.boundary = [7, 9];
        s.nbound = 2;
        s.path.edges = 4;
        assert_eq!(s.boundary_index(7), Some(0));
        assert_eq!(s.boundary_index(9), Some(1));
        assert_eq!(s.boundary_index(8), None);
        assert_eq!(s.boundary_distance(7, 7), 0);
        assert_eq!(s.boundary_distance(7, 9), 4);
    }
}
