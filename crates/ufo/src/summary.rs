//! Per-cluster summaries (the augmented values maintained during contraction).
//!
//! The aggregate types themselves live in `dyntree_primitives::algebra`: the
//! engine is generic over a [`CommutativeMonoid`] `M`, and every path or
//! subtree aggregate is an [`Agg<M>`].  The historical `i64` sum/min/max
//! structs survive as type aliases over the [`SumMinMax`] monoid —
//! [`PathAggregate`] and [`SubtreeAggregate`] are the same type today, and
//! `Agg`'s `Deref` to the monoid value keeps `agg.sum` / `agg.min` /
//! `agg.max` field reads compiling unchanged.
//!
//! A [`Summary`] has a core part and an extent part; the [`Extent`] policy
//! ([`Core`] by default, or [`Extents`]) decides whether a forest keeps the
//! extent part at all (DESIGN.md §2).

use std::fmt::Debug;

use dyntree_primitives::algebra::SumMinMax;
pub use dyntree_primitives::algebra::{Agg, CommutativeMonoid, Monoid};

use crate::{INF_DIST, NIL32};

/// Aggregate over the vertex weights of a path (endpoints inclusive unless
/// stated otherwise) under the default `i64` sum/min/max monoid.
pub type PathAggregate = Agg<SumMinMax>;

/// Aggregate over the vertex weights of a subtree (or whole component) under
/// the default `i64` sum/min/max monoid.
pub type SubtreeAggregate = Agg<SumMinMax>;

/// Which augmentation a forest keeps beside the core summary: the type
/// parameter `X` of [`ContractionForest`](crate::ContractionForest) and
/// [`UfoForest`](crate::UfoForest), and the type of [`Summary::ext`].
///
/// Two policies exist, and the trait is sealed:
///
/// * [`Core`] (the default) is zero-sized.  Clusters keep only boundaries,
///   the subtree aggregate, the vertex count and the cluster path, which
///   is everything connectivity, path and subtree queries read.  The
///   extent work of the refresh compiles away, and the extent queries
///   (`component_diameter`, `nearest_marked_distance`, `set_marked`) do
///   not exist on such a forest.
/// * [`Extents`] also keeps eccentricities, the diameter and the
///   nearest-marked distances, and enables those queries.
///
/// Both share one refresh routine: it reads and writes the extent part
/// through [`get`](Extent::get) / [`get_mut`](Extent::get_mut), which are
/// `None` under [`Core`].
pub trait Extent: sealed::Sealed + Copy + Debug + PartialEq + Send + Sync + 'static {
    /// The extent part of a fold of pendant clusters (zero-sized under
    /// [`Core`]).
    type Fold: Copy + Debug + PartialEq + Send + Sync + 'static;
    /// Whether the policy keeps extents (`false` for [`Core`]).
    const ENABLED: bool;
    /// The extent part of an empty cluster.
    const EMPTY: Self;
    /// The extent part of an empty pendant fold.
    const EMPTY_FOLD: Self::Fold;
    /// The extent record, if the policy keeps one.
    fn get(&self) -> Option<&Extents>;
    /// The extent record, mutably, if the policy keeps one.
    fn get_mut(&mut self) -> Option<&mut Extents>;
    /// The extent part of a pendant fold, if the policy keeps one.
    fn fold(f: &Self::Fold) -> Option<&PendantExtents>;
    /// The extent part of a pendant fold, mutably.
    fn fold_mut(f: &mut Self::Fold) -> Option<&mut PendantExtents>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Core {}
    impl Sealed for super::Extents {}
}

/// The core policy: no extents (zero-sized).  See [`Extent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Core;

/// The extent policy, and the extent record each cluster keeps under it.
/// See [`Extent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extents {
    /// Eccentricity (max distance in edges to any contained vertex) from each
    /// boundary vertex.
    pub ecc: [u64; 2],
    /// Longest path (in edges) between two vertices contained in the cluster.
    pub diam: u64,
    /// Distance from each boundary vertex to the nearest marked vertex inside
    /// the cluster (`INF_DIST` when none).
    pub near: [u64; 2],
}

impl Extent for Core {
    type Fold = ();
    const ENABLED: bool = false;
    const EMPTY: Core = Core;
    const EMPTY_FOLD: () = ();
    #[inline]
    fn get(&self) -> Option<&Extents> {
        None
    }
    #[inline]
    fn get_mut(&mut self) -> Option<&mut Extents> {
        None
    }
    #[inline]
    fn fold(_: &()) -> Option<&PendantExtents> {
        None
    }
    #[inline]
    fn fold_mut(_: &mut ()) -> Option<&mut PendantExtents> {
        None
    }
}

impl Extent for Extents {
    type Fold = PendantExtents;
    const ENABLED: bool = true;
    const EMPTY: Extents = Extents {
        ecc: [0, 0],
        diam: 0,
        near: [INF_DIST, INF_DIST],
    };
    const EMPTY_FOLD: PendantExtents = PendantExtents {
        diam: 0,
        deep: [Top2::NO_DEPTH; 2],
        near: [Top2::NO_NEAR; 2],
    };
    #[inline]
    fn get(&self) -> Option<&Extents> {
        Some(self)
    }
    #[inline]
    fn get_mut(&mut self) -> Option<&mut Extents> {
        Some(self)
    }
    #[inline]
    fn fold(f: &PendantExtents) -> Option<&PendantExtents> {
        Some(f)
    }
    #[inline]
    fn fold_mut(f: &mut PendantExtents) -> Option<&mut PendantExtents> {
        Some(f)
    }
}

/// The extent part of a fold of pendant clusters under [`Extents`]: the
/// largest pendant diameter, and per hub boundary the deepest pendants and
/// the nearest marked vertices through the pendants attached there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendantExtents {
    /// Largest pendant diameter.
    pub(crate) diam: u64,
    /// Per hub boundary index: the deepest pendants attached there (1 + the
    /// pendant's eccentricity from its attach vertex).
    pub(crate) deep: [Top2; 2],
    /// Per hub boundary index: the nearest marked vertex through each
    /// pendant attached there (1 + the pendant's nearest-marked distance
    /// from its attach vertex).
    pub(crate) near: [Top2; 2],
}

impl PendantExtents {
    pub(crate) fn merge(&self, other: &PendantExtents) -> PendantExtents {
        PendantExtents {
            diam: self.diam.max(other.diam),
            deep: [0, 1].map(|j| self.deep[j].merge(&other.deep[j], deeper)),
            near: [0, 1].map(|j| self.near[j].merge(&other.near[j], nearer)),
        }
    }
}

/// The two best values of a pendant statistic, each with the child that
/// produced it, so a parent can leave out the child holding one of its
/// boundary vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Top2 {
    pub(crate) val: [u64; 2],
    pub(crate) who: [u32; 2],
}

impl Top2 {
    /// Empty, for depths (larger is better; a real depth is at least 1).
    const NO_DEPTH: Top2 = Top2 {
        val: [0, 0],
        who: [NIL32, NIL32],
    };
    /// Empty, for distances (smaller is better).
    const NO_NEAR: Top2 = Top2 {
        val: [u64::MAX, u64::MAX],
        who: [NIL32, NIL32],
    };

    pub(crate) fn offer(&mut self, val: u64, who: u32, better: fn(u64, u64) -> bool) {
        if better(val, self.val[0]) {
            self.val = [val, self.val[0]];
            self.who = [who, self.who[0]];
        } else if better(val, self.val[1]) {
            self.val[1] = val;
            self.who[1] = who;
        }
    }

    fn merge(mut self, other: &Top2, better: fn(u64, u64) -> bool) -> Top2 {
        for i in 0..2 {
            if other.who[i] != NIL32 {
                self.offer(other.val[i], other.who[i], better);
            }
        }
        self
    }

    /// The best value not produced by `child` (`NIL32` excludes nothing).
    pub(crate) fn without(&self, child: u32) -> u64 {
        if child != NIL32 && self.who[0] == child {
            self.val[1]
        } else {
            self.val[0]
        }
    }
}

pub(crate) fn deeper(a: u64, b: u64) -> bool {
    a > b
}

pub(crate) fn nearer(a: u64, b: u64) -> bool {
    a < b
}

/// The augmented values each cluster maintains, generic over the vertex
/// weight monoid and the [`Extent`] policy.
///
/// `boundary` holds the cluster's boundary vertices (the endpoints, inside the
/// cluster, of its external edges).  The paper proves every cluster has at
/// most two boundary vertices and that high-degree clusters have exactly one;
/// the engine asserts this in debug builds.  Boundary vertices are stored as
/// narrowed `u32` ids, like every other intra-forest link (DESIGN.md §12).
#[derive(Clone, Debug, PartialEq)]
pub struct Summary<M: CommutativeMonoid = SumMinMax, X: Extent = Core> {
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
    /// The extent part: zero-sized under [`Core`], eccentricities, diameter
    /// and nearest-marked distances under [`Extents`].
    pub ext: X,
}

impl<M: CommutativeMonoid, X: Extent> Summary<M, X> {
    /// Summary of an empty cluster (used as a starting point for folds).
    pub fn empty() -> Self {
        Summary {
            boundary: [NIL32, NIL32],
            nbound: 0,
            sub: Agg::IDENTITY,
            vertices: 0,
            path: Agg::IDENTITY,
            ext: X::EMPTY,
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
