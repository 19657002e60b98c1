//! UFO trees — unbounded fan-out parallel batch-dynamic trees.
//!
//! This crate is the core of the reproduction: a *contraction forest* engine
//! that represents each tree of the input forest as a hierarchy of clusters
//! produced by rounds of tree contraction, exactly as described in Sections 3
//! and 4 of the paper.  Two merge policies share the engine:
//!
//! * [`Policy::Ufo`] — the paper's contribution: degree-1/degree-2 clusters
//!   merge along a maximal matching and *high-degree clusters absorb all of
//!   their degree-1 neighbours in one round* (unbounded fan-out), which keeps
//!   the hierarchy height at `O(min(log n, D))` without ternarization.
//! * [`Policy::Topology`] — Frederickson's topology trees: only pair merges
//!   are allowed, and inputs of degree > 3 must be ternarized first (the
//!   public [`TopologyForest`] wrapper does this via `dyntree_ternary`).
//!
//! Updates follow Algorithms 1–2 of the paper (delete the ancestors of the
//! endpoints, avoiding high-degree/high-fanout clusters, then recluster
//! bottom-up).  Queries are read-only walks over the hierarchy: connectivity,
//! vertex-weight path aggregates, subtree aggregates (including
//! non-invertible ones), component diameter and nearest-marked-vertex
//! queries.  Batch updates are exposed through [`UfoForest::batch_link`] /
//! [`UfoForest::batch_cut`], which run sequentially (see `DESIGN.md` §4 for
//! the deviations from Algorithm 4).
//!
//! The second type parameter of [`UfoForest`] and [`ContractionForest`] is
//! the [`Extent`] policy: which augmentation each cluster keeps.
//!
//! * [`Core`] (the default) keeps boundaries, the subtree aggregate, the
//!   vertex count and the cluster path: enough for connectivity, path,
//!   subtree and component queries, and all the connectivity engine and
//!   the serving layer read.
//! * [`Extents`] also keeps eccentricities, diameters and nearest-marked
//!   distances.  Only it offers `component_diameter`,
//!   `nearest_marked_distance` and `set_marked`; name it as
//!   `UfoForest<SumMinMax, Extents>`.
//!
//! ```
//! use ufo_forest::{Extents, SumMinMax, UfoForest};
//!
//! let mut core: UfoForest = UfoForest::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! core.set_weight(2, 5);
//! assert_eq!(core.path_sum(0, 3), Some(5));
//!
//! let mut ext: UfoForest<SumMinMax, Extents> = UfoForest::new(4);
//! ext.batch_link(&[(0, 1), (1, 2), (2, 3)]);
//! ext.set_marked(0, true);
//! assert_eq!(ext.component_diameter(3), 3);
//! assert_eq!(ext.nearest_marked_distance(3), Some(3));
//! ```

pub mod batch;
pub mod engine;
pub mod forest;
pub mod queries;
pub mod summary;

pub use dyntree_primitives::algebra::{
    Agg, CommutativeMonoid, InvertibleMonoid, Monoid, SumMinMax, WeightStats,
};
pub use engine::{ContractionForest, Policy};
pub use forest::{TopologyForest, UfoForest};
pub use summary::{Core, Extent, Extents, PathAggregate, SubtreeAggregate, Summary};

/// Vertex identifier in the represented forest.
pub type Vertex = usize;

/// Identifier of a cluster in the contraction hierarchy.
pub type ClusterId = usize;

/// Sentinel meaning "no cluster / no vertex".
pub const NIL: usize = usize::MAX;

/// `u32` counterpart of [`NIL`], used inside the narrowed cluster storage
/// (cluster links and adjacency entries are stored as 4-byte ids; the public
/// API keeps `usize`).
pub const NIL32: u32 = u32::MAX;

/// Distance value used as "unreachable" in distance summaries.
pub(crate) const INF_DIST: u64 = u64::MAX / 4;
