//! Batch-dynamic connectivity for **general graphs** on top of the
//! workspace's dynamic-tree forests.
//!
//! The dynamic-tree structures the paper races (UFO trees, link-cut trees,
//! Euler tour trees) maintain *forests*; their headline application is
//! dynamic connectivity on arbitrary graphs, where a spanning forest must
//! survive arbitrary edge insertions **and deletions**.  This crate
//! implements the Holm–de Lichtenberg–Thorup (HDT) level scheme:
//!
//! * a spanning forest of the current graph lives in a pluggable dynamic-tree
//!   *backend* (anything implementing [`SpanningBackend`] — the UFO, link-cut
//!   and Euler tour forests and the naive oracle do), which answers
//!   `connected` queries in the backend's own query time;
//! * non-tree edges live in per-vertex, per-level adjacency structures
//!   ([`levels::LevelAdjacency`]); every edge carries a level that only ever
//!   increases, amortizing the replacement-edge searches that deletions of
//!   tree edges trigger (`O(log² n)` amortized per update in the classic
//!   analysis);
//! * runs of insertions/deletions inside a batch take union-find and
//!   classification pre-passes (chunked over the pool past a grain) before
//!   touching the tree layer (see [`batch`]).
//!
//! The public surface is batch-first and typed, with one mutation path:
//! whole transactions of [`GraphOp`]s go through [`DynConnectivity::apply`],
//! which returns a [`BatchReport`] of per-op outcomes, and the single-op
//! `try_*` forms return a [`GraphError`] instead of a flat `false`.  The
//! vertex set grows in place (`AddVertices` ops — `new(0)` is a perfectly
//! good starting point).
//!
//! The entry point is [`DynConnectivity`]; convenience aliases pick each
//! forest of the workspace as the backend:
//!
//! ```
//! use dyntree_connectivity::{EdgeKind, GraphOp, UfoConnectivity};
//!
//! let mut g = UfoConnectivity::new(5);
//! assert_eq!(g.try_insert_edge(0, 1), Ok(EdgeKind::Tree));
//! assert_eq!(g.try_insert_edge(1, 2), Ok(EdgeKind::Tree));
//! assert_eq!(g.try_insert_edge(2, 0), Ok(EdgeKind::NonTree)); // cycle
//! assert_eq!(g.try_connected(0, 2), Ok(true));
//! g.try_delete_edge(0, 1).unwrap(); // tree edge: replaced by (2, 0)
//! assert_eq!(g.try_connected(0, 2), Ok(true));
//! assert_eq!(g.component_count(), 3); // {0,1,2} plus two isolated vertices
//!
//! // the same graph, as one reported transaction
//! let mut h = UfoConnectivity::new(0);
//! let report = h.apply(&[
//!     GraphOp::AddVertices(5),
//!     GraphOp::InsertEdge(0, 1),
//!     GraphOp::InsertEdge(1, 2),
//!     GraphOp::InsertEdge(2, 0),
//!     GraphOp::DeleteEdge(0, 1),
//! ]);
//! assert_eq!((report.applied, report.skipped, report.rejected), (5, 0, 0));
//! assert_eq!(report.components_after, 3);
//! ```

pub mod backend;
pub mod batch;
pub mod engine;
pub mod levels;
pub(crate) mod search;

pub use backend::SpanningBackend;
pub use batch::OpOf;
pub use engine::{DynConnectivity, MemoryBreakdown};
// The typed operations vocabulary the engine speaks (defined in
// `dyntree_primitives::ops`, re-exported here so engine users need one
// import path).
pub use dyntree_primitives::ops::{
    BatchReport, DeleteOutcome, EdgeKind, GraphError, GraphOp, OpOutcome,
};

use dyntree_seqs::TreapSequence;

/// Vertex identifier in the graph.
pub type Vertex = usize;

/// Dynamic connectivity over a UFO-tree spanning forest.
pub type UfoConnectivity = DynConnectivity<ufo_forest::UfoForest>;

/// Dynamic connectivity over a link-cut-tree spanning forest.
pub type LinkCutConnectivity = DynConnectivity<dyntree_linkcut::LinkCutForest>;

/// Dynamic connectivity over a treap Euler-tour-tree spanning forest.
pub type EulerConnectivity = DynConnectivity<dyntree_euler::EulerTourForest<TreapSequence>>;

/// Dynamic connectivity over the naive oracle forest (for testing).
pub type NaiveConnectivity = DynConnectivity<dyntree_naive::NaiveForest>;
