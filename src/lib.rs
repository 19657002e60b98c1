//! # UFO Trees — practical and provably-efficient parallel batch-dynamic trees
//!
//! This is the umbrella crate of the reproduction of *"UFO Trees: Practical
//! and Provably-Efficient Parallel Batch-Dynamic Trees"* (PPoPP 2026).  It
//! re-exports every component of the workspace under one roof:
//!
//! * [`UfoForest`] — the paper's contribution: a dynamic-trees structure based
//!   on tree contraction with unbounded fan-out merges.  Supports link/cut,
//!   connectivity, path aggregates, subtree aggregates, plus sequential
//!   batch link/cut (DESIGN.md §4); diameter and nearest-marked-vertex
//!   queries under the opt-in [`Extents`] policy
//!   (`UfoForest<SumMinMax, Extents>`, DESIGN.md §2).  Queries take
//!   `&self` and the forest is `Sync`, so they can run concurrently
//!   between updates.
//! * [`TopologyForest`] — topology trees (pair merges + dynamic
//!   ternarization), sharing the same contraction engine; also the
//!   workspace's RC-tree stand-in (DESIGN.md §5.1).
//! * [`LinkCutForest`] — splay-based link-cut trees, the strongest sequential
//!   baseline.
//! * [`TreapEulerForest`] / [`SplayEulerForest`] / [`BatchEulerForest`] —
//!   Euler tour trees over pluggable sequence backends.
//! * [`NaiveForest`] — an O(n)-per-operation oracle used by the test suite.
//! * [`DynConnectivity`] — fully-dynamic connectivity on **general graphs**
//!   (HDT levels), generic over its spanning-forest backend: UFO, link-cut,
//!   Euler tour or naive ([`UfoConnectivity`], [`LinkCutConnectivity`],
//!   [`EulerConnectivity`], ...).
//! * [`ServingEngine`] — the epoch-snapshot serving layer over
//!   [`DynConnectivity`]: a single writer applies batches and publishes
//!   immutable snapshots; cloneable [`ReadHandle`]s answer `connected` /
//!   `component_size` / `component_agg` concurrently, wait-free in the
//!   steady state, each answer stamped with its epoch.
//! * [`workloads`] — every input generator of the paper's evaluation, plus
//!   dynamic edge streams for the connectivity engine.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the reproduction of each table and figure.

pub use dyntree_connectivity as connectivity;
pub use dyntree_euler as euler;
pub use dyntree_linkcut as linkcut;
pub use dyntree_naive as naive;
pub use dyntree_primitives as primitives;
pub use dyntree_seqs as seqs;
pub use dyntree_serve as serve;
pub use dyntree_ternary as ternary;
pub use dyntree_workloads as workloads;
pub use ufo_forest as ufo;

pub use dyntree_connectivity::{
    BatchReport, DeleteOutcome, DynConnectivity, EdgeKind, EulerConnectivity, GraphError, GraphOp,
    LinkCutConnectivity, NaiveConnectivity, OpOf, OpOutcome, SpanningBackend, UfoConnectivity,
};
pub use dyntree_euler::{BatchEulerForest, EulerTourForest, SplayEulerForest, TreapEulerForest};
pub use dyntree_linkcut::LinkCutForest;
pub use dyntree_naive::NaiveForest;
pub use dyntree_primitives::algebra::{
    Agg, CommutativeMonoid, I64Max, I64Min, I64Sum, InvertibleMonoid, MaxEdge, Monoid, Pair,
    SumMinMax, WeightStats, WeightedId,
};
pub use dyntree_serve::{
    EpochRetired, PinnedReader, ReadHandle, ServingEngine, Snapshot, UfoServingEngine, Versioned,
};
pub use dyntree_ternary::Ternarizer;
pub use ufo_forest::{ContractionForest, Extent, Extents, Policy, TopologyForest, UfoForest};

pub mod capabilities;

pub use capabilities::{capability_matrix, Capability};
