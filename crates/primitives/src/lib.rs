//! Shared building blocks of the UFO-trees reproduction.
//!
//! Every other crate of the workspace builds on this one: the weight
//! algebra ([`algebra`]), the typed graph-operation vocabulary and its
//! shared checks ([`ops`]: vertex id space, batch normalisation), the
//! parallelism gate ([`ParallelConfig`]), union-find ([`Dsu`]), a
//! deterministic hasher for integer-keyed maps ([`hash`]) and the
//! telemetry accumulators ([`telemetry`]).
//!
//! Everything here is deterministic, so differential tests against the
//! naive oracle are reproducible.

pub mod algebra;
pub mod dsu;
pub mod hash;
pub mod ops;
pub mod par;
pub mod telemetry;

pub use algebra::{
    Action, ActionOf, AddConst, AffineSum, Agg, CommutativeMonoid, InvertibleMonoid, Monoid,
    NoAction,
};
pub use dsu::Dsu;
pub use ops::{BatchReport, DeleteOutcome, EdgeKind, GraphError, GraphOp, OpOutcome};
pub use par::{chunk_ranges, ParallelConfig, CHUNK_GRAIN, DELETE_GRAIN, PAR_GRAIN};
pub use telemetry::{BatchTelemetry, Counter, Phase, Telemetry, TelemetrySnapshot};
