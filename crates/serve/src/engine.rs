//! The writer: a [`DynConnectivity`] engine that publishes a snapshot after
//! every applied batch.

use std::sync::Arc;

use dyntree_connectivity::{DynConnectivity, SpanningBackend};
use dyntree_primitives::algebra::WeightOf;
use dyntree_primitives::ops::{grown_len, BatchReport, GraphOp};
use dyntree_primitives::telemetry::Phase;
use dyntree_primitives::{ParallelConfig, Telemetry};

use crate::reader::ReadHandle;
use crate::ring::SnapshotRing;
use crate::snapshot::Snapshot;

/// Default number of epochs the ring retains.
pub const DEFAULT_RETENTION: usize = 8;

/// A [`DynConnectivity`] engine wrapped in the epoch-publication scheme:
/// [`apply`](Self::apply) runs the batch and publishes an immutable
/// [`Snapshot`] of the result, and [`reader`](Self::reader) hands out
/// concurrent query endpoints.
///
/// The serving layer owns a *shadow* copy of the vertex weights (updated
/// from the batch's `SetWeight` ops exactly as the engine validates them),
/// which is what lets snapshots answer `component_agg` for every backend —
/// including ones like link-cut trees whose live engine declines whole-tree
/// aggregates.
///
/// Builder-style configuration ([`with_retention`](Self::with_retention),
/// [`with_telemetry`](Self::with_telemetry),
/// [`with_parallel_config`](Self::with_parallel_config)) must run before
/// the first [`reader`](Self::reader) call: retention and telemetry rebuild
/// the shared ring, and handles created earlier would keep reading the old
/// one.
#[derive(Debug)]
pub struct ServingEngine<B: SpanningBackend> {
    engine: DynConnectivity<B>,
    ring: Arc<SnapshotRing<B::Weights>>,
    /// Shadow vertex weights mirroring the backend's, for snapshot
    /// aggregate folding.
    weights: Vec<WeightOf<B::Weights>>,
    retention: usize,
}

impl<B: SpanningBackend> ServingEngine<B> {
    /// A serving engine over `n` isolated vertices, with the epoch-0
    /// bootstrap snapshot already published.
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES),
    /// before anything is allocated (the engine is built first and checks).
    pub fn new(n: usize) -> Self {
        let engine: DynConnectivity<B> = DynConnectivity::new(n);
        let weights = vec![WeightOf::<B::Weights>::default(); n];
        let tel = engine.telemetry().clone();
        let ring = Arc::new(SnapshotRing::new(
            DEFAULT_RETENTION,
            Arc::new(Snapshot::bootstrap(n, &weights)),
            tel,
        ));
        ServingEngine {
            engine,
            ring,
            weights,
            retention: DEFAULT_RETENTION,
        }
    }

    /// Rebuilds the ring (construction-time builders only), carrying the
    /// latest snapshot over so the published epoch never regresses.
    fn rebuild_ring(&mut self) {
        let latest = self.ring.latest();
        self.ring = Arc::new(SnapshotRing::new(
            self.retention,
            latest,
            self.engine.telemetry().clone(),
        ));
    }

    /// Sets how many epochs the ring retains (clamped to ≥ 1).
    pub fn with_retention(mut self, k: usize) -> Self {
        self.retention = k.max(1);
        self.rebuild_ring();
        self
    }

    /// Replaces the engine's telemetry handle; reader-side counters
    /// (`reader_queries_served`, `stale_epoch_reads`) share its
    /// accumulators.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.engine.set_telemetry(tel);
        self.rebuild_ring();
        self
    }

    /// Replaces the wrapped engine's parallel-execution tunables.
    pub fn with_parallel_config(mut self, cfg: ParallelConfig) -> Self {
        self.engine.set_parallel_config(cfg);
        self
    }

    /// Applies a batch and publishes the resulting snapshot.
    ///
    /// The snapshot is built inside the engine's `apply` phase span, under
    /// the `snapshot_build` child phase, so the phase tree reports build
    /// cost as part of apply wall — it is writer-side work a caller would
    /// otherwise misattribute.  The report's
    /// [`version`](BatchReport::version) is the epoch the snapshot was
    /// published at.
    pub fn apply(&mut self, ops: &[GraphOp<WeightOf<B::Weights>>]) -> BatchReport {
        let len_before = self.engine.len();
        let weights = &mut self.weights;
        let ring = &self.ring;
        self.engine.apply_with(ops, |eng| {
            let _build = eng.telemetry().span(Phase::SnapshotBuild);
            shadow_weights::<B>(weights, len_before, ops, eng);
            let mut labels = Vec::new();
            eng.export_component_labels(&mut labels);
            ring.publish(Arc::new(Snapshot::from_labels(
                eng.version(),
                eng.component_count(),
                eng.num_edges(),
                labels,
                weights,
            )));
        })
    }

    /// A new query endpoint over the latest published epoch.
    pub fn reader(&self) -> ReadHandle<B::Weights> {
        ReadHandle::new(Arc::clone(&self.ring))
    }

    /// The publication ring (epoch bookkeeping, pinned-read lookups).
    pub fn ring(&self) -> &SnapshotRing<B::Weights> {
        &self.ring
    }

    /// The latest published epoch.
    pub fn latest_epoch(&self) -> u64 {
        self.ring.latest_epoch()
    }

    /// The wrapped engine's batch counter (equals
    /// [`latest_epoch`](Self::latest_epoch): every apply publishes).
    pub fn version(&self) -> u64 {
        self.engine.version()
    }

    /// Read access to the wrapped engine.
    pub fn engine(&self) -> &DynConnectivity<B> {
        &self.engine
    }

    /// Runs the wrapped engine's full invariant sweep (testing aid; no
    /// mutable engine access is exposed otherwise — mutations must go
    /// through [`apply`](Self::apply) so every change is published).
    pub fn check_invariants(&mut self) -> Result<(), String> {
        self.engine.check_invariants()
    }

    /// Compares the full shadow weight table against the backend's
    /// per-vertex readback, reporting the first divergence.  `O(n)`; the
    /// release-mode counterpart of the debug assert `apply` runs after every
    /// batch — `fuzz_serve` calls it per batch so shadow drift fails the
    /// fuzz gate even in optimized builds.  Vacuously `Ok` for unweighted
    /// backends.
    pub fn verify_shadow_weights(&mut self) -> Result<(), String> {
        if !B::WEIGHTED {
            return Ok(());
        }
        for (v, &w) in self.weights.iter().enumerate() {
            let actual = self.engine.vertex_weight(v);
            if actual != Some(w) {
                return Err(format!(
                    "shadow weight of vertex {v} diverged: shadow {w:?}, backend {actual:?}"
                ));
            }
        }
        Ok(())
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// The engine's memory breakdown with the `snapshots` line filled in:
    /// heap bytes of every epoch the ring currently retains.
    pub fn memory_breakdown(&self) -> dyntree_connectivity::MemoryBreakdown {
        let mut b = self.engine.memory_breakdown();
        b.snapshots = self.ring.memory_bytes();
        b
    }
}

/// Brings the shadow weights up to date with a just-applied batch.
///
/// `SetWeight` ops are replayed from the op stream, mirroring the engine's
/// own validation: `AddVertices` grows the id space mid-batch (through the
/// engine's own growth check, [`grown_len`]), and a `SetWeight` lands iff its vertex is in
/// range *at that point in the batch* and the backend records weights.
///
/// The bulk ops (`PathApply` / `ComponentApply`) *cannot* be replayed that
/// way — which vertices they touch depends on the spanning forest's shape
/// at the moment each op ran, and the shadow table has no structure.  When
/// a batch contains any bulk op the whole table is re-based from the
/// backend's per-vertex readback instead (`O(n)`, only on such batches).
///
/// In debug builds the full table is cross-checked against the backend
/// after *every* batch, so any replay rule that drifts from engine
/// semantics fails loudly in `fuzz_serve` rather than silently serving
/// stale aggregates (DESIGN.md §11).
fn shadow_weights<B: SpanningBackend>(
    weights: &mut Vec<WeightOf<B::Weights>>,
    len_before: usize,
    ops: &[GraphOp<WeightOf<B::Weights>>],
    eng: &mut DynConnectivity<B>,
) {
    let len_after = eng.len();
    weights.resize(len_after, WeightOf::<B::Weights>::default());
    let mut len = len_before;
    let mut bulk = false;
    for op in ops {
        match *op {
            GraphOp::AddVertices(count) => {
                if let Ok(target) = grown_len(len, count) {
                    len = target;
                }
            }
            GraphOp::SetWeight(v, w) => {
                if B::WEIGHTED && v < len {
                    weights[v] = w;
                }
            }
            GraphOp::PathApply(..) | GraphOp::ComponentApply(..) => bulk = true,
            GraphOp::InsertEdge(..) | GraphOp::DeleteEdge(..) => {}
        }
    }
    debug_assert_eq!(len, len_after, "shadow length diverged from the engine");
    if bulk && B::WEIGHTED {
        for (v, w) in weights.iter_mut().enumerate() {
            if let Some(actual) = eng.vertex_weight(v) {
                *w = actual;
            }
        }
    }
    #[cfg(debug_assertions)]
    if B::WEIGHTED {
        for (v, &w) in weights.iter().enumerate() {
            debug_assert_eq!(
                Some(w),
                eng.vertex_weight(v),
                "shadow weight of vertex {v} diverged from the backend"
            );
        }
    }
}
