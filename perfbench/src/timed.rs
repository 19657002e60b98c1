//! A timing wrapper over a [`SpanningBackend`], used only by the traced run
//! to attribute connectivity-engine time to the forest underneath it.
//!
//! Every forwarded call adds its wall nanos and a call count to process-wide
//! atomics (the read-only probes run on pool workers, so per-thread state
//! would miss them) and, while tracing is on, records a `ufo.<call>` span
//! under whatever layer call caused it.  The wrapper forwards every
//! capability constant and method unchanged, so the engine takes exactly
//! the code paths it takes over the bare forest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dyntree_connectivity::SpanningBackend;
use dyntree_primitives::algebra::{ActionOf, Agg, WeightOf};
use dyntree_primitives::ops::EdgeKind;

use crate::trace;

/// The groups of forest calls the wrapper accounts separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Link,
    Cut,
    /// `connected`, `connected_snapshot`, `edge_kind_snapshot`.
    Probe,
    /// `export_components` (snapshot publication).
    Export,
    /// Weights, aggregates, bulk applies and growth.
    Other,
}

impl Call {
    /// Span name; the wrapped forest is the `ufo` layer.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Link => "ufo.link",
            Call::Cut => "ufo.cut",
            Call::Probe => "ufo.probe",
            Call::Export => "ufo.export",
            Call::Other => "ufo.other",
        }
    }
}

static NANOS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
static CALLS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// Accumulated `(nanos, calls)` of one call group since the last [`reset`].
pub fn totals(call: Call) -> (u64, u64) {
    (
        NANOS[call as usize].load(Ordering::Relaxed),
        CALLS[call as usize].load(Ordering::Relaxed),
    )
}

/// Zeroes every accumulator.
pub fn reset() {
    for a in NANOS.iter().chain(CALLS.iter()) {
        a.store(0, Ordering::Relaxed);
    }
}

fn timed<R>(call: Call, f: impl FnOnce() -> R) -> R {
    let _span = trace::open_inner(call.span_name());
    let start = Instant::now();
    let r = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    NANOS[call as usize].fetch_add(nanos, Ordering::Relaxed);
    CALLS[call as usize].fetch_add(1, Ordering::Relaxed);
    r
}

/// `B` with every call timed.
#[derive(Clone, Debug)]
pub struct Timed<B>(pub B);

impl<B: SpanningBackend> SpanningBackend for Timed<B> {
    type Weights = B::Weights;
    const NAME: &'static str = B::NAME;
    const WEIGHTED: bool = B::WEIGHTED;
    const SUPPORTS_PATH_AGG: bool = B::SUPPORTS_PATH_AGG;
    const SUPPORTS_COMPONENT_AGG: bool = B::SUPPORTS_COMPONENT_AGG;
    const SNAPSHOT_QUERIES: bool = B::SNAPSHOT_QUERIES;
    const SUPPORTS_PATH_APPLY: bool = B::SUPPORTS_PATH_APPLY;
    const SUPPORTS_COMPONENT_APPLY: bool = B::SUPPORTS_COMPONENT_APPLY;
    const SUPPORTS_SUBTREE_APPLY: bool = B::SUPPORTS_SUBTREE_APPLY;

    fn new(n: usize) -> Self {
        Timed(B::new(n))
    }
    fn ensure_vertices(&mut self, n: usize) {
        timed(Call::Other, || self.0.ensure_vertices(n))
    }
    fn link(&mut self, u: usize, v: usize) -> bool {
        timed(Call::Link, || self.0.link(u, v))
    }
    fn cut(&mut self, u: usize, v: usize) -> bool {
        timed(Call::Cut, || self.0.cut(u, v))
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        timed(Call::Probe, || self.0.connected(u, v))
    }
    fn connected_snapshot(&self, u: usize, v: usize) -> Option<bool> {
        timed(Call::Probe, || self.0.connected_snapshot(u, v))
    }
    fn edge_kind_snapshot(&self, u: usize, v: usize) -> Option<EdgeKind> {
        timed(Call::Probe, || self.0.edge_kind_snapshot(u, v))
    }
    fn set_weight(&mut self, v: usize, w: WeightOf<Self::Weights>) -> bool {
        timed(Call::Other, || self.0.set_weight(v, w))
    }
    fn vertex_weight(&mut self, v: usize) -> Option<WeightOf<Self::Weights>> {
        timed(Call::Other, || self.0.vertex_weight(v))
    }
    fn path_apply(&mut self, u: usize, v: usize, act: ActionOf<Self::Weights>) -> Option<u64> {
        timed(Call::Other, || self.0.path_apply(u, v, act))
    }
    fn component_apply(&mut self, v: usize, act: ActionOf<Self::Weights>) -> Option<u64> {
        timed(Call::Other, || self.0.component_apply(v, act))
    }
    fn subtree_apply(
        &mut self,
        v: usize,
        parent: usize,
        act: ActionOf<Self::Weights>,
    ) -> Option<u64> {
        timed(Call::Other, || self.0.subtree_apply(v, parent, act))
    }
    fn component_size(&mut self, v: usize) -> Option<u64> {
        timed(Call::Other, || self.0.component_size(v))
    }
    fn component_agg(&mut self, v: usize) -> Option<Agg<Self::Weights>> {
        timed(Call::Other, || self.0.component_agg(v))
    }
    fn path_agg(&mut self, u: usize, v: usize) -> Option<Agg<Self::Weights>> {
        timed(Call::Other, || self.0.path_agg(u, v))
    }
    fn export_components(&self, out: &mut Vec<usize>) -> bool {
        timed(Call::Export, || self.0.export_components(out))
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ChurnGen;
    use dyntree_connectivity::DynConnectivity;
    use dyntree_primitives::ParallelConfig;
    use ufo_forest::UfoForest;

    /// Every batch report rendering and the final labels of one seeded
    /// churn trace, at a config whose small grains force the parallel
    /// pre-passes (and so the worker-side probes) on.
    fn replay<B: SpanningBackend<Weights = dyntree_primitives::algebra::SumMinMax>>(
        seed: u64,
    ) -> (Vec<String>, Vec<u32>) {
        let cfg = ParallelConfig {
            threads: 2,
            batch_grain: 16,
            chunk_grain: 8,
            delete_grain: 16,
            rebuild_threshold: 0,
        };
        let mut g = ChurnGen::new(400, 800, seed);
        let mut eng: DynConnectivity<B> = DynConnectivity::new(400).with_parallel_config(cfg);
        let mut reports = vec![eng.apply(&g.load_batches(800)[0]).to_string()];
        for round in 0..30 {
            // every third batch is delete-heavy, so components split
            let (del, ins) = if round % 3 == 0 { (150, 100) } else { (40, 60) };
            reports.push(eng.apply(&g.next_batch(del, ins)).to_string());
        }
        let mut labels = Vec::new();
        eng.export_component_labels(&mut labels);
        (reports, labels)
    }

    #[test]
    fn wrapper_is_transparent() {
        let before = totals(Call::Cut).1;
        for seed in [1, 2, 3] {
            assert_eq!(replay::<UfoForest>(seed), replay::<Timed<UfoForest>>(seed));
        }
        assert!(totals(Call::Cut).1 > before, "the wrapper saw the cuts");
    }
}
