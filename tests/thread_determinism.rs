//! Cross-thread-count determinism: the parallel batch paths must produce
//! **byte-identical** results at every pool width and fan-out.
//!
//! Two layers of defence:
//! * the CI thread matrix runs the whole workspace test suite (including the
//!   differential and proptest oracles) under `DYNTREE_THREADS=1`, `2` and
//!   `8`, so any thread-count-dependent divergence fails an entire CI leg;
//! * this file varies the *effective* fan-out in-process via
//!   [`ParallelConfig`] with grains forced low, so the chunked pre-passes
//!   and the grouped non-tree drain are exercised (and compared against
//!   the sequential reference) on every machine, even when the global pool
//!   has one thread.

use dyntree_connectivity::{DynConnectivity, SpanningBackend};
use dyntree_primitives::algebra::SumMinMax;
use dyntree_primitives::{GraphOp, ParallelConfig};
use dyntree_workloads::{
    churn_stream, road_grid_graph, sliding_window_stream, temporal_graph, FuzzTraceGen,
};
use ufo_forest::UfoForest;

/// A low-grain config: parallel code paths engage on small batches.
fn forced(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        batch_grain: 16,
        chunk_grain: 8,
        delete_grain: 16,
        ..ParallelConfig::default()
    }
}

fn replay<B: SpanningBackend<Weights = SumMinMax>>(
    batches: &[Vec<GraphOp>],
    cfg: ParallelConfig,
) -> (Vec<String>, usize, usize) {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(0).with_parallel_config(cfg);
    let mut lines = Vec::new();
    for batch in batches {
        let report = engine.apply(batch);
        // the Debug rendering covers every per-op outcome byte-for-byte
        lines.push(format!("{:?}", report.outcomes));
    }
    engine.check_invariants().unwrap();
    (lines, engine.component_count(), engine.num_edges())
}

#[test]
fn apply_reports_are_identical_across_fanouts() {
    let temporal = temporal_graph(600, 3, 17);
    let stream = sliding_window_stream(&temporal, 256, 0.1, 23);
    let batches = stream.graph_op_batches(512);
    let reference = replay::<UfoForest>(&batches, ParallelConfig::sequential());
    for threads in [2, 4, 8] {
        let wide = replay::<UfoForest>(&batches, forced(threads));
        assert_eq!(wide, reference, "fan-out {threads} diverged");
    }
    // and the default config (whatever DYNTREE_THREADS says) agrees too
    let default = replay::<UfoForest>(&batches, ParallelConfig::default());
    assert_eq!(default, reference);
}

#[test]
fn churn_stream_batches_are_identical_across_fanouts() {
    let road = road_grid_graph(16, 5);
    let stream = churn_stream(&road, 2_000, 0.9, 0.1, 7);
    let batches = stream.graph_op_batches(1024);
    let reference = replay::<UfoForest>(&batches, ParallelConfig::sequential());
    let wide = replay::<UfoForest>(&batches, forced(8));
    assert_eq!(wide, reference);
    let lct = replay::<dyntree_linkcut::LinkCutForest>(&batches, forced(8));
    let lct_ref = replay::<dyntree_linkcut::LinkCutForest>(&batches, ParallelConfig::sequential());
    assert_eq!(lct, lct_ref, "snapshot-less backend diverged");
}

/// Like [`replay`], but renders the **whole** `BatchReport` (outcomes and
/// every counter) per batch, so a drained delete that miscounted applied vs
/// skipped would diverge even if the outcome list happened to agree.
fn replay_full_reports<B: SpanningBackend<Weights = SumMinMax>>(
    batches: &[Vec<GraphOp>],
    cfg: ParallelConfig,
) -> (Vec<String>, usize, usize) {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(0).with_parallel_config(cfg);
    let mut lines = Vec::new();
    for batch in batches {
        let mut report = engine.apply(batch);
        // byte-comparisons here are about outcomes and counts; a stray
        // DYNTREE_TELEMETRY=1 in the environment must not smuggle
        // wall-clock nanos into the rendering
        report.telemetry = None;
        lines.push(format!("{report:?}"));
    }
    engine.check_invariants().unwrap();
    (lines, engine.component_count(), engine.num_edges())
}

#[test]
fn delete_heavy_fuzz_traces_are_identical_across_fanouts() {
    // teardown-dominated fuzz trace: long consecutive delete runs over
    // star/chain/clique topologies — the parallel drain's home turf
    let batches = FuzzTraceGen::new(0x00DE_1E7E)
        .with_ops(6_000)
        .with_vertices(96)
        .delete_heavy()
        .batches(512);
    let reference = replay_full_reports::<UfoForest>(&batches, ParallelConfig::sequential());
    for threads in [1, 2, 4, 8] {
        let wide = replay_full_reports::<UfoForest>(&batches, forced(threads));
        assert_eq!(wide, reference, "fan-out {threads} diverged");
    }
    let default = replay_full_reports::<UfoForest>(&batches, ParallelConfig::default());
    assert_eq!(default, reference);
}

#[test]
fn insert_burst_then_heavy_delete_traces_are_identical_across_fanouts() {
    // explicit two-act churn: build bursts, then majority-delete teardown of
    // the very edges just inserted (plus repeats, which skip) — more than
    // half of the mutations after the build are deletes
    let n = 128;
    let mut ops: Vec<GraphOp> = vec![GraphOp::AddVertices(n)];
    let mut x = 0x5EEDu64;
    let mut rand = move |m: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % m
    };
    let mut live: Vec<(usize, usize)> = Vec::new();
    for _round in 0..6 {
        // insert burst: chain backbone + random chords
        for _ in 0..400 {
            let (u, v) = if rand(4) == 0 {
                let i = rand(n - 1);
                (i, i + 1)
            } else {
                (rand(n), rand(n))
            };
            ops.push(GraphOp::InsertEdge(u, v));
            if u != v {
                live.push((u, v));
            }
        }
        // delete wave: > 50% of the burst, mostly live edges, some repeats
        for _ in 0..450 {
            if live.is_empty() {
                break;
            }
            let idx = rand(live.len());
            let (u, v) = live[idx];
            if rand(8) != 0 {
                live.swap_remove(idx);
            }
            ops.push(GraphOp::DeleteEdge(u, v));
        }
    }
    let batches: Vec<Vec<GraphOp>> = ops.chunks(700).map(<[GraphOp]>::to_vec).collect();
    let reference = replay_full_reports::<UfoForest>(&batches, ParallelConfig::sequential());
    for threads in [1, 2, 4, 8] {
        let wide = replay_full_reports::<UfoForest>(&batches, forced(threads));
        assert_eq!(wide, reference, "fan-out {threads} diverged");
    }
    // snapshot-less splay backend takes the sequential walk and must agree
    // with itself across fan-outs too
    let lct_ref = replay_full_reports::<dyntree_linkcut::LinkCutForest>(
        &batches,
        ParallelConfig::sequential(),
    );
    let lct_wide = replay_full_reports::<dyntree_linkcut::LinkCutForest>(&batches, forced(8));
    assert_eq!(lct_wide, lct_ref);
}

/// Disjoint chorded rings torn down by round-robin delete runs: every run
/// certifies tree and non-tree deletions in many distinct pre-batch
/// components.  The telemetry module below proves the chunked delete path
/// actually engages on this trace.
fn multi_component_teardown_batches() -> Vec<Vec<GraphOp>> {
    let (comps, size) = (8usize, 12usize);
    let mut ops = vec![GraphOp::AddVertices(comps * size)];
    for c in 0..comps {
        let base = c * size;
        for i in 0..size {
            ops.push(GraphOp::InsertEdge(base + i, base + (i + 1) % size));
        }
        // a chord, so early ring deletions find replacements
        ops.push(GraphOp::InsertEdge(base, base + size / 2));
    }
    // one long delete run, round-robin across the components
    for i in 0..size {
        for c in 0..comps {
            let base = c * size;
            ops.push(GraphOp::DeleteEdge(base + i, base + (i + 1) % size));
        }
    }
    vec![ops]
}

#[test]
fn multi_component_teardowns_are_identical_across_fanouts() {
    let batches = multi_component_teardown_batches();
    let reference = replay_full_reports::<UfoForest>(&batches, ParallelConfig::sequential());
    for threads in [1, 2, 4, 8] {
        let wide = replay_full_reports::<UfoForest>(&batches, forced(threads));
        assert_eq!(wide, reference, "fan-out {threads} diverged");
    }
    let default = replay_full_reports::<UfoForest>(&batches, ParallelConfig::default());
    assert_eq!(default, reference);
}

#[test]
fn mixed_churn_fuzz_traces_are_identical_across_fanouts() {
    // the default fuzz profile interleaves all op kinds (growth and weight
    // updates included), so delete runs start and stop at arbitrary offsets
    for seed in [11u64, 12] {
        let batches = FuzzTraceGen::new(seed).with_ops(4_000).batches(640);
        let reference = replay_full_reports::<UfoForest>(&batches, ParallelConfig::sequential());
        for threads in [2, 8] {
            let wide = replay_full_reports::<UfoForest>(&batches, forced(threads));
            assert_eq!(wide, reference, "seed {seed} fan-out {threads} diverged");
        }
    }
}

/// Telemetry counter determinism (`--features telemetry`): the counter part
/// of a snapshot is data, not timing, and must obey the same determinism
/// contract as the reports themselves.
///
/// Two strengths are asserted:
/// * the **full** counter set (certificates, probes, drains included) is a
///   pure function of the trace and the `ParallelConfig` — identical across
///   repeated runs at the same config, whatever the pool width (the CI
///   thread matrix varies `DYNTREE_THREADS` over this very test);
/// * the **core HDT counters** (replacement searches / scanned edges /
///   promotions, level bumps, smaller-side sizes, component splits) don't
///   depend on the fan-out at all — the sequential walk and every forced
///   chunking agree, even though the certificate/probe counters legitimately
///   differ between the sequential and classified delete paths.
#[cfg(feature = "telemetry")]
mod telemetry_counters {
    use super::{forced, FuzzTraceGen, ParallelConfig, SumMinMax};
    use dyntree_connectivity::{DynConnectivity, SpanningBackend};
    use dyntree_primitives::{GraphOp, Telemetry};

    const CORE: [&str; 7] = [
        "replacement_searches",
        "replacement_edges_scanned",
        "replacement_promotions",
        "level_bumps_tree",
        "level_bumps_nontree",
        "smaller_side_vertices",
        "component_splits",
    ];

    /// Replays `batches` with an engine-local enabled telemetry handle and
    /// returns (full counter fingerprint, core-counter fingerprint).
    fn counter_fingerprints<B: SpanningBackend<Weights = SumMinMax>>(
        batches: &[Vec<GraphOp>],
        cfg: ParallelConfig,
    ) -> (String, String) {
        let mut engine: DynConnectivity<B> = DynConnectivity::new(0)
            .with_parallel_config(cfg)
            .with_telemetry(Telemetry::enabled());
        for batch in batches {
            engine.apply(batch);
        }
        engine.check_invariants().unwrap();
        let snap = engine.telemetry_snapshot().expect("telemetry enabled");
        let core = CORE
            .iter()
            .map(|name| format!("{name}={}", snap.counter(name)))
            .collect::<Vec<_>>()
            .join(" ");
        (snap.counters_fingerprint(), core)
    }

    #[test]
    fn counters_are_deterministic_across_fanouts() {
        let batches = FuzzTraceGen::new(0x7E1E)
            .with_ops(6_000)
            .with_vertices(96)
            .delete_heavy()
            .batches(512);
        type Ufo = ufo_forest::UfoForest;

        let (seq_full, seq_core) =
            counter_fingerprints::<Ufo>(&batches, ParallelConfig::sequential());
        assert!(
            seq_core.contains("replacement_searches=")
                && !seq_core.contains("replacement_searches=0 "),
            "trace too tame to exercise replacement search: {seq_core}"
        );

        // full fingerprint: reproducible at a fixed config
        let (again_full, _) = counter_fingerprints::<Ufo>(&batches, ParallelConfig::sequential());
        assert_eq!(seq_full, again_full, "sequential replay not reproducible");
        let (wide_a, _) = counter_fingerprints::<Ufo>(&batches, forced(4));
        let (wide_b, _) = counter_fingerprints::<Ufo>(&batches, forced(4));
        assert_eq!(wide_a, wide_b, "forced(4) replay not reproducible");

        // core HDT counters: invariant across every fan-out AND the
        // sequential walk
        for threads in [1, 2, 8] {
            let (_, core) = counter_fingerprints::<Ufo>(&batches, forced(threads));
            assert_eq!(
                core, seq_core,
                "core counters diverged at fan-out {threads}"
            );
        }
        let (_, default_core) = counter_fingerprints::<Ufo>(&batches, ParallelConfig::default());
        assert_eq!(
            default_core, seq_core,
            "default config core counters diverged"
        );
    }

    /// The chunked delete path must actually engage on a multi-component
    /// teardown (`delete_certificates_issued > 0` at pool width ≥ 2) while
    /// the byte-identity sweep over the same trace holds — a classification
    /// pre-pass that silently never fires would make that sweep vacuous.
    #[test]
    fn delete_pre_pass_engages_on_multi_component_teardowns() {
        use dyntree_connectivity::DynConnectivity;
        type Ufo = ufo_forest::UfoForest;

        let batches = super::multi_component_teardown_batches();
        let issued = |cfg: ParallelConfig| -> u64 {
            let mut engine: DynConnectivity<Ufo> = DynConnectivity::new(0)
                .with_parallel_config(cfg)
                .with_telemetry(Telemetry::enabled());
            for batch in &batches {
                engine.apply(batch);
            }
            engine.check_invariants().unwrap();
            engine
                .telemetry_snapshot()
                .expect("telemetry enabled")
                .counter("delete_certificates_issued")
        };
        assert_eq!(issued(ParallelConfig::sequential()), 0);
        assert_eq!(issued(forced(1)), 0, "1-thread pool must not classify");
        for threads in [2, 4, 8] {
            assert!(
                issued(forced(threads)) > 0,
                "delete pre-pass never engaged at pool width {threads}"
            );
        }
    }
}

#[test]
fn parallel_config_still_gates_small_batches() {
    // the engine must take the sequential pre-pass for tiny batches no
    // matter how wide the pool is — outcome equality is checked above, this
    // pins the *config* contract satellite
    let cfg = ParallelConfig::with_threads(64);
    assert!(!cfg.worth(cfg.batch_grain - 1));
    assert!(!ParallelConfig::sequential().worth(1 << 30));
}
