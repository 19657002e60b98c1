//! `engine-churn`: `DynConnectivity<UfoForest>` with the default
//! `ParallelConfig` on a pool of width 1: the batch passes still go through
//! the pool, but run on the calling thread (two busy threads on the two-CPU
//! host made whole runs go at full or two-thirds speed by where the host put
//! them; the width-2 pool was no faster).  The traced run uses a pool of
//! `nproc` threads.  A sparse random graph is
//! loaded during set-up; each transaction then deletes a run of random live
//! edges and inserts a run of new ones (both runs at least the default
//! parallel grains), followed by a block of `connected` queries.  Every
//! answer is checked against a DSU over the generator's live edge set.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dyntree_connectivity::{DynConnectivity, GraphOp, SpanningBackend};
use dyntree_primitives::algebra::SumMinMax;
use dyntree_primitives::{Telemetry, DELETE_GRAIN, PAR_GRAIN};
use ufo_forest::UfoForest;

use crate::affinity::Rotation;
use crate::gen::ChurnGen;
use crate::oracle::{mismatches, GraphDsu};
use crate::stats::{percentile, Samples};
use crate::timed::{self, Call, Timed};
use crate::{pin_pool, secs, trace, Cfg, Outcome, Setups};

const N: usize = 8_192;
/// Average degree 4.
const M: usize = 2 * N;
/// Deletes and inserts per transaction (each run reaches both grains).
const RUN: usize = if PAR_GRAIN > DELETE_GRAIN {
    PAR_GRAIN
} else {
    DELETE_GRAIN
};
/// `connected` queries per transaction, asked in blocks of `QUERY_BLOCK`.
const QUERIES: usize = 16_384;
const QUERY_BLOCK: usize = 4096;
const QUERY_BLOCKS: usize = QUERIES / QUERY_BLOCK;
/// Insert ops per set-up `apply`.
const LOAD_CHUNK: usize = 4096;
const SETUP_REPS: usize = 21;
/// Transactions over which peak memory is taken: a fixed count, so the
/// figure does not depend on how many transactions the host managed.
const MEMORY_TXNS: usize = 32;
/// Transactions in each traced pass.
const TRACE_TXNS: usize = 8;

/// Engine counters reported by the traced run (names as the engine's
/// telemetry exports them).
const COUNTERS: [&str; 6] = [
    "replacement_searches",
    "replacement_edges_scanned",
    "smaller_side_vertices",
    "searches_fanned_out",
    "insert_certificates_used",
    "delete_nontree_drained",
];

type Engine<B> = DynConnectivity<B>;

/// Applies the set-up batches; returns the engine and the number of ops
/// that did not apply.
fn load<B: SpanningBackend<Weights = SumMinMax>>(
    batches: &[Vec<GraphOp>],
    tel: Telemetry,
) -> (Engine<B>, u64) {
    let mut eng: Engine<B> = DynConnectivity::new(N).with_telemetry(tel);
    let missed = batches
        .iter()
        .map(|ops| (ops.len() - eng.apply(ops).applied) as u64)
        .sum();
    (eng, missed)
}

fn check_load(missed: u64, out: &mut Outcome) {
    out.check(missed == 0, || {
        format!("set-up load missed {missed} inserts")
    });
}

/// One transaction plus its query blocks; returns (apply wall, wall of each
/// query block, failed ops).  Checks run after the timed calls.
fn transaction<B: SpanningBackend<Weights = SumMinMax>>(
    eng: &mut Engine<B>,
    g: &mut ChurnGen,
    weights: &[i64],
    answers: &mut [Option<bool>],
) -> (Duration, [Duration; QUERY_BLOCKS], u64) {
    let ops = g.next_batch(RUN, RUN);
    let pairs = g.query_pairs(QUERIES);

    let t = Instant::now();
    let report = {
        let _s = trace::open_cause("connectivity.apply");
        eng.apply(black_box(&ops))
    };
    let apply = t.elapsed();
    let mut query = [Duration::ZERO; QUERY_BLOCKS];
    for (block, (answers, pairs)) in answers
        .chunks_mut(QUERY_BLOCK)
        .zip(pairs.chunks(QUERY_BLOCK))
        .enumerate()
    {
        let t = Instant::now();
        let _s = trace::open_cause("connectivity.query");
        for (a, &(u, v)) in answers.iter_mut().zip(pairs) {
            *a = eng.try_connected(u, v).ok();
        }
        query[block] = t.elapsed();
    }
    black_box(&answers);

    let mut dsu = GraphDsu::new(weights, g.live().iter().copied());
    let want: Vec<Option<bool>> = pairs
        .iter()
        .map(|&(u, v)| Some(dsu.connected(u, v)))
        .collect();
    let failed = (ops.len() - report.applied) as u64
        + mismatches(&want, answers)
        + u64::from(eng.component_count() != dsu.components());
    (apply, query, failed)
}

pub fn run(cfg: &Cfg) -> Outcome {
    // The traced run widens the pool to every CPU, so the pool's per-slot
    // busy time and the engine's fan-out counters have work to show.
    let threads = if cfg.trace {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    };
    pin_pool(threads);
    let mut out = Outcome::default();
    out.notes.push(format!("pool width {threads}"));
    let weights = vec![0i64; N];

    let mut setups = Setups::new(SETUP_REPS, cfg.measure_seconds());
    let mut g = ChurnGen::new(N, M, cfg.seed);
    let batches = g.load_batches(LOAD_CHUNK);
    let (mut eng, missed) = setups.time(|| load::<UfoForest>(&batches, Telemetry::disabled()));
    check_load(missed, &mut out);

    let (mut updates, mut queries) = (Samples::default(), Samples::default());
    let mut answers = vec![None; QUERIES];
    let mut peak_bytes_per_edge: f64 = 0.0;
    let mut rotation = Rotation::new();
    let start = Instant::now();
    while secs(start) < cfg.measure_seconds() {
        rotation.tick(secs(start));
        if setups.due(secs(start)) {
            let (_, missed) = setups.time(|| load::<UfoForest>(&batches, Telemetry::disabled()));
            check_load(missed, &mut out);
        }
        let (apply, query, failed) = transaction(&mut eng, &mut g, &weights, &mut answers);
        updates.push(apply);
        query.into_iter().for_each(|d| queries.push(d));
        out.failed += failed;
        if updates.len() <= MEMORY_TXNS {
            let bytes = eng.memory_breakdown().total() as f64;
            peak_bytes_per_edge = peak_bytes_per_edge.max(bytes / eng.num_edges() as f64);
        }
    }
    drop(rotation);
    setups.finish(
        || load::<UfoForest>(&batches, Telemetry::disabled()),
        &mut out,
    );
    let txns = updates.len() as u64;
    out.attempted += txns * (2 * RUN + QUERIES) as u64;
    out.timings(
        crate::UPDATE_METRICS,
        txns * 2 * RUN as u64,
        &updates,
        cfg.measure_seconds(),
    );
    out.timings(
        crate::QUERY_METRICS,
        txns * QUERIES as u64,
        &queries,
        cfg.measure_seconds(),
    );
    out.e2e.insert("bytes_per_edge", peak_bytes_per_edge);

    if cfg.trace {
        let first = traced_pass(cfg, &weights, &mut out, true);
        let second = traced_pass(cfg, &weights, &mut out, false);
        out.check(first == second, || {
            format!("structural counts differ across traced passes: {first} vs {second}")
        });
    }
    out
}

/// A fixed number of transactions over the timing wrapper with engine
/// telemetry on, from a fresh load.  The first pass reports the per-layer
/// metrics; both return a fingerprint of the structural counts.
fn traced_pass(cfg: &Cfg, weights: &[i64], out: &mut Outcome, report: bool) -> String {
    let mut g = ChurnGen::new(N, M, cfg.seed);
    let (mut eng, missed) =
        load::<Timed<UfoForest>>(&g.load_batches(LOAD_CHUNK), Telemetry::enabled());
    out.check(missed == 0, || {
        format!("traced load missed {missed} inserts")
    });
    eng.telemetry().reset();
    timed::reset();
    #[cfg(feature = "telemetry")]
    rayon::reset_global_pool_metrics();

    let mut answers = vec![None; QUERIES];
    let (mut apply_s, mut query_s) = (0.0, 0.0);
    trace::start();
    for _ in 0..TRACE_TXNS {
        let (apply, query, failed) = transaction(&mut eng, &mut g, weights, &mut answers);
        apply_s += apply.as_secs_f64();
        query_s += query.iter().map(Duration::as_secs_f64).sum::<f64>();
        out.failed += failed;
    }
    let spans = trace::stop();
    out.attempted += (TRACE_TXNS * (2 * RUN + QUERIES)) as u64;

    let snap = eng.telemetry_snapshot();
    let counter = |name: &str| snap.as_ref().map_or(0, |s| s.counter(name));
    let mut fingerprint = format!(
        "components={} edges={} links={} cuts={}",
        eng.component_count(),
        eng.num_edges(),
        timed::totals(Call::Link).1,
        timed::totals(Call::Cut).1
    );
    if let Some(s) = &snap {
        fingerprint.push(' ');
        fingerprint.push_str(&s.counters_fingerprint());
    }
    if !report {
        return fingerprint;
    }

    let ops = (TRACE_TXNS * 2 * RUN) as f64;
    out.overhead(ops / apply_s, (TRACE_TXNS * QUERIES) as f64 / query_s);
    for (call, name) in [
        (Call::Link, "link"),
        (Call::Cut, "cut"),
        (Call::Probe, "probe"),
    ] {
        let (nanos, calls) = timed::totals(call);
        out.layer(format!("ufo.{name}_ms"), nanos as f64 / 1e6);
        out.layer(format!("ufo.{name}_calls"), calls as f64);
    }
    let applies: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "connectivity.apply")
        .map(|s| s.dur_ns())
        .collect();
    out.layer(
        "connectivity.apply_ms_p50",
        percentile(&applies, 50.0) / 1e6,
    );
    for name in COUNTERS {
        out.layer(format!("connectivity.{name}"), counter(name) as f64);
    }
    #[cfg(feature = "telemetry")]
    {
        let pool = rayon::global_pool_metrics();
        for (slot, nanos) in pool.busy_nanos.iter().enumerate() {
            out.layer(format!("rayon.busy_ms.slot{slot}"), *nanos as f64 / 1e6);
        }
        out.layer("rayon.helper_jobs", pool.helper_jobs as f64);
    }
    out.spans = spans;
    fingerprint
}
