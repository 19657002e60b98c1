//! `serve-read-write`: a `ServingEngine<UfoForest>` writer with no pool
//! fan-out applies 256-op churn batches (half deletes of live edges, half
//! inserts of new ones) to a ~8k-vertex graph, and after each batch a
//! reader runs a block of `connected` / `component_size` / `component_agg`
//! queries against a `ReadHandle`.  Writer and reader take turns on one
//! thread: two threads busy at once on this benchmark's two-CPU host ran
//! whole runs at half speed or full speed depending on where the host put
//! them, which no amount of measuring inside a run could steady.  Sampled
//! reader answers are checked afterwards against a DSU of the edge set of
//! the epoch they were read at.

use std::hint::black_box;
use std::time::Instant;

use dyntree_connectivity::{DynConnectivity, GraphOp, SpanningBackend};
use dyntree_primitives::algebra::SumMinMax;
use dyntree_primitives::{ParallelConfig, Telemetry};
use dyntree_serve::{ReadHandle, ServingEngine};
use ufo_forest::UfoForest;

use crate::affinity::Rotation;
use crate::gen::{self, ChurnGen};
use crate::oracle::{check_read_samples, ReadSample};
use crate::stats::{percentile, Samples};
use crate::timed::{self, Call, Timed};
use crate::{pin_pool, secs, trace, Cfg, Outcome, Setups};

const N: usize = 8_192;
/// Average degree 4.
const M: usize = 2 * N;
/// Ops per writer batch: half deletes, half inserts.
const BATCH: usize = 256;
/// Queries per reader block.
const READ_BLOCK: usize = 262_144;
/// Every this many reader blocks, two of its answers are kept for checking.
const SAMPLE_EVERY: u64 = 16;
/// Epochs rebuilt by the sample check.
const CHECK_EPOCHS: usize = 48;
/// Insert ops per set-up `apply`.
const LOAD_CHUNK: usize = 8192;
const SETUP_REPS: usize = 21;
/// Batches over which peak memory is sampled (every 16th): a fixed count,
/// so the figure does not depend on how many batches the host managed.
const MEMORY_BATCHES: usize = 256;
/// Writer batches in the traced pass.
const TRACE_BATCHES: usize = 150;
/// Stream id of the reader's vertex inputs.
const READER_STREAM: u64 = 0x5245_4144;

/// The set-up batches: every vertex weight, then the initial edges.
fn setup_batches(g: &ChurnGen, weights: &[i64]) -> Vec<Vec<GraphOp>> {
    let set = weights
        .iter()
        .enumerate()
        .map(|(v, &w)| GraphOp::SetWeight(v, w))
        .collect();
    let mut batches = vec![set];
    batches.extend(g.load_batches(LOAD_CHUNK));
    batches
}

fn check_load(missed: u64, out: &mut Outcome) {
    out.check(missed == 0, || format!("set-up missed {missed} ops"));
}

/// Applies the set-up batches to a fresh serving engine; returns it and the
/// number of ops that did not apply.
fn load<B: SpanningBackend<Weights = SumMinMax>>(
    batches: &[Vec<GraphOp>],
    tel: Telemetry,
) -> (ServingEngine<B>, u64) {
    let mut srv = ServingEngine::<B>::new(N)
        .with_telemetry(tel)
        .with_parallel_config(ParallelConfig::sequential());
    let missed = batches
        .iter()
        .map(|ops| (ops.len() - srv.apply(ops).applied) as u64)
        .sum();
    (srv, missed)
}

/// What the reader measured.
#[derive(Default)]
struct ReaderRun {
    blocks: Samples,
    queries: u64,
    epoch_advances: u64,
    samples: Vec<ReadSample>,
}

/// The reader: one block of queries per call.  Inputs are drawn up front;
/// one `component_agg` and one `connected` answer of every
/// `SAMPLE_EVERY`-th block are kept for the oracle.
struct Reader {
    h: ReadHandle<SumMinMax>,
    verts: Vec<u32>,
    at: usize,
    epoch: u64,
    run: ReaderRun,
}

impl Reader {
    fn new(h: ReadHandle<SumMinMax>, seed: u64) -> Self {
        let epoch = h.epoch();
        Reader {
            h,
            verts: gen::vertices(N, 1 << 16, seed, READER_STREAM),
            at: 0,
            epoch,
            run: ReaderRun::default(),
        }
    }

    fn block(&mut self) {
        let _s = trace::open("reader.block");
        let (h, verts, at) = (&mut self.h, &self.verts, self.at);
        let mask = verts.len() - 1;
        let t = Instant::now();
        let v0 = verts[at & mask] as usize;
        let first = h.component_agg(v0);
        let (u1, v1) = (
            verts[(at + 1) & mask] as usize,
            verts[(at + 2) & mask] as usize,
        );
        let second = h.connected(u1, v1);
        let mut acc = first.value.map_or(0, |a| a.count) + u64::from(second.value);
        for q in 2..READ_BLOCK {
            let i = at + 2 * q;
            let (a, b) = (verts[i & mask] as usize, verts[(i + 1) & mask] as usize);
            acc += match q % 3 {
                0 => u64::from(h.connected(a, b).value),
                1 => h.component_size(a).value,
                _ => h.component_agg(a).value.map_or(0, |g| g.count),
            };
        }
        let run = &mut self.run;
        run.blocks.push(t.elapsed());
        black_box(acc);
        self.at = at.wrapping_add(2 * READ_BLOCK + 1);
        run.queries += READ_BLOCK as u64;
        if h.epoch() != self.epoch {
            run.epoch_advances += 1;
            self.epoch = h.epoch();
        }
        if (run.blocks.len() as u64 - 1).is_multiple_of(SAMPLE_EVERY) {
            let (count, sum) = first.value.map_or((0, i64::MIN), |a| (a.count, a.sum));
            run.samples.push(ReadSample::Agg {
                epoch: first.epoch,
                v: v0,
                count,
                sum,
            });
            run.samples.push(ReadSample::Connected {
                epoch: second.epoch,
                u: u1,
                v: v1,
                answer: second.value,
            });
        }
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    pin_pool(1);
    let mut out = Outcome::default();
    let weights = gen::graph_weights(N, cfg.seed);

    let mut setups = Setups::new(SETUP_REPS, cfg.measure_seconds());
    let mut g = ChurnGen::new(N, M, cfg.seed);
    let load_ops = setup_batches(&g, &weights);
    let (mut srv, missed) = setups.time(|| load::<UfoForest>(&load_ops, Telemetry::disabled()));
    check_load(missed, &mut out);

    let initial = g.live().to_vec();
    let base = srv.latest_epoch();
    let mut batches: Vec<Vec<GraphOp>> = Vec::new();
    let mut updates = Samples::default();
    let mut peak_bytes_per_edge: f64 = 0.0;
    let mut reader = Reader::new(srv.reader(), cfg.seed);
    let mut rotation = Rotation::new();
    let start = Instant::now();
    while secs(start) < cfg.measure_seconds() {
        rotation.tick(secs(start));
        if setups.due(secs(start)) {
            let (_, missed) = setups.time(|| load::<UfoForest>(&load_ops, Telemetry::disabled()));
            check_load(missed, &mut out);
        }
        let ops = g.next_batch(BATCH / 2, BATCH / 2);
        let t = Instant::now();
        let report = srv.apply(black_box(&ops));
        updates.push(t.elapsed());
        reader.block();
        out.failed += (ops.len() - report.applied) as u64;
        batches.push(ops);
        if batches.len() % 16 == 1 && batches.len() <= MEMORY_BATCHES {
            let bytes = srv.memory_breakdown().total() as f64;
            peak_bytes_per_edge = peak_bytes_per_edge.max(bytes / srv.engine().num_edges() as f64);
        }
    }
    drop(rotation);
    setups.finish(
        || load::<UfoForest>(&load_ops, Telemetry::disabled()),
        &mut out,
    );
    let read = reader.run;
    out.attempted += (batches.len() * BATCH) as u64 + read.queries;
    out.timings(
        crate::UPDATE_METRICS,
        (batches.len() * BATCH) as u64,
        &updates,
        cfg.measure_seconds(),
    );
    out.timings(
        crate::QUERY_METRICS,
        read.queries,
        &read.blocks,
        cfg.measure_seconds(),
    );
    out.e2e.insert("bytes_per_edge", peak_bytes_per_edge);
    out.check(srv.latest_epoch() == base + batches.len() as u64, || {
        "every batch publishes one epoch".into()
    });

    let (checked, wrong) = check_read_samples(
        &weights,
        &initial,
        &batches,
        base,
        &read.samples,
        CHECK_EPOCHS,
    );
    out.failed += wrong;
    out.notes.push(format!(
        "reader: {} samples kept, {checked} checked against per-epoch DSUs, {wrong} wrong; {} epoch advances",
        read.samples.len(),
        read.epoch_advances
    ));

    if cfg.trace {
        let first = traced_pass(cfg, &weights, &mut out, true);
        let second = traced_pass(cfg, &weights, &mut out, false);
        out.check(first == second, || {
            format!("writer counts differ across traced passes: {first} vs {second}")
        });
    }
    out
}

/// A fixed number of batches, each applied through the serving engine and
/// through a bare engine on the same ops and followed by a reader block.  Both
/// engines sit on the timing wrapper.  The first pass reports the per-layer
/// metrics; both return a fingerprint of the writer's structural counts.
fn traced_pass(cfg: &Cfg, weights: &[i64], out: &mut Outcome, report: bool) -> String {
    let mut g = ChurnGen::new(N, M, cfg.seed);
    let (mut srv, missed) =
        load::<Timed<UfoForest>>(&setup_batches(&g, weights), Telemetry::enabled());
    out.check(missed == 0, || format!("traced set-up missed {missed} ops"));
    let mut bare: DynConnectivity<Timed<UfoForest>> =
        DynConnectivity::new(N).with_parallel_config(ParallelConfig::sequential());
    for ops in g.load_batches(LOAD_CHUNK) {
        bare.apply(&ops);
    }
    srv.engine().telemetry().reset();
    timed::reset();

    let (mut serve_ns, mut bare_ns) = (Vec::new(), Vec::new());
    let mut writer_ops = 0u64;
    let mut reader = Reader::new(srv.reader(), cfg.seed);
    trace::start();
    for _ in 0..TRACE_BATCHES {
        let ops = g.next_batch(BATCH / 2, BATCH / 2);
        let t = Instant::now();
        let served = {
            let _s = trace::open_cause("serve.apply");
            srv.apply(black_box(&ops))
        };
        serve_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let plain = {
            let _s = trace::open_cause("connectivity.apply");
            bare.apply(black_box(&ops))
        };
        bare_ns.push(t.elapsed().as_nanos() as u64);
        reader.block();
        out.failed += (2 * ops.len() - served.applied - plain.applied) as u64;
        writer_ops += ops.len() as u64;
    }
    let spans = trace::stop();
    let read = reader.run;
    out.attempted += 2 * writer_ops + read.queries;

    let snap = srv.engine().telemetry_snapshot();
    let mut fingerprint = format!(
        "epoch={} components={} edges={} links={} cuts={} exports={}",
        srv.latest_epoch(),
        srv.engine().component_count(),
        srv.engine().num_edges(),
        timed::totals(Call::Link).1,
        timed::totals(Call::Cut).1,
        timed::totals(Call::Export).1,
    );
    if let Some(s) = &snap {
        // the reader family depends on how fast the reader ran
        for &(name, v) in &s.counters {
            if name != "reader_queries_served" && name != "stale_epoch_reads" {
                fingerprint.push_str(&format!(" {name}={v}"));
            }
        }
    }
    if !report {
        return fingerprint;
    }

    let serve_s = serve_ns.iter().sum::<u64>() as f64 / 1e9;
    out.overhead(
        writer_ops as f64 / serve_s,
        read.queries as f64 / read.blocks.total_s(),
    );
    let publish: Vec<u64> = serve_ns
        .iter()
        .zip(&bare_ns)
        .map(|(s, b)| s.saturating_sub(*b))
        .collect();
    out.layer("serve.apply_ms_p50", percentile(&serve_ns, 50.0) / 1e6);
    out.layer(
        "connectivity.apply_ms_p50",
        percentile(&bare_ns, 50.0) / 1e6,
    );
    out.layer("serve.publish_ms_p50", percentile(&publish, 50.0) / 1e6);
    out.layer(
        "serve.publish_share",
        publish.iter().sum::<u64>() as f64 / serve_ns.iter().sum::<u64>().max(1) as f64,
    );
    let exports: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "ufo.export")
        .map(|s| s.dur_ns())
        .collect();
    out.layer("ufo.export_ms", percentile(&exports, 50.0) / 1e6);
    for (call, name) in [
        (Call::Link, "link"),
        (Call::Cut, "cut"),
        (Call::Probe, "probe"),
    ] {
        let (nanos, calls) = timed::totals(call);
        out.layer(format!("ufo.{name}_ms"), nanos as f64 / 1e6);
        out.layer(format!("ufo.{name}_calls"), calls as f64);
    }
    out.layer("serve.reader_block_us_p50", read.blocks.pct_s(50.0) * 1e6);
    out.layer("serve.reader_block_us_p90", read.blocks.pct_s(90.0) * 1e6);
    out.layer("serve.reader_epoch_advances", read.epoch_advances as f64);
    out.layer("serve.snapshot_bytes", srv.ring().memory_bytes() as f64);
    out.spans = spans;
    fingerprint
}
