//! The repository benchmark: three closed-loop workloads against the UFO
//! product path, each checked against an independent oracle.
//!
//! ```text
//! perfbench --workload <forest-hubs|engine-churn|serve-read-write> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics.  With
//! `--trace 1` it first measures untraced for half the time, then runs a
//! fixed amount of work with spans recorded around every layer call, and
//! reports the per-layer metrics, self time per layer and the tracing
//! overhead; spans and the per-layer table are written under `.bench_out/`.
//! Human-readable lines go to stderr; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod affinity;
mod engine_churn;
mod forest_hubs;
mod gen;
mod oracle;
mod serve_rw;
mod stats;
mod timed;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use stats::Samples;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("update_ops_per_s", "ops/s"),
    ("update_batch_p50_ms", "ms"),
    ("update_batch_p90_ms", "ms"),
    ("query_ops_per_s", "ops/s"),
    ("query_batch_p50_ms", "ms"),
    ("query_batch_p90_ms", "ms"),
    ("bytes_per_edge", "B"),
];

/// Per-layer metrics of the traced run.  Every traced run reports all of
/// them; a metric of a layer call the workload does not make reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("ufo.cut_us_p50.star", "us"),
    ("ufo.cut_us_p50.dand", "us"),
    ("ufo.cut_us_p50.kary64", "us"),
    ("ufo.cut_us_p50.pattach", "us"),
    ("ufo.link_us_p50.star", "us"),
    ("ufo.link_us_p50.dand", "us"),
    ("ufo.link_us_p50.kary64", "us"),
    ("ufo.link_us_p50.pattach", "us"),
    ("ufo.path_sum_us_p50.star", "us"),
    ("ufo.path_sum_us_p50.dand", "us"),
    ("ufo.path_sum_us_p50.kary64", "us"),
    ("ufo.path_sum_us_p50.pattach", "us"),
    ("ufo.connected_us_p50", "us"),
    ("ufo.height_max.star", "count"),
    ("ufo.height_max.dand", "count"),
    ("ufo.height_max.kary64", "count"),
    ("ufo.height_max.pattach", "count"),
    ("ufo.live_clusters", "count"),
    ("ufo.link_ms", "ms"),
    ("ufo.cut_ms", "ms"),
    ("ufo.probe_ms", "ms"),
    ("ufo.link_calls", "count"),
    ("ufo.cut_calls", "count"),
    ("ufo.probe_calls", "count"),
    ("ufo.export_ms", "ms"),
    ("ufo.self_ms", "ms"),
    ("connectivity.apply_ms_p50", "ms"),
    ("connectivity.self_ms", "ms"),
    ("connectivity.replacement_searches", "count"),
    ("connectivity.replacement_edges_scanned", "count"),
    ("connectivity.smaller_side_vertices", "count"),
    ("connectivity.searches_fanned_out", "count"),
    ("connectivity.insert_certificates_used", "count"),
    ("connectivity.delete_nontree_drained", "count"),
    ("rayon.busy_ms.slot0", "ms"),
    ("rayon.busy_ms.slot1", "ms"),
    ("rayon.helper_jobs", "count"),
    ("serve.apply_ms_p50", "ms"),
    ("serve.publish_ms_p50", "ms"),
    ("serve.publish_share", "ratio"),
    ("serve.self_ms", "ms"),
    ("serve.reader_block_us_p50", "us"),
    ("serve.reader_block_us_p90", "us"),
    ("serve.reader_epoch_advances", "count"),
    ("serve.snapshot_bytes", "B"),
    ("trace.overhead_pct.update_ops_per_s", "%"),
    ("trace.overhead_pct.query_ops_per_s", "%"),
    ("trace.spans", "count"),
    ("trace.nesting_violations", "count"),
    ("trace.traced_update_ops_per_s", "ops/s"),
    ("trace.traced_query_ops_per_s", "ops/s"),
];

/// The timing metrics are read on the fast side of the run: the run's
/// samples are cut into [`WINDOWS_PER_S`] windows per second of measurement,
/// and each metric is the value of the window at this percentile from the
/// fastest (see [`Samples::fast_rate`] and [`Samples::fast_pct_s`]).  On a
/// shared host a CPU's speed drops by up to half for 5-40 s at a time, at
/// different times on different CPUs, so a whole-run median measures how
/// much of the run fell in such a stretch; the fast side does not.
pub const FAST: f64 = 5.0;

/// Timing windows per second of measurement.
pub const WINDOWS_PER_S: f64 = 2.0;

/// Fewest samples a timing window holds.
pub const MIN_WINDOW: usize = 8;

/// Metric names of the update calls and of the query blocks.
pub const UPDATE_METRICS: [&str; 3] = [
    "update_ops_per_s",
    "update_batch_p50_ms",
    "update_batch_p90_ms",
];
pub const QUERY_METRICS: [&str; 3] = [
    "query_ops_per_s",
    "query_batch_p50_ms",
    "query_batch_p90_ms",
];

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// Length of the untraced measurement: all of the run, or half of it
    /// when a traced pass follows.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    /// Ops per second inside the calls over the whole untraced measurement,
    /// by throughput metric name: the base of the tracing overhead.
    pub whole_rate: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken structural checks; any makes the run incorrect.
    pub problems: Vec<String>,
    pub spans: Vec<trace::Span>,
    /// Human-readable lines (sample counts, shares).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records the throughput, p50 and p90 metrics (`names`, in that
    /// order: [`UPDATE_METRICS`] or [`QUERY_METRICS`]) of one closed-loop
    /// call series that ran for `seconds`.
    pub fn timings(&mut self, names: [&'static str; 3], ops: u64, batches: &Samples, seconds: f64) {
        let [tput, p50, p90] = names;
        let ops_per_call = ops as f64 / batches.len().max(1) as f64;
        let windows = ((seconds * WINDOWS_PER_S).round() as usize)
            .clamp(1, (batches.len() / MIN_WINDOW).max(1));
        self.whole_rate
            .insert(tput, ops as f64 / batches.total_s().max(1e-12));
        self.e2e
            .insert(tput, ops_per_call * batches.fast_rate(windows, FAST));
        self.e2e
            .insert(p50, batches.fast_pct_s(50.0, windows, FAST) * 1e3);
        self.e2e
            .insert(p90, batches.fast_pct_s(90.0, windows, FAST) * 1e3);
        self.notes.push(format!(
            "{tput}: {ops} ops in {} calls ({:.3} s inside calls); {windows} windows of {} calls, \
             read at the fast-side {FAST}th percentile (whole-run p50 {:.4} ms, p90 {:.4} ms)",
            batches.len(),
            batches.total_s(),
            batches.len() / windows,
            batches.pct_s(50.0) * 1e3,
            batches.pct_s(90.0) * 1e3
        ));
        let rates: Vec<String> = batches
            .window_rates(windows)
            .iter()
            .map(|r| format!("{:.0}", r * ops_per_call))
            .collect();
        self.notes
            .push(format!("{tput} by window: {}", rates.join(" ")));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// Tracing overhead: how much slower the traced pass ran than the
    /// untraced measurement, in percent of the untraced whole-run rate.
    pub fn overhead(&mut self, traced_update_ops_per_s: f64, traced_query_ops_per_s: f64) {
        for (kind, traced) in [
            ("update_ops_per_s", traced_update_ops_per_s),
            ("query_ops_per_s", traced_query_ops_per_s),
        ] {
            let untraced = self.whole_rate.get(kind).copied().unwrap_or(0.0);
            self.layer(format!("trace.traced_{kind}"), traced);
            if untraced > 0.0 {
                self.layer(
                    format!("trace.overhead_pct.{kind}"),
                    (untraced - traced) / untraced * 100.0,
                );
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Set-up timings of one run.  The first set-up builds the structure the
/// run measures; the others are spread evenly through the measurement, so
/// that their median, `setup_s`, does not rest on one stretch of host speed.
pub struct Setups {
    reps: usize,
    every_s: f64,
    times: Vec<f64>,
}

impl Setups {
    /// `reps` set-ups over a measurement of `seconds`.
    pub fn new(reps: usize, seconds: f64) -> Self {
        Setups {
            reps,
            every_s: seconds / reps as f64,
            times: Vec::new(),
        }
    }

    /// Runs and times one set-up.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let built = build();
        self.times.push(secs(start));
        built
    }

    /// Whether a spread-out set-up is due `elapsed` seconds into the
    /// measurement.
    pub fn due(&self, elapsed: f64) -> bool {
        self.times.len() < self.reps && elapsed >= self.every_s * self.times.len() as f64
    }

    /// Runs the set-ups the measurement left undone and records `setup_s`.
    pub fn finish<T>(mut self, mut build: impl FnMut() -> T, out: &mut Outcome) {
        while self.times.len() < self.reps {
            self.time(&mut build);
        }
        out.e2e.insert("setup_s", stats::median_f64(&self.times));
        out.notes.push(format!(
            "setup: median of {} set-ups spread over the run {:?} s",
            self.reps, self.times
        ));
    }
}

/// Pins the global pool's width before anything else touches it.
pub fn pin_pool(threads: usize) {
    if rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .is_err()
    {
        eprintln!("warning: the thread pool was already running; width not pinned");
    }
}

/// Seconds since `start`, as a float.
pub fn secs(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    })
}

/// Self time per layer, nesting check, and the span files.
fn analyse_trace(workload: &str, cfg: &Cfg, out: &mut Outcome) {
    let (self_ns, violations) = trace::self_times(&out.spans);
    out.layer("trace.spans", out.spans.len() as f64);
    out.layer("trace.nesting_violations", violations as f64);
    out.check(violations == 0, || {
        format!("{violations} spans escape their parent")
    });
    for (layer, own) in trace::self_by_layer(&out.spans, &self_ns) {
        out.layer(format!("{layer}.self_ms"), own as f64 / 1e6);
    }
    let table = trace::layer_table(&out.spans, &self_ns);
    eprint!("{table}");
    let stem = format!(".bench_out/{workload}-seed{}", cfg.seed);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(format!("{stem}-spans.json"), trace::spans_json(&out.spans)))
        .and_then(|()| std::fs::write(format!("{stem}-layers.txt"), &table));
    match written {
        Ok(()) => eprintln!("spans and layer table written to {stem}-*"),
        Err(e) => eprintln!("warning: could not write the trace files: {e}"),
    }
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let mut metrics = Vec::new();
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        let value = if trace {
            out.layer.get(name).copied()
        } else {
            out.e2e.get(name).copied()
        }
        .unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let mut out = match args.workload.as_str() {
        "forest-hubs" => forest_hubs::run(&cfg),
        "engine-churn" => engine_churn::run(&cfg),
        "serve-read-write" => serve_rw::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if cfg.trace {
        analyse_trace(&args.workload, &cfg, &mut out);
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!(
        "{} seed {} ({} s, trace {}): {} ops attempted, {} failed, failed_op_share {share} ratio",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        out.attempted,
        out.failed
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    for &(name, unit) in &END_TO_END {
        if let Some(v) = out.e2e.get(name) {
            eprintln!("  {name:<24} {v:>16.4} {unit}");
        }
    }
    for p in &out.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    println!("{}", json_line(&out, cfg.trace));
    ExitCode::SUCCESS
}
