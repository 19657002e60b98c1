//! Recorded baselines: the workload registry ([`WORKLOADS`]), the row
//! functions that measure each workload, the JSON files under
//! `crates/bench/baselines/`, and the gate comparison.
//!
//! Every gated workload has exactly one measurement source — its registry
//! row function.  The `baseline` binary runs it to *write* a file
//! (`cargo run --release -p dyntree_bench --bin baseline -- <workload>`)
//! and the `bench_gate` binary runs it again to *compare* against that file.
//!
//! The JSON schema is deliberately tiny — one flat object per measurement
//! row, identity fields as strings/integers plus `*_per_s` throughput
//! metrics — so this module can round-trip it with a ~50-line parser instead
//! of a serde dependency the offline container does not have.  Writer and
//! parser only ever meet files this module itself produced.

use crate::{
    apply_time, batch_ops_single_time, batch_ops_traces, bulk_component_update_time,
    bulk_path_update_time, connectivity_bench_streams, memory_peak_of_trace,
    parallel_scaling_delete_trace, parallel_scaling_trace, serve_apply_time, serve_bench_mix,
    serve_plain_apply_time, serve_reader_query_time, stream_batch_replay_time, stream_replay_time,
    weighted_bench_forests, weighted_path_query_time, ConnBackend, WeightedBackend,
    REBUILD_BENCH_THRESHOLD, SCALE_BATCH,
};
use dyntree_primitives::ParallelConfig;

/// Whether a metric improves downwards (memory) instead of upwards
/// (throughput).  The gate inverts such ratios so "ratio ≥ 1 − tolerance"
/// keeps meaning "no worse than recorded" for every metric kind.
pub fn lower_is_better(metric: &str) -> bool {
    metric.ends_with("_per_edge") || metric.ends_with("_bytes")
}

/// One measurement row: identity fields (trace, backend, threads, …) plus
/// named metrics (`*_per_s` throughputs, `*_per_edge` / `*_bytes` memory).
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    /// Identity key/value pairs, in emission order.
    pub id: Vec<(String, String)>,
    /// Throughput metrics in ops/second.
    pub metrics: Vec<(String, f64)>,
}

impl BaselineRow {
    /// Canonical identity string (`trace=TEMP backend=ufo threads=4`).
    pub fn id_string(&self) -> String {
        self.id
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A whole recorded baseline: the workload name and its rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Workload identifier (matches the file stem).
    pub workload: String,
    /// Rows, one per (input, contender, …) combination.
    pub results: Vec<BaselineRow>,
}

impl Baseline {
    /// Serialises to the JSON layout stored under `crates/bench/baselines/`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        let memory_only = !self.results.is_empty()
            && self
                .results
                .iter()
                .all(|r| r.metrics.iter().all(|(k, _)| lower_is_better(k)));
        if memory_only {
            out.push_str("  \"unit\": \"bytes\",\n");
        } else {
            out.push_str("  \"unit\": \"ops_per_second\",\n");
        }
        out.push_str("  \"results\": [\n");
        let rows: Vec<String> = self
            .results
            .iter()
            .map(|row| {
                let mut fields: Vec<String> = row
                    .id
                    .iter()
                    .map(|(k, v)| {
                        if v.parse::<i64>().is_ok() {
                            format!("\"{k}\": {v}")
                        } else {
                            format!("\"{k}\": \"{v}\"")
                        }
                    })
                    .collect();
                fields.extend(row.metrics.iter().map(|(k, v)| format!("\"{k}\": {v:.0}")));
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads and parses a recorded baseline file.
    pub fn load(path: &std::path::Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable baseline at {}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("unparsable baseline: {e}"))
    }

    /// Parses a file produced by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let workload = scalar_field(text, "workload")
            .ok_or_else(|| "missing \"workload\" field".to_string())?;
        let results_at = text
            .find("\"results\"")
            .ok_or_else(|| "missing \"results\" field".to_string())?;
        let mut results = Vec::new();
        let mut rest = &text[results_at..];
        while let Some(open) = rest.find('{') {
            let close = rest[open..]
                .find('}')
                .ok_or_else(|| "unterminated row object".to_string())?;
            let body = &rest[open + 1..open + close];
            results.push(parse_row(body)?);
            rest = &rest[open + close + 1..];
        }
        Ok(Baseline { workload, results })
    }
}

fn scalar_field(text: &str, key: &str) -> Option<String> {
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at..];
    let colon = rest.find(':')?;
    let value = rest[colon + 1..].trim_start();
    let value = value.strip_prefix('"')?;
    Some(value[..value.find('"')?].to_string())
}

fn parse_row(body: &str) -> Result<BaselineRow, String> {
    let mut row = BaselineRow {
        id: Vec::new(),
        metrics: Vec::new(),
    };
    for field in body.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("malformed field {field:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        if let Some(stripped) = value.strip_prefix('"') {
            row.id
                .push((key, stripped.trim_end_matches('"').to_string()));
        } else if key.ends_with("_per_s") || lower_is_better(&key) {
            let v: f64 = value
                .parse()
                .map_err(|_| format!("bad metric value {value:?} for {key}"))?;
            row.metrics.push((key, v));
        } else {
            row.id.push((key, value.to_string()));
        }
    }
    Ok(row)
}

// ---------------------------------------------------------------------------
// Workload registry and measurement (shared by `baseline` and `bench_gate`)
// ---------------------------------------------------------------------------

/// Best-of repetitions per cell when recording a baseline.
pub const RECORD_REPS: usize = 3;

/// Best-of repetitions per cell when the gate re-measures (fewer than the
/// recorder, to keep CI fast).
pub const GATE_REPS: usize = 2;

/// How the gate judges a workload's ratios.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// Median ratio within `BENCH_GATE_TOLERANCE` (noisy timing metrics).
    Median,
    /// No cell worse than recorded (deterministic memory metrics).
    EveryCell,
}

/// One gated workload: the name shared by its baseline file
/// (`baselines/<name>.json`) and that file's `workload` field, the function
/// that measures its rows at a given best-of repetition count, and the
/// gate's rule for it.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Workload name (the baseline file stem).
    pub name: &'static str,
    /// Measures the rows, best of `reps` repetitions per timed cell.
    pub rows: fn(usize) -> Vec<BaselineRow>,
    /// How `bench_gate` judges the ratios.
    pub rule: Rule,
}

impl Workload {
    /// Measures the workload at `reps` best-of repetitions.
    pub fn measure(&self, reps: usize) -> Baseline {
        Baseline {
            workload: self.name.to_string(),
            results: (self.rows)(reps),
        }
    }

    /// Path of the recorded baseline file.
    pub fn baseline_path(&self) -> std::path::PathBuf {
        baselines_dir().join(format!("{}.json", self.name))
    }
}

/// Every gated workload, in the order `bench_gate` runs them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "connectivity_stream",
        rows: connectivity_stream_rows,
        rule: Rule::Median,
    },
    Workload {
        name: "batch_ops",
        rows: batch_ops_rows,
        rule: Rule::Median,
    },
    Workload {
        name: "weighted_path_queries",
        rows: weighted_path_query_rows,
        rule: Rule::Median,
    },
    Workload {
        name: "bulk_update",
        rows: bulk_update_rows,
        rule: Rule::Median,
    },
    Workload {
        name: "parallel_scaling",
        rows: parallel_scaling_rows,
        rule: Rule::Median,
    },
    Workload {
        name: "serve_throughput",
        rows: serve_throughput_rows,
        rule: Rule::Median,
    },
    Workload {
        name: "memory_usage",
        rows: memory_usage_rows,
        rule: Rule::EveryCell,
    },
];

/// The registry entry called `name`, if any.
pub fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sizes the global pool at 8 workers before any measurement runs: the
/// `threads=4/8` rows need that headroom whatever the host's
/// `DYNTREE_THREADS` says, and each measurement caps its own fan-out via
/// [`ParallelConfig`].
pub fn init_bench_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// Reads a gate tolerance from the environment variable `var`: `default`
/// when it is unset, else a fraction in `[0, 1)`.
///
/// # Panics
///
/// On any other value, naming `var`: a typo such as `0,5` or `15%` must not
/// silently fall back to the default and gate at a tolerance nobody asked
/// for.
pub fn tolerance_from_env(var: &str, default: f64) -> f64 {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse_tolerance(var, value.as_deref(), default)
}

/// [`tolerance_from_env`] on an already-read value (`None` = unset).
fn parse_tolerance(var: &str, value: Option<&str>, default: f64) -> f64 {
    let Some(value) = value else {
        return default;
    };
    match value.trim().parse::<f64>() {
        Ok(t) if (0.0..1.0).contains(&t) => t,
        _ => panic!("{var} must be a fraction in [0, 1) such as 0.25, got {value:?}"),
    }
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Measures the `connectivity_stream` workload (per-stream, per-backend
/// sequential and batch-64 replay throughput).
fn connectivity_stream_rows(reps: usize) -> Vec<BaselineRow> {
    let mut results = Vec::new();
    for stream in &connectivity_bench_streams() {
        let ops = stream.len() as f64;
        for backend in ConnBackend::ALL {
            let seq = best_of(reps, || stream_replay_time(backend, stream).0);
            let batch = best_of(reps, || stream_batch_replay_time(backend, stream, 64).0);
            results.push(BaselineRow {
                id: vec![
                    ("stream".into(), stream.name.clone()),
                    ("ops".into(), stream.len().to_string()),
                    ("backend".into(), backend.name().into()),
                ],
                metrics: vec![
                    ("seq_ops_per_s".into(), ops / seq),
                    ("batch64_ops_per_s".into(), ops / batch),
                ],
            });
        }
    }
    results
}

/// Measures the `batch_ops` workload: `apply` in 64- and 1024-op
/// transactions at an effective width of 1 and 4 threads, plus the
/// looped-singles reference on the 1-thread rows.
fn batch_ops_rows(reps: usize) -> Vec<BaselineRow> {
    let mut results = Vec::new();
    for (name, ops) in &batch_ops_traces() {
        let n = ops.len() as f64;
        for backend in ConnBackend::ALL {
            for threads in [1usize, 4] {
                let cfg = ParallelConfig::with_threads(threads);
                let mut metrics = Vec::new();
                if threads == 1 {
                    let single = best_of(reps, || batch_ops_single_time(backend, ops).0);
                    metrics.push(("single_ops_per_s".into(), n / single));
                }
                for batch in [64usize, 1024] {
                    let t = best_of(reps, || apply_time(backend, ops, batch, cfg).0);
                    metrics.push((format!("apply{batch}_ops_per_s"), n / t));
                }
                results.push(BaselineRow {
                    id: vec![
                        ("trace".into(), name.clone()),
                        ("ops".into(), ops.len().to_string()),
                        ("backend".into(), backend.name().into()),
                        ("threads".into(), threads.to_string()),
                    ],
                    metrics,
                });
            }
        }
    }
    results
}

/// Measures the `weighted_path_queries` workload (thread-independent: pure
/// query/update stream through the aggregation layer).
fn weighted_path_query_rows(reps: usize) -> Vec<BaselineRow> {
    let queries = 1000usize;
    let mut results = Vec::new();
    for (label, forest) in &weighted_bench_forests() {
        for backend in WeightedBackend::ALL {
            let t = best_of(reps, || {
                weighted_path_query_time(backend, forest, queries, 23).0
            });
            results.push(BaselineRow {
                id: vec![
                    ("forest".into(), (*label).into()),
                    ("ops".into(), queries.to_string()),
                    ("backend".into(), backend.name().into()),
                ],
                metrics: vec![("ops_per_s".into(), queries as f64 / t)],
            });
        }
    }
    results
}

/// Measures the `bulk_update` workload: lazy `PathApply`/`ComponentApply`
/// throughput next to the eager per-vertex `set_weight` loop each one
/// replaces (DESIGN.md §13).  The legs are measured at different round
/// counts — the lazy ops are several orders of magnitude faster and need
/// more rounds for a clean clock — but both metrics are per-bulk-update, so
/// the gap between `lazy_updates_per_s` and `eager_updates_per_s` in one
/// row *is* the speedup the lazy-action layer buys.  The path rows run on
/// the 2048-vertex path (where the eager leg can enumerate the corridor
/// without engine help); the component rows re-weight a whole spanning
/// tree per update.
fn bulk_update_rows(reps: usize) -> Vec<BaselineRow> {
    let (lazy_rounds, eager_rounds) = (20_000usize, 200usize);
    let mut results = Vec::new();

    let lazy = best_of(reps, || {
        bulk_path_update_time(false, 2_048, lazy_rounds, 17).0
    });
    let eager = best_of(reps, || {
        bulk_path_update_time(true, 2_048, eager_rounds, 17).0
    });
    results.push(BaselineRow {
        id: vec![
            ("forest".into(), "PATH-2048".into()),
            ("ops".into(), lazy_rounds.to_string()),
            ("backend".into(), "linkcut".into()),
            ("op".into(), "path_apply".into()),
        ],
        metrics: vec![
            ("lazy_updates_per_s".into(), lazy_rounds as f64 / lazy),
            ("eager_updates_per_s".into(), eager_rounds as f64 / eager),
        ],
    });

    for (label, forest) in &weighted_bench_forests() {
        let lazy = best_of(reps, || {
            bulk_component_update_time(false, forest, lazy_rounds, 23).0
        });
        let eager = best_of(reps, || {
            bulk_component_update_time(true, forest, eager_rounds, 23).0
        });
        results.push(BaselineRow {
            id: vec![
                ("forest".into(), (*label).into()),
                ("ops".into(), lazy_rounds.to_string()),
                ("backend".into(), "euler-treap".into()),
                ("op".into(), "component_apply".into()),
            ],
            metrics: vec![
                ("lazy_updates_per_s".into(), lazy_rounds as f64 / lazy),
                ("eager_updates_per_s".into(), eager_rounds as f64 / eager),
            ],
        });
    }
    results
}

/// Measures the `parallel_scaling` workload: `apply` throughput over the
/// insert-heavy and the delete-heavy 64k-op traces at effective widths
/// 1/2/4/8 on one shared pool, plus the delete-heavy trace re-run under the
/// rebuild-enabled config (`config=rebuild5` rows).
fn parallel_scaling_rows(reps: usize) -> Vec<BaselineRow> {
    let mut results = Vec::new();
    for (name, ops) in [parallel_scaling_trace(), parallel_scaling_delete_trace()] {
        let n = ops.len() as f64;
        for backend in [ConnBackend::Ufo, ConnBackend::LinkCut] {
            for threads in [1usize, 2, 4, 8] {
                let cfg = ParallelConfig::with_threads(threads);
                let t = best_of(reps, || apply_time(backend, &ops, SCALE_BATCH, cfg).0);
                results.push(BaselineRow {
                    id: vec![
                        ("trace".into(), name.clone()),
                        ("ops".into(), ops.len().to_string()),
                        ("backend".into(), backend.name().into()),
                        ("threads".into(), threads.to_string()),
                    ],
                    metrics: vec![("apply_ops_per_s".into(), n / t)],
                });
            }
        }
    }
    // the delete-heavy gate leg: SCALE-DEL-64k again with the rebuild
    // escape hatch armed (ufo only — the hatch needs a snapshot-capable
    // backend), so a regression in the relaxed canonical-outcome path
    // fails the gate like any other row
    let (name, ops) = parallel_scaling_delete_trace();
    let n = ops.len() as f64;
    for threads in [1usize, 2, 4, 8] {
        let cfg =
            ParallelConfig::with_threads(threads).with_rebuild_threshold(REBUILD_BENCH_THRESHOLD);
        let t = best_of(reps, || {
            apply_time(ConnBackend::Ufo, &ops, SCALE_BATCH, cfg).0
        });
        results.push(BaselineRow {
            id: vec![
                ("trace".into(), name.clone()),
                ("ops".into(), ops.len().to_string()),
                ("backend".into(), "ufo".into()),
                ("threads".into(), threads.to_string()),
                ("config".into(), format!("rebuild{REBUILD_BENCH_THRESHOLD}")),
            ],
            metrics: vec![("apply_ops_per_s".into(), n / t)],
        });
    }
    results
}

/// Measures the `serve_throughput` workload: the writer's apply+publish
/// throughput next to the bare engine's (their gap is the snapshot-build
/// cost `EXPERIMENTS.md` reports as a percentage of apply wall), and reader
/// query throughput at 1/2/8 reader threads under continuous writer churn.
/// On a single-CPU host the reader rows measure interleaving, not
/// parallelism — same caveat as `parallel_scaling`.
fn serve_throughput_rows(reps: usize) -> Vec<BaselineRow> {
    let (trace, mix) = serve_bench_mix();
    let ops: usize = mix.writer_batches.iter().map(Vec::len).sum();
    let mut results = Vec::new();

    // writer row (readers=0): publish-per-batch vs bare apply
    let serve_t = best_of(reps, || serve_apply_time(&mix).0);
    let plain_t = best_of(reps, || serve_plain_apply_time(&mix).0);
    results.push(BaselineRow {
        id: vec![
            ("trace".into(), trace.clone()),
            ("ops".into(), ops.to_string()),
            ("backend".into(), "ufo".into()),
            ("readers".into(), "0".into()),
        ],
        metrics: vec![
            ("apply_publish_ops_per_s".into(), ops as f64 / serve_t),
            ("apply_plain_ops_per_s".into(), ops as f64 / plain_t),
        ],
    });

    // reader rows: fixed query streams drained under live churn
    for readers in [1usize, 2, 8] {
        let queries = (readers * mix.reader_queries[0].len()) as f64;
        let t = best_of(reps, || serve_reader_query_time(&mix, readers).0);
        results.push(BaselineRow {
            id: vec![
                ("trace".into(), trace.clone()),
                ("ops".into(), ops.to_string()),
                ("backend".into(), "ufo".into()),
                ("readers".into(), readers.to_string()),
            ],
            metrics: vec![("reader_query_ops_per_s".into(), queries / t)],
        });
    }
    results
}

/// Measures the `memory_usage` workload: the engine's exact heap bytes per
/// live edge at the peak-load point of the two 64k-op scaling traces
/// (sampled at transaction boundaries), one row per backend.  No timing is
/// involved — the numbers are deterministic for a fixed trace — so the gate
/// fails on any cell that grows, instead of judging the median.
fn memory_usage_rows(_reps: usize) -> Vec<BaselineRow> {
    let mut results = Vec::new();
    for (name, ops) in [parallel_scaling_trace(), parallel_scaling_delete_trace()] {
        for backend in ConnBackend::ALL {
            let (bytes, edges) = memory_peak_of_trace(backend, &ops);
            results.push(BaselineRow {
                id: vec![
                    ("trace".into(), name.clone()),
                    ("ops".into(), ops.len().to_string()),
                    ("backend".into(), backend.name().into()),
                    ("edges".into(), edges.to_string()),
                ],
                metrics: vec![("bytes_per_edge".into(), bytes as f64 / edges.max(1) as f64)],
            });
        }
    }
    results
}

// ---------------------------------------------------------------------------
// Gate comparison
// ---------------------------------------------------------------------------

/// Outcome of re-measuring one workload against its recorded baseline.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Workload name.
    pub workload: String,
    /// Improvement ratio per metric, labelled `row-id metric`:
    /// `measured / recorded` for throughputs, `recorded / measured` for
    /// lower-is-better memory metrics — ≥ 1.0 always means "no worse".
    pub ratios: Vec<(String, f64)>,
    /// Median of [`ratios`](Self::ratios) (1.0 when empty).
    pub median_ratio: f64,
    /// Minimum of [`ratios`](Self::ratios) (1.0 when empty).
    pub min_ratio: f64,
    /// Baseline rows the fresh measurement did not reproduce at all.
    pub missing: Vec<String>,
    /// Lower-is-better (memory) cells whose fresh value differs from the
    /// recorded one at the recorded precision, as `(label, recorded,
    /// measured)`.  These cells are deterministic, so any entry here means
    /// the recorded file no longer matches the code, even inside tolerance.
    pub drifted: Vec<(String, f64, f64)>,
}

impl GateReport {
    /// Whether the workload passes at `tolerance` (a median throughput drop
    /// of more than `tolerance` — e.g. 0.25 — fails, as do missing rows).
    pub fn passes(&self, tolerance: f64) -> bool {
        self.missing.is_empty() && self.median_ratio >= 1.0 - tolerance
    }

    /// Exact rule for deterministic metrics (memory): no single cell may be
    /// worse than recorded, at the recorded precision.
    pub fn passes_every_cell(&self) -> bool {
        self.missing.is_empty() && self.min_ratio >= 1.0
    }
}

/// Compares a fresh measurement against the recorded baseline, matching
/// rows by identity fields **except** `ops` and `edges` (trace sizes and
/// the derived live-edge counts may legitimately drift when workloads are
/// retuned; the metrics are already size-normalised).
pub fn compare(recorded: &Baseline, measured: &Baseline) -> GateReport {
    let key = |row: &BaselineRow| -> Vec<(String, String)> {
        row.id
            .iter()
            .filter(|(k, _)| k != "ops" && k != "edges")
            .cloned()
            .collect()
    };
    let mut ratios = Vec::new();
    let mut missing = Vec::new();
    let mut drifted = Vec::new();
    for old in &recorded.results {
        let Some(new) = measured.results.iter().find(|r| key(r) == key(old)) else {
            missing.push(old.id_string());
            continue;
        };
        for (metric, old_v) in &old.metrics {
            let Some((_, new_v)) = new.metrics.iter().find(|(k, _)| k == metric) else {
                missing.push(format!("{} {metric}", old.id_string()));
                continue;
            };
            let label = format!("{} {metric}", old.id_string());
            // memory cells compare as the JSON stores them (`{:.0}`), so a
            // sub-byte move is neither drift nor growth
            let recorded_as = |v: f64| -> f64 { format!("{v:.0}").parse().unwrap() };
            if lower_is_better(metric) && recorded_as(*old_v) != recorded_as(*new_v) {
                drifted.push((label.clone(), *old_v, *new_v));
            }
            if *old_v > 0.0 && *new_v > 0.0 {
                let ratio = if lower_is_better(metric) {
                    recorded_as(*old_v) / recorded_as(*new_v)
                } else {
                    new_v / old_v
                };
                ratios.push((label, ratio));
            }
        }
    }
    let median_ratio = median(ratios.iter().map(|(_, r)| *r));
    let min_ratio = ratios.iter().map(|(_, r)| *r).fold(f64::INFINITY, f64::min);
    GateReport {
        workload: recorded.workload.clone(),
        ratios,
        median_ratio,
        min_ratio: if min_ratio.is_finite() {
            min_ratio
        } else {
            1.0
        },
        missing,
        drifted,
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 1.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Directory holding the recorded baseline JSON files.
pub fn baselines_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            workload: "demo".into(),
            results: vec![
                BaselineRow {
                    id: vec![
                        ("trace".into(), "T-1".into()),
                        ("ops".into(), "100".into()),
                        ("threads".into(), "4".into()),
                    ],
                    metrics: vec![("apply_ops_per_s".into(), 1234.0)],
                },
                BaselineRow {
                    id: vec![("trace".into(), "T-2".into()), ("ops".into(), "7".into())],
                    metrics: vec![
                        ("seq_ops_per_s".into(), 10.0),
                        ("batch64_ops_per_s".into(), 20.0),
                    ],
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let b = sample();
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn parses_the_preexisting_schema() {
        // the shape PR 1–3 recorded (numeric ops, no threads field)
        let text = r#"{
  "workload": "connectivity_stream",
  "unit": "ops_per_second",
  "results": [
    {"stream": "TEMP", "ops": 25021, "backend": "ufo", "seq_ops_per_s": 61581, "batch64_ops_per_s": 65614}
  ]
}"#;
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.workload, "connectivity_stream");
        assert_eq!(b.results.len(), 1);
        assert_eq!(b.results[0].id.len(), 3);
        assert_eq!(b.results[0].metrics.len(), 2);
    }

    #[test]
    fn gate_math_flags_regressions_and_missing_rows() {
        let recorded = sample();
        let mut measured = sample();
        // 50% regression on one metric, the rest unchanged → median sits at
        // the unchanged 1.0 and the gate passes at 25%
        measured.results[0].metrics[0].1 = 617.0;
        let report = compare(&recorded, &measured);
        assert!(report.passes(0.25));
        // regress everything → fail
        for row in &mut measured.results {
            for m in &mut row.metrics {
                m.1 *= 0.5;
            }
        }
        let report = compare(&recorded, &measured);
        assert!(!report.passes(0.25));
        assert!((report.median_ratio - 0.5).abs() < 1e-9);
        // a vanished row is always a failure
        measured.results.pop();
        let report = compare(&recorded, &measured);
        assert!(!report.missing.is_empty());
        assert!(!report.passes(0.25));
    }

    #[test]
    fn memory_metrics_round_trip_and_gate_inverts_them() {
        let mem = Baseline {
            workload: "memory_usage".into(),
            results: vec![BaselineRow {
                id: vec![
                    ("trace".into(), "SCALE-64k".into()),
                    ("ops".into(), "65536".into()),
                    ("backend".into(), "ufo".into()),
                    ("edges".into(), "40000".into()),
                ],
                metrics: vec![("bytes_per_edge".into(), 512.0)],
            }],
        };
        // `bytes_per_edge` must parse back as a metric, not an id field
        let parsed = Baseline::parse(&mem.to_json()).unwrap();
        assert_eq!(parsed.results[0].metrics.len(), 1);
        assert_eq!(parsed.results[0].metrics[0].0, "bytes_per_edge");

        // any growth fails the every-cell rule, down to one recorded byte;
        // the ratio is inverted (lower is better)
        let mut measured = mem.clone();
        measured.results[0].metrics[0].1 = 563.2;
        let report = compare(&mem, &measured);
        assert!(report.min_ratio < 1.0, "growth must read as a regression");
        assert!(!report.passes_every_cell());
        assert_eq!(report.drifted.len(), 1, "a moved cell is listed");
        measured.results[0].metrics[0].1 = 512.6;
        assert!(!compare(&mem, &measured).passes_every_cell());

        // a sub-byte move that rounds to the recorded value is no drift
        // and no growth
        measured.results[0].metrics[0].1 = 512.4;
        let report = compare(&mem, &measured);
        assert!(report.drifted.is_empty());
        assert!(report.passes_every_cell());
        measured.results[0].metrics[0].1 = 511.4;
        let report = compare(&mem, &measured);
        assert!(report.passes_every_cell());
        assert_eq!(report.drifted.len(), 1, "an improvement is listed too");

        // fewer bytes per edge is an improvement, never a failure
        measured.results[0].metrics[0].1 = 256.0;
        let report = compare(&mem, &measured);
        assert!(report.min_ratio > 1.0);
        assert!(report.passes_every_cell());

        // the derived edge count may drift without un-matching the row
        measured.results[0].id[3].1 = "41234".into();
        let report = compare(&mem, &measured);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn every_cell_rule_is_stricter_than_the_median() {
        let recorded = sample();
        let mut measured = sample();
        // one metric regresses 50%, the rest hold: median passes, strict fails
        measured.results[0].metrics[0].1 = 617.0;
        let report = compare(&recorded, &measured);
        assert!(report.passes(0.25));
        assert!(!report.passes_every_cell());
    }

    #[test]
    fn ops_field_is_ignored_when_matching_rows() {
        let recorded = sample();
        let mut measured = sample();
        measured.results[0].id[1].1 = "999".into(); // ops drifted
        let report = compare(&recorded, &measured);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn every_baseline_file_has_exactly_one_registry_entry() {
        let mut stems = Vec::new();
        for entry in std::fs::read_dir(baselines_dir()).expect("baselines dir") {
            let path = entry.expect("dir entry").path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let owners = WORKLOADS.iter().filter(|w| w.name == stem).count();
            assert_eq!(
                owners,
                1,
                "{} has {owners} registry entries",
                path.display()
            );
            let recorded = Baseline::load(&path).unwrap();
            assert_eq!(recorded.workload, stem, "{}", path.display());
            stems.push(stem);
        }
        for w in &WORKLOADS {
            assert!(stems.iter().any(|s| s == w.name), "{} has no file", w.name);
            assert_eq!(find_workload(w.name).map(|f| f.name), Some(w.name));
        }
    }

    #[test]
    fn tolerances_parse_strictly() {
        assert_eq!(parse_tolerance("T", Some("0.1"), 0.25), 0.1);
        assert_eq!(parse_tolerance("T", Some(" 0 "), 0.25), 0.0);
        assert_eq!(parse_tolerance("T", None, 0.25), 0.25);
        for bad in ["0,5", "1.5", "15%", "1", "-0.1", "NaN", ""] {
            let err = std::panic::catch_unwind(|| {
                parse_tolerance("BENCH_GATE_TOLERANCE", Some(bad), 0.25)
            })
            .expect_err(bad);
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("BENCH_GATE_TOLERANCE"), "{msg}");
        }
    }

    #[test]
    fn scaling_trace_has_the_advertised_shape() {
        let (name, ops) = crate::parallel_scaling_trace();
        assert_eq!(name, "SCALE-64k");
        assert_eq!(ops.len(), 65_536);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, dyntree_primitives::GraphOp::InsertEdge(..)))
            .count();
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, dyntree_primitives::GraphOp::DeleteEdge(..)))
            .count();
        assert!(inserts > 50_000, "insert-heavy: {inserts}");
        assert!(deletes > 5_000, "with real deletes: {deletes}");
    }

    #[test]
    fn delete_scaling_trace_has_the_advertised_shape() {
        let (name, ops) = crate::parallel_scaling_delete_trace();
        assert_eq!(name, "SCALE-DEL-64k");
        assert_eq!(ops.len(), 65_536);
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, dyntree_primitives::GraphOp::DeleteEdge(..)))
            .count();
        // deletions dominate the churn half of the trace …
        assert!(deletes > 25_000, "delete-heavy: {deletes}");
        // … in long consecutive runs past the default delete grain
        let mut longest = 0usize;
        let mut run = 0usize;
        for op in &ops {
            if matches!(op, dyntree_primitives::GraphOp::DeleteEdge(..)) {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
        }
        assert!(
            longest >= dyntree_primitives::DELETE_GRAIN,
            "longest delete run {longest} below the delete grain"
        );
        // every delete targets a then-live edge (drain certificates fire)
        let mut live = std::collections::HashSet::new();
        for op in &ops {
            match *op {
                dyntree_primitives::GraphOp::InsertEdge(u, v) if u != v => {
                    live.insert((u.min(v), u.max(v)));
                }
                dyntree_primitives::GraphOp::DeleteEdge(u, v) => {
                    assert!(live.remove(&(u.min(v), u.max(v))), "dead delete ({u},{v})");
                }
                _ => {}
            }
        }
    }
}
