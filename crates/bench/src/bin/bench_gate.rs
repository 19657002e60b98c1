//! Bench-regression gate: re-runs every workload in the registry
//! ([`dyntree_bench::baseline::WORKLOADS`]) and fails (exit 1) when median
//! throughput regresses more than the tolerance against the JSON baselines
//! under `crates/bench/baselines/`.
//!
//! Run with: `cargo run --release -p dyntree_bench --bin bench_gate`
//!
//! Per workload, every `*_per_s` metric of every baseline row is re-measured
//! by the same registry row function the `baseline` recorder runs (best of
//! 2 per cell here, 3 when recording) and turned into a
//! `measured / recorded` ratio; the **median** ratio is compared against
//! `1 - tolerance`, so a single noisy cell cannot flip the verdict while a
//! real across-the-board regression still does.  Rows that vanish from the
//! fresh measurement always fail.
//!
//! The `memory_usage` workload is special: its `bytes_per_edge` cells are
//! deterministic for a fixed trace (no timing is involved), so instead of
//! the median rule **every cell** is held exactly: any cell that grows
//! past its recorded value (at the recorded whole-byte precision) fails,
//! and the ratio is inverted — memory improves downwards.  Every memory
//! cell that differs from the recorded value at all is printed (pass or
//! fail), so a stale recording shows up.  A change that grows memory on
//! purpose re-records the file (`baseline memory_usage`) and says why.
//!
//! Environment knob (a fraction in `[0, 1)`; anything else panics rather
//! than silently gating at the default):
//! * `BENCH_GATE_TOLERANCE` — allowed median throughput drop, default
//!   `0.25`.  CI runners are slower and noisier than the machine that
//!   recorded a baseline; the median plus a wide tolerance absorbs that,
//!   and the baselines should be re-recorded with the `baseline` binary
//!   whenever a deliberate perf-relevant change lands.

use dyntree_bench::baseline::{
    compare, init_bench_pool, tolerance_from_env, Baseline, Rule, GATE_REPS, WORKLOADS,
};

fn main() {
    init_bench_pool();
    let tolerance = tolerance_from_env("BENCH_GATE_TOLERANCE", 0.25);

    let mut failed = false;
    println!(
        "bench gate: tolerance {:.0}% median throughput drop, no per-cell memory growth",
        tolerance * 100.0
    );
    for workload in &WORKLOADS {
        let recorded = match Baseline::load(&workload.baseline_path()) {
            Ok(b) => b,
            Err(e) => {
                println!("FAIL {}: {e}", workload.name);
                failed = true;
                continue;
            }
        };
        let report = compare(&recorded, &workload.measure(GATE_REPS));
        let ok = match workload.rule {
            Rule::Median => report.passes(tolerance),
            Rule::EveryCell => report.passes_every_cell(),
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        let mut worst = report.ratios.clone();
        worst.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let spread = match (worst.first(), worst.last()) {
            (Some((_, lo)), Some((_, hi))) => format!(" (min {lo:.3}, max {hi:.3})"),
            _ => String::new(),
        };
        println!(
            "{verdict} {:<24} median ratio {:.3} over {} metrics{spread}",
            report.workload,
            report.median_ratio,
            report.ratios.len()
        );
        for missing in &report.missing {
            println!("     missing row: {missing}");
        }
        for (label, old, new) in &report.drifted {
            println!("     moved: {old:.0} -> {new:.0}  {label}");
        }
        // the worst cells are what a human (or trajectory review) reads
        // first, so print them on success too
        let show = if ok { 3 } else { 5 };
        for (label, ratio) in worst.iter().take(show) {
            println!("     {ratio:.3}x  {label}");
        }
        if !ok {
            failed = true;
        }
    }
    if failed {
        println!("bench gate: FAILED");
        println!(
            "     A *uniform* drop across workloads usually means this host is \
             simply slower than the one that recorded the baselines — re-record \
             them there (`baseline <workload>` binary) or raise \
             BENCH_GATE_TOLERANCE; a drop concentrated in one workload is a real \
             regression."
        );
        std::process::exit(1);
    }
    println!("bench gate: passed");
}
