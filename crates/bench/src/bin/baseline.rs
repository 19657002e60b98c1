//! Records one gated workload: runs its registry row function
//! ([`dyntree_bench::baseline::WORKLOADS`]) at best of 3 per cell and prints
//! the baseline JSON stored at `crates/bench/baselines/<workload>.json`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dyntree_bench --bin baseline -- <workload> \
//!     > crates/bench/baselines/<workload>.json
//! ```
//!
//! `bench_gate` re-measures exactly these rows against the recorded file.
//! Throughput rows want a quiet machine; the `memory_usage` rows are exact
//! and deterministic, so they are bit-stable across runs and hosts of the
//! same pointer width.

use dyntree_bench::baseline::{find_workload, init_bench_pool, RECORD_REPS, WORKLOADS};

fn main() {
    let name = std::env::args().nth(1);
    let Some(workload) = name.as_deref().and_then(find_workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "usage: baseline <workload>\n{}workloads: {}",
            match &name {
                Some(n) => format!("unknown workload {n:?}\n"),
                None => String::new(),
            },
            names.join(", ")
        );
        std::process::exit(2);
    };
    init_bench_pool();
    print!("{}", workload.measure(RECORD_REPS).to_json());
}
