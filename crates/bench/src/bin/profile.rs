//! `profile` — replay a SCALE or fuzz trace with telemetry enabled and print
//! a per-phase, per-backend breakdown (plus machine-readable JSON).  Each
//! phase row shows its total time and its self time: the total minus the
//! sum over its named child phases.
//!
//! Requires the `telemetry` cargo feature:
//!
//! ```text
//! cargo run --release --features telemetry -p dyntree_bench --bin profile -- \
//!     --trace SCALE-DEL-64k --check
//! ```
//!
//! Flags: `--trace SCALE-64k|SCALE-DEL-64k|fuzz`, `--backends a,b,...`,
//! `--batch N` (transaction size, default 8192), `--threads N`,
//! `--rebuild-threshold P` (arms the rebuild escape hatch at P percent),
//! `--seed/--ops/--vertices/--delete-heavy` (fuzz traces only), and
//! `--check`, which verifies the snapshot JSON round-trips, the delete-walk
//! sub-phase `rebuild` parses with the right parent,
//! phase times nest (children ≤ parent, apply ≤ wall) and — for
//! delete-heavy traces — that ≥ 90% of wall time is attributed to named
//! phases; any violation exits 1.

#[cfg(not(feature = "telemetry"))]
fn main() {
    eprintln!(
        "profile requires the `telemetry` feature:\n  cargo run --release --features telemetry -p dyntree_bench --bin profile"
    );
    std::process::exit(2);
}

#[cfg(feature = "telemetry")]
fn main() {
    telemetry_main::run();
}

#[cfg(feature = "telemetry")]
mod telemetry_main {
    use dyntree_bench::{
        apply_in_chunks, on_conn_backend, parallel_scaling_delete_trace, parallel_scaling_trace,
        ConnBackend, SCALE_BATCH,
    };
    use dyntree_connectivity::{DynConnectivity, MemoryBreakdown, SpanningBackend};
    use dyntree_primitives::algebra::SumMinMax;
    use dyntree_primitives::telemetry::{Telemetry, TelemetrySnapshot};
    use dyntree_primitives::{GraphOp, ParallelConfig};
    use dyntree_workloads::FuzzTraceGen;

    struct Args {
        trace: String,
        backends: Vec<ConnBackend>,
        batch: usize,
        threads: Option<usize>,
        seed: u64,
        ops: usize,
        vertices: usize,
        delete_heavy: bool,
        rebuild_threshold: usize,
        check: bool,
    }

    fn parse_args() -> Args {
        let mut out = Args {
            trace: "SCALE-DEL-64k".to_string(),
            backends: ConnBackend::ALL.to_vec(),
            batch: SCALE_BATCH,
            threads: None,
            seed: 1,
            ops: 60_000,
            vertices: 2048,
            delete_heavy: false,
            rebuild_threshold: 0,
            check: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut grab = || {
                args.next()
                    .unwrap_or_else(|| panic!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--trace" => out.trace = grab(),
                "--backends" => {
                    let list = grab();
                    out.backends = list
                        .split(',')
                        .map(|name| {
                            ConnBackend::ALL
                                .into_iter()
                                .find(|b| b.name() == name.trim())
                                .unwrap_or_else(|| panic!("unknown backend {name:?}"))
                        })
                        .collect();
                }
                "--batch" => out.batch = grab().parse().expect("--batch takes a number"),
                "--threads" => {
                    out.threads = Some(grab().parse().expect("--threads takes a number"));
                }
                "--seed" => out.seed = grab().parse().expect("--seed takes a number"),
                "--ops" => out.ops = grab().parse().expect("--ops takes a number"),
                "--vertices" => {
                    out.vertices = grab().parse().expect("--vertices takes a number");
                }
                "--delete-heavy" => out.delete_heavy = true,
                "--rebuild-threshold" => {
                    out.rebuild_threshold =
                        grab().parse().expect("--rebuild-threshold takes a percent");
                }
                "--check" => out.check = true,
                other => panic!("unknown flag {other:?} (see the module docs)"),
            }
        }
        out
    }

    struct Run {
        backend: &'static str,
        wall_nanos: u64,
        applied: u64,
        snapshot: TelemetrySnapshot,
        memory: MemoryBreakdown,
    }

    fn profile_backend<B: SpanningBackend<Weights = SumMinMax>>(
        name: &'static str,
        ops: &[GraphOp],
        batch: usize,
        cfg: ParallelConfig,
    ) -> Run {
        let mut engine: DynConnectivity<B> = DynConnectivity::new(0)
            .with_parallel_config(cfg)
            .with_telemetry(Telemetry::enabled());
        let (wall, applied) = apply_in_chunks(&mut engine, ops, batch);
        Run {
            backend: name,
            wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            applied,
            snapshot: engine.telemetry_snapshot().expect("telemetry enabled"),
            memory: engine.memory_breakdown(),
        }
    }

    fn ms(nanos: u64) -> f64 {
        nanos as f64 / 1e6
    }

    /// Summed time of `phase`'s direct children.
    fn children_nanos(run: &Run, phase: &str) -> u64 {
        run.snapshot
            .phases
            .iter()
            .filter(|p| p.parent == Some(phase))
            .map(|p| p.nanos)
            .sum()
    }

    /// Share of wall time attributed to `apply`'s direct children (the named
    /// top-level phases).
    fn attributed_fraction(run: &Run) -> f64 {
        children_nanos(run, "apply") as f64 / run.wall_nanos.max(1) as f64
    }

    fn print_run(run: &Run) {
        println!("\n== {} ==", run.backend);
        println!(
            "wall {:>10.2} ms   applied {}   attributed to named phases {:.1}%",
            ms(run.wall_nanos),
            run.applied,
            100.0 * attributed_fraction(run)
        );
        println!(
            "{:<28} {:>12} {:>12} {:>7} {:>10}",
            "phase", "ms", "self ms", "%wall", "enters"
        );
        for p in &run.snapshot.phases {
            let depth = {
                let mut d = 0;
                let mut cur = p.parent;
                while let Some(parent) = cur {
                    d += 1;
                    cur = run.snapshot.phase(parent).and_then(|q| q.parent);
                }
                d
            };
            // exclusive time: what the phase spent outside every named child
            let self_nanos = p.nanos.saturating_sub(children_nanos(run, p.phase));
            println!(
                "{:<28} {:>12.2} {:>12.2} {:>6.1}% {:>10}",
                format!("{}{}", "  ".repeat(depth), p.phase),
                ms(p.nanos),
                ms(self_nanos),
                100.0 * p.nanos as f64 / run.wall_nanos.max(1) as f64,
                p.enters
            );
        }
        println!("{:<42} {:>12}", "counter", "value");
        for &(name, v) in &run.snapshot.counters {
            println!("{name:<42} {v:>12}");
        }
        println!("memory: {}", run.memory);
    }

    /// Self-checks on one run; returns human-readable violations.
    fn check_run(run: &Run, require_attribution: bool) -> Vec<String> {
        let mut bad = Vec::new();
        // 1. the JSON export round-trips
        match TelemetrySnapshot::parse(&run.snapshot.to_json()) {
            Ok(back) => {
                if back != run.snapshot {
                    bad.push(format!("{}: JSON round-trip mismatch", run.backend));
                }
            }
            Err(e) => bad.push(format!("{}: JSON does not parse: {e}", run.backend)),
        }
        // 1b. the schema carries the delete-walk sub-phase end to end: the
        //     rebuild phase must survive the JSON round-trip (it is
        //     zero-entered on hatch-off runs, but never absent)
        let round_tripped = TelemetrySnapshot::parse(&run.snapshot.to_json())
            .ok()
            .and_then(|s| s.phase("rebuild").map(|p| p.parent == Some("delete_walk")));
        if round_tripped != Some(true) {
            bad.push(format!(
                "{}: phase rebuild missing or misparented after JSON round-trip",
                run.backend
            ));
        }
        // 2. phase times nest: children sum to ≤ the parent (5% slack for
        //    timer overhead), and the root phase fits inside the wall time
        for parent in &run.snapshot.phases {
            let children = children_nanos(run, parent.phase);
            if children as f64 > parent.nanos as f64 * 1.05 + 1e6 {
                bad.push(format!(
                    "{}: children of {} sum to {} ns > parent {} ns",
                    run.backend, parent.phase, children, parent.nanos
                ));
            }
        }
        let apply = run.snapshot.phase("apply").expect("apply phase exists");
        if apply.nanos > run.wall_nanos {
            bad.push(format!(
                "{}: apply {} ns exceeds wall {} ns",
                run.backend, apply.nanos, run.wall_nanos
            ));
        }
        // 3. the named phases account for the wall time (delete traces)
        if require_attribution && attributed_fraction(run) < 0.90 {
            bad.push(format!(
                "{}: only {:.1}% of wall time attributed to named phases",
                run.backend,
                100.0 * attributed_fraction(run)
            ));
        }
        bad
    }

    pub fn run() {
        let args = parse_args();
        let (trace_name, ops): (String, Vec<GraphOp>) = match args.trace.as_str() {
            "SCALE-64k" => parallel_scaling_trace(),
            "SCALE-DEL-64k" => parallel_scaling_delete_trace(),
            "fuzz" => {
                let mut gen = FuzzTraceGen::new(args.seed)
                    .with_ops(args.ops)
                    .with_vertices(args.vertices);
                if args.delete_heavy {
                    gen = gen.delete_heavy();
                }
                (
                    format!(
                        "fuzz(seed={}, ops={}, vertices={}{})",
                        args.seed,
                        args.ops,
                        args.vertices,
                        if args.delete_heavy {
                            ", delete-heavy"
                        } else {
                            ""
                        }
                    ),
                    gen.generate(),
                )
            }
            other => panic!("unknown trace {other:?} (SCALE-64k | SCALE-DEL-64k | fuzz)"),
        };
        let cfg = match args.threads {
            Some(t) => ParallelConfig::with_threads(t),
            None => ParallelConfig::default(),
        }
        .with_rebuild_threshold(args.rebuild_threshold);
        println!(
            "trace {trace_name}: {} ops in transactions of {}, {} pool threads",
            ops.len(),
            args.batch,
            rayon::current_num_threads()
        );

        let mut runs = Vec::new();
        for backend in &args.backends {
            rayon::reset_global_pool_metrics();
            let run = on_conn_backend!(
                *backend,
                profile_backend(backend.name(), &ops, args.batch, cfg)
            );
            let pool = rayon::global_pool_metrics();
            print_run(&run);
            println!(
                "pool: {} jobs ({} helper steals), queue depth hwm {}, busy per slot {:?} ms",
                pool.jobs_executed,
                pool.helper_jobs,
                pool.queue_depth_hwm,
                pool.busy_nanos
                    .iter()
                    .map(|&n| (ms(n) * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            );
            runs.push(run);
        }

        // machine-readable epilogue: one self-contained JSON document per
        // backend (each parses with TelemetrySnapshot::parse)
        println!("\n--- JSON ---");
        for run in &runs {
            println!(
                "{{\"trace\": \"{trace_name}\", \"backend\": \"{}\", \"batch\": {}, \"wall_nanos\": {}, \"applied\": {}, \"memory_bytes\": {}, \"snapshot\":",
                run.backend,
                args.batch,
                run.wall_nanos,
                run.applied,
                run.memory.total()
            );
            print!("{}", run.snapshot.to_json());
            println!("}}");
        }

        if args.check {
            // the attribution bound is part of the acceptance criteria for
            // the delete-heavy SCALE trace (where the engine, not trace
            // generation or report plumbing, dominates)
            let require_attribution = args.trace == "SCALE-DEL-64k";
            let violations: Vec<String> = runs
                .iter()
                .flat_map(|r| check_run(r, require_attribution))
                .collect();
            if violations.is_empty() {
                println!("\ncheck: OK ({} backends)", runs.len());
            } else {
                eprintln!("\ncheck: FAILED");
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
        }
    }
}
