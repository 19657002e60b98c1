//! `forest-hubs`: one `UfoForest` over a star, a dandelion, a 64-ary tree
//! and a preferential-attachment tree, with hubs of ~4k leaves.  Each round
//! cuts a random batch of tree edges with `batch_cut`, relinks the same
//! edges with `batch_link` (so the shape is stationary), then answers a
//! block of `connected` / `path_sum` queries whose answers are known from
//! the static trees.  Single-threaded: the batches stay below the parallel
//! grain, so the run is all `ufo` work.

use std::hint::black_box;
use std::time::Instant;

use ufo_forest::UfoForest;

use crate::affinity::Rotation;
use crate::gen::{HubForest, HubQuery, HubRound, HubRounds, SHAPES};
use crate::oracle::{mismatches, TreeOracle, NO_PATH};
use crate::stats::{percentile, Samples};
use crate::{pin_pool, secs, trace, Cfg, Outcome, Setups};

/// Leaves at each hub.
const HUB: usize = 4096;
/// Edges cut and relinked per round.
const BATCH: usize = 256;
/// Queries per block.
const QUERIES: usize = 1024;
const SETUP_REPS: usize = 9;
/// Rounds in the traced pass.
const TRACE_ROUNDS: usize = 16;

const CUT: [&str; 4] = [
    "ufo.cut.star",
    "ufo.cut.dand",
    "ufo.cut.kary64",
    "ufo.cut.pattach",
];
const LINK: [&str; 4] = [
    "ufo.link.star",
    "ufo.link.dand",
    "ufo.link.kary64",
    "ufo.link.pattach",
];
const PATH_SUM: [&str; 4] = [
    "ufo.path_sum.star",
    "ufo.path_sum.dand",
    "ufo.path_sum.kary64",
    "ufo.path_sum.pattach",
];

fn build(f: &HubForest) -> (UfoForest, usize) {
    let mut forest: UfoForest = UfoForest::new(f.n);
    for (v, &w) in f.weights.iter().enumerate() {
        forest.set_weight(v, w);
    }
    let linked = forest.batch_link(&f.edges);
    (forest, linked)
}

fn check_setup(inst: &HubForest, linked: usize, out: &mut Outcome) {
    out.check(linked == inst.edges.len(), || {
        format!("set-up linked {linked} of {} edges", inst.edges.len())
    });
}

fn answer(forest: &UfoForest, q: &HubQuery) -> i64 {
    match *q {
        HubQuery::Connected(u, v) => i64::from(forest.connected(u, v)),
        HubQuery::PathSum(u, v) => forest.path_sum(u, v).unwrap_or(NO_PATH),
    }
}

fn expected(oracle: &TreeOracle, round: &HubRound) -> Vec<i64> {
    round.queries.iter().map(|q| oracle.expect(q)).collect()
}

pub fn run(cfg: &Cfg) -> Outcome {
    pin_pool(1);
    let inst = HubForest::generate(HUB, cfg.seed);
    let oracle = TreeOracle::new(&inst);
    let mut out = Outcome::default();

    let mut setups = Setups::new(SETUP_REPS, cfg.measure_seconds());
    let (mut forest, linked) = setups.time(|| build(&inst));
    check_setup(&inst, linked, &mut out);
    let mut peak_bytes = forest.memory_bytes();
    if cfg.trace {
        structure(&inst, &forest, &mut out);
    }

    let mut rounds = HubRounds::new(cfg.seed);
    let (mut updates, mut queries) = (Samples::default(), Samples::default());
    let (mut update_ops, mut query_ops) = (0u64, 0u64);
    let mut answers = vec![0i64; QUERIES];
    let mut rotation = Rotation::new();
    let start = Instant::now();
    while secs(start) < cfg.measure_seconds() {
        rotation.tick(secs(start));
        if setups.due(secs(start)) {
            let (_, linked) = setups.time(|| build(&inst));
            check_setup(&inst, linked, &mut out);
        }
        let round = rounds.next(&inst, BATCH, QUERIES);
        let want = expected(&oracle, &round);

        let t = Instant::now();
        let cut = forest.batch_cut(black_box(&round.edges));
        updates.push(t.elapsed());
        let t = Instant::now();
        let linked = forest.batch_link(black_box(&round.edges));
        updates.push(t.elapsed());
        let t = Instant::now();
        for (a, q) in answers.iter_mut().zip(&round.queries) {
            *a = answer(&forest, q);
        }
        queries.push(t.elapsed());
        black_box(&answers);

        update_ops += 2 * BATCH as u64;
        query_ops += QUERIES as u64;
        out.failed += (2 * BATCH - cut - linked) as u64 + mismatches(&want, &answers);
    }
    drop(rotation);
    out.attempted += update_ops + query_ops;
    setups.finish(|| build(&inst), &mut out);
    peak_bytes = peak_bytes.max(forest.memory_bytes());
    out.check(forest.num_edges() == inst.edges.len(), || {
        "the edge set did not survive the rounds".into()
    });
    out.timings(
        crate::UPDATE_METRICS,
        update_ops,
        &updates,
        cfg.measure_seconds(),
    );
    out.timings(
        crate::QUERY_METRICS,
        query_ops,
        &queries,
        cfg.measure_seconds(),
    );
    out.e2e.insert(
        "bytes_per_edge",
        peak_bytes as f64 / inst.edges.len() as f64,
    );

    if cfg.trace {
        traced(&inst, &oracle, &mut forest, &mut rounds, &mut out);
    }
    out
}

/// Fixed rounds with every edge update and query timed as a single call.
fn traced(
    inst: &HubForest,
    oracle: &TreeOracle,
    forest: &mut UfoForest,
    rounds: &mut HubRounds,
    out: &mut Outcome,
) {
    let (mut update_s, mut query_s) = (0.0, 0.0);
    let (mut update_ops, mut query_ops) = (0u64, 0u64);
    let mut answers = vec![0i64; QUERIES];
    trace::start();
    for _ in 0..TRACE_ROUNDS {
        let round = rounds.next(inst, BATCH, QUERIES);
        let want = expected(oracle, &round);
        let mut done = 0;
        let t = Instant::now();
        for &(u, v) in &round.edges {
            let _s = trace::open(CUT[inst.shape_of(u)]);
            done += usize::from(forest.cut(u, v));
        }
        for &(u, v) in &round.edges {
            let _s = trace::open(LINK[inst.shape_of(u)]);
            done += usize::from(forest.link(u, v));
        }
        update_s += secs(t);
        let t = Instant::now();
        for (a, q) in answers.iter_mut().zip(&round.queries) {
            let _s = trace::open(match *q {
                HubQuery::Connected(..) => "ufo.connected",
                HubQuery::PathSum(u, _) => PATH_SUM[inst.shape_of(u)],
            });
            *a = answer(forest, q);
        }
        query_s += secs(t);
        update_ops += 2 * BATCH as u64;
        query_ops += QUERIES as u64;
        out.failed += (2 * BATCH - done) as u64 + mismatches(&want, &answers);
    }
    out.spans = trace::stop();
    out.attempted += update_ops + query_ops;
    out.overhead(update_ops as f64 / update_s, query_ops as f64 / query_s);

    let mut by_name: std::collections::HashMap<&str, Vec<u64>> = Default::default();
    for s in &out.spans {
        by_name.entry(s.name).or_default().push(s.dur_ns());
    }
    let p50_us = |name: &str| by_name.get(name).map_or(0.0, |d| percentile(d, 50.0) / 1e3);
    for (i, shape) in SHAPES.iter().enumerate() {
        out.layer(format!("ufo.cut_us_p50.{shape}"), p50_us(CUT[i]));
        out.layer(format!("ufo.link_us_p50.{shape}"), p50_us(LINK[i]));
        out.layer(format!("ufo.path_sum_us_p50.{shape}"), p50_us(PATH_SUM[i]));
    }
    out.layer("ufo.connected_us_p50", p50_us("ufo.connected"));
}

/// Hierarchy height per shape and live cluster count of a freshly built
/// forest (a pure function of the seed, so repeat runs agree exactly).
fn structure(inst: &HubForest, forest: &UfoForest, out: &mut Outcome) {
    for (i, shape) in SHAPES.iter().enumerate() {
        let height = (inst.offsets[i]..inst.offsets[i + 1])
            .map(|v| forest.engine().height(v))
            .max()
            .unwrap_or(0);
        out.layer(format!("ufo.height_max.{shape}"), height as f64);
    }
    out.layer("ufo.live_clusters", forest.engine().live_clusters() as f64);
}
