//! Steady-state connectivity transactions allocate (almost) nothing: the
//! HDT replacement search walks borrowed adjacency slices and drains
//! non-tree buckets into the engine's reused search scratch, and the UFO
//! spanning forest recycles its cluster buffers (DESIGN.md §12).
//!
//! A counting global allocator tallies the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) made by the test thread inside
//! `apply`, on transactions shaped like the `engine-churn` benchmark: a
//! random graph of 8 192 vertices and 16 384 edges, each transaction
//! deleting 2 048 random live edges and inserting 2 048 new ones.  The
//! engine runs under `ParallelConfig::sequential()`, so every allocation
//! happens on the counted thread.  The count is deterministic for a seed,
//! so the bound checks the mechanism without timing anything.

mod counting_alloc;

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufo_trees::primitives::ParallelConfig;
use ufo_trees::{DynConnectivity, GraphOp, UfoForest};

use counting_alloc::allocs;

const N: usize = 8192;
const M: usize = 2 * N;
/// Deletes and inserts per transaction.
const RUN: usize = 2048;
const WARMUP: usize = 6;
const MEASURED: usize = 6;
/// Average heap allocations allowed per applied op.  Boxing an adjacency
/// iterator per expanded vertex and returning each drained non-tree bucket
/// as a fresh `Vec` made about 42.
const MAX_ALLOCS_PER_OP: f64 = 2.0;

/// A random simple graph under churn: the live edge list and its set.
struct Churn {
    rng: StdRng,
    live: Vec<(usize, usize)>,
    set: HashSet<(usize, usize)>,
}

impl Churn {
    fn new(seed: u64) -> Churn {
        let mut g = Churn {
            rng: StdRng::seed_from_u64(seed),
            live: Vec::with_capacity(M),
            set: HashSet::with_capacity(M),
        };
        while g.live.len() < M {
            let e = g.fresh_edge(&HashSet::new());
            g.set.insert(e);
            g.live.push(e);
        }
        g
    }

    /// A random non-loop pair that is neither live nor in `avoid`.
    fn fresh_edge(&mut self, avoid: &HashSet<(usize, usize)>) -> (usize, usize) {
        loop {
            let u = self.rng.random_range(0..N);
            let v = self.rng.random_range(0..N);
            let e = (u.min(v), u.max(v));
            if u != v && !self.set.contains(&e) && !avoid.contains(&e) {
                return e;
            }
        }
    }

    /// `RUN` deletes of distinct live edges, then `RUN` inserts of edges
    /// that were not live before the transaction.
    fn transaction(&mut self) -> Vec<GraphOp> {
        let mut ops = Vec::with_capacity(2 * RUN);
        let mut gone = HashSet::with_capacity(RUN);
        for _ in 0..RUN {
            let i = self.rng.random_range(0..self.live.len());
            let e = self.live.swap_remove(i);
            self.set.remove(&e);
            gone.insert(e);
            ops.push(GraphOp::DeleteEdge(e.0, e.1));
        }
        for _ in 0..RUN {
            let e = self.fresh_edge(&gone);
            self.set.insert(e);
            self.live.push(e);
            ops.push(GraphOp::InsertEdge(e.0, e.1));
        }
        ops
    }
}

#[test]
fn steady_state_churn_transactions_barely_allocate() {
    let mut g = Churn::new(21);
    let mut eng: DynConnectivity<UfoForest> =
        DynConnectivity::new(N).with_parallel_config(ParallelConfig::sequential());
    let load: Vec<GraphOp> = g
        .live
        .iter()
        .map(|&(u, v)| GraphOp::InsertEdge(u, v))
        .collect();
    assert_eq!(eng.apply(&load).applied, M);

    for _ in 0..WARMUP {
        let ops = g.transaction();
        assert_eq!(eng.apply(&ops).applied, ops.len());
    }
    let (mut made, mut applied) = (0u64, 0usize);
    for _ in 0..MEASURED {
        let ops = g.transaction();
        let before = allocs();
        let report = eng.apply(&ops);
        made += allocs() - before;
        assert_eq!(report.applied, ops.len());
        applied += report.applied;
    }
    let per_op = made as f64 / applied as f64;
    assert!(
        per_op <= MAX_ALLOCS_PER_OP,
        "{applied} applied ops made {made} heap allocations \
         ({per_op:.2} per op, at most {MAX_ALLOCS_PER_OP} allowed)"
    );

    assert_eq!(eng.num_edges(), M);
    eng.check_invariants().unwrap();
}
