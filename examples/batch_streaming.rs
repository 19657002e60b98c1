//! Batch-dynamic streaming through the `GraphOp` transaction surface: ingest
//! a stream of edge batches (the Figure 8 / Figure 9 workload shape) into
//! two connectivity engines — UFO forest vs treap Euler tour forest — with
//! `apply(&[GraphOp])`, printing each transaction's [`BatchReport`] counters
//! and racing batch connectivity queries between transactions.
//!
//! Both engines start from an **empty** graph; the first transaction grows
//! the vertex set with an `AddVertices` op.  The tree's edge list is
//! duplicate-free, so the reports prove it op by op: every transaction must
//! come back all-applied (`skipped == rejected == 0`), and both backends
//! must report byte-identical outcomes — accounting a bool interface could
//! never give.
//!
//! Run with: `cargo run --release --example batch_streaming`

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ufo_trees::connectivity::DynConnectivity;
use ufo_trees::seqs::TreapSequence;
use ufo_trees::workloads::preferential_attachment_tree;
use ufo_trees::{EulerTourForest, GraphOp, UfoForest};

fn main() {
    let n = 100_000;
    let batch_size = 10_000;
    let tree = preferential_attachment_tree(n, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let mut edges = tree.edges.clone();
    edges.shuffle(&mut rng);

    let mut ufo: DynConnectivity<UfoForest> = DynConnectivity::new(0);
    let mut ett: DynConnectivity<EulerTourForest<TreapSequence>> = DynConnectivity::new(0);

    println!(
        "streaming {} edges in GraphOp transactions of {}",
        edges.len(),
        batch_size
    );
    let start = Instant::now();
    for (i, batch) in edges.chunks(batch_size).enumerate() {
        let mut ops: Vec<GraphOp> = Vec::with_capacity(batch.len() + 1);
        if i == 0 {
            ops.push(GraphOp::AddVertices(n));
        }
        ops.extend(batch.iter().map(|&(u, v)| GraphOp::InsertEdge(u, v)));

        let t0 = Instant::now();
        let ra = ufo.apply(&ops);
        let t1 = Instant::now();
        let rb = ett.apply(&ops);
        let t2 = Instant::now();
        assert_eq!(
            ra.outcomes, rb.outcomes,
            "transaction {i}: backends must report identical outcomes"
        );
        assert_eq!(ra.rejected, 0, "a shuffled tree has no invalid ops");

        // between transactions, fire a burst of connectivity queries
        let queries: Vec<(usize, usize)> = (0..1_000)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        for &(u, v) in &queries {
            assert_eq!(
                ufo.try_connected(u, v),
                ett.try_connected(u, v),
                "batch {i} answers disagree on ({u},{v})"
            );
        }
        println!(
            "txn {:>2}: [{}] | ufo {:>7.2?} vs ett {:>7.2?} | {} queries agree",
            i,
            ra,
            t1 - t0,
            t2 - t1,
            queries.len()
        );
    }
    println!(
        "done in {:.2?}; {} components (UFO), {} tree edges, {} live edges",
        start.elapsed(),
        ufo.component_count(),
        ufo.spanning_forest_size(),
        ufo.num_edges(),
    );
    ufo.check_invariants().expect("ufo engine invariants");
}
