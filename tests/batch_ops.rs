//! Property tests for the batch-first operations API: arbitrary `GraphOp`
//! sequences — invalid ops and mid-stream vertex growth included — are
//! pushed through `apply` on four backends and must (a) never panic,
//! (b) produce exactly the outcomes of a sequentially replayed naive-backend
//! oracle, and (c) leave every backend agreeing with the oracle on
//! connectivity, component counts and weights.

use proptest::prelude::*;
use ufo_trees::connectivity::{DynConnectivity, SpanningBackend};
use ufo_trees::seqs::TreapSequence;
use ufo_trees::{
    EulerTourForest, GraphOp, LinkCutForest, NaiveConnectivity, NaiveForest, OpOutcome, SumMinMax,
    UfoForest,
};

/// Initial vertex count: small, so the generated id range (`0..24`) mixes
/// valid, not-yet-grown and permanently invalid vertices.
const N0: usize = 8;

fn op_strategy() -> BoxedStrategy<GraphOp> {
    let ids = 0usize..24;
    prop_oneof![
        (1usize..4).prop_map(GraphOp::AddVertices).boxed(),
        (ids.clone(), ids.clone())
            .prop_map(|(u, v)| GraphOp::InsertEdge(u, v))
            .boxed(),
        (ids.clone(), ids.clone())
            .prop_map(|(u, v)| GraphOp::InsertEdge(u, v))
            .boxed(),
        (ids.clone(), ids.clone())
            .prop_map(|(u, v)| GraphOp::DeleteEdge(u, v))
            .boxed(),
        (ids, -100i64..100)
            .prop_map(|(v, w)| GraphOp::SetWeight(v, w))
            .boxed(),
    ]
    .boxed()
}

/// Replays the ops one at a time through the typed single-op surface of the
/// naive backend, recording the expected outcome of every op.  This is the
/// ground truth `apply` must reproduce on every backend.
fn oracle_replay(ops: &[GraphOp]) -> (NaiveConnectivity, Vec<OpOutcome>) {
    let mut g = NaiveConnectivity::new(N0);
    let mut expected = Vec::with_capacity(ops.len());
    for &op in ops {
        expected.push(match op {
            GraphOp::AddVertices(count) => {
                let first = g.len();
                match first.checked_add(count) {
                    Some(target) => {
                        g.ensure_vertices(target);
                        OpOutcome::VerticesAdded { first, count }
                    }
                    None => OpOutcome::Rejected(ufo_trees::GraphError::VertexOutOfRange {
                        v: usize::MAX,
                        len: first,
                    }),
                }
            }
            GraphOp::InsertEdge(u, v) => match g.try_insert_edge(u, v) {
                Ok(kind) => OpOutcome::EdgeInserted { kind },
                Err(e) => OpOutcome::from_error(e),
            },
            GraphOp::DeleteEdge(u, v) => match g.try_delete_edge(u, v) {
                Ok(d) => OpOutcome::EdgeDeleted {
                    kind: d.kind,
                    split: d.split,
                },
                Err(e) => OpOutcome::from_error(e),
            },
            GraphOp::SetWeight(v, w) => match g.try_set_weight(v, w) {
                Ok(()) => OpOutcome::WeightSet,
                Err(e) => OpOutcome::from_error(e),
            },
            // bulk ops never enter this suite's strategy — backends differ
            // in support, so their differential lives in
            // crates/connectivity/tests/bulk_apply_proptest.rs
            GraphOp::PathApply(u, v, d) => match g.try_path_apply(u, v, d) {
                Ok(Some(count)) => OpOutcome::PathApplied { count },
                Ok(None) => OpOutcome::from_error(ufo_trees::GraphError::Disconnected { u, v }),
                Err(e) => OpOutcome::from_error(e),
            },
            GraphOp::ComponentApply(v, d) => match g.try_component_apply(v, d) {
                Ok(count) => OpOutcome::ComponentApplied { count },
                Err(e) => OpOutcome::from_error(e),
            },
        });
    }
    (g, expected)
}

fn check_backend<B: SpanningBackend<Weights = SumMinMax>>(
    ops: &[GraphOp],
    oracle: &mut NaiveConnectivity,
    expected: &[OpOutcome],
    chunk_size: usize,
) -> Result<(), proptest::TestCaseError> {
    let mut g: DynConnectivity<B> = DynConnectivity::new(N0);
    let mut pos = 0;
    for chunk in ops.chunks(chunk_size.max(1)) {
        let report = g.apply(chunk);
        prop_assert_eq!(
            &report.outcomes[..],
            &expected[pos..pos + chunk.len()],
            "[{}] outcomes diverge from the oracle at ops {}..{}",
            B::NAME,
            pos,
            pos + chunk.len()
        );
        prop_assert_eq!(
            report.applied + report.skipped + report.rejected,
            chunk.len(),
            "[{}] counters must cover the batch",
            B::NAME
        );
        pos += chunk.len();
    }
    prop_assert_eq!(g.len(), oracle.len(), "[{}] vertex count", B::NAME);
    prop_assert_eq!(
        g.component_count(),
        oracle.component_count(),
        "[{}] component count",
        B::NAME
    );
    prop_assert_eq!(g.num_edges(), oracle.num_edges(), "[{}] edges", B::NAME);
    // connectivity answers over a deterministic pair sample, including
    // out-of-range probes (typed errors naming the same id, never panics)
    let n = g.len();
    for u in (0..n + 2).step_by(2) {
        for v in (1..n + 2).step_by(3) {
            prop_assert_eq!(
                g.try_connected(u, v),
                oracle.try_connected(u, v),
                "[{}] connected({}, {})",
                B::NAME,
                u,
                v
            );
        }
    }
    // whole component aggregates (sum, min, max, count) where the backend
    // supports them
    if B::SUPPORTS_COMPONENT_AGG {
        for v in 0..n {
            prop_assert_eq!(
                g.try_component_agg(v),
                oracle.try_component_agg(v),
                "[{}] component_agg({})",
                B::NAME,
                v
            );
        }
    }
    if let Err(e) = g.check_invariants() {
        return Err(proptest::TestCaseError(format!(
            "[{}] invariants: {}",
            B::NAME,
            e
        )));
    }
    Ok(())
}

/// Counter-contract regression: a `Skipped` delete of a missing edge must
/// land in `skipped` — never in `applied` — **identically** on the bulk
/// (drained) delete path and the one-at-a-time path, and the aggregate
/// counters must partition the batch exactly.  The bulk path is forced on
/// with a low-grain [`ParallelConfig`](ufo_trees::primitives::ParallelConfig)
/// so this holds even on a 1-thread CI pool.
#[test]
fn skipped_deletes_count_identically_on_bulk_and_singleton_paths() {
    use ufo_trees::primitives::ParallelConfig;
    let forced = ParallelConfig {
        threads: 4,
        batch_grain: 8,
        chunk_grain: 2,
        delete_grain: 4,
        ..ParallelConfig::default()
    };
    // triangle + stray edge, then a delete run mixing: live non-tree, live
    // tree, missing, duplicate (missing by the time it applies), rejected
    let ops: Vec<GraphOp> = vec![
        GraphOp::AddVertices(6),
        GraphOp::InsertEdge(0, 1),
        GraphOp::InsertEdge(1, 2),
        GraphOp::InsertEdge(2, 0), // non-tree
        GraphOp::InsertEdge(3, 4),
        GraphOp::DeleteEdge(2, 0), // applied (non-tree drain)
        GraphOp::DeleteEdge(4, 5), // skipped: never live
        GraphOp::DeleteEdge(0, 1), // applied (tree; (2,0) already gone -> split)
        GraphOp::DeleteEdge(0, 1), // skipped: duplicate of the one above
        GraphOp::DeleteEdge(5, 5), // rejected: self loop
        GraphOp::DeleteEdge(0, 9), // rejected: out of range
        GraphOp::DeleteEdge(3, 4), // applied
    ];
    let mut bulk: DynConnectivity<UfoForest> = DynConnectivity::new(0).with_parallel_config(forced);
    let bulk_report = bulk.apply(&ops);
    let mut single: DynConnectivity<UfoForest> =
        DynConnectivity::new(0).with_parallel_config(ParallelConfig::sequential());
    let mut single_outcomes = Vec::new();
    let (mut applied, mut skipped, mut rejected) = (0, 0, 0);
    for op in &ops {
        let r = single.apply(std::slice::from_ref(op));
        applied += r.applied;
        skipped += r.skipped;
        rejected += r.rejected;
        single_outcomes.extend(r.outcomes);
    }
    assert_eq!(bulk_report.outcomes, single_outcomes);
    assert_eq!(
        (
            bulk_report.applied,
            bulk_report.skipped,
            bulk_report.rejected
        ),
        (applied, skipped, rejected),
        "bulk counters must equal summed singleton counters"
    );
    // the missing-edge deletes are skips, not applications, on both paths
    assert_eq!((applied, skipped, rejected), (8, 2, 2));
    assert_eq!(
        bulk_report.applied + bulk_report.skipped + bulk_report.rejected,
        ops.len(),
        "counters partition the batch"
    );
    // the Display line (the human-facing counter surface) agrees too; the
    // trailing `v1` is the engine's batch version — this was its first apply
    assert_eq!(
        bulk_report.to_string(),
        "12 ops: 8 applied, 2 skipped, 2 rejected | vertices 0 -> 6 | components 0 -> 5 | v1"
    );
    // count level: a repeated or missing delete is a skip, never a removal
    let mut g: DynConnectivity<UfoForest> = DynConnectivity::new(4).with_parallel_config(forced);
    g.apply(&[GraphOp::InsertEdge(0, 1), GraphOp::InsertEdge(1, 2)]);
    let report = g.apply(&[
        GraphOp::DeleteEdge(0, 1),
        GraphOp::DeleteEdge(0, 1),
        GraphOp::DeleteEdge(2, 3),
        GraphOp::DeleteEdge(1, 2),
    ]);
    assert_eq!((report.applied, report.skipped, report.rejected), (2, 2, 0));
    assert_eq!(g.num_edges(), 0);
}

/// The UFO backend exports component labels from walks up its parent
/// array; the link-cut backend declines, so its engine labels components by
/// BFS over its own tree adjacency.  Both must publish the same canonical
/// labels after every batch of seeded fuzz traces whose mid-stream
/// `AddVertices` ops land on ids held by internal UFO clusters, so growth
/// relocates those clusters and rewrites their parent entries.
#[test]
fn ufo_component_export_matches_bfs_labels_through_growth() {
    use ufo_trees::workloads::FuzzTraceGen;
    let mut growth_batches = 0;
    for seed in [3u64, 0x9e37, 0xfeed_beef] {
        let mut ufo: DynConnectivity<UfoForest> = DynConnectivity::new(0);
        let mut bfs: DynConnectivity<LinkCutForest> = DynConnectivity::new(0);
        let (mut ufo_labels, mut bfs_labels) = (Vec::new(), Vec::new());
        for (i, batch) in FuzzTraceGen::new(seed)
            .with_ops(3_000)
            .batches(64)
            .iter()
            .enumerate()
        {
            let grows = batch.iter().any(|op| matches!(op, GraphOp::AddVertices(_)));
            if i > 0 && grows {
                growth_batches += 1;
            }
            ufo.apply(batch);
            bfs.apply(batch);
            ufo.export_component_labels(&mut ufo_labels);
            bfs.export_component_labels(&mut bfs_labels);
            assert_eq!(ufo_labels, bfs_labels, "seed {seed:#x}, batch {i}");
        }
        ufo.check_invariants().unwrap();
    }
    assert!(growth_batches > 0, "the traces never grew mid-stream");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apply_matches_oracle_on_arbitrary_op_sequences(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        chunk in 1usize..24,
    ) {
        let (mut oracle, expected) = oracle_replay(&ops);
        check_backend::<UfoForest>(&ops, &mut oracle, &expected, chunk)?;
        check_backend::<LinkCutForest>(&ops, &mut oracle, &expected, chunk)?;
        check_backend::<EulerTourForest<TreapSequence>>(&ops, &mut oracle, &expected, chunk)?;
        check_backend::<NaiveForest>(&ops, &mut oracle, &expected, chunk)?;
    }

    #[test]
    fn growth_mid_stream_preserves_connectivity_answers(
        edges in proptest::collection::vec((0usize..N0, 0usize..N0), 0..30),
        grow_by in 1usize..12,
    ) {
        // build an arbitrary graph on the original vertex range
        let mut g: DynConnectivity<UfoForest> = DynConnectivity::new(N0);
        for &(u, v) in &edges {
            let _ = g.try_insert_edge(u, v);
        }
        let before: Vec<Vec<bool>> = (0..N0)
            .map(|u| (0..N0).map(|v| g.try_connected(u, v) == Ok(true)).collect())
            .collect();
        let components = g.component_count();
        // grow; every old answer must be unchanged, new vertices isolated
        let range = g.add_vertices(grow_by);
        prop_assert_eq!(range, N0..N0 + grow_by);
        prop_assert_eq!(g.component_count(), components + grow_by);
        for (u, row) in before.iter().enumerate() {
            for (v, &was) in row.iter().enumerate() {
                prop_assert_eq!(g.try_connected(u, v), Ok(was), "({}, {})", u, v);
            }
        }
        for x in N0..N0 + grow_by {
            for u in 0..N0 {
                prop_assert_eq!(g.try_connected(x, u), Ok(false), "grown vertex {} must be isolated", x);
            }
            prop_assert_eq!(g.try_connected(x, x), Ok(true));
        }
        g.check_invariants().map_err(proptest::TestCaseError)?;
    }
}
