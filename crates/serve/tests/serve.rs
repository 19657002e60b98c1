//! Integration tests of the serving layer: epoch/oracle equivalence, pinned
//! readers, ring retention, and the 1-writer/8-reader stress test.
//!
//! The oracle here is deliberately independent of the serving machinery: a
//! plain edge set + weight array replayed batch by batch, with per-epoch
//! partitions computed by a union-find — the same canonical shape the fuzz
//! harness uses — so a bug in the labels export or the snapshot builder
//! cannot cancel itself out on the oracle side.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dyntree_primitives::algebra::{Agg, SumMinMax};
use dyntree_primitives::ops::{GraphError, GraphOp, OpOutcome};
use dyntree_primitives::Dsu;
use dyntree_serve::{
    EpochRetired, NaiveServingEngine, PinnedReader, ReadHandle, ServingEngine, Snapshot,
    UfoServingEngine, Versioned,
};
use dyntree_workloads::{FuzzTraceGen, ServeMixGen, ServeQuery};

// ---------------------------------------------------------------------------
// The independent oracle
// ---------------------------------------------------------------------------

/// Graph state replayed with plain containers, mirroring the engine's
/// validation rules exactly (see `DynConnectivity::apply`).
///
/// `bulk` says whether the serving backend under test supports
/// `ComponentApply` (naive: yes, ufo: no — a declining backend leaves the
/// weights untouched, and so must the oracle).  `PathApply` is never
/// replayed here: the vertices it touches depend on the engine's spanning
/// forest *shape*, which an edge-set oracle cannot reconstruct, so serve
/// traces keep a zero path-apply rate and leave that op to the differential
/// harness (where every engine maintains the same forest).
#[derive(Clone, Default)]
struct Oracle {
    len: usize,
    edges: HashSet<(usize, usize)>,
    weights: Vec<i64>,
    bulk: bool,
}

/// Frozen per-epoch answers derived from an [`Oracle`].
struct OracleEpoch {
    len: usize,
    rep: Vec<usize>,
    size: HashMap<usize, u64>,
    agg: HashMap<usize, Agg<SumMinMax>>,
}

impl Oracle {
    fn apply(&mut self, ops: &[GraphOp]) {
        for op in ops {
            match *op {
                GraphOp::AddVertices(c) => {
                    if let Some(t) = self.len.checked_add(c) {
                        self.len = t;
                        self.weights.resize(t, 0);
                    }
                }
                GraphOp::InsertEdge(u, v) => {
                    if u != v && u < self.len && v < self.len {
                        self.edges.insert((u.min(v), u.max(v)));
                    }
                }
                GraphOp::DeleteEdge(u, v) => {
                    if u != v && u < self.len && v < self.len {
                        self.edges.remove(&(u.min(v), u.max(v)));
                    }
                }
                GraphOp::SetWeight(v, w) => {
                    if v < self.len {
                        self.weights[v] = w;
                    }
                }
                GraphOp::ComponentApply(v, delta) => {
                    if self.bulk && v < self.len {
                        for x in self.component_of(v) {
                            self.weights[x] = self.weights[x].saturating_add(delta);
                        }
                    }
                }
                GraphOp::PathApply(..) => {
                    debug_assert!(
                        !self.bulk,
                        "serve traces must not contain PathApply (structure-dependent)"
                    );
                }
            }
        }
    }

    /// All vertices reachable from `v` over the oracle's edge set (BFS).
    fn component_of(&self, v: usize) -> Vec<usize> {
        let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
        for &(a, b) in &self.edges {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let mut seen = HashSet::from([v]);
        let mut queue = vec![v];
        let mut out = vec![v];
        while let Some(x) = queue.pop() {
            for &y in adj.get(&x).map_or(&[][..], |n| n) {
                if seen.insert(y) {
                    out.push(y);
                    queue.push(y);
                }
            }
        }
        out
    }

    fn freeze(&self) -> OracleEpoch {
        let mut dsu = Dsu::new(self.len);
        for &(u, v) in &self.edges {
            dsu.union(u, v);
        }
        let rep: Vec<usize> = (0..self.len).map(|v| dsu.find(v)).collect();
        let mut size: HashMap<usize, u64> = HashMap::new();
        let mut agg: HashMap<usize, Agg<SumMinMax>> = HashMap::new();
        for (v, &r) in rep.iter().enumerate() {
            *size.entry(r).or_insert(0) += 1;
            let slot = agg.entry(r).or_insert(Agg::IDENTITY);
            *slot = Agg::combine(*slot, Agg::vertex(self.weights[v]));
        }
        OracleEpoch {
            len: self.len,
            rep,
            size,
            agg,
        }
    }
}

impl OracleEpoch {
    fn connected(&self, u: usize, v: usize) -> bool {
        u < self.len && v < self.len && (u == v || self.rep[u] == self.rep[v])
    }

    fn component_size(&self, v: usize) -> u64 {
        if v < self.len {
            self.size[&self.rep[v]]
        } else {
            0
        }
    }

    fn component_agg(&self, v: usize) -> Option<Agg<SumMinMax>> {
        if v < self.len {
            Some(self.agg[&self.rep[v]])
        } else {
            None
        }
    }
}

/// Replays the writer batches through the oracle, freezing one epoch table
/// per publication (index e = state after batch e; index 0 = bootstrap).
fn oracle_epochs(initial: usize, batches: &[Vec<GraphOp>], bulk: bool) -> Vec<OracleEpoch> {
    let mut oracle = Oracle {
        len: initial,
        weights: vec![0; initial],
        bulk,
        ..Default::default()
    };
    let mut out = Vec::with_capacity(batches.len() + 1);
    out.push(oracle.freeze());
    for batch in batches {
        oracle.apply(batch);
        out.push(oracle.freeze());
    }
    out
}

/// One recorded reader answer, checked against the oracle *at its epoch*.
enum Answer {
    Connected(ServeQuery, Versioned<bool>),
    Size(ServeQuery, Versioned<u64>),
    Agg(ServeQuery, Versioned<Option<Agg<SumMinMax>>>),
}

fn run_query(reader: &mut ReadHandle<SumMinMax>, q: ServeQuery) -> Answer {
    match q {
        ServeQuery::Connected(u, v) => Answer::Connected(q, reader.connected(u, v)),
        ServeQuery::ComponentSize(v) => Answer::Size(q, reader.component_size(v)),
        ServeQuery::ComponentAgg(v) => Answer::Agg(q, reader.component_agg(v)),
    }
}

fn check_answer(epochs: &[OracleEpoch], a: &Answer) {
    match *a {
        Answer::Connected(q, ans) => {
            let ServeQuery::Connected(u, v) = q else {
                unreachable!()
            };
            let oracle = &epochs[ans.epoch as usize];
            assert_eq!(
                ans.value,
                oracle.connected(u, v),
                "connected({u},{v}) diverged at epoch {}",
                ans.epoch
            );
        }
        Answer::Size(q, ans) => {
            let ServeQuery::ComponentSize(v) = q else {
                unreachable!()
            };
            let oracle = &epochs[ans.epoch as usize];
            assert_eq!(
                ans.value,
                oracle.component_size(v),
                "component_size({v}) diverged at epoch {}",
                ans.epoch
            );
        }
        Answer::Agg(q, ans) => {
            let ServeQuery::ComponentAgg(v) = q else {
                unreachable!()
            };
            let oracle = &epochs[ans.epoch as usize];
            assert_eq!(
                ans.value,
                oracle.component_agg(v),
                "component_agg({v}) diverged at epoch {}",
                ans.epoch
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sequential equivalence and publication bookkeeping
// ---------------------------------------------------------------------------

#[test]
fn every_epoch_matches_the_oracle_sequentially() {
    // ufo declines bulk applies, so component applies in the trace must be
    // weight no-ops on both sides (bulk = false in the oracle)
    let batches = FuzzTraceGen::new(11)
        .with_ops(4_000)
        .with_bulk_applies(0.0, 0.01)
        .batches(64);
    let epochs = oracle_epochs(0, &batches, false);
    let mut serving = UfoServingEngine::new(0);
    let mut reader = serving.reader();
    for (i, batch) in batches.iter().enumerate() {
        let report = serving.apply(batch);
        assert_eq!(report.version, i as u64 + 1, "one epoch per apply");
        assert_eq!(serving.latest_epoch(), report.version);
        let oracle = &epochs[i + 1];
        for v in 0..serving.len() + 2 {
            let ans = reader.component_size(v);
            assert_eq!(ans.epoch, report.version);
            assert_eq!(
                ans.value,
                oracle.component_size(v),
                "size({v}) @ {}",
                ans.epoch
            );
            let agg = reader.component_agg(v);
            assert_eq!(
                agg.value,
                oracle.component_agg(v),
                "agg({v}) @ {}",
                agg.epoch
            );
        }
        for (u, v) in [(0, 1), (1, 5), (3, 17), (60, 61), (2, 300)] {
            assert_eq!(
                reader.connected(u, v).value,
                oracle.connected(u, v),
                "connected({u},{v})"
            );
        }
    }
}

#[test]
#[should_panic(expected = "exceeds the u32 id space")]
fn new_refuses_more_vertices_than_u32_ids() {
    let _ = UfoServingEngine::new(dyntree_primitives::ops::MAX_VERTICES + 1);
}

#[test]
fn serving_works_over_the_oracle_backend_too() {
    // same trace, naive spanning backend: publication is backend-agnostic —
    // and this backend *supports* component applies, so the shadow table must
    // track the bulk updates (bulk = true in the oracle)
    let batches = FuzzTraceGen::new(23)
        .with_ops(1_500)
        .with_bulk_applies(0.0, 0.02)
        .batches(50);
    let epochs = oracle_epochs(0, &batches, true);
    let mut serving = NaiveServingEngine::new(0);
    let mut reader = serving.reader();
    for (i, batch) in batches.iter().enumerate() {
        serving.apply(batch);
        let oracle = &epochs[i + 1];
        for v in 0..serving.len() {
            assert_eq!(reader.component_size(v).value, oracle.component_size(v));
            assert_eq!(
                reader.component_agg(v).value,
                oracle.component_agg(v),
                "agg({v}) after batch {i}"
            );
        }
    }
}

#[test]
fn report_version_surfaces_in_display() {
    let mut serving = UfoServingEngine::new(0);
    let report = serving.apply(&[GraphOp::AddVertices(3), GraphOp::InsertEdge(0, 1)]);
    assert_eq!(report.version, 1);
    assert!(report.to_string().ends_with("| v1"), "{report}");
    let report = serving.apply(&[GraphOp::InsertEdge(1, 2)]);
    assert!(report.to_string().ends_with("| v2"), "{report}");
}

// ---------------------------------------------------------------------------
// Pinning and ring retention
// ---------------------------------------------------------------------------

#[test]
fn pinned_readers_survive_k_newer_publications() {
    let retention = 4;
    let mut serving = UfoServingEngine::new(0).with_retention(retention);
    serving.apply(&[
        GraphOp::AddVertices(6),
        GraphOp::InsertEdge(0, 1),
        GraphOp::InsertEdge(1, 2),
    ]);
    let mut reader = serving.reader();
    let pinned = reader.pin();
    assert_eq!(pinned.epoch(), 1);
    let before_sizes: Vec<u64> = (0..6).map(|v| pinned.component_size(v).value).collect();

    // churn far past the ring's retention: the pin must keep its epoch alive
    for i in 0..3 * retention as u64 {
        serving.apply(&[
            GraphOp::DeleteEdge(0, 1),
            GraphOp::InsertEdge(3, (i as usize % 2) + 4),
            GraphOp::InsertEdge(0, 1),
        ]);
    }
    assert!(serving.latest_epoch() > retention as u64);
    assert_eq!(pinned.epoch(), 1, "pin never moves");
    let after_sizes: Vec<u64> = (0..6).map(|v| pinned.component_size(v).value).collect();
    assert_eq!(before_sizes, after_sizes, "pinned answers are frozen");
    assert!(pinned.connected(0, 2).value);
    assert_eq!(pinned.connected(0, 2).epoch, 1);

    // the live handle meanwhile reads the latest epoch
    assert_eq!(reader.connected(0, 1).epoch, serving.latest_epoch());
}

#[test]
fn evicted_epochs_are_a_typed_error() {
    let retention = 3;
    let mut serving = UfoServingEngine::new(4).with_retention(retention);
    for i in 0..8u64 {
        serving.apply(&[GraphOp::SetWeight((i % 4) as usize, i as i64)]);
    }
    let reader = serving.reader();
    let latest = serving.latest_epoch();
    assert_eq!(latest, 8);
    assert_eq!(serving.ring().len(), retention);
    let oldest = serving.ring().oldest_retained();
    assert_eq!(oldest, latest - retention as u64 + 1);

    // retained epochs pin fine
    for e in oldest..=latest {
        assert_eq!(reader.at(e).unwrap().epoch(), e);
    }
    // evicted epoch: typed error carrying the retention window
    let err = reader.at(1).unwrap_err();
    assert_eq!(
        err,
        EpochRetired {
            requested: 1,
            oldest_retained: oldest,
            latest,
        }
    );
    assert!(err.to_string().contains("epoch 1 not retained"));
    // never-published (future) epoch: same typed refusal, never a guess
    assert_eq!(reader.at(latest + 5).unwrap_err().requested, latest + 5);
}

#[test]
fn retention_of_one_keeps_only_the_latest() {
    let mut serving = UfoServingEngine::new(2).with_retention(1);
    serving.apply(&[GraphOp::InsertEdge(0, 1)]);
    serving.apply(&[GraphOp::DeleteEdge(0, 1)]);
    assert_eq!(serving.ring().len(), 1);
    assert_eq!(serving.ring().oldest_retained(), 2);
    assert!(serving.reader().at(1).is_err());
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

#[test]
fn memory_breakdown_reports_snapshots_and_total_stays_consistent() {
    let mut serving = UfoServingEngine::new(0);
    serving.apply(&FuzzTraceGen::new(3).with_ops(800).generate());
    let b = serving.memory_breakdown();
    assert!(b.snapshots > 0, "retained snapshots own heap bytes");
    // total() must equal the sum of every line, snapshots included
    let sum = b.backend
        + b.adjacency_tree
        + b.adjacency_tree_levels
        + b.adjacency_nontree
        + b.edge_registry
        + b.scratch
        + b.snapshots;
    assert_eq!(b.total(), sum);
    assert!(b.to_string().contains("snapshots"), "{b}");

    // an unserved engine reports no snapshots line and a total without it
    let bare = serving.engine().memory_breakdown();
    assert_eq!(bare.snapshots, 0);
    assert!(!bare.to_string().contains("snapshots"), "{bare}");
    assert_eq!(b.total() - b.snapshots, bare.total());
}

// ---------------------------------------------------------------------------
// Concurrency: 1 writer, 8 readers, 20k ops
// ---------------------------------------------------------------------------

#[test]
fn stress_one_writer_eight_readers_20k_ops() {
    let readers = 8;
    let mix = ServeMixGen::new(77)
        .with_ops(20_000)
        .with_batch_size(64)
        .with_readers(readers)
        .with_queries_per_reader(3_000)
        .generate();
    let epochs = oracle_epochs(0, &mix.writer_batches, false);

    let mut serving = UfoServingEngine::new(0).with_retention(6);
    let handle = serving.reader();
    let recorded: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let joins: Vec<_> = mix
            .reader_queries
            .iter()
            .map(|stream| {
                let mut reader = handle.clone();
                scope.spawn(move || {
                    stream
                        .iter()
                        .map(|&q| run_query(&mut reader, q))
                        .collect::<Vec<Answer>>()
                })
            })
            .collect();
        for batch in &mix.writer_batches {
            serving.apply(batch);
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    assert_eq!(serving.latest_epoch(), mix.writer_batches.len() as u64);
    let mut checked = 0usize;
    for stream in &recorded {
        let mut last_epoch = 0u64;
        for a in stream {
            check_answer(&epochs, a);
            let e = match a {
                Answer::Connected(_, v) => v.epoch,
                Answer::Size(_, v) => v.epoch,
                Answer::Agg(_, v) => v.epoch,
            };
            assert!(
                e >= last_epoch,
                "epochs observed by one reader are monotone"
            );
            last_epoch = e;
            checked += 1;
        }
    }
    assert_eq!(checked, readers * 3_000);
}

// ---------------------------------------------------------------------------
// API contracts
// ---------------------------------------------------------------------------

#[test]
fn handles_are_send_sync_and_cheap_to_clone() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReadHandle<SumMinMax>>();
    assert_send_sync::<PinnedReader<SumMinMax>>();
    assert_send_sync::<Arc<Snapshot<SumMinMax>>>();
    assert_send_sync::<ServingEngine<ufo_forest::UfoForest>>();
}

#[test]
fn weight_mutations_reach_readers_only_through_apply() {
    // The epoch contract (DESIGN.md §11): an epoch is a *batch* boundary.
    // `ServingEngine` exposes the engine read-only (`engine()` returns a
    // shared reference), so every weight-mutating path — `SetWeight` and the
    // bulk applies included — goes through `apply`, which is exactly what
    // makes the published snapshots complete.  A singleton mutator like
    // `try_set_weight` does not bump `version()`, so a weight change outside
    // `apply` would be unobservable through serve; the type system rules it
    // out here, and this test pins the observable half of the contract.
    let mut serving = NaiveServingEngine::new(0);
    serving.apply(&[
        GraphOp::AddVertices(4),
        GraphOp::InsertEdge(0, 1),
        GraphOp::SetWeight(0, 5),
        GraphOp::SetWeight(1, 7),
    ]);
    let v1 = serving.latest_epoch();
    assert_eq!(serving.version(), v1, "engine version IS the epoch");
    let mut reader = serving.reader();
    let before = reader.component_agg(0).value.unwrap();
    assert_eq!(before.sum, 12);

    // a bulk update is routed through apply: one new epoch, visible at once
    let report = serving.apply(&[GraphOp::ComponentApply(0, 10)]);
    assert_eq!(report.version, v1 + 1, "bulk batch publishes a new epoch");
    assert_eq!(serving.version(), report.version);
    let after = reader.component_agg(0);
    assert_eq!(after.epoch, report.version);
    assert_eq!(after.value.unwrap().sum, 12 + 2 * 10);

    // a pinned reader at the old epoch still sees the pre-update weights
    let pinned = reader.at(v1).unwrap();
    assert_eq!(pinned.component_agg(0).value.unwrap().sum, 12);
}

#[test]
fn serving_answers_component_agg_for_path_only_backends() {
    // link-cut trees decline whole-tree aggregates live; the snapshot's
    // shadow-weight fold answers them anyway
    let mut serving: ServingEngine<dyntree_linkcut::LinkCutForest> = ServingEngine::new(0);
    serving.apply(&[
        GraphOp::AddVertices(3),
        GraphOp::InsertEdge(0, 1),
        GraphOp::SetWeight(0, 5),
        GraphOp::SetWeight(1, 7),
    ]);
    let mut reader = serving.reader();
    let agg = reader.component_agg(0).value.unwrap();
    assert_eq!((agg.sum, agg.count), (12, 2));
    assert_eq!(reader.component_size(0).value, 2);
}

#[test]
fn growth_past_the_u32_id_space_is_rejected_by_engine_and_mirror_alike() {
    // The weight mirror must reject exactly the growth the engine rejects:
    // accepting it would let a later SetWeight index past the shadow table.
    let mut serving = UfoServingEngine::new(3);
    serving.apply(&[GraphOp::InsertEdge(0, 1), GraphOp::SetWeight(0, 5)]);
    let bytes = serving.engine().memory_breakdown().total();
    let report = serving.apply(&[GraphOp::AddVertices(1 << 32), GraphOp::SetWeight(1, 9)]);
    assert_eq!(
        report.outcomes,
        vec![
            OpOutcome::Rejected(GraphError::VertexOutOfRange {
                v: usize::MAX,
                len: 3,
            }),
            OpOutcome::WeightSet,
        ]
    );
    assert_eq!(serving.len(), 3);
    assert_eq!(serving.engine().memory_breakdown().total(), bytes);
    let mut reader = serving.reader();
    let agg = reader.component_agg(1);
    assert_eq!(agg.epoch, report.version);
    assert_eq!(
        agg.value.unwrap().sum,
        5 + 9,
        "the in-range SetWeight landed"
    );
    serving.verify_shadow_weights().unwrap();
}
