//! Benchmark harness shared by the figure/table binaries and the baseline
//! recorder and gate ([`baseline`]).
//!
//! Every structure is driven through the [`DynTree`] adapter so that each
//! experiment applies *exactly* the same operation stream to every contender.
//! The binaries print one row per (structure, input) pair in the same layout
//! as the corresponding figure of the paper; `EXPERIMENTS.md` records the
//! paper-reported shape next to the numbers measured here.

use std::time::{Duration, Instant};

use dyntree_euler::EulerTourForest;
use dyntree_linkcut::LinkCutForest;
use dyntree_seqs::{DynSequence, SplaySequence, TreapSequence};
use dyntree_workloads::Forest;
use ufo_forest::{TopologyForest, UfoForest};

/// Uniform adapter over every dynamic-tree structure in the workspace.
pub trait DynTree {
    /// Human-readable name (matches the paper's legends).
    fn name(&self) -> &'static str;
    /// Insert an edge (must not create a cycle).
    fn link(&mut self, u: usize, v: usize);
    /// Delete an edge.
    fn cut(&mut self, u: usize, v: usize);
    /// Connectivity query.
    fn connected(&mut self, u: usize, v: usize) -> bool;
    /// Vertex-weight path sum, if the structure supports path queries.
    fn path_sum(&mut self, u: usize, v: usize) -> Option<i64>;
    /// Set a vertex weight.
    fn set_weight(&mut self, v: usize, w: i64);
    /// Heap bytes owned by the structure.
    fn memory_bytes(&self) -> usize;
    /// Whether path queries are supported.
    fn supports_path_queries(&self) -> bool {
        true
    }
}

/// The contenders available to the sequential experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// Link-cut tree.
    LinkCut,
    /// UFO tree.
    Ufo,
    /// Topology tree (with dynamic ternarization).
    Topology,
    /// Euler tour tree over a treap.
    EttTreap,
    /// Euler tour tree over a splay tree.
    EttSplay,
}

impl Structure {
    /// All sequential contenders, in the paper's legend order.
    pub const ALL: [Structure; 5] = [
        Structure::LinkCut,
        Structure::Ufo,
        Structure::EttTreap,
        Structure::EttSplay,
        Structure::Topology,
    ];

    /// Instantiates the structure over `n` vertices.
    pub fn build(&self, n: usize) -> Box<dyn DynTree> {
        match self {
            Structure::LinkCut => Box::new(LinkCutAdapter(LinkCutForest::new(n))),
            Structure::Ufo => Box::new(UfoAdapter(UfoForest::new(n))),
            Structure::Topology => Box::new(TopologyAdapter(TopologyForest::new(n))),
            Structure::EttTreap => Box::new(EttAdapter::<TreapSequence>::new(n, "ETT (Treap)")),
            Structure::EttSplay => Box::new(EttAdapter::<SplaySequence>::new(n, "ETT (Splay)")),
        }
    }
}

struct LinkCutAdapter(LinkCutForest);
struct UfoAdapter(UfoForest);
struct TopologyAdapter(TopologyForest);
struct EttAdapter<S: DynSequence> {
    inner: EulerTourForest<S>,
    name: &'static str,
}

impl<S: DynSequence> EttAdapter<S> {
    fn new(n: usize, name: &'static str) -> Self {
        Self {
            inner: EulerTourForest::new(n),
            name,
        }
    }
}

impl DynTree for LinkCutAdapter {
    fn name(&self) -> &'static str {
        "Link-Cut Tree"
    }
    fn link(&mut self, u: usize, v: usize) {
        self.0.link(u, v);
    }
    fn cut(&mut self, u: usize, v: usize) {
        self.0.cut(u, v);
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        self.0.connected(u, v)
    }
    fn path_sum(&mut self, u: usize, v: usize) -> Option<i64> {
        self.0.path_sum(u, v)
    }
    fn set_weight(&mut self, v: usize, w: i64) {
        self.0.set_weight(v, w);
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

impl DynTree for UfoAdapter {
    fn name(&self) -> &'static str {
        "UFO Tree"
    }
    fn link(&mut self, u: usize, v: usize) {
        self.0.link(u, v);
    }
    fn cut(&mut self, u: usize, v: usize) {
        self.0.cut(u, v);
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        UfoForest::connected(&self.0, u, v)
    }
    fn path_sum(&mut self, u: usize, v: usize) -> Option<i64> {
        UfoForest::path_sum(&self.0, u, v)
    }
    fn set_weight(&mut self, v: usize, w: i64) {
        self.0.set_weight(v, w);
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

impl DynTree for TopologyAdapter {
    fn name(&self) -> &'static str {
        "Topology Tree"
    }
    fn link(&mut self, u: usize, v: usize) {
        self.0.link(u, v);
    }
    fn cut(&mut self, u: usize, v: usize) {
        self.0.cut(u, v);
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        TopologyForest::connected(&self.0, u, v)
    }
    fn path_sum(&mut self, u: usize, v: usize) -> Option<i64> {
        TopologyForest::path_sum(&self.0, u, v)
    }
    fn set_weight(&mut self, v: usize, w: i64) {
        self.0.set_weight(v, w);
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

impl<S: DynSequence> DynTree for EttAdapter<S> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn link(&mut self, u: usize, v: usize) {
        self.inner.link(u, v);
    }
    fn cut(&mut self, u: usize, v: usize) {
        self.inner.cut(u, v);
    }
    fn connected(&mut self, u: usize, v: usize) -> bool {
        self.inner.connected(u, v)
    }
    fn path_sum(&mut self, _u: usize, _v: usize) -> Option<i64> {
        None
    }
    fn set_weight(&mut self, v: usize, w: i64) {
        self.inner.set_weight(v, w);
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn supports_path_queries(&self) -> bool {
        false
    }
}

/// Reads the benchmark scale factor from the `BENCH_SCALE` environment
/// variable (`small`, `medium`, `large`); defaults to `small` so the harness
/// completes quickly on a laptop.
pub fn scale() -> &'static str {
    match std::env::var("BENCH_SCALE").as_deref() {
        Ok("large") => "large",
        Ok("medium") => "medium",
        _ => "small",
    }
}

/// Default vertex count for the sequential experiments at the current scale.
pub fn default_n() -> usize {
    match scale() {
        "large" => 500_000,
        "medium" => 100_000,
        _ => 20_000,
    }
}

/// The "insert every edge then delete every edge, both in random order"
/// workload of Figure 5 / Figure 8, returning the elapsed seconds.
pub fn build_destroy_time(structure: Structure, forest: &Forest, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut insert_order = forest.edges.clone();
    insert_order.shuffle(&mut rng);
    let mut delete_order = forest.edges.clone();
    delete_order.shuffle(&mut rng);

    let mut tree = structure.build(forest.n);
    let start = Instant::now();
    for &(u, v) in &insert_order {
        tree.link(u, v);
    }
    for &(u, v) in &delete_order {
        tree.cut(u, v);
    }
    start.elapsed().as_secs_f64()
}

/// Memory used by `structure` after inserting all edges of `forest`.
pub fn build_memory(structure: Structure, forest: &Forest) -> usize {
    let mut tree = structure.build(forest.n);
    for &(u, v) in &forest.edges {
        tree.link(u, v);
    }
    tree.memory_bytes()
}

/// Times `q` random connectivity (or path) queries on a fully built tree.
pub fn query_time(structure: Structure, forest: &Forest, q: usize, paths: bool, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut tree = structure.build(forest.n);
    for &(u, v) in &forest.edges {
        tree.link(u, v);
    }
    for v in 0..forest.n {
        tree.set_weight(v, (v % 97) as i64);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let queries: Vec<(usize, usize)> = (0..q)
        .map(|_| (rng.random_range(0..forest.n), rng.random_range(0..forest.n)))
        .collect();
    let start = Instant::now();
    let mut sink = 0i64;
    for &(a, b) in &queries {
        if paths {
            sink ^= tree.path_sum(a, b).unwrap_or(0);
        } else {
            sink ^= tree.connected(a, b) as i64;
        }
    }
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64()
}

// ------------------------------------------------------------------
// Dynamic-connectivity stream harness
// ------------------------------------------------------------------

use dyntree_connectivity::{DynConnectivity, OpOf, SpanningBackend};
use dyntree_workloads::{EdgeStream, StreamOp};

/// The two canonical edge streams of the connectivity benchmarks — the
/// single source of truth for the `connectivity_stream` and `batch_ops`
/// workloads, so the `baseline` recorder and `bench_gate` always replay the
/// same inputs.
pub fn connectivity_bench_streams() -> Vec<EdgeStream> {
    use dyntree_workloads::{churn_stream, road_grid_graph, sliding_window_stream, temporal_graph};
    let temporal = temporal_graph(4_000, 3, 17);
    let road = road_grid_graph(40, 17);
    vec![
        sliding_window_stream(&temporal, 2_048, 0.1, 23),
        churn_stream(&road, 6_000, 0.9, 0.1, 23),
    ]
}

/// The spanning-forest backends raced by the connectivity benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnBackend {
    /// UFO forest backend.
    Ufo,
    /// Link-cut forest backend.
    LinkCut,
    /// Euler tour forest (treap) backend.
    EulerTreap,
    /// Euler tour forest (splay) backend.
    EulerSplay,
}

impl ConnBackend {
    /// All raced backends, in legend order.
    pub const ALL: [ConnBackend; 4] = [
        ConnBackend::Ufo,
        ConnBackend::LinkCut,
        ConnBackend::EulerTreap,
        ConnBackend::EulerSplay,
    ];

    /// Short name used in benchmark ids and the baseline JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ConnBackend::Ufo => "ufo",
            ConnBackend::LinkCut => "linkcut",
            ConnBackend::EulerTreap => "euler-treap",
            ConnBackend::EulerSplay => "euler-splay",
        }
    }
}

/// Calls the generic function `f::<B>(args…)` with `B` the spanning-forest
/// type behind a [`ConnBackend`] value: the one place the bench crate turns
/// a backend name into a concrete [`SpanningBackend`].
#[macro_export]
macro_rules! on_conn_backend {
    ($backend:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $backend {
            $crate::ConnBackend::Ufo => $f::<::ufo_forest::UfoForest>($($arg),*),
            $crate::ConnBackend::LinkCut => $f::<::dyntree_linkcut::LinkCutForest>($($arg),*),
            $crate::ConnBackend::EulerTreap => $f::<
                ::dyntree_euler::EulerTourForest<::dyntree_seqs::TreapSequence>,
            >($($arg),*),
            $crate::ConnBackend::EulerSplay => $f::<
                ::dyntree_euler::EulerTourForest<::dyntree_seqs::SplaySequence>,
            >($($arg),*),
        }
    };
}

fn replay<B: SpanningBackend>(stream: &EdgeStream) -> (f64, u64) {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(stream.n);
    let mut checksum = 0u64;
    let start = Instant::now();
    for op in &stream.ops {
        match *op {
            StreamOp::Insert(u, v) => {
                let _ = engine.try_insert_edge(u, v);
            }
            StreamOp::Delete(u, v) => {
                let _ = engine.try_delete_edge(u, v);
            }
            StreamOp::Query(a, b) => {
                checksum = checksum.wrapping_add(u64::from(engine.try_connected(a, b) == Ok(true)))
            }
        }
    }
    checksum = checksum.wrapping_add(engine.component_count() as u64);
    (
        start.elapsed().as_secs_f64(),
        std::hint::black_box(checksum),
    )
}

fn replay_batched<B: SpanningBackend>(stream: &EdgeStream, batch: usize) -> (f64, u64) {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(stream.n);
    // `apply` keeps submission order (it splits a batch into same-kind runs
    // itself), so the replay is semantically identical to the sequential one.
    let mut pending: Vec<OpOf<B>> = Vec::with_capacity(batch);
    let flush = |engine: &mut DynConnectivity<B>, pending: &mut Vec<OpOf<B>>| {
        if !pending.is_empty() {
            engine.apply(pending);
            pending.clear();
        }
    };
    let mut checksum = 0u64;
    let start = Instant::now();
    for op in &stream.ops {
        match *op {
            StreamOp::Insert(u, v) => pending.push(GraphOp::InsertEdge(u, v)),
            StreamOp::Delete(u, v) => pending.push(GraphOp::DeleteEdge(u, v)),
            StreamOp::Query(a, b) => {
                // queries see a consistent state: flush the pending batch
                flush(&mut engine, &mut pending);
                checksum = checksum.wrapping_add(u64::from(engine.try_connected(a, b) == Ok(true)));
            }
        }
        if pending.len() >= batch {
            flush(&mut engine, &mut pending);
        }
    }
    flush(&mut engine, &mut pending);
    checksum = checksum.wrapping_add(engine.component_count() as u64);
    (
        start.elapsed().as_secs_f64(),
        std::hint::black_box(checksum),
    )
}

/// Replays `stream` one operation at a time on `backend`; returns elapsed
/// seconds and a checksum of the query answers.
pub fn stream_replay_time(backend: ConnBackend, stream: &EdgeStream) -> (f64, u64) {
    on_conn_backend!(backend, replay(stream))
}

/// Replays `stream` as `apply` transactions of up to `batch` ops (each query
/// flushes the pending transaction first).
pub fn stream_batch_replay_time(
    backend: ConnBackend,
    stream: &EdgeStream,
    batch: usize,
) -> (f64, u64) {
    on_conn_backend!(backend, replay_batched(stream, batch))
}

// ------------------------------------------------------------------
// GraphOp transaction harness (apply vs looped single ops)
// ------------------------------------------------------------------

use dyntree_primitives::algebra::SumMinMax;
use dyntree_primitives::ops::GraphOp;
use dyntree_primitives::ParallelConfig;

pub mod baseline;

/// The benchmark streams' mutation traces as `GraphOp` transactions (the
/// `AddVertices` bootstrap included — the engines start **empty**), labelled
/// with the source stream's name.
pub fn batch_ops_traces() -> Vec<(String, Vec<GraphOp>)> {
    connectivity_bench_streams()
        .iter()
        .map(|s| (s.name.clone(), s.to_graph_ops()))
        .collect()
}

/// Applies `ops` to `engine` in transactions of `batch` ops; returns the
/// elapsed wall time and the number of ops the engine applied.
pub fn apply_in_chunks<B: SpanningBackend<Weights = SumMinMax>>(
    engine: &mut DynConnectivity<B>,
    ops: &[GraphOp],
    batch: usize,
) -> (Duration, u64) {
    let mut applied = 0u64;
    let start = Instant::now();
    for chunk in ops.chunks(batch.max(1)) {
        applied += engine.apply(chunk).applied as u64;
    }
    (start.elapsed(), std::hint::black_box(applied))
}

fn apply_ops<B: SpanningBackend<Weights = SumMinMax>>(
    ops: &[GraphOp],
    batch: usize,
    cfg: ParallelConfig,
) -> (f64, u64) {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(0).with_parallel_config(cfg);
    let (elapsed, applied) = apply_in_chunks(&mut engine, ops, batch);
    let checksum = applied.wrapping_add(engine.component_count() as u64);
    (elapsed.as_secs_f64(), std::hint::black_box(checksum))
}

fn single_ops<B: SpanningBackend<Weights = SumMinMax>>(ops: &[GraphOp]) -> (f64, u64) {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(0);
    let mut applied = 0u64;
    let start = Instant::now();
    for &op in ops {
        let ok = match op {
            GraphOp::AddVertices(k) => {
                let first = engine.len();
                engine.ensure_vertices(first + k);
                true
            }
            GraphOp::InsertEdge(u, v) => engine.try_insert_edge(u, v).is_ok(),
            GraphOp::DeleteEdge(u, v) => engine.try_delete_edge(u, v).is_ok(),
            GraphOp::SetWeight(v, w) => engine.try_set_weight(v, w).is_ok(),
            GraphOp::PathApply(u, v, d) => {
                matches!(engine.try_path_apply(u, v, d), Ok(Some(_)))
            }
            GraphOp::ComponentApply(v, d) => engine.try_component_apply(v, d).is_ok(),
        };
        applied += ok as u64;
    }
    applied = applied.wrapping_add(engine.component_count() as u64);
    (start.elapsed().as_secs_f64(), std::hint::black_box(applied))
}

/// Applies `ops` in transactions of `batch` ops through `apply` under the
/// tunables `cfg`; returns elapsed seconds and a checksum (applied count +
/// final components).  The scaling rows sweep `cfg.threads` over one shared
/// pool, so a single process measures the same workload at several
/// effective widths.
pub fn apply_time(
    backend: ConnBackend,
    ops: &[GraphOp],
    batch: usize,
    cfg: ParallelConfig,
) -> (f64, u64) {
    on_conn_backend!(backend, apply_ops(ops, batch, cfg))
}

// ------------------------------------------------------------------
// Parallel-scaling harness (one pool, several effective widths)
// ------------------------------------------------------------------

/// The 64k-op insert/delete trace of the `parallel_scaling` benchmark: a
/// spanning chain over 8192 vertices followed by rounds of one 4096-edge
/// insert burst (mostly cycle edges once the chain exists — exactly the
/// shape the parallel pre-pass classifies without live probes) and one
/// 1024-edge delete burst over the live edge set.  Bursts are longer than
/// the default `batch_grain`, so applying the trace in 8192-op transactions
/// drives the chunked pre-pass on every insert run.
pub fn parallel_scaling_trace() -> (String, Vec<GraphOp>) {
    const N: usize = 8192;
    const TOTAL: usize = 65_536;
    let mut ops: Vec<GraphOp> = Vec::with_capacity(TOTAL);
    ops.push(GraphOp::AddVertices(N));
    let mut live: Vec<(usize, usize)> = Vec::new();
    for i in 0..N - 1 {
        ops.push(GraphOp::InsertEdge(i, i + 1));
        live.push((i, i + 1));
    }
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut rand = move |m: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % m
    };
    while ops.len() < TOTAL {
        for _ in 0..4096 {
            if ops.len() >= TOTAL {
                break;
            }
            let u = rand(N);
            let v = rand(N);
            ops.push(GraphOp::InsertEdge(u, v));
            if u != v {
                live.push((u, v));
            }
        }
        for _ in 0..1024 {
            if ops.len() >= TOTAL || live.is_empty() {
                break;
            }
            let (u, v) = live.swap_remove(rand(live.len()));
            ops.push(GraphOp::DeleteEdge(u, v));
        }
    }
    ("SCALE-64k".to_string(), ops)
}

/// The delete-heavy companion to [`parallel_scaling_trace`]: after the same
/// spanning chain over 8192 vertices, a dense 12k-edge insert phase seeds a
/// large non-tree population, and the remaining ops alternate one 1024-edge
/// insert burst with one 3072-edge delete burst over the live edge set — so
/// deletions dominate the churn and every 8192-op transaction contains
/// consecutive delete runs far past the default `delete_grain`, driving the
/// classification pre-pass and the parallel non-tree drain.
pub fn parallel_scaling_delete_trace() -> (String, Vec<GraphOp>) {
    const N: usize = 8192;
    const TOTAL: usize = 65_536;
    let mut ops: Vec<GraphOp> = Vec::with_capacity(TOTAL);
    ops.push(GraphOp::AddVertices(N));
    // `live` tracks canonically-oriented distinct edges, so every delete the
    // trace emits targets a then-live edge (the drain path, not the
    // missing-edge skip, is what this trace measures).
    let mut live: Vec<(usize, usize)> = Vec::new();
    let mut live_set: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    let mut x = 0x00D1_E5CA_1E64_B17E_u64;
    let mut rand = move |m: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % m
    };
    for i in 0..N - 1 {
        ops.push(GraphOp::InsertEdge(i, i + 1));
        live.push((i, i + 1));
        live_set.insert((i, i + 1));
    }
    let insert = |ops: &mut Vec<GraphOp>,
                  live: &mut Vec<(usize, usize)>,
                  live_set: &mut std::collections::HashSet<(usize, usize)>,
                  u: usize,
                  v: usize| {
        ops.push(GraphOp::InsertEdge(u, v));
        if u != v && live_set.insert((u.min(v), u.max(v))) {
            live.push((u.min(v), u.max(v)));
        }
    };
    for _ in 0..12_288 {
        let (u, v) = (rand(N), rand(N));
        insert(&mut ops, &mut live, &mut live_set, u, v);
    }
    while ops.len() < TOTAL {
        for _ in 0..1024 {
            if ops.len() >= TOTAL {
                break;
            }
            let (u, v) = (rand(N), rand(N));
            insert(&mut ops, &mut live, &mut live_set, u, v);
        }
        for _ in 0..3072 {
            if ops.len() >= TOTAL || live.is_empty() {
                break;
            }
            let (u, v) = live.swap_remove(rand(live.len()));
            live_set.remove(&(u, v));
            ops.push(GraphOp::DeleteEdge(u, v));
        }
    }
    ("SCALE-DEL-64k".to_string(), ops)
}

/// The transaction size the 64k-op scaling traces are applied in.
pub const SCALE_BATCH: usize = 8192;

/// The rebuild-threshold percent the delete-heavy gate leg and the recorded
/// baselines arm the escape hatch at.
pub const REBUILD_BENCH_THRESHOLD: usize = 5;

/// Applies the whole trace in 8192-op transactions, sampling the engine's
/// exact heap footprint (`memory_breakdown().total()`) at every transaction
/// boundary, and reports the sample taken where the live-edge count peaks:
/// `(heap bytes, live edges)` at maximum load.  The gate divides one by the
/// other; end-state would be useless on the delete-heavy trace, which
/// finishes almost empty while the slabs retain their peak capacity.
/// Memory, unlike throughput, is deterministic for a fixed trace, so the
/// gate holds these rows exactly: any growth fails.
pub fn memory_peak_of_trace(backend: ConnBackend, ops: &[GraphOp]) -> (usize, usize) {
    fn run<B: SpanningBackend<Weights = SumMinMax>>(ops: &[GraphOp]) -> (usize, usize) {
        let mut engine: DynConnectivity<B> = DynConnectivity::new(0);
        let (mut peak_bytes, mut peak_edges) = (0usize, 0usize);
        for chunk in ops.chunks(SCALE_BATCH) {
            engine.apply(chunk);
            let edges = engine.num_edges();
            if edges >= peak_edges {
                peak_edges = edges;
                peak_bytes = engine.memory_breakdown().total();
            }
        }
        (peak_bytes, peak_edges)
    }
    on_conn_backend!(backend, run(ops))
}

/// Applies `ops` one `try_*` call at a time (the looped-singles baseline the
/// `batch_ops` bench compares `apply` against).
pub fn batch_ops_single_time(backend: ConnBackend, ops: &[GraphOp]) -> (f64, u64) {
    on_conn_backend!(backend, single_ops(ops))
}

// ------------------------------------------------------------------
// Weighted path-query harness (the algebra layer through the engine)
// ------------------------------------------------------------------

use dyntree_naive::NaiveForest;
use dyntree_workloads::{path_tree, random_tree};

/// The forests raced by the weighted path-query benchmark: a random tree
/// (typical case) and a path (maximum tree-path length), labelled for the
/// benchmark ids and the baseline JSON.
pub fn weighted_bench_forests() -> Vec<(&'static str, Forest)> {
    vec![
        ("RND-2048", random_tree(2_048, 99)),
        ("PATH-2048", path_tree(2_048)),
    ]
}

/// The spanning-forest backends raced on weighted path aggregates.  The
/// topology backend is absent by design: it declines engine path aggregates
/// (ternarized answers would be inexact); the Euler backend is included to
/// expose the cost of its O(component) fallback next to the polylog
/// structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightedBackend {
    /// UFO forest backend.
    Ufo,
    /// Link-cut forest backend.
    LinkCut,
    /// Euler tour forest (treap) backend — O(component) path fallback.
    EulerTreap,
    /// Naive oracle backend (small inputs only).
    Naive,
}

impl WeightedBackend {
    /// The backends raced by default, in legend order.
    pub const ALL: [WeightedBackend; 3] = [
        WeightedBackend::Ufo,
        WeightedBackend::LinkCut,
        WeightedBackend::EulerTreap,
    ];

    /// Short name used in benchmark ids and the baseline JSON.
    pub fn name(&self) -> &'static str {
        match self {
            WeightedBackend::Ufo => "ufo",
            WeightedBackend::LinkCut => "linkcut",
            WeightedBackend::EulerTreap => "euler-treap",
            WeightedBackend::Naive => "naive",
        }
    }
}

fn weighted_replay<B>(forest: &Forest, queries: usize, seed: u64) -> (f64, u64)
where
    B: SpanningBackend<Weights = SumMinMax>,
{
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut engine: DynConnectivity<B> = weighted_engine(forest);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checksum = 0u64;
    let start = Instant::now();
    for i in 0..queries {
        let u = rng.random_range(0..forest.n);
        let v = rng.random_range(0..forest.n);
        if i % 5 == 4 {
            // 20% weight churn keeps the aggregates hot
            engine
                .try_set_weight(u, rng.random_range(-500..=500))
                .expect("in-range vertex on a weighted backend");
        } else if let Ok(Some(a)) = engine.try_path_agg(u, v) {
            checksum = checksum
                .wrapping_add(a.sum as u64)
                .wrapping_add(a.edges)
                .wrapping_add(a.max as u64);
        }
    }
    (
        start.elapsed().as_secs_f64(),
        std::hint::black_box(checksum),
    )
}

/// Replays a mixed 80/20 path-aggregate / set-weight workload over a fully
/// built tree; returns elapsed seconds and a checksum of the answers.
pub fn weighted_path_query_time(
    backend: WeightedBackend,
    forest: &Forest,
    queries: usize,
    seed: u64,
) -> (f64, u64) {
    match backend {
        WeightedBackend::Ufo => weighted_replay::<UfoForest>(forest, queries, seed),
        WeightedBackend::LinkCut => weighted_replay::<LinkCutForest>(forest, queries, seed),
        WeightedBackend::EulerTreap => {
            weighted_replay::<EulerTourForest<TreapSequence>>(forest, queries, seed)
        }
        WeightedBackend::Naive => weighted_replay::<NaiveForest>(forest, queries, seed),
    }
}

// ------------------------------------------------------------------
// Serving-layer harness (epoch snapshots under a writing engine)
// ------------------------------------------------------------------

use dyntree_serve::UfoServingEngine;
use dyntree_workloads::{ServeMix, ServeMixGen, ServeQuery};

/// The mixed readers+writer trace the serving benchmark and its baseline
/// replay: a 16k-op writer trace in batches of 64 over a 256→512-vertex
/// graph, with 8 pre-generated reader streams of 100k queries each (the
/// baseline rows use the first 1, 2, and 8 of them).
pub fn serve_bench_mix() -> (String, ServeMix) {
    (
        "SERVE-16k".to_string(),
        ServeMixGen::new(4242)
            .with_ops(16_384)
            .with_batch_size(64)
            .with_readers(8)
            .with_queries_per_reader(100_000)
            .with_vertices(256)
            .with_max_vertices(512)
            .generate(),
    )
}

/// Replays the writer trace through a [`UfoServingEngine`] — every batch
/// publishes a snapshot — and returns elapsed seconds plus the final epoch.
pub fn serve_apply_time(mix: &ServeMix) -> (f64, u64) {
    let mut serving = UfoServingEngine::new(0);
    let start = Instant::now();
    for batch in &mix.writer_batches {
        serving.apply(batch);
    }
    (
        start.elapsed().as_secs_f64(),
        std::hint::black_box(serving.latest_epoch()),
    )
}

/// The same writer trace through the bare engine (no snapshot publication):
/// the reference the writer-row metrics compare against, so the recorded
/// baseline captures snapshot-build cost as the gap between the two.
pub fn serve_plain_apply_time(mix: &ServeMix) -> (f64, u64) {
    let mut engine: DynConnectivity<UfoForest> = DynConnectivity::new(0);
    let start = Instant::now();
    for batch in &mix.writer_batches {
        engine.apply(batch);
    }
    (
        start.elapsed().as_secs_f64(),
        std::hint::black_box(engine.version()),
    )
}

/// Runs the first `readers` query streams of `mix` on their own threads
/// against a live [`UfoServingEngine`] while the writer keeps publishing —
/// first the real trace, then (if the readers outlast it) a small
/// insert/delete flip so churn never stops.  Returns elapsed seconds (start
/// of churn to last reader done) and an answer checksum; the caller derives
/// throughput from `readers × queries_per_reader`.
pub fn serve_reader_query_time(mix: &ServeMix, readers: usize) -> (f64, u64) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    assert!(
        readers >= 1 && readers <= mix.reader_queries.len(),
        "mix has {} reader streams",
        mix.reader_queries.len()
    );
    let mut serving = UfoServingEngine::new(0);
    // bootstrap the vertex universe so readers query a populated graph
    serving.apply(&mix.writer_batches[0]);
    let handle = serving.reader();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let checksum = std::thread::scope(|scope| {
        let joins: Vec<_> = mix.reader_queries[..readers]
            .iter()
            .map(|stream| {
                let mut reader = handle.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut acc = 0u64;
                    for &q in stream {
                        acc = acc.wrapping_add(match q {
                            ServeQuery::Connected(u, v) => reader.connected(u, v).value as u64,
                            ServeQuery::ComponentSize(v) => reader.component_size(v).value,
                            ServeQuery::ComponentAgg(v) => {
                                reader.component_agg(v).value.map_or(0, |a| a.count)
                            }
                        });
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    acc
                })
            })
            .collect();
        for batch in &mix.writer_batches[1..] {
            serving.apply(batch);
            if done.load(Ordering::Relaxed) == readers {
                break;
            }
        }
        // trace exhausted with readers still running: keep epochs coming
        // without growing the graph
        while done.load(Ordering::Relaxed) < readers {
            serving.apply(&[GraphOp::InsertEdge(0, 1)]);
            serving.apply(&[GraphOp::DeleteEdge(0, 1)]);
        }
        joins
            .into_iter()
            .fold(0u64, |acc, j| acc.wrapping_add(j.join().unwrap()))
    });
    (
        start.elapsed().as_secs_f64(),
        std::hint::black_box(checksum),
    )
}

// ------------------------------------------------------------------
// Bulk-update harness (lazy actions vs the eager SetWeight loop)
// ------------------------------------------------------------------

/// Builds a weighted engine over `forest` carrying the deterministic
/// initial weight table the weighted benches use, in one `apply`.
fn weighted_engine<B: SpanningBackend<Weights = SumMinMax>>(forest: &Forest) -> DynConnectivity<B> {
    let mut engine: DynConnectivity<B> = DynConnectivity::new(forest.n);
    let ops: Vec<GraphOp> = forest
        .edges
        .iter()
        .map(|&(u, v)| GraphOp::InsertEdge(u, v))
        .chain((0..forest.n).map(|v| GraphOp::SetWeight(v, ((v * 37) % 1001) as i64 - 500)))
        .collect();
    let report = engine.apply(&ops);
    assert_eq!(
        report.applied,
        ops.len(),
        "weighted engine build declined ops"
    );
    engine
}

/// Reads the full weight table back out of the engine and folds it into a
/// checksum.  The lazy and the eager leg of a bulk-update measurement draw
/// identical corridors from identical seeds, so their final tables — and
/// therefore these checksums — must agree; the readback also forces every
/// pending lazy tag down, so the lazy leg cannot cheat by leaving work
/// undone in the tags.
fn weight_table_checksum<B: SpanningBackend<Weights = SumMinMax>>(
    engine: &mut DynConnectivity<B>,
) -> u64 {
    (0..engine.len()).fold(0u64, |acc, v| {
        acc.wrapping_add(engine.vertex_weight(v).unwrap_or(0) as u64)
    })
}

/// Performs `rounds` corridor re-weightings over an `n`-vertex path through
/// a link-cut engine; returns elapsed seconds and the final weight-table
/// checksum.  `eager == false` is the lazy-action leg: one `try_path_apply`
/// per corridor (an O(log n) pending tag, DESIGN.md §13).  `eager == true`
/// replays the pre-action alternative it replaces: one `vertex_weight` +
/// `set_weight` round trip per corridor vertex.  The topology is a path
/// precisely so the eager leg knows the corridor (`min..=max`) without any
/// engine support — on a general tree only the engine knows the path, which
/// is the asymmetry the lazy op exists to close.
pub fn bulk_path_update_time(eager: bool, n: usize, rounds: usize, seed: u64) -> (f64, u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let forest = path_tree(n);
    let mut engine: DynConnectivity<LinkCutForest> = weighted_engine(&forest);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut touched = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        let delta = rng.random_range(-50i64..=50);
        if eager {
            for x in u.min(v)..=u.max(v) {
                let w = engine.vertex_weight(x).expect("in-range weighted vertex");
                engine
                    .try_set_weight(x, w + delta)
                    .expect("in-range weighted vertex");
                touched += 1;
            }
        } else {
            touched += engine
                .try_path_apply(u, v, delta)
                .expect("valid endpoints on a path-apply backend")
                .expect("one tree: always connected");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(touched);
    (elapsed, weight_table_checksum(&mut engine))
}

/// Component counterpart of [`bulk_path_update_time`], over the euler-treap
/// backend (the engine's `SUPPORTS_COMPONENT_APPLY` structure).  `forest`
/// spans all of its vertices, so every round re-weights the whole table:
/// one `try_component_apply` on the lazy leg versus `forest.n` read+write
/// round trips on the eager leg.
pub fn bulk_component_update_time(
    eager: bool,
    forest: &Forest,
    rounds: usize,
    seed: u64,
) -> (f64, u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut engine: DynConnectivity<EulerTourForest<TreapSequence>> = weighted_engine(forest);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut touched = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        let anchor = rng.random_range(0..forest.n);
        let delta = rng.random_range(-50i64..=50);
        if eager {
            for x in 0..forest.n {
                let w = engine.vertex_weight(x).expect("in-range weighted vertex");
                engine
                    .try_set_weight(x, w + delta)
                    .expect("in-range weighted vertex");
                touched += 1;
            }
        } else {
            touched += engine
                .try_component_apply(anchor, delta)
                .expect("valid anchor on a component-apply backend");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(touched);
    (elapsed, weight_table_checksum(&mut engine))
}

/// Formats a result row for the figure binaries.
pub fn print_row(label: &str, cells: &[(String, f64)]) {
    print!("{:<14}", label);
    for (name, value) in cells {
        print!(" {:>14}={:>9.3}s", name, value);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyntree_workloads::{path_tree, sliding_window_stream, temporal_graph};

    #[test]
    fn every_backend_replays_the_same_stream_identically() {
        let graph = temporal_graph(300, 3, 5);
        let stream = sliding_window_stream(&graph, 128, 0.3, 7);
        let checksums: Vec<u64> = ConnBackend::ALL
            .iter()
            .map(|&b| stream_replay_time(b, &stream).1)
            .collect();
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "backends disagree on query answers: {checksums:?}"
        );
        let (_, batched) = stream_batch_replay_time(ConnBackend::Ufo, &stream, 32);
        assert_eq!(batched, checksums[0], "batched replay must agree");
    }

    #[test]
    fn every_structure_runs_the_harness_workload() {
        let forest = path_tree(200);
        for s in Structure::ALL {
            let t = build_destroy_time(s, &forest, 1);
            assert!(t >= 0.0);
            let m = build_memory(s, &forest);
            assert!(m > 0, "{:?} reported zero memory", s);
        }
    }

    #[test]
    fn weighted_backends_agree_on_the_query_stream() {
        let forest = path_tree(96);
        let checksums: Vec<u64> = [
            WeightedBackend::Ufo,
            WeightedBackend::LinkCut,
            WeightedBackend::EulerTreap,
            WeightedBackend::Naive,
        ]
        .iter()
        .map(|&b| weighted_path_query_time(b, &forest, 200, 5).1)
        .collect();
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "weighted backends disagree: {checksums:?}"
        );
    }

    #[test]
    fn bulk_update_legs_agree_on_the_final_weight_table() {
        // same seed → same corridors; one lazy tag per corridor must leave
        // exactly the table the per-vertex loop leaves (and the checksum
        // readback flushes every pending tag, so nothing hides in them)
        let (_, lazy) = bulk_path_update_time(false, 96, 40, 9);
        let (_, eager) = bulk_path_update_time(true, 96, 40, 9);
        assert_eq!(lazy, eager, "path legs diverge");
        let forest = random_tree(96, 3);
        let (_, lazy) = bulk_component_update_time(false, &forest, 40, 9);
        let (_, eager) = bulk_component_update_time(true, &forest, 40, 9);
        assert_eq!(lazy, eager, "component legs diverge");
    }

    #[test]
    fn query_harness_runs_for_connectivity_and_paths() {
        let forest = path_tree(200);
        let c = query_time(Structure::Ufo, &forest, 100, false, 2);
        let p = query_time(Structure::Ufo, &forest, 100, true, 2);
        assert!(c >= 0.0 && p >= 0.0);
    }
}
