//! The [`DynConnectivity`] engine: a spanning forest in a pluggable backend,
//! plus the HDT level machinery for replacement-edge search on deletions.

use dyntree_primitives::algebra::{Action, ActionOf, Agg, WeightOf};
use dyntree_primitives::hash::FxHashMap;
use dyntree_primitives::ops::{assert_id_space, DeleteOutcome, EdgeKind, GraphError, MAX_VERTICES};
use dyntree_primitives::telemetry::{Counter, TelemetrySnapshot};
use dyntree_primitives::{Dsu, ParallelConfig, Telemetry};

use crate::backend::SpanningBackend;
use crate::levels::LevelAdjacency;
use crate::search::{canonical, search_replacement, EdgeInfo, SearchScratch};
use crate::Vertex;

/// Fully-dynamic connectivity over a growable vertex set `0..len()`.
///
/// Maintains a spanning forest of the current graph in the backend `B`.
/// There is one mutation path: whole transactions of typed ops go through
/// [`apply`](Self::apply), which reports per-op outcomes, and
/// [`try_insert_edge`](Self::try_insert_edge) /
/// [`try_delete_edge`](Self::try_delete_edge) are its single-op forms.
/// [`try_connected`](Self::try_connected) queries run at the backend's own
/// query speed.  Deleting a tree edge triggers the Holm–de
/// Lichtenberg–Thorup replacement search over the non-tree edges, amortized
/// by edge-level increases.  The vertex set grows in place via
/// [`add_vertices`](Self::add_vertices) /
/// [`ensure_vertices`](Self::ensure_vertices), up to
/// [`MAX_VERTICES`].
#[derive(Clone, Debug)]
pub struct DynConnectivity<B: SpanningBackend> {
    pub(crate) n: usize,
    pub(crate) backend: B,
    pub(crate) adj: LevelAdjacency,
    /// Canonically-oriented `(min, max)` edge → its info.
    pub(crate) edges: FxHashMap<(Vertex, Vertex), EdgeInfo>,
    pub(crate) components: usize,
    /// One past the highest level an edge may reach (`⌊log₂ n⌋ + 1`): an
    /// F_i component holds ≤ n/2^i vertices, so higher levels are useless.
    pub(crate) level_cap: usize,
    /// Epoch-stamped scratch marker for side-membership tests.
    pub(crate) mark: Vec<u64>,
    pub(crate) stamp: u64,
    /// Reusable replacement-search arena (side queues + bump buffer).
    pub(crate) scratch: SearchScratch,
    /// Grain sizes and fan-out for the parallel batch pre-pass.
    pub(crate) par: ParallelConfig,
    /// Telemetry handle (disabled by default; clones share accumulators).
    pub(crate) tel: Telemetry,
    /// Monotone batch counter: bumped once per successful [`apply`], the
    /// canonical epoch id for snapshot publication.
    pub(crate) version: u64,
}

impl<B: SpanningBackend> DynConnectivity<B> {
    /// An empty graph over `n` isolated vertices.
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`MAX_VERTICES`], before anything is allocated.
    pub fn new(n: usize) -> Self {
        assert_id_space(n);
        Self {
            n,
            backend: B::new(n),
            adj: LevelAdjacency::new(n),
            edges: FxHashMap::default(),
            components: n,
            level_cap: usize::BITS as usize - n.max(1).leading_zeros() as usize,
            mark: vec![0; n],
            stamp: 0,
            scratch: SearchScratch::default(),
            par: ParallelConfig::default(),
            tel: Telemetry::from_env(),
            version: 0,
        }
    }

    /// The engine's version: a monotone counter bumped once per
    /// [`apply`](Self::apply) call (regardless of how many of the batch's
    /// ops were applied).  Snapshot publication uses it as the epoch id;
    /// single-op mutators do not bump it — an epoch is a *batch* boundary.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The engine's telemetry handle (disabled unless the `telemetry`
    /// feature is compiled in and it was enabled explicitly or via
    /// `DYNTREE_TELEMETRY=1`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Replaces the telemetry handle.  An enabled handle makes every
    /// [`apply`](Self::apply) attach a per-batch
    /// [`BatchTelemetry`](dyntree_primitives::BatchTelemetry) delta to its
    /// report; note the report timings then differ run to run (counters do
    /// not — see the determinism contract).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Builder-style variant of [`set_telemetry`](Self::set_telemetry).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Copies the cumulative telemetry accumulators (`None` when the handle
    /// is disabled or the `telemetry` feature is off).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.tel.snapshot()
    }

    /// The engine's parallel-execution tunables (see
    /// [`ParallelConfig`]).
    pub fn parallel_config(&self) -> ParallelConfig {
        self.par
    }

    /// Replaces the engine's parallel-execution tunables.  Results are
    /// byte-identical under every config — this only moves the boundary
    /// between the sequential and the chunked-parallel batch pre-pass.
    pub fn set_parallel_config(&mut self, cfg: ParallelConfig) {
        self.par = cfg;
    }

    /// Builder-style variant of [`set_parallel_config`](Self::set_parallel_config).
    pub fn with_parallel_config(mut self, cfg: ParallelConfig) -> Self {
        self.par = cfg;
        self
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Grows the vertex set to `n` isolated new vertices appended at the top
    /// of the id range (a smaller `n` is a no-op).  The vertex set is no
    /// longer frozen at construction: a graph may start at
    /// [`new(0)`](Self::new) and grow as the workload discovers vertices.
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`MAX_VERTICES`]: every structure stores vertex ids as
    /// `u32`.  `apply`'s `AddVertices` rejects such growth instead.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        assert_id_space(n);
        self.backend.ensure_vertices(n);
        self.adj.ensure_vertices(n);
        self.mark.resize(n, 0);
        self.components += n - self.n;
        self.n = n;
        // the cap only ever increases, so existing edge levels stay valid
        self.level_cap = usize::BITS as usize - n.max(1).leading_zeros() as usize;
    }

    /// Appends one isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> Vertex {
        let v = self.n;
        self.ensure_vertices(v + 1);
        v
    }

    /// Appends `count` isolated vertices and returns their id range.  The
    /// vertex id space saturates at [`MAX_VERTICES`] (the returned range is
    /// the growth that actually happened).
    pub fn add_vertices(&mut self, count: usize) -> std::ops::Range<Vertex> {
        let first = self.n;
        self.ensure_vertices(first.saturating_add(count).min(MAX_VERTICES));
        first..self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of live edges (tree and non-tree).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges currently in the spanning forest (`n` minus the
    /// component count, always).
    pub fn spanning_forest_size(&self) -> usize {
        self.n - self.components
    }

    /// Number of connected components (isolated vertices included).
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Whether edge `(u, v)` is live.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edges.contains_key(&canonical(u, v))
    }

    /// Whether `(u, v)` is live *and* in the spanning forest.
    pub fn is_tree_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edges
            .get(&canonical(u, v))
            .is_some_and(|info| info.tree)
    }

    /// The HDT level of live edge `(u, v)`.
    pub fn edge_level(&self, u: Vertex, v: Vertex) -> Option<usize> {
        self.edges.get(&canonical(u, v)).map(|info| info.level)
    }

    /// Shared access to the spanning-forest backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the spanning-forest backend (for queries the
    /// backend supports beyond the [`SpanningBackend`] surface).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Sets the weight of vertex `v`, reporting exactly why it could not be
    /// recorded: [`GraphError::VertexOutOfRange`] for an invalid id,
    /// [`GraphError::Unweighted`] for a backend without weights.
    pub fn try_set_weight(&mut self, v: Vertex, w: WeightOf<B::Weights>) -> Result<(), GraphError> {
        self.check_vertex(v)?;
        if self.backend.set_weight(v, w) {
            Ok(())
        } else {
            Err(GraphError::Unweighted)
        }
    }

    /// Reads the current weight of vertex `v` back from the backend.  `None`
    /// for an out-of-range id or an unweighted backend.  `&mut self` because
    /// splay-based backends may restructure (or push lazy tags) on reads;
    /// the serving layer uses this to re-base its shadow weight table after
    /// bulk updates.
    pub fn vertex_weight(&mut self, v: Vertex) -> Option<WeightOf<B::Weights>> {
        if v >= self.n {
            return None;
        }
        self.backend.vertex_weight(v)
    }

    /// Applies the weight delta `delta` to every vertex on the spanning-tree
    /// path between `u` and `v` (inclusive; `u == v` touches one vertex).
    /// `Ok(Some(count))` reports how many vertices were updated;
    /// `Ok(None)` means `u` and `v` are disconnected (benign — the batch
    /// layer records a skip).  Declines with
    /// [`GraphError::VertexOutOfRange`] for invalid ids,
    /// [`GraphError::Unweighted`] for unweighted backends, and
    /// [`GraphError::UnsupportedQuery`] when the backend has no lazy path
    /// updates (ufo/euler) or the weight monoid's action cannot interpret an
    /// additive delta (see `Action::from_delta`).
    ///
    /// Like [`try_path_agg`](Self::try_path_agg), the path is the
    /// *spanning-tree* path the HDT engine happens to maintain, not a
    /// shortest path.
    pub fn try_path_apply(
        &mut self,
        u: Vertex,
        v: Vertex,
        delta: WeightOf<B::Weights>,
    ) -> Result<Option<u64>, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if !B::WEIGHTED {
            return Err(GraphError::Unweighted);
        }
        if !B::SUPPORTS_PATH_APPLY {
            return Err(GraphError::UnsupportedQuery);
        }
        let act = <ActionOf<B::Weights> as Action<B::Weights>>::from_delta(delta)
            .ok_or(GraphError::UnsupportedQuery)?;
        Ok(self.backend.path_apply(u, v, act))
    }

    /// Applies the weight delta `delta` to every vertex in `v`'s component
    /// and returns how many vertices were updated (at least 1).  Declines
    /// exactly like [`try_path_apply`](Self::try_path_apply), gated on
    /// `SUPPORTS_COMPONENT_APPLY` (euler/naive only).
    pub fn try_component_apply(
        &mut self,
        v: Vertex,
        delta: WeightOf<B::Weights>,
    ) -> Result<u64, GraphError> {
        self.check_vertex(v)?;
        if !B::WEIGHTED {
            return Err(GraphError::Unweighted);
        }
        if !B::SUPPORTS_COMPONENT_APPLY {
            return Err(GraphError::UnsupportedQuery);
        }
        let act = <ActionOf<B::Weights> as Action<B::Weights>>::from_delta(delta)
            .ok_or(GraphError::UnsupportedQuery)?;
        self.backend
            .component_apply(v, act)
            .ok_or(GraphError::UnsupportedQuery)
    }

    /// Validates a vertex id against the current vertex set.
    fn check_vertex(&self, v: Vertex) -> Result<(), GraphError> {
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange { v, len: self.n });
        }
        Ok(())
    }

    /// Validates an edge's endpoints (distinct and in range).
    fn check_edge(&self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { v: u });
        }
        self.check_vertex(u)?;
        self.check_vertex(v)
    }

    /// Whether the backend maintains vertex weights at all.
    pub fn weighted(&self) -> bool {
        B::WEIGHTED
    }

    /// Whether `u` and `v` are connected, with out-of-range vertices
    /// reported as a typed error instead of a silent `false`.
    pub fn try_connected(&mut self, u: Vertex, v: Vertex) -> Result<bool, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        Ok(u == v || self.backend.connected(u, v))
    }

    /// Inserts edge `(u, v)`, reporting what happened: `Ok(EdgeKind::Tree)`
    /// when the edge joined two components, `Ok(EdgeKind::NonTree)` when it
    /// closed a cycle, and a typed [`GraphError`] (self loop, out-of-range
    /// endpoint, duplicate) otherwise.
    pub fn try_insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<EdgeKind, GraphError> {
        self.check_edge(u, v)?;
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge {
                u: u.min(v),
                v: u.max(v),
            });
        }
        if self.backend.connected(u, v) {
            self.adj.nontree_insert(u, v, 0);
            self.edges.insert(
                canonical(u, v),
                EdgeInfo {
                    level: 0,
                    tree: false,
                },
            );
            Ok(EdgeKind::NonTree)
        } else {
            let linked = self.backend.link(u, v);
            debug_assert!(linked, "backend rejected a joining link ({u},{v})");
            self.adj.tree_insert(u, v, 0);
            self.edges.insert(
                canonical(u, v),
                EdgeInfo {
                    level: 0,
                    tree: true,
                },
            );
            self.components -= 1;
            Ok(EdgeKind::Tree)
        }
    }

    /// Inserts `(u, v)` that is already known to connect two connected
    /// vertices (the batch layer proves this with its union-find pre-pass),
    /// skipping the backend's connectivity probe.  The caller has already
    /// validated the edge: distinct in-range endpoints, not yet live.
    pub(crate) fn insert_nontree_edge(&mut self, u: Vertex, v: Vertex) {
        debug_assert!(self.check_edge(u, v).is_ok(), "invalid edge ({u},{v})");
        debug_assert!(!self.has_edge(u, v), "duplicate edge ({u},{v})");
        debug_assert!(self.backend.connected(u, v), "hint was wrong: ({u},{v})");
        self.adj.nontree_insert(u, v, 0);
        self.edges.insert(
            canonical(u, v),
            EdgeInfo {
                level: 0,
                tree: false,
            },
        );
    }

    /// Removes a *certified non-tree* edge's record, returning its level at
    /// this moment (earlier tree deletions of the same run may have bumped
    /// it past its pre-pass snapshot).  The adjacency mirrors are the
    /// caller's responsibility — the batch-delete drain removes them in
    /// bulk.  Non-tree deletions never change connectivity, so `components`
    /// is deliberately untouched.
    pub(crate) fn take_certified_nontree_record(&mut self, u: Vertex, v: Vertex) -> usize {
        let info = self
            .edges
            .remove(&canonical(u, v))
            .expect("certified non-tree delete of a dead edge");
        debug_assert!(
            !info.tree,
            "certified non-tree edge ({u},{v}) is a tree edge"
        );
        info.level
    }

    /// Deletes edge `(u, v)`, reporting what happened: the deleted edge's
    /// [`EdgeKind`] and whether the deletion split a component (a tree edge
    /// with no replacement).  Typed errors for self loops, out-of-range
    /// endpoints and edges that are not live.
    pub fn try_delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<DeleteOutcome, GraphError> {
        self.try_delete_edge_traced(u, v)
            .map(|(outcome, _)| outcome)
    }

    /// [`try_delete_edge`](Self::try_delete_edge) that additionally reports
    /// which non-tree edge (canonically oriented) the replacement search
    /// promoted into the spanning forest, if any.  The batch-delete drain
    /// needs this to invalidate its pre-pass certificates: a promoted edge
    /// is the *only* way a live edge changes kind without being touched by
    /// its own operation.
    pub(crate) fn try_delete_edge_traced(
        &mut self,
        u: Vertex,
        v: Vertex,
    ) -> Result<(DeleteOutcome, Option<(Vertex, Vertex)>), GraphError> {
        self.check_edge(u, v)?;
        let Some(info) = self.edges.remove(&canonical(u, v)) else {
            return Err(GraphError::MissingEdge {
                u: u.min(v),
                v: u.max(v),
            });
        };
        if !info.tree {
            let removed = self.adj.nontree_remove(u, v, info.level);
            debug_assert!(removed, "non-tree edge ({u},{v}) missing from adjacency");
            return Ok((
                DeleteOutcome {
                    kind: EdgeKind::NonTree,
                    split: false,
                },
                None,
            ));
        }
        let removed = self.adj.tree_remove(u, v);
        debug_assert_eq!(removed, Some(info.level));
        let cut = self.backend.cut(u, v);
        debug_assert!(cut, "backend rejected cutting tree edge ({u},{v})");
        let promoted = self.find_replacement(u, v, info.level);
        let split = promoted.is_none();
        if split {
            self.components += 1;
            self.tel.incr(Counter::ComponentSplits);
        }
        Ok((
            DeleteOutcome {
                kind: EdgeKind::Tree,
                split,
            },
            promoted,
        ))
    }

    /// HDT replacement search after cutting tree edge `(u, v)` of level `l`.
    /// Returns the (canonically oriented) non-tree edge that was promoted
    /// and linked as the replacement, or `None` when the component split.
    ///
    /// The search core lives in [`crate::search`] and edits the level
    /// adjacency and the edge registry; the backend link is applied here.
    fn find_replacement(&mut self, u: Vertex, v: Vertex, l: usize) -> Option<(Vertex, Vertex)> {
        let promoted = search_replacement(
            &mut self.adj,
            &mut self.edges,
            &mut self.mark,
            &mut self.stamp,
            &mut self.scratch,
            &self.tel,
            self.level_cap,
            u,
            v,
            l,
        );
        if let Some((x, y)) = promoted {
            let linked = self.backend.link(x, y);
            debug_assert!(linked, "backend rejected replacement link ({x},{y})");
        }
        promoted
    }

    /// Number of vertices in `v`'s component (backend fast path, else a walk
    /// over the engine's tree adjacency).  Out of range → 0.
    pub fn component_size(&mut self, v: Vertex) -> u64 {
        if v >= self.n {
            return 0;
        }
        if let Some(s) = self.backend.component_size(v) {
            return s;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let adj = &self.adj;
        let mark = &mut self.mark;
        let mut visited = vec![v];
        mark[v] = stamp;
        let mut i = 0;
        while i < visited.len() {
            let x = visited[i];
            i += 1;
            for (w, _) in adj.tree_neighbors(x) {
                if mark[w] != stamp {
                    mark[w] = stamp;
                    visited.push(w);
                }
            }
        }
        visited.len() as u64
    }

    /// Writes one component label per vertex into `labels`: dense ids in
    /// `0..component_count()`, assigned in order of first appearance by
    /// vertex id, so the output is canonical — byte-identical across
    /// backends and thread counts for the same graph.  The serving layer's
    /// snapshot builder freezes this array into its published view.
    ///
    /// Uses the backend's [`export_components`](SpanningBackend::export_components)
    /// dump when offered (e.g. the UFO backend's walk up its parent array),
    /// else a BFS over the engine's own tree adjacency; a dump's
    /// representatives are renumbered into the canonical dense form through
    /// an `n`-entry table.
    pub fn export_component_labels(&self, labels: &mut Vec<u32>) {
        assert!(
            u32::try_from(self.n).is_ok(),
            "component labels are u32: vertex count {} too large",
            self.n
        );
        labels.clear();
        let mut reps: Vec<usize> = Vec::new();
        if self.backend.export_components(&mut reps) {
            debug_assert_eq!(reps.len(), self.n, "backend exported a partial dump");
            // renumber the representatives (vertex-range ids) to dense
            // first-appearance ids through a table indexed by them
            let mut dense = vec![u32::MAX; self.n];
            let mut next = 0u32;
            labels.reserve(self.n);
            for &r in &reps {
                debug_assert!(r < self.n, "backend exported representative {r} >= n");
                if dense[r] == u32::MAX {
                    dense[r] = next;
                    next += 1;
                }
                labels.push(dense[r]);
            }
        } else {
            // canonical BFS over the engine's tree adjacency: scanning
            // vertices in id order makes the labels dense by construction
            labels.resize(self.n, u32::MAX);
            let mut next = 0u32;
            let mut queue: Vec<Vertex> = Vec::new();
            for start in 0..self.n {
                if labels[start] != u32::MAX {
                    continue;
                }
                labels[start] = next;
                queue.clear();
                queue.push(start);
                let mut i = 0;
                while i < queue.len() {
                    let x = queue[i];
                    i += 1;
                    for (w, _) in self.adj.tree_neighbors(x) {
                        if labels[w] == u32::MAX {
                            labels[w] = next;
                            queue.push(w);
                        }
                    }
                }
                next += 1;
            }
        }
        debug_assert_eq!(
            labels.iter().copied().max().map_or(0, |m| m as usize + 1),
            self.components.min(self.n),
            "label count disagrees with the component counter"
        );
    }

    /// Monoid aggregate over `v`'s whole component, with typed errors:
    /// [`GraphError::VertexOutOfRange`] for an invalid id,
    /// [`GraphError::UnsupportedQuery`] for a backend without component
    /// aggregates (e.g. link-cut trees).
    pub fn try_component_agg(&mut self, v: Vertex) -> Result<Agg<B::Weights>, GraphError> {
        self.check_vertex(v)?;
        if !B::SUPPORTS_COMPONENT_AGG {
            return Err(GraphError::UnsupportedQuery);
        }
        self.backend
            .component_agg(v)
            .ok_or(GraphError::UnsupportedQuery)
    }

    /// Monoid aggregate over the spanning-tree path between `u` and `v`,
    /// with typed errors: `Err(VertexOutOfRange)` for invalid ids,
    /// `Err(UnsupportedQuery)` for a backend that reports
    /// `SUPPORTS_PATH_AGG = false` (no in-tree backend does), and
    /// `Ok(None)` for a genuinely disconnected pair.
    ///
    /// On a general graph this is a *spanning-tree* path — the tree the HDT
    /// engine happens to maintain — not a shortest path.  Workloads that
    /// control which edges enter the forest (e.g. `examples/dynamic_mst.rs`,
    /// which only ever inserts forest edges) can rely on its exact shape.
    pub fn try_path_agg(
        &mut self,
        u: Vertex,
        v: Vertex,
    ) -> Result<Option<Agg<B::Weights>>, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if !B::SUPPORTS_PATH_AGG {
            return Err(GraphError::UnsupportedQuery);
        }
        // No connectivity pre-check: every backend's path_agg already
        // returns None for disconnected pairs, and re-probing here would
        // double the backend traversals per query.
        Ok(self.backend.path_agg(u, v))
    }

    /// Heap bytes owned by the engine and its backend.
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// Heap bytes per substructure (backend, the three flat level-adjacency
    /// arrays — exact `capacity × entry size` accounting — the edge
    /// registry, and the scratch mark array).  Feeds the bytes-per-edge
    /// rows of the memory gate.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let word = std::mem::size_of::<usize>();
        let (adjacency_tree, adjacency_tree_levels, adjacency_nontree) =
            self.adj.memory_breakdown();
        MemoryBreakdown {
            backend: self.backend.memory_bytes(),
            adjacency_tree,
            adjacency_tree_levels,
            adjacency_nontree,
            edge_registry: self.edges.capacity()
                * (2 * word + std::mem::size_of::<EdgeInfo>() + word / 2),
            scratch: self.mark.capacity() * std::mem::size_of::<u64>()
                + self.scratch.memory_bytes(),
            snapshots: 0,
        }
    }

    /// Verifies the engine's invariants; returns a description of the first
    /// violation.  `O(n + m α(n))` — test/debug use only.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        if self.spanning_forest_size() != self.edges.values().filter(|e| e.tree).count() {
            return Err(format!(
                "tree-edge count {} != n - components {}",
                self.edges.values().filter(|e| e.tree).count(),
                self.spanning_forest_size()
            ));
        }
        let mut dsu = Dsu::new(self.n);
        for (&(a, b), info) in &self.edges {
            if info.level >= self.level_cap {
                return Err(format!("edge ({a},{b}) level {} ≥ cap", info.level));
            }
            if info.tree && !dsu.union(a, b) {
                return Err(format!("tree edge ({a},{b}) closes a cycle"));
            }
        }
        for (&(a, b), info) in &self.edges {
            if !info.tree && dsu.find(a) != dsu.find(b) {
                return Err(format!("non-tree edge ({a},{b}) spans two components"));
            }
        }
        // HDT level invariant: a non-tree edge at level i must have its
        // endpoints connected in F_i, the forest of tree edges with level
        // ≥ i.  The replacement search depends on this structurally — the
        // search for a level-l tree edge scans non-tree buckets only at
        // levels ≤ l, so an edge stranded above its tree path's minimum
        // level is invisible to it and a still-connected component would
        // falsely split.  One descending sweep: at level i the DSU holds
        // exactly the tree edges of level ≥ i.
        let mut tree_by_level: Vec<Vec<(Vertex, Vertex)>> = vec![Vec::new(); self.level_cap];
        let mut nontree_by_level: Vec<Vec<(Vertex, Vertex)>> = vec![Vec::new(); self.level_cap];
        for (&(a, b), info) in &self.edges {
            if info.tree {
                tree_by_level[info.level].push((a, b));
            } else {
                nontree_by_level[info.level].push((a, b));
            }
        }
        let mut fi = Dsu::new(self.n);
        for level in (0..self.level_cap).rev() {
            for &(a, b) in &tree_by_level[level] {
                fi.union(a, b);
            }
            for &(a, b) in &nontree_by_level[level] {
                if fi.find(a) != fi.find(b) {
                    return Err(format!(
                        "level invariant: non-tree edge ({a},{b}) at level {level} has no \
                         tree path of level ≥ {level}"
                    ));
                }
            }
        }
        let edges: Vec<(Vertex, Vertex, bool)> = self
            .edges
            .iter()
            .map(|(&(a, b), info)| (a, b, info.tree))
            .collect();
        for (a, b, tree) in edges {
            if !self.backend.connected(a, b) {
                return Err(format!("backend disagrees: ({a},{b}) not connected"));
            }
            let in_tree_adj = self.adj.tree_neighbors(a).any(|(w, _)| w == b);
            if tree != in_tree_adj {
                return Err(format!("edge ({a},{b}) tree flag {tree} != adjacency"));
            }
            if tree {
                let level = self.edges[&canonical(a, b)].level;
                for (x, y) in [(a, b), (b, a)] {
                    if !self.adj.tree_neighbors_at(x, level).contains(&y) {
                        return Err(format!(
                            "tree edge ({a},{b}) missing from {x}'s level-{level} bucket"
                        ));
                    }
                }
            }
        }
        // bucketed tree adjacency must mirror the neighbour→level map exactly
        for v in 0..self.n {
            let map_deg = self.adj.tree_neighbors(v).count();
            let bucket_deg = self.adj.tree_neighbors_from(v, 0).len();
            if map_deg != bucket_deg {
                return Err(format!(
                    "vertex {v}: tree map degree {map_deg} != bucket degree {bucket_deg}"
                ));
            }
        }
        // Non-tree adjacency: every non-tree edge sits in both endpoints'
        // buckets at exactly its recorded level, and no stale entries exist
        // (total bucket population must match the live non-tree edge count).
        let mut nontree_edges = 0usize;
        for (&(a, b), info) in &self.edges {
            if info.tree {
                continue;
            }
            nontree_edges += 1;
            for (x, y) in [(a, b), (b, a)] {
                if !self.adj.nontree_neighbors_at(x, info.level).contains(&y) {
                    return Err(format!(
                        "non-tree edge ({a},{b}) missing from {x}'s level-{} bucket",
                        info.level
                    ));
                }
            }
        }
        let bucket_population: usize = (0..self.n).map(|v| self.adj.nontree_degree(v)).sum();
        if bucket_population != 2 * nontree_edges {
            return Err(format!(
                "stale non-tree adjacency: {} bucket entries for {} edges",
                bucket_population, nontree_edges
            ));
        }
        Ok(())
    }
}

/// Per-substructure heap-byte breakdown of a [`DynConnectivity`] engine.
/// The adjacency lines are **exact** (flat arrays: `capacity × entry size`);
/// the backend and edge-registry lines follow each structure's own
/// accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Bytes owned by the spanning-forest backend.
    pub backend: usize,
    /// Level adjacency: the neighbour-sorted `(neighbour, level)` tree
    /// arrays.
    pub adjacency_tree: usize,
    /// Level adjacency: the `(level, neighbour)`-sorted tree mirrors.
    pub adjacency_tree_levels: usize,
    /// Level adjacency: the `(level, neighbour)`-sorted non-tree buckets.
    pub adjacency_nontree: usize,
    /// The canonical edge → `(level, tree)` registry.
    pub edge_registry: usize,
    /// Epoch-stamped scratch mark array.
    pub scratch: usize,
    /// Published serving snapshots retained by a wrapping `ServingEngine`
    /// (0 when the engine is not being served).
    pub snapshots: usize,
}

impl MemoryBreakdown {
    /// Sum of every substructure.
    pub fn total(&self) -> usize {
        self.backend
            + self.adjacency_tree
            + self.adjacency_tree_levels
            + self.adjacency_nontree
            + self.edge_registry
            + self.scratch
            + self.snapshots
    }
}

impl std::fmt::Display for MemoryBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {} B (backend {}, adj tree {}, adj tree levels {}, adj non-tree {}, edge registry {}, scratch {}",
            self.total(),
            self.backend,
            self.adjacency_tree,
            self.adjacency_tree_levels,
            self.adjacency_nontree,
            self.edge_registry,
            self.scratch
        )?;
        if self.snapshots > 0 {
            write!(f, ", snapshots {}", self.snapshots)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EulerConnectivity, LinkCutConnectivity, NaiveConnectivity, UfoConnectivity};
    use dyntree_primitives::ops::{GraphOp, OpOutcome};

    fn triangle_replacement<B: SpanningBackend>() {
        let mut g: DynConnectivity<B> = DynConnectivity::new(4);
        assert_eq!(g.try_insert_edge(0, 1), Ok(EdgeKind::Tree));
        assert_eq!(g.try_insert_edge(1, 2), Ok(EdgeKind::Tree));
        assert_eq!(g.try_insert_edge(2, 0), Ok(EdgeKind::NonTree));
        assert!(g.try_insert_edge(0, 1).is_err(), "duplicate rejected");
        assert!(g.try_insert_edge(3, 3).is_err(), "self loop rejected");
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.spanning_forest_size(), 2);
        assert!(g.is_tree_edge(0, 1));
        assert!(!g.is_tree_edge(2, 0));

        // deleting a tree edge of the triangle keeps it connected
        assert!(g.try_delete_edge(0, 1).is_ok());
        assert_eq!(g.try_connected(0, 1), Ok(true));
        assert_eq!(g.component_count(), 2);
        assert!(g.is_tree_edge(2, 0), "replacement promoted");

        // now the cycle is gone: deleting a tree edge splits
        assert!(g.try_delete_edge(1, 2).is_ok_and(|d| d.split));
        assert_eq!(g.try_connected(0, 1), Ok(false));
        assert_eq!(g.component_count(), 3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn triangle_replacement_all_backends() {
        triangle_replacement::<ufo_forest::UfoForest>();
        triangle_replacement::<dyntree_linkcut::LinkCutForest>();
        triangle_replacement::<dyntree_euler::EulerTourForest<dyntree_seqs::TreapSequence>>();
        triangle_replacement::<dyntree_naive::NaiveForest>();
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 id space")]
    fn new_refuses_more_vertices_than_u32_ids() {
        let _ = UfoConnectivity::new(MAX_VERTICES + 1);
    }

    /// The panic message of `f`, which must panic.
    fn panic_message<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f)
            .err()
            .expect("call did not panic");
        *payload
            .downcast::<String>()
            .expect("formatted panic message")
    }

    #[test]
    fn forests_refuse_more_vertices_than_u32_ids() {
        // each guard fires before the first allocation, which would
        // otherwise ask for hundreds of GiB
        use dyntree_euler::EulerTourForest;
        use dyntree_linkcut::LinkCutForest;
        use dyntree_naive::NaiveForest;
        use dyntree_primitives::algebra::SumMinMax;
        use dyntree_seqs::TreapSequence;
        use ufo_forest::{ContractionForest, Policy};
        type Contraction = ContractionForest<SumMinMax>;
        let n = MAX_VERTICES + 1;
        let messages = [
            panic_message(|| Contraction::new(n, Policy::Ufo)),
            panic_message(|| Contraction::new(1, Policy::Ufo).ensure_vertices(n)),
            panic_message(|| LinkCutForest::<SumMinMax>::new(n)),
            panic_message(|| LinkCutForest::<SumMinMax>::new(1).ensure_vertices(n)),
            panic_message(|| EulerTourForest::<TreapSequence>::new(n)),
            panic_message(|| EulerTourForest::<TreapSequence>::new(1).ensure_vertices(n)),
            panic_message(|| NaiveForest::<SumMinMax>::new(n)),
            panic_message(|| NaiveForest::<SumMinMax>::new(1).ensure_vertices(n)),
        ];
        for msg in messages {
            assert!(msg.contains("exceeds the u32 id space"), "{msg}");
        }
    }

    #[test]
    fn aliases_compile_and_run() {
        let mut a = UfoConnectivity::new(3);
        let mut b = LinkCutConnectivity::new(3);
        let mut c = EulerConnectivity::new(3);
        let mut d = NaiveConnectivity::new(3);
        assert!(a.try_insert_edge(0, 1).is_ok() && a.try_connected(0, 1) == Ok(true));
        assert!(b.try_insert_edge(0, 1).is_ok() && b.try_connected(0, 1) == Ok(true));
        assert!(c.try_insert_edge(0, 1).is_ok() && c.try_connected(0, 1) == Ok(true));
        assert!(d.try_insert_edge(0, 1).is_ok() && d.try_connected(0, 1) == Ok(true));
    }

    #[test]
    fn dense_clique_deletions_keep_connectivity() {
        let n = 12;
        let mut g = UfoConnectivity::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.try_insert_edge(u, v).unwrap();
            }
        }
        assert_eq!(g.component_count(), 1);
        // delete every edge incident to vertex 0 except (0, n-1)
        for v in 1..n - 1 {
            assert!(g.try_delete_edge(0, v).is_ok());
            assert_eq!(g.try_connected(0, v), Ok(true), "clique survives");
        }
        g.check_invariants().unwrap();
        // tear the whole graph down
        for u in 0..n {
            for v in (u + 1)..n {
                let _ = g.try_delete_edge(u, v);
            }
        }
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.component_count(), n);
        g.check_invariants().unwrap();
    }

    #[test]
    fn vertex_growth_preserves_connectivity_everywhere() {
        fn go<B: SpanningBackend>() {
            let mut g: DynConnectivity<B> = DynConnectivity::new(0);
            assert!(g.is_empty());
            assert_eq!(g.add_vertices(3), 0..3);
            assert_eq!(g.component_count(), 3);
            g.try_insert_edge(0, 1).unwrap();
            g.try_insert_edge(1, 2).unwrap();
            assert_eq!(g.try_insert_edge(2, 0), Ok(EdgeKind::NonTree));
            let v = g.add_vertex();
            assert_eq!(v, 3);
            assert_eq!(g.len(), 4);
            assert_eq!(g.component_count(), 2);
            assert_eq!(g.try_connected(0, 3), Ok(false));
            g.try_insert_edge(1, 3).unwrap();
            assert_eq!(g.try_connected(0, 3), Ok(true));
            // deletions through the grown region still find replacements
            g.try_delete_edge(0, 1).unwrap();
            assert_eq!(g.try_connected(0, 3), Ok(true), "replacement via (2,0)");
            g.check_invariants().unwrap();
            g.ensure_vertices(2); // shrinking is a no-op
            assert_eq!(g.len(), 4);
        }
        go::<ufo_forest::UfoForest>();
        go::<dyntree_linkcut::LinkCutForest>();
        go::<dyntree_euler::EulerTourForest<dyntree_seqs::TreapSequence>>();
        go::<dyntree_naive::NaiveForest>();
    }

    #[test]
    fn growth_raises_the_level_cap() {
        // 2 vertices -> cap 2; growth to 64 must allow levels up to 6, or
        // dense churn after growth would trip the level-cap invariant
        let mut g = UfoConnectivity::new(2);
        g.try_insert_edge(0, 1).unwrap();
        g.ensure_vertices(64);
        for u in 0..16 {
            for v in (u + 1)..16 {
                let _ = g.try_insert_edge(u, v);
            }
        }
        for u in 0..16 {
            for v in (u + 1)..16 {
                g.try_delete_edge(u, v).unwrap();
            }
        }
        g.check_invariants().unwrap();
        assert_eq!(g.component_count(), 64);
    }
    #[test]
    fn typed_errors_cover_every_mutating_entry_point() {
        let mut g = UfoConnectivity::new(3);
        assert_eq!(g.try_insert_edge(1, 1), Err(GraphError::SelfLoop { v: 1 }));
        assert_eq!(
            g.try_insert_edge(0, 7),
            Err(GraphError::VertexOutOfRange { v: 7, len: 3 })
        );
        assert_eq!(g.try_insert_edge(0, 1), Ok(EdgeKind::Tree));
        assert_eq!(
            g.try_insert_edge(1, 0),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
        assert_eq!(g.try_insert_edge(1, 2), Ok(EdgeKind::Tree));
        assert_eq!(g.try_insert_edge(2, 0), Ok(EdgeKind::NonTree));

        assert_eq!(g.try_delete_edge(2, 2), Err(GraphError::SelfLoop { v: 2 }));
        assert_eq!(
            g.try_delete_edge(9, 0),
            Err(GraphError::VertexOutOfRange { v: 9, len: 3 })
        );
        assert_eq!(
            g.try_delete_edge(0, 1),
            Ok(DeleteOutcome {
                kind: EdgeKind::Tree,
                split: false, // (2,0) replaces it
            })
        );
        assert_eq!(
            g.try_delete_edge(0, 1),
            Err(GraphError::MissingEdge { u: 0, v: 1 })
        );
        assert_eq!(
            g.try_delete_edge(1, 2),
            Ok(DeleteOutcome {
                kind: EdgeKind::Tree,
                split: true,
            })
        );

        assert_eq!(
            g.try_set_weight(5, 1),
            Err(GraphError::VertexOutOfRange { v: 5, len: 3 })
        );
        assert_eq!(g.try_set_weight(1, 7), Ok(()));
    }

    #[test]
    fn typed_errors_cover_every_query_entry_point() {
        let mut g = UfoConnectivity::new(3);
        g.try_insert_edge(0, 1).unwrap();
        assert_eq!(
            g.try_connected(0, 8),
            Err(GraphError::VertexOutOfRange { v: 8, len: 3 })
        );
        assert_eq!(g.try_connected(0, 1), Ok(true));
        assert_eq!(g.try_connected(0, 2), Ok(false));
        assert_eq!(
            g.try_component_agg(4).map(|a| a.sum),
            Err(GraphError::VertexOutOfRange { v: 4, len: 3 })
        );
        assert!(g.try_component_agg(0).is_ok());
        assert_eq!(
            g.try_path_agg(3, 0).map(|a| a.map(|x| x.sum)),
            Err(GraphError::VertexOutOfRange { v: 3, len: 3 })
        );
        assert!(g.try_path_agg(0, 1).unwrap().is_some());
        assert!(g.try_path_agg(0, 2).unwrap().is_none(), "disconnected");

        // backends that cannot answer a query family say so, instead of
        // conflating "unsupported" with "disconnected" or "zero"
        let mut lct = LinkCutConnectivity::new(2);
        lct.try_insert_edge(0, 1).unwrap();
        assert_eq!(lct.try_component_agg(0), Err(GraphError::UnsupportedQuery));
        assert!(lct.try_path_agg(0, 1).unwrap().is_some());
    }

    #[test]
    fn out_of_range_vertices_are_typed_errors_everywhere() {
        // every entry point names the offending id instead of a silent false
        let mut g = UfoConnectivity::new(3);
        g.try_insert_edge(0, 1).unwrap();
        let out_of_range = |v| GraphError::VertexOutOfRange { v, len: 3 };
        assert_eq!(g.try_insert_edge(0, 7), Err(out_of_range(7)));
        assert_eq!(g.try_connected(0, 7), Err(out_of_range(7)));
        assert_eq!(g.try_connected(9, 9), Err(out_of_range(9)));
        assert_eq!(g.try_set_weight(7, 5), Err(out_of_range(7)));
        assert_eq!(g.try_delete_edge(0, 7), Err(out_of_range(7)));
        let report = g.apply(&[
            GraphOp::InsertEdge(0, 7),
            GraphOp::DeleteEdge(7, 0),
            GraphOp::SetWeight(7, 5),
        ]);
        assert_eq!(report.rejected, 3);
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == OpOutcome::Rejected(out_of_range(7))));
        // component_size keeps its documented neutral answer
        assert_eq!(g.component_size(7), 0);
        assert_eq!(g.try_component_agg(7).map(|a| a.sum), Err(out_of_range(7)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn weighted_queries_distinguish_zero_from_unsupported() {
        // UFO backend: full weighted surface — a zero sum is a real zero.
        let mut g = UfoConnectivity::new(4);
        g.try_insert_edge(0, 1).unwrap();
        g.try_insert_edge(1, 2).unwrap();
        assert!(g.weighted());
        assert_eq!(g.try_set_weight(1, 0), Ok(()));
        assert_eq!(
            g.try_component_agg(0).map(|a| a.sum),
            Ok(0),
            "true zero, not a default"
        );
        assert_eq!(g.try_set_weight(1, 7), Ok(()));
        assert_eq!(g.try_component_agg(0).map(|a| a.sum), Ok(7));
        let p = g
            .try_path_agg(0, 2)
            .unwrap()
            .expect("ufo answers path aggregates");
        assert_eq!(p.sum, 7);
        assert_eq!(p.edges, 2);
        assert_eq!(g.try_path_agg(0, 3), Ok(None), "disconnected");
        assert!(g.try_set_weight(9, 1).is_err(), "out of range is declined");

        // Link-cut backend: paths yes, component aggregates no — and the
        // engine reports the gap as a typed decline instead of a silent zero.
        let mut h = LinkCutConnectivity::new(3);
        h.try_insert_edge(0, 1).unwrap();
        assert_eq!(h.try_set_weight(0, 5), Ok(()));
        assert_eq!(
            h.try_component_agg(0),
            Err(GraphError::UnsupportedQuery),
            "no component aggregates"
        );
        let p = h.try_path_agg(0, 1).unwrap().expect("connected");
        assert_eq!((p.sum, p.max), (5, 5));
        assert_eq!(h.try_path_agg(0, 2), Ok(None), "disconnected");
    }

    #[test]
    fn path_then_bridge_deletion_splits() {
        let mut g = LinkCutConnectivity::new(6);
        for i in 0..5 {
            g.try_insert_edge(i, i + 1).unwrap();
        }
        assert_eq!(g.component_count(), 1);
        assert!(g.try_delete_edge(2, 3).is_ok_and(|d| d.split), "bridge");
        assert_eq!(g.try_connected(0, 5), Ok(false));
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.component_size(0), 3);
        assert_eq!(g.component_size(5), 3);
        g.check_invariants().unwrap();
    }
}
