//! Incremental minimum-spanning-forest maintenance over the connectivity
//! engine — the first workload unlocked by the generic algebra layer.
//!
//! The classic incremental MST rule needs exactly one non-trivial primitive:
//! *max-edge-on-path*.  On inserting an edge `(u, v, w)`:
//!
//! * if `u` and `v` are in different trees, the edge joins the forest;
//! * otherwise find the maximum-weight edge on the current `u`–`v` tree path;
//!   if it is heavier than `w`, swap it out for the new edge, else discard
//!   the new edge.  (Both the evicted and the discarded edge were the
//!   maximum of some cycle, so by the cycle property they can never re-enter
//!   the MSF under insert-only workloads — dropping them is exact.)
//!
//! The forests in this workspace aggregate *vertex* weights, so each graph
//! edge is subdivided: an *edge-vertex* carries the edge's weight tagged with
//! its id ([`WeightedId`]) under the [`MaxEdge`] argmax monoid, and real
//! vertices carry the monoid identity.  The engine is a plain
//! [`DynConnectivity`] over a link-cut backend instantiated at `MaxEdge`;
//! `try_path_agg` then *is* max-edge-on-path, and its `id` names the edge to
//! evict.  Every maintained state is verified against a from-scratch Kruskal
//! recompute over all edges inserted so far.
//!
//! A second phase exercises the lazy-action layer (DESIGN.md §13):
//! *corridor decay* re-weights every forest edge on a tree path with **one**
//! `try_path_apply` — an O(log n) lazy tag instead of the pre-action
//! alternative, one `SetWeight` per touched edge (O(k log n) for a
//! k-edge corridor).  A uniform shift moves every argmax candidate by the
//! same amount, so `MaxEdge` keeps its carrier ids and `try_path_agg` keeps
//! naming real edges; and since decay only *lowers* forest-edge weights,
//! every previously discarded edge stays the maximum of its cycle and the
//! maintained forest stays exactly Kruskal-optimal — which the verifier
//! checks by mirroring each corridor with a naive per-edge update on the
//! bookkeeping side.
//!
//! Run with: `cargo run --release --example dynamic_mst`

use dyntree_connectivity::{DynConnectivity, GraphOp};
use dyntree_linkcut::LinkCutForest;
use dyntree_primitives::algebra::{MaxEdge, WeightedId};
use dyntree_primitives::Dsu;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Incremental minimum spanning forest over `n` real vertices.
struct IncrementalMsf {
    n: usize,
    engine: DynConnectivity<LinkCutForest<MaxEdge>>,
    /// Endpoints and weight of every *forest* edge, by edge id.
    forest_edges: Vec<Option<(usize, usize, i64)>>,
    total_weight: i64,
    next_id: usize,
}

impl IncrementalMsf {
    /// `max_edges` bounds the number of `insert` calls (each consumes one
    /// edge-vertex slot in the engine's universe).
    fn new(n: usize, max_edges: usize) -> Self {
        Self {
            n,
            engine: DynConnectivity::new(n + max_edges),
            forest_edges: vec![None; max_edges],
            total_weight: 0,
            next_id: 0,
        }
    }

    /// The engine vertex standing in for edge id `e`.
    fn edge_vertex(&self, e: usize) -> usize {
        self.n + e
    }

    /// Inserts edge `(u, v, w)`; returns whether the forest changed.
    fn insert(&mut self, u: usize, v: usize, w: i64) -> bool {
        let e = self.next_id;
        self.next_id += 1;
        if self.engine.try_connected(u, v) == Ok(true) {
            // Max edge on the current tree path; the subdivision vertices are
            // the only weight carriers, so the argmax names a forest edge.
            let top = self
                .engine
                .try_path_agg(u, v)
                .expect("link-cut answers path aggregates")
                .expect("connected ⇒ path aggregate")
                .value;
            debug_assert!(top.is_some(), "tree path must carry at least one edge");
            if top.weight <= w {
                return false; // new edge is the cycle maximum: discard
            }
            self.remove_forest_edge(top.id);
        }
        self.add_forest_edge(e, u, v, w);
        true
    }

    fn add_forest_edge(&mut self, e: usize, u: usize, v: usize, w: i64) {
        let ev = self.edge_vertex(e);
        // The engine only ever holds forest edges, so both subdivision
        // segments join distinct trees (ev is isolated before this).
        let report = self.engine.apply(&[
            GraphOp::InsertEdge(u, ev),
            GraphOp::InsertEdge(ev, v),
            GraphOp::SetWeight(ev, WeightedId { weight: w, id: e }),
        ]);
        assert_eq!(report.applied, 3, "forest edge insert declined: {report}");
        self.forest_edges[e] = Some((u, v, w));
        self.total_weight += w;
    }

    fn remove_forest_edge(&mut self, e: usize) {
        let (u, v, w) = self.forest_edges[e].take().expect("evicting a live edge");
        let ev = self.edge_vertex(e);
        // No non-tree edges exist, so each deletion splits (no replacement
        // search can rewire the forest behind our back).
        let report = self
            .engine
            .apply(&[GraphOp::DeleteEdge(u, ev), GraphOp::DeleteEdge(ev, v)]);
        assert_eq!(report.applied, 2, "forest edge delete declined: {report}");
        self.total_weight -= w;
    }

    fn forest_size(&self) -> usize {
        self.forest_edges.iter().flatten().count()
    }

    /// Uniformly shifts every forest edge on the `a`–`b` tree path by
    /// `delta` — one O(log n) lazy path update on the engine, mirrored by a
    /// naive per-edge walk over the bookkeeping (the verifier's eager
    /// counterpart).  Returns the ids of the corridor's edges.
    fn decay_corridor(&mut self, a: usize, b: usize, delta: i64) -> Vec<usize> {
        let count = self
            .engine
            .try_path_apply(
                a,
                b,
                WeightedId {
                    weight: delta,
                    id: 0,
                },
            )
            .expect("valid endpoints on a weighted path-apply backend")
            .expect("corridor endpoints must be connected");
        // the subdivided path alternates real/edge vertices: 2k+1 vertices
        // carry exactly k forest edges
        assert!(count % 2 == 1, "a real-to-real path has odd length");
        let k = ((count - 1) / 2) as usize;
        let path = self
            .forest_path(a, b)
            .expect("mirror forest must connect what the engine connects");
        assert_eq!(path.len(), k, "engine corridor disagrees with the mirror");
        for &e in &path {
            let (u, v, w) = self.forest_edges[e].expect("live forest edge");
            self.forest_edges[e] = Some((u, v, w + delta));
            self.total_weight += delta;
        }
        path
    }

    /// Edge ids on the mirror forest's `a`–`b` path (BFS over the
    /// bookkeeping — deliberately engine-free).
    fn forest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for (e, slot) in self.forest_edges.iter().enumerate() {
            if let Some((u, v, _)) = *slot {
                adj[u].push((v, e));
                adj[v].push((u, e));
            }
        }
        let mut from: Vec<Option<(usize, usize)>> = vec![None; self.n];
        let mut queue = std::collections::VecDeque::from([a]);
        let mut seen = vec![false; self.n];
        seen[a] = true;
        while let Some(x) = queue.pop_front() {
            if x == b {
                let mut path = Vec::new();
                let mut cur = b;
                while cur != a {
                    let (prev, e) = from[cur].expect("BFS parent");
                    path.push(e);
                    cur = prev;
                }
                path.reverse();
                return Some(path);
            }
            for &(y, e) in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    from[y] = Some((x, e));
                    queue.push_back(y);
                }
            }
        }
        None
    }
}

/// From-scratch Kruskal over `edges`; returns (total weight, edge count).
fn kruskal(n: usize, edges: &[(usize, usize, i64)]) -> (i64, usize) {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| (edges[i].2, i));
    let mut dsu = Dsu::new(n);
    let (mut total, mut picked) = (0i64, 0usize);
    for i in order {
        let (u, v, w) = edges[i];
        if dsu.union(u, v) {
            total += w;
            picked += 1;
        }
    }
    (total, picked)
}

fn main() {
    let n = 600;
    let rounds = 6_000;
    let decay_rounds = 300;
    let mut rng = StdRng::seed_from_u64(0x5eed0757);
    let mut msf = IncrementalMsf::new(n, rounds + decay_rounds);
    let mut all_edges: Vec<(usize, usize, i64)> = Vec::with_capacity(rounds);
    let mut swaps = 0usize;
    let mut rejects = 0usize;

    for step in 1..=rounds {
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n);
        while v == u {
            v = rng.random_range(0..n);
        }
        let w = rng.random_range(1..=1_000_000i64);
        let before = msf.forest_size();
        let changed = msf.insert(u, v, w);
        all_edges.push((u, v, w));
        if changed && msf.forest_size() == before {
            swaps += 1;
        } else if !changed {
            rejects += 1;
        }

        // Verify against Kruskal at increasing intervals (it is O(m α m)).
        if step % 500 == 0 || step == rounds {
            let (kw, kn) = kruskal(n, &all_edges);
            assert_eq!(
                (msf.total_weight, msf.forest_size()),
                (kw, kn),
                "step {step}: maintained MSF diverged from Kruskal"
            );
            println!(
                "step {:>5}: forest edges {:>4}, total weight {:>10}  (swaps {:>4}, rejected {:>4})  ✓ Kruskal",
                step,
                msf.forest_size(),
                msf.total_weight,
                swaps,
                rejects
            );
        }
    }
    println!(
        "phase 1: {} inserted edges → {}-edge minimum spanning forest of weight {}",
        rounds,
        msf.forest_size(),
        msf.total_weight
    );

    // Phase 2 — corridor decay interleaved with fresh inserts.  Each round
    // lowers a whole tree path with one lazy path_apply (vs one SetWeight
    // per corridor edge before the action layer existed), then inserts a
    // new random edge so the eviction rule keeps running over the decayed
    // weights.  Decay is strictly negative, so discarded edges stay cycle
    // maxima and the maintained forest stays exactly Kruskal-optimal.
    let mut corridor_edges = 0usize;
    for round in 1..=decay_rounds {
        let a = rng.random_range(0..n);
        let mut b = rng.random_range(0..n);
        while b == a {
            b = rng.random_range(0..n);
        }
        if msf.engine.try_connected(a, b) == Ok(true) {
            let delta = -rng.random_range(1..=5_000i64);
            let path = msf.decay_corridor(a, b, delta);
            corridor_edges += path.len();
            // mirror the decay into the verifier's edge list (ids are
            // insertion order, so corridor ids index it directly)
            for e in path {
                all_edges[e].2 += delta;
            }
        }
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n);
        while v == u {
            v = rng.random_range(0..n);
        }
        let w = rng.random_range(1..=1_000_000i64);
        msf.insert(u, v, w);
        all_edges.push((u, v, w));

        if round % 50 == 0 || round == decay_rounds {
            let (kw, kn) = kruskal(n, &all_edges);
            assert_eq!(
                (msf.total_weight, msf.forest_size()),
                (kw, kn),
                "decay round {round}: maintained MSF diverged from Kruskal"
            );
            println!(
                "decay {:>4}: {:>5} corridor edges re-weighted, total weight {:>11}  ✓ Kruskal",
                round, corridor_edges, msf.total_weight
            );
        }
    }
    println!(
        "final: {} edges ({} decayed corridors' worth) → {}-edge minimum spanning forest of weight {}",
        all_edges.len(),
        corridor_edges,
        msf.forest_size(),
        msf.total_weight
    );
}
