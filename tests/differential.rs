//! Cross-structure differential tests: every dynamic-tree implementation in
//! the workspace is driven with the same random operation sequences and must
//! agree with the naive oracle on every query it supports.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ufo_trees::connectivity::{DynConnectivity, GraphOp, SpanningBackend};
use ufo_trees::seqs::TreapSequence;
use ufo_trees::workloads::{self, SyntheticTree};
use ufo_trees::{
    EulerTourForest, Extents, LinkCutForest, NaiveForest, SumMinMax, TopologyForest, UfoForest,
};

/// Drives all structures with `steps` random link/cut operations over `n`
/// vertices and checks connectivity, path and subtree queries after every
/// operation.  UFO runs under both extent policies: `ufo` keeps extents and
/// answers the diameter too, `core` answers the core queries.
fn random_ops_agree(n: usize, steps: usize, seed: u64, check_every: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut naive: NaiveForest = NaiveForest::new(n);
    let mut ufo: UfoForest<SumMinMax, Extents> = UfoForest::new(n);
    let mut core: UfoForest = UfoForest::new(n);
    let mut topo: TopologyForest = TopologyForest::new(n);
    let mut lct: LinkCutForest = LinkCutForest::new(n);
    let mut ett = EulerTourForest::<TreapSequence>::new(n);

    for v in 0..n {
        let w = rng.random_range(-50..50);
        naive.set_weight(v, w);
        ufo.set_weight(v, w);
        core.set_weight(v, w);
        topo.set_weight(v, w);
        lct.set_weight(v, w);
        ett.set_weight(v, w);
    }

    let mut live_edges: Vec<(usize, usize)> = Vec::new();
    for step in 0..steps {
        let insert = live_edges.is_empty() || rng.random_bool(0.6);
        if insert {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            let expected = naive.link(u, v);
            assert_eq!(ufo.link(u, v), expected, "ufo link ({u},{v}) step {step}");
            assert_eq!(core.link(u, v), expected, "core link ({u},{v}) step {step}");
            assert_eq!(topo.link(u, v), expected, "topo link ({u},{v}) step {step}");
            assert_eq!(lct.link(u, v), expected, "lct link ({u},{v}) step {step}");
            assert_eq!(ett.link(u, v), expected, "ett link ({u},{v}) step {step}");
            if expected {
                live_edges.push((u, v));
            }
        } else {
            let idx = rng.random_range(0..live_edges.len());
            let (u, v) = live_edges.swap_remove(idx);
            assert!(naive.cut(u, v));
            assert!(ufo.cut(u, v), "ufo cut ({u},{v}) step {step}");
            assert!(core.cut(u, v), "core cut ({u},{v}) step {step}");
            assert!(topo.cut(u, v), "topo cut ({u},{v}) step {step}");
            assert!(lct.cut(u, v), "lct cut ({u},{v}) step {step}");
            assert!(ett.cut(u, v), "ett cut ({u},{v}) step {step}");
        }

        if step % check_every != 0 {
            continue;
        }
        ufo.engine().check_invariants().expect("ufo invariants");
        core.engine()
            .check_invariants()
            .expect("core ufo invariants");
        topo.engine().check_invariants().expect("topo invariants");

        for _ in 0..8 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let conn = naive.connected(a, b);
            assert_eq!(
                ufo.connected(a, b),
                conn,
                "ufo connected({a},{b}) step {step}"
            );
            assert_eq!(
                topo.connected(a, b),
                conn,
                "topo connected({a},{b}) step {step}"
            );
            assert_eq!(
                lct.connected(a, b),
                conn,
                "lct connected({a},{b}) step {step}"
            );
            assert_eq!(
                ett.connected(a, b),
                conn,
                "ett connected({a},{b}) step {step}"
            );

            assert_eq!(
                ufo.path_sum(a, b),
                naive.path_sum(a, b),
                "ufo path_sum({a},{b}) step {step}"
            );
            assert_eq!(
                core.path_aggregate(a, b),
                ufo.path_aggregate(a, b),
                "core path_aggregate({a},{b}) step {step}"
            );
            assert_eq!(
                ufo.path_max(a, b),
                naive.path_max(a, b),
                "ufo path_max({a},{b}) step {step}"
            );
            assert_eq!(
                ufo.path_min(a, b),
                naive.path_min(a, b),
                "ufo path_min({a},{b}) step {step}"
            );
            assert_eq!(
                ufo.path_length(a, b),
                naive.path_length(a, b).map(|x| x as u64),
                "ufo path_length({a},{b}) step {step}"
            );
            // The ternarized topology baseline answers vertex-weight path
            // aggregates exactly only when every interior vertex of the path
            // has degree <= 3: a degree >= 4 vertex can be entered and left
            // through edges hosted on two extra slots, and the underlying
            // path between them misses the weight-carrying primary slot (see
            // the `claim_slot` docs in `dyntree_ternary`).  UFO trees need no
            // ternarization, which is why their comparison is unconditional.
            if let Some(p) = naive.path(a, b) {
                if p.iter()
                    .skip(1)
                    .rev()
                    .skip(1)
                    .all(|&x| naive.degree(x) <= 3)
                {
                    assert_eq!(
                        topo.path_sum(a, b),
                        naive.path_sum(a, b),
                        "topo path_sum({a},{b}) step {step}"
                    );
                }
            } else {
                assert_eq!(
                    topo.path_sum(a, b),
                    None,
                    "topo path_sum({a},{b}) step {step}"
                );
            }
            assert_eq!(
                lct.path_sum(a, b),
                naive.path_sum(a, b),
                "lct path_sum({a},{b}) step {step}"
            );
            assert_eq!(
                lct.path_max(a, b),
                naive.path_max(a, b),
                "lct path_max({a},{b}) step {step}"
            );
        }

        // subtree queries over random live edges
        if !live_edges.is_empty() {
            for _ in 0..4 {
                let (u, v) = live_edges[rng.random_range(0..live_edges.len())];
                assert_eq!(
                    ufo.subtree_sum(u, v),
                    naive.subtree_sum(u, v),
                    "ufo subtree({u},{v}) step {step}"
                );
                assert_eq!(
                    ufo.subtree_size(u, v),
                    naive.subtree_size(u, v).map(|x| x as u64),
                    "ufo subtree_size({u},{v}) step {step}"
                );
                assert_eq!(
                    ufo.subtree_max(u, v),
                    naive.subtree_max(u, v),
                    "ufo subtree_max({u},{v}) step {step}"
                );
                assert_eq!(
                    core.subtree_aggregate(u, v),
                    ufo.subtree_aggregate(u, v),
                    "core subtree_aggregate({u},{v}) step {step}"
                );
                assert_eq!(
                    ett.subtree_sum(u, v),
                    naive.subtree_sum(u, v),
                    "ett subtree({u},{v}) step {step}"
                );
            }
        }

        // diameter + component size spot checks
        let a = rng.random_range(0..n);
        assert_eq!(
            ufo.component_size(a),
            naive.component_size(a) as u64,
            "component_size({a}) step {step}"
        );
        assert_eq!(
            core.component_aggregate(a),
            ufo.component_aggregate(a),
            "core component_aggregate({a}) step {step}"
        );
        assert_eq!(
            ufo.component_diameter(a),
            naive.component_diameter(a) as u64,
            "component_diameter({a}) step {step}"
        );
    }
}

#[test]
fn differential_small_dense_churn() {
    random_ops_agree(16, 300, 1, 1);
}

#[test]
fn differential_medium_forest() {
    random_ops_agree(60, 500, 2, 5);
}

#[test]
fn differential_larger_sparse() {
    random_ops_agree(200, 600, 3, 20);
}

#[test]
fn synthetic_families_build_and_agree() {
    for family in SyntheticTree::ALL {
        let forest = family.generate(200, 17);
        let n = forest.n;
        let mut rng = StdRng::seed_from_u64(23);
        let mut naive: NaiveForest = NaiveForest::new(n);
        let mut ufo: UfoForest<SumMinMax, Extents> = UfoForest::new(n);
        let mut lct: LinkCutForest = LinkCutForest::new(n);
        for v in 0..n {
            let w = rng.random_range(0..1000);
            naive.set_weight(v, w);
            ufo.set_weight(v, w);
            lct.set_weight(v, w);
        }
        for &(u, v) in &forest.edges {
            assert!(naive.link(u, v));
            assert!(ufo.link(u, v), "{:?}: ufo link failed", family);
            assert!(lct.link(u, v), "{:?}: lct link failed", family);
        }
        ufo.engine()
            .check_invariants()
            .unwrap_or_else(|e| panic!("{:?}: {}", family, e));
        for _ in 0..50 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            assert_eq!(
                ufo.path_sum(a, b),
                naive.path_sum(a, b),
                "{:?} path_sum({a},{b})",
                family
            );
            assert_eq!(
                lct.path_sum(a, b),
                naive.path_sum(a, b),
                "{:?} lct path_sum({a},{b})",
                family
            );
        }
        assert_eq!(
            ufo.component_diameter(forest.edges[0].0),
            naive.component_diameter(forest.edges[0].0) as u64,
            "{:?} diameter",
            family
        );
        // tear the tree down in random order, checking connectivity afterwards
        let mut edges = forest.edges.clone();
        edges.shuffle(&mut rng);
        for &(u, v) in edges.iter().take(n / 2) {
            assert!(ufo.cut(u, v), "{:?}: cut failed", family);
            assert!(naive.cut(u, v));
        }
        ufo.engine()
            .check_invariants()
            .unwrap_or_else(|e| panic!("{:?} after cuts: {}", family, e));
        for _ in 0..50 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            assert_eq!(
                ufo.connected(a, b),
                naive.connected(a, b),
                "{:?} connected({a},{b})",
                family
            );
        }
    }
}

#[test]
fn batch_interface_matches_sequential() {
    let n = 500;
    let tree = workloads::random_tree(n, 77);
    let mut batched: UfoForest = UfoForest::new(n);
    let mut sequential: UfoForest = UfoForest::new(n);
    for chunk in tree.edges.chunks(64) {
        batched.batch_link(chunk);
        for &(u, v) in chunk {
            sequential.link(u, v);
        }
    }
    assert_eq!(batched.num_edges(), sequential.num_edges());
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..200 {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        assert_eq!(batched.connected(a, b), sequential.connected(a, b));
    }
    batched.engine().check_invariants().unwrap();
}

/// A deliberately simple dynamic-connectivity oracle: an adjacency-set graph
/// answering every query by BFS, plus an incrementally rebuilt DSU for
/// component counts.
struct GraphOracle {
    adj: Vec<std::collections::HashSet<usize>>,
}

impl GraphOracle {
    fn new(n: usize) -> Self {
        Self {
            adj: vec![std::collections::HashSet::new(); n],
        }
    }

    fn insert(&mut self, u: usize, v: usize) -> bool {
        if u == v || self.adj[u].contains(&v) {
            return false;
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
        true
    }

    fn delete(&mut self, u: usize, v: usize) -> bool {
        if !self.adj[u].contains(&v) {
            return false;
        }
        self.adj[u].remove(&v);
        self.adj[v].remove(&u);
        true
    }

    fn connected(&self, u: usize, v: usize) -> bool {
        if u == v {
            return true;
        }
        let mut seen = std::collections::HashSet::from([u]);
        let mut queue = std::collections::VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if y == v {
                    return true;
                }
                if seen.insert(y) {
                    queue.push_back(y);
                }
            }
        }
        false
    }

    fn component_count(&self) -> usize {
        let n = self.adj.len();
        let mut dsu = ufo_trees::primitives::Dsu::new(n);
        for u in 0..n {
            for &v in &self.adj[u] {
                if u < v {
                    dsu.union(u, v);
                }
            }
        }
        dsu.components()
    }

    fn component_size(&self, v: usize) -> usize {
        let mut seen = std::collections::HashSet::from([v]);
        let mut queue = std::collections::VecDeque::from([v]);
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x] {
                if seen.insert(y) {
                    queue.push_back(y);
                }
            }
        }
        seen.len()
    }
}

/// Drives a [`DynConnectivity`] engine and the graph oracle through the same
/// randomized insert/delete/query trace over a general (cyclic) graph.
fn connectivity_agrees<B: SpanningBackend>(n: usize, steps: usize, seed: u64, check_every: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine: DynConnectivity<B> = DynConnectivity::new(n);
    let mut oracle = GraphOracle::new(n);
    let mut live: Vec<(usize, usize)> = Vec::new();

    for step in 0..steps {
        let insert = live.is_empty() || rng.random_bool(0.55);
        if insert {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            let expected = oracle.insert(u, v);
            assert_eq!(
                engine.try_insert_edge(u, v).is_ok(),
                expected,
                "[{}] insert ({u},{v}) step {step}",
                B::NAME
            );
            if expected {
                live.push((u.min(v), u.max(v)));
            }
        } else {
            let idx = rng.random_range(0..live.len());
            let (u, v) = live.swap_remove(idx);
            assert!(oracle.delete(u, v));
            assert!(
                engine.try_delete_edge(u, v).is_ok(),
                "[{}] delete ({u},{v}) step {step}",
                B::NAME
            );
        }

        // connectivity spot checks after every operation
        for _ in 0..4 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            assert_eq!(
                engine.try_connected(a, b),
                Ok(oracle.connected(a, b)),
                "[{}] connected({a},{b}) step {step}",
                B::NAME
            );
        }

        if step % check_every == 0 {
            assert_eq!(
                engine.component_count(),
                oracle.component_count(),
                "[{}] component count step {step}",
                B::NAME
            );
            let a = rng.random_range(0..n);
            assert_eq!(
                engine.component_size(a),
                oracle.component_size(a) as u64,
                "[{}] component_size({a}) step {step}",
                B::NAME
            );
            engine
                .check_invariants()
                .unwrap_or_else(|e| panic!("[{}] step {step}: {e}", B::NAME));
        }
    }
    assert_eq!(engine.num_edges(), live.len());
}

#[test]
fn connectivity_differential_ufo_10k() {
    connectivity_agrees::<UfoForest>(48, 10_000, 11, 97);
}

#[test]
fn connectivity_differential_linkcut_10k() {
    connectivity_agrees::<LinkCutForest>(48, 10_000, 12, 97);
}

#[test]
fn connectivity_differential_euler_10k() {
    connectivity_agrees::<EulerTourForest<TreapSequence>>(48, 10_000, 13, 97);
}

#[test]
fn connectivity_differential_naive_backend() {
    connectivity_agrees::<NaiveForest>(32, 2_000, 14, 53);
}

#[test]
fn connectivity_differential_dense_small() {
    // dense churn on a tiny vertex set exercises deep level promotions
    connectivity_agrees::<UfoForest>(10, 4_000, 15, 29);
    connectivity_agrees::<LinkCutForest>(10, 4_000, 16, 29);
}

#[test]
fn connectivity_batch_matches_oracle_on_graph_workloads() {
    use ufo_trees::workloads::temporal_graph;
    let graph = temporal_graph(400, 3, 21);
    let mut engine: DynConnectivity<UfoForest> = DynConnectivity::new(graph.n);
    let mut oracle = GraphOracle::new(graph.n);
    for chunk in graph.edges.chunks(64) {
        let ops: Vec<GraphOp> = chunk
            .iter()
            .map(|&(u, v)| GraphOp::InsertEdge(u, v))
            .collect();
        let applied = engine.apply(&ops).applied;
        let expected = chunk.iter().filter(|&&(u, v)| oracle.insert(u, v)).count();
        assert_eq!(applied, expected);
        assert_eq!(engine.component_count(), oracle.component_count());
    }
    // tear down in batches
    for chunk in graph.edges.chunks(128) {
        let ops: Vec<GraphOp> = chunk
            .iter()
            .map(|&(u, v)| GraphOp::DeleteEdge(u, v))
            .collect();
        let applied = engine.apply(&ops).applied;
        let expected = chunk.iter().filter(|&&(u, v)| oracle.delete(u, v)).count();
        assert_eq!(applied, expected);
        assert_eq!(engine.component_count(), oracle.component_count());
    }
    assert_eq!(engine.num_edges(), 0);
}

#[test]
fn nearest_marked_agrees_with_oracle() {
    let n = 120;
    let tree = workloads::random_tree_degree3(n, 5);
    let mut rng = StdRng::seed_from_u64(9);
    let mut naive: NaiveForest = NaiveForest::new(n);
    let mut ufo: UfoForest<SumMinMax, Extents> = UfoForest::new(n);
    for &(u, v) in &tree.edges {
        naive.link(u, v);
        ufo.link(u, v);
    }
    for _ in 0..10 {
        let m = rng.random_range(0..n);
        naive.set_marked(m, true);
        ufo.set_marked(m, true);
    }
    for v in 0..n {
        assert_eq!(
            ufo.nearest_marked_distance(v),
            naive.nearest_marked_distance(v).map(|d| d as u64),
            "nearest marked from {v}"
        );
    }
}
