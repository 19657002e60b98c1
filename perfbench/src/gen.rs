//! Seeded input generators.  Every stream is a pure function of its seed
//! and emits only operations that must succeed: no self-loops, no insert of
//! a live edge, no delete of a missing edge.  Any rejection the program
//! reports is therefore a real failure.

use std::collections::HashSet;

use dyntree_primitives::ops::GraphOp;
use dyntree_workloads::forests::{dandelion, kary_tree, preferential_attachment_tree, star_tree};
use dyntree_workloads::Forest;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Short names of the four tree shapes of `forest-hubs`, in vertex-id order.
pub const SHAPES: [&str; 4] = ["star", "dand", "kary64", "pattach"];

/// Distinct stream ids mixed into the seed, so the streams of one run are
/// independent of each other.
const WEIGHT_STREAM: u64 = 0x5745_4947;
const ROUND_STREAM: u64 = 0x524f_554e;
const GRAPH_STREAM: u64 = 0x4752_4150;
const LABEL_STREAM: u64 = 0x4c41_4245;
const PATTACH_SHAPE_SEED: u64 = 0x5041_5454;

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.rotate_left(32))
}

/// Four disjoint trees in one vertex space: a star with `hub` leaves, a
/// dandelion whose stem and head have `hub` vertices each, a 64-ary tree on
/// `hub + 1` vertices and a preferential-attachment tree on `2 * hub`.
#[derive(Clone, Debug)]
pub struct HubForest {
    pub n: usize,
    /// First vertex id of each shape, plus `n` as a sentinel.
    pub offsets: [usize; 5],
    pub edges: Vec<(usize, usize)>,
    pub weights: Vec<i64>,
}

impl HubForest {
    pub fn generate(hub: usize, seed: u64) -> HubForest {
        // The attachment tree's shape (its hub degrees, which set the cost
        // of every update there) comes from a fixed seed, so runs differ in
        // labels, weights and batches but not in how hard the tree is.
        let mut r = rng(seed, LABEL_STREAM);
        let pattach = preferential_attachment_tree(2 * hub, PATTACH_SHAPE_SEED);
        let mut perm: Vec<usize> = (0..pattach.n).collect();
        perm.shuffle(&mut r);
        let pattach = Forest {
            n: pattach.n,
            edges: pattach
                .edges
                .iter()
                .map(|&(u, v)| (perm[u], perm[v]))
                .collect(),
        };
        let parts = [
            star_tree(hub + 1),
            dandelion(2 * hub),
            kary_tree(hub + 1, 64),
            pattach,
        ];
        let mut offsets = [0; 5];
        let mut edges = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let base = offsets[i];
            edges.extend(part.edges.iter().map(|&(u, v)| (base + u, base + v)));
            offsets[i + 1] = base + part.n;
        }
        let n = offsets[4];
        let mut r = rng(seed, WEIGHT_STREAM);
        let weights = (0..n).map(|_| r.random_range(-1000i64..=1000)).collect();
        HubForest {
            n,
            offsets,
            edges,
            weights,
        }
    }

    /// Index into [`SHAPES`] of the tree holding `v`.
    pub fn shape_of(&self, v: usize) -> usize {
        self.offsets[1..]
            .iter()
            .position(|&end| v < end)
            .unwrap_or(3)
    }

    fn vertex_in(&self, shape: usize, r: &mut StdRng) -> usize {
        r.random_range(self.offsets[shape]..self.offsets[shape + 1])
    }
}

/// A query against the static trees of `forest-hubs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HubQuery {
    Connected(usize, usize),
    PathSum(usize, usize),
}

/// One `forest-hubs` round: a batch of distinct tree edges to cut and relink,
/// then a block of queries.
#[derive(Clone, Debug)]
pub struct HubRound {
    pub edges: Vec<(usize, usize)>,
    pub queries: Vec<HubQuery>,
}

/// The endless round stream of `forest-hubs`.
pub struct HubRounds {
    rng: StdRng,
    picked: Vec<u64>,
    stamp: u64,
}

impl HubRounds {
    pub fn new(seed: u64) -> HubRounds {
        HubRounds {
            rng: rng(seed, ROUND_STREAM),
            picked: Vec::new(),
            stamp: 0,
        }
    }

    /// `batch` distinct edges drawn uniformly from the forest's edges, and
    /// `queries` queries: half `connected` on uniform vertex pairs, half
    /// `path_sum` on a pair inside one uniformly chosen shape.
    pub fn next(&mut self, f: &HubForest, batch: usize, queries: usize) -> HubRound {
        assert!(batch <= f.edges.len(), "batch larger than the forest");
        self.picked.resize(f.edges.len(), 0);
        self.stamp += 1;
        let mut edges = Vec::with_capacity(batch);
        while edges.len() < batch {
            let i = self.rng.random_range(0..f.edges.len());
            if self.picked[i] != self.stamp {
                self.picked[i] = self.stamp;
                edges.push(f.edges[i]);
            }
        }
        let queries = (0..queries)
            .map(|q| {
                if q % 2 == 0 {
                    let u = self.rng.random_range(0..f.n);
                    HubQuery::Connected(u, self.rng.random_range(0..f.n))
                } else {
                    let shape = self.rng.random_range(0..SHAPES.len());
                    let u = f.vertex_in(shape, &mut self.rng);
                    HubQuery::PathSum(u, f.vertex_in(shape, &mut self.rng))
                }
            })
            .collect();
        HubRound { edges, queries }
    }
}

fn key(u: usize, v: usize) -> u64 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    (a << 32) | b
}

/// A random simple graph under churn: the live edge set is tracked exactly,
/// so every delete targets a live edge and every insert a non-edge.
#[derive(Clone, Debug)]
pub struct ChurnGen {
    rng: StdRng,
    n: usize,
    live: Vec<(usize, usize)>,
    set: HashSet<u64>,
}

impl ChurnGen {
    /// `m` distinct random edges over `n` vertices (the set-up load).
    pub fn new(n: usize, m: usize, seed: u64) -> ChurnGen {
        assert!(n >= 2 && m < n * (n - 1) / 4, "graph too dense to churn");
        let mut g = ChurnGen {
            rng: rng(seed, GRAPH_STREAM),
            n,
            live: Vec::with_capacity(m),
            set: HashSet::with_capacity(m),
        };
        for _ in 0..m {
            let e = g.fresh_edge(&HashSet::new());
            g.add(e);
        }
        g
    }

    /// The current live edge set, canonically oriented `(min, max)`.
    pub fn live(&self) -> &[(usize, usize)] {
        &self.live
    }

    fn add(&mut self, e: (usize, usize)) {
        self.set.insert(key(e.0, e.1));
        self.live.push(e);
    }

    /// A uniformly random non-loop pair that is neither live nor in `avoid`.
    fn fresh_edge(&mut self, avoid: &HashSet<u64>) -> (usize, usize) {
        loop {
            let u = self.rng.random_range(0..self.n);
            let v = self.rng.random_range(0..self.n);
            let k = key(u, v);
            if u != v && !self.set.contains(&k) && !avoid.contains(&k) {
                return (u.min(v), u.max(v));
            }
        }
    }

    /// One transaction: `deletes` distinct live edges, then `inserts` new
    /// edges that were not live before the transaction.
    pub fn next_batch(&mut self, deletes: usize, inserts: usize) -> Vec<GraphOp> {
        assert!(deletes <= self.live.len(), "not enough live edges");
        let mut ops = Vec::with_capacity(deletes + inserts);
        let mut gone = HashSet::with_capacity(deletes);
        for _ in 0..deletes {
            let i = self.rng.random_range(0..self.live.len());
            let (u, v) = self.live.swap_remove(i);
            self.set.remove(&key(u, v));
            gone.insert(key(u, v));
            ops.push(GraphOp::DeleteEdge(u, v));
        }
        for _ in 0..inserts {
            let e = self.fresh_edge(&gone);
            self.add(e);
            ops.push(GraphOp::InsertEdge(e.0, e.1));
        }
        ops
    }

    /// The live edge set as insert batches of at most `chunk` ops.
    pub fn load_batches(&self, chunk: usize) -> Vec<Vec<GraphOp>> {
        self.live
            .chunks(chunk)
            .map(|c| c.iter().map(|&(u, v)| GraphOp::InsertEdge(u, v)).collect())
            .collect()
    }

    /// `k` uniform vertex pairs for a query block.
    pub fn query_pairs(&mut self, k: usize) -> Vec<(usize, usize)> {
        (0..k)
            .map(|_| {
                let u = self.rng.random_range(0..self.n);
                (u, self.rng.random_range(0..self.n))
            })
            .collect()
    }
}

/// `k` uniform vertices from a stream of the run's seed (reader inputs).
pub fn vertices(n: usize, k: usize, seed: u64, stream: u64) -> Vec<u32> {
    let mut r = rng(seed, stream);
    (0..k)
        .map(|_| u32::try_from(r.random_range(0..n)).expect("vertex ids fit u32"))
        .collect()
}

/// Random vertex weights for the graph workloads.
pub fn graph_weights(n: usize, seed: u64) -> Vec<i64> {
    let mut r = rng(seed, WEIGHT_STREAM);
    (0..n).map(|_| r.random_range(0i64..1000)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyntree_connectivity::DynConnectivity;
    use ufo_forest::UfoForest;

    #[test]
    fn same_seed_same_stream() {
        let a = HubForest::generate(64, 7);
        let b = HubForest::generate(64, 7);
        assert_eq!((a.edges.clone(), a.weights.clone()), (b.edges, b.weights));
        let (mut ra, mut rb) = (HubRounds::new(7), HubRounds::new(7));
        for _ in 0..5 {
            let (x, y) = (ra.next(&a, 32, 16), rb.next(&a, 32, 16));
            assert_eq!((x.edges, x.queries), (y.edges, y.queries));
        }
        let (mut ga, mut gb) = (ChurnGen::new(200, 400, 9), ChurnGen::new(200, 400, 9));
        assert_eq!(ga.live(), gb.live());
        for _ in 0..5 {
            assert_eq!(ga.next_batch(50, 50), gb.next_batch(50, 50));
            assert_eq!(ga.query_pairs(8), gb.query_pairs(8));
        }
        assert_ne!(
            ChurnGen::new(200, 400, 10).live(),
            ChurnGen::new(200, 400, 9).live()
        );
        assert_eq!(vertices(100, 10, 3, 1), vertices(100, 10, 3, 1));
    }

    #[test]
    fn hub_forest_shapes_are_disjoint_trees() {
        let f = HubForest::generate(64, 1);
        assert_eq!(f.edges.len(), f.n - 4, "four trees on n vertices");
        for &(u, v) in &f.edges {
            assert_eq!(f.shape_of(u), f.shape_of(v), "edge crosses shapes");
        }
        assert_eq!(f.shape_of(0), 0);
        assert_eq!(f.shape_of(f.n - 1), 3);
    }

    #[test]
    fn hub_rounds_restore_the_edge_multiset() {
        let f = HubForest::generate(64, 3);
        let mut forest: UfoForest = UfoForest::new(f.n);
        assert_eq!(forest.batch_link(&f.edges), f.edges.len());
        let mut rounds = HubRounds::new(3);
        for _ in 0..10 {
            let round = rounds.next(&f, 48, 8);
            let distinct: HashSet<u64> = round.edges.iter().map(|&(u, v)| key(u, v)).collect();
            assert_eq!(distinct.len(), round.edges.len(), "batch edges distinct");
            assert_eq!(forest.batch_cut(&round.edges), round.edges.len());
            assert_eq!(forest.batch_link(&round.edges), round.edges.len());
            assert_eq!(forest.num_edges(), f.edges.len());
            assert!(f.edges.iter().all(|&(u, v)| forest.has_edge(u, v)));
        }
        forest.engine().check_invariants().unwrap();
    }

    #[test]
    fn churn_streams_stay_valid() {
        let mut g = ChurnGen::new(300, 600, 5);
        let mut model: HashSet<u64> = g.live().iter().map(|&(u, v)| key(u, v)).collect();
        assert_eq!(model.len(), 600, "initial edges distinct");
        let mut eng: DynConnectivity<UfoForest> = DynConnectivity::new(300);
        assert_eq!(eng.apply(&g.load_batches(600)[0]).applied, 600);
        for _ in 0..20 {
            let ops = g.next_batch(64, 64);
            for op in &ops {
                match *op {
                    GraphOp::DeleteEdge(u, v) => assert!(model.remove(&key(u, v))),
                    GraphOp::InsertEdge(u, v) => {
                        assert_ne!(u, v);
                        assert!(model.insert(key(u, v)));
                    }
                    _ => unreachable!("churn emits only edge ops"),
                }
            }
            let report = eng.apply(&ops);
            assert_eq!(
                (report.applied, report.skipped, report.rejected),
                (128, 0, 0)
            );
            assert_eq!(model.len(), g.live().len());
            assert_eq!(eng.num_edges(), g.live().len());
        }
    }
}
