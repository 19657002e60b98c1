//! Differential tests for the deferred UFO summary refresh.  The UFO
//! backend's `link`, `cut` and `set_weight` only queue summary work; its
//! `component_size`, `component_agg` and `path_agg` settle first.  Seeded
//! `apply` streams run on `DynConnectivity<UfoForest>` and on the naive
//! oracle, with summary reads at random gaps: short gaps, read-free
//! stretches of at least 1 000 updates, and weight changes and vertex
//! growth between reads.  Every outcome and every answer is compared; after
//! each read block the UFO engine is settled and its invariants (stored
//! summaries against a from-scratch fold, cached fold blocks) are checked.
//! The hub legs run the same streams on a star and a dandelion, so the
//! fold trees of a high-fan-out cluster go stale across many updates.
//! Every leg runs under both extent policies: the core default and
//! `Extents`, whose refresh also folds the extent records.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufo_trees::connectivity::DynConnectivity;
use ufo_trees::ufo::Core;
use ufo_trees::{Extent, Extents, GraphOp, NaiveForest, SumMinMax, UfoForest};

/// Leaves per hub: eight 32-child fold blocks and a partial ninth.
const HUB: usize = 8 * 32 + 7;

struct Pair<X: Extent> {
    ufo: DynConnectivity<UfoForest<SumMinMax, X>>,
    naive: DynConnectivity<NaiveForest>,
    /// The edges present in both, canonically oriented.
    edges: BTreeSet<(usize, usize)>,
    rng: StdRng,
    /// Where inserts attach: a hub vertex with probability 3/4, if any.
    hub: Option<usize>,
}

impl<X: Extent> Pair<X> {
    fn new(n: usize, seed: u64, hub: Option<usize>) -> Self {
        Pair {
            ufo: DynConnectivity::new(n),
            naive: DynConnectivity::new(n),
            edges: BTreeSet::new(),
            rng: StdRng::seed_from_u64(seed),
            hub,
        }
    }

    /// Applies one batch to both engines and compares the outcomes.
    fn apply(&mut self, ops: &[GraphOp], what: &str) {
        let got = self.ufo.apply(ops);
        let want = self.naive.apply(ops);
        assert_eq!(got.outcomes, want.outcomes, "{what}: outcomes");
        assert_eq!(self.ufo.len(), self.naive.len(), "{what}: vertex count");
        for op in ops {
            match *op {
                GraphOp::InsertEdge(u, v) if u != v => {
                    self.edges.insert((u.min(v), u.max(v)));
                }
                GraphOp::DeleteEdge(u, v) => {
                    self.edges.remove(&(u.min(v), u.max(v)));
                }
                _ => {}
            }
        }
    }

    /// A random update: mostly inserts and deletes, some weight changes,
    /// and an occasional vertex growth.
    fn random_op(&mut self) -> GraphOp {
        let n = self.ufo.len();
        let rng = &mut self.rng;
        match rng.random_range(0..100u32) {
            0 => GraphOp::AddVertices(rng.random_range(1..4)),
            1..=20 => GraphOp::SetWeight(rng.random_range(0..n), rng.random_range(-1000..=1000)),
            21..=60 if !self.edges.is_empty() => {
                let k = rng.random_range(0..self.edges.len());
                let &(u, v) = self.edges.iter().nth(k).unwrap();
                GraphOp::DeleteEdge(u, v)
            }
            _ => {
                let u = match self.hub {
                    Some(h) if rng.random_range(0..4u32) > 0 => h,
                    _ => rng.random_range(0..n),
                };
                GraphOp::InsertEdge(u, rng.random_range(0..n))
            }
        }
    }

    /// Runs `updates` random updates, in batches of 1 to 64 ops.
    fn stretch(&mut self, updates: usize, what: &str) {
        let mut done = 0;
        while done < updates {
            let len = self.rng.random_range(1..=64usize).min(updates - done);
            let ops: Vec<GraphOp> = (0..len).map(|_| self.random_op()).collect();
            self.apply(&ops, what);
            done += len;
        }
    }

    /// Compares a block of summary reads, then settles the UFO engine and
    /// checks the invariants of both layers.
    fn reads(&mut self, what: &str) {
        let n = self.ufo.len();
        for _ in 0..self.rng.random_range(1..=8) {
            let (u, v) = (self.rng.random_range(0..n), self.rng.random_range(0..n));
            match self.rng.random_range(0..3u32) {
                0 => assert_eq!(
                    self.ufo.component_size(u),
                    self.naive.component_size(u),
                    "{what}: component_size({u})"
                ),
                1 => assert_eq!(
                    self.ufo.try_component_agg(u),
                    self.naive.try_component_agg(u),
                    "{what}: component_agg({u})"
                ),
                _ => assert_eq!(
                    self.ufo.try_path_agg(u, v),
                    self.naive.try_path_agg(u, v),
                    "{what}: path_agg({u}, {v})"
                ),
            }
        }
        let forest = self.ufo.backend_mut().engine_mut();
        forest.settle();
        forest.check_invariants().expect(what);
        self.ufo.check_invariants().expect(what);
    }

    /// Alternates update stretches and read blocks: one stretch in four is
    /// read-free for 1 000 to 1 500 updates, the rest 1 to 64 long.
    fn run(&mut self, updates: usize, label: &str) {
        let mut done = 0;
        let mut round = 0;
        while done < updates {
            let len = if self.rng.random_range(0..4u32) == 0 {
                self.rng.random_range(1000..=1500)
            } else {
                self.rng.random_range(1..=64)
            };
            let what = format!("{label} round {round} after {done} updates");
            self.stretch(len, &what);
            self.reads(&what);
            done += len;
            round += 1;
        }
    }
}

fn random_graph_streams<X: Extent>() {
    for seed in 0..3u64 {
        let mut pair = Pair::<X>::new(160, 0xdefe + seed, None);
        pair.run(6000, &format!("random seed {seed}"));
    }
}

fn star_hub_streams<X: Extent>() {
    for seed in 0..2u64 {
        let mut pair = Pair::<X>::new(HUB + 1, 0x57a + seed, Some(0));
        let star: Vec<GraphOp> = (1..=HUB).map(|v| GraphOp::InsertEdge(0, v)).collect();
        pair.apply(&star, "star build");
        pair.run(5000, &format!("star seed {seed}"));
    }
}

fn dandelion_hub_streams<X: Extent>() {
    let stem = 40;
    let hub = stem - 1;
    let mut pair = Pair::<X>::new(stem + HUB, 0xda2d, Some(hub));
    let mut build: Vec<GraphOp> = (0..hub).map(|i| GraphOp::InsertEdge(i, i + 1)).collect();
    build.extend((stem..stem + HUB).map(|v| GraphOp::InsertEdge(hub, v)));
    pair.apply(&build, "dandelion build");
    pair.run(5000, "dandelion");
}

#[test]
fn random_graph_streams_match_the_oracle() {
    random_graph_streams::<Core>();
    random_graph_streams::<Extents>();
}

#[test]
fn star_hub_streams_match_the_oracle() {
    star_hub_streams::<Core>();
    star_hub_streams::<Extents>();
}

#[test]
fn dandelion_hub_streams_match_the_oracle() {
    dandelion_hub_streams::<Core>();
    dandelion_hub_streams::<Extents>();
}
