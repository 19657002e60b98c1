//! Differential tests for UFO trees on high-fan-out shapes: a star, a
//! dandelion, a 64-ary tree and a two-hub double star, each hub carrying
//! many fold blocks worth of leaves.  Every operation is mirrored on the
//! naive oracle, every query family the forest's extent policy offers is
//! compared after every operation, and the engine's invariants (stored
//! summaries against a from-scratch fold, slot back-pointers, hub at slot 0,
//! cached fold blocks) are checked periodically.  Each shape runs the same
//! seeded stream twice: under the core policy (path, component and subtree
//! queries) and under the extent policy (diameter and nearest-marked too).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufo_trees::ufo::Core;
use ufo_trees::{Extent, Extents, NaiveForest, SumMinMax, UfoForest};

/// Leaves per hub: eight 32-child fold blocks and a partial ninth.
const HUB: usize = 8 * 32 + 7;
/// Operations per shape.
const OPS: usize = 240;
/// Operations between invariant checks.
const CHECK_EVERY: usize = 16;

/// One shape: its size, its edges and its hub vertices.
struct Shape {
    n: usize,
    edges: Vec<(usize, usize)>,
    hubs: Vec<usize>,
    /// Path edges whose cut splits off a long part (the dandelion stem).
    stem: Vec<(usize, usize)>,
}

fn star() -> Shape {
    Shape {
        n: HUB + 1,
        edges: (1..=HUB).map(|v| (0, v)).collect(),
        hubs: vec![0],
        stem: Vec::new(),
    }
}

fn dandelion() -> Shape {
    let stem_len = 40;
    let hub = stem_len - 1;
    let mut edges: Vec<(usize, usize)> = (0..hub).map(|i| (i, i + 1)).collect();
    let stem = edges.clone();
    edges.extend((stem_len..stem_len + HUB).map(|v| (hub, v)));
    Shape {
        n: stem_len + HUB,
        edges,
        hubs: vec![hub],
        stem,
    }
}

fn kary64() -> Shape {
    let n = 1 + 64 + 64 * 64 / 8;
    let edges: Vec<(usize, usize)> = (1..n).map(|v| ((v - 1) / 64, v)).collect();
    Shape {
        n,
        edges,
        hubs: (0..=(n - 2) / 64).collect(),
        stem: Vec::new(),
    }
}

fn double_star() -> Shape {
    let (a, b) = (0, 1);
    let mut edges = vec![(a, b)];
    edges.extend((2..2 + HUB).map(|v| (a, v)));
    edges.extend((2 + HUB..2 + 2 * HUB).map(|v| (b, v)));
    Shape {
        n: 2 + 2 * HUB,
        edges,
        hubs: vec![a, b],
        stem: vec![(a, b)],
    }
}

/// The oracle checks an extent policy adds to the core ones.
trait Checked: Extent {
    /// Mirrors a mark on the forest (the oracle is marked by the caller).
    fn set_marked(ufo: &mut UfoForest<SumMinMax, Self>, v: usize, m: bool);
    /// Compares the extent queries at `u`.
    fn compare(ufo: &UfoForest<SumMinMax, Self>, naive: &NaiveForest, u: usize, what: &str);
}

impl Checked for Core {
    fn set_marked(_: &mut UfoForest<SumMinMax, Core>, _: usize, _: bool) {}
    fn compare(_: &UfoForest<SumMinMax, Core>, _: &NaiveForest, _: usize, _: &str) {}
}

impl Checked for Extents {
    fn set_marked(ufo: &mut UfoForest<SumMinMax, Extents>, v: usize, m: bool) {
        ufo.set_marked(v, m);
    }

    fn compare(ufo: &UfoForest<SumMinMax, Extents>, naive: &NaiveForest, u: usize, what: &str) {
        assert_eq!(
            ufo.component_diameter(u),
            naive.component_diameter(u) as u64,
            "{what}: component_diameter({u})"
        );
        assert_eq!(
            ufo.nearest_marked_distance(u),
            naive.nearest_marked_distance(u).map(|d| d as u64),
            "{what}: nearest_marked_distance({u})"
        );
    }
}

struct Pair<X: Checked> {
    naive: NaiveForest,
    ufo: UfoForest<SumMinMax, X>,
}

impl<X: Checked> Pair<X> {
    fn link(&mut self, u: usize, v: usize, what: &str) {
        let want = self.naive.link(u, v);
        assert_eq!(self.ufo.link(u, v), want, "{what}: link({u},{v})");
    }

    fn cut(&mut self, u: usize, v: usize, what: &str) {
        let want = self.naive.cut(u, v);
        assert_eq!(self.ufo.cut(u, v), want, "{what}: cut({u},{v})");
    }

    /// Compares every query family at the hubs and six random vertices.
    fn compare(&self, shape: &Shape, rng: &mut StdRng, what: &str) {
        let (naive, ufo) = (&self.naive, &self.ufo);
        let mut points: Vec<usize> = shape.hubs.clone();
        points.extend((0..6).map(|_| rng.random_range(0..shape.n)));
        for &u in &points {
            let v = rng.random_range(0..shape.n);
            assert_eq!(
                ufo.path_sum(u, v),
                naive.path_sum(u, v),
                "{what}: path_sum({u},{v})"
            );
            assert_eq!(
                ufo.path_max(u, v),
                naive.path_max(u, v),
                "{what}: path_max({u},{v})"
            );
            assert_eq!(
                ufo.component_size(u),
                naive.component_size(u) as u64,
                "{what}: component_size({u})"
            );
            X::compare(ufo, naive, u, what);
            // a subtree across one of u's edges, when it has one
            if let Some(&(a, b)) = shape
                .edges
                .iter()
                .find(|&&(a, b)| (a == u || b == u) && naive.has_edge(a, b))
            {
                let p = if a == u { b } else { a };
                assert_eq!(
                    ufo.subtree_sum(u, p),
                    naive.subtree_sum(u, p),
                    "{what}: subtree_sum({u},{p})"
                );
                assert_eq!(
                    ufo.subtree_sum(p, u),
                    naive.subtree_sum(p, u),
                    "{what}: subtree_sum({p},{u})"
                );
            }
        }
    }
}

fn run<X: Checked>(shape: Shape, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pair = Pair::<X> {
        naive: NaiveForest::new(shape.n),
        ufo: UfoForest::new(shape.n),
    };
    for v in 0..shape.n {
        let w = rng.random_range(-100..100);
        pair.naive.set_weight(v, w);
        pair.ufo.set_weight(v, w);
    }
    assert_eq!(pair.ufo.batch_link(&shape.edges), shape.edges.len());
    for &(u, v) in &shape.edges {
        assert!(pair.naive.link(u, v));
    }
    pair.ufo.engine().check_invariants().expect("after build");

    for step in 0..OPS {
        let what = format!("seed {seed} step {step}");
        match rng.random_range(0..6) {
            0 => {
                // a random cut batch, then the same edges relinked
                let k = rng.random_range(1..24);
                let batch: Vec<(usize, usize)> = (0..k)
                    .map(|_| shape.edges[rng.random_range(0..shape.edges.len())])
                    .collect();
                let cut = pair.ufo.batch_cut(&batch);
                let mut want = 0;
                for &(u, v) in &batch {
                    want += usize::from(pair.naive.cut(u, v));
                }
                assert_eq!(cut, want, "{what}: batch_cut");
                pair.compare(&shape, &mut rng, &what);
                let linked = pair.ufo.batch_link(&batch);
                let mut want = 0;
                for &(u, v) in &batch {
                    want += usize::from(pair.naive.link(u, v));
                }
                assert_eq!(linked, want, "{what}: batch_link");
            }
            1 => {
                // move a leaf to another hub (or back to its own)
                let (h, leaf) = shape.edges[rng.random_range(0..shape.edges.len())];
                let to = shape.hubs[rng.random_range(0..shape.hubs.len())];
                pair.cut(h, leaf, &what);
                pair.compare(&shape, &mut rng, &what);
                pair.link(leaf, to, &what);
                if !pair.naive.has_edge(leaf, to) {
                    pair.link(h, leaf, &what);
                }
            }
            2 if !shape.stem.is_empty() => {
                // cut the stem (or the hub-hub edge) and relink it
                let (u, v) = shape.stem[rng.random_range(0..shape.stem.len())];
                pair.cut(u, v, &what);
                pair.compare(&shape, &mut rng, &what);
                pair.link(u, v, &what);
            }
            3 => {
                let v = if rng.random_bool(0.5) {
                    shape.hubs[rng.random_range(0..shape.hubs.len())]
                } else {
                    rng.random_range(0..shape.n)
                };
                let w = rng.random_range(-1000..1000);
                pair.naive.set_weight(v, w);
                pair.ufo.set_weight(v, w);
            }
            4 => {
                let v = if rng.random_bool(0.3) {
                    shape.hubs[rng.random_range(0..shape.hubs.len())]
                } else {
                    rng.random_range(0..shape.n)
                };
                let m = rng.random_bool(0.4);
                pair.naive.set_marked(v, m);
                X::set_marked(&mut pair.ufo, v, m);
            }
            _ => {
                // a single cut and relink at a random edge
                let (u, v) = shape.edges[rng.random_range(0..shape.edges.len())];
                pair.cut(u, v, &what);
                pair.link(v, u, &what);
            }
        }
        pair.compare(&shape, &mut rng, &what);
        if step % CHECK_EVERY == 0 {
            pair.ufo.engine().check_invariants().expect(&what);
        }
    }
    pair.ufo.engine().check_invariants().expect("at the end");
}

#[test]
fn star_matches_oracle() {
    run::<Core>(star(), 1);
    run::<Extents>(star(), 1);
}

#[test]
fn dandelion_matches_oracle() {
    run::<Core>(dandelion(), 2);
    run::<Extents>(dandelion(), 2);
}

#[test]
fn kary64_matches_oracle() {
    run::<Core>(kary64(), 3);
    run::<Extents>(kary64(), 3);
}

#[test]
fn double_star_matches_oracle() {
    run::<Core>(double_star(), 4);
    run::<Extents>(double_star(), 4);
}
