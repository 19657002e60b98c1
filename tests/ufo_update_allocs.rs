//! Steady-state UFO updates allocate (almost) nothing: a freed cluster
//! slot hands its adjacency and child buffers to its next tenant, and the
//! engine's scratch buffers are reused across updates (DESIGN.md §2).
//!
//! A counting global allocator tallies the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) made by the test thread while it
//! runs random cut+relink pairs on a random recursive tree.  The count is
//! deterministic for a seed, so the bound checks the mechanism without
//! timing anything.

mod counting_alloc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufo_trees::UfoForest;

use counting_alloc::allocs;

const N: usize = 8192;
const WARMUP: usize = 2000;
const MEASURED: usize = 2000;
/// Average heap allocations allowed per cut+relink pair.  Rebuilding both
/// endpoints' ancestor chains with fresh buffers makes about 125.
const MAX_ALLOCS_PER_PAIR: u64 = 4;

/// Cuts a random tree edge and relinks the two sides: `x` and `y` are
/// random vertices, and when both fall on one side `y` is replaced by the
/// cut edge's endpoint on the other side.
fn cut_relink(f: &mut UfoForest, edges: &mut [(usize, usize)], rng: &mut StdRng) {
    let i = rng.random_range(0..edges.len());
    let (u, v) = edges[i];
    assert!(f.cut(u, v));
    let x = rng.random_range(0..N);
    let mut y = rng.random_range(0..N);
    if f.connected(x, y) {
        y = if f.connected(x, u) { v } else { u };
    }
    assert!(f.link(x, y));
    edges[i] = (x, y);
}

#[test]
fn steady_state_cut_relink_barely_allocates() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut edges: Vec<(usize, usize)> = (1..N).map(|v| (rng.random_range(0..v), v)).collect();
    let mut f: UfoForest = UfoForest::from_edges(N, &edges);
    assert_eq!(f.num_edges(), N - 1);

    for _ in 0..WARMUP {
        cut_relink(&mut f, &mut edges, &mut rng);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        cut_relink(&mut f, &mut edges, &mut rng);
    }
    let made = allocs() - before;
    assert!(
        made <= MAX_ALLOCS_PER_PAIR * MEASURED as u64,
        "{MEASURED} cut+relink pairs made {made} heap allocations \
         ({:.1} per pair, at most {MAX_ALLOCS_PER_PAIR} allowed)",
        made as f64 / MEASURED as f64
    );

    assert_eq!(f.num_edges(), N - 1);
    assert!(f.connected(0, N - 1));
    f.engine().check_invariants().unwrap();
}
