//! Quickstart: build a UFO forest, run updates and every kind of query.
//!
//! The forest names the extent policy (`UfoForest<SumMinMax, Extents>`),
//! because the diameter and nearest-marked queries need it; the default
//! `UfoForest` answers every other query here.  Each printed answer is
//! checked against the value worked out by hand from the tree below, so a
//! clean exit is itself a test.
//!
//! Run with: `cargo run --release --example quickstart`

use ufo_trees::{Extents, SumMinMax, UfoForest};

fn main() {
    // A small corporate network: routers 0..10, weighted by load.
    let mut forest: UfoForest<SumMinMax, Extents> = UfoForest::new(10);
    for v in 0..10 {
        forest.set_weight(v, (v as i64) * 10);
    }

    // Build a tree: a backbone path 0-1-2-3 with leaves hanging off it.
    //
    //     4   5       6
    //      \ /       |
    //   0 - 1 ------ 2 - 3 - 7 - 8
    //                        |
    //                        9
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (1, 4),
        (1, 5),
        (2, 6),
        (3, 7),
        (7, 8),
        (7, 9),
    ];
    for (u, v) in edges {
        assert!(forest.link(u, v), "link ({u},{v}) failed");
    }

    println!("vertices: {}, edges: {}", forest.len(), forest.num_edges());
    assert_eq!((forest.len(), forest.num_edges()), (10, 9));
    println!("connected(4, 9) = {}", forest.connected(4, 9));
    assert!(forest.connected(4, 9));
    // the path 4-1-2-3-7-9
    println!("path 4 -> 9: sum of loads   = {:?}", forest.path_sum(4, 9));
    assert_eq!(forest.path_sum(4, 9), Some(40 + 10 + 20 + 30 + 70 + 90));
    println!("path 4 -> 9: max load       = {:?}", forest.path_max(4, 9));
    assert_eq!(forest.path_max(4, 9), Some(90));
    println!(
        "path 4 -> 9: hops           = {:?}",
        forest.path_length(4, 9)
    );
    assert_eq!(forest.path_length(4, 9), Some(5));
    // {7, 8, 9}
    println!(
        "subtree under 7 (away from 3): size = {:?}",
        forest.subtree_size(7, 3)
    );
    assert_eq!(forest.subtree_size(7, 3), Some(3));
    // 4-1-2-3-7-8 (or from 0 or 5, or to 9): five hops
    println!(
        "component diameter          = {}",
        forest.component_diameter(0)
    );
    assert_eq!(forest.component_diameter(0), 5);

    // Mark two routers as gateways and ask for the nearest one: 6-2-1-0
    // is three hops, 6-2-3-7-9 four.
    forest.set_marked(0, true);
    forest.set_marked(9, true);
    println!(
        "nearest gateway from 6      = {:?} hops",
        forest.nearest_marked_distance(6)
    );
    assert_eq!(forest.nearest_marked_distance(6), Some(3));

    // Dynamic updates: take the backbone link (1, 2) down.
    assert!(forest.cut(1, 2));
    println!(
        "after cutting (1,2): connected(4, 9) = {}",
        forest.connected(4, 9)
    );
    assert!(!forest.connected(4, 9));
    // {0, 1, 4, 5}
    println!(
        "component of 4 now has {} routers",
        forest.component_size(4)
    );
    assert_eq!(forest.component_size(4), 4);

    // Batch-dynamic interface: reconnect and extend in one batch.
    let inserted = forest.batch_link(&[(1, 2), (5, 6)]);
    println!(
        "batch inserted {} edges (1 rejected: it would close a cycle)",
        inserted
    );
    assert_eq!(inserted, 1);
    println!("connected(4, 9) again = {}", forest.connected(4, 9));
    assert!(forest.connected(4, 9));
    forest
        .engine()
        .check_invariants()
        .expect("quickstart forest");
}
