//! Figure 5: sequential update speed (insert all edges then delete all edges,
//! both in random order) across synthetic trees and real-world-like spanning
//! forests, for every sequential structure.
use dyntree_bench::{build_destroy_time, default_n, Structure};
use dyntree_workloads::{bfs_forest, power_law_graph, ris_forest, road_grid_graph, SyntheticTree};

fn main() {
    let n = default_n();
    println!(
        "Figure 5 — sequential update speed, n = {} (scale = {})\n",
        n,
        dyntree_bench::scale()
    );
    println!("-- synthetic trees --");
    for family in SyntheticTree::ALL {
        // star-like inputs are scaled down: every cut scans the hub's
        // adjacency list (`remove_adj`), so bulk deletions at very high
        // fan-out are still quadratic in the hub degree (EXPERIMENTS.md).
        let n_eff = match family {
            SyntheticTree::Star | SyntheticTree::Dandelion => n.min(20_000),
            _ => n,
        };
        let forest = family.generate(n_eff, 7);
        let cells: Vec<(String, f64)> = Structure::ALL
            .iter()
            .map(|s| {
                let t = build_destroy_time(*s, &forest, 13);
                (format!("{:?}", s), t)
            })
            .collect();
        dyntree_bench::print_row(family.label(), &cells);
    }
    println!("\n-- real-world stand-ins (BFS and RIS spanning forests) --");
    let side = (n as f64).sqrt() as usize;
    let graphs = vec![
        road_grid_graph(side, 1),
        power_law_graph(14.min(((n as f64).log2()) as u32), 8, 2),
    ];
    for g in &graphs {
        for (label, forest) in [
            (format!("{}-BFS", g.name), bfs_forest(g, 3)),
            (format!("{}-RIS", g.name), ris_forest(g, 3)),
        ] {
            let cells: Vec<(String, f64)> = Structure::ALL
                .iter()
                .map(|s| (format!("{:?}", s), build_destroy_time(*s, &forest, 13)))
                .collect();
            dyntree_bench::print_row(&label, &cells);
        }
    }
}
