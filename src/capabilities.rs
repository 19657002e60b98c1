//! The operation/feature matrix of Table 1, generated from the structures
//! this repository actually implements — extended with the general-graph
//! column the connectivity subsystem opened.

/// The capabilities of one dynamic-tree structure (one row of Table 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capability {
    /// Structure name as used in the paper's tables.
    pub name: &'static str,
    /// Asymptotic sequential update cost (as proven in the paper).
    pub update_cost: &'static str,
    /// Whether the input must be ternarized first.
    pub ternarized: bool,
    /// Whether batch-parallel updates are supported.
    pub parallel_updates: bool,
    /// Whether read-only queries can run in parallel.
    pub parallel_queries: bool,
    /// Subtree queries supported.
    pub subtree_queries: bool,
    /// Path queries supported.
    pub path_queries: bool,
    /// Non-local queries (diameter, nearest marked vertex, ...) supported.
    pub non_local_queries: bool,
    /// Whether the structure can serve as the spanning-forest backend of the
    /// general-graph connectivity engine (`dyntree_connectivity`).
    pub general_graphs: bool,
    /// Whether weighted path aggregates (`Agg<M>` over any commutative
    /// monoid) are answered, and at what cost: `true` only for exact
    /// polylog-per-query support.
    pub weighted_path: bool,
    /// Whether weighted subtree/component aggregates are answered exactly.
    pub weighted_subtree: bool,
    /// Whether bulk *path* re-weighting (`PathApply`, a lazy `Action` tag
    /// pushed down on access — DESIGN.md §13) is O(log n) per op.
    pub lazy_path_update: bool,
    /// Whether bulk *component* re-weighting (`ComponentApply`) is
    /// O(log n) per op.
    pub lazy_component_update: bool,
}

impl Capability {
    /// The `weighted_aggregates` cell of Table 1, generated from the row's
    /// weighted capabilities (all structures share the same `Agg<M>` monoid
    /// API; this records which query families each answers exactly and
    /// fast).
    pub fn weighted_aggregates(&self) -> &'static str {
        match (self.weighted_path, self.weighted_subtree) {
            (true, true) => "path+subtree",
            (true, false) => "path",
            (false, true) => "subtree",
            (false, false) => "-",
        }
    }

    /// The `LazyAction` cell of Table 1: which bulk-update families the
    /// structure applies lazily (pending-action tags, DESIGN.md §13).
    /// Structures without a lazy-tag channel decline the ops with a typed
    /// `UnsupportedQuery` instead of faking them slowly.
    pub fn lazy_actions(&self) -> &'static str {
        match (self.lazy_path_update, self.lazy_component_update) {
            (true, true) => "path+component",
            (true, false) => "path",
            (false, true) => "component",
            (false, false) => "-",
        }
    }
}

/// Returns one row per structure implemented in this repository, mirroring
/// Table 1 of the paper plus the connectivity engine's row.
pub fn capability_matrix() -> Vec<Capability> {
    vec![
        Capability {
            name: "Link-cut tree",
            update_cost: "O(min{log n, D^2}) amortized",
            ternarized: false,
            parallel_updates: false,
            parallel_queries: false,
            subtree_queries: false,
            path_queries: true,
            non_local_queries: false,
            general_graphs: true,
            weighted_path: true,
            lazy_path_update: true,
            lazy_component_update: false,
            weighted_subtree: false,
        },
        Capability {
            name: "Euler tour tree",
            update_cost: "O(log n)",
            ternarized: false,
            parallel_updates: true,
            parallel_queries: false,
            subtree_queries: true,
            path_queries: false,
            non_local_queries: false,
            general_graphs: true,
            // path aggregates exist but only as an O(component) walk
            weighted_path: false,
            lazy_path_update: false,
            lazy_component_update: true,
            weighted_subtree: true,
        },
        Capability {
            name: "Topology tree",
            update_cost: "O(log n)",
            ternarized: true,
            parallel_updates: true,
            parallel_queries: true,
            subtree_queries: true,
            path_queries: true,
            non_local_queries: true,
            // not a connectivity-engine backend: it would have to decline
            // path aggregates, and the engine races only the other forests
            general_graphs: false,
            // exact only for interior degree ≤ 3 (ternarization caveat)
            weighted_path: false,
            lazy_path_update: false,
            lazy_component_update: false,
            weighted_subtree: true,
        },
        Capability {
            name: "UFO tree",
            update_cost: "O(min{log n, D})",
            ternarized: false,
            parallel_updates: true,
            parallel_queries: true,
            subtree_queries: true,
            path_queries: true,
            non_local_queries: true,
            general_graphs: true,
            weighted_path: true,
            lazy_path_update: false,
            lazy_component_update: false,
            weighted_subtree: true,
        },
        Capability {
            name: "HDT connectivity",
            update_cost: "O(log^2 n) amortized",
            ternarized: false,
            // insert pre-passes, delete classification and per-component
            // replacement searches run on the pool, but backend links/cuts
            // and the searches within one component stay sequential
            parallel_updates: false,
            parallel_queries: false,
            subtree_queries: false,
            path_queries: false,
            non_local_queries: false,
            general_graphs: true,
            // surfaced from the backend: tree-path and component aggregates
            weighted_path: true,
            lazy_path_update: true,
            lazy_component_update: true,
            weighted_subtree: true,
        },
    ]
}

/// Renders the capability matrix as an aligned text table (used by the
/// `table1` benchmark binary).
pub fn render_matrix() -> String {
    let rows = capability_matrix();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<17} {:<30} {:>6} {:>9} {:>9} {:>8} {:>6} {:>9} {:>8} {:>13} {:>15}\n",
        "Structure",
        "Update cost",
        "Ternar",
        "ParUpd",
        "ParQry",
        "Subtree",
        "Path",
        "Non-local",
        "GenGraph",
        "WeightedAgg",
        "LazyAction"
    ));
    for r in rows {
        let weighted = r.weighted_aggregates();
        let lazy = r.lazy_actions();
        out.push_str(&format!(
            "{:<17} {:<30} {:>6} {:>9} {:>9} {:>8} {:>6} {:>9} {:>8} {:>13} {:>15}\n",
            r.name,
            r.update_cost,
            tick(r.ternarized),
            tick(r.parallel_updates),
            tick(r.parallel_queries),
            tick(r.subtree_queries),
            tick(r.path_queries),
            tick(r.non_local_queries),
            tick(r.general_graphs),
            weighted,
            lazy,
        ));
    }
    out
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_table1_shape() {
        let rows = capability_matrix();
        assert_eq!(rows.len(), 5);
        let ufo = rows.iter().find(|r| r.name == "UFO tree").unwrap();
        assert!(ufo.path_queries && ufo.subtree_queries && ufo.non_local_queries);
        assert!(!ufo.ternarized);
        let lct = rows.iter().find(|r| r.name == "Link-cut tree").unwrap();
        assert!(lct.path_queries && !lct.subtree_queries);
        let hdt = rows.iter().find(|r| r.name == "HDT connectivity").unwrap();
        assert!(hdt.general_graphs && !hdt.path_queries);
        assert!(
            rows.iter()
                .all(|r| r.general_graphs == (r.name != "Topology tree")),
            "every forest but the topology tree backs the connectivity engine"
        );
        let render = render_matrix();
        assert!(render.contains("UFO tree"));
        assert!(render.contains("HDT connectivity"));
        assert!(render.contains("WeightedAgg"));
        assert!(render.lines().count() >= 6);
    }

    #[test]
    fn weighted_aggregates_column_matches_the_shared_agg_surface() {
        let rows = capability_matrix();
        let ufo = rows.iter().find(|r| r.name == "UFO tree").unwrap();
        assert_eq!(ufo.weighted_aggregates(), "path+subtree");
        let lct = rows.iter().find(|r| r.name == "Link-cut tree").unwrap();
        assert_eq!(lct.weighted_aggregates(), "path");
        let ett = rows.iter().find(|r| r.name == "Euler tour tree").unwrap();
        assert_eq!(ett.weighted_aggregates(), "subtree");
        let topo = rows.iter().find(|r| r.name == "Topology tree").unwrap();
        assert_eq!(topo.weighted_aggregates(), "subtree");
        let hdt = rows.iter().find(|r| r.name == "HDT connectivity").unwrap();
        assert_eq!(hdt.weighted_aggregates(), "path+subtree");
    }

    #[test]
    fn lazy_action_column_matches_the_backend_support_consts() {
        use dyntree_connectivity::SpanningBackend;
        let rows = capability_matrix();
        let cell = |name: &str| rows.iter().find(|r| r.name == name).unwrap().lazy_actions();
        assert_eq!(cell("Link-cut tree"), "path");
        assert_eq!(cell("Euler tour tree"), "component");
        assert_eq!(cell("Topology tree"), "-");
        assert_eq!(cell("UFO tree"), "-");
        // the engine row aggregates what its backends can do
        assert_eq!(cell("HDT connectivity"), "path+component");
        // the table is generated, but the flags must agree with the real
        // backend consts the engine dispatches on
        let flags = |name: &str| {
            let r = rows.iter().find(|r| r.name == name).unwrap();
            (r.lazy_path_update, r.lazy_component_update)
        };
        assert_eq!(
            flags("Link-cut tree"),
            (
                <dyntree_linkcut::LinkCutForest>::SUPPORTS_PATH_APPLY,
                <dyntree_linkcut::LinkCutForest>::SUPPORTS_COMPONENT_APPLY,
            )
        );
        assert_eq!(
            flags("Euler tour tree"),
            (
                <dyntree_euler::EulerTourForest<dyntree_seqs::TreapSequence>>::SUPPORTS_PATH_APPLY,
                <dyntree_euler::EulerTourForest<dyntree_seqs::TreapSequence>>::SUPPORTS_COMPONENT_APPLY,
            )
        );
        assert_eq!(
            flags("UFO tree"),
            (
                <ufo_forest::UfoForest>::SUPPORTS_PATH_APPLY,
                <ufo_forest::UfoForest>::SUPPORTS_COMPONENT_APPLY,
            )
        );
        let render = render_matrix();
        assert!(render.contains("LazyAction"));
        assert!(render.contains("path+component"));
    }
}
