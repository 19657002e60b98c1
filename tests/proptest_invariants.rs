//! Property-based tests: arbitrary operation sequences preserve the
//! contraction-forest invariants and agree with the oracle, and arbitrary
//! batch programs preserve the connectivity engine's spanning-forest
//! invariant.

use proptest::prelude::*;
use ufo_trees::connectivity::{DynConnectivity, GraphOp};
use ufo_trees::{LinkCutForest, NaiveForest, UfoForest};

/// A randomly generated operation on a small vertex universe.
#[derive(Clone, Debug)]
enum Op {
    Link(usize, usize),
    Cut(usize, usize),
    SetWeight(usize, i64),
    QueryPath(usize, usize),
    QuerySubtree(usize, usize),
}

/// Object-safe probe over [`DynConnectivity`] engines with different
/// backends, so one proptest can sweep them uniformly.
trait ConnectivityProbe {
    fn spanning_size(&self) -> usize;
    fn components(&self) -> usize;
    fn invariants_ok(&mut self) -> bool;
}

impl<B: ufo_trees::SpanningBackend> ConnectivityProbe for DynConnectivity<B> {
    fn spanning_size(&self) -> usize {
        self.spanning_forest_size()
    }
    fn components(&self) -> usize {
        self.component_count()
    }
    fn invariants_ok(&mut self) -> bool {
        self.check_invariants().is_ok()
    }
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, 0..n).prop_map(|(u, v)| Op::Link(u, v)),
        (0..n, 0..n).prop_map(|(u, v)| Op::Cut(u, v)),
        (0..n, -100i64..100).prop_map(|(v, w)| Op::SetWeight(v, w)),
        (0..n, 0..n).prop_map(|(u, v)| Op::QueryPath(u, v)),
        (0..n, 0..n).prop_map(|(u, v)| Op::QuerySubtree(u, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ufo_agrees_with_oracle_on_arbitrary_programs(
        ops in proptest::collection::vec(op_strategy(12), 1..120)
    ) {
        let n = 12;
        let mut naive: NaiveForest = NaiveForest::new(n);
        let mut ufo: UfoForest = UfoForest::new(n);
        let mut lct: LinkCutForest = LinkCutForest::new(n);
        for op in ops {
            match op {
                Op::Link(u, v) => {
                    let e = naive.link(u, v);
                    prop_assert_eq!(ufo.link(u, v), e);
                    prop_assert_eq!(lct.link(u, v), e);
                }
                Op::Cut(u, v) => {
                    let e = naive.cut(u, v);
                    prop_assert_eq!(ufo.cut(u, v), e);
                    prop_assert_eq!(lct.cut(u, v), e);
                }
                Op::SetWeight(v, w) => {
                    naive.set_weight(v, w);
                    ufo.set_weight(v, w);
                    lct.set_weight(v, w);
                }
                Op::QueryPath(u, v) => {
                    prop_assert_eq!(ufo.path_sum(u, v), naive.path_sum(u, v));
                    prop_assert_eq!(ufo.path_min(u, v), naive.path_min(u, v));
                    prop_assert_eq!(lct.path_sum(u, v), naive.path_sum(u, v));
                }
                Op::QuerySubtree(v, p) => {
                    prop_assert_eq!(ufo.subtree_sum(v, p), naive.subtree_sum(v, p));
                    prop_assert_eq!(
                        ufo.subtree_size(v, p),
                        naive.subtree_size(v, p).map(|x| x as u64)
                    );
                }
            }
        }
        prop_assert!(ufo.engine().check_invariants().is_ok());
    }

    #[test]
    fn ufo_hierarchy_height_is_bounded(
        edges in proptest::collection::vec((0usize..64, 0usize..64), 0..63)
    ) {
        let n = 64;
        let mut ufo: UfoForest = UfoForest::new(n);
        let mut inserted = 0u32;
        for (u, v) in edges {
            if ufo.link(u, v) {
                inserted += 1;
            }
        }
        // Theorem 4.1: height is O(log n); log_{6/5}(64) ≈ 23, allow slack.
        for v in 0..n {
            prop_assert!(ufo.engine().height(v) <= 40, "height {} too large", ufo.engine().height(v));
        }
        prop_assert!(ufo.engine().check_invariants().is_ok());
        prop_assert_eq!(ufo.num_edges() as u32, inserted);
    }

    #[test]
    fn connectivity_spanning_forest_matches_component_count(
        batches in proptest::collection::vec(
            (proptest::collection::vec((0usize..24, 0usize..24), 1..40), 0usize..2),
            1..12
        )
    ) {
        // Arbitrary batch programs: each entry is a batch of edges plus a
        // discriminant choosing insert (0) or delete (1).  After *every*
        // batch, the engine must satisfy
        //     spanning_forest_size == n - component_count
        // and the spanning forest must actually be a forest (engine
        // invariants), for a UFO backend and the naive oracle backend alike.
        let n = 24;
        let mut ufo: DynConnectivity<UfoForest> = DynConnectivity::new(n);
        let mut naive: DynConnectivity<NaiveForest> = DynConnectivity::new(n);
        for (batch, kind) in batches {
            let ops: Vec<GraphOp> = batch
                .iter()
                .map(|&(u, v)| if kind == 0 { GraphOp::InsertEdge(u, v) } else { GraphOp::DeleteEdge(u, v) })
                .collect();
            prop_assert_eq!(ufo.apply(&ops).applied, naive.apply(&ops).applied);
            for g in [&mut ufo as &mut dyn ConnectivityProbe, &mut naive] {
                prop_assert_eq!(
                    g.spanning_size(),
                    n - g.components(),
                    "spanning forest size must equal n - component count"
                );
                prop_assert!(g.invariants_ok());
            }
            prop_assert_eq!(ufo.component_count(), naive.component_count());
            prop_assert_eq!(ufo.num_edges(), naive.num_edges());
        }
    }

    #[test]
    fn batch_and_sequential_builds_are_equivalent(
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
        batch in 1usize..16
    ) {
        let n = 40;
        let mut a: UfoForest = UfoForest::new(n);
        let mut b: UfoForest = UfoForest::new(n);
        for (u, v) in &edges {
            a.link(*u, *v);
        }
        for chunk in edges.chunks(batch) {
            b.batch_link(chunk);
        }
        prop_assert_eq!(a.num_edges(), b.num_edges());
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert_eq!(a.connected(u, v), b.connected(u, v));
            }
        }
    }
}
