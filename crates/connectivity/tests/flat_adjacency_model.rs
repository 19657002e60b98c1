//! Property tests for the flat sorted-array adjacency (`VertexAdj` /
//! `LevelAdjacency`) against an ordered-map model: a `BTreeMap`/`BTreeSet`
//! mirror of the same one-sided operations, which is exactly the structure
//! the flat arrays replaced (DESIGN.md §12).  The model's natural iteration
//! order *is* the canonical `(level, neighbour)` order the determinism
//! contract requires, so agreement here checks both the contents and the
//! order of every traversal the replacement search depends on.

use std::collections::{BTreeMap, BTreeSet};

use dyntree_connectivity::levels::VertexAdj;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Neighbour-id and level ranges kept small so collisions (same neighbour,
/// same level, duplicate non-tree entries) actually happen.
const W: usize = 12;
const L: usize = 5;

/// The BTreeMap model of one vertex's adjacency state.
#[derive(Default, Debug)]
struct Model {
    /// neighbour → level of the tree edge.
    tree: BTreeMap<usize, usize>,
    /// `(level, neighbour)` of every tree edge (the mirror).
    tree_by_level: BTreeSet<(usize, usize)>,
    /// `(level, neighbour)` multiset of non-tree entries (duplicates allowed
    /// by the one-sided push primitive).
    nontree: BTreeMap<(usize, usize), usize>,
}

impl Model {
    fn tree_insert(&mut self, w: usize, level: usize) {
        assert!(self.tree.insert(w, level).is_none());
        self.tree_by_level.insert((level, w));
    }

    fn tree_remove(&mut self, w: usize) -> Option<usize> {
        let level = self.tree.remove(&w)?;
        self.tree_by_level.remove(&(level, w));
        Some(level)
    }

    fn tree_set_level(&mut self, w: usize, level: usize) -> usize {
        let old = self.tree.insert(w, level).unwrap();
        self.tree_by_level.remove(&(old, w));
        self.tree_by_level.insert((level, w));
        old
    }

    fn nontree_push(&mut self, w: usize, level: usize) {
        *self.nontree.entry((level, w)).or_insert(0) += 1;
    }

    fn nontree_remove(&mut self, w: usize, level: usize) -> bool {
        match self.nontree.get_mut(&(level, w)) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.nontree.remove(&(level, w));
                }
                true
            }
            None => false,
        }
    }

    fn nontree_bucket(&self, level: usize) -> Vec<usize> {
        self.nontree
            .range((level, 0)..(level + 1, 0))
            .flat_map(|(&(_, w), &n)| std::iter::repeat_n(w, n))
            .collect()
    }

    fn nontree_take_bucket(&mut self, level: usize) -> Vec<usize> {
        let out = self.nontree_bucket(level);
        let keys: Vec<(usize, usize)> = self
            .nontree
            .range((level, 0)..(level + 1, 0))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.nontree.remove(&k);
        }
        out
    }

    fn nontree_set_bucket(&mut self, level: usize, neighbors: &[usize]) {
        self.nontree_take_bucket(level);
        for &w in neighbors {
            self.nontree_push(w, level);
        }
    }

    /// Checks every traversal of the flat structure against the model,
    /// including iteration order.
    fn assert_matches(&self, flat: &VertexAdj) -> Result<(), TestCaseError> {
        let tree: Vec<(usize, usize)> = flat.tree_neighbors().collect();
        let model_tree: Vec<(usize, usize)> = self.tree.iter().map(|(&w, &l)| (w, l)).collect();
        prop_assert_eq!(tree, model_tree, "tree_neighbors order/content");
        for w in 0..W {
            prop_assert_eq!(flat.tree_level(w), self.tree.get(&w).copied());
        }
        for level in 0..L + 1 {
            let at: Vec<usize> = flat.tree_neighbors_at(level).collect();
            let model_at: Vec<usize> = self
                .tree_by_level
                .range((level, 0)..(level + 1, 0))
                .map(|&(_, w)| w)
                .collect();
            prop_assert_eq!(at, model_at, "tree_neighbors_at({}) order", level);
            let from: Vec<(usize, usize)> = flat
                .tree_neighbors_from(level)
                .iter()
                .map(|&(l, w)| (l as usize, w as usize))
                .collect();
            let model_from: Vec<(usize, usize)> =
                self.tree_by_level.range((level, 0)..).copied().collect();
            prop_assert_eq!(from, model_from, "tree_neighbors_from({}) order", level);
            prop_assert_eq!(
                flat.nontree_neighbors_at(level),
                self.nontree_bucket(level),
                "nontree bucket {} order",
                level
            );
        }
        prop_assert_eq!(
            flat.nontree_degree(),
            self.nontree.values().sum::<usize>(),
            "nontree degree"
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_vertex_adjacency_equals_btreemap_model(
        ops in proptest::collection::vec((0usize..7, 0usize..W, 0usize..L, 0usize..4), 0..160),
    ) {
        let mut flat = VertexAdj::default();
        let mut model = Model::default();
        for (op, w, level, extra) in ops {
            match op {
                // insert a tree edge (skip if the neighbour already has one)
                0 => {
                    if !model.tree.contains_key(&w) {
                        flat.tree_insert_one(w, level);
                        model.tree_insert(w, level);
                    }
                }
                // remove a tree edge
                1 => {
                    prop_assert_eq!(flat.tree_remove_one(w), model.tree_remove(w));
                }
                // raise a tree edge's level (levels only ever increase)
                2 => {
                    if let Some(&old) = model.tree.get(&w) {
                        let target = old.max(level);
                        prop_assert_eq!(flat.tree_set_level_one(w, target),
                                        model.tree_set_level(w, target));
                    }
                }
                // push a non-tree entry (duplicates allowed)
                3 => {
                    flat.nontree_push_one(w, level);
                    model.nontree_push(w, level);
                }
                // remove one non-tree occurrence
                4 => {
                    prop_assert_eq!(flat.nontree_remove_one(w, level),
                                    model.nontree_remove(w, level));
                }
                // drain a whole bucket (ascending order must agree), appended
                // to a buffer that already holds `extra` stale entries — the
                // take must keep them, as the search's reused buffer relies on
                5 => {
                    let mut taken = vec![W; extra];
                    flat.nontree_take_bucket_one(level, &mut taken);
                    let mut want = vec![W; extra];
                    want.extend(model.nontree_take_bucket(level));
                    prop_assert_eq!(taken, want);
                }
                // replace a bucket with a kept subsequence of itself — the
                // side-drain writeback pattern (strictly ascending input)
                _ => {
                    let bucket = model.nontree_bucket(level);
                    if bucket.windows(2).all(|p| p[0] < p[1]) {
                        let kept: Vec<usize> = bucket
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| (i + extra) % 3 != 0)
                            .map(|(_, &w)| w)
                            .collect();
                        flat.nontree_set_bucket_one(level, &kept);
                        model.nontree_set_bucket(level, &kept);
                    }
                }
            }
            model.assert_matches(&flat)?;
        }
    }
}
