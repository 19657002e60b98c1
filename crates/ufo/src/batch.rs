//! Batch updates for UFO trees.
//!
//! The paper's Algorithm 4 processes a batch of `k` updates level by level
//! with `O(min(k log(1 + n/k), kD))` work and poly-logarithmic depth.  This
//! implementation keeps the *batch interface* only, and the batch path is
//! sequential: the batch is normalised (canonical orientation, self-loop
//! filtering, a sort and a dedup — [`normalize_batch`]) and every surviving
//! edge goes through the engine's sequential `link`/`cut`, which skip
//! cycle-closing, duplicate and missing edges.  Those calls only queue
//! summary work; the batch settles once at the end, so a cluster that
//! several updates of the batch touch is recomputed once.
//! `DESIGN.md` §4 records this deviation: the benchmark comparisons in
//! Figures 8, 9 and 16 run every batch structure through the same interface,
//! so the relative comparison is preserved, but the parallel speedup of the
//! restructuring phase is not reproduced.

use dyntree_primitives::ops::normalize_batch;

use crate::forest::UfoForest;
use crate::summary::{CommutativeMonoid, Extent};
use crate::Vertex;

impl<M: CommutativeMonoid, X: Extent> UfoForest<M, X> {
    /// Applies a batch of edge insertions.  Self loops, duplicates and edges
    /// that would close a cycle (within the batch or with existing edges) are
    /// skipped.  Returns the number of edges inserted.
    pub fn batch_link(&mut self, edges: &[(Vertex, Vertex)]) -> usize {
        let cleaned = normalize_batch(edges);
        let mut applied = 0;
        let engine = self.engine_mut();
        for (u, v) in cleaned {
            if engine.link(u, v) {
                applied += 1;
            }
        }
        engine.settle();
        applied
    }

    /// Applies a batch of edge deletions.  Self loops, duplicates and absent
    /// edges are skipped.  Returns the number of edges removed.
    pub fn batch_cut(&mut self, edges: &[(Vertex, Vertex)]) -> usize {
        let cleaned = normalize_batch(edges);
        let mut applied = 0;
        let engine = self.engine_mut();
        for (u, v) in cleaned {
            if engine.cut(u, v) {
                applied += 1;
            }
        }
        engine.settle();
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_build_and_teardown() {
        let n = 300;
        let mut f: UfoForest = UfoForest::new(n);
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        assert_eq!(f.batch_link(&edges), n - 1);
        assert!(f.connected(0, n - 1));
        f.engine().check_invariants().unwrap();
        let half: Vec<(usize, usize)> = edges.iter().copied().step_by(2).collect();
        assert_eq!(f.batch_cut(&half), half.len());
        assert!(!f.connected(0, n - 1));
        f.engine().check_invariants().unwrap();
        assert_eq!(f.num_edges(), n - 1 - half.len());
        // a reversed duplicate, a self loop and an absent edge are skipped
        let applied = f.batch_cut(&[(2, 1), (1, 2), (7, 7), (0, 1), (3, 4)]);
        assert_eq!(applied, 2, "only (1,2) and (3,4) are live");
        assert!(!f.connected(1, 2) && !f.connected(3, 4));
        f.engine().check_invariants().unwrap();
        assert_eq!(f.num_edges(), n - 3 - half.len());
    }

    #[test]
    fn batch_link_filters_bad_edges() {
        let mut f: UfoForest = UfoForest::new(5);
        let applied = f.batch_link(&[(0, 1), (1, 0), (1, 2), (2, 0), (4, 4)]);
        assert_eq!(applied, 2);
        assert_eq!(f.num_edges(), 2);
    }
}
