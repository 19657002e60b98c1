//! Batch front-end for Euler tour trees.
//!
//! The paper's parallel ETT [Tseng et al. 2019] processes a batch of links or
//! cuts with a phase-concurrent skip list.  This front-end keeps the batch
//! *interface* only, and the batch path is sequential: the batch is
//! normalised (canonical orientation, self-loop filtering, a sort and a
//! dedup — [`normalize_batch`]), then the tour splicing runs one
//! `link`/`cut` per edge, and those calls skip cycle-closing, duplicate and
//! missing edges.  `DESIGN.md` §5 records this substitution; the batch
//! benchmarks measure both this front-end and the UFO batch updates the
//! same way (wall-clock per batch).

use dyntree_primitives::ops::normalize_batch;
use dyntree_seqs::DynSequence;

use crate::EulerTourForest;

/// A batch-dynamic wrapper around [`EulerTourForest`].
#[derive(Clone, Debug)]
pub struct BatchEulerForest<S: DynSequence> {
    inner: EulerTourForest<S>,
}

impl<S: DynSequence> BatchEulerForest<S> {
    /// Creates a forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            inner: EulerTourForest::new(n),
        }
    }

    /// Shared access to the underlying forest.
    pub fn forest(&self) -> &EulerTourForest<S> {
        &self.inner
    }

    /// Mutable access to the underlying forest (for individual operations).
    pub fn forest_mut(&mut self) -> &mut EulerTourForest<S> {
        &mut self.inner
    }

    /// Applies a batch of edge insertions.  Edges that would create a cycle
    /// within the batch or with existing edges, duplicates and self-loops are
    /// skipped (the paper assumes batches are valid; we are defensive).
    /// Returns the number of edges actually inserted.
    pub fn batch_link(&mut self, edges: &[(usize, usize)]) -> usize {
        let cleaned = normalize_batch(edges);
        let mut applied = 0;
        for (u, v) in cleaned {
            if self.inner.link(u, v) {
                applied += 1;
            }
        }
        applied
    }

    /// Applies a batch of edge deletions.  Self loops, duplicates and absent
    /// edges are skipped.  Returns the number of edges actually removed.
    pub fn batch_cut(&mut self, edges: &[(usize, usize)]) -> usize {
        let cleaned = normalize_batch(edges);
        let mut applied = 0;
        for (u, v) in cleaned {
            if self.inner.cut(u, v) {
                applied += 1;
            }
        }
        applied
    }

    /// Exact heap bytes owned by the structure.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyntree_seqs::TreapSequence;

    #[test]
    fn batch_link_and_cut_roundtrip() {
        let n = 200;
        let mut f = BatchEulerForest::<TreapSequence>::new(n);
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        assert_eq!(f.batch_link(&edges), n - 1);
        assert!(f.forest_mut().connected(0, n - 1));
        // delete every other edge
        let half: Vec<(usize, usize)> = edges.iter().copied().step_by(2).collect();
        assert_eq!(f.batch_cut(&half), half.len());
        assert!(!f.forest_mut().connected(0, n - 1));
        assert_eq!(f.forest().num_edges(), n - 1 - half.len());
        // a reversed duplicate, a self loop and an absent edge are skipped
        let applied = f.batch_cut(&[(2, 1), (1, 2), (7, 7), (0, 1), (3, 4)]);
        assert_eq!(applied, 2, "only (1,2) and (3,4) are live");
        assert!(!f.forest_mut().connected(1, 2) && !f.forest_mut().connected(3, 4));
        assert_eq!(f.forest().num_edges(), n - 3 - half.len());
    }

    #[test]
    fn batch_link_skips_duplicates_and_cycles() {
        let mut f = BatchEulerForest::<TreapSequence>::new(4);
        let applied = f.batch_link(&[(0, 1), (1, 0), (1, 2), (2, 0), (3, 3)]);
        // (1,0) duplicates (0,1); (2,0) closes a cycle; (3,3) is a self loop
        assert_eq!(applied, 2);
        assert_eq!(f.forest().num_edges(), 2);
    }

    #[test]
    fn batch_connectivity_queries() {
        let mut f = BatchEulerForest::<TreapSequence>::new(6);
        assert_eq!(f.batch_link(&[(0, 1), (1, 2), (4, 5)]), 3);
        let answers: Vec<bool> = [(0, 2), (0, 4), (4, 5), (3, 3)]
            .iter()
            .map(|&(u, v)| f.forest_mut().connected(u, v))
            .collect();
        assert_eq!(answers, vec![true, false, true, true]);
    }
}
