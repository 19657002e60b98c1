//! Batch front-end for Euler tour trees.
//!
//! The paper's parallel ETT [Tseng et al. 2019] processes a batch of links or
//! cuts with a phase-concurrent skip list.  This front-end keeps the batch
//! *interface* (deduplicated, validated batches of links and cuts) and
//! parallelises the batch preparation (canonical orientation, self-loop
//! filtering, a sort and a dedup) — real pool threads once a batch passes
//! the `worth_parallel` grain, with byte-identical output at every thread
//! count — while the tour splicing itself runs sequentially over the
//! prepared batch, one `link`/`cut` per edge, and those calls skip
//! cycle-closing, duplicate and missing edges.  `DESIGN.md` §5 records this substitution; the
//! batch benchmarks measure both this front-end and the UFO batch updates the
//! same way (wall-clock per batch).

use dyntree_primitives::Dsu;
use dyntree_seqs::DynSequence;
use rayon::prelude::*;

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

    /// Applies a batch of edge deletions.  Returns the number of edges
    /// actually removed.
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

    /// Answers a batch of connectivity queries.
    pub fn batch_connected(&mut self, queries: &[(usize, usize)]) -> Vec<bool> {
        queries
            .iter()
            .map(|&(u, v)| self.inner.connected(u, v))
            .collect()
    }

    /// Exact heap bytes owned by the structure.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// Deduplicates a batch (in parallel for large batches) and canonicalises the
/// edge orientation.  Self loops are dropped.
fn normalize_batch(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut cleaned: Vec<(usize, usize)> = if dyntree_primitives::worth_parallel(edges.len()) {
        edges
            .par_iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect()
    } else {
        edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect()
    };
    if dyntree_primitives::worth_parallel(cleaned.len()) {
        cleaned.par_sort_unstable();
    } else {
        cleaned.sort_unstable();
    }
    cleaned.dedup();
    cleaned
}

/// Filters a batch of candidate links down to a sub-batch that is acyclic with
/// respect to itself (utility shared with the benchmark harness so every
/// structure receives identical valid batches).
pub fn acyclic_sub_batch(n: usize, edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut dsu = Dsu::new(n);
    edges
        .iter()
        .copied()
        .filter(|&(u, v)| u != v && dsu.union(u, v))
        .collect()
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
        f.batch_link(&[(0, 1), (1, 2), (4, 5)]);
        let answers = f.batch_connected(&[(0, 2), (0, 4), (4, 5), (3, 3)]);
        assert_eq!(answers, vec![true, false, true, true]);
    }

    #[test]
    fn acyclic_sub_batch_filters_cycles() {
        let batch = vec![(0, 1), (1, 2), (2, 0), (3, 4)];
        let cleaned = acyclic_sub_batch(5, &batch);
        assert_eq!(cleaned, vec![(0, 1), (1, 2), (3, 4)]);
    }
}
