//! Batch-dynamic updates for UFO trees.
//!
//! The paper's Algorithm 4 processes a batch of `k` updates level by level
//! with `O(min(k log(1 + n/k), kD))` work and poly-logarithmic depth.  This
//! implementation keeps the *batch interface*, and parallelises the
//! embarrassingly parallel phases with rayon — batch normalisation
//! (canonical orientation, self-loop filtering, a sort and a dedup) and
//! batch-query evaluation.  The restructuring itself is not batched: every
//! surviving edge goes through the sequential `link`/`cut`, each with its
//! own summary refresh, and those calls skip cycle-closing, duplicate and
//! missing edges.
//! With the rayon shim now backed by a real pool these phases execute on
//! worker threads once a batch passes the `worth_parallel` grain; results
//! are byte-identical at every thread count (the combinators are
//! order-preserving and the parallel sorts produce the stable permutation).
//! `DESIGN.md` §4 records this deviation: the benchmark comparisons in
//! Figures 8, 9 and 16 run every batch structure through the same interface,
//! so the relative comparison is preserved, but the absolute parallel speedup
//! of the restructuring phase is not reproduced.

use dyntree_primitives::algebra::SumMinMax;
use dyntree_primitives::{worth_parallel, Dsu};
use rayon::prelude::*;

use crate::forest::UfoForest;
use crate::summary::CommutativeMonoid;
use crate::Vertex;

/// A single update in a mixed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert an edge.
    Link(Vertex, Vertex),
    /// Delete an edge.
    Cut(Vertex, Vertex),
}

impl<M: CommutativeMonoid> UfoForest<M> {
    /// Applies a batch of edge insertions.  Self loops, duplicates and edges
    /// that would close a cycle (within the batch or with existing edges) are
    /// skipped.  Returns the number of edges inserted.
    pub fn batch_link(&mut self, edges: &[(Vertex, Vertex)]) -> usize {
        let cleaned = normalize(edges);
        let mut applied = 0;
        for (u, v) in cleaned {
            if self.link(u, v) {
                applied += 1;
            }
        }
        applied
    }

    /// Applies a batch of edge deletions.  Returns the number of edges
    /// removed.
    pub fn batch_cut(&mut self, edges: &[(Vertex, Vertex)]) -> usize {
        let cleaned = normalize(edges);
        let mut applied = 0;
        for (u, v) in cleaned {
            if self.cut(u, v) {
                applied += 1;
            }
        }
        applied
    }

    /// Applies a mixed batch of insertions and deletions, in batch order.
    pub fn batch_update(&mut self, ops: &[BatchOp]) -> usize {
        let mut applied = 0;
        for op in ops {
            let ok = match *op {
                BatchOp::Link(u, v) => self.link(u, v),
                BatchOp::Cut(u, v) => self.cut(u, v),
            };
            if ok {
                applied += 1;
            }
        }
        applied
    }

    /// Answers a batch of connectivity queries.  Queries are read-only walks,
    /// so they run in parallel.
    pub fn batch_connected(&self, queries: &[(Vertex, Vertex)]) -> Vec<bool> {
        if worth_parallel(queries.len()) {
            queries
                .par_iter()
                .map(|&(u, v)| self.connected(u, v))
                .collect()
        } else {
            queries.iter().map(|&(u, v)| self.connected(u, v)).collect()
        }
    }
}

/// Batched `i64` queries for the default monoid.
impl UfoForest<SumMinMax> {
    /// Answers a batch of path-sum queries in parallel.
    pub fn batch_path_sum(&self, queries: &[(Vertex, Vertex)]) -> Vec<Option<i64>> {
        if worth_parallel(queries.len()) {
            queries
                .par_iter()
                .map(|&(u, v)| self.path_sum(u, v))
                .collect()
        } else {
            queries.iter().map(|&(u, v)| self.path_sum(u, v)).collect()
        }
    }

    /// Answers a batch of subtree-sum queries in parallel.
    pub fn batch_subtree_sum(&self, queries: &[(Vertex, Vertex)]) -> Vec<Option<i64>> {
        if worth_parallel(queries.len()) {
            queries
                .par_iter()
                .map(|&(v, p)| self.subtree_sum(v, p))
                .collect()
        } else {
            queries
                .iter()
                .map(|&(v, p)| self.subtree_sum(v, p))
                .collect()
        }
    }
}

/// Canonicalises, deduplicates and (for large batches) parallel-sorts a batch.
fn normalize(edges: &[(Vertex, Vertex)]) -> Vec<(Vertex, Vertex)> {
    let mut cleaned: Vec<(Vertex, Vertex)> = if worth_parallel(edges.len()) {
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
    if worth_parallel(cleaned.len()) {
        cleaned.par_sort_unstable();
    } else {
        cleaned.sort_unstable();
    }
    cleaned.dedup();
    cleaned
}

/// Filters a batch of candidate links down to an acyclic sub-batch (shared
/// with the benchmark harness so every structure receives identical batches).
pub fn acyclic_sub_batch(n: usize, edges: &[(Vertex, Vertex)]) -> Vec<(Vertex, Vertex)> {
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
    }

    #[test]
    fn batch_link_filters_bad_edges() {
        let mut f: UfoForest = UfoForest::new(5);
        let applied = f.batch_link(&[(0, 1), (1, 0), (1, 2), (2, 0), (4, 4)]);
        assert_eq!(applied, 2);
        assert_eq!(f.num_edges(), 2);
    }

    #[test]
    fn mixed_batch_updates() {
        let mut f: UfoForest = UfoForest::new(6);
        let ops = vec![
            BatchOp::Link(0, 1),
            BatchOp::Link(1, 2),
            BatchOp::Link(3, 4),
            BatchOp::Cut(0, 1),
            BatchOp::Link(2, 3),
        ];
        assert_eq!(f.batch_update(&ops), 5);
        assert!(!f.connected(0, 2));
        assert!(f.connected(1, 4));
        f.engine().check_invariants().unwrap();
    }

    #[test]
    fn batch_queries_match_singletons() {
        let n = 100;
        let mut f: UfoForest = UfoForest::new(n);
        for v in 0..n {
            f.set_weight(v, v as i64);
        }
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        f.batch_link(&edges);
        let queries: Vec<(usize, usize)> = (0..50).map(|i| (i, 99 - i)).collect();
        let conn = f.batch_connected(&queries);
        assert!(conn.iter().all(|&b| b));
        let sums = f.batch_path_sum(&queries);
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s, f.path_sum(queries[i].0, queries[i].1));
        }
    }

    #[test]
    fn acyclic_filter() {
        let batch = vec![(0, 1), (1, 2), (2, 0), (3, 4)];
        assert_eq!(acyclic_sub_batch(5, &batch), vec![(0, 1), (1, 2), (3, 4)]);
    }
}
