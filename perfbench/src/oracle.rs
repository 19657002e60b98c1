//! Correctness oracles, independent of the program under test.  All of them
//! run outside the timed regions; each mismatch they find counts as one
//! failed op.

use std::collections::HashSet;

use dyntree_primitives::ops::GraphOp;

use crate::gen::{HubForest, HubQuery};

/// Answer encoding shared by the forest queries: `connected` as 0/1,
/// `path_sum` as the sum, and "no path" as `i64::MIN`.
pub const NO_PATH: i64 = i64::MIN;

/// Parent pointers, depths and root-to-vertex weight sums of the static
/// `forest-hubs` trees, computed by BFS from each shape's first vertex.
pub struct TreeOracle {
    parent: Vec<usize>,
    depth: Vec<u32>,
    prefix: Vec<i64>,
    shape: Vec<u8>,
    weights: Vec<i64>,
}

impl TreeOracle {
    pub fn new(f: &HubForest) -> TreeOracle {
        let mut adj = vec![Vec::new(); f.n];
        for &(u, v) in &f.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut parent = vec![usize::MAX; f.n];
        let mut depth = vec![0u32; f.n];
        let mut prefix = vec![0i64; f.n];
        let mut queue = Vec::with_capacity(f.n);
        for &root in &f.offsets[..4] {
            parent[root] = root;
            prefix[root] = f.weights[root];
            queue.push(root);
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &adj[u] {
                if parent[v] == usize::MAX {
                    parent[v] = u;
                    depth[v] = depth[u] + 1;
                    prefix[v] = prefix[u] + f.weights[v];
                    queue.push(v);
                }
            }
        }
        assert_eq!(queue.len(), f.n, "every vertex reached from a shape root");
        let shape = (0..f.n).map(|v| f.shape_of(v) as u8).collect();
        TreeOracle {
            parent,
            depth,
            prefix,
            shape,
            weights: f.weights.clone(),
        }
    }

    fn lca(&self, mut u: usize, mut v: usize) -> usize {
        while self.depth[u] > self.depth[v] {
            u = self.parent[u];
        }
        while self.depth[v] > self.depth[u] {
            v = self.parent[v];
        }
        while u != v {
            u = self.parent[u];
            v = self.parent[v];
        }
        u
    }

    /// The expected answer of `q` on the static forest.
    pub fn expect(&self, q: &HubQuery) -> i64 {
        match *q {
            HubQuery::Connected(u, v) => i64::from(self.shape[u] == self.shape[v]),
            HubQuery::PathSum(u, v) => {
                if self.shape[u] != self.shape[v] {
                    return NO_PATH;
                }
                let l = self.lca(u, v);
                self.prefix[u] + self.prefix[v] - 2 * self.prefix[l] + self.weights[l]
            }
        }
    }
}

/// Number of positions where `got` differs from `want`.
pub fn mismatches<T: PartialEq>(want: &[T], got: &[T]) -> u64 {
    let differ = want.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + want.len().abs_diff(got.len())) as u64
}

/// Union-find with component sizes and weight sums.
pub struct GraphDsu {
    parent: Vec<u32>,
    size: Vec<u64>,
    sum: Vec<i64>,
    components: usize,
}

impl GraphDsu {
    pub fn new(weights: &[i64], edges: impl IntoIterator<Item = (usize, usize)>) -> GraphDsu {
        let n = weights.len();
        let mut d = GraphDsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sum: weights.to_vec(),
            components: n,
        };
        for (u, v) in edges {
            d.union(u, v);
        }
        d
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let p = self.parent[x] as usize;
            self.parent[x] = self.parent[p];
            x = p;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b] = a as u32;
        self.size[a] += self.size[b];
        self.sum[a] += self.sum[b];
        self.components -= 1;
    }

    pub fn connected(&mut self, u: usize, v: usize) -> bool {
        self.find(u) == self.find(v)
    }

    pub fn size(&mut self, v: usize) -> u64 {
        let r = self.find(v);
        self.size[r]
    }

    pub fn sum(&mut self, v: usize) -> i64 {
        let r = self.find(v);
        self.sum[r]
    }

    pub fn components(&self) -> usize {
        self.components
    }
}

/// A reader answer, stamped with the epoch it was read at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadSample {
    Connected {
        epoch: u64,
        u: usize,
        v: usize,
        answer: bool,
    },
    Agg {
        epoch: u64,
        v: usize,
        count: u64,
        sum: i64,
    },
}

impl ReadSample {
    pub fn epoch(&self) -> u64 {
        match *self {
            ReadSample::Connected { epoch, .. } | ReadSample::Agg { epoch, .. } => epoch,
        }
    }
}

/// Checks reader samples against a DSU of each sampled epoch's edge set.
///
/// Epoch `base + i` is the state after `batches[..i]` on top of `initial`.
/// At most `max_epochs` distinct epochs (evenly spread) are rebuilt; every
/// sample at a rebuilt epoch is checked.  Returns `(checked, wrong)`; a
/// sample from an epoch outside the recorded range is wrong.
pub fn check_read_samples(
    weights: &[i64],
    initial: &[(usize, usize)],
    batches: &[Vec<GraphOp>],
    base: u64,
    samples: &[ReadSample],
    max_epochs: usize,
) -> (u64, u64) {
    let last = base + batches.len() as u64;
    let mut wrong = samples
        .iter()
        .filter(|s| s.epoch() < base || s.epoch() > last)
        .count() as u64;
    let mut epochs: Vec<u64> = samples
        .iter()
        .map(ReadSample::epoch)
        .filter(|e| (base..=last).contains(e))
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    if epochs.len() > max_epochs {
        let step = epochs.len() as f64 / max_epochs as f64;
        epochs = (0..max_epochs)
            .map(|i| epochs[(i as f64 * step) as usize])
            .collect();
    }
    let mut live: HashSet<(usize, usize)> = initial.iter().copied().collect();
    let mut applied = base;
    let mut checked = 0;
    for &epoch in &epochs {
        while applied < epoch {
            for op in &batches[(applied - base) as usize] {
                match *op {
                    GraphOp::InsertEdge(u, v) => {
                        live.insert((u.min(v), u.max(v)));
                    }
                    GraphOp::DeleteEdge(u, v) => {
                        live.remove(&(u.min(v), u.max(v)));
                    }
                    _ => {}
                }
            }
            applied += 1;
        }
        let mut dsu = GraphDsu::new(weights, live.iter().copied());
        for s in samples.iter().filter(|s| s.epoch() == epoch) {
            checked += 1;
            let ok = match *s {
                ReadSample::Connected { u, v, answer, .. } => dsu.connected(u, v) == answer,
                ReadSample::Agg { v, count, sum, .. } => dsu.size(v) == count && dsu.sum(v) == sum,
            };
            wrong += u64::from(!ok);
        }
    }
    (checked, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::HubRounds;
    use ufo_forest::UfoForest;

    #[test]
    fn tree_oracle_matches_the_forest_and_counts_an_injected_error() {
        let f = HubForest::generate(64, 2);
        let oracle = TreeOracle::new(&f);
        let mut forest: UfoForest = UfoForest::new(f.n);
        for (v, &w) in f.weights.iter().enumerate() {
            forest.set_weight(v, w);
        }
        forest.batch_link(&f.edges);
        let round = HubRounds::new(2).next(&f, 16, 200);
        let want: Vec<i64> = round.queries.iter().map(|q| oracle.expect(q)).collect();
        let mut got: Vec<i64> = round
            .queries
            .iter()
            .map(|q| match *q {
                HubQuery::Connected(u, v) => i64::from(forest.connected(u, v)),
                HubQuery::PathSum(u, v) => forest.path_sum(u, v).unwrap_or(NO_PATH),
            })
            .collect();
        assert_eq!(mismatches(&want, &got), 0);
        got[1] += 1;
        assert_eq!(
            mismatches(&want, &got),
            1,
            "an injected wrong answer counts"
        );
    }

    #[test]
    fn read_samples_are_checked_per_epoch_and_an_injected_error_counts() {
        let weights = vec![1, 2, 3, 4];
        let initial = vec![(0, 1)];
        let batches = vec![
            vec![GraphOp::InsertEdge(1, 2)],
            vec![GraphOp::DeleteEdge(0, 1), GraphOp::InsertEdge(2, 3)],
        ];
        let good = vec![
            ReadSample::Connected {
                epoch: 5,
                u: 0,
                v: 1,
                answer: true,
            },
            ReadSample::Agg {
                epoch: 6,
                v: 0,
                count: 3,
                sum: 6,
            },
            ReadSample::Agg {
                epoch: 7,
                v: 3,
                count: 3,
                sum: 9,
            },
            ReadSample::Connected {
                epoch: 7,
                u: 0,
                v: 2,
                answer: false,
            },
        ];
        assert_eq!(
            check_read_samples(&weights, &initial, &batches, 5, &good, 8),
            (4, 0)
        );
        let mut bad = good.clone();
        bad[3] = ReadSample::Connected {
            epoch: 7,
            u: 0,
            v: 2,
            answer: true,
        };
        assert_eq!(
            check_read_samples(&weights, &initial, &batches, 5, &bad, 8),
            (4, 1)
        );
        let stale = [ReadSample::Connected {
            epoch: 2,
            u: 0,
            v: 1,
            answer: true,
        }];
        assert_eq!(
            check_read_samples(&weights, &initial, &batches, 5, &stale, 8).1,
            1
        );
    }

    #[test]
    fn graph_dsu_counts_components() {
        let mut d = GraphDsu::new(&[5, 6, 7], [(0, 2)]);
        assert_eq!(d.components(), 2);
        assert!(d.connected(2, 0));
        assert_eq!((d.size(0), d.sum(2)), (2, 12));
    }
}
