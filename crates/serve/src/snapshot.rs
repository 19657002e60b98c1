//! The immutable published view: a frozen component-labels array plus
//! per-component size and aggregate tables, so every query is O(1) array
//! reads with zero allocation.

use dyntree_primitives::algebra::{Agg, CommutativeMonoid, SumMinMax, WeightOf};

/// An answer stamped with the epoch it was read at.  Every [`ReadHandle`]
/// query returns one of these, so callers can always tell *which* published
/// version produced the answer (and correlate answers across queries by
/// comparing epochs).
///
/// [`ReadHandle`]: crate::ReadHandle
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Versioned<T> {
    /// The answer itself.
    pub value: T,
    /// Epoch of the snapshot that produced it.
    pub epoch: u64,
}

/// One immutable published version of the graph's connectivity state.
///
/// Built by the writer after each batch from the engine's canonical
/// component-labels dump
/// ([`export_component_labels`](dyntree_connectivity::DynConnectivity::export_component_labels)):
/// `labels[v]` is a dense component id in `0..components`, assigned in
/// order of first appearance by vertex id, so two snapshots of the same
/// graph are byte-identical regardless of backend or thread count.  Sizes
/// and monoid aggregates are pre-folded per component, making every query
/// a couple of array indexings — readers never allocate, never lock, and
/// never see a half-built state.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot<M: CommutativeMonoid = SumMinMax> {
    /// Epoch id: the engine's batch counter when this snapshot was built
    /// (0 for the bootstrap snapshot of the empty engine).
    pub epoch: u64,
    /// Number of vertices.
    pub vertices: usize,
    /// Number of connected components (isolated vertices included).
    pub components: usize,
    /// Number of live edges (tree and non-tree).
    pub edges: usize,
    /// Dense component label per vertex, canonical by construction.
    pub labels: Vec<u32>,
    /// Vertices per component, indexed by label.
    pub comp_size: Vec<u64>,
    /// Monoid aggregate per component, indexed by label, folded from the
    /// serving layer's shadow weights.
    pub comp_agg: Vec<Agg<M>>,
}

impl<M: CommutativeMonoid> Snapshot<M> {
    /// The bootstrap snapshot of an engine with `n` isolated vertices.
    pub(crate) fn bootstrap(n: usize, weights: &[WeightOf<M>]) -> Self {
        debug_assert_eq!(weights.len(), n);
        Snapshot {
            epoch: 0,
            vertices: n,
            components: n,
            edges: 0,
            labels: (0..n as u32).collect(),
            comp_size: vec![1; n],
            comp_agg: weights.iter().map(|&w| Agg::vertex(w)).collect(),
        }
    }

    /// Builds the per-component tables from a labels dump and the shadow
    /// weights.  `labels` must be dense in `0..components`.
    pub(crate) fn from_labels(
        epoch: u64,
        components: usize,
        edges: usize,
        labels: Vec<u32>,
        weights: &[WeightOf<M>],
    ) -> Self {
        debug_assert_eq!(weights.len(), labels.len());
        let mut comp_size = vec![0u64; components];
        let mut comp_agg = vec![Agg::IDENTITY; components];
        for (v, &l) in labels.iter().enumerate() {
            let l = l as usize;
            comp_size[l] += 1;
            comp_agg[l] = Agg::combine(comp_agg[l], Agg::vertex(weights[v]));
        }
        Snapshot {
            epoch,
            vertices: labels.len(),
            components,
            edges,
            labels,
            comp_size,
            comp_agg,
        }
    }

    /// Whether `u` and `v` are connected in this snapshot.  Out-of-range
    /// vertices are connected to nothing: a reader pinned to an epoch from
    /// before a growth batch does not know the newer ids yet.
    #[inline]
    pub fn connected(&self, u: usize, v: usize) -> bool {
        u < self.vertices && v < self.vertices && (u == v || self.labels[u] == self.labels[v])
    }

    /// Dense component label of `v` (`None` when out of range).
    #[inline]
    pub fn component_label(&self, v: usize) -> Option<u32> {
        self.labels.get(v).copied()
    }

    /// Number of vertices in `v`'s component.  Out of range → 0, mirroring
    /// the engine.
    #[inline]
    pub fn component_size(&self, v: usize) -> u64 {
        match self.labels.get(v) {
            Some(&l) => self.comp_size[l as usize],
            None => 0,
        }
    }

    /// Monoid aggregate over `v`'s whole component (`None` when out of
    /// range).
    #[inline]
    pub fn component_agg(&self, v: usize) -> Option<Agg<M>> {
        self.labels.get(v).map(|&l| self.comp_agg[l as usize])
    }

    /// Approximate heap bytes owned by this snapshot's tables.
    pub fn memory_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<u32>()
            + self.comp_size.capacity() * std::mem::size_of::<u64>()
            + self.comp_agg.capacity() * std::mem::size_of::<Agg<M>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_is_all_singletons() {
        let w = [0i64, 5, -3];
        let s: Snapshot = Snapshot::bootstrap(3, &w);
        assert_eq!((s.epoch, s.vertices, s.components, s.edges), (0, 3, 3, 0));
        assert!(s.connected(1, 1));
        assert!(!s.connected(0, 1));
        assert_eq!(s.component_size(2), 1);
        assert_eq!(s.component_agg(1).unwrap().sum, 5);
        assert_eq!(s.component_agg(2).unwrap().min, -3);
    }

    #[test]
    fn from_labels_folds_sizes_and_aggregates() {
        // components {0,2} and {1}, weights 1/10/100
        let s: Snapshot = Snapshot::from_labels(4, 2, 1, vec![0, 1, 0], &[1, 10, 100]);
        assert_eq!(s.epoch, 4);
        assert!(s.connected(0, 2));
        assert!(!s.connected(0, 1));
        assert_eq!(s.component_size(0), 2);
        assert_eq!(s.component_size(1), 1);
        let a = s.component_agg(2).unwrap();
        assert_eq!((a.sum, a.min, a.max, a.count), (101, 1, 100, 2));
    }

    #[test]
    fn out_of_range_is_lenient() {
        let s: Snapshot = Snapshot::bootstrap(2, &[0, 0]);
        assert!(!s.connected(0, 9));
        assert!(!s.connected(9, 9));
        assert_eq!(s.component_size(9), 0);
        assert_eq!(s.component_agg(9), None);
        assert_eq!(s.component_label(9), None);
    }
}
