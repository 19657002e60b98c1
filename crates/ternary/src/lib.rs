//! Dynamic ternarization (paper §2 and Appendix A.1).
//!
//! Topology trees and rake-compress trees only accept inputs of degree ≤ 3.
//! The [`Ternarizer`] maintains, for every original vertex, a *ternarized
//! path* of underlying vertices ("slots") — the primary slot hosting up to two
//! real edges, extra slots one each — so that the underlying forest always has
//! maximum degree 3.  Every original
//! `link`/`cut` is translated into a short sequence of underlying operations
//! which the caller applies to whatever degree-bounded structure it wraps.
//!
//! Underlying vertex ids `0..n` are the *primary slots* of the original
//! vertices; additional slots are allocated above `n` (and recycled).  The
//! total number of underlying vertices is at most `n + Σ deg(v) < 3n`.
//! Primary slots carry the original vertex weights; extra slots are *phantom*
//! vertices whose weight must be ignored by the wrapped structure.  The
//! ternarizer itself is weight-agnostic, so generic monoid weights thread
//! through unchanged: the wrapped structure makes phantom slots contribute
//! the monoid identity (`Agg::vertex_if` in `dyntree_primitives::algebra`),
//! which is how `TopologyForest<M>` stays exact for any `CommutativeMonoid`.

use std::collections::HashMap;

/// An operation on the underlying (degree ≤ 3) forest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnderlyingOp {
    /// Insert an underlying edge.
    Link(usize, usize),
    /// Delete an underlying edge.
    Cut(usize, usize),
}

#[derive(Clone, Debug)]
struct VertexPaths {
    /// The slots of this vertex, in path order; `slots[0]` is the primary slot.
    slots: Vec<usize>,
}

/// Maintains the mapping from an arbitrary-degree forest to a degree ≤ 3
/// forest.
#[derive(Clone, Debug)]
pub struct Ternarizer {
    n: usize,
    verts: Vec<VertexPaths>,
    /// For each slot, the number of real edges it currently hosts (0..=2 for
    /// primary slots, 0..=1 for extra slots).
    slot_load: Vec<u8>,
    /// Owner (original vertex) of every underlying slot.
    slot_owner: Vec<usize>,
    /// For each slot, the *other* original endpoints of the real edges it
    /// hosts (mirror of `slot_load`, used to relocate edges on compaction).
    slot_hosted: Vec<Vec<usize>>,
    /// Recycled extra-slot ids.
    free_slots: Vec<usize>,
    /// Total allocated underlying ids (dense range `0..next_slot`).
    next_slot: usize,
    /// For each real edge (canonical orientation), the pair of slots hosting it.
    edge_slots: HashMap<(usize, usize), (usize, usize)>,
}

impl Ternarizer {
    /// Creates a ternarizer for original vertices `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            verts: (0..n).map(|v| VertexPaths { slots: vec![v] }).collect(),
            slot_load: vec![0; n],
            slot_owner: (0..n).collect(),
            slot_hosted: vec![Vec::new(); n],
            free_slots: Vec::new(),
            next_slot: n,
            edge_slots: HashMap::new(),
        }
    }

    /// Number of original vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no original vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One past the largest underlying vertex id ever allocated.  The wrapped
    /// structure must have at least this many vertices; a safe static bound is
    /// [`Ternarizer::capacity_bound`].
    pub fn underlying_len(&self) -> usize {
        self.next_slot
    }

    /// A safe upper bound on the number of underlying vertices a forest with
    /// `n` vertices can ever need under this scheme (`3n`, see module docs).
    pub fn capacity_bound(n: usize) -> usize {
        3 * n.max(1)
    }

    /// The primary underlying slot of original vertex `v` (used for
    /// connectivity and as the query representative).
    pub fn representative(&self, v: usize) -> usize {
        self.verts[v].slots[0]
    }

    /// Whether underlying vertex `s` is a phantom (non-primary) slot,
    /// decided by ownership: `s` is phantom unless it is its owner's primary
    /// slot.
    pub fn is_phantom(&self, s: usize) -> bool {
        self.verts[self.slot_owner[s]].slots[0] != s
    }

    /// The original vertex owning underlying slot `s`.
    pub fn owner(&self, s: usize) -> usize {
        self.slot_owner[s]
    }

    /// Whether the original edge `(u, v)` is currently mapped.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_slots.contains_key(&canonical(u, v))
    }

    /// The pair of underlying slots `(slot_of_u, slot_of_v)` hosting the
    /// original edge `(u, v)`, if the edge is present.
    pub fn edge_slots(&self, u: usize, v: usize) -> Option<(usize, usize)> {
        let &(a, b) = self.edge_slots.get(&canonical(u, v))?;
        Some(if u <= v { (a, b) } else { (b, a) })
    }

    /// Number of original edges currently mapped.
    pub fn num_edges(&self) -> usize {
        self.edge_slots.len()
    }

    /// Translates the insertion of original edge `(u, v)`.  Returns the
    /// underlying operations to apply, or `None` if the edge is already
    /// present or is a self loop.
    pub fn link(&mut self, u: usize, v: usize) -> Option<Vec<UnderlyingOp>> {
        if u == v || self.has_edge(u, v) {
            return None;
        }
        let mut ops = Vec::with_capacity(3);
        let su = self.claim_slot(u, &mut ops);
        let sv = self.claim_slot(v, &mut ops);
        self.slot_load[su] += 1;
        self.slot_load[sv] += 1;
        self.slot_hosted[su].push(v);
        self.slot_hosted[sv].push(u);
        self.edge_slots
            .insert(canonical(u, v), order_for(u, v, su, sv));
        ops.push(UnderlyingOp::Link(su, sv));
        Some(ops)
    }

    /// Translates the deletion of original edge `(u, v)`.  Returns the
    /// underlying operations to apply, or `None` if the edge is not present.
    pub fn cut(&mut self, u: usize, v: usize) -> Option<Vec<UnderlyingOp>> {
        let (su, sv) = self.edge_slots.remove(&canonical(u, v))?;
        // (su, sv) is stored in the orientation of the canonical edge; map back
        let (su, sv) = if u <= v { (su, sv) } else { (sv, su) };
        let mut ops = vec![UnderlyingOp::Cut(su, sv)];
        self.slot_load[su] -= 1;
        self.slot_load[sv] -= 1;
        unhost(&mut self.slot_hosted[su], v);
        unhost(&mut self.slot_hosted[sv], u);
        self.compact(u, &mut ops);
        self.compact(v, &mut ops);
        Some(ops)
    }

    /// Exact heap bytes owned by the ternarizer itself.
    pub fn memory_bytes(&self) -> usize {
        let paths: usize = self
            .verts
            .iter()
            .map(|p| p.slots.capacity() * std::mem::size_of::<usize>())
            .sum();
        let hosted: usize = self
            .slot_hosted
            .iter()
            .map(|h| h.capacity() * std::mem::size_of::<usize>())
            .sum();
        paths
            + hosted
            + self.verts.capacity() * std::mem::size_of::<VertexPaths>()
            + self.slot_load.capacity()
            + self.slot_owner.capacity() * std::mem::size_of::<usize>()
            + self.slot_hosted.capacity() * std::mem::size_of::<Vec<usize>>()
            + self.free_slots.capacity() * std::mem::size_of::<usize>()
            + self.edge_slots.capacity()
                * (std::mem::size_of::<((usize, usize), (usize, usize))>() + 8)
    }

    /// Finds (or creates, emitting the virtual link) a slot of `vertex` with
    /// free real-edge capacity.
    ///
    /// The primary slot hosts up to **two** real edges (its third degree unit
    /// is reserved for the chain edge towards the extra slots); extra slots
    /// host one real edge each (plus up to two chain edges).  Hosting the
    /// first two edges on the primary keeps vertex-weight path aggregates
    /// exact through every vertex of degree ≤ 3: any two of its hosted edges
    /// bracket the weight-carrying primary on the underlying path.  For
    /// degree ≥ 4 two hosted edges can both sit on extra slots and the
    /// underlying path between them misses the primary — that is a
    /// fundamental limit of weight-on-one-slot ternarization (any two
    /// disjoint host pairs would both need to bracket the same slot), and one
    /// of the paper's motivations for UFO trees, which need no ternarization.
    fn claim_slot(&mut self, vertex: usize, ops: &mut Vec<UnderlyingOp>) -> usize {
        if let Some(&s) = self.verts[vertex]
            .slots
            .iter()
            .enumerate()
            .find(|&(i, &s)| (self.slot_load[s] as usize) < if i == 0 { 2 } else { 1 })
            .map(|(_, s)| s)
        {
            return s;
        }
        // extend the ternarized path with a fresh slot
        let s = self.alloc_slot(vertex);
        let last = *self.verts[vertex].slots.last().unwrap();
        self.verts[vertex].slots.push(s);
        ops.push(UnderlyingOp::Link(last, s));
        s
    }

    /// Restores `vertex`'s hosting invariant after a cut freed capacity: the
    /// hosted edges must fill the slot chain as a *prefix* (primary slot
    /// first, then extras in chain order, no gaps).  At most one edge is
    /// relocated — from the outermost occupied slot into the innermost slot
    /// with spare capacity — and trailing empty extra slots are trimmed.
    ///
    /// The invariant is what makes vertex-weight path aggregates exact for
    /// every vertex of degree ≤ 3 *at query time*, independent of the
    /// insertion/deletion history: a degree ≤ 3 vertex always hosts two edges
    /// on the primary and at most one on the first extra slot, so any two of
    /// its edges bracket the weight-carrying primary on the underlying path.
    fn compact(&mut self, vertex: usize, ops: &mut Vec<UnderlyingOp>) {
        // innermost slot with spare capacity
        let spare = self.verts[vertex]
            .slots
            .iter()
            .enumerate()
            .position(|(i, &s)| (self.slot_load[s] as usize) < if i == 0 { 2 } else { 1 });
        // outermost occupied slot
        let occupied = self.verts[vertex]
            .slots
            .iter()
            .rposition(|&s| self.slot_load[s] > 0);
        if let (Some(i), Some(j)) = (spare, occupied) {
            if j > i {
                let from = self.verts[vertex].slots[j];
                let to = self.verts[vertex].slots[i];
                let w = *self.slot_hosted[from]
                    .last()
                    .expect("occupied slot hosts an edge");
                // relocate edge (vertex, w) from `from` to `to`
                let key = canonical(vertex, w);
                let entry = self.edge_slots.get_mut(&key).expect("hosted edge is live");
                let other = if entry.0 == from {
                    entry.0 = to;
                    entry.1
                } else {
                    debug_assert_eq!(entry.1, from);
                    entry.1 = to;
                    entry.0
                };
                ops.push(UnderlyingOp::Cut(from, other));
                ops.push(UnderlyingOp::Link(to, other));
                self.slot_load[from] -= 1;
                self.slot_load[to] += 1;
                unhost(&mut self.slot_hosted[from], w);
                self.slot_hosted[to].push(w);
            }
        }
        // trim trailing empty extra slots
        while self.verts[vertex].slots.len() > 1 {
            let last = *self.verts[vertex].slots.last().unwrap();
            if self.slot_load[last] > 0 {
                break;
            }
            self.verts[vertex].slots.pop();
            let prev = *self.verts[vertex].slots.last().unwrap();
            ops.push(UnderlyingOp::Cut(prev, last));
            self.free_slot(last);
        }
    }

    fn alloc_slot(&mut self, owner: usize) -> usize {
        if let Some(s) = self.free_slots.pop() {
            self.slot_owner[s] = owner;
            self.slot_load[s] = 0;
            self.slot_hosted[s].clear();
            s
        } else {
            let s = self.next_slot;
            self.next_slot += 1;
            self.slot_owner.push(owner);
            self.slot_load.push(0);
            self.slot_hosted.push(Vec::new());
            s
        }
    }

    fn free_slot(&mut self, s: usize) {
        self.free_slots.push(s);
    }
}

fn canonical(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

/// Removes one occurrence of `w` from a slot's hosted-edge list.
fn unhost(hosted: &mut Vec<usize>, w: usize) {
    let pos = hosted
        .iter()
        .position(|&x| x == w)
        .expect("hosted edge must be recorded");
    hosted.swap_remove(pos);
}

/// Stores the slot pair in the orientation of the canonical edge.
fn order_for(u: usize, v: usize, su: usize, sv: usize) -> (usize, usize) {
    if u <= v {
        (su, sv)
    } else {
        (sv, su)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Replays underlying ops into an adjacency map and checks the degree bound.
    #[derive(Default)]
    struct UnderlyingModel {
        adj: HashMap<usize, HashSet<usize>>,
    }

    impl UnderlyingModel {
        fn apply(&mut self, ops: &[UnderlyingOp]) {
            for op in ops {
                match *op {
                    UnderlyingOp::Link(a, b) => {
                        assert!(self.adj.entry(a).or_default().insert(b), "dup link {a}-{b}");
                        assert!(self.adj.entry(b).or_default().insert(a));
                    }
                    UnderlyingOp::Cut(a, b) => {
                        assert!(self.adj.entry(a).or_default().remove(&b), "missing {a}-{b}");
                        assert!(self.adj.entry(b).or_default().remove(&a));
                    }
                }
            }
        }

        fn max_degree(&self) -> usize {
            self.adj.values().map(|s| s.len()).max().unwrap_or(0)
        }
    }

    #[test]
    fn star_stays_degree_three() {
        let n = 50;
        let mut t = Ternarizer::new(n);
        let mut model = UnderlyingModel::default();
        for v in 1..n {
            let ops = t.link(0, v).unwrap();
            model.apply(&ops);
            assert!(model.max_degree() <= 3, "degree bound violated at {}", v);
        }
        assert_eq!(t.num_edges(), n - 1);
        assert!(t.underlying_len() <= Ternarizer::capacity_bound(n));
        // now delete everything again
        for v in 1..n {
            let ops = t.cut(0, v).unwrap();
            model.apply(&ops);
            assert!(model.max_degree() <= 3);
        }
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn duplicate_and_missing_edges_are_rejected() {
        let mut t = Ternarizer::new(4);
        assert!(t.link(0, 1).is_some());
        assert!(t.link(0, 1).is_none());
        assert!(t.link(1, 0).is_none());
        assert!(t.link(2, 2).is_none());
        assert!(t.cut(2, 3).is_none());
        assert!(t.cut(0, 1).is_some());
        assert!(t.cut(0, 1).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = Ternarizer::new(10);
        let mut model = UnderlyingModel::default();
        // build and tear down a star around 0 a few times
        for _round in 0..5 {
            for v in 1..10 {
                model.apply(&t.link(0, v).unwrap());
            }
            for v in 1..10 {
                model.apply(&t.cut(0, v).unwrap());
            }
        }
        assert!(model.max_degree() <= 3);
        assert!(
            t.underlying_len() <= Ternarizer::capacity_bound(10),
            "slots not recycled: {}",
            t.underlying_len()
        );
    }

    #[test]
    fn representatives_are_primary_slots() {
        let mut t = Ternarizer::new(5);
        for v in 1..5 {
            t.link(0, v);
        }
        for v in 0..5 {
            assert_eq!(t.representative(v), v);
            assert!(!t.is_phantom(t.representative(v)));
            assert_eq!(t.owner(v), v);
        }
        assert!(t.underlying_len() > 5, "star centre must have extra slots");
        for s in 5..t.underlying_len() {
            assert!(t.is_phantom(s));
            assert_eq!(t.owner(s), 0);
        }
    }

    #[test]
    fn low_degree_inputs_add_no_slots() {
        // a path never exceeds degree 2, so no extra slots are required
        let mut t = Ternarizer::new(100);
        let mut model = UnderlyingModel::default();
        for v in 0..99 {
            model.apply(&t.link(v, v + 1).unwrap());
        }
        assert_eq!(t.underlying_len(), 100);
        assert!(model.max_degree() <= 2);
    }
}
