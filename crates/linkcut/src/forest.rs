//! The link-cut forest implementation, generic over the aggregation monoid.

use dyntree_primitives::algebra::{Action, ActionOf, Agg, CommutativeMonoid, SumMinMax};
use dyntree_primitives::ops::assert_id_space;

const NIL: usize = usize::MAX;

/// The identity action of `M`'s update monoid (bound-shortening helper).
#[inline]
fn no_act<M: CommutativeMonoid>() -> ActionOf<M> {
    <ActionOf<M> as Action<M>>::IDENTITY
}

/// One splay-tree node per represented vertex.
#[derive(Clone, Debug)]
struct Node<M: CommutativeMonoid> {
    parent: usize,
    child: [usize; 2],
    /// Lazy "reverse this path" bit used by `make_root`.
    flip: bool,
    /// Vertex weight.
    value: M::Weight,
    /// Monoid aggregate over the splay subtree (a contiguous path segment).
    /// Soundness under the lazy `flip` reversal is exactly why the monoid
    /// must be commutative.
    agg: M::Value,
    size: usize,
    /// Lazy action still to be applied to the *children's* splay subtrees;
    /// this node's own `value` and `agg` already reflect every tag placed
    /// on it (DESIGN.md §13).  Orthogonal to `flip`: actions are pointwise,
    /// so reversal and update commute.
    pending: ActionOf<M>,
}

impl<M: CommutativeMonoid> Node<M> {
    fn new(value: M::Weight) -> Self {
        Self {
            parent: NIL,
            child: [NIL, NIL],
            flip: false,
            value,
            agg: M::lift(value),
            size: 1,
            pending: no_act::<M>(),
        }
    }
}

/// A forest of vertices `0..n` maintained with link-cut trees, generic over
/// the vertex-weight monoid (default: the `i64` sum/min/max aggregate).
///
/// Path aggregates are computed over the vertices of the queried path,
/// endpoints inclusive, and returned as [`Agg<M>`].
#[derive(Clone, Debug)]
pub struct LinkCutForest<M: CommutativeMonoid = SumMinMax> {
    nodes: Vec<Node<M>>,
    num_edges: usize,
}

impl<M: CommutativeMonoid> LinkCutForest<M> {
    /// Creates a forest of `n` isolated vertices with default weight.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn new(n: usize) -> Self {
        assert_id_space(n);
        Self {
            nodes: (0..n).map(|_| Node::new(M::Weight::default())).collect(),
            num_edges: 0,
        }
    }

    /// Creates a forest with the given vertex weights.
    pub fn with_weights(weights: &[M::Weight]) -> Self {
        Self {
            nodes: weights.iter().map(|&w| Node::new(w)).collect(),
            num_edges: 0,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends isolated vertices (with default weight) until the forest has
    /// `n` of them.  Each new vertex is its own one-node splay tree, so no
    /// existing preferred path is disturbed.  A smaller `n` is a no-op.
    ///
    /// Panics if `n` exceeds [`MAX_VERTICES`](dyntree_primitives::ops::MAX_VERTICES)
    /// (the u32 id space), before allocating.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert_id_space(n);
        while self.nodes.len() < n {
            self.nodes.push(Node::new(M::Weight::default()));
        }
    }

    /// Whether the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges currently present.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Exact number of heap bytes owned by the structure.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<M>>()
    }

    /// Sets the weight of vertex `v`.
    pub fn set_weight(&mut self, v: usize, w: M::Weight) {
        self.access(v);
        self.nodes[v].value = w;
        self.update(v);
    }

    /// Returns the weight of vertex `v`.
    ///
    /// The stored value lags any action tags still pending on strict splay
    /// ancestors, so this folds them in (closest ancestor innermost) by a
    /// read-only walk.  The walk stops at path-parent pointers: a pending
    /// tag applies only to the holder's own splay subtree, and `v` is not in
    /// the subtree of a node it reaches via a path-parent edge.
    pub fn weight(&self, v: usize) -> M::Weight {
        let mut acc = no_act::<M>();
        let mut cur = v;
        loop {
            let p = self.nodes[cur].parent;
            if p == NIL || (self.nodes[p].child[0] != cur && self.nodes[p].child[1] != cur) {
                break;
            }
            acc = ActionOf::<M>::compose(self.nodes[p].pending, acc);
            cur = p;
        }
        acc.act_weight(self.nodes[v].value)
    }

    /// Applies `act` to every vertex on the `u`–`v` path (inclusive) and
    /// returns the number of vertices touched, or `None` if the endpoints
    /// are disconnected.  `O(log n)` amortized: the exposed path becomes one
    /// splay tree and a single pending tag covers it.
    pub fn path_apply(&mut self, u: usize, v: usize, act: ActionOf<M>) -> Option<u64> {
        let x = self.expose_path(u, v)?;
        let count = self.nodes[x].size as u64;
        self.apply_node(x, act);
        Some(count)
    }

    /// Inserts the edge `(u, v)`.  Returns `false` if `u == v` or the edge
    /// would close a cycle (the vertices are already connected).
    pub fn link(&mut self, u: usize, v: usize) -> bool {
        if u == v || self.connected(u, v) {
            return false;
        }
        self.make_root(u);
        // After make_root + access, `u` is the root of its splay tree and of
        // the represented tree; attaching via a path-parent pointer links the
        // two trees without disturbing v's preferred paths.
        self.nodes[u].parent = v;
        self.num_edges += 1;
        true
    }

    /// Removes the edge `(u, v)`.  Returns `false` if the edge is not present.
    pub fn cut(&mut self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        self.make_root(u);
        self.access(v);
        // If (u, v) is an edge of the represented tree, then after rerooting
        // at u and exposing v, u is v's left child in the splay tree and has
        // no right child (it is v's immediate predecessor on the path).
        if self.nodes[v].child[0] != u
            || self.nodes[u].child[1] != NIL
            || self.nodes[u].child[0] != NIL
        {
            return false;
        }
        self.nodes[v].child[0] = NIL;
        self.nodes[u].parent = NIL;
        self.update(v);
        self.num_edges -= 1;
        true
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&mut self, u: usize, v: usize) -> bool {
        if u == v {
            return true;
        }
        self.find_root(u) == self.find_root(v)
    }

    /// The root of the tree containing `v` (an arbitrary but stable
    /// representative until the next `make_root`/`link`/`cut`).
    pub fn find_root(&mut self, v: usize) -> usize {
        self.access(v);
        let mut x = v;
        loop {
            self.push(x);
            let l = self.nodes[x].child[0];
            if l == NIL {
                break;
            }
            x = l;
        }
        self.splay(x);
        x
    }

    /// Re-roots the tree containing `v` at `v`.
    pub fn make_root(&mut self, v: usize) {
        self.access(v);
        self.nodes[v].flip ^= true;
        self.push(v);
    }

    /// Monoid aggregate over the vertex weights on the `u`–`v` path
    /// (inclusive), or `None` if the vertices are not connected.
    pub fn path_aggregate(&mut self, u: usize, v: usize) -> Option<Agg<M>> {
        self.expose_path(u, v).map(|x| Agg {
            value: self.nodes[x].agg,
            count: self.nodes[x].size as u64,
            edges: (self.nodes[x].size - 1) as u64,
        })
    }

    /// Number of edges on the `u`–`v` path.
    pub fn path_len(&mut self, u: usize, v: usize) -> Option<usize> {
        self.expose_path(u, v).map(|x| self.nodes[x].size - 1)
    }

    /// Lowest common ancestor of `u` and `v` in the tree rooted at `r`, or
    /// `None` if the three vertices are not all connected.
    pub fn lca(&mut self, u: usize, v: usize, r: usize) -> Option<usize> {
        if !self.connected(u, r) || !self.connected(v, r) {
            return None;
        }
        self.make_root(r);
        self.access(u);
        Some(self.access(v))
    }

    // ----- internal splay machinery -------------------------------------

    /// Exposes the path between `u` and `v` in a single splay tree rooted at
    /// the returned node, or `None` if they are disconnected.
    fn expose_path(&mut self, u: usize, v: usize) -> Option<usize> {
        if !self.connected(u, v) {
            return None;
        }
        self.make_root(u);
        self.access(v);
        Some(v)
    }

    /// Applies `a` to the whole splay subtree rooted at `x`, eagerly on
    /// `x`'s own value and aggregate and lazily (pending tag) on children.
    fn apply_node(&mut self, x: usize, a: ActionOf<M>) {
        if x == NIL || a.is_identity() {
            return;
        }
        let size = self.nodes[x].size as u64;
        let node = &mut self.nodes[x];
        node.value = a.act_weight(node.value);
        node.agg = a.act_value(node.agg, size);
        node.pending = ActionOf::<M>::compose(a, node.pending);
    }

    fn update(&mut self, x: usize) {
        // Callers always splay (hence push) before updating; a pending tag
        // here would mean folding stale child aggs over an acted own agg.
        debug_assert!(
            self.nodes[x].pending.is_identity(),
            "update on a node with a pending action"
        );
        let (l, r) = (self.nodes[x].child[0], self.nodes[x].child[1]);
        let mut agg = M::lift(self.nodes[x].value);
        let mut size = 1;
        for c in [l, r] {
            if c != NIL {
                agg = M::combine(agg, self.nodes[c].agg);
                size += self.nodes[c].size;
            }
        }
        let node = &mut self.nodes[x];
        node.agg = agg;
        node.size = size;
    }

    fn push(&mut self, x: usize) {
        if self.nodes[x].flip {
            self.nodes[x].flip = false;
            self.nodes[x].child.swap(0, 1);
            for i in 0..2 {
                let c = self.nodes[x].child[i];
                if c != NIL {
                    self.nodes[c].flip ^= true;
                }
            }
        }
        let p = self.nodes[x].pending;
        if !p.is_identity() {
            self.nodes[x].pending = no_act::<M>();
            let (l, r) = (self.nodes[x].child[0], self.nodes[x].child[1]);
            self.apply_node(l, p);
            self.apply_node(r, p);
        }
    }

    /// Whether `x` is the root of its splay tree (its parent link, if any, is
    /// a path-parent pointer).
    fn is_splay_root(&self, x: usize) -> bool {
        let p = self.nodes[x].parent;
        p == NIL || (self.nodes[p].child[0] != x && self.nodes[p].child[1] != x)
    }

    fn rotate(&mut self, x: usize) {
        let p = self.nodes[x].parent;
        let g = self.nodes[p].parent;
        let dir = (self.nodes[p].child[1] == x) as usize;
        let b = self.nodes[x].child[1 - dir];

        // p adopts x's inner child
        self.nodes[p].child[dir] = b;
        if b != NIL {
            self.nodes[b].parent = p;
        }
        // x adopts p
        self.nodes[x].child[1 - dir] = p;
        self.nodes[p].parent = x;
        // g adopts x (or x keeps g as path parent)
        self.nodes[x].parent = g;
        if g != NIL {
            if self.nodes[g].child[0] == p {
                self.nodes[g].child[0] = x;
            } else if self.nodes[g].child[1] == p {
                self.nodes[g].child[1] = x;
            }
        }
        self.update(p);
        self.update(x);
    }

    fn splay(&mut self, x: usize) {
        // Push lazy flips from the splay root down to x before rotating.
        let mut stack = vec![x];
        let mut cur = x;
        while !self.is_splay_root(cur) {
            cur = self.nodes[cur].parent;
            stack.push(cur);
        }
        while let Some(y) = stack.pop() {
            self.push(y);
        }
        while !self.is_splay_root(x) {
            let p = self.nodes[x].parent;
            if !self.is_splay_root(p) {
                let g = self.nodes[p].parent;
                let zig_zig = (self.nodes[g].child[0] == p) == (self.nodes[p].child[0] == x);
                if zig_zig {
                    self.rotate(p);
                } else {
                    self.rotate(x);
                }
            }
            self.rotate(x);
        }
    }

    /// Makes the path from the tree root to `x` preferred and splays `x` to
    /// the root of its splay tree.  Returns the last path-parent jumped over,
    /// which is the LCA when used in the access-access pattern.
    fn access(&mut self, x: usize) -> usize {
        self.splay(x);
        self.nodes[x].child[1] = NIL;
        self.update(x);
        let mut last = x;
        while self.nodes[x].parent != NIL {
            let y = self.nodes[x].parent;
            self.splay(y);
            self.nodes[y].child[1] = x;
            self.update(y);
            self.splay(x);
            last = y;
        }
        last
    }
}

/// The historical `i64` convenience surface, preserved for the default
/// monoid.
impl LinkCutForest<SumMinMax> {
    /// Sum of vertex weights on the `u`–`v` path (inclusive), or `None` if the
    /// vertices are not connected.
    pub fn path_sum(&mut self, u: usize, v: usize) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.sum)
    }

    /// Maximum vertex weight on the `u`–`v` path (inclusive).
    pub fn path_max(&mut self, u: usize, v: usize) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.max)
    }

    /// Minimum vertex weight on the `u`–`v` path (inclusive).
    pub fn path_min(&mut self, u: usize, v: usize) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_link_cut_connected() {
        let mut f: LinkCutForest = LinkCutForest::new(6);
        assert!(f.link(0, 1));
        assert!(f.link(1, 2));
        assert!(f.link(3, 4));
        assert!(f.connected(0, 2));
        assert!(!f.connected(0, 3));
        assert!(!f.link(2, 0), "cycle must be rejected");
        assert!(f.cut(1, 2));
        assert!(!f.connected(0, 2));
        assert!(f.connected(0, 1));
        assert!(!f.cut(1, 2), "cutting a missing edge fails");
        assert_eq!(f.num_edges(), 2);
    }

    #[test]
    fn cut_requires_actual_edge() {
        let mut f: LinkCutForest = LinkCutForest::new(4);
        f.link(0, 1);
        f.link(1, 2);
        f.link(2, 3);
        // 0 and 3 are connected but not adjacent
        assert!(!f.cut(0, 3));
        assert!(f.connected(0, 3));
        assert!(f.cut(2, 1));
        assert!(!f.connected(0, 3));
    }

    #[test]
    fn path_aggregates_on_a_path() {
        let mut f: LinkCutForest = LinkCutForest::new(6);
        for v in 0..6 {
            f.set_weight(v, v as i64 * 10);
        }
        for v in 0..5 {
            f.link(v, v + 1);
        }
        assert_eq!(f.path_sum(1, 4), Some(100));
        assert_eq!(f.path_max(0, 5), Some(50));
        assert_eq!(f.path_min(2, 5), Some(20));
        assert_eq!(f.path_len(0, 5), Some(5));
        assert_eq!(f.path_sum(3, 3), Some(30));
        assert_eq!(f.path_sum(0, 0), Some(0));
    }

    #[test]
    fn path_aggregates_survive_rerooting() {
        let mut f: LinkCutForest = LinkCutForest::new(8);
        for v in 0..8 {
            f.set_weight(v, 1 << v);
        }
        // star centred at 0 plus a tail 3-6-7
        for v in 1..6 {
            f.link(0, v);
        }
        f.link(3, 6);
        f.link(6, 7);
        assert_eq!(
            f.path_sum(7, 5),
            Some((1 << 7) + (1 << 6) + (1 << 3) + 1 + (1 << 5))
        );
        f.make_root(7);
        assert_eq!(f.path_sum(1, 2), Some(2 + 1 + 4));
        assert_eq!(f.path_len(7, 1), Some(4));
    }

    #[test]
    fn lca_with_explicit_root() {
        let mut f: LinkCutForest = LinkCutForest::new(7);
        // 0 - 1, 1 - 2, 1 - 3, 0 - 4, 4 - 5, unrelated 6
        f.link(0, 1);
        f.link(1, 2);
        f.link(1, 3);
        f.link(0, 4);
        f.link(4, 5);
        assert_eq!(f.lca(2, 3, 0), Some(1));
        assert_eq!(f.lca(2, 5, 0), Some(0));
        assert_eq!(f.lca(2, 1, 0), Some(1));
        assert_eq!(f.lca(5, 5, 0), Some(5));
        assert_eq!(f.lca(2, 6, 0), None);
    }

    #[test]
    fn weights_update_after_set() {
        let mut f: LinkCutForest = LinkCutForest::new(3);
        f.link(0, 1);
        f.link(1, 2);
        f.set_weight(1, 7);
        assert_eq!(f.path_sum(0, 2), Some(7));
        f.set_weight(1, -2);
        assert_eq!(f.path_sum(0, 2), Some(-2));
        assert_eq!(f.path_min(0, 2), Some(-2));
        assert_eq!(f.weight(1), -2);
    }

    #[test]
    fn path_apply_shifts_exactly_the_path() {
        use dyntree_primitives::algebra::AddConst;
        let mut f: LinkCutForest = LinkCutForest::new(8);
        for v in 0..8 {
            f.set_weight(v, v as i64 * 10);
        }
        // star centred at 0 plus a tail 3-6-7
        for v in 1..6 {
            f.link(0, v);
        }
        f.link(3, 6);
        f.link(6, 7);
        // path 7-6-3-0-5: five vertices gain 1000
        assert_eq!(f.path_apply(7, 5, AddConst(1000)), Some(5));
        assert_eq!(f.weight(7), 1070);
        assert_eq!(f.weight(6), 1060);
        assert_eq!(f.weight(3), 1030);
        assert_eq!(f.weight(0), 1000);
        assert_eq!(f.weight(5), 1050);
        assert_eq!(f.weight(1), 10, "off-path vertices untouched");
        assert_eq!(f.weight(4), 40);
        assert_eq!(f.path_sum(1, 1), Some(10));
        assert_eq!(f.path_sum(7, 5), Some(1070 + 1060 + 1030 + 1000 + 1050));
        // aggregates reflect the action immediately, and survive rerooting:
        // the 1–2 path runs through the shifted centre 0
        f.make_root(7);
        assert_eq!(f.path_max(1, 2), Some(1000));
        assert_eq!(f.path_sum(1, 2), Some(10 + 1000 + 20));
        // a single-vertex path is a count-1 apply
        assert_eq!(f.path_apply(4, 4, AddConst(2)), Some(1));
        assert_eq!(f.weight(4), 42);
        // disconnected endpoints decline
        let mut g: LinkCutForest = LinkCutForest::new(3);
        assert_eq!(g.path_apply(0, 2, AddConst(1)), None);
    }

    #[test]
    fn stacked_path_applies_compose() {
        use dyntree_primitives::algebra::AddConst;
        let n = 400;
        let mut f: LinkCutForest = LinkCutForest::new(n);
        let mut mirror: Vec<i64> = (0..n as i64).collect();
        for v in 0..n {
            f.set_weight(v, v as i64);
        }
        for v in 0..n - 1 {
            f.link(v, v + 1);
        }
        // overlapping segment shifts on the path graph, mirrored naively
        let segs = [
            (10usize, 200usize, 7i64),
            (150, 399, -3),
            (0, 180, 11),
            (180, 150, 5),
        ];
        for &(a, b, d) in &segs {
            assert_eq!(
                f.path_apply(a, b, AddConst(d)),
                Some((a.abs_diff(b) + 1) as u64)
            );
            let (lo, hi) = (a.min(b), a.max(b));
            for m in mirror[lo..=hi].iter_mut() {
                *m += d;
            }
        }
        for v in (0..n).step_by(13) {
            assert_eq!(f.weight(v), mirror[v], "vertex {v}");
        }
        let want: i64 = mirror.iter().sum();
        assert_eq!(f.path_sum(0, n - 1), Some(want));
        // cut inside a tagged region and check both halves stay consistent
        assert!(f.cut(199, 200));
        let left: i64 = mirror[..200].iter().sum();
        assert_eq!(f.path_sum(0, 199), Some(left));
        assert_eq!(f.path_sum(200, n - 1), Some(want - left));
    }

    #[test]
    fn memory_accounting_is_positive() {
        let f: LinkCutForest = LinkCutForest::new(1000);
        assert!(f.memory_bytes() >= 1000 * std::mem::size_of::<usize>());
        assert_eq!(f.len(), 1000);
        assert!(!f.is_empty());
    }

    #[test]
    fn long_path_stress() {
        let n = 2000;
        let mut f: LinkCutForest = LinkCutForest::new(n);
        for v in 0..n {
            f.set_weight(v, v as i64);
        }
        for v in 0..n - 1 {
            assert!(f.link(v, v + 1));
        }
        assert!(f.connected(0, n - 1));
        assert_eq!(f.path_len(0, n - 1), Some(n - 1));
        assert_eq!(f.path_sum(0, n - 1), Some((n as i64 - 1) * n as i64 / 2));
        // cut in the middle
        assert!(f.cut(n / 2, n / 2 + 1));
        assert!(!f.connected(0, n - 1));
        assert!(f.connected(0, n / 2));
        assert!(f.connected(n / 2 + 1, n - 1));
    }
}
