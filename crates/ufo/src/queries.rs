//! Read-only queries over the contraction hierarchy.
//!
//! Every query walks the `O(min(log n, D))`-height hierarchy from the leaf
//! clusters of its arguments towards the root, combining the per-cluster
//! summaries.  No query mutates the structure and the forest is `Sync`, so
//! any number of queries can run concurrently from shared references while
//! no update is in flight.  Each public query here reads summaries, so it
//! panics on an unsettled forest
//! ([`ContractionForest::settle`]) instead of answering from stale ones.
//!
//! Internally the walks operate on the narrowed `u32` ids used by the flat
//! cluster storage (DESIGN.md §12); the public signatures keep `usize`.

use dyntree_primitives::algebra::SumMinMax;

use crate::engine::{narrow, AdjEntry, ContractionForest};
use crate::summary::{Agg, CommutativeMonoid, Extent, Extents};
use crate::{ClusterId, Vertex, INF_DIST, NIL32};

/// Looks up the interior aggregate for boundary vertex `v` in a walk state.
fn lookup<M: CommutativeMonoid>(state: &[(u32, Agg<M>)], v: u32) -> Option<Agg<M>> {
    state.iter().find(|(b, _)| *b == v).map(|(_, a)| *a)
}

impl<M: CommutativeMonoid, X: Extent> ContractionForest<M, X> {
    /// Aggregate over the vertex weights on the `u`–`v` path (both endpoints
    /// inclusive), or `None` if `u` and `v` are not connected.
    pub fn path_aggregate(&self, u: Vertex, v: Vertex) -> Option<Agg<M>> {
        self.assert_settled();
        if u >= self.len() || v >= self.len() {
            return None;
        }
        if u == v {
            return Some(self.vertex_path_value(u));
        }
        let cu = self.ancestor_chain(u);
        let cv = self.ancestor_chain(v);
        let lca_level = (0..cu.len().min(cv.len())).find(|&l| cu[l] == cv[l])?;
        debug_assert!(lca_level >= 1);
        let lca = narrow(cu[lca_level]);
        let child_u = narrow(cu[lca_level - 1]);
        let child_v = narrow(cv[lca_level - 1]);

        // interior aggregates from u / v to every boundary of their child of
        // the LCA cluster
        let state_u = self.walk_state(u, &cu[..lca_level])?;
        let state_v = self.walk_state(v, &cv[..lca_level])?;

        // Route from child_u to child_v inside the LCA cluster: either they
        // are directly adjacent (pair merges, leaf-hub) or they both hang off
        // the hub child (star merges).
        let direct = self.edge_between(child_u, child_v);
        let (interior_to_entry, entry) = if let Some(e) = direct {
            let base = lookup(&state_u, e.my_end)?;
            (
                self.extend_across(base, u, &e, child_v, e.other_end),
                e.other_end,
            )
        } else {
            // two hops through the hub
            let mut found = None;
            for e1 in self.internal_edges(child_u, lca) {
                let hub = e1.neighbor;
                if let Some(e2) = self.edge_between(hub, child_v) {
                    let base = lookup(&state_u, e1.my_end)?;
                    let through_hub = self.extend_across(base, u, &e1, hub, e2.my_end);
                    let into_v = self.extend_across(through_hub, u, &e2, child_v, e2.other_end);
                    found = Some((into_v, e2.other_end));
                    break;
                }
            }
            found?
        };

        let sv = lookup(&state_v, entry)?;
        let mut total = self.vertex_path_value(u);
        total = Agg::combine(total, interior_to_entry);
        if entry as usize != v {
            total = Agg::combine(total, self.vertex_path_value(entry as usize));
        }
        total = Agg::combine(total, sv);
        total = Agg::combine(total, self.vertex_path_value(v));
        Some(total)
    }

    /// Number of edges on the `u`–`v` path.
    pub fn path_length(&self, u: Vertex, v: Vertex) -> Option<u64> {
        self.path_aggregate(u, v).map(|a| a.edges)
    }

    /// Aggregate over every vertex of the component containing `v`.
    pub fn component_aggregate(&self, v: Vertex) -> Agg<M> {
        self.assert_settled();
        self.clusters[self.top_cluster(v)].summary.sub
    }

    /// Number of (non-phantom) vertices in the component containing `v`.
    pub fn component_size(&self, v: Vertex) -> u64 {
        self.component_aggregate(v).count
    }

    /// Aggregate over the subtree of `v` on the far side of its neighbour
    /// `parent` (i.e. the component of `v` after removing edge `(v, parent)`),
    /// or `None` if `(v, parent)` is not an edge.
    pub fn subtree_aggregate(&self, v: Vertex, parent: Vertex) -> Option<Agg<M>> {
        self.assert_settled();
        if !self.has_edge(v, parent) {
            return None;
        }
        let cu = self.ancestor_chain(v);
        let cp = self.ancestor_chain(parent);
        let lca_level = (0..cu.len().min(cp.len())).find(|&l| cu[l] == cp[l])?;
        let child_v = narrow(cu[lca_level - 1]);
        let child_p = narrow(cp[lca_level - 1]);
        let lca = narrow(cu[lca_level]);

        let mut acc = self.clusters[child_v].summary.sub;

        // v-side siblings inside the LCA cluster: only non-trivial when the
        // child containing v is the hub of a star merge.
        let hub = self.hub_of(lca);
        if self.clusters[lca].fanout() > 2 && hub == Some(child_v) {
            for e in self.internal_edges(child_v, lca) {
                let s = e.neighbor;
                if s != child_p && s != child_v {
                    acc = Agg::combine(acc, self.clusters[s].summary.sub);
                }
            }
        }

        // v-side boundary vertices of the LCA cluster.
        let mut vside: Vec<u32> = Vec::with_capacity(2);
        let lca_sum = &self.clusters[lca].summary;
        for i in 0..lca_sum.nbound as usize {
            let b = lca_sum.boundary[i];
            if self.child_side(lca, b, child_v, child_p, hub) {
                vside.push(b);
            }
        }

        // Walk towards the root, absorbing v-side siblings.
        let mut x = lca;
        let mut bset = vside;
        loop {
            if bset.is_empty() {
                break;
            }
            let p = self.parents[x];
            if p == NIL32 {
                break;
            }
            // siblings directly adjacent to x
            let internal = self.internal_edges(x, p);
            let x_sum = &self.clusters[x].summary;
            let all_vside = bset.len() == x_sum.nbound as usize;
            for e in &internal {
                let attach = e.my_end;
                let sib_vside = bset.contains(&attach);
                if sib_vside {
                    acc = Agg::combine(acc, self.clusters[e.neighbor].summary.sub);
                    // if the sibling is the hub of a star, the other leaves
                    // hang off it and are v-side too
                    if self.clusters[p].fanout() > 2 && self.hub_of(p) == Some(e.neighbor) {
                        for e2 in self.internal_edges(e.neighbor, p) {
                            if e2.neighbor != x {
                                acc = Agg::combine(acc, self.clusters[e2.neighbor].summary.sub);
                            }
                        }
                    }
                }
            }
            // new v-side boundary set for the parent
            let p_sum = &self.clusters[p].summary;
            let mut new_bset = Vec::with_capacity(2);
            for i in 0..p_sum.nbound as usize {
                let b = p_sum.boundary[i];
                let side = if x_sum.boundary_index(b).is_some() {
                    bset.contains(&b)
                } else {
                    // b lies in a sibling: the sibling's side decides
                    self.sibling_side(x, p, b, &bset, &internal)
                };
                if side {
                    new_bset.push(b);
                }
            }
            let _ = all_vside;
            bset = new_bset;
            x = p;
        }
        Some(acc)
    }

    /// Number of vertices in the subtree of `v` away from `parent`.
    pub fn subtree_size(&self, v: Vertex, parent: Vertex) -> Option<u64> {
        self.subtree_aggregate(v, parent).map(|a| a.count)
    }

    // ------------------------------------------------------------------
    // walk helpers
    // ------------------------------------------------------------------

    /// Interior aggregates from `origin` to every boundary vertex of the last
    /// cluster of `chain` (the chain runs from the leaf of `origin` upwards).
    /// The `edges` field of each aggregate is the number of edges between the
    /// two vertices.
    fn walk_state(&self, origin: Vertex, chain: &[ClusterId]) -> Option<Vec<(u32, Agg<M>)>> {
        let mut state: Vec<(u32, Agg<M>)> = vec![(narrow(origin), Agg::IDENTITY)];
        for w in chain.windows(2) {
            let (c, p) = (narrow(w[0]), narrow(w[1]));
            state = self.interior_state(origin, c, p, &state)?;
        }
        Some(state)
    }

    fn interior_state(
        &self,
        origin: Vertex,
        c: u32,
        p: u32,
        state: &[(u32, Agg<M>)],
    ) -> Option<Vec<(u32, Agg<M>)>> {
        let p_sum = &self.clusters[p].summary;
        let c_sum = &self.clusters[c].summary;
        let internal = self.internal_edges(c, p);
        let mut out = Vec::with_capacity(2);
        for i in 0..p_sum.nbound as usize {
            let b = p_sum.boundary[i];
            if c_sum.boundary_index(b).is_some() {
                if let Some((_, a)) = state.iter().find(|(x, _)| *x == b) {
                    out.push((b, *a));
                    continue;
                }
            }
            // b lies in a sibling reachable from c via one internal edge, or
            // via the hub (two hops).
            let mut found = false;
            for e in &internal {
                let ssum = &self.clusters[e.neighbor].summary;
                if ssum.boundary_index(b).is_some() {
                    if let Some((_, base)) = state.iter().find(|(x, _)| *x == e.my_end) {
                        out.push((b, self.extend_across(*base, origin, e, e.neighbor, b)));
                        found = true;
                    }
                    break;
                }
            }
            if !found {
                // two hops: through the (single) adjacent sibling of c
                for e in &internal {
                    let hubc = e.neighbor;
                    let base = match state.iter().find(|(x, _)| *x == e.my_end) {
                        Some((_, a)) => *a,
                        None => continue,
                    };
                    for e2 in self.internal_edges(hubc, p) {
                        if e2.neighbor == c {
                            continue;
                        }
                        let s2 = &self.clusters[e2.neighbor].summary;
                        if s2.boundary_index(b).is_some() {
                            let to_hub_far = self.extend_across(base, origin, e, hubc, e2.my_end);
                            let e2_adj = AdjEntry {
                                neighbor: e2.neighbor,
                                my_end: e2.my_end,
                                other_end: e2.other_end,
                            };
                            out.push((
                                b,
                                self.extend_across(to_hub_far, origin, &e2_adj, e2.neighbor, b),
                            ));
                            found = true;
                            break;
                        }
                    }
                    if found {
                        break;
                    }
                }
            }
            if !found {
                return None;
            }
        }
        Some(out)
    }

    /// Extends an interior aggregate across the edge `e` (from the cluster
    /// containing `e.my_end` into the cluster `s` containing `e.other_end`)
    /// and further to `target`, a boundary vertex of `s`.
    fn extend_across(
        &self,
        base: Agg<M>,
        origin: Vertex,
        e: &AdjEntry,
        s: u32,
        target: u32,
    ) -> Agg<M> {
        let mut agg = base;
        if e.my_end as usize != origin {
            agg = Agg::combine(agg, self.vertex_path_value(e.my_end as usize));
        }
        agg = agg.cross_edge();
        if e.other_end != target {
            agg = Agg::combine(agg, self.vertex_path_value(e.other_end as usize));
            let ssum = &self.clusters[s].summary;
            if ssum.boundary_distance(e.other_end, target) > 0 {
                agg = Agg::combine(agg, ssum.path);
            }
        }
        agg
    }

    /// The adjacency entry of `a` towards `b`, read from the shorter of the
    /// two lists (a hub's list is as long as its degree).
    fn edge_between(&self, a: u32, b: u32) -> Option<AdjEntry> {
        let (la, lb) = (&self.clusters[a].neighbors, &self.clusters[b].neighbors);
        if la.len() <= lb.len() {
            la.iter().find(|e| e.neighbor == b).copied()
        } else {
            lb.iter().find(|e| e.neighbor == a).map(|e| AdjEntry {
                neighbor: b,
                my_end: e.other_end,
                other_end: e.my_end,
            })
        }
    }

    /// Internal (sibling) edges of `c` within its parent `p`.  A freed slot
    /// has no parent, so a neighbour whose parent is `p` is live.
    fn internal_edges(&self, c: u32, p: u32) -> Vec<AdjEntry> {
        self.clusters[c]
            .neighbors
            .iter()
            .filter(|e| self.parents[e.neighbor] == p)
            .copied()
            .collect()
    }

    /// The hub child of `p` (slot 0, DESIGN.md §2), if `p` has more than
    /// one child.
    fn hub_of(&self, p: u32) -> Option<u32> {
        let children = &self.clusters[p].children;
        (children.len() >= 2).then(|| children[0])
    }

    /// Whether boundary vertex `b` of the LCA cluster is on `v`'s side of the
    /// removed edge, given the children containing `v` and `p`.
    fn child_side(&self, lca: u32, b: u32, child_v: u32, child_p: u32, hub: Option<u32>) -> bool {
        if self.clusters[child_v].summary.boundary_index(b).is_some() {
            return true;
        }
        if self.clusters[child_p].summary.boundary_index(b).is_some() {
            return false;
        }
        // b lies in some other sibling: that sibling hangs off the hub, so it
        // is v-side exactly when v's child is the hub.
        let _ = lca;
        hub == Some(child_v)
    }

    /// Side of the sibling containing boundary vertex `b` of the parent `p`.
    fn sibling_side(&self, x: u32, p: u32, b: u32, bset: &[u32], internal: &[AdjEntry]) -> bool {
        // direct siblings
        for e in internal {
            if self.clusters[e.neighbor]
                .summary
                .boundary_index(b)
                .is_some()
            {
                return bset.contains(&e.my_end);
            }
        }
        // two-hop siblings (through the hub)
        for e in internal {
            for e2 in self.internal_edges(e.neighbor, p) {
                if e2.neighbor == x {
                    continue;
                }
                if self.clusters[e2.neighbor]
                    .summary
                    .boundary_index(b)
                    .is_some()
                {
                    return bset.contains(&e.my_end);
                }
            }
        }
        false
    }
}

/// The queries that exist only under the [`Extents`] policy: they read the
/// eccentricities, diameters and nearest-marked distances a [`Core`](crate::Core)
/// forest does not keep.
impl<M: CommutativeMonoid> ContractionForest<M, Extents> {
    /// Diameter, in edges, of the component containing `v`.
    pub fn component_diameter(&self, v: Vertex) -> u64 {
        self.assert_settled();
        self.clusters[self.top_cluster(v)].summary.ext.diam
    }

    /// Distance (in edges) from `v` to the nearest marked vertex in its
    /// component, or `None` if no marked vertex is reachable.
    pub fn nearest_marked_distance(&self, v: Vertex) -> Option<u64> {
        self.assert_settled();
        let mut best = if self.is_marked(v) { 0 } else { INF_DIST };
        // state: distance from v to each boundary vertex of the current cluster
        let mut state: Vec<(u32, u64)> = vec![(narrow(v), 0)];
        let chain = self.ancestor_chain(v);
        for w in chain.windows(2) {
            let (c, p) = (narrow(w[0]), narrow(w[1]));
            let internal = self.internal_edges(c, p);
            // fold siblings into `best`
            for e in &internal {
                let s = e.neighbor;
                let dist_to_attach = state
                    .iter()
                    .find(|(b, _)| *b == e.my_end)
                    .map(|(_, d)| *d)
                    .unwrap_or(INF_DIST);
                let ssum = &self.clusters[s].summary;
                if let Some(si) = ssum.boundary_index(e.other_end) {
                    best = best.min(
                        dist_to_attach
                            .saturating_add(1)
                            .saturating_add(ssum.ext.near[si]),
                    );
                }
                // second-hop siblings (leaves of a star hanging off this hub)
                if self.clusters[p].fanout() > 2 && self.hub_of(p) == Some(s) {
                    for e2 in self.internal_edges(s, p) {
                        if e2.neighbor == c {
                            continue;
                        }
                        let s2 = &self.clusters[e2.neighbor].summary;
                        if let (Some(hi), Some(si2)) = (
                            ssum.boundary_index(e.other_end),
                            s2.boundary_index(e2.other_end),
                        ) {
                            let through = ssum.boundary_distance(ssum.boundary[hi], e2.my_end);
                            best = best.min(
                                dist_to_attach
                                    .saturating_add(1)
                                    .saturating_add(through)
                                    .saturating_add(1)
                                    .saturating_add(s2.ext.near[si2]),
                            );
                        }
                    }
                }
            }
            // new state for the parent's boundaries
            state = self.distance_state(c, p, &state, &internal);
        }
        if best >= INF_DIST {
            None
        } else {
            Some(best)
        }
    }

    /// Distance-only version of [`interior_state`] used by nearest-marked
    /// queries (falls back to `INF_DIST` for unreachable boundaries).
    fn distance_state(
        &self,
        c: u32,
        p: u32,
        state: &[(u32, u64)],
        internal: &[AdjEntry],
    ) -> Vec<(u32, u64)> {
        let p_sum = &self.clusters[p].summary;
        let c_sum = &self.clusters[c].summary;
        let mut out = Vec::with_capacity(2);
        for i in 0..p_sum.nbound as usize {
            let b = p_sum.boundary[i];
            if c_sum.boundary_index(b).is_some() {
                if let Some((_, d)) = state.iter().find(|(x, _)| *x == b) {
                    out.push((b, *d));
                    continue;
                }
            }
            let mut best = INF_DIST;
            for e in internal {
                let base = state
                    .iter()
                    .find(|(x, _)| *x == e.my_end)
                    .map(|(_, d)| *d)
                    .unwrap_or(INF_DIST);
                let ssum = &self.clusters[e.neighbor].summary;
                if ssum.boundary_index(b).is_some() {
                    best = best.min(
                        base.saturating_add(1)
                            .saturating_add(ssum.boundary_distance(e.other_end, b)),
                    );
                } else {
                    // two hops via this sibling
                    for e2 in self.internal_edges(e.neighbor, p) {
                        if e2.neighbor == c {
                            continue;
                        }
                        let s2 = &self.clusters[e2.neighbor].summary;
                        if s2.boundary_index(b).is_some() {
                            best = best.min(
                                base.saturating_add(1)
                                    .saturating_add(ssum.boundary_distance(e.other_end, e2.my_end))
                                    .saturating_add(1)
                                    .saturating_add(s2.boundary_distance(e2.other_end, b)),
                            );
                        }
                    }
                }
            }
            out.push((b, best));
        }
        out
    }
}

/// The historical `i64` convenience surface, preserved for the default
/// monoid.
impl<X: Extent> ContractionForest<SumMinMax, X> {
    /// Sum of vertex weights on the `u`–`v` path.
    pub fn path_sum(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.sum)
    }

    /// Maximum vertex weight on the `u`–`v` path.
    pub fn path_max(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.max)
    }

    /// Minimum vertex weight on the `u`–`v` path.
    pub fn path_min(&self, u: Vertex, v: Vertex) -> Option<i64> {
        self.path_aggregate(u, v).map(|a| a.min)
    }

    /// Sum of vertex weights in the subtree of `v` away from `parent`.
    pub fn subtree_sum(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.sum)
    }

    /// Maximum vertex weight in the subtree of `v` away from `parent`
    /// (a non-invertible aggregate, per Section 4.2 of the paper).
    pub fn subtree_max(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.max)
    }

    /// Minimum vertex weight in the subtree of `v` away from `parent`.
    pub fn subtree_min(&self, v: Vertex, parent: Vertex) -> Option<i64> {
        self.subtree_aggregate(v, parent).map(|a| a.min)
    }
}
