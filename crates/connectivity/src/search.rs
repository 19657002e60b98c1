//! The HDT replacement-search core, factored out of the engine.  It works on
//! the engine's [`LevelAdjacency`] and edge registry directly (two disjoint
//! field borrows) and never touches the backend: the caller links the
//! promoted edge.
//!
//! The tree-edge level bumps of each pass run as a grouped collect-then-apply
//! sweep over the side, and the side queues, the bump buffer and the drained
//! non-tree bucket live in a reusable [`SearchScratch`] arena instead of
//! fresh allocations per search.  The lock-step BFS walks borrowed adjacency
//! slices ([`LevelAdjacency::tree_neighbors_from`]) through a slice cursor,
//! so with warm scratch a search allocates nothing (DESIGN.md §12).  The
//! non-tree scan is a strictly sequential early-exit loop: its scanned-edge
//! count is part of the deterministic telemetry contract, and the first
//! qualifying edge — in canonical bucket order — must be the one promoted.

use dyntree_primitives::hash::FxHashMap;

use dyntree_primitives::telemetry::{Counter, Phase};
use dyntree_primitives::Telemetry;

use crate::levels::LevelAdjacency;
use crate::Vertex;

/// Book-keeping for one live edge (level only ever increases; `tree` tracks
/// spanning-forest membership).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EdgeInfo {
    pub(crate) level: usize,
    pub(crate) tree: bool,
}

/// Canonical `(min, max)` orientation for an undirected edge key.
#[inline]
pub(crate) fn canonical(u: Vertex, v: Vertex) -> (Vertex, Vertex) {
    (u.min(v), u.max(v))
}

/// The registry record of live edge `(u, v)`.
fn record(
    edges: &mut FxHashMap<(Vertex, Vertex), EdgeInfo>,
    u: Vertex,
    v: Vertex,
) -> &mut EdgeInfo {
    edges.get_mut(&canonical(u, v)).expect("live edge")
}

/// Reusable per-engine search scratch: the two lock-step side queues, the
/// bump-pair buffer and the non-tree bucket the scan drains into.  With
/// these warm, a replacement search allocates nothing (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchScratch {
    queue_a: Vec<Vertex>,
    queue_b: Vec<Vertex>,
    bump_pairs: Vec<(Vertex, Vertex)>,
    bucket: Vec<Vertex>,
}

impl SearchScratch {
    /// Whether this arena has warm capacity from a previous search (feeds
    /// the `scratch_arena_reuses` telemetry counter).
    fn warm(&self) -> bool {
        self.queue_a.capacity() != 0 || self.queue_b.capacity() != 0
    }

    /// Exact heap bytes held by the arena: `capacity × entry size` per
    /// buffer.
    pub fn memory_bytes(&self) -> usize {
        let vertex = std::mem::size_of::<Vertex>();
        (self.queue_a.capacity() + self.queue_b.capacity() + self.bucket.capacity()) * vertex
            + self.bump_pairs.capacity() * std::mem::size_of::<(Vertex, Vertex)>()
    }
}

/// One side of the per-edge lock-step BFS: each `step` consumes at most one
/// level ≥ `level` adjacency entry of the frontier (lower-level entries are
/// never visited — the bucketed adjacency keeps them out of the slice), so
/// alternating two sides costs `O(min(|A|, |B|))` `F_level` edges before
/// the smaller one exhausts.  The side is a cursor: the index of the vertex
/// being expanded plus the unconsumed rest of its borrowed adjacency slice,
/// so stepping allocates nothing.  The queue lives in the caller's scratch
/// arena.
struct LockstepSide<'a> {
    /// Index of the vertex currently being expanded.
    qi: usize,
    /// The current vertex's level ≥ `level` entries not yet consumed.
    cur: &'a [(u32, u32)],
}

impl<'a> LockstepSide<'a> {
    fn new(adj: &'a LevelAdjacency, start: Vertex, level: usize) -> Self {
        Self {
            qi: 0,
            cur: adj.tree_neighbors_from(start, level),
        }
    }

    /// Consumes one qualifying adjacency entry; returns `false` once the
    /// component is exhausted.
    fn step(
        &mut self,
        adj: &'a LevelAdjacency,
        queue: &mut Vec<Vertex>,
        mark: &mut [u64],
        stamp: u64,
        level: usize,
    ) -> bool {
        loop {
            if let Some((&(_, w), rest)) = self.cur.split_first() {
                self.cur = rest;
                let w = w as Vertex;
                if mark[w] != stamp {
                    mark[w] = stamp;
                    queue.push(w);
                }
                return true;
            }
            self.qi += 1;
            if self.qi >= queue.len() {
                return false;
            }
            self.cur = adj.tree_neighbors_from(queue[self.qi], level);
        }
    }
}

/// Vertex set of the smaller (or tied) of the two `F_level` components
/// containing `u` and `v`, written into one of the two scratch queues;
/// returns `true` when the winner is `queue_a` (seeded from `u`).  Within
/// `F_level` each component is a tree, so the side consuming fewer
/// adjacency entries is exactly the side with fewer vertices — the HDT
/// `n/2^i` promotion invariant selects the right side, and a tiny side
/// split off a hub returns without scanning the hub's adjacency.
// The arguments are disjoint pieces of one `SearchScratch`, passed split so
// the caller can keep borrowing its other fields.
#[allow(clippy::too_many_arguments)]
fn smaller_side_into(
    adj: &LevelAdjacency,
    mark: &mut [u64],
    stamp: &mut u64,
    queue_a: &mut Vec<Vertex>,
    queue_b: &mut Vec<Vertex>,
    u: Vertex,
    v: Vertex,
    level: usize,
) -> bool {
    *stamp += 1;
    let stamp_a = *stamp;
    *stamp += 1;
    let stamp_b = *stamp;
    queue_a.clear();
    queue_b.clear();
    queue_a.push(u);
    queue_b.push(v);
    mark[u] = stamp_a;
    mark[v] = stamp_b;
    let mut a = LockstepSide::new(adj, u, level);
    let mut b = LockstepSide::new(adj, v, level);
    loop {
        if !a.step(adj, queue_a, mark, stamp_a, level) {
            return true;
        }
        if !b.step(adj, queue_b, mark, stamp_b, level) {
            return false;
        }
    }
}

/// HDT replacement search after cutting tree edge `(u, v)` of level `l`.
/// Returns the (canonically oriented) non-tree edge that was promoted as the
/// replacement — the **caller** must apply the backend link — or `None`
/// when the component split.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_replacement(
    adj: &mut LevelAdjacency,
    edges: &mut FxHashMap<(Vertex, Vertex), EdgeInfo>,
    mark: &mut [u64],
    stamp: &mut u64,
    scratch: &mut SearchScratch,
    tel: &Telemetry,
    level_cap: usize,
    u: Vertex,
    v: Vertex,
    l: usize,
) -> Option<(Vertex, Vertex)> {
    let _search_span = tel.span(Phase::ReplacementSearch);
    tel.incr(Counter::ReplacementSearches);
    if scratch.warm() {
        tel.incr(Counter::ScratchArenaReuses);
    }
    for level in (0..=l).rev() {
        // The smaller of the two F_level components the cut produced.
        let side_is_a = {
            let _side_span = tel.span(Phase::SmallerSide);
            smaller_side_into(
                adj,
                mark,
                stamp,
                &mut scratch.queue_a,
                &mut scratch.queue_b,
                u,
                v,
                level,
            )
        };
        let side = std::mem::take(if side_is_a {
            &mut scratch.queue_a
        } else {
            &mut scratch.queue_b
        });
        tel.add(Counter::SmallerSideVertices, side.len() as u64);
        *stamp += 1;
        for &x in &side {
            mark[x] = *stamp;
        }

        // Charge the search: push the side's level-`level` tree edges up, as
        // a grouped collect-then-apply sweep (a bump edits the adjacency the
        // collect reads).  The collect sees each edge from both endpoints;
        // the apply deduplicates by skipping edges already at `level + 1`,
        // bumping each edge exactly once, in first-occurrence order.
        if level + 1 < level_cap {
            let pairs = &mut scratch.bump_pairs;
            pairs.clear();
            for &x in &side {
                pairs.extend(adj.vertex(x).tree_neighbors_at(level).map(|w| (x, w)));
            }
            let mut bumps = 0u64;
            for &(x, w) in pairs.iter() {
                debug_assert_eq!(mark[w], *stamp, "F_level tree edge leaves side");
                if adj.tree_level(x, w) == Some(level) {
                    adj.tree_set_level(x, w, level + 1);
                    record(edges, x, w).level = level + 1;
                    bumps += 1;
                }
            }
            tel.add(Counter::LevelBumpsTree, bumps);
        }

        // Scan the side's level-`level` non-tree edges: the first one
        // leaving the side reconnects the components; the scanned ones
        // before it are pushed up a level (they stay inside the side).
        // Each vertex's bucket is drained wholesale into the scratch buffer
        // and every drained edge re-filed exactly once, so the scan is
        // linear in the number of scanned edges.  The survivors are
        // compacted in place (the kept scanned prefix, then the unscanned
        // tail) and written back from the buffer.  Strictly sequential with
        // early exit — the scanned count and the promoted edge are part of
        // the deterministic contract.
        let mut promoted: Option<(Vertex, Vertex)> = None;
        for &x in &side {
            let bucket = &mut scratch.bucket;
            bucket.clear();
            adj.nontree_take_bucket(x, level, bucket);
            let mut kept = 0;
            let mut found: Option<(usize, Vertex)> = None;
            let mut bumped = 0u64;
            for (i, &y) in bucket.iter().enumerate() {
                if mark[y] != *stamp {
                    found = Some((i, y));
                    break;
                }
                if level + 1 < level_cap {
                    // re-file the mirror at `y` and push both sides up a
                    // level; `x`'s old entry is the drained bucket slot
                    let moved = adj.nontree_remove_one_sided(y, x, level);
                    debug_assert!(moved, "mirror of ({x},{y}) missing");
                    adj.nontree_push_one_sided(y, x, level + 1);
                    adj.nontree_push_one_sided(x, y, level + 1);
                    record(edges, x, y).level = level + 1;
                    bumped += 1;
                } else {
                    kept += 1;
                }
            }
            let scanned = found.map_or(bucket.len(), |(i, _)| i + 1);
            tel.add(Counter::ReplacementEdgesScanned, scanned as u64);
            tel.add(Counter::LevelBumpsNonTree, bumped);
            // drop the bumped edges and the promoted one; unscanned edges
            // keep their level
            bucket.drain(kept..scanned);
            adj.nontree_set_bucket(x, level, bucket);
            if let Some((_, y)) = found {
                // Replacement found: promote to a tree edge (again, `x`'s
                // own entry is the drained slot).
                let removed = adj.nontree_remove_one_sided(y, x, level);
                debug_assert!(removed, "mirror of ({x},{y}) missing");
                adj.tree_insert(x, y, level);
                record(edges, x, y).tree = true;
                tel.incr(Counter::ReplacementPromotions);
                promoted = Some(canonical(x, y));
                break;
            }
        }

        // Return the winner queue to the arena before leaving the pass.
        if side_is_a {
            scratch.queue_a = side;
        } else {
            scratch.queue_b = side;
        }
        if promoted.is_some() {
            return promoted;
        }
    }
    None
}
