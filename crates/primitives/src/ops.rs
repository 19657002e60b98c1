//! The typed operations vocabulary of the batch-first public API.
//!
//! The connectivity engine (and anything else that maintains a dynamic graph)
//! speaks in [`GraphOp`]s: growable vertex sets, edge insertions/deletions and
//! weight updates, submitted one at a time or as whole batches.  Every
//! operation resolves to an [`OpOutcome`] describing *what actually happened*
//! — an insert may land as a tree or non-tree edge, a delete may split a
//! component — and every failure is a typed [`GraphError`], never a panic and
//! never an ambiguous `false`.
//!
//! Batch submission returns a [`BatchReport`]: the per-op outcomes in order
//! plus aggregate counters (applied / skipped / rejected, vertex and
//! component counts before and after).  "Skipped" is reserved for the two
//! benign idempotent cases — inserting an edge that is already live,
//! deleting one that is not — so that replaying a batch is safe; everything
//! else (self loops, out-of-range vertices, unweighted backends) is
//! "rejected".

use std::fmt;

use crate::telemetry::BatchTelemetry;

/// Why a graph operation or query could not be applied.
///
/// The two *benign* variants — [`DuplicateEdge`](GraphError::DuplicateEdge)
/// and [`MissingEdge`](GraphError::MissingEdge) — mark idempotent no-ops and
/// are counted as "skipped" in a [`BatchReport`]; every other variant is a
/// genuine rejection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphError {
    /// The edge would join a vertex to itself.
    SelfLoop {
        /// The offending vertex.
        v: usize,
    },
    /// A vertex id is not (yet) part of the graph.
    VertexOutOfRange {
        /// The offending vertex.
        v: usize,
        /// Current number of vertices (valid ids are `0..len`).
        len: usize,
    },
    /// The inserted edge is already live.
    DuplicateEdge {
        /// Smaller endpoint (canonical orientation).
        u: usize,
        /// Larger endpoint.
        v: usize,
    },
    /// The deleted edge is not live.
    MissingEdge {
        /// Smaller endpoint (canonical orientation).
        u: usize,
        /// Larger endpoint.
        v: usize,
    },
    /// The backend does not maintain vertex weights.
    Unweighted,
    /// The backend cannot answer this query family (e.g. spanning-tree path
    /// aggregates on the ternarized topology backend, whose answers would be
    /// inexact, or component aggregates on link-cut trees).
    UnsupportedQuery,
    /// A path operation's endpoints lie in different components.  Benign:
    /// like a missing-edge delete, there is simply no path to update, so
    /// replaying the op is an idempotent no-op.
    Disconnected {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl GraphError {
    /// Whether the error marks a benign idempotent no-op (duplicate insert or
    /// missing delete) rather than an invalid request.  Benign errors are
    /// counted as "skipped" in a [`BatchReport`], the rest as "rejected".
    pub fn is_benign(self) -> bool {
        matches!(
            self,
            GraphError::DuplicateEdge { .. }
                | GraphError::MissingEdge { .. }
                | GraphError::Disconnected { .. }
        )
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::SelfLoop { v } => write!(f, "self loop at vertex {v}"),
            GraphError::VertexOutOfRange { v, len } => {
                write!(f, "vertex {v} out of range (graph has {len} vertices)")
            }
            GraphError::DuplicateEdge { u, v } => write!(f, "edge ({u},{v}) is already live"),
            GraphError::MissingEdge { u, v } => write!(f, "edge ({u},{v}) is not live"),
            GraphError::Unweighted => write!(f, "backend does not maintain vertex weights"),
            GraphError::UnsupportedQuery => write!(f, "backend cannot answer this query"),
            GraphError::Disconnected { u, v } => {
                write!(f, "vertices {u} and {v} are not connected")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Whether a live edge is part of the maintained spanning forest or a
/// non-tree (cycle) edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The edge joined two components and entered the spanning forest.
    Tree,
    /// The edge closed a cycle and is kept as a non-tree edge.
    NonTree,
}

/// What a successful edge deletion did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeleteOutcome {
    /// Whether the deleted edge was in the spanning forest.
    pub kind: EdgeKind,
    /// Whether the deletion split a component (only possible for tree edges
    /// with no replacement).
    pub split: bool,
}

/// One operation of a graph-mutation batch, generic over the vertex-weight
/// type `W` (defaults to the workspace's `i64` convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphOp<W = i64> {
    /// Append `count` fresh isolated vertices to the vertex set.
    AddVertices(usize),
    /// Insert edge `(u, v)`.
    InsertEdge(usize, usize),
    /// Delete edge `(u, v)`.
    DeleteEdge(usize, usize),
    /// Set the weight of vertex `v` to `w`.
    SetWeight(usize, W),
    /// Apply the backend monoid's bulk action, interpreted from the weight
    /// delta `w`, to every vertex on the tree path from `u` to `v`
    /// (inclusive).  Benignly skipped when the endpoints are disconnected.
    PathApply(usize, usize, W),
    /// Apply the bulk action interpreted from `w` to every vertex of `v`'s
    /// component.
    ComponentApply(usize, W),
}

/// The most vertices a graph may hold: every structure stores vertex ids as
/// `u32`, so the valid ids are `0..u32::MAX`.
pub const MAX_VERTICES: usize = u32::MAX as usize;

/// Panics unless `n` vertices fit the u32 id storage every structure uses.
/// Constructors and `ensure_vertices` call it before allocating anything.
pub fn assert_id_space(n: usize) {
    assert!(
        n <= MAX_VERTICES,
        "vertex count {n} exceeds the u32 id space ({MAX_VERTICES} vertices)"
    );
}

/// The vertex count after [`GraphOp::AddVertices`]`(count)` on a
/// `len`-vertex graph, or the typed rejection when the growth would pass
/// [`MAX_VERTICES`] (`usize` overflow included).  The one growth check: the
/// connectivity engine and the serving layer's weight mirror both call it,
/// so they always agree on which growth ops applied.
pub fn grown_len(len: usize, count: usize) -> Result<usize, GraphError> {
    match len.checked_add(count) {
        Some(target) if target <= MAX_VERTICES => Ok(target),
        _ => Err(GraphError::VertexOutOfRange { v: usize::MAX, len }),
    }
}

/// The edge list a forest's `batch_link` / `batch_cut` applies: self loops
/// dropped, each edge oriented `(min, max)`, then sorted and deduplicated.
/// Sequential on purpose: a sort of the batch is a small fraction of
/// applying it one `link`/`cut` at a time (DESIGN.md §4).
pub fn normalize_batch(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut cleaned: Vec<(usize, usize)> = edges
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    cleaned.sort_unstable();
    cleaned.dedup();
    cleaned
}

/// What actually happened to one [`GraphOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpOutcome {
    /// `count` vertices were appended; the new ids are `first..first + count`.
    VerticesAdded {
        /// First new vertex id.
        first: usize,
        /// Number of vertices appended.
        count: usize,
    },
    /// The edge was inserted, as a tree or non-tree edge.
    EdgeInserted {
        /// Whether the edge entered the spanning forest.
        kind: EdgeKind,
    },
    /// The edge was deleted.
    EdgeDeleted {
        /// Whether the edge was in the spanning forest.
        kind: EdgeKind,
        /// Whether the deletion split a component.
        split: bool,
    },
    /// The vertex weight was recorded.
    WeightSet,
    /// A bulk action was applied along a tree path.
    PathApplied {
        /// Number of vertices the action touched (both endpoints included;
        /// `1` when the endpoints coincide).
        count: u64,
    },
    /// A bulk action was applied to a whole component.
    ComponentApplied {
        /// Number of vertices the action touched (≥ 1: the anchor itself).
        count: u64,
    },
    /// Benign idempotent no-op (duplicate insert / missing delete /
    /// disconnected path op).
    Skipped(GraphError),
    /// Invalid request (self loop, out-of-range vertex, unweighted backend).
    Rejected(GraphError),
}

impl OpOutcome {
    /// Routes an error to [`Skipped`](OpOutcome::Skipped) or
    /// [`Rejected`](OpOutcome::Rejected) by its
    /// [benign-ness](GraphError::is_benign).
    pub fn from_error(e: GraphError) -> Self {
        if e.is_benign() {
            OpOutcome::Skipped(e)
        } else {
            OpOutcome::Rejected(e)
        }
    }

    /// Whether the operation was applied (mutated the graph).
    pub fn is_applied(&self) -> bool {
        !matches!(self, OpOutcome::Skipped(_) | OpOutcome::Rejected(_))
    }

    /// Whether the operation was a benign no-op.
    pub fn is_skipped(&self) -> bool {
        matches!(self, OpOutcome::Skipped(_))
    }

    /// Whether the operation was rejected as invalid.
    pub fn is_rejected(&self) -> bool {
        matches!(self, OpOutcome::Rejected(_))
    }

    /// The error carried by a skipped or rejected outcome.
    pub fn error(&self) -> Option<GraphError> {
        match *self {
            OpOutcome::Skipped(e) | OpOutcome::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

/// The result of applying a batch of [`GraphOp`]s: per-op outcomes in batch
/// order plus aggregate counters.
///
/// ```
/// use dyntree_primitives::ops::{BatchReport, EdgeKind, GraphError, OpOutcome};
///
/// let mut report = BatchReport::new(4, 4);
/// report.record(OpOutcome::EdgeInserted { kind: EdgeKind::Tree });
/// report.record(OpOutcome::from_error(GraphError::DuplicateEdge { u: 0, v: 1 }));
/// report.record(OpOutcome::from_error(GraphError::SelfLoop { v: 2 }));
/// report.close(4, 3);
/// assert_eq!((report.applied, report.skipped, report.rejected), (1, 1, 1));
/// assert_eq!(report.components_before - report.components_after, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// One outcome per submitted op, in order.
    pub outcomes: Vec<OpOutcome>,
    /// Number of ops that mutated the graph.
    pub applied: usize,
    /// Number of benign no-ops (duplicate inserts, missing deletes).
    pub skipped: usize,
    /// Number of invalid ops (self loops, out-of-range vertices, ...).
    pub rejected: usize,
    /// Vertex count before the batch.
    pub vertices_before: usize,
    /// Vertex count after the batch.
    pub vertices_after: usize,
    /// Connected-component count before the batch.
    pub components_before: usize,
    /// Connected-component count after the batch.
    pub components_after: usize,
    /// Engine version (monotone batch counter) *after* this batch was
    /// applied.  Serves as the canonical epoch id for snapshot publication:
    /// a snapshot published from this batch carries exactly this number.
    pub version: u64,
    /// Per-batch telemetry delta, attached only when the engine's
    /// [`Telemetry`](crate::Telemetry) handle is enabled.  Contains wall
    /// timings, so reports with telemetry attached are not byte-comparable
    /// across runs (counters are; see the determinism contract).
    pub telemetry: Option<BatchTelemetry>,
}

impl BatchReport {
    /// An empty report opened on the pre-batch vertex and component counts.
    pub fn new(vertices_before: usize, components_before: usize) -> Self {
        BatchReport {
            vertices_before,
            vertices_after: vertices_before,
            components_before,
            components_after: components_before,
            ..Default::default()
        }
    }

    /// Appends one outcome, updating the aggregate counters.
    pub fn record(&mut self, outcome: OpOutcome) {
        if outcome.is_applied() {
            self.applied += 1;
        } else if outcome.is_skipped() {
            self.skipped += 1;
        } else {
            self.rejected += 1;
        }
        self.outcomes.push(outcome);
    }

    /// Seals the report with the post-batch vertex and component counts.
    pub fn close(&mut self, vertices_after: usize, components_after: usize) {
        self.vertices_after = vertices_after;
        self.components_after = components_after;
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops: {} applied, {} skipped, {} rejected | vertices {} -> {} | components {} -> {} | v{}",
            self.len(),
            self.applied,
            self.skipped,
            self.rejected,
            self.vertices_before,
            self.vertices_after,
            self.components_before,
            self.components_after,
            self.version,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_errors_are_skipped_the_rest_rejected() {
        assert!(GraphError::DuplicateEdge { u: 0, v: 1 }.is_benign());
        assert!(GraphError::MissingEdge { u: 0, v: 1 }.is_benign());
        assert!(!GraphError::SelfLoop { v: 3 }.is_benign());
        assert!(!GraphError::VertexOutOfRange { v: 9, len: 4 }.is_benign());
        assert!(!GraphError::Unweighted.is_benign());
        assert!(!GraphError::UnsupportedQuery.is_benign());
        assert!(GraphError::Disconnected { u: 0, v: 1 }.is_benign());
        assert!(OpOutcome::from_error(GraphError::MissingEdge { u: 0, v: 1 }).is_skipped());
        assert!(OpOutcome::from_error(GraphError::Unweighted).is_rejected());
        assert!(OpOutcome::from_error(GraphError::Disconnected { u: 0, v: 1 }).is_skipped());
        assert!(OpOutcome::PathApplied { count: 3 }.is_applied());
        assert!(OpOutcome::ComponentApplied { count: 1 }.is_applied());
    }

    #[test]
    fn report_counters_track_outcomes() {
        let mut r = BatchReport::new(10, 10);
        r.record(OpOutcome::VerticesAdded {
            first: 10,
            count: 2,
        });
        r.record(OpOutcome::EdgeInserted {
            kind: EdgeKind::Tree,
        });
        r.record(OpOutcome::EdgeDeleted {
            kind: EdgeKind::NonTree,
            split: false,
        });
        r.record(OpOutcome::WeightSet);
        r.record(OpOutcome::Skipped(GraphError::DuplicateEdge { u: 1, v: 2 }));
        r.record(OpOutcome::Rejected(GraphError::SelfLoop { v: 0 }));
        r.close(12, 11);
        r.version = 7;
        assert_eq!(r.len(), 6);
        assert_eq!((r.applied, r.skipped, r.rejected), (4, 1, 1));
        assert_eq!(r.vertices_after, 12);
        assert_eq!(r.components_after, 11);
        assert!(!r.is_empty());
        let line = r.to_string();
        assert!(line.contains("4 applied") && line.contains("1 rejected"));
        assert!(line.ends_with("| v7"));
    }

    #[test]
    fn growth_stops_at_the_u32_id_space() {
        assert_eq!(grown_len(3, 4), Ok(7));
        assert_eq!(grown_len(0, MAX_VERTICES), Ok(MAX_VERTICES));
        let reject = |len| Err(GraphError::VertexOutOfRange { v: usize::MAX, len });
        assert_eq!(grown_len(1, MAX_VERTICES), reject(1));
        assert_eq!(grown_len(0, 1 << 32), reject(0));
        assert_eq!(grown_len(5, usize::MAX), reject(5));
    }

    #[test]
    fn batches_normalise_to_sorted_unique_oriented_edges() {
        // reversed duplicates collapse, self loops drop, order is canonical
        let batch = [(3, 1), (0, 2), (1, 3), (2, 2), (2, 0), (4, 1), (1, 3)];
        assert_eq!(normalize_batch(&batch), vec![(0, 2), (1, 3), (1, 4)]);
        assert!(normalize_batch(&[(5, 5)]).is_empty());
        assert!(normalize_batch(&[]).is_empty());
    }

    #[test]
    fn errors_render_their_context() {
        assert_eq!(
            GraphError::VertexOutOfRange { v: 7, len: 3 }.to_string(),
            "vertex 7 out of range (graph has 3 vertices)"
        );
        assert_eq!(
            GraphError::DuplicateEdge { u: 1, v: 2 }.to_string(),
            "edge (1,2) is already live"
        );
        assert_eq!(OpOutcome::WeightSet.error(), None);
        assert_eq!(
            OpOutcome::Rejected(GraphError::Unweighted).error(),
            Some(GraphError::Unweighted)
        );
        assert_eq!(
            GraphError::Disconnected { u: 4, v: 9 }.to_string(),
            "vertices 4 and 9 are not connected"
        );
    }
}
