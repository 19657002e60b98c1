//! Zero-overhead-when-disabled engine telemetry: relaxed atomic counters and
//! a hierarchical phase timer behind a cloneable [`Telemetry`] handle.
//!
//! Design (DESIGN.md §9):
//! * with the `telemetry` cargo feature **off**, [`Telemetry`] is a unit
//!   struct and every hook is an empty inline function — the instrumented
//!   code compiles to exactly what it was before this module existed;
//! * with the feature **on** but the handle disabled (the default), every
//!   hook is one `Option` branch on a pointer-sized field;
//! * with the handle enabled, counters are relaxed atomic adds and phase
//!   spans are two `Instant` reads plus two relaxed adds per enter/exit.
//!
//! Snapshots ([`TelemetrySnapshot`]) are always compiled, so downstream
//! structs such as `BatchReport` keep the same shape in both feature states.
//! Export is serde-free JSON, hand-rolled in the same idiom as the bench
//! crate's `baseline.rs`.

#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "telemetry")]
use std::sync::Arc;
#[cfg(feature = "telemetry")]
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter / phase taxonomy
// ---------------------------------------------------------------------------

/// Deterministic algorithm counters.  Everything here counts *work the
/// algorithm decided to do*, never wall time, so the determinism contract
/// extends to counters: at a fixed [`ParallelConfig`](crate::ParallelConfig)
/// the whole set is byte-identical across pool widths, and the core HDT
/// counters (searches/scans/bumps/splits/drains) are identical across *any*
/// fan-out because the engine's choices are canonical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Replacement searches started (one per tree-edge delete).
    ReplacementSearches,
    /// Non-tree edges inspected across all replacement-search bucket scans.
    ReplacementEdgesScanned,
    /// Searches that found a replacement edge and promoted it.
    ReplacementPromotions,
    /// Tree edges pushed one level down during smaller-side traversal.
    LevelBumpsTree,
    /// Non-tree edges pushed one level down after a failed bucket probe.
    LevelBumpsNonTree,
    /// Vertices enumerated on the smaller side of a severed tree edge.
    SmallerSideVertices,
    /// Components split by a delete with no replacement.
    ComponentSplits,
    /// Insert certificates issued by the parallel pre-pass.
    InsertCertificatesIssued,
    /// Insert walk steps that trusted a pre-pass certificate.
    InsertCertificatesUsed,
    /// Insert walk steps answered by the chunk-local DSU alone.
    InsertDsuHits,
    /// Live connectivity probes avoided (certificate or DSU hit).
    LiveProbesSaved,
    /// Snapshot connectivity probes issued by the insert pre-pass.
    SnapshotProbes,
    /// Delete classifications issued by the parallel pre-pass.
    DeleteCertificatesIssued,
    /// Non-tree deletes drained without touching the spanning structure.
    DeleteNonTreeDrained,
    /// Delete certificates invalidated by an earlier promotion in the batch.
    DeleteCertificatesStale,
    /// Wholesale component rebuilds taken by the escape hatch instead of
    /// per-edge replacement searches.
    RebuildsTaken,
    /// Replacement-search scratch buffers served from the reusable per-engine
    /// arena instead of a fresh allocation.
    ScratchArenaReuses,
    /// Snapshots published by a serving engine (one per applied batch plus
    /// the epoch-0 bootstrap).  Serving counters form a third family: they
    /// are deterministic for a fixed writer trace but depend on how many
    /// reader handles run, so the differential harness pins both.
    SnapshotsPublished,
    /// Queries answered by `ReadHandle`s against a published snapshot.
    ReaderQueriesServed,
    /// Reader refreshes that found the cached epoch stale and caught up to a
    /// newer published snapshot.
    StaleEpochReads,
}

impl Counter {
    /// Every counter, in canonical export order.
    pub const ALL: [Counter; 20] = [
        Counter::ReplacementSearches,
        Counter::ReplacementEdgesScanned,
        Counter::ReplacementPromotions,
        Counter::LevelBumpsTree,
        Counter::LevelBumpsNonTree,
        Counter::SmallerSideVertices,
        Counter::ComponentSplits,
        Counter::InsertCertificatesIssued,
        Counter::InsertCertificatesUsed,
        Counter::InsertDsuHits,
        Counter::LiveProbesSaved,
        Counter::SnapshotProbes,
        Counter::DeleteCertificatesIssued,
        Counter::DeleteNonTreeDrained,
        Counter::DeleteCertificatesStale,
        Counter::RebuildsTaken,
        Counter::ScratchArenaReuses,
        Counter::SnapshotsPublished,
        Counter::ReaderQueriesServed,
        Counter::StaleEpochReads,
    ];

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ReplacementSearches => "replacement_searches",
            Counter::ReplacementEdgesScanned => "replacement_edges_scanned",
            Counter::ReplacementPromotions => "replacement_promotions",
            Counter::LevelBumpsTree => "level_bumps_tree",
            Counter::LevelBumpsNonTree => "level_bumps_nontree",
            Counter::SmallerSideVertices => "smaller_side_vertices",
            Counter::ComponentSplits => "component_splits",
            Counter::InsertCertificatesIssued => "insert_certificates_issued",
            Counter::InsertCertificatesUsed => "insert_certificates_used",
            Counter::InsertDsuHits => "insert_dsu_hits",
            Counter::LiveProbesSaved => "live_probes_saved",
            Counter::SnapshotProbes => "snapshot_probes",
            Counter::DeleteCertificatesIssued => "delete_certificates_issued",
            Counter::DeleteNonTreeDrained => "delete_nontree_drained",
            Counter::DeleteCertificatesStale => "delete_certificates_stale",
            Counter::RebuildsTaken => "rebuilds_taken",
            Counter::ScratchArenaReuses => "scratch_arena_reuses",
            Counter::SnapshotsPublished => "snapshots_published",
            Counter::ReaderQueriesServed => "reader_queries_served",
            Counter::StaleEpochReads => "stale_epoch_reads",
        }
    }
}

/// Hierarchical phases of one `apply` call.  Each phase accumulates wall
/// nanos independently; the static [`parent`](Phase::parent) links let
/// consumers render the tree and check that children sum to ≤ the parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// The whole batch-apply call (root of the tree).
    Apply,
    /// Parallel insert pre-pass (chunk DSUs + snapshot certificates).
    InsertPrePass,
    /// Sequential insert walk consuming the pre-pass plan.
    InsertWalk,
    /// Parallel delete classification pre-pass.
    DeleteClassify,
    /// Sequential delete walk consuming the classification.
    DeleteWalk,
    /// Grouped non-tree bucket drain (inside the delete walk).
    NonTreeDrain,
    /// HDT replacement search after a severed tree edge.
    ReplacementSearch,
    /// Smaller-side enumeration + tree-edge level bumps (inside the search).
    SmallerSide,
    /// Wholesale component rebuild taken by the escape hatch (inside the
    /// delete walk).
    Rebuild,
    /// Building and publishing an immutable serving snapshot after a batch
    /// (inside the apply span, charged by the serving layer).
    SnapshotBuild,
}

impl Phase {
    /// Every phase, in canonical export order.
    pub const ALL: [Phase; 10] = [
        Phase::Apply,
        Phase::InsertPrePass,
        Phase::InsertWalk,
        Phase::DeleteClassify,
        Phase::DeleteWalk,
        Phase::NonTreeDrain,
        Phase::ReplacementSearch,
        Phase::SmallerSide,
        Phase::Rebuild,
        Phase::SnapshotBuild,
    ];

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Apply => "apply",
            Phase::InsertPrePass => "insert_pre_pass",
            Phase::InsertWalk => "insert_walk",
            Phase::DeleteClassify => "delete_classify",
            Phase::DeleteWalk => "delete_walk",
            Phase::NonTreeDrain => "nontree_drain",
            Phase::ReplacementSearch => "replacement_search",
            Phase::SmallerSide => "smaller_side",
            Phase::Rebuild => "rebuild",
            Phase::SnapshotBuild => "snapshot_build",
        }
    }

    /// Parent phase in the timing tree (`None` for the root).
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::Apply => None,
            Phase::InsertPrePass
            | Phase::InsertWalk
            | Phase::DeleteClassify
            | Phase::DeleteWalk => Some(Phase::Apply),
            Phase::NonTreeDrain | Phase::ReplacementSearch | Phase::Rebuild => {
                Some(Phase::DeleteWalk)
            }
            Phase::SmallerSide => Some(Phase::ReplacementSearch),
            Phase::SnapshotBuild => Some(Phase::Apply),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots (always compiled)
// ---------------------------------------------------------------------------

/// Accumulated time and entry count for one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (stable snake_case).
    pub phase: &'static str,
    /// Parent phase name, `None` for the root.
    pub parent: Option<&'static str>,
    /// Total wall nanoseconds accumulated inside the phase.
    pub nanos: u64,
    /// Number of times the phase was entered.
    pub enters: u64,
}

/// A point-in-time copy of every counter and phase accumulator.
///
/// Always compiled (even without the `telemetry` feature) so that report
/// types embedding it keep one shape; without the feature it can only ever
/// be [`zeroed`](TelemetrySnapshot::zeroed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// `(name, value)` per counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-phase stats, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStat>,
}

impl TelemetrySnapshot {
    /// A snapshot with the full taxonomy and every value zero.
    pub fn zeroed() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: Counter::ALL.iter().map(|c| (c.name(), 0)).collect(),
            phases: Phase::ALL
                .iter()
                .map(|p| PhaseStat {
                    phase: p.name(),
                    parent: p.parent().map(Phase::name),
                    nanos: 0,
                    enters: 0,
                })
                .collect(),
        }
    }

    /// Value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Stats for the named phase, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// Positional difference `self - earlier` (saturating), for turning two
    /// cumulative snapshots into a per-batch delta.
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| (name, v.saturating_sub(earlier.counter(name))))
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|p| {
                let (en, ee) = earlier
                    .phase(p.phase)
                    .map_or((0, 0), |e| (e.nanos, e.enters));
                PhaseStat {
                    phase: p.phase,
                    parent: p.parent,
                    nanos: p.nanos.saturating_sub(en),
                    enters: p.enters.saturating_sub(ee),
                }
            })
            .collect();
        TelemetrySnapshot { counters, phases }
    }

    /// One-line fingerprint of the *counters only* (no timings), used by the
    /// determinism tests and the fuzz harness: equal work → equal string.
    pub fn counters_fingerprint(&self) -> String {
        let mut s = String::new();
        for &(name, v) in &self.counters {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(name);
            s.push('=');
            s.push_str(&v.to_string());
        }
        s
    }

    /// Serialises to JSON (serde-free, same idiom as the bench baselines).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [\n");
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"counter\": \"{name}\", \"value\": {v}}}{sep}\n"
            ));
        }
        out.push_str("  ],\n  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i + 1 == self.phases.len() { "" } else { "," };
            let parent = p.parent.unwrap_or("");
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"parent\": \"{}\", \"nanos\": {}, \"enters\": {}}}{sep}\n",
                p.phase, parent, p.nanos, p.enters
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the output of [`to_json`](Self::to_json).  Tolerates unknown
    /// whitespace but not unknown counter/phase names (a renamed counter
    /// must fail loudly, not silently drop a column).
    pub fn parse(text: &str) -> Result<TelemetrySnapshot, String> {
        let mut snap = TelemetrySnapshot::zeroed();
        for obj in json_objects(text) {
            if let Some(name) = json_str_field(&obj, "counter") {
                let value = json_u64_field(&obj, "value")
                    .ok_or_else(|| format!("counter {name:?} has no value"))?;
                let slot = snap
                    .counters
                    .iter_mut()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("unknown counter {name:?}"))?;
                slot.1 = value;
            } else if let Some(name) = json_str_field(&obj, "phase") {
                let nanos = json_u64_field(&obj, "nanos")
                    .ok_or_else(|| format!("phase {name:?} has no nanos"))?;
                let enters = json_u64_field(&obj, "enters")
                    .ok_or_else(|| format!("phase {name:?} has no enters"))?;
                let slot = snap
                    .phases
                    .iter_mut()
                    .find(|p| p.phase == name)
                    .ok_or_else(|| format!("unknown phase {name:?}"))?;
                slot.nanos = nanos;
                slot.enters = enters;
            } else {
                return Err(format!("object with neither counter nor phase: {obj}"));
            }
        }
        Ok(snap)
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<26} {:>14} {:>10}", "phase", "nanos", "enters")?;
        for p in &self.phases {
            let depth = {
                let mut d = 0;
                let mut cur = p.parent;
                while let Some(parent) = cur {
                    d += 1;
                    cur = self.phase(parent).and_then(|q| q.parent);
                }
                d
            };
            writeln!(
                f,
                "{:<26} {:>14} {:>10}",
                format!("{}{}", "  ".repeat(depth), p.phase),
                p.nanos,
                p.enters
            )?;
        }
        writeln!(f, "{:<42} {:>10}", "counter", "value")?;
        for &(name, v) in &self.counters {
            writeln!(f, "{name:<42} {v:>10}")?;
        }
        Ok(())
    }
}

// --- minimal JSON helpers (same hand-rolled idiom as bench/baseline.rs) ----

/// Splits a JSON document into its `{...}` leaf objects (no nesting inside).
fn json_objects(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, ch) in text.char_indices() {
        match ch {
            '{' => {
                depth += 1;
                if depth == 2 {
                    start = Some(i);
                }
            }
            '}' => {
                if depth == 2 {
                    if let Some(s) = start.take() {
                        out.push(text[s..=i].to_string());
                    }
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    out
}

fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn json_u64_field(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Per-batch attachment
// ---------------------------------------------------------------------------

/// Per-batch telemetry delta attached to a `BatchReport` when the engine's
/// handle is enabled.  Contains timings, so attaching it makes full-report
/// equality run-dependent — the engine only does so when explicitly enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// Counter and phase deltas accumulated by this batch alone.
    pub delta: TelemetrySnapshot,
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

#[cfg(feature = "telemetry")]
struct Inner {
    counters: [AtomicU64; Counter::ALL.len()],
    phase_nanos: [AtomicU64; Phase::ALL.len()],
    phase_enters: [AtomicU64; Phase::ALL.len()],
}

#[cfg(feature = "telemetry")]
impl Inner {
    fn new() -> Inner {
        Inner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_enters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Cloneable telemetry handle.  Without the `telemetry` cargo feature this
/// is a unit struct and every method is an empty inline no-op; with it, a
/// disabled handle (the default) costs one `Option` branch per hook.
#[derive(Clone, Default)]
pub struct Telemetry {
    #[cfg(feature = "telemetry")]
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

impl Telemetry {
    /// A disabled handle (all hooks are no-ops).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An enabled handle with fresh accumulators.  Without the `telemetry`
    /// cargo feature this still returns a no-op handle.
    pub fn enabled() -> Telemetry {
        #[cfg(feature = "telemetry")]
        {
            Telemetry {
                inner: Some(Arc::new(Inner::new())),
            }
        }
        #[cfg(not(feature = "telemetry"))]
        Telemetry {}
    }

    /// Enabled iff `DYNTREE_TELEMETRY` is `1` or `true` (checked once per
    /// process) *and* the cargo feature is compiled in.
    pub fn from_env() -> Telemetry {
        #[cfg(feature = "telemetry")]
        {
            use std::sync::OnceLock;
            static WANTED: OnceLock<bool> = OnceLock::new();
            let wanted = *WANTED.get_or_init(|| {
                std::env::var("DYNTREE_TELEMETRY")
                    .map(|v| {
                        let v = v.trim();
                        v == "1" || v.eq_ignore_ascii_case("true")
                    })
                    .unwrap_or(false)
            });
            if wanted {
                return Telemetry::enabled();
            }
        }
        Telemetry::disabled()
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "telemetry")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "telemetry"))]
        false
    }

    /// Adds `n` to a counter (relaxed; no-op when disabled).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = (counter, n);
        }
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Enters a phase; time accrues until the returned guard drops.
    #[inline]
    #[must_use = "the span measures until the guard is dropped"]
    pub fn span(&self, phase: Phase) -> SpanGuard {
        #[cfg(feature = "telemetry")]
        {
            SpanGuard {
                active: self
                    .inner
                    .as_ref()
                    .map(|inner| (Arc::clone(inner), phase, Instant::now())),
            }
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = phase;
            SpanGuard {}
        }
    }

    /// Copies the current accumulator values (`None` when disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            let mut snap = TelemetrySnapshot::zeroed();
            for (i, slot) in snap.counters.iter_mut().enumerate() {
                slot.1 = inner.counters[i].load(Ordering::Relaxed);
            }
            for (i, p) in snap.phases.iter_mut().enumerate() {
                p.nanos = inner.phase_nanos[i].load(Ordering::Relaxed);
                p.enters = inner.phase_enters[i].load(Ordering::Relaxed);
            }
            return Some(snap);
        }
        None
    }

    /// Zeroes every accumulator (no-op when disabled).
    pub fn reset(&self) {
        #[cfg(feature = "telemetry")]
        if let Some(inner) = &self.inner {
            for c in &inner.counters {
                c.store(0, Ordering::Relaxed);
            }
            for p in &inner.phase_nanos {
                p.store(0, Ordering::Relaxed);
            }
            for p in &inner.phase_enters {
                p.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// RAII guard returned by [`Telemetry::span`]; accumulates elapsed wall
/// nanos and an enter count into the phase on drop.
pub struct SpanGuard {
    #[cfg(feature = "telemetry")]
    active: Option<(Arc<Inner>, Phase, Instant)>,
}

#[cfg(feature = "telemetry")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, phase, start)) = self.active.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.phase_nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
            inner.phase_enters[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_snapshot_covers_full_taxonomy() {
        let snap = TelemetrySnapshot::zeroed();
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert_eq!(snap.phases.len(), Phase::ALL.len());
        assert_eq!(snap.counter("replacement_searches"), 0);
        assert_eq!(snap.phase("apply").unwrap().parent, None);
        assert_eq!(
            snap.phase("smaller_side").unwrap().parent,
            Some("replacement_search")
        );
        assert_eq!(snap.phase("snapshot_build").unwrap().parent, Some("apply"));
        assert_eq!(snap.counter("snapshots_published"), 0);
        assert_eq!(snap.counter("reader_queries_served"), 0);
        assert_eq!(snap.counter("stale_epoch_reads"), 0);
    }

    #[test]
    fn json_round_trips() {
        let mut snap = TelemetrySnapshot::zeroed();
        snap.counters[0].1 = 42;
        snap.counters[14].1 = 7;
        snap.counters[Counter::ALL.len() - 1].1 = 9;
        snap.phases[0].nanos = 123_456_789;
        snap.phases[0].enters = 3;
        snap.phases[7].nanos = 11;
        snap.phases[7].enters = 1;
        snap.phases[Phase::ALL.len() - 1].nanos = 5;
        snap.phases[Phase::ALL.len() - 1].enters = 2;
        let json = snap.to_json();
        let back = TelemetrySnapshot::parse(&json).expect("round-trip parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn parse_rejects_unknown_counter() {
        let json = r#"{"counters": [{"counter": "bogus", "value": 1}], "phases": []}"#;
        assert!(TelemetrySnapshot::parse(json).is_err());
    }

    #[test]
    fn delta_subtracts_positionally() {
        let mut earlier = TelemetrySnapshot::zeroed();
        earlier.counters[2].1 = 5;
        earlier.phases[1].nanos = 100;
        earlier.phases[1].enters = 2;
        let mut later = earlier.clone();
        later.counters[2].1 = 9;
        later.counters[3].1 = 1;
        later.phases[1].nanos = 150;
        later.phases[1].enters = 3;
        let d = later.delta_since(&earlier);
        assert_eq!(d.counter(Counter::ALL[2].name()), 4);
        assert_eq!(d.counter(Counter::ALL[3].name()), 1);
        let p = d.phase(Phase::ALL[1].name()).unwrap();
        assert_eq!((p.nanos, p.enters), (50, 1));
    }

    #[test]
    fn fingerprint_covers_every_counter() {
        let snap = TelemetrySnapshot::zeroed();
        let fp = snap.counters_fingerprint();
        for c in Counter::ALL {
            assert!(fp.contains(c.name()), "fingerprint missing {}", c.name());
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        tel.incr(Counter::ReplacementSearches);
        {
            let _g = tel.span(Phase::Apply);
        }
        assert!(!tel.is_enabled());
        assert!(tel.snapshot().is_none());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn enabled_handle_accumulates() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        tel.add(Counter::ReplacementEdgesScanned, 10);
        tel.incr(Counter::ReplacementEdgesScanned);
        {
            let _apply = tel.span(Phase::Apply);
            let _search = tel.span(Phase::ReplacementSearch);
        }
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("replacement_edges_scanned"), 11);
        assert_eq!(snap.phase("apply").unwrap().enters, 1);
        assert!(
            snap.phase("apply").unwrap().nanos >= snap.phase("replacement_search").unwrap().nanos
        );
        tel.reset();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("replacement_edges_scanned"), 0);
        assert_eq!(snap.phase("apply").unwrap().enters, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn clones_share_accumulators() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.incr(Counter::ComponentSplits);
        assert_eq!(tel.snapshot().unwrap().counter("component_splits"), 1);
    }
}
