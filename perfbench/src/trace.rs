//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer (and
//! the timing backend wrapper opens one around every forest call the
//! connectivity engine makes).  A span is `(id, parent, name, start, end)`;
//! names are `<layer>.<call>`, so self time rolls up per layer by prefix.
//! Spans are kept in memory while tracing is on and analysed and written out
//! when the run ends.  Recording is off unless [`start`] was called, and an
//! inert guard costs one relaxed load.
//!
//! Parents come from a per-thread stack of open spans.  A span opened on a
//! thread with nothing open (a pool worker running a probe for the engine)
//! falls back to the current *cause*: the innermost open span that was
//! opened with [`open_cause`], i.e. the layer call that fanned the work out.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static CAUSE: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // A panic while pushing leaves the vector valid, so a poisoned lock is
    // still safe to use.
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the buffer and turns recording on.
pub fn start() {
    EPOCH.get_or_init(Instant::now);
    spans().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off and hands back every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *spans())
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; the span is recorded when the guard drops.
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    prev_cause: Option<u32>,
}

fn open_with(name: &'static str, adopt_cause: bool, make_cause: bool) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = match s.last() {
            Some(&p) => p,
            None if adopt_cause => CAUSE.load(Ordering::Acquire),
            None => 0,
        };
        s.push(id);
        parent
    });
    let prev_cause = make_cause.then(|| CAUSE.swap(id, Ordering::AcqRel));
    Guard {
        open: Some(Open {
            id,
            parent,
            name,
            start_ns: now_ns(),
            prev_cause,
        }),
    }
}

/// Opens a span under this thread's innermost open span (a root if none).
pub fn open(name: &'static str) -> Guard {
    open_with(name, false, false)
}

/// Opens a span that also becomes the parent of spans opened on threads
/// with nothing open (pool workers helping with this call).
pub fn open_cause(name: &'static str) -> Guard {
    open_with(name, false, true)
}

/// Opens a span under this thread's innermost open span, or under the
/// current cause when this thread has none open.
pub fn open_inner(name: &'static str) -> Guard {
    open_with(name, true, false)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if let Some(prev) = o.prev_cause {
            CAUSE.store(prev, Ordering::Release);
        }
        spans().push(Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            start_ns: o.start_ns,
            end_ns,
        });
    }
}

/// Self time of every span (its duration minus the union of its children's
/// intervals), plus the number of children that do not nest inside their
/// parent or whose parent is missing.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, usize) {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut violations = 0;
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        match index.get(&s.parent) {
            Some(&p) => {
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    violations += 1;
                }
                children[p].push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
            }
            None => violations += 1,
        }
    }
    let self_ns = spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb.saturating_sub(ca);
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb.saturating_sub(ca);
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect();
    (self_ns, violations)
}

/// Per-name aggregate of a span set.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
}

/// Groups spans by name (sorted by name for a stable table).
pub fn by_name(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.durations.push(s.dur_ns());
    }
    out
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// The spans as JSON: `{"spans": [[id, parent, "name", start_ns, end_ns], ...]}`.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + 16);
    out.push_str("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "[{}, {}, \"{}\", {}, {}]",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// The per-name and per-layer table of a span set.
pub fn layer_table(spans: &[Span], self_ns: &[u64]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>9} {:>12} {:>12} {:>11}\n",
        "span", "count", "total_ms", "self_ms", "p50_us"
    ));
    for (name, st) in by_name(spans, self_ns) {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>11.3}\n",
            name,
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6,
            crate::stats::percentile(&st.durations, 50.0) / 1e3
        ));
    }
    out.push_str(&format!("{:<28} {:>12}\n", "layer", "self_ms"));
    for (layer, own) in self_by_layer(spans, self_ns) {
        out.push_str(&format!("{:<28} {:>12.3}\n", layer, own as f64 / 1e6));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x.y",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parent 0..100; children 10..30 and 20..40 overlap (a worker and
        // the caller), plus 60..70
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 60, 70),
        ];
        let (own, bad) = self_times(&spans);
        assert_eq!(bad, 0);
        assert_eq!(own, vec![100 - 30 - 10, 20, 20, 10]);
    }

    #[test]
    fn escaping_and_orphaned_children_are_violations() {
        let spans = [span(1, 0, 10, 20), span(2, 1, 5, 15), span(3, 9, 0, 1)];
        assert_eq!(self_times(&spans).1, 2);
    }

    #[test]
    fn recorded_spans_nest_across_threads() {
        // The only test that touches the global recorder.
        start();
        {
            let _outer = open_cause("bench.outer");
            {
                let _inner = open_inner("ufo.inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _worker = open_inner("ufo.worker");
                });
            });
        }
        // other tests may record wrapper spans meanwhile: keep only ours
        let spans: Vec<Span> = stop()
            .into_iter()
            .filter(|s| ["bench.outer", "ufo.inner", "ufo.worker"].contains(&s.name))
            .collect();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name != "bench.outer")
            .all(|s| s.parent == outer.id));
        assert_eq!(self_times(&spans).1, 0);
    }
}
