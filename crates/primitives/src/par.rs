//! Parallel-execution configuration: grain sizes and worker fan-out.
//!
//! Every parallel path in the workspace sits behind a *grain check*: below a
//! threshold batch size, scheduling overhead exceeds the work, so the code
//! takes the sequential path it would use anyway.  With the rayon shim now
//! backed by a real pool ([`rayon::current_num_threads`] reports the true
//! size), these thresholds are load-bearing, so they live here as one
//! documented, overridable [`ParallelConfig`] instead of scattered
//! constants.  The engine layers thread a config through their batch entry
//! points; it is the workspace's only parallelism gate.
//!
//! Changing the grain/fan-out knobs never changes *results* — only which of
//! two byte-identical code paths (sequential or chunked-parallel) computes
//! them.  The one exception is the opt-in
//! [`rebuild_threshold`](ParallelConfig::rebuild_threshold): a non-zero
//! threshold trades byte-identical replacement choices for a *canonical
//! outcome* contract (same components, same live edges — spanning-tree
//! membership of individual edges may differ), in exchange for wholesale
//! component rebuilds when a batch deletes most of a component's tree edges.

/// Default minimum batch length before any batch layer goes parallel.
/// Measured against the cost of waking pool workers for a chunk: below ~2k
/// items even a 2-chunk fan-out loses to the plain loop.
pub const PAR_GRAIN: usize = 2048;

/// Default minimum number of items per worker chunk in the batch pre-pass.
/// Smaller chunks would multiply per-chunk fixed costs (a sparse DSU
/// allocation, one queue round-trip) past the work they carry.
pub const CHUNK_GRAIN: usize = 512;

/// Default minimum delete-run length before the batch-deletion layers go
/// parallel.  Matches [`PAR_GRAIN`], but deliberately a separate knob: the
/// delete pre-pass saves no live probes (classification only reads state the
/// engine already holds) — its payoff is *offloading* classification to pool
/// workers, so the pool-dispatch cost needs long runs to amortize.  Measured
/// on the `SCALE-64k` bench trace, fanning out its 1024-op delete bursts
/// cost 20 %+ apply throughput at wide fan-out on an oversubscribed host,
/// while the 3072-op bursts of `SCALE-DEL-64k` run at parity or better.
pub const DELETE_GRAIN: usize = 2048;

/// Tunables for the parallel batch paths.
///
/// `threads == 0` (the default) means "use the whole rayon pool"; any other
/// value caps the fan-out of the configured component without touching the
/// global pool — the `parallel_scaling` benchmark uses this to measure the
/// same pool at several effective widths in one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker fan-out cap; 0 = the rayon pool size.
    pub threads: usize,
    /// Minimum batch length before the batch layers go parallel.
    pub batch_grain: usize,
    /// Minimum number of items per pre-pass chunk.
    pub chunk_grain: usize,
    /// Minimum consecutive-delete run length before the batch-deletion
    /// classification pre-pass goes parallel.  Independent of
    /// [`batch_grain`](Self::batch_grain): the delete pre-pass only offloads
    /// work the sequential walk would do anyway (no live probes saved), so
    /// its dispatch cost amortizes later than the insert pre-pass's.
    pub delete_grain: usize,
    /// Rebuild escape hatch, in **percent** of a component's vertex count:
    /// when one delete run's certified tree deletions inside a component
    /// reach this fraction of its size, the engine skips the per-edge HDT
    /// replacement searches and rebuilds that component's spanning forest
    /// wholesale from the surviving edges.  `0` (the default) disables the
    /// hatch and keeps the byte-identity contract; any non-zero value opts
    /// into the *canonical outcome* contract (same component partition, same
    /// live edge set — which edges are tree vs non-tree may differ from the
    /// one-at-a-time walk).  Stored as an integer percentage so the config
    /// stays `Copy + Eq`.
    pub rebuild_threshold: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            batch_grain: PAR_GRAIN,
            chunk_grain: CHUNK_GRAIN,
            delete_grain: DELETE_GRAIN,
            rebuild_threshold: 0,
        }
    }
}

impl ParallelConfig {
    /// A config that forces every gated path sequential regardless of pool
    /// size (the 1-thread reference the determinism tests compare against).
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// Default grains with an explicit fan-out cap.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The fan-out this config asks for: its own `threads`, or the pool size
    /// when unset.  Deliberately **not** clamped to the pool: a cap above
    /// the pool size still splits batches into that many chunks (they just
    /// share the available workers), so tests can force the chunked code
    /// paths deterministically even on a single-threaded pool — where the
    /// chunks run inline, byte-identical by construction.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }

    /// Whether a batch of `len` items is worth processing in parallel under
    /// this config.
    #[inline]
    pub fn worth(&self, len: usize) -> bool {
        len >= self.batch_grain && self.effective_and_wide()
    }

    /// Whether a consecutive-delete run of `len` ops is worth the parallel
    /// classification pre-pass under this config (gated on
    /// [`delete_grain`](Self::delete_grain) instead of the insert grain).
    #[inline]
    pub fn worth_delete(&self, len: usize) -> bool {
        len >= self.delete_grain && self.effective_and_wide()
    }

    /// Number of chunks to split a `len`-item batch into: at most one per
    /// effective thread, and never so many that a chunk drops below
    /// [`chunk_grain`](Self::chunk_grain) items.
    pub fn chunks_for(&self, len: usize) -> usize {
        let by_grain = len / self.chunk_grain.max(1);
        self.effective_threads().min(by_grain).max(1)
    }

    fn effective_and_wide(&self) -> bool {
        // `threads == 1` pins sequential even on a wide pool; a capped
        // config on a 1-thread pool is still sequential.
        self.effective_threads() > 1
    }

    /// Builder-style variant setting the
    /// [`rebuild_threshold`](Self::rebuild_threshold) percentage.
    pub fn with_rebuild_threshold(mut self, percent: usize) -> Self {
        self.rebuild_threshold = percent;
        self
    }

    /// Whether the rebuild escape hatch is enabled at all (any non-zero
    /// threshold opts into the canonical-outcome contract).
    #[inline]
    pub fn rebuild_enabled(&self) -> bool {
        self.rebuild_threshold > 0
    }

    /// Whether `tree_deletions` certified tree-edge deletions inside a
    /// component of `component_size` vertices trip the rebuild hatch:
    /// `tree_deletions / component_size ≥ rebuild_threshold %`.  Always
    /// `false` when the hatch is disabled or the component is empty.
    #[inline]
    pub fn rebuild_worth(&self, tree_deletions: usize, component_size: usize) -> bool {
        self.rebuild_threshold > 0
            && component_size > 0
            && tree_deletions.saturating_mul(100) >= component_size * self.rebuild_threshold
    }
}

/// Splits `0..len` into `chunks` contiguous ranges whose lengths differ by
/// at most one (never an empty or out-of-bounds range for `chunks ≤ len`).
/// The one canonical balanced split for every chunked batch path — a
/// hand-rolled ceil-division split once sent trailing chunks past the end
/// of the batch.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    let (base, rem) = (len / chunks, len % chunks);
    let mut ranges = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let hi = lo + base + usize::from(c < rem);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_stay_sequential_at_any_width() {
        // The dead-constant regression this module fixes: grains must gate
        // even when a wide fan-out is requested.
        for threads in [0, 1, 2, 8, 64] {
            let cfg = ParallelConfig::with_threads(threads);
            assert!(!cfg.worth(0));
            assert!(!cfg.worth(1));
            assert!(!cfg.worth(PAR_GRAIN - 1), "threads={threads}");
        }
    }

    #[test]
    fn sequential_config_never_parallelizes() {
        let cfg = ParallelConfig::sequential();
        assert!(!cfg.worth(usize::MAX));
        assert_eq!(cfg.effective_threads(), 1);
    }

    #[test]
    fn fan_out_is_bounded_by_pool_and_grain() {
        let cfg = ParallelConfig {
            threads: 4,
            batch_grain: 8,
            chunk_grain: 16,
            ..ParallelConfig::default()
        };
        assert_eq!(cfg.chunks_for(0), 1);
        assert_eq!(cfg.chunks_for(31), 1);
        assert!(cfg.chunks_for(32) <= 2);
        assert!(cfg.chunks_for(10_000) <= 4, "cap respected");
        // an explicit cap is honoured verbatim (not clamped to the pool), so
        // tests can force the chunked paths on any machine
        let wide = ParallelConfig::with_threads(1024);
        assert_eq!(wide.effective_threads(), 1024);
        assert!(wide.worth(wide.batch_grain));
    }

    #[test]
    fn chunk_ranges_partition_exactly_even_when_oversplit() {
        for (len, chunks) in [(0, 1), (1, 1), (10, 3), (100, 64), (12, 8), (81, 10)] {
            let ranges = chunk_ranges(len, chunks);
            assert_eq!(ranges.len(), chunks.max(1));
            let mut expect = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect, "len={len} chunks={chunks}");
                assert!(hi >= lo && hi <= len, "len={len} chunks={chunks}");
                expect = hi;
            }
            assert_eq!(expect, len);
        }
    }

    #[test]
    fn delete_grain_gates_independently_of_the_insert_grain() {
        let cfg = ParallelConfig::with_threads(8);
        assert!(!cfg.worth_delete(cfg.delete_grain - 1));
        assert!(cfg.worth_delete(cfg.delete_grain));
        // the knobs are independent: a config can engage deletes on short
        // runs while keeping inserts sequential, and vice versa
        let tuned = ParallelConfig {
            delete_grain: 64,
            batch_grain: 1 << 20,
            ..cfg
        };
        assert!(tuned.worth_delete(64));
        assert!(!tuned.worth(64));
        // sequential configs never fan deletes out either
        assert!(!ParallelConfig::sequential().worth_delete(usize::MAX));
    }

    #[test]
    fn rebuild_threshold_is_off_by_default_and_gates_by_percent() {
        let cfg = ParallelConfig::default();
        assert!(!cfg.rebuild_enabled());
        assert!(
            !cfg.rebuild_worth(usize::MAX / 100, 1),
            "disabled hatch never fires"
        );
        let half = ParallelConfig::default().with_rebuild_threshold(50);
        assert!(half.rebuild_enabled());
        assert!(half.rebuild_worth(50, 100));
        assert!(half.rebuild_worth(51, 100));
        assert!(!half.rebuild_worth(49, 100));
        assert!(!half.rebuild_worth(0, 0), "empty component never trips");
        // a 100% threshold needs deletions ≥ the component size
        let all = ParallelConfig::default().with_rebuild_threshold(100);
        assert!(!all.rebuild_worth(99, 100));
        assert!(all.rebuild_worth(100, 100));
    }
}
