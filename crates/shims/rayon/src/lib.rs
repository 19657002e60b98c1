//! Offline stand-in for the `rayon` crate, backed by a **real thread pool**.
//!
//! This workspace builds in environments with no access to crates.io, so the
//! external crates the code depends on are vendored as minimal shims under
//! `crates/shims/`.  Earlier revisions of this shim mapped the parallel
//! operations onto plain sequential iterators; this revision executes them on
//! a lazily-initialized global pool of `std::thread` workers:
//!
//! * [`join`] forks its right-hand closure onto the pool and runs the left
//!   one on the calling thread, which then *helps* (runs queued work) until
//!   both sides finish — nested joins on pool workers are fine,
//! * `par_iter()` / `into_par_iter()` return a [`ParallelIterator`] whose
//!   `map`/`filter`/`flat_map_iter`/`for_each`/`collect` fan contiguous
//!   index chunks out to the pool and reassemble results **in input order**,
//! * `par_sort*` run a parallel stable merge sort (chunk sort + pairwise
//!   merge rounds over an index permutation),
//! * [`current_num_threads`] reports the true pool size, so the workspace's
//!   `ParallelConfig` grain checks route large batches down the parallel
//!   paths and small ones down the sequential paths.
//!
//! # Pool size
//!
//! The pool is created on first use.  Its size comes from the
//! `DYNTREE_THREADS` environment variable when set (clamped to ≥ 1), else
//! from [`std::thread::available_parallelism`].  A size of 1 spawns no
//! worker threads at all: every operation degenerates to the plain
//! sequential implementation on the calling thread.
//! [`ThreadPoolBuilder::build_global`] can fix the size programmatically
//! before first use (benchmark binaries use this to guarantee headroom).
//!
//! # Determinism contract
//!
//! Every combinator here is deterministic and order-preserving: `collect`
//! concatenates per-chunk results in index order, and the sorts produce the
//! *stable* permutation under the comparator (ties broken by original index)
//! at every thread count and chunk split.  Consequently results are
//! bit-for-bit identical to the 1-thread run.  The one caveat mirrors real
//! rayon: `par_sort_unstable*` on values that compare equal yet are
//! distinguishable may order those values differently from `std`'s unstable
//! sort — every call site in this workspace sorts values whose equal
//! elements are identical, so the workspace-wide byte-identical guarantee
//! holds.  Swapping the real crate back in is a one-line manifest change per
//! crate.

use std::cmp::Ordering;
use std::ops::Range;

mod pool;

pub use pool::{current_num_threads, GlobalPoolAlreadyInitialized, ThreadPoolBuilder};
#[cfg(feature = "telemetry")]
pub use pool::{global_pool_metrics, reset_global_pool_metrics, PoolMetrics};

/// Runs both closures, potentially in parallel, and returns both results.
///
/// The right-hand closure is offered to the pool; the calling thread runs
/// the left one and then helps execute queued work until both finish, so
/// nesting `join` inside `join` (including on pool workers) cannot
/// deadlock.  A panic in either closure is captured and resumed on the
/// caller once both sides have stopped touching borrowed state.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join_in(pool::global(), oper_a, oper_b)
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

/// A chunked, order-preserving parallel iterator over an indexable source.
///
/// Unlike `std::iter::Iterator` this is not a pull-based stream: consumers
/// (`collect`, `for_each`) split the index space `0..base_len()` into
/// contiguous chunks, run the whole adaptor pipeline over each chunk on the
/// pool, and reassemble per-chunk output in index order.
pub trait ParallelIterator: Sized + Sync {
    /// The element type produced by the pipeline.
    type Item: Send;

    /// Number of *base* indices driving the pipeline (items produced may be
    /// fewer after `filter` or more after `flat_map_iter`).
    fn base_len(&self) -> usize;

    /// Runs the pipeline sequentially over base indices `lo..hi`, feeding
    /// every produced item to `sink` in order.
    fn run_range(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(Self::Item));

    /// Transforms every item with `f` (rayon's `map`).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Keeps the items for which `f` returns `true` (rayon's `filter`).
    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync,
    {
        Filter { base: self, f }
    }

    /// Flat-maps every item through a *serial* inner iterator (rayon's
    /// `flat_map_iter`).
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        FlatMapIter { base: self, f }
    }

    /// Runs `f` on every item, in parallel across chunks.  Within a chunk
    /// items are visited in order; across chunks the interleaving is
    /// unspecified (as in rayon), so side effects must be independent.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let p = pool::global();
        let n = self.base_len();
        if p.threads() <= 1 || n <= 1 {
            self.run_range(0, n, &mut |x| f(x));
            return;
        }
        let ranges = chunk_ranges(n, chunk_count(n, p.threads()));
        let this = &self;
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .into_iter()
            .map(|(lo, hi)| {
                Box::new(move || this.run_range(lo, hi, &mut |x| f(x)))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        p.run_all(tasks);
    }

    /// Collects every produced item, **in input order**, into `C`.
    fn collect<C>(self) -> C
    where
        C: From<Vec<Self::Item>>,
    {
        let p = pool::global();
        let n = self.base_len();
        if p.threads() <= 1 || n <= 1 {
            let mut out = Vec::new();
            self.run_range(0, n, &mut |x| out.push(x));
            return C::from(out);
        }
        let ranges = chunk_ranges(n, chunk_count(n, p.threads()));
        let mut parts: Vec<Vec<Self::Item>> = ranges.iter().map(|_| Vec::new()).collect();
        {
            let this = &self;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = parts
                .iter_mut()
                .zip(ranges)
                .map(|(slot, (lo, hi))| {
                    Box::new(move || {
                        let mut local = Vec::with_capacity(hi - lo);
                        this.run_range(lo, hi, &mut |x| local.push(x));
                        *slot = local;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            p.run_all(tasks);
        }
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        C::from(out)
    }

    /// Number of items the pipeline produces.
    fn count(self) -> usize {
        let v: Vec<Self::Item> = self.collect();
        v.len()
    }
}

/// How many chunks to fan `n` items out into on a `threads`-sized pool: a
/// couple of chunks per worker for load balancing, never more than `n`.
fn chunk_count(n: usize, threads: usize) -> usize {
    n.min(threads.saturating_mul(2)).max(1)
}

/// Splits `0..n` into `chunks` contiguous ranges differing in length by at
/// most one.
fn chunk_ranges(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    let base = n / chunks;
    let rem = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut lo = 0;
    for i in 0..chunks {
        let hi = lo + base + usize::from(i < rem);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Borrowed-slice base iterator (the result of `par_iter`).
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    fn base_len(&self) -> usize {
        self.slice.len()
    }
    fn run_range(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(Self::Item)) {
        for x in &self.slice[lo..hi] {
            sink(x);
        }
    }
}

/// Index-range base iterator (the result of `(0..n).into_par_iter()`).
pub struct ParRange {
    range: Range<usize>,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn base_len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }
    fn run_range(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(usize)) {
        for i in self.range.start + lo..self.range.start + hi {
            sink(i);
        }
    }
}

/// `map` adaptor.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync,
{
    type Item = R;
    fn base_len(&self) -> usize {
        self.base.base_len()
    }
    fn run_range(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(R)) {
        self.base.run_range(lo, hi, &mut |x| sink((self.f)(x)));
    }
}

/// `filter` adaptor.
pub struct Filter<P, F> {
    base: P,
    f: F,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Sync,
{
    type Item = P::Item;
    fn base_len(&self) -> usize {
        self.base.base_len()
    }
    fn run_range(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(P::Item)) {
        self.base.run_range(lo, hi, &mut |x| {
            if (self.f)(&x) {
                sink(x);
            }
        });
    }
}

/// `flat_map_iter` adaptor.
pub struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, U, F> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(P::Item) -> U + Sync,
{
    type Item = U::Item;
    fn base_len(&self) -> usize {
        self.base.base_len()
    }
    fn run_range(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(U::Item)) {
        self.base.run_range(lo, hi, &mut |x| {
            for y in (self.f)(x) {
                sink(y);
            }
        });
    }
}

/// Borrowing parallel iteration over slices (and anything derefing to one).
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: Send + 'a;
    /// The parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Parallel counterpart of `iter()`.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        ParSlice { slice: self }
    }
}

/// Consuming parallel iteration.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Parallel counterpart of `into_iter()`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

// ---------------------------------------------------------------------------
// Parallel sorts
// ---------------------------------------------------------------------------

/// Below this length the sorts stay on the calling thread: splitting tiny
/// slices costs more in scheduling than it saves.
const SORT_GRAIN: usize = 4 * 1024;

/// Parallel slice sorts, mirroring rayon's `ParallelSliceMut`.
///
/// All four sorts produce the **stable** permutation under their comparator
/// (ties broken by original index), at every thread count; see the module
/// docs for the determinism contract.
pub trait ParallelSliceMut<T: Send + Sync> {
    /// Parallel stable sort.
    fn par_sort(&mut self)
    where
        T: Ord;
    /// Parallel sort; produces the stable permutation (see module docs).
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
    /// Parallel stable sort by key.
    fn par_sort_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
    /// Parallel sort by key; produces the stable permutation.
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send + Sync> ParallelSliceMut<T> for [T] {
    fn par_sort(&mut self)
    where
        T: Ord,
    {
        par_stable_sort_in(pool::global(), self, &|a: &T, b: &T| a.cmp(b), SORT_GRAIN);
    }
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_stable_sort_in(pool::global(), self, &|a: &T, b: &T| a.cmp(b), SORT_GRAIN);
    }
    fn par_sort_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        par_stable_sort_in(
            pool::global(),
            self,
            &|a: &T, b: &T| f(a).cmp(&f(b)),
            SORT_GRAIN,
        );
    }
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        par_stable_sort_in(
            pool::global(),
            self,
            &|a: &T, b: &T| f(a).cmp(&f(b)),
            SORT_GRAIN,
        );
    }
}

/// Parallel stable merge sort of `v` under `cmp` on `pool`.
///
/// Strategy: sort an index permutation (chunk-local `std` sorts in parallel,
/// then pairwise parallel merge rounds), then apply the permutation with a
/// single pass of moves.  Sorting *indices* keeps the hot unsafe code
/// trivially panic-safe: the user comparator only ever runs while `v` is
/// untouched, so an unwinding comparator leaves `v` exactly as it was.
/// Indices are made a total order by breaking comparator ties with the
/// original position, which is what makes the result the stable permutation
/// independent of chunk boundaries.
fn par_stable_sort_in<T: Send + Sync>(
    pool: &pool::Pool,
    v: &mut [T],
    cmp: &(dyn Fn(&T, &T) -> Ordering + Sync),
    grain: usize,
) {
    let n = v.len();
    if pool.threads() <= 1 || n < grain.max(2) {
        // std's stable sort yields the same permutation the parallel path
        // computes, so crossing the grain keeps output byte-identical.
        v.sort_by(cmp);
        return;
    }

    let chunks = pool.threads().min(n.div_ceil(grain / 2).max(2));
    let ranges = chunk_ranges(n, chunks);
    let mut idx: Vec<usize> = (0..n).collect();
    let shared: &[T] = v;
    // `le(i, j)`: does index i sort at-or-before index j?  Total order via
    // the index tiebreak.
    let le = |i: usize, j: usize| match cmp(&shared[i], &shared[j]) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => i <= j,
    };

    // Phase 1: sort each index chunk on the pool.
    {
        let mut rest: &mut [usize] = &mut idx;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(chunks);
        for &(lo, hi) in &ranges {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
            rest = tail;
            tasks.push(Box::new(move || {
                chunk
                    .sort_unstable_by(|&i, &j| cmp(&shared[i], &shared[j]).then_with(|| i.cmp(&j)));
            }));
        }
        pool.run_all(tasks);
    }

    // Phase 2: pairwise merge rounds, ping-ponging between idx and scratch.
    let mut scratch: Vec<usize> = vec![0; n];
    let mut runs: Vec<(usize, usize)> = ranges;
    let mut src_is_idx = true;
    while runs.len() > 1 {
        let mut next_runs = Vec::with_capacity(runs.len().div_ceil(2));
        {
            let (src, dst): (&[usize], &mut [usize]) = if src_is_idx {
                (&idx, &mut scratch)
            } else {
                (&scratch, &mut idx)
            };
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            let mut dst_rest: &mut [usize] = dst;
            let mut consumed = 0;
            for duo in runs.chunks(2) {
                let (lo, hi) = (duo[0].0, duo[duo.len() - 1].1);
                let (dst_part, tail) = std::mem::take(&mut dst_rest).split_at_mut(hi - lo);
                dst_rest = tail;
                consumed = hi;
                next_runs.push((lo, hi));
                if duo.len() == 1 {
                    let run = &src[lo..hi];
                    tasks.push(Box::new(move || dst_part.copy_from_slice(run)));
                } else {
                    let mid = duo[0].1;
                    let (left, right) = (&src[lo..mid], &src[mid..hi]);
                    let le = &le;
                    tasks.push(Box::new(move || merge_runs(left, right, dst_part, le)));
                }
            }
            debug_assert_eq!(consumed, n);
            pool.run_all(tasks);
        }
        runs = next_runs;
        src_is_idx = !src_is_idx;
    }
    let sorted: &[usize] = if src_is_idx { &idx } else { &scratch };

    // Phase 3: apply the permutation with one pass of bitwise moves.  No
    // user code runs in here, so every element is read exactly once and
    // written exactly once with no unwind in between.
    let mut tmp: Vec<T> = Vec::with_capacity(n);
    unsafe {
        for &i in sorted {
            // SAFETY: `sorted` is a permutation of 0..n, so each slot of `v`
            // is read (moved out) exactly once, within capacity.
            tmp.push(std::ptr::read(&v[i]));
        }
        // SAFETY: moves the n initialized elements back over `v`; `tmp` then
        // forgets them (set_len(0)) so nothing is dropped twice.
        std::ptr::copy_nonoverlapping(tmp.as_ptr(), v.as_mut_ptr(), n);
        tmp.set_len(0);
    }
}

/// Sequential merge of two sorted index runs into `dst` under the total
/// order `le`.
fn merge_runs(
    left: &[usize],
    right: &[usize],
    dst: &mut [usize],
    le: &dyn Fn(usize, usize) -> bool,
) {
    debug_assert_eq!(left.len() + right.len(), dst.len());
    let (mut i, mut j) = (0, 0);
    for slot in dst.iter_mut() {
        let take_left = if i == left.len() {
            false
        } else if j == right.len() {
            true
        } else {
            le(left[i], right[j])
        };
        if take_left {
            *slot = left[i];
            i += 1;
        } else {
            *slot = right[j];
            j += 1;
        }
    }
}

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude`.
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::pool::{join_in, Pool};
    use super::prelude::*;
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    /// A private 4-worker pool so the tests exercise real cross-thread
    /// execution regardless of `DYNTREE_THREADS` in the environment.
    fn test_pool() -> Pool {
        Pool::start(4)
    }

    #[test]
    fn join_returns_both_results() {
        assert_eq!(join(|| 1 + 1, || "b"), (2, "b"));
        let p = test_pool();
        assert_eq!(join_in(&p, || 40 + 2, || vec![7; 3]), (42, vec![7; 3]));
    }

    #[test]
    fn join_propagates_left_panic() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let p = test_pool();
            join_in(&p, || panic!("left boom"), || 1)
        }));
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "left boom");
    }

    #[test]
    fn join_propagates_right_panic() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let p = test_pool();
            join_in(&p, || 1, || panic!("right boom"))
        }));
        assert!(r.is_err(), "right-side panic must cross join");
    }

    #[test]
    fn nested_join_on_pool_workers() {
        // Three levels of nesting: the inner joins run on whatever worker
        // picked up the outer closure, which must help instead of blocking.
        let p = test_pool();
        let (a, (b, c)) = join_in(
            &p,
            || join_in(&p, || 1, || 2),
            || join_in(&p, || join_in(&p, || 3, || 4), || join_in(&p, || 5, || 6)),
        );
        assert_eq!(a, (1, 2));
        assert_eq!(b, (3, 4));
        assert_eq!(c, (5, 6));
    }

    #[test]
    fn deep_join_recursion_completes() {
        let p = Pool::start(3);
        fn sum(p: &Pool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join_in(p, || sum(p, lo, mid), || sum(p, mid, hi));
                a + b
            }
        }
        assert_eq!(sum(&p, 0, 1000), 499_500);
    }

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_filter_map_matches_sequential() {
        let input: Vec<(usize, usize)> = (0..5000).map(|i| (i % 7, i)).collect();
        let par: Vec<usize> = input
            .par_iter()
            .filter(|(k, _)| *k != 3)
            .map(|&(_, v)| v)
            .collect();
        let seq: Vec<usize> = input
            .iter()
            .filter(|(k, _)| *k != 3)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn flat_map_iter_concatenates_in_order() {
        let chains: Vec<Vec<u32>> = (0..100).map(|i| vec![i; (i % 4) as usize]).collect();
        let par: Vec<u32> = chains.par_iter().flat_map_iter(|c| c.clone()).collect();
        let seq: Vec<u32> = chains.iter().flat_map(|c| c.clone()).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_and_singleton_sources() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [42u8];
        let out: Vec<u8> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![43]);
        let none: Vec<usize> = (7..7).into_par_iter().collect();
        assert!(none.is_empty());
        let mut empty_sort: Vec<u32> = Vec::new();
        empty_sort.par_sort_unstable();
        let mut single = [9u32];
        single.par_sort();
        assert_eq!(single, [9]);
    }

    #[test]
    fn for_each_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        (0..hits.len()).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(AtomicOrdering::Relaxed) == 1));
    }

    #[test]
    fn for_each_propagates_panics() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            (0..128usize).into_par_iter().for_each(|i| {
                if i == 57 {
                    panic!("for_each boom");
                }
            });
        }));
        assert!(r.is_err());
    }

    #[test]
    fn par_sort_by_key_is_stable_like_std() {
        // Many duplicate keys with distinguishable payloads: the permutation
        // must equal std's *stable* sort at every thread count and below and
        // above the grain.
        let p = Pool::start(4);
        for n in [0usize, 1, 2, 100, 10_000] {
            let input: Vec<(u8, usize)> = (0..n).map(|i| ((i % 13) as u8, i)).collect();
            let mut par = input.clone();
            par_stable_sort_in(&p, &mut par, &|a, b| a.0.cmp(&b.0), 64);
            let mut seq = input;
            seq.sort_by_key(|&(k, _)| k);
            assert_eq!(par, seq, "n={n}");
        }
    }

    #[test]
    fn par_sorts_match_std_on_total_orders() {
        let mut x = 9_234_567_891u64;
        let mut input: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            input.push(x >> 40); // plenty of duplicates
        }
        let mut par = input.clone();
        par.par_sort_unstable();
        let mut seq = input.clone();
        seq.sort_unstable();
        assert_eq!(par, seq);
        let mut par2 = input.clone();
        par2.par_sort();
        assert_eq!(par2, seq);
        let mut par3 = input;
        par3.par_sort_unstable_by_key(|&v| v);
        assert_eq!(par3, seq);
    }

    #[test]
    fn sort_comparator_panic_leaves_input_intact() {
        let p = Pool::start(2);
        let input: Vec<u32> = (0..9000).rev().collect();
        let mut v = input.clone();
        let r = catch_unwind(AssertUnwindSafe(|| {
            par_stable_sort_in(
                &p,
                &mut v,
                &|a, b| {
                    if *a == 4500 {
                        panic!("cmp boom");
                    }
                    a.cmp(b)
                },
                64,
            );
        }));
        assert!(r.is_err());
        assert_eq!(v, input, "panicking comparator must not corrupt the slice");
    }

    #[test]
    fn run_all_propagates_panics_and_finishes_other_tasks() {
        let p = test_pool();
        let done = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
                .map(|i| {
                    let done = &done;
                    Box::new(move || {
                        if i == 5 {
                            panic!("task boom");
                        }
                        done.fetch_add(1, AtomicOrdering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            p.run_all(tasks);
        }));
        assert!(r.is_err());
        assert_eq!(
            done.load(AtomicOrdering::Relaxed),
            15,
            "every non-panicking task still ran to completion"
        );
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let p = Pool::start(1);
        assert_eq!(p.threads(), 1);
        let (a, b) = join_in(&p, || 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
