//! Thin data-parallel layer.
//!
//! All parallel loops in the workspace go through this module so that (a)
//! thread count is controllable for the scalability experiments (Table 6
//! of the paper swaps a 32-core for a 96-core machine; we sweep threads
//! instead), and (b) the engine degrades gracefully to sequential
//! execution for deterministic tests.

// This module and `bitset` are where raw atomics live: everything else
// counts through `WorkCounter` / `StripedCounter` and marks through
// `AtomicBitSet`, and these two modules are what Loom, Miri and TSan run.
#![allow(clippy::disallowed_types)]

// Under `loom-check` the counters' atomics become loom's model-checked
// versions so tests/loom_models.rs can exhaustively explore publication
// interleavings.
#[cfg(feature = "loom-check")]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "loom-check"))]
use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;

/// Returns the number of worker threads rayon will use by default.
pub fn default_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `f` inside a dedicated pool of `threads` workers. Used by the
/// Table 6 harness to sweep parallelism without re-initializing the
/// global pool.
///
/// # Examples
///
/// ```
/// let sum = graphbolt_engine::parallel::with_threads(2, || {
///     graphbolt_engine::parallel::par_sum(0..100usize, |i| i)
/// });
/// assert_eq!(sum, 4950);
/// ```
/// Sizes the *global* rayon pool to `threads` workers — the CLI
/// `--threads` knob. Must run before the first parallel operation;
/// returns false (leaving the existing pool untouched) when the global
/// pool was already initialized.
pub fn set_global_threads(threads: usize) -> bool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build_global()
        .is_ok()
}

pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build thread pool")
        .install(f)
}

/// Parallel for over an index range.
#[inline]
pub fn par_for<F>(range: std::ops::Range<usize>, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    range.into_par_iter().for_each(f);
}

/// Parallel map over an index range, collecting results in order.
#[inline]
pub fn par_map<T, F>(range: std::ops::Range<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    range.into_par_iter().map(f).collect()
}

/// Parallel sum of `f(i)` over a range.
#[inline]
pub fn par_sum<T, F, I>(range: I, f: F) -> T
where
    T: Send + std::iter::Sum<T>,
    I: IntoParallelIterator,
    F: Fn(I::Item) -> T + Sync + Send,
{
    range.into_par_iter().map(f).sum()
}

/// Parallel filter-map over an index range; order of results is
/// unspecified.
#[inline]
pub fn par_filter_map<T, F>(range: std::ops::Range<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync + Send,
{
    range.into_par_iter().filter_map(f).collect()
}

/// Parallel for-each over any collection of owned items.
#[inline]
pub fn par_for_each<I, F>(items: I, f: F)
where
    I: IntoParallelIterator,
    F: Fn(I::Item) + Sync + Send,
{
    items.into_par_iter().for_each(f);
}

/// Parallel loop over contiguous chunks of `0..len`: `f(chunk_index,
/// index_range)`. The chunk index doubles as a contention-avoidance hint
/// for [`StripedCounter::add`].
#[inline]
pub fn par_for_chunks<F>(len: usize, chunk: usize, f: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync + Send,
{
    debug_assert!(chunk > 0);
    let chunks = len.div_ceil(chunk);
    par_for(0..chunks, |c| {
        let lo = c * chunk;
        f(c, lo..((lo + chunk).min(len)));
    });
}

/// Exclusive prefix sum (sequential — used on per-vertex offset arrays
/// where the scan is memory-bound anyway). Returns the total.
pub fn exclusive_prefix_sum(values: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for v in values.iter_mut() {
        let next = acc + *v;
        *v = acc;
        acc = next;
    }
    acc
}

/// Block size for [`par_exclusive_prefix_sum`]; arrays shorter than one
/// block scan sequentially (the scan is memory-bound, so fine-grained
/// splitting only adds scheduling overhead).
const SCAN_BLOCK: usize = 1 << 14;

/// Parallel exclusive prefix sum over `values`, returning the total.
///
/// Three-phase blocked scan: (1) per-block sums in parallel, (2) a short
/// sequential scan over the block sums, (3) per-block exclusive scans
/// rebased on their block offset, in parallel. Identical output to
/// [`exclusive_prefix_sum`] for every input.
pub fn par_exclusive_prefix_sum(values: &mut [usize]) -> usize {
    if values.len() <= SCAN_BLOCK {
        return exclusive_prefix_sum(values);
    }
    let blocks = values.len().div_ceil(SCAN_BLOCK);
    let mut block_sums = par_map(0..blocks, |b| {
        values[b * SCAN_BLOCK..((b + 1) * SCAN_BLOCK).min(values.len())]
            .iter()
            .sum::<usize>()
    });
    let total = exclusive_prefix_sum(&mut block_sums);
    let tasks: Vec<(&mut [usize], usize)> = values
        .chunks_mut(SCAN_BLOCK)
        .zip(block_sums)
        .collect();
    par_for_each(tasks, |(chunk, offset)| {
        let mut acc = offset;
        for v in chunk.iter_mut() {
            let next = acc + *v;
            *v = acc;
            acc = next;
        }
    });
    total
}

/// Pads the wrapped value out to a cache line so adjacent values never
/// share one (no false sharing between per-stripe counters).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// Number of stripes in a [`StripedCounter`]; must be a power of two.
/// Sized for high core counts — the memory cost is one cache line each.
const COUNTER_STRIPES: usize = 64;

/// A contention-free work counter: `add` lands on one of
/// [`COUNTER_STRIPES`] cache-line-padded atomics selected by a caller
/// hint (typically a chunk index), and `sum` folds the stripes.
///
/// The intended discipline — accumulate into a plain local integer inside
/// a work chunk, then publish once per chunk — turns what used to be one
/// `fetch_add` on a single shared atomic *per edge* into one striped
/// `fetch_add` *per chunk*, while keeping totals exact (integer adds are
/// associative and commutative, so totals are independent of both thread
/// count and interleaving).
#[derive(Debug)]
pub struct StripedCounter {
    stripes: Box<[CachePadded<AtomicU64>]>,
}

impl Default for StripedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl StripedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self {
            stripes: (0..COUNTER_STRIPES).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Adds `delta` to the stripe selected by `hint`. Zero deltas are
    /// skipped so empty chunks cost nothing.
    #[inline]
    pub fn add(&self, hint: usize, delta: u64) {
        if delta != 0 {
            // ordering: counters carry no dependent data; integer adds
            // commute, so Relaxed gives exact totals at minimal cost.
            self.stripes[hint & (COUNTER_STRIPES - 1)]
                .0
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Exact total across all stripes.
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            // ordering: read after the parallel section joined; the
            // join is the synchronization point, not the load.
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A single cache-line-padded monotonic counter.
///
/// The sanctioned shared-counter primitive for code outside this module:
/// `edge_map` publishes per-call edge work through one, and
/// `EngineStats` aggregates over them, so no other module needs to touch
/// raw `std::sync::atomic` types (`clippy.toml`'s `disallowed-types`
/// enforces exactly that). Totals are exact:
/// integer adds commute, so the value is independent of thread count and
/// interleaving.
#[derive(Debug, Default)]
pub struct WorkCounter(CachePadded<AtomicU64>);

impl WorkCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta`. Zero deltas are skipped so idle paths cost nothing.
    #[inline]
    pub fn add(&self, delta: u64) {
        if delta != 0 {
            // ordering: pure counter, no dependent data; commutative
            // adds are exact under Relaxed.
            self.0 .0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: readers run after the workers that bumped the
        // counter joined; the join synchronizes.
        self.0 .0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (counter reset).
    #[inline]
    pub fn set(&self, value: u64) {
        // ordering: reset is single-threaded between phases.
        self.0 .0.store(value, Ordering::Relaxed);
    }

    /// Subtracts `delta` (for gauge-style occupancy tracking). Zero
    /// deltas are skipped to mirror [`WorkCounter::add`]. Wraps on
    /// underflow — callers pair every `sub` with a prior `add`.
    #[inline]
    pub fn sub(&self, delta: u64) {
        if delta != 0 {
            // ordering: pure counter, no dependent data; commutative
            // subtraction is exact under Relaxed.
            self.0 .0.fetch_sub(delta, Ordering::Relaxed);
        }
    }

    /// Raises the value to `candidate` if larger (running-maximum
    /// tracking, e.g. a histogram's exact max). A CAS loop rather than
    /// `fetch_max` so the loom model checker (whose atomic stub has no
    /// `fetch_max`) exercises the same code path as production.
    #[inline]
    pub fn record_max(&self, candidate: u64) {
        // ordering: max is commutative and idempotent; Relaxed CAS
        // retries converge to the true maximum regardless of
        // interleaving, and no dependent data rides on the value.
        let mut seen = self.0 .0.load(Ordering::Relaxed);
        while candidate > seen {
            // ordering: Relaxed for both CAS orderings, per above.
            match self.0 .0.compare_exchange_weak(
                seen,
                candidate,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Thousand-element stress tests are skipped under miri (interpreted
    // thread spawns take minutes); the smaller tests below cover the
    // same code paths at miri-friendly scale.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn par_for_visits_every_index() {
        let hits = AtomicUsize::new(0);
        par_for(0..1000, |_| {
            // ordering: test counter; the par_for join synchronizes
            // before the assert's read.
            hits.fetch_add(1, Ordering::Relaxed);
        });
        // ordering: read after join.
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn par_map_preserves_order() {
        let v = par_map(0..100, |i| i * 2);
        assert_eq!(v[0], 0);
        assert_eq!(v[99], 198);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn par_sum_matches_sequential() {
        let s: usize = par_sum(0..1000usize, |i| i);
        assert_eq!(s, 499_500);
    }

    #[test]
    fn with_threads_single_thread_works() {
        let r = with_threads(1, || par_map(0..10, |i| i).len());
        assert_eq!(r, 10);
    }

    #[test]
    fn exclusive_prefix_sum_returns_total() {
        let mut v = vec![3, 0, 2, 5];
        let total = exclusive_prefix_sum(&mut v);
        assert_eq!(total, 10);
        assert_eq!(v, vec![0, 3, 3, 5]);
    }

    #[test]
    fn par_filter_map_filters() {
        let mut v = par_filter_map(0..100, |i| (i % 10 == 0).then_some(i));
        v.sort_unstable();
        assert_eq!(v, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn par_for_chunks_covers_range_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        par_for_chunks(1000, 64, |_, range| {
            for i in range {
                // ordering: test counter; join synchronizes before the
                // assert's read below.
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        // ordering: read after join.
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn par_prefix_sum_matches_sequential() {
        // Longer than one block so the parallel path actually splits.
        let src: Vec<usize> = (0..(SCAN_BLOCK * 3 + 17)).map(|i| i % 7).collect();
        let mut seq = src.clone();
        let mut par = src;
        let t_seq = exclusive_prefix_sum(&mut seq);
        let t_par = par_exclusive_prefix_sum(&mut par);
        assert_eq!(t_seq, t_par);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_prefix_sum_short_input() {
        let mut v = vec![3, 0, 2, 5];
        assert_eq!(par_exclusive_prefix_sum(&mut v), 10);
        assert_eq!(v, vec![0, 3, 3, 5]);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn striped_counter_sums_exactly() {
        let c = StripedCounter::new();
        par_for(0..10_000, |i| c.add(i, (i % 3) as u64));
        let expected: u64 = (0..10_000u64).map(|i| i % 3).sum();
        assert_eq!(c.sum(), expected);
    }

    #[test]
    fn cache_padding_separates_lines() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 64);
    }
}
