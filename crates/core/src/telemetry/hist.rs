//! Fixed-bucket log-scale histograms.
//!
//! A [`Histogram`] spreads recorded `u64` samples (nanoseconds, bytes,
//! queue depths) over 64 power-of-two buckets: bucket `i` covers
//! `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly the value 0), and values
//! at or above `2^63` land in an implicit overflow bucket counted only in
//! the total. Log-scale buckets trade per-sample precision for a fixed
//! footprint and wait-free recording: one padded counter bump per sample,
//! no locks, no allocation after construction. Quantile estimates
//! (p50/p90/p99) report the upper bound of the bucket containing the
//! target rank, clamped to the exact running maximum — an overestimate of
//! at most 2x, which is ample for the latency-tail analysis the
//! evaluation needs (orders of magnitude, not cycle counts).

use graphbolt_engine::parallel::WorkCounter;

/// Number of finite buckets; values needing more than 63 bits overflow
/// into the count-only tail.
const BUCKETS: usize = 64;

/// A lock-free log2-bucket histogram with exact count, sum, and max.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: Box<[WorkCounter]>,
    count: WorkCounter,
    sum: WorkCounter,
    max: WorkCounter,
}

impl Histogram {
    /// Creates an empty histogram under `name` (must match
    /// `graphbolt_[a-z_]+`; checked by `tests/metric_inventory.rs`).
    pub fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            buckets: (0..BUCKETS).map(|_| WorkCounter::new()).collect(),
            count: WorkCounter::new(),
            sum: WorkCounter::new(),
            max: WorkCounter::new(),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Human-readable description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Records one sample. Wait-free: four padded-counter updates.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = bucket_index(value);
        if idx < BUCKETS {
            self.buckets[idx].add(1);
        }
        self.count.add(1);
        self.sum.add(value);
        self.max.record_max(value);
    }

    /// Records a `Duration` as saturated nanoseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of all recorded values (wraps only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.get()
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`):
    /// the inclusive upper bound of the bucket holding the rank-`ceil(q *
    /// count)` sample, clamped to the exact maximum. Returns 0 when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let snap = self.snapshot();
        snap.quantile(q)
    }

    /// Consistent-enough point-in-time copy for encoding. Bucket counts
    /// and totals are read individually (each exact); a snapshot taken
    /// concurrently with recording may be mid-sample by one count, which
    /// exposition tolerates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.get();
            if c != 0 {
                cumulative += c;
                buckets.push(BucketCount {
                    le: bucket_upper_bound(i),
                    cumulative,
                });
            }
        }
        HistogramSnapshot {
            name: self.name,
            help: self.help,
            count: self.count.get(),
            sum: self.sum.get(),
            max: self.max.get(),
            buckets,
        }
    }
}

/// Bucket for `value`: 0 for 0, otherwise the bit width of the value
/// (so bucket `i` covers `[2^(i-1), 2^i - 1]`); `BUCKETS` (overflow)
/// for values at or above `2^63`.
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of finite bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`], Prometheus-style
/// cumulative: `cumulative` counts every sample `<= le`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Samples at or below `le`.
    pub cumulative: u64,
}

/// Plain-value copy of a [`Histogram`] for encoding and assertions.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name (`graphbolt_*`).
    pub name: &'static str,
    /// Human-readable description.
    pub help: &'static str,
    /// Total samples, including overflow-bucket samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Non-empty finite buckets, ascending by `le`, cumulative counts.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for b in &self.buckets {
            if b.cumulative >= rank {
                return b.le.min(self.max);
            }
        }
        // Rank falls in the overflow tail: the max is the only bound.
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for i in 1..63 {
            // 2^(i-1) opens bucket i; 2^i - 1 closes it.
            assert_eq!(bucket_index(1u64 << (i - 1)), i, "lower edge of {i}");
            assert_eq!(bucket_index((1u64 << i) - 1), i, "upper edge of {i}");
        }
        assert_eq!(bucket_index(1u64 << 63), BUCKETS, "overflow tail");
        assert_eq!(bucket_index(u64::MAX), BUCKETS);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
    }

    #[test]
    fn count_sum_max_are_exact() {
        let h = Histogram::new("graphbolt_test_ns", "test");
        for v in [0u64, 1, 7, 1024, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 6032);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn quantiles_on_known_uniform_distribution() {
        let h = Histogram::new("graphbolt_test_ns", "test");
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 = 500 (bucket [256,511] or [512,1023]); the estimate
        // must bracket the true quantile within one log2 bucket: at least
        // the true value, at most its bucket's upper bound (< 2x).
        for (q, truth) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = h.quantile(q);
            assert!(est >= truth, "p{q}: {est} < true {truth}");
            assert!(est < truth * 2, "p{q}: {est} >= 2x true {truth}");
        }
        // p100 is the exact max, not a bucket bound.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantiles_on_skewed_distribution() {
        let h = Histogram::new("graphbolt_test_ns", "test");
        // 99 fast samples and one slow outlier: p50 stays in the fast
        // bucket, p99 must not be dragged to the outlier, p100 is exact.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 127); // bucket [64,127] upper bound
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new("graphbolt_test_ns", "test");
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn overflow_values_count_without_a_bucket() {
        let h = Histogram::new("graphbolt_test_ns", "test");
        h.record(u64::MAX);
        h.record(1);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        // Only the finite sample has a bucket; the quantile past it
        // falls back to the exact max.
        assert_eq!(snap.buckets.len(), 1);
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }

    #[test]
    fn snapshot_buckets_are_cumulative() {
        let h = Histogram::new("graphbolt_test_ns", "test");
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let last = snap.buckets.last().unwrap();
        assert_eq!(last.cumulative, 4, "last bucket counts all samples");
        for w in snap.buckets.windows(2) {
            assert!(w[0].cumulative < w[1].cumulative);
            assert!(w[0].le < w[1].le);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // Concurrent recording of arbitrary samples from parallel
        // workers: totals must be exact regardless of interleaving, and
        // every quantile estimate must sit between the true quantile and
        // its log2-bucket upper bound.
        #[test]
        #[cfg_attr(miri, ignore)] // thread-pool stress
        fn concurrent_recording_proptest(
            samples in proptest::collection::vec(0u64..1u64 << 40, 1..256),
        ) {
            use graphbolt_engine::parallel;
            let h = Histogram::new("graphbolt_test_ns", "test");
            parallel::with_threads(4, || {
                parallel::par_for_each(samples.chunks(16), |chunk| {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            });
            proptest::prop_assert_eq!(h.count(), samples.len() as u64);
            proptest::prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            proptest::prop_assert_eq!(h.max(), *sorted.last().unwrap());
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let est = h.quantile(q);
                proptest::prop_assert!(est >= truth);
                proptest::prop_assert!(est <= truth.saturating_mul(2).max(h.max()));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thread-pool stress; covered at small scale above
    fn concurrent_recording_loses_nothing() {
        use graphbolt_engine::parallel;
        let h = Histogram::new("graphbolt_test_ns", "test");
        let per_worker = 1000u64;
        let workers = 8usize;
        parallel::with_threads(workers, || {
            parallel::par_for(0..workers, |w| {
                for i in 0..per_worker {
                    h.record(w as u64 * per_worker + i);
                }
            });
        });
        let total = workers as u64 * per_worker;
        assert_eq!(h.count(), total);
        assert_eq!(h.sum(), total * (total - 1) / 2);
        assert_eq!(h.max(), total - 1);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.last().unwrap().cumulative, total);
    }
}
