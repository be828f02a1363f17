//! Lock-free metric primitives: a counter and a bounded streaming histogram.
//!
//! Everything here is recordable from any number of threads through `&self`
//! with nothing but relaxed atomic arithmetic — no locks, no allocation —
//! so the packet path can afford to call [`StreamingHistogram::record`] per
//! packet. Reads (`percentile`, `summary`, sums) are also `&self`: they
//! snapshot the atomics, so a summary can be computed *while* writers are
//! still recording (the live-monitoring requirement the exact
//! sort-on-read histogram in `chc_sim` cannot meet).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Counter {
        Counter(AtomicU64::new(self.get()))
    }
}

/// Sub-buckets per power-of-two octave: 2^5 = 32 buckets per doubling keeps
/// the relative quantization error of any recorded value under 1/32 ≈ 3.1%.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; each of the remaining
/// `64 - SUB_BITS` octaves gets `SUB` buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a value (log2 bucketing with linear sub-buckets, the
/// HdrHistogram layout).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let octave = msb - SUB_BITS as usize;
        let sub = (v >> (msb - SUB_BITS as usize)) as usize - SUB;
        SUB + octave * SUB + sub
    }
}

/// Lowest value that maps to bucket `i` (inverse of [`bucket_index`]).
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let octave = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        ((SUB + sub) as u64) << octave
    }
}

/// First value *above* bucket `i` (its exclusive upper bound).
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_low(i + 1)
    } else {
        u64::MAX
    }
}

/// A bounded, lock-free, log2-bucketed histogram of `u64` samples
/// (typically nanoseconds).
///
/// * `record` is wait-free: one relaxed `fetch_add` on a bucket plus the
///   count/sum/min/max atomics — no allocation, ever, which is what lets it
///   ride the packet hot path (unlike `chc_sim::Histogram`, which stores
///   every sample and sorts millions of entries on read).
/// * Memory is a fixed ~15 KiB regardless of sample count.
/// * Percentiles are estimates with ≤ ~3.1% relative quantization error
///   (linear interpolation inside a 1/32-octave bucket); `count`, `sum`,
///   `min` and `max` are exact.
pub struct StreamingHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for StreamingHistogram {
    fn default() -> StreamingHistogram {
        StreamingHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> StreamingHistogram {
        StreamingHistogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value with one round of atomics (used
    /// when a batch's cost is amortized evenly over its packets).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        // min/max rarely move once warm: a plain load guards the CAS so the
        // common path issues no read-modify-write (fetch_min/fetch_max
        // compile to CAS loops on x86 even when the value is unchanged).
        let mut cur = self.min.load(Ordering::Relaxed);
        while v < cur {
            match self
                .min
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max.load(Ordering::Relaxed);
        while v > cur {
            match self
                .max
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Alias for [`StreamingHistogram::count`] as a `usize`, mirroring the
    /// exact histogram's API.
    pub fn len(&self) -> usize {
        self.count() as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Exact largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated value at percentile `p` in `[0, 100]`, interpolated inside
    /// the matching bucket and clamped to the exact observed min/max.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let frac = (rank - cum) as f64 / c as f64;
                let low = bucket_low(i);
                let high = bucket_high(i).min(self.max().max(low + 1));
                let v = low as f64 + frac * (high - low) as f64;
                return (v as u64).clamp(self.min(), self.max());
            }
            cum += c;
        }
        self.max()
    }

    /// Current non-empty buckets as `(lower bound, count)` pairs — the raw
    /// distribution, for serialization and for conservation checks (the
    /// counts always sum to [`StreamingHistogram::count`]).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_low(i), c))
            })
            .collect()
    }

    /// Fold another histogram's current contents into this one.
    pub fn merge(&self, other: &StreamingHistogram) {
        for (i, b) in other.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Five-percentile summary plus exact mean/min/max/count, computed from
    /// `&self` (writers may still be recording).
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            mean_ns: self.mean(),
            min_ns: self.min(),
            p25_ns: self.percentile(25.0),
            p50_ns: self.percentile(50.0),
            p75_ns: self.percentile(75.0),
            p95_ns: self.percentile(95.0),
            p99_ns: self.percentile(99.0),
            max_ns: self.max(),
        }
    }
}

impl Clone for StreamingHistogram {
    fn clone(&self) -> StreamingHistogram {
        let copy = StreamingHistogram::new();
        copy.merge(self);
        copy
    }
}

impl std::fmt::Debug for StreamingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingHistogram")
            .field("count", &self.count())
            .field("mean_ns", &self.mean())
            .field("p50_ns", &self.percentile(50.0))
            .field("max_ns", &self.max())
            .finish()
    }
}

/// Point-in-time summary of a [`StreamingHistogram`], in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Samples recorded (exact).
    pub count: u64,
    /// Arithmetic mean (exact).
    pub mean_ns: f64,
    /// Smallest sample (exact).
    pub min_ns: u64,
    /// Estimated 25th percentile.
    pub p25_ns: u64,
    /// Estimated median.
    pub p50_ns: u64,
    /// Estimated 75th percentile.
    pub p75_ns: u64,
    /// Estimated 95th percentile.
    pub p95_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
    /// Largest sample (exact).
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_is_monotone_and_tight() {
        let mut last = 0usize;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last || v < 32, "indices grow with values");
            last = i.max(last);
            assert!(bucket_low(i) <= v, "v={v} low={}", bucket_low(i));
            assert!(v < bucket_high(i) || i == BUCKETS - 1);
            // Relative bucket width ≤ 1/32 beyond the linear range.
            if v >= 32 && i < BUCKETS - 1 {
                let width = bucket_high(i) - bucket_low(i);
                assert!(width as f64 / bucket_low(i) as f64 <= 1.0 / 16.0);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_exact_values_within_bucket_error() {
        let h = StreamingHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1.0);
        for (p, exact) in [(50.0, 5_000.0), (95.0, 9_500.0), (99.0, 9_900.0)] {
            let est = h.percentile(p) as f64;
            assert!(
                (est - exact).abs() / exact < 0.04,
                "p{p}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_and_single_sample() {
        let h = StreamingHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(77);
        assert_eq!(h.len(), 1);
        assert_eq!(h.percentile(0.0), 77);
        assert_eq!(h.percentile(50.0), 77);
        assert_eq!(h.percentile(100.0), 77);
        assert_eq!(h.min(), 77);
        assert_eq!(h.max(), 77);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = StreamingHistogram::new();
        let b = StreamingHistogram::new();
        for _ in 0..100 {
            a.record(640);
        }
        b.record_n(640, 100);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        assert_eq!(a.nonzero_buckets(), b.nonzero_buckets());
    }

    #[test]
    fn buckets_conserve_samples_and_merge_adds() {
        let h = StreamingHistogram::new();
        for v in [3u64, 3, 40, 41, 1_000_000, 7] {
            h.record(v);
        }
        let total: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(total, h.count());

        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.count(), 12);
        let total: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 12);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.clone().get(), 10);
    }

    #[test]
    fn summary_is_computable_from_shared_reference() {
        let h = StreamingHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        // &self summary: no &mut required, unlike chc_sim::Histogram.
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p25_ns < s.p50_ns && s.p50_ns < s.p95_ns);
        assert!(s.min_ns == 100 && s.max_ns == 100_000);
    }
}
