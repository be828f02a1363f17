//! Measurement utilities used by tests and the paper-figure harnesses.
//!
//! The paper reports latency percentiles (Figure 8, 11, 12), latency time
//! series (Figure 9, 13), throughput in Gbps (Figure 10) and recovery times
//! (Figure 14). This module provides the corresponding collectors.

use crate::time::{SimDuration, VirtualTime};

/// A simple exact histogram of durations (stores every sample).
///
/// The experiments record at most a few million samples, so exact storage is
/// affordable and keeps percentile computation trivially correct.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Record a raw nanosecond value.
    pub fn record_nanos(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Value at percentile `p` in `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let idx = ((p / 100.0) * (self.samples.len() - 1) as f64).floor() as usize;
        SimDuration::from_nanos(self.samples[idx])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> SimDuration {
        self.percentile(50.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&v| v as u128).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Smallest sample.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// The paper's standard five percentiles: 5, 25, 50, 75, 95.
    pub fn summary(&mut self) -> Summary {
        Summary {
            p5: self.percentile(5.0),
            p25: self.percentile(25.0),
            p50: self.percentile(50.0),
            p75: self.percentile(75.0),
            p95: self.percentile(95.0),
            mean: self.mean(),
            count: self.len(),
        }
    }
}

/// Five-number summary plus mean, matching the box plots of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// 5th percentile.
    pub p5: SimDuration,
    /// 25th percentile.
    pub p25: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 75th percentile.
    pub p75: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// Mean.
    pub mean: SimDuration,
    /// Number of samples summarised.
    pub count: usize,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p5={} p25={} p50={} p75={} p95={} mean={} n={}",
            self.p5, self.p25, self.p50, self.p75, self.p95, self.mean, self.count
        )
    }
}

/// A time series of `(time, value)` samples (Figures 9 and 13).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(VirtualTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a sample.
    pub fn push(&mut self, at: VirtualTime, value: f64) {
        self.points.push((at, value));
    }

    /// All samples in insertion order.
    pub fn points(&self) -> &[(VirtualTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Throughput accounting: bytes processed over a span of virtual time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    bytes: u64,
    packets: u64,
    first: Option<VirtualTime>,
    last: Option<VirtualTime>,
}

impl Throughput {
    /// Create an empty accumulator.
    pub fn new() -> Throughput {
        Throughput::default()
    }

    /// Record a packet of `bytes` bytes completed at time `at`.
    pub fn record(&mut self, at: VirtualTime, bytes: u64) {
        self.bytes += bytes;
        self.packets += 1;
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.last = Some(at);
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets recorded.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Average goodput in Gbps between the first and last recorded packet.
    pub fn gbps(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => {
                let ns = (b - a).as_nanos() as f64;
                (self.bytes as f64 * 8.0) / ns
            }
            _ => 0.0,
        }
    }

    /// Packets per second between the first and last recorded packet.
    pub fn pps(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => {
                let s = (b - a).as_secs_f64();
                self.packets as f64 / s
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_micros(i));
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.median(), SimDuration::from_micros(50));
        assert_eq!(h.percentile(95.0), SimDuration::from_micros(95));
        assert_eq!(h.percentile(0.0), SimDuration::from_micros(1));
        assert_eq!(h.percentile(100.0), SimDuration::from_micros(100));
        assert_eq!(h.min(), SimDuration::from_micros(1));
        assert_eq!(h.max(), SimDuration::from_micros(100));
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p25 < s.p75);
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.median(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn throughput_gbps() {
        let mut t = Throughput::new();
        // 1250 bytes every microsecond for 1000 packets = 10 Gbps.
        for i in 0..1000u64 {
            t.record(VirtualTime::from_micros(i), 1250);
        }
        let g = t.gbps();
        assert!((g - 10.0).abs() < 0.2, "got {g}");
        assert_eq!(t.packets(), 1000);
        assert!(t.pps() > 900_000.0);
    }

    #[test]
    fn throughput_degenerate() {
        let mut t = Throughput::new();
        assert_eq!(t.gbps(), 0.0);
        t.record(VirtualTime::from_micros(5), 100);
        // single sample: no elapsed time
        assert_eq!(t.gbps(), 0.0);
    }
}
