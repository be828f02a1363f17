//! The monitor thread's gauge time series.
//!
//! The monitor samples a set of named gauges at a fixed cadence and appends
//! one [`GaugeSample`] per gauge per tick. Series are plain owned data (no
//! atomics): the monitor thread owns them while the run is live and hands
//! them over through the report when it joins.

/// One `(time, value)` observation of a gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Nanoseconds since the run's epoch (the engine's `t0`).
    pub t_ns: u64,
    /// Observed value.
    pub value: f64,
}

/// A named sequence of samples, appended in wall-clock order.
#[derive(Debug, Clone, Default)]
pub struct GaugeSeries {
    /// Metric name, e.g. `ring.fw0->nat0.depth` or `shard.2.ops_per_sec`.
    pub name: String,
    /// Samples in append order.
    pub points: Vec<GaugeSample>,
}

impl GaugeSeries {
    /// An empty series with the given name.
    pub fn new(name: impl Into<String>) -> GaugeSeries {
        GaugeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append one observation.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        self.points.push(GaugeSample { t_ns, value });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// True when timestamps never decrease — the invariant the monitor
    /// thread must uphold (asserted by tests).
    pub fn is_monotonic(&self) -> bool {
        self.points.windows(2).all(|w| w[0].t_ns <= w[1].t_ns)
    }
}

/// All gauge series collected during one run.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySeries {
    /// One series per monitored gauge.
    pub series: Vec<GaugeSeries>,
}

impl TelemetrySeries {
    /// An empty collection.
    pub fn new() -> TelemetrySeries {
        TelemetrySeries::default()
    }

    /// Find a series by exact name.
    pub fn get(&self, name: &str) -> Option<&GaugeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Series whose names start with `prefix` (e.g. `"ring."`).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a GaugeSeries> {
        self.series
            .iter()
            .filter(move |s| s.name.starts_with(prefix))
    }

    /// True when every contained series is monotonic in time.
    pub fn is_monotonic(&self) -> bool {
        self.series.iter().all(GaugeSeries::is_monotonic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonicity_and_lookup() {
        let mut s = GaugeSeries::new("ring.a->b.depth");
        s.push(10, 1.0);
        s.push(20, 5.0);
        s.push(20, 3.0);
        assert!(s.is_monotonic());
        s.push(5, 0.0);
        assert!(!s.is_monotonic());

        let mut all = TelemetrySeries::new();
        all.series.push(GaugeSeries::new("ring.a->b.depth"));
        all.series.push(GaugeSeries::new("shard.0.ops"));
        assert!(all.get("shard.0.ops").is_some());
        assert_eq!(all.with_prefix("ring.").count(), 1);
        assert!(all.is_monotonic());
    }
}
