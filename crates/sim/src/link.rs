//! The link model: one latency for every hop, with optional loss.
//!
//! [`LinkConfig`] captures the one-way properties of the network between
//! actors; the simulation applies the same link to every message it
//! delivers, with an optional drop probability for fault-injection
//! experiments (the network "today already reorders or drops packets", §2.1).
//! The store's round trip is not a link: `chc_core`'s cost model charges it
//! per state operation.

use crate::time::SimDuration;

/// One-way properties of the link every message crosses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base propagation + switching latency applied to every message.
    pub latency: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_probability: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // A low-latency datacenter hop: 2 µs one way, lossless.
        LinkConfig {
            latency: SimDuration::from_micros(2),
            drop_probability: 0.0,
        }
    }
}

impl LinkConfig {
    /// A link with the given one-way latency and no loss.
    pub fn with_latency(latency: SimDuration) -> LinkConfig {
        LinkConfig {
            latency,
            ..Default::default()
        }
    }

    /// An ideal zero-latency link (used to model function calls within a
    /// single process, e.g. an NF and its co-located splitter).
    pub fn ideal() -> LinkConfig {
        LinkConfig::with_latency(SimDuration::ZERO)
    }

    /// Set the drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> LinkConfig {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let l = LinkConfig::default();
        assert_eq!(l.latency, SimDuration::from_micros(2));
        assert_eq!(l.drop_probability, 0.0);
        assert_eq!(LinkConfig::ideal().latency, SimDuration::ZERO);
    }

    #[test]
    fn drop_probability_is_clamped() {
        assert_eq!(
            LinkConfig::default()
                .with_drop_probability(2.0)
                .drop_probability,
            1.0
        );
        assert_eq!(
            LinkConfig::default()
                .with_drop_probability(-1.0)
                .drop_probability,
            0.0
        );
    }
}
