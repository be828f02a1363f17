//! Virtual time.
//!
//! All latency and throughput figures in the reproduction are expressed in
//! virtual nanoseconds. The paper reports microseconds; helper accessors are
//! provided for both units.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Simulation start.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> VirtualTime {
        VirtualTime(ns)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> VirtualTime {
        VirtualTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> VirtualTime {
        VirtualTime(ms * 1_000_000)
    }

    /// Nanoseconds since start.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds since start (floating point, for reporting).
    pub fn as_micros_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds since start (floating point, for reporting).
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add<SimDuration> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: SimDuration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for VirtualTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = SimDuration;
    fn sub(self, rhs: VirtualTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_micros_f64())
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds (floating point).
    pub fn as_micros_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds (floating point).
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds (floating point).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiply by an integer factor.
    pub fn times(&self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(VirtualTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(VirtualTime::from_millis(2).as_micros_f64(), 2_000.0);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1_000.0);
    }

    #[test]
    fn arithmetic() {
        let t = VirtualTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t, VirtualTime::from_micros(15));
        assert_eq!(
            t - VirtualTime::from_micros(10),
            SimDuration::from_micros(5)
        );
        // saturating behaviour on underflow
        assert_eq!(VirtualTime::ZERO - t, SimDuration::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
    }
}
