//! Simulated time.
//!
//! All timestamps in the workspace are [`SimTime`] — milliseconds since
//! the start of the simulation. Nothing reads the wall clock, which is
//! what makes every experiment reproducible from a seed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, millisecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * 1_000)
    }

    /// From whole minutes.
    pub const fn from_mins(mins: u64) -> SimDuration {
        SimDuration(mins * 60_000)
    }

    /// From whole hours.
    pub const fn from_hours(hours: u64) -> SimDuration {
        SimDuration(hours * 3_600_000)
    }

    /// Milliseconds in this duration.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float, for statistics.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Scales the duration by an integer factor.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{}s", self.0 / 1_000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

/// An instant in simulated time: milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Builds a time from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * 1_000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Whole seconds elapsed since `earlier` — the granularity at which
    /// DNS TTLs age.
    pub const fn secs_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0) / 1_000
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_millis())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_millis();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000;
        let (h, m, s, ms) = (
            total_secs / 3_600,
            (total_secs / 60) % 60,
            total_secs % 60,
            self.0 % 1_000,
        );
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_mins(10), SimDuration::from_secs(600));
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(100);
        let t1 = t0 + SimDuration::from_millis(2_500);
        assert_eq!(t1.as_millis(), 102_500);
        assert_eq!((t1 - t0).as_millis(), 2_500);
        assert_eq!(t0 - t1, SimDuration::ZERO); // saturating
        assert_eq!(t1.secs_since(t0), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_723_042).to_string(), "01:02:03.042");
        assert_eq!(SimDuration::from_secs(600).to_string(), "600s");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1500ms");
    }
}
