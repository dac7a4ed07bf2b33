//! Simulated time.
//!
//! The simulator is cycle-aggregate, not cycle-accurate: time advances in
//! variable-length intervals (hardware control-loop quanta, loop iterations).
//! The master clock counts microseconds in a `u64`, which is exact, ordered
//! and cheap; physics (durations from the performance model) is computed in
//! `f64` seconds and converted at the boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time point from seconds (rounded to the nearest microsecond).
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative simulated time: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// This time point as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Microseconds since epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating difference, as seconds.
    pub fn secs_since(self, earlier: SimTime) -> f64 {
        (self.0.saturating_sub(earlier.0)) as f64 * 1e-6
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    /// Advances by `rhs` seconds.
    fn add(self, rhs: f64) -> SimTime {
        debug_assert!(rhs >= 0.0);
        SimTime(self.0 + (rhs * 1e6).round() as u64)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    /// Difference in seconds (saturating at zero).
    fn sub(self, rhs: SimTime) -> f64 {
        self.secs_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

/// The master simulation clock.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `seconds`; panics (debug) on negative input.
    pub fn advance(&mut self, seconds: f64) {
        self.now += seconds;
    }

    /// Advances the clock by `n` steps of `seconds`: the instant `n` calls
    /// of [`Clock::advance`] reach, since each rounds `seconds` to whole
    /// microseconds on its own.
    pub(crate) fn advance_quanta(&mut self, seconds: f64, n: u64) {
        let step_us = (SimTime::ZERO + seconds).as_micros();
        self.now = SimTime(self.now.0 + n * step_us);
    }

    /// Advances the clock to `t`, which must not be in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            t >= self.now,
            "clock moving backwards: {} -> {}",
            self.now,
            t
        );
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_secs_roundtrip() {
        let t = SimTime::from_secs(1.25);
        assert_eq!(t.as_micros(), 1_250_000);
        assert!((t.as_secs() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn add_seconds() {
        let t = SimTime::from_secs(1.0) + 0.5;
        assert_eq!(t, SimTime::from_secs(1.5));
    }

    #[test]
    fn sub_is_saturating() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a - b, 0.0);
        assert!((b - a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        c.advance(0.25);
        c.advance(0.75);
        assert_eq!(c.now(), SimTime::from_secs(1.0));
        c.advance_to(SimTime::from_secs(1.0)); // no-op, equal is fine
        assert_eq!(c.now(), SimTime::from_secs(1.0));
    }

    #[test]
    fn quanta_advance_like_repeated_steps() {
        let mut stepped = Clock::new();
        let mut jumped = Clock::new();
        for _ in 0..1_000 {
            stepped.advance(0.0100004);
        }
        jumped.advance_quanta(0.0100004, 1_000);
        assert_eq!(stepped.now(), jumped.now());
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(0.5).to_string(), "0.500000s");
    }

    #[test]
    fn sub_microsecond_quantisation() {
        // 0.4 µs rounds to 0; 0.6 µs rounds to 1 µs.
        assert_eq!(SimTime::from_secs(4e-7).as_micros(), 0);
        assert_eq!(SimTime::from_secs(6e-7).as_micros(), 1);
    }
}
