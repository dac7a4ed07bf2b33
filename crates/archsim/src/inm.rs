//! Intel Node Manager (INM) model.
//!
//! The paper measures DC node power through the Intel Node Manager, whose
//! accumulated-energy counter updates once per second (paper §III,
//! footnote 2). EARL derives average DC power from energy deltas over
//! ≥ 10 s windows precisely because of this coarse update granularity.
//!
//! The model integrates true DC power continuously but only *publishes* the
//! counter value at whole update periods, exactly like the firmware.

use crate::repeat::repeat_add;
use crate::time::SimTime;

/// The node-level DC energy meter.
#[derive(Debug, Clone)]
pub struct Inm {
    /// Exact accumulated energy (J) — simulator ground truth.
    live_j: f64,
    /// Counter value visible to software (mJ), updated every period.
    published_mj: u64,
    /// Timestamp of the last publication (software can read it alongside
    /// the counter, as IPMI reports a sample timestamp).
    published_at: SimTime,
    /// Next publication boundary.
    next_pub: SimTime,
    /// Publication period (s); 1.0 for the paper's firmware.
    period_s: f64,
    /// Fault injection: no publications happen before this instant (the
    /// BMC firmware occasionally stalls; EAR must tolerate stale energy
    /// readings). Accumulation continues, so the backlog is published at
    /// the first boundary after recovery.
    stalled_until: SimTime,
}

impl Inm {
    /// Creates a meter publishing every `period_s` seconds.
    pub fn new(period_s: f64) -> Self {
        assert!(period_s > 0.0);
        Self {
            live_j: 0.0,
            published_mj: 0,
            published_at: SimTime::ZERO,
            next_pub: SimTime::from_secs(period_s),
            period_s,
            stalled_until: SimTime::ZERO,
        }
    }

    /// Integrates `power_w` over `[start, start + dt)`, publishing the
    /// counter at every period boundary crossed.
    pub fn accumulate(&mut self, start: SimTime, dt: f64, power_w: f64) {
        debug_assert!(dt >= 0.0 && power_w >= 0.0);
        let end = start + dt;
        let mut cursor = start;
        while self.next_pub <= end {
            let span = self.next_pub - cursor;
            self.live_j += power_w * span;
            if self.next_pub >= self.stalled_until {
                self.published_mj = (self.live_j * 1e3).round() as u64;
                self.published_at = self.next_pub;
            }
            cursor = self.next_pub;
            self.next_pub += self.period_s;
        }
        self.live_j += power_w * (end - cursor);
    }

    /// `n` back-to-back [`Inm::accumulate`] calls of `dt` each at the same
    /// power, from `start`, bit for bit: the intervals between two
    /// publications add the same energy each, so every run of them costs
    /// one [`repeat_add`], and only an interval that crosses a boundary is
    /// integrated literally.
    pub(crate) fn accumulate_quanta(
        &mut self,
        mut start: SimTime,
        dt: f64,
        power_w: f64,
        mut n: u64,
    ) {
        let end = start + dt;
        let step_us = end.as_micros() - start.as_micros();
        let clear_j = power_w * (end - start);
        while n > 0 {
            // Intervals ending before the next publication boundary.
            let clear = self
                .next_pub
                .0
                .saturating_sub(start.0 + 1)
                .checked_div(step_us)
                .unwrap_or(n)
                .min(n);
            self.live_j = repeat_add(self.live_j, clear_j, clear);
            start.0 += clear * step_us;
            n -= clear;
            if n > 0 {
                self.accumulate(start, dt, power_w);
                start += dt;
                n -= 1;
            }
        }
    }

    /// The counter value software reads (mJ since boot, last published).
    pub fn energy_mj(&self) -> u64 {
        self.published_mj
    }

    /// Fault injection: suppress publications until `now + seconds`.
    pub fn stall_for(&mut self, now: SimTime, seconds: f64) {
        self.stalled_until = now + seconds;
    }

    /// Timestamp of the last counter publication.
    pub fn published_at(&self) -> SimTime {
        self.published_at
    }

    /// Simulator ground truth (J), for tests and exact accounting.
    pub fn exact_energy_j(&self) -> f64 {
        self.live_j
    }
}

impl Default for Inm {
    fn default() -> Self {
        Self::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_only_at_period_boundaries() {
        let mut inm = Inm::default();
        // 300 W for 0.9 s: nothing published yet.
        inm.accumulate(SimTime::ZERO, 0.9, 300.0);
        assert_eq!(inm.energy_mj(), 0);
        assert!((inm.exact_energy_j() - 270.0).abs() < 1e-9);
        // 0.2 s more crosses the 1 s boundary: exactly 300 J published.
        inm.accumulate(SimTime::from_secs(0.9), 0.2, 300.0);
        assert_eq!(inm.energy_mj(), 300_000);
        assert!((inm.exact_energy_j() - 330.0).abs() < 1e-9);
    }

    #[test]
    fn long_interval_crosses_many_boundaries() {
        let mut inm = Inm::default();
        inm.accumulate(SimTime::ZERO, 10.5, 100.0);
        // Published at t = 10 s: 1000 J.
        assert_eq!(inm.energy_mj(), 1_000_000);
        assert!((inm.exact_energy_j() - 1050.0).abs() < 1e-9);
    }

    #[test]
    fn power_changes_integrate_exactly() {
        let mut inm = Inm::default();
        inm.accumulate(SimTime::ZERO, 0.5, 200.0);
        inm.accumulate(SimTime::from_secs(0.5), 0.5, 400.0);
        assert_eq!(inm.energy_mj(), 300_000); // 100 + 200 J at the boundary
    }

    #[test]
    fn stall_suppresses_then_recovers() {
        let mut inm = Inm::default();
        inm.stall_for(SimTime::ZERO, 2.5);
        inm.accumulate(SimTime::ZERO, 2.0, 100.0);
        // Two boundaries crossed, but the meter is stalled.
        assert_eq!(inm.energy_mj(), 0);
        assert_eq!(inm.published_at(), SimTime::ZERO);
        // Recovery: the 3 s boundary publishes the full backlog.
        inm.accumulate(SimTime::from_secs(2.0), 1.5, 100.0);
        assert_eq!(inm.energy_mj(), 300_000);
        assert_eq!(inm.published_at(), SimTime::from_secs(3.0));
    }

    #[test]
    fn quanta_match_repeated_calls_across_publications_and_a_stall() {
        let run = |jump: bool| {
            let mut inm = Inm::default();
            let mut t = SimTime::from_secs(0.003);
            inm.stall_for(t, 2.2);
            for (dt, n, w) in [
                (0.01, 537u64, 311.7),
                (0.0100004, 250, 97.3),
                (0.25, 9, 0.0),
            ] {
                if jump {
                    inm.accumulate_quanta(t, dt, w, n);
                    for _ in 0..n {
                        t += dt;
                    }
                } else {
                    for _ in 0..n {
                        inm.accumulate(t, dt, w);
                        t += dt;
                    }
                }
            }
            (
                inm.exact_energy_j().to_bits(),
                inm.energy_mj(),
                inm.published_at(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn zero_power_is_fine() {
        let mut inm = Inm::default();
        inm.accumulate(SimTime::ZERO, 5.0, 0.0);
        assert_eq!(inm.energy_mj(), 0);
    }
}
