//! Hardware uncore frequency scaling (UFS) control loop.
//!
//! Since Haswell-EP, the package firmware dynamically selects the uncore
//! frequency within the limits programmed in `MSR_UNCORE_RATIO_LIMIT`
//! (paper §IV). Per Intel's patent US9323316B2 and the measurements in
//! Hackenberg'15 / Schöne'19, the selection follows the fastest active
//! core's frequency and the memory/stall activity, reacting within ~10 ms.
//!
//! We model it as a proportional controller evaluated every
//! [`crate::config::HwUfsParams::period_s`]:
//!
//! * If some active core's *delivered* frequency is at or above nominal, the
//!   firmware targets the programmed maximum ratio (this is what the paper
//!   observes: the hardware keeps the IMC at 2.39 GHz for both CPU-bound
//!   BT-MZ and memory-bound LU — Table I).
//! * Otherwise (all cores below nominal: DVFS throttling or AVX licence),
//!   the target scales between the programmed limits with memory utilisation
//!   and core busy fraction, plus a per-workload `bias` term that calibrates
//!   the otherwise-opaque EPB-driven firmware heuristic.
//!
//! The controller slews at most `slew_ratio_steps` per period, giving the
//! tens-of-milliseconds adaptation measured in the literature.

use crate::config::HwUfsParams;

/// Inputs sampled by the firmware each control period.
#[derive(Debug, Clone, Copy)]
pub struct HwUfsInput {
    /// Highest delivered frequency among non-halted cores (kHz); 0 if the
    /// socket is fully idle.
    pub fastest_active_khz: u64,
    /// Nominal (P1) frequency (kHz).
    pub nominal_khz: u64,
    /// Achieved memory traffic over peak, in [0, 1].
    pub mem_util: f64,
    /// Fraction of cores that are busy (work or spin), in [0, 1].
    pub busy_fraction: f64,
    /// Energy-performance bias from `IA32_ENERGY_PERF_BIAS` (0..=15).
    pub epb: u8,
    /// Per-workload calibration bias for the opaque firmware heuristic.
    pub bias: f64,
}

/// The per-socket firmware UFS controller.
#[derive(Debug, Clone)]
pub struct HwUfsController {
    params: HwUfsParams,
    current_ratio: u8,
    /// Simulated time (s) remaining until the next control evaluation.
    until_next: f64,
}

impl HwUfsController {
    /// Creates a controller starting at `initial_ratio`.
    pub fn new(params: HwUfsParams, initial_ratio: u8) -> Self {
        let until_next = params.period_s;
        Self {
            params,
            current_ratio: initial_ratio,
            until_next,
        }
    }

    /// The uncore ratio currently applied (100 MHz units).
    pub fn current_ratio(&self) -> u8 {
        self.current_ratio
    }

    /// Simulated time (s) left until the next control evaluation.
    pub(crate) fn until_next_s(&self) -> f64 {
        self.until_next
    }

    /// Forces the ratio (used when software pins min == max; the firmware
    /// must apply the new limits immediately, not at the next period).
    pub fn clamp_to_limits(&mut self, min_ratio: u8, max_ratio: u8) {
        self.current_ratio = self.current_ratio.clamp(min_ratio, max_ratio);
    }

    /// The raw target ratio the firmware would pick for `input` within
    /// `[min_ratio, max_ratio]`, before slew limiting.
    pub fn target_ratio(&self, input: &HwUfsInput, min_ratio: u8, max_ratio: u8) -> u8 {
        if input.fastest_active_khz == 0 {
            return min_ratio;
        }
        if input.fastest_active_khz + self.params.nominal_margin_khz >= input.nominal_khz {
            return max_ratio;
        }
        // Sub-nominal mode: scale between the limits. EPB above "balanced"
        // (6) shaves the target further; below it boosts.
        let p = &self.params;
        let mem_term = p.mem_weight * (input.mem_util / p.mem_sat).min(1.0);
        let busy_term = p.busy_weight * input.busy_fraction.clamp(0.0, 1.0);
        let epb_term = (6.0 - input.epb as f64) * 0.02;
        let raw = (mem_term + busy_term + epb_term + input.bias).clamp(0.0, 1.0);
        let span = (max_ratio - min_ratio) as f64;
        (min_ratio as f64 + span * raw).round() as u8
    }

    /// Advances simulated time by `dt` seconds, evaluating the control loop
    /// at each elapsed period boundary. Returns the ratio in effect after
    /// the advance.
    pub fn advance(&mut self, dt: f64, input: &HwUfsInput, min_ratio: u8, max_ratio: u8) -> u8 {
        let target = self.target_ratio(input, min_ratio, max_ratio);
        self.advance_to(dt, target, min_ratio, max_ratio)
    }

    /// [`HwUfsController::advance`] with the control target already
    /// evaluated: the target depends only on the sampled inputs and the
    /// limits, so a caller whose inputs have not changed can reuse it.
    pub fn advance_to(&mut self, mut dt: f64, target: u8, min_ratio: u8, max_ratio: u8) -> u8 {
        self.clamp_to_limits(min_ratio, max_ratio);
        let period = self.params.period_s;
        while dt >= self.until_next {
            dt -= self.until_next;
            self.until_next = period;
            self.step_towards(target);
        }
        self.until_next -= dt;
        self.current_ratio
    }

    /// `n` successive [`HwUfsController::advance_to`] calls of `dt` each.
    /// Once a call leaves the ratio and the slew timer as it found them,
    /// every further call would too, so the walk stops there: a settled
    /// controller stepped in whole periods reaches that fixed point within
    /// two calls.
    #[inline]
    pub(crate) fn advance_quanta(
        &mut self,
        dt: f64,
        n: u64,
        target: u8,
        min_ratio: u8,
        max_ratio: u8,
    ) -> u8 {
        let mut ratio = self.advance_to(dt, target, min_ratio, max_ratio);
        for _ in 1..n {
            let before = (ratio, self.until_next.to_bits());
            ratio = self.advance_to(dt, target, min_ratio, max_ratio);
            if (ratio, self.until_next.to_bits()) == before {
                break;
            }
        }
        ratio
    }

    fn step_towards(&mut self, target: u8) {
        let step = self.params.slew_ratio_steps.max(1);
        if target > self.current_ratio {
            self.current_ratio = (self.current_ratio + step).min(target);
        } else if target < self.current_ratio {
            self.current_ratio = self.current_ratio.saturating_sub(step).max(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwUfsParams;

    fn input(fastest_khz: u64, mem_util: f64, busy: f64) -> HwUfsInput {
        HwUfsInput {
            fastest_active_khz: fastest_khz,
            nominal_khz: 2_400_000,
            mem_util,
            busy_fraction: busy,
            epb: 6,
            bias: 0.0,
        }
    }

    fn controller() -> HwUfsController {
        HwUfsController::new(HwUfsParams::default(), 24)
    }

    #[test]
    fn nominal_core_pins_uncore_to_max() {
        // Paper Table I: at nominal CPU frequency the HW keeps the IMC at
        // max for both CPU-bound and memory-bound kernels.
        let c = controller();
        assert_eq!(c.target_ratio(&input(2_400_000, 0.05, 1.0), 12, 24), 24);
        assert_eq!(c.target_ratio(&input(2_400_000, 0.9, 1.0), 12, 24), 24);
    }

    #[test]
    fn idle_socket_drops_to_min() {
        let c = controller();
        assert_eq!(c.target_ratio(&input(0, 0.0, 0.0), 12, 24), 12);
    }

    #[test]
    fn sub_nominal_scales_with_memory_demand() {
        let c = controller();
        let quiet = c.target_ratio(&input(2_200_000, 0.02, 1.0), 12, 24);
        let busy = c.target_ratio(&input(2_200_000, 0.44, 1.0), 12, 24);
        assert!(busy > quiet, "{busy} vs {quiet}");
        // Heavy memory traffic saturates near max even sub-nominal.
        let streaming = c.target_ratio(&input(2_200_000, 0.9, 1.0), 12, 24);
        assert!(streaming >= 23);
    }

    #[test]
    fn dgemm_like_avx_case() {
        // AVX512-capped DGEMM: delivered 2.2 GHz < nominal, mem_util ≈ 0.48,
        // small negative bias → the firmware settles near 2.0 GHz (paper
        // Table IV: 1.98 at "No policy").
        let c = controller();
        let mut inp = input(2_200_000, 0.48, 1.0);
        inp.bias = -0.35;
        let t = c.target_ratio(&inp, 12, 24);
        assert!((19..=21).contains(&t), "target {t}");
    }

    #[test]
    fn respects_msr_limits() {
        let mut c = controller();
        // Software pinned the range to [15, 18].
        let r = c.advance(1.0, &input(2_400_000, 0.5, 1.0), 15, 18);
        assert!((15..=18).contains(&r));
        let r = c.advance(1.0, &input(0, 0.0, 0.0), 15, 18);
        assert_eq!(r, 15);
    }

    #[test]
    fn slew_takes_multiple_periods() {
        let mut c = controller();
        // From 24 toward 12, 2 steps per 10 ms: one period moves only 2.
        let r = c.advance(0.010, &input(0, 0.0, 0.0), 12, 24);
        assert_eq!(r, 22);
        // 60 ms more completes the transition.
        let r = c.advance(0.060, &input(0, 0.0, 0.0), 12, 24);
        assert_eq!(r, 12);
    }

    #[test]
    fn epb_biases_target() {
        let c = controller();
        let mut perf = input(2_200_000, 0.2, 1.0);
        perf.epb = 0; // performance bias
        let mut save = input(2_200_000, 0.2, 1.0);
        save.epb = 15; // power-save bias
        assert!(c.target_ratio(&perf, 12, 24) > c.target_ratio(&save, 12, 24));
    }

    #[test]
    fn pinned_range_applies_immediately() {
        let mut c = controller();
        c.clamp_to_limits(18, 18);
        assert_eq!(c.current_ratio(), 18);
    }

    #[test]
    fn long_advance_matches_stepping() {
        // One long advance walks the same boundaries as stepping quantum by
        // quantum: it lands on the same ratio and phase.
        let inp = input(2_200_000, 0.3, 1.0);
        let mut long = controller();
        let mut stepped = controller();
        long.advance(0.737, &inp, 12, 24);
        for _ in 0..73 {
            stepped.advance(0.010, &inp, 12, 24);
        }
        stepped.advance(0.007, &inp, 12, 24);
        assert_eq!(long.current_ratio(), stepped.current_ratio());
        // After the same further short advance both cross (or don't cross)
        // the next boundary together: the residual phase matches too.
        let l = long.advance(0.004, &input(0, 0.0, 0.0), 12, 24);
        let s = stepped.advance(0.004, &input(0, 0.0, 0.0), 12, 24);
        assert_eq!(l, s);
    }

    #[test]
    fn quanta_advance_like_repeated_calls() {
        // Slewing down from 24 to a sub-nominal target, then holding: the
        // walk stops at the fixed point yet ends where 500 single calls end.
        let inp = input(2_200_000, 0.1, 1.0);
        let mut jumped = controller();
        let mut stepped = controller();
        jumped.advance(0.0037, &inp, 12, 24);
        stepped.advance(0.0037, &inp, 12, 24);
        let target = stepped.target_ratio(&inp, 12, 24);
        jumped.advance_quanta(0.010, 500, target, 12, 24);
        for _ in 0..500 {
            stepped.advance_to(0.010, target, 12, 24);
        }
        assert_eq!(jumped.current_ratio(), stepped.current_ratio());
        assert_eq!(jumped.until_next.to_bits(), stepped.until_next.to_bits());
    }

    #[test]
    fn long_idle_advance_saturates_at_min() {
        let mut c = controller();
        // 10 simulated seconds idle: 1000 boundaries, the slew saturates at
        // 12 within the first few.
        let r = c.advance(10.0, &input(0, 0.0, 0.0), 12, 24);
        assert_eq!(r, 12);
    }
}
