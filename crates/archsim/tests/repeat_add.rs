//! `repeat_add` against the loop it replaces.
//!
//! The settled-phase jump in `Node::run_phase` is exact only if
//! `repeat_add(acc, x, n)` returns the bits `n` literal `acc += x` leave.
//! These properties compare the two over random accumulators and addends
//! of either sign, exact round-half-even ties, absorbed addends and runs
//! that cross many binades, up and down and through zero.

use ear_archsim::repeat::repeat_add;
use proptest::prelude::*;

fn looped(mut acc: f64, x: f64, n: u64) -> f64 {
    for _ in 0..n {
        acc += x;
    }
    acc
}

/// `±mantissa · 2^exp` with `mantissa` in [1, 2).
fn scaled(negative: bool, mantissa: f64, exp: i32) -> f64 {
    let v = mantissa * (exp as f64).exp2();
    if negative {
        -v
    } else {
        v
    }
}

/// The spacing of the f64 grid at `v` (a normal, nonzero value).
fn ulp(v: f64) -> f64 {
    f64::from_bits(v.abs().to_bits() & 0x7FF0_0000_0000_0000) * f64::EPSILON
}

fn same_bits(acc: f64, x: f64, n: u64) -> Result<(), String> {
    let got = repeat_add(acc, x, n);
    let want = looped(acc, x, n);
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "repeat_add({acc:e} [{:#x}], {x:e} [{:#x}], {n}) = {got:e}, loop gives {want:e}",
            acc.to_bits(),
            x.to_bits()
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_accumulators_addends_and_counts(
        acc_neg in any::<bool>(),
        acc_m in 1.0..2.0f64,
        acc_e in -30i32..40,
        x_neg in any::<bool>(),
        x_m in 1.0..2.0f64,
        // The addend's scale relative to the accumulator: from far below
        // half an ulp (absorbed) to above the accumulator itself.
        rel_e in -60i32..4,
        n in 0u64..20_000,
    ) {
        let acc = scaled(acc_neg, acc_m, acc_e);
        let x = scaled(x_neg, x_m, acc_e + rel_e);
        same_bits(acc, x, n)?;
    }

    #[test]
    fn exact_ties_round_half_even(
        acc_neg in any::<bool>(),
        acc_m in 1.0..2.0f64,
        acc_e in -20i32..30,
        // Odd significands start the run on the other side of each tie.
        odd in any::<bool>(),
        x_neg in any::<bool>(),
        half_ulps in 0u64..32,
        // Ties on the grid of this binade or of a coarser one the run
        // climbs into.
        coarser in 0i32..4,
        n in 0u64..5_000,
    ) {
        let mut acc = scaled(acc_neg, acc_m, acc_e);
        acc = f64::from_bits((acc.to_bits() & !1) | u64::from(odd));
        let tie = (half_ulps as f64 + 0.5) * ulp(acc) * (coarser as f64).exp2();
        let x = if x_neg { -tie } else { tie };
        same_bits(acc, x, n)?;
    }

    #[test]
    fn absorbed_addends(
        acc_neg in any::<bool>(),
        acc_m in 1.0..2.0f64,
        acc_e in -20i32..30,
        odd in any::<bool>(),
        x_neg in any::<bool>(),
        // Below half an ulp, or exactly half (a tie that rounds at most
        // once, onto the even neighbour).
        frac in prop_oneof![Just(0.5), 1e-6..0.5f64],
        n in 0u64..100_000,
    ) {
        let mut acc = scaled(acc_neg, acc_m, acc_e);
        acc = f64::from_bits((acc.to_bits() & !1) | u64::from(odd));
        let x = frac * ulp(acc);
        let x = if x_neg { -x } else { x };
        same_bits(acc, x, n)?;
    }

    #[test]
    fn multi_binade_runs(
        acc_neg in any::<bool>(),
        acc_m in 1.0..2.0f64,
        acc_e in -10i32..20,
        // The run moves the accumulator 2^span times its size: many binades
        // away from zero, or (with the addend's sign flipped) down through
        // every binade below it, across zero and out the other side.
        span in 0i32..16,
        toward_zero in any::<bool>(),
        n in 1_000u64..40_000,
    ) {
        let acc = scaled(acc_neg, acc_m, acc_e);
        let mut x = acc * (span as f64).exp2() / n as f64;
        if toward_zero {
            x = -x;
        }
        same_bits(acc, x, n)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn runs_that_reach_a_binade_edge(
        negative in any::<bool>(),
        acc_e in -20i32..30,
        // Start a few (or a few thousand) ulps above the floor or below
        // the top of the binade, so the run lands on or steps over the
        // edge, within its first two adds or later.
        from_top in any::<bool>(),
        offset in prop_oneof![0u64..16, 0u64..4_096],
        toward_zero in any::<bool>(),
        whole_ulps in 0u64..8,
        tie in any::<bool>(),
        // The addend on this binade's grid, half of it, or a coarser one.
        scale in -1i32..3,
        n in 0u64..10_000,
    ) {
        let floor = (acc_e as f64).exp2();
        let u = ulp(floor);
        let offset = offset as f64 * u;
        let mut acc = if from_top { 2.0 * floor - offset } else { floor + offset };
        let mut x = (whole_ulps as f64 + if tie { 0.5 } else { 1.0 }) * u * (scale as f64).exp2();
        if negative {
            acc = -acc;
            x = -x;
        }
        if toward_zero {
            x = -x;
        }
        same_bits(acc, x, n)?;
    }
}

#[test]
fn zero_and_signed_zero_accumulators() {
    for acc in [0.0, -0.0] {
        for x in [0.0, -0.0, 1e-3, -1e-3, 5e-324] {
            for n in [0, 1, 2, 5, 100, 10_000] {
                same_bits(acc, x, n).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}
