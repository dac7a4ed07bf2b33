//! Exact repeated floating-point addition.
//!
//! A settled stepping loop adds the same `x` to an accumulator once per
//! quantum. [`repeat_add`] returns what `n` such adds leave, bit for bit,
//! without doing them one at a time.
//!
//! Within one binade (the magnitudes `[2^e, 2^(e+1))`) every f64 is a
//! multiple of the same ulp `u`. An add whose exact sum stays inside the
//! binade rounds that sum to the nearest multiple of `u`, so it adds the
//! same whole number of ulps every time. The exception is a tie, where `x`
//! is an odd multiple of `u/2`: round-half-even picks the even neighbour,
//! so the first add can differ from the later ones. Every tie result is
//! even, though, so from the second add on the increment is constant.
//! The walk therefore does two literal adds to land on the grid, reads
//! the increment off the significands, and takes every further add that
//! stays strictly inside the binade in one integer multiply. Adds that
//! leave the binade (the ulp doubles or halves) and anything outside the
//! normal range run literally. The cost is O(binades crossed), not O(n).

const FRAC_MASK: u64 = (1 << 52) - 1;
/// The implicit leading bit of a normal significand.
const HIDDEN: u64 = 1 << 52;
/// Counts up to this run the plain loop: a jump needs two literal adds
/// before it can skip any.
const LOOP_MAX: u64 = 4;

/// `acc` after `n` iterations of `acc += x`, rounded exactly as that loop
/// rounds every add (round-half-even), including absorbed addends, ties
/// and binade crossings in either direction.
#[inline]
pub fn repeat_add(acc: f64, x: f64, n: u64) -> f64 {
    if n <= LOOP_MAX {
        let mut a = acc;
        for _ in 0..n {
            a += x;
        }
        a
    } else {
        repeat_add_runs(acc, x, n)
    }
}

#[inline(never)]
fn repeat_add_runs(mut acc: f64, x: f64, mut n: u64) -> f64 {
    while n > 0 {
        let prev = acc;
        acc += x;
        n -= 1;
        if acc.to_bits() == prev.to_bits() {
            // Absorbed (or non-finite): every further add returns it too.
            return acc;
        }
        if n == 0 || !on_grid(prev, acc) {
            continue;
        }
        let next = acc + x;
        n -= 1;
        if !on_grid(acc, next) {
            acc = next;
            continue;
        }
        // Both adds rounded on this binade's grid, so `acc` is even if `x`
        // is a tie and `next - acc` is the increment of every further add
        // that stays inside the binade.
        let m = significand(next);
        let up = m > significand(acc);
        let step = m.abs_diff(significand(acc));
        acc = next;
        if step == 0 {
            return acc;
        }
        // Adds left before a result would reach the binade's edge: the top
        // belongs to the next binade, and a sum landing on the floor may
        // have rounded on the finer grid below.
        let room = if up {
            (HIDDEN << 1) - 1 - m
        } else {
            m - HIDDEN - 1
        };
        let j = if step.saturating_mul(n) <= room {
            n
        } else {
            room / step
        };
        let m = if up { m + j * step } else { m - j * step };
        acc = f64::from_bits((acc.to_bits() & !FRAC_MASK) | (m & FRAC_MASK));
        n -= j;
    }
    acc
}

/// True when `new = old + x` rounded on the grid of `old`'s binade: both
/// share sign and exponent, the exponent is normal, and `new` is above the
/// binade's floor (a result on the floor may have come from a sum below
/// it, rounded on the finer grid there).
#[inline]
fn on_grid(old: f64, new: f64) -> bool {
    let (o, w) = (old.to_bits(), new.to_bits());
    let exp = (w >> 52) & 0x7FF;
    o >> 52 == w >> 52 && exp != 0 && exp != 0x7FF && w & FRAC_MASK != 0
}

/// The integer significand of a normal f64's magnitude.
#[inline]
fn significand(v: f64) -> u64 {
    (v.to_bits() & FRAC_MASK) | HIDDEN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn looped(mut acc: f64, x: f64, n: u64) -> f64 {
        for _ in 0..n {
            acc += x;
        }
        acc
    }

    fn check(acc: f64, x: f64, n: u64) {
        let got = repeat_add(acc, x, n);
        let want = looped(acc, x, n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "repeat_add({acc:e}, {x:e}, {n}) = {got:e}, loop gives {want:e}"
        );
    }

    #[test]
    fn matches_the_loop_on_the_quantum_shapes() {
        // Energy in µJ over 10 ms quanta, a 1e-2 clock, a draining
        // fraction, and a count that stops on an exact binade edge.
        check(1.234e9, 119.7 * 0.01 * 1e6, 5_000);
        check(0.0, 0.01, 10_000);
        check(1.0, -0.01 / 3.7, 300);
        check(1.0, 0.125, 8);
        check(1.5, 0.25, 2);
    }

    #[test]
    fn ties_settle_on_even_significands() {
        let u = f64::EPSILON; // ulp of [1, 2)
        for m in 0..4u64 {
            let x = (m as f64 + 0.5) * u;
            for start in [1.0, 1.0 + u, 1.0 + 2.0 * u, 1.0 + 3.0 * u] {
                check(start, x, 1_000);
                check(-start, -x, 1_000);
                check(start + 0.5, -x, 1_000);
            }
        }
    }

    #[test]
    fn absorbed_addends_leave_the_accumulator() {
        check(1e16, 0.9, 1_000_000);
        check(1.0, f64::EPSILON / 4.0, 1_000_000);
        // Exactly half an ulp on an odd significand rounds once, then holds.
        check(1.0 + f64::EPSILON, f64::EPSILON / 2.0, 1_000_000);
    }

    #[test]
    fn costs_binade_crossings_not_adds() {
        // A trillion adds crossing ten binades: the loop would take
        // minutes; the jump lands within the rounding drift of the sum.
        let got = repeat_add(1.0, 1e-9, 1_000_000_000_000);
        assert!((got - 1001.0).abs() < 0.1, "{got}");
    }

    #[test]
    fn crosses_binades_in_both_directions_and_through_zero() {
        check(1.0, 0.37, 100_000);
        check(1000.3, -0.7, 3_000);
        check(-5.0, 1e-3, 20_000);
        check(1e-300, 1e-310, 10_000);
    }
}
