//! Checked numeric conversions for simulation code.
//!
//! Rust's `as` casts between floats and integers are silent: `f64 as
//! usize` truncates toward zero and saturates, `usize as f64` rounds
//! half-to-even above 2^53 — and none of it is visible at the call site.
//! In a simulator whose headline artifacts are *bit-identical* reports,
//! a cast that quietly loses precision is a determinism bug waiting for
//! a bigger workload (`dcm-lint` rule `C1` polices the raw casts).
//!
//! These helpers make the intended contract explicit and `debug_assert`
//! it: counts stay below 2^53 (exactly representable in `f64`; 2^24 for
//! `f32`), float indices are finite, non-negative, and integral. Release
//! builds compile to the plain cast — the helpers are free where it
//! matters and loud where it doesn't. A caller that truncates a float on
//! purpose says so with `.floor()` before [`f64_to_usize`]/[`f64_to_u64`].

/// Largest integer such that it and all smaller non-negative integers
/// are exactly representable in `f64` (2^53).
pub const F64_EXACT_INT_MAX: u64 = 1 << 53;

/// The `f32` counterpart of [`F64_EXACT_INT_MAX`] (2^24).
const F32_EXACT_INT_MAX: u64 = 1 << 24;

// `usize` is at most 64 bits wide on every target, which is what makes
// `usize_to_u64` lossless.
const _: () = assert!(usize::BITS <= u64::BITS);

/// Widen a count to `u64`. Lossless: `usize` is at most 64 bits wide.
#[must_use]
#[inline]
pub fn usize_to_u64(n: usize) -> u64 {
    // dcm-lint: allow(C1) lossless widening, asserted at compile time above
    n as u64
}

/// Convert a count to `f64` exactly.
///
/// Counts in this codebase (tokens, blocks, requests, lanes) live far
/// below 2^53, where every `usize` is exactly representable; this
/// asserts that in debug builds instead of rounding silently.
#[must_use]
#[inline]
pub fn usize_to_f64(n: usize) -> f64 {
    debug_assert!(
        usize_to_u64(n) <= F64_EXACT_INT_MAX,
        "usize_to_f64({n}): not exactly representable in f64"
    );
    // dcm-lint: allow(C1) the checked conversion the helper exists to wrap
    n as f64
}

/// Convert a count or index to `f32` exactly (below 2^24). See
/// [`usize_to_f64`].
#[must_use]
#[inline]
pub fn usize_to_f32(n: usize) -> f32 {
    debug_assert!(
        usize_to_u64(n) <= F32_EXACT_INT_MAX,
        "usize_to_f32({n}): not exactly representable in f32"
    );
    // dcm-lint: allow(C1) the checked conversion the helper exists to wrap
    n as f32
}

/// Convert a count to `f64` exactly. See [`usize_to_f64`].
#[must_use]
#[inline]
pub fn u64_to_f64(n: u64) -> f64 {
    debug_assert!(
        n <= F64_EXACT_INT_MAX,
        "u64_to_f64({n}): not exactly representable in f64"
    );
    // dcm-lint: allow(C1) the checked conversion the helper exists to wrap
    n as f64
}

/// Convert a finite, non-negative, integer-valued `f64` (a rounded rank,
/// a `ceil`ed block count) to `usize` without silent truncation.
#[must_use]
#[inline]
pub fn f64_to_usize(x: f64) -> usize {
    debug_assert!(
        // dcm-lint: allow(F2) fract() == 0.0 is the exact integrality test
        x.is_finite() && x >= 0.0 && x.fract() == 0.0,
        "f64_to_usize({x}): not a non-negative integer"
    );
    debug_assert!(
        // dcm-lint: allow(C1) 2^53 is exactly representable in f64
        x <= F64_EXACT_INT_MAX as f64,
        "f64_to_usize({x}): beyond exact f64 integer range"
    );
    // dcm-lint: allow(C1) the checked conversion the helper exists to wrap
    x as usize
}

/// Convert a finite, non-negative, integer-valued `f64` to `u64`.
/// See [`f64_to_usize`].
#[must_use]
#[inline]
pub fn f64_to_u64(x: f64) -> u64 {
    debug_assert!(
        // dcm-lint: allow(F2) fract() == 0.0 is the exact integrality test
        x.is_finite() && x >= 0.0 && x.fract() == 0.0,
        "f64_to_u64({x}): not a non-negative integer"
    );
    debug_assert!(
        // dcm-lint: allow(C1) 2^53 is exactly representable in f64
        x <= F64_EXACT_INT_MAX as f64,
        "f64_to_u64({x}): beyond exact f64 integer range"
    );
    // dcm-lint: allow(C1) the checked conversion the helper exists to wrap
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_are_exact_in_range() {
        for n in [0usize, 1, 127, 4096, 1 << 30, (1u64 << 53) as usize] {
            assert_eq!(f64_to_usize(usize_to_f64(n)), n);
        }
        for n in [0u64, 1, 1 << 40, 1 << 53] {
            assert_eq!(f64_to_u64(u64_to_f64(n)), n);
        }
        for n in [0usize, 3, 1 << 24] {
            assert_eq!(f64_to_usize(f64::from(usize_to_f32(n))), n);
            assert_eq!(usize_to_u64(n), n as u64);
        }
    }

    #[test]
    fn integral_floats_convert() {
        assert_eq!(f64_to_usize(0.0), 0);
        assert_eq!(f64_to_usize(42.0_f64.sqrt().round()), 6);
        assert_eq!(f64_to_u64(1e15), 1_000_000_000_000_000);
    }

    #[test]
    #[should_panic(expected = "not a non-negative integer")]
    #[cfg(debug_assertions)]
    fn fractional_input_panics_in_debug() {
        let _ = f64_to_usize(1.5);
    }

    #[test]
    #[should_panic(expected = "not a non-negative integer")]
    #[cfg(debug_assertions)]
    fn negative_input_panics_in_debug() {
        let _ = f64_to_u64(-1.0);
    }

    #[test]
    #[should_panic(expected = "not exactly representable")]
    #[cfg(debug_assertions)]
    fn oversized_count_panics_in_debug() {
        let _ = u64_to_f64((1 << 53) + 1);
    }

    #[test]
    #[should_panic(expected = "not exactly representable in f32")]
    #[cfg(debug_assertions)]
    fn oversized_f32_count_panics_in_debug() {
        let _ = usize_to_f32((1 << 24) + 1);
    }
}
