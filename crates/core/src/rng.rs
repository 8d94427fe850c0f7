//! Deterministic randomness helpers.
//!
//! All stochastic inputs in the suite (embedding indices, request lengths,
//! synthetic datasets) flow through seeded generators so every figure
//! regenerates bit-identically.

use crate::cast::{f64_to_usize, usize_to_f64};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded standard generator.
#[must_use]
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` uniform samples from `[lo, hi)`.
#[must_use]
pub fn uniform_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// `n` uniform indices from `[0, max)`, with repetition (the access pattern
/// of the GUPS-style gather/scatter microbenchmarks, §3.3).
///
/// # Panics
/// Panics if `max == 0`.
#[must_use]
pub fn uniform_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, max: usize) -> Vec<usize> {
    assert!(max > 0, "index range must be non-empty");
    (0..n).map(|_| rng.gen_range(0..max)).collect()
}

/// `n` indices from `[0, max)` drawn from a truncated power-law with
/// exponent `alpha`, approximating the skewed popularity of RecSys embedding
/// rows [43, 41]. `alpha = 0` degenerates to uniform.
///
/// # Panics
/// Panics if `max == 0` or `alpha < 0`.
#[must_use]
pub fn powerlaw_indices<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    max: usize,
    alpha: f64,
) -> Vec<usize> {
    assert!(max > 0, "index range must be non-empty");
    assert!(alpha >= 0.0, "alpha must be non-negative");
    // dcm-lint: allow(F2) alpha == 0.0 is an exact sentinel for "uniform"
    if alpha == 0.0 {
        return uniform_indices(rng, n, max);
    }
    // Inverse-CDF sampling of p(x) ~ x^-alpha over [1, max].
    let one_minus = 1.0 - alpha;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let x = if (one_minus).abs() < 1e-9 {
                usize_to_f64(max).powf(u)
            } else {
                (usize_to_f64(max).powf(one_minus) * u + (1.0 - u)).powf(1.0 / one_minus)
            };
            f64_to_usize(x.floor()).clamp(1, max) - 1
        })
        .collect()
}

/// Sample from a discrete distribution given by (value, weight) pairs.
///
/// # Panics
/// Panics if `choices` is empty or weights sum to zero.
#[must_use]
pub fn weighted_choice<R: Rng + ?Sized, T: Copy>(rng: &mut R, choices: &[(T, f64)]) -> T {
    assert!(!choices.is_empty(), "choices must be non-empty");
    let weights: Vec<f64> = choices.iter().map(|&(_, w)| w).collect();
    let dist = rand::distributions::WeightedIndex::new(&weights)
        // dcm-lint: allow(P1) documented panic contract of weighted_choice
        .expect("weights must be non-negative and sum > 0");
    choices[dist.sample(rng)].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a = uniform_vec(&mut seeded(42), 16, 0.0, 1.0);
        let b = uniform_vec(&mut seeded(42), 16, 0.0, 1.0);
        assert_eq!(a, b);
        let c = uniform_vec(&mut seeded(43), 16, 0.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_indices_in_range() {
        let idx = uniform_indices(&mut seeded(1), 1000, 37);
        assert!(idx.iter().all(|&i| i < 37));
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_indices_rejects_empty_range() {
        let _ = uniform_indices(&mut seeded(1), 4, 0);
    }

    #[test]
    fn powerlaw_is_skewed_toward_small_indices() {
        let mut rng = seeded(5);
        let idx = powerlaw_indices(&mut rng, 20_000, 1_000_000, 1.05);
        assert!(idx.iter().all(|&i| i < 1_000_000));
        let small = idx.iter().filter(|&&i| i < 1000).count();
        let frac = small as f64 / idx.len() as f64;
        // A uniform draw would put ~0.1% below 1000; the power law puts far
        // more mass there.
        assert!(frac > 0.05, "power-law skew too weak: {frac}");
    }

    #[test]
    fn powerlaw_alpha_zero_is_uniform() {
        let mut rng = seeded(6);
        let idx = powerlaw_indices(&mut rng, 10_000, 100, 0.0);
        let low = idx.iter().filter(|&&i| i < 50).count();
        let frac = low as f64 / idx.len() as f64;
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn weighted_choice_prefers_heavy_weights() {
        let mut rng = seeded(7);
        let choices = [(1usize, 0.01), (2usize, 0.99)];
        let picks: Vec<usize> = (0..1000)
            .map(|_| weighted_choice(&mut rng, &choices))
            .collect();
        let twos = picks.iter().filter(|&&p| p == 2).count();
        assert!(twos > 900);
    }
}
