//! Deterministic randomness helpers.
//!
//! All stochastic inputs in the suite (embedding indices, request lengths,
//! synthetic datasets) flow through seeded generators so every figure
//! regenerates bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded standard generator.
#[must_use]
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a = uniform_indices(&mut seeded(42), 16, 1 << 30);
        let b = uniform_indices(&mut seeded(42), 16, 1 << 30);
        assert_eq!(a, b);
        let c = uniform_indices(&mut seeded(43), 16, 1 << 30);
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
}
