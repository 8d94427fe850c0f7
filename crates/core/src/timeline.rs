//! Schedule composition: the two-stage MME/TPC pipelines the Gaudi graph
//! compiler builds.
//!
//! The Gaudi graph compiler "breaks [an MME op followed by a TPC op] into
//! smaller, independent sub-operations to enable pipelined execution" (§2.2).
//! [`even_pipeline_makespan`] computes the wall time of such a two-stage
//! pipeline over equal operator slices, through [`EvenPipeline`], which
//! keeps the producer half so one producer prices against many consumers.

use crate::cast::usize_to_f64;

/// Wall time of a two-stage operator of stage times `(a, b)` split into
/// `n` equal slices — the graph compiler's sub-operation slicing. Each
/// slice first occupies stage A for `a / n` seconds and then stage B for
/// `b / n` seconds, and a slice may enter a stage only when the previous
/// slice has left it.
///
/// With a single slice this degrades to `a + b` (no overlap — exactly the
/// penalty `vLLM_base` pays in §4.2); with many fine slices it approaches
/// `max(a, b)` (full MME/TPC overlap). The result is bit-identical to the
/// general per-slice recurrence (see [`EvenPipeline`]).
///
/// # Panics
/// Panics if `n` is zero.
#[must_use]
pub fn even_pipeline_makespan(a: f64, b: f64, n: usize) -> f64 {
    EvenPipeline::new(a, n).makespan(b)
}

/// The producer half of [`even_pipeline_makespan`], for pricing one
/// producer stage against many consumer stages: the slice time `a / n`
/// and the time `A_n` the producer finishes its last slice, each added
/// up in the order of the per-slice recurrence
/// `A_i = A_{i−1} + a/n`, `B_i = max(A_i, B_{i−1}) + b/n`.
///
/// Rounded addition is monotone, which settles every `max` when the
/// producer is not slower per slice than the consumer (DESIGN.md §3.8):
/// if `a/n ≥ b/n` (both rounded) and `a/n ≥ 0`, then by induction
/// `B_i = A_i + b/n ≤ A_i + a/n = A_{i+1}` (from `B_0 = 0 ≤ A_1`), so
/// every `max` picks `A_i` and the recurrence ends at `A_n + b/n`,
/// rounded once. Other inputs run the recurrence itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvenPipeline {
    slices: usize,
    /// `a / n`.
    slice: f64,
    /// `A_n`: `slice` added `n` times onto zero.
    done: f64,
}

impl EvenPipeline {
    /// The producer stage of `a` seconds in `n` equal slices.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(a: f64, n: usize) -> Self {
        assert!(n > 0, "cannot slice into zero pieces");
        let slice = a / usize_to_f64(n);
        let mut done = 0.0_f64;
        for _ in 0..n {
            done += slice;
        }
        EvenPipeline {
            slices: n,
            slice,
            done,
        }
    }

    /// Wall time of this producer followed by a consumer stage of `b`
    /// seconds: [`even_pipeline_makespan`]`(a, b, n)`, bit for bit.
    #[must_use]
    pub fn makespan(&self, b: f64) -> f64 {
        let b = b / usize_to_f64(self.slices);
        if self.slice >= 0.0 && self.slice >= b {
            return self.done + b;
        }
        let mut a_done = 0.0_f64;
        let mut b_done = 0.0_f64;
        for _ in 0..self.slices {
            a_done += self.slice;
            b_done = a_done.max(b_done) + b;
        }
        b_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_slicing_approaches_max_of_sums() {
        let t = even_pipeline_makespan(3.0, 2.0, 1000);
        assert!(t > 3.0 && t < 3.01, "{t}");
    }

    #[test]
    fn pipeline_never_beats_bottleneck_stage() {
        for n in [1usize, 2, 4, 16, 256] {
            let t = even_pipeline_makespan(5.0, 7.0, n);
            assert!(t >= 7.0 - 1e-12, "n={n} t={t}");
            assert!(t <= 12.0 + 1e-12);
        }
    }

    #[test]
    fn pipeline_is_monotonic_in_slice_count() {
        let mut prev = f64::INFINITY;
        for n in [1usize, 2, 4, 8, 64] {
            let t = even_pipeline_makespan(4.0, 4.0, n);
            assert!(t <= prev + 1e-12, "n={n}");
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "zero pieces")]
    fn slice_zero_panics() {
        let _ = even_pipeline_makespan(1.0, 1.0, 0);
    }
}
