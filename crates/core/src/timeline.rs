//! Schedule composition: the two-stage MME/TPC pipelines the Gaudi graph
//! compiler builds.
//!
//! The Gaudi graph compiler "breaks [an MME op followed by a TPC op] into
//! smaller, independent sub-operations to enable pipelined execution" (§2.2).
//! [`even_pipeline_makespan`] computes the wall time of such a two-stage
//! pipeline over equal operator slices.

use crate::cast::usize_to_f64;

/// Wall time of a two-stage operator of stage times `(a, b)` split into
/// `n` equal slices — the graph compiler's sub-operation slicing. Each
/// slice first occupies stage A for `a / n` seconds and then stage B for
/// `b / n` seconds, and a slice may enter a stage only when the previous
/// slice has left it.
///
/// With a single slice this degrades to `a + b` (no overlap — exactly the
/// penalty `vLLM_base` pays in §4.2); with many fine slices it approaches
/// `max(a, b)` (full MME/TPC overlap). The adds and maxes run in the
/// order of the general per-slice recurrence, without building the slice
/// list, so the result is bit-identical to it.
///
/// # Panics
/// Panics if `n` is zero.
#[must_use]
pub fn even_pipeline_makespan(a: f64, b: f64, n: usize) -> f64 {
    assert!(n > 0, "cannot slice into zero pieces");
    let n_f = usize_to_f64(n);
    let (a, b) = (a / n_f, b / n_f);
    let mut a_done = 0.0_f64;
    let mut b_done = 0.0_f64;
    for _ in 0..n {
        a_done += a;
        b_done = a_done.max(b_done) + b;
    }
    b_done
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
