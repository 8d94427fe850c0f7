//! The per-slice pipeline recurrences `prop_models.rs` checks
//! `dcm_core::timeline::even_pipeline_makespan` against.

/// Wall time of a two-stage pipeline over `slices`, where each slice first
/// occupies stage A for `a` seconds and then stage B for `b` seconds, and a
/// slice may enter a stage only when the previous slice has left it.
///
/// With a single slice this degrades to `a + b` (no overlap — exactly the
/// penalty `vLLM_base` pays in §4.2); with many fine slices it approaches
/// `max(Σa, Σb)` (full MME/TPC overlap).
///
/// ```
/// use dcm_tests::timeline::pipeline_makespan;
/// // One coarse slice: no overlap.
/// assert_eq!(pipeline_makespan(&[(3.0, 2.0)]), 5.0);
/// // Many fine slices: overlap hides the shorter stage.
/// let fine: Vec<(f64, f64)> = (0..100).map(|_| (0.03, 0.02)).collect();
/// let t = pipeline_makespan(&fine);
/// assert!(t < 3.1);
/// ```
#[must_use]
pub fn pipeline_makespan(slices: &[(f64, f64)]) -> f64 {
    let mut a_done = 0.0_f64;
    let mut b_done = 0.0_f64;
    for &(a, b) in slices {
        a_done += a;
        b_done = a_done.max(b_done) + b;
    }
    b_done
}

/// Wall time of the same work executed without pipelining: every slice's two
/// stages run back-to-back.
#[must_use]
pub fn serial_makespan(slices: &[(f64, f64)]) -> f64 {
    slices.iter().map(|&(a, b)| a + b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slice_has_no_overlap() {
        assert_eq!(pipeline_makespan(&[(3.0, 2.0)]), 5.0);
        assert_eq!(serial_makespan(&[(3.0, 2.0)]), 5.0);
    }

    #[test]
    fn uneven_slices_dp_is_correct() {
        // Hand-computed schedule:
        // slice0: A [0,2) B [2,3)
        // slice1: A [2,3) B [3,7)
        // slice2: A [3,8) B [8,9)
        let t = pipeline_makespan(&[(2.0, 1.0), (1.0, 4.0), (5.0, 1.0)]);
        assert_eq!(t, 9.0);
    }

    #[test]
    fn empty_pipeline_is_instant() {
        assert_eq!(pipeline_makespan(&[]), 0.0);
        assert_eq!(serial_makespan(&[]), 0.0);
    }
}
