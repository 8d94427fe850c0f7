//! `dcmbench`'s tests are test code, not an `R1` root.
#[test]
fn probe_runs() {
    assert_eq!(dcm_vllm::only_dcmbench_tests(), 2);
}
