//! Property tests on the timing-model invariants: pipeline bounds, GEMM
//! geometry selection, and vector-engine monotonicity.

use dcm_core::timeline::even_pipeline_makespan;
use dcm_core::{DType, DeviceSpec};
use dcm_mme::{A100TensorCore, GaudiMme, GemmEngine, GemmShape};
use dcm_tests::timeline::{pipeline_makespan, serial_makespan};
use dcm_tpc::engine::{StreamKernel, VectorEngineModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pipeline makespan sits between max(sum_a, sum_b) and the serial sum,
    /// and finer slicing never hurts.
    #[test]
    fn pipeline_bounds(
        a in 1e-6f64..1.0,
        b in 1e-6f64..1.0,
        n1 in 1usize..64,
        extra in 1usize..64,
    ) {
        let slices = vec![(a / n1 as f64, b / n1 as f64); n1];
        let coarse = even_pipeline_makespan(a, b, n1);
        let fine = even_pipeline_makespan(a, b, n1 + extra);
        let serial = serial_makespan(&slices);
        prop_assert_eq!(coarse.to_bits(), pipeline_makespan(&slices).to_bits());
        prop_assert!(coarse >= a.max(b) - 1e-12);
        prop_assert!(coarse <= serial + 1e-12);
        prop_assert!(fine <= coarse + 1e-12);
        prop_assert!((serial - (a + b)).abs() < 1e-9);
    }

    /// The reconfigurable MME never loses to itself locked to its stock
    /// geometry, and its powered fraction is a valid fraction.
    #[test]
    fn mme_dominates_fixed(
        m_pow in 5u32..14,
        k_pow in 5u32..14,
        n_pow in 3u32..14,
    ) {
        let spec = DeviceSpec::gaudi2();
        let mme = GaudiMme::new(&spec);
        let fixed = GaudiMme::fixed(&spec);
        let shape = GemmShape::new(1 << m_pow, 1 << k_pow, 1 << n_pow);
        let c = mme.gemm(shape, DType::Bf16);
        let f = fixed.gemm(shape, DType::Bf16);
        prop_assert!(c.cost.time() <= f.cost.time() + 1e-12);
        prop_assert!(c.powered_fraction > 0.0 && c.powered_fraction <= 1.0);
        // Work accounting matches.
        prop_assert!((c.cost.flops - shape.flops()).abs() < 1.0);
    }

    /// No engine ever exceeds its peak throughput.
    #[test]
    fn gemm_never_exceeds_peak(
        m_pow in 4u32..13,
        k_pow in 4u32..13,
        n_pow in 4u32..13,
    ) {
        let shape = GemmShape::new(1 << m_pow, 1 << k_pow, 1 << n_pow);
        let (gaudi_spec, a100_spec) = (DeviceSpec::gaudi2(), DeviceSpec::a100());
        let gaudi = GaudiMme::new(&gaudi_spec);
        let a100 = A100TensorCore::new(&a100_spec);
        for dtype in [DType::Bf16, DType::Fp32] {
            prop_assert!(
                gaudi.gemm(shape, dtype).achieved_flops()
                    <= gaudi_spec.matrix.peak_flops(dtype) * 1.001
            );
            prop_assert!(
                a100.gemm(shape, dtype).achieved_flops()
                    <= a100_spec.matrix.peak_flops(dtype) * 1.001
            );
        }
    }

    /// Batched GEMM of n problems is never slower than n serial GEMMs and
    /// never faster than one.
    #[test]
    fn batched_gemm_bounds(
        batch in 1usize..256,
        m_pow in 0u32..8,
        n_pow in 4u32..11,
    ) {
        let shape = GemmShape::new(1 << m_pow, 128, 1 << n_pow);
        for run_batched in [
            GaudiMme::new(&DeviceSpec::gaudi2()).batched_gemm(batch, shape, DType::Bf16),
            A100TensorCore::new(&DeviceSpec::a100()).batched_gemm(batch, shape, DType::Bf16),
        ] {
            prop_assert!((run_batched.cost.flops - shape.flops() * batch as f64).abs() < 1.0);
        }
        let gaudi = GaudiMme::new(&DeviceSpec::gaudi2());
        let one = gaudi.gemm(shape, DType::Bf16).cost.time();
        let b = gaudi.batched_gemm(batch, shape, DType::Bf16).cost.time();
        prop_assert!(b <= one * batch as f64 + 1e-12);
        prop_assert!(b >= one * 0.5, "batched {b} impossibly fast vs single {one}");
    }

    /// Vector-engine throughput is monotone in core count and bounded by
    /// the peak.
    #[test]
    fn vector_scaling_monotone(cores in 1usize..24, intensity in 1usize..64) {
        check_vector_scaling(cores, intensity);
    }

    /// Unrolling never reduces single-core throughput.
    #[test]
    fn unroll_never_hurts(u in 1usize..16, gran_pow in 1u32..12) {
        let gaudi = VectorEngineModel::new(&DeviceSpec::gaudi2());
        let base = StreamKernel::add().with_granularity(1 << gran_pow);
        let t1 = gaudi.single_core_throughput(&base.clone().with_unroll(u), DType::Bf16);
        let t2 = gaudi.single_core_throughput(&base.with_unroll(u + 1), DType::Bf16);
        prop_assert!(t2 >= t1 * (1.0 - 1e-9));
    }
}

fn check_vector_scaling(cores: usize, intensity: usize) {
    let gaudi = VectorEngineModel::new(&DeviceSpec::gaudi2());
    let k = StreamKernel::triad()
        .with_intensity_scale(intensity)
        .with_unroll(4);
    let t1 = gaudi.throughput(&k, cores, DType::Bf16);
    let t2 = gaudi.throughput(&k, cores.min(23) + 1, DType::Bf16);
    assert!(t2 >= t1 * (1.0 - 1e-9), "{t1} -> {t2}");
    assert!(t2 <= gaudi.peak_flops(DType::Bf16) * 1.001);
}

/// Past bandwidth saturation, TRIAD at 23 cores reads 735000000000.0001
/// FLOP/s, a rounding step above 24 cores: the relative tolerance of
/// `vector_scaling_monotone` is what holds this case.
#[test]
fn vector_scaling_monotone_across_a_rounding_step() {
    check_vector_scaling(23, 1);
}
