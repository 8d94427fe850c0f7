//! Property tests for the memory subsystem: granularity accounting,
//! gather/scatter functional semantics, and timing monotonicity.

use dcm_core::tensor::Tensor;
use dcm_core::{rng, DType, DeviceSpec};
use dcm_mem::hbm::{AccessPattern, HbmModel};
use dcm_mem::GatherScatterEngine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bus bytes are always >= useful bytes and chunk-aligned.
    #[test]
    fn bus_bytes_dominate_useful(useful in 1usize..100_000) {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let bus = spec.memory.bus_bytes(useful);
            prop_assert!(bus >= useful as u64);
            prop_assert_eq!(bus % spec.memory.min_access_bytes as u64, 0);
            prop_assert!(bus < (useful + spec.memory.min_access_bytes) as u64);
        }
    }

    /// Access time is monotone in count for both patterns, and in size for
    /// streams. (Random-access time is *not* monotone in size at tiny
    /// counts: larger blocks carry more concurrent chunks, which raises
    /// memory-level parallelism faster than they add bytes.)
    #[test]
    fn access_time_is_monotone(
        count in 1usize..100_000,
        size in 1usize..4096,
        extra_count in 1usize..10_000,
        extra_size in 1usize..1024,
    ) {
        check_access_time_monotone(count, size, extra_count, extra_size);
    }

    /// Random-access time IS monotone in size once the pipeline is
    /// saturated (enough transactions in flight).
    #[test]
    fn saturated_random_time_monotone_in_size(
        size in 1usize..4096,
        extra_size in 1usize..1024,
    ) {
        let m = HbmModel::new(&DeviceSpec::gaudi2());
        let count = 1 << 20;
        let base = m.access(count, size, AccessPattern::Random).time_s;
        prop_assert!(m.access(count, size + extra_size, AccessPattern::Random).time_s >= base);
    }

    /// Random access never beats streaming for the same request stream.
    #[test]
    fn random_never_beats_stream(count in 1usize..50_000, size in 1usize..4096) {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let m = HbmModel::new(&spec);
            let s = m.access(count, size, AccessPattern::Stream).time_s;
            let r = m.access(count, size, AccessPattern::Random).time_s;
            prop_assert!(r >= s, "{}: random {r} < stream {s}", spec.name);
        }
    }

    /// Functional gather equals a naive reference for arbitrary indices.
    #[test]
    fn gather_matches_naive(
        rows in 1usize..64,
        dim in 1usize..32,
        seed in 0u64..1000,
        n in 1usize..128,
    ) {
        let mut r = rng::seeded(seed);
        let table = Tensor::random([rows, dim], DType::Fp32, &mut r);
        let idx = rng::uniform_indices(&mut r, n, rows);
        let engine = GatherScatterEngine::new(&DeviceSpec::gaudi2());
        let (out, cost) = engine.gather(&table, &idx).expect("valid indices");
        for (i, &ix) in idx.iter().enumerate() {
            prop_assert_eq!(out.row(i), table.row(ix));
        }
        prop_assert!(cost.time_s > 0.0);
    }

    /// Scatter then gather at the same indices round-trips the data
    /// (when indices are distinct).
    #[test]
    fn scatter_gather_roundtrip(
        rows in 8usize..64,
        dim in 1usize..16,
        seed in 0u64..1000,
    ) {
        let mut r = rng::seeded(seed);
        let n = rows / 2;
        // Distinct indices via partial shuffle.
        let mut all: Vec<usize> = (0..rows).collect();
        for i in 0..n {
            let j = rng::uniform_indices(&mut r, 1, rows - i)[0] + i;
            all.swap(i, j);
        }
        let idx = &all[..n];
        let values = Tensor::random([n, dim], DType::Fp32, &mut r);
        let mut target = Tensor::zeros([rows, dim], DType::Fp32);
        let engine = GatherScatterEngine::new(&DeviceSpec::a100());
        engine.scatter(&mut target, idx, &values).expect("valid");
        let (back, _) = engine.gather(&target, idx).expect("valid");
        prop_assert!(back.max_abs_diff(&values).expect("same shape") < 1e-6);
    }

    /// Gaudi's bandwidth utilization is never better than A100's for
    /// sub-256-byte gathers (KT#3 as an invariant).
    #[test]
    fn small_gathers_never_favor_gaudi(size_pow in 4u32..8, count_pow in 10u32..20) {
        let size = 1usize << size_pow; // 16..128 bytes
        let count = 1usize << count_pow;
        let g = GatherScatterEngine::new(&DeviceSpec::gaudi2());
        let a = GatherScatterEngine::new(&DeviceSpec::a100());
        prop_assert!(g.gather_utilization(count, size) <= a.gather_utilization(count, size));
    }
}

fn check_access_time_monotone(count: usize, size: usize, extra_count: usize, extra_size: usize) {
    let m = HbmModel::new(&DeviceSpec::gaudi2());
    for pattern in [AccessPattern::Stream, AccessPattern::Random] {
        let base = m.access(count, size, pattern).time_s;
        assert!(m.access(count + extra_count, size, pattern).time_s >= base);
    }
    let base = m.access(count, size, AccessPattern::Stream).time_s;
    assert!(
        m.access(count, size + extra_size, AccessPattern::Stream)
            .time_s
            >= base
    );
}

/// One 1-byte access and two take the same time on both patterns, so
/// the count check holds with equality; growing the access to 257 bytes
/// crosses the 256 B granularity into a second chunk.
#[test]
fn access_time_is_monotone_across_a_chunk_boundary() {
    check_access_time_monotone(1, 1, 1, 256);
}
