//! Property tests for the embedding operators: the SingleTable and
//! BatchedTable TPC-C kernels agree with the naive reference over random
//! configurations, plus cost-model invariants.

use dcm_core::tensor::Tensor;
use dcm_core::{rng, DType, DeviceSpec};
use dcm_embedding::{
    batched_table_tpc_forward, reference_forward, single_table_tpc_forward, BatchedTableOp,
    EmbeddingConfig, EmbeddingOp, LookupBatch, SingleTableOp,
};
use proptest::prelude::*;

fn random_setup(
    tables: usize,
    rows: usize,
    dim: usize,
    pooling: usize,
    batch: usize,
    seed: u64,
) -> (EmbeddingConfig, Vec<Tensor>, LookupBatch) {
    let cfg = EmbeddingConfig {
        tables,
        rows_per_table: rows,
        dim,
        dtype: DType::Fp32,
        pooling,
    };
    let mut r = rng::seeded(seed);
    let tensors = (0..tables)
        .map(|_| Tensor::random([rows, dim], DType::Fp32, &mut r))
        .collect();
    let lookup = LookupBatch::random(&cfg, batch, &mut r);
    (cfg, tensors, lookup)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both kernels agree with the reference on any configuration, on
    /// either device.
    #[test]
    fn operators_agree(
        tables in 1usize..6,
        rows in 2usize..64,
        dim in 1usize..24,
        pooling in 1usize..6,
        batch in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let (cfg, tensors, lookup) = random_setup(tables, rows, dim, pooling, batch, seed);
        let reference = reference_forward(&tensors, &lookup, &cfg).expect("valid");
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let (s, _) = single_table_tpc_forward(&spec, &tensors, &lookup, &cfg).expect("valid");
            let (b, _) = batched_table_tpc_forward(&spec, &tensors, &lookup, &cfg).expect("valid");
            prop_assert!(s.max_abs_diff(&reference).expect("shape") < 1e-4);
            prop_assert!(b.max_abs_diff(&reference).expect("shape") < 1e-4);
        }
    }

    /// Pooled output magnitude is bounded by pooling x max |element|.
    #[test]
    fn pooled_outputs_are_bounded(
        tables in 1usize..4,
        pooling in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let (cfg, tensors, lookup) = random_setup(tables, 32, 8, pooling, 4, seed);
        let out = reference_forward(&tensors, &lookup, &cfg).expect("valid");
        // Random tensors are in [-1, 1), so each pooled value is in
        // [-pooling, pooling].
        let bound = pooling as f32 + 1e-4;
        prop_assert!(out.data().iter().all(|v| v.abs() <= bound));
    }

    /// BatchedTable cost dominates neither axis: time is monotone in batch
    /// and in vector width.
    #[test]
    fn batched_cost_monotone(
        vb_pow in 4usize..11,
        batch_pow in 3usize..12,
    ) {
        let spec = DeviceSpec::gaudi2();
        let op = BatchedTableOp::new(&spec);
        let cfg = EmbeddingConfig::rm2_like(1 << vb_pow);
        let batch = 1usize << batch_pow;
        let t = op.cost(&cfg, batch).time();
        prop_assert!(op.cost(&cfg, batch * 2).time() > t);
        let wider = EmbeddingConfig::rm2_like(1 << (vb_pow + 1));
        prop_assert!(op.cost(&wider, batch).time() > t);
    }

    /// BatchedTable never loses to SingleTable (same device, any point).
    #[test]
    fn batched_never_loses(
        vb_pow in 4usize..11,
        batch_pow in 2usize..12,
    ) {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let cfg = EmbeddingConfig::rm2_like(1 << vb_pow);
            let batch = 1usize << batch_pow;
            let single = SingleTableOp::optimized(&spec).cost(&cfg, batch).time();
            let batched = BatchedTableOp::new(&spec).cost(&cfg, batch).time();
            prop_assert!(batched <= single + 1e-12, "{}: {batched} > {single}", spec.name);
        }
    }

    /// Utilization is a true fraction.
    #[test]
    fn utilization_in_unit_interval(
        vb_pow in 4usize..12,
        batch_pow in 0usize..13,
    ) {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let cfg = EmbeddingConfig::rm2_like(1 << vb_pow);
            let u = BatchedTableOp::new(&spec).utilization(&cfg, 1 << batch_pow);
            prop_assert!(u > 0.0 && u <= 1.0, "{u}");
        }
    }
}
