//! Property tests on the functional model layer: the Llama decoder layer,
//! the functional DLRM, and the TPC kernel DSL.

use dcm_core::tensor::Tensor;
use dcm_core::{rng, DType, DeviceSpec};
use dcm_embedding::{reference_forward, single_table_tpc_forward, LookupBatch};
use dcm_tpc::index_space::{IndexMember, IndexSpace};
use dcm_tpc::program::{TpcContext, TpcExecutor, VecReg};
use dcm_workloads::dlrm::DlrmConfig;
use dcm_workloads::dlrm_functional::DlrmFunctional;
use dcm_workloads::llama_functional::{apply_rope, rms_norm, LayerDims, LlamaLayerFunctional};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Causality holds for arbitrary layer dimensions and inputs.
    #[test]
    fn llama_layer_is_causal(
        q_heads_pow in 1u32..3,
        group_pow in 0u32..2,
        head_dim_pow in 2u32..4,
        tokens in 2usize..7,
        seed in 0u64..1000,
    ) {
        let q_heads = 1usize << q_heads_pow;
        let kv_heads = (q_heads >> group_pow).max(1);
        let head_dim = 1usize << head_dim_pow;
        let dims = LayerDims {
            hidden: q_heads * head_dim,
            q_heads,
            kv_heads,
            head_dim,
            intermediate: 3 * q_heads * head_dim,
        };
        let layer = LlamaLayerFunctional::random(dims, seed).expect("valid dims");
        let mut r = rng::seeded(seed + 1);
        let x = Tensor::random([tokens, dims.hidden], DType::Fp32, &mut r);
        let positions: Vec<usize> = (0..tokens).collect();
        let base = layer.forward(&x, &positions).expect("runs");
        // Perturb the last token only.
        let mut px = x.clone();
        for v in px.row_mut(tokens - 1) {
            *v += 0.5;
        }
        let out = layer.forward(&px, &positions).expect("runs");
        for t in 0..tokens - 1 {
            for (a, b) in base.row(t).iter().zip(out.row(t)) {
                prop_assert!((a - b).abs() < 1e-5, "token {t} saw the future");
            }
        }
    }

    /// RoPE is a rotation: norms are preserved for any position.
    #[test]
    fn rope_preserves_norm(
        head_dim_pow in 1u32..5,
        position in 0usize..10_000,
        seed in 0u64..1000,
    ) {
        let d = 1usize << head_dim_pow;
        let mut r = rng::seeded(seed);
        let mut v: Vec<f32> = (0..d).map(|_| r.gen_range(-1.0..1.0)).collect();
        let before: f32 = v.iter().map(|x| x * x).sum();
        apply_rope(&mut v, d, &[position]);
        let after: f32 = v.iter().map(|x| x * x).sum();
        prop_assert!((before - after).abs() < before * 1e-4 + 1e-5);
    }

    /// RMS norm output always has unit mean square.
    #[test]
    fn rms_norm_unit_ms(rows in 1usize..6, cols in 1usize..40, seed in 0u64..1000) {
        let mut r = rng::seeded(seed);
        let x = Tensor::random([rows, cols], DType::Fp32, &mut r);
        let n = rms_norm(&x);
        for i in 0..rows {
            let ms: f32 = n.row(i).iter().map(|v| v * v).sum::<f32>() / cols as f32;
            // Tiny inputs hit the epsilon floor; allow slack there.
            prop_assert!(ms <= 1.01, "row {i}: {ms}");
        }
    }

    /// The DSL-executed TPC embedding kernel agrees with the reference for
    /// arbitrary configurations.
    #[test]
    fn tpc_embedding_kernel_matches_reference(
        tables in 1usize..4,
        pooling in 1usize..7,
        batch in 1usize..6,
        dim_pow in 1u32..5,
        seed in 0u64..1000,
    ) {
        let cfg = dcm_embedding::EmbeddingConfig {
            tables,
            rows_per_table: 30,
            dim: 1 << dim_pow,
            dtype: DType::Fp32,
            pooling,
        };
        let mut r = rng::seeded(seed);
        let tensors: Vec<Tensor> = (0..tables)
            .map(|_| Tensor::random([30, cfg.dim], DType::Fp32, &mut r))
            .collect();
        let lookup = LookupBatch::random(&cfg, batch, &mut r);
        let expect = reference_forward(&tensors, &lookup, &cfg).expect("valid");
        let (out, cost) =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tensors, &lookup, &cfg)
                .expect("valid");
        prop_assert!(out.max_abs_diff(&expect).expect("shape") < 1e-3);
        prop_assert!(cost.time() > 0.0);
    }

    /// Functional DLRM output is invariant to which device later *prices*
    /// it, and scales per-sample independently.
    #[test]
    fn dlrm_functional_rows_are_independent(seed in 0u64..500, batch in 2usize..5) {
        let mut cfg = DlrmConfig::rm2(64);
        cfg.embedding.tables = 2;
        cfg.embedding.rows_per_table = 20;
        cfg.embedding.pooling = 2;
        cfg.dense_features = 4;
        cfg.bottom_mlp = vec![4, 4];
        cfg.top_mlp = vec![8, 1];
        cfg.cross_rank = 4;
        cfg.cross_layers = 1;
        let model = DlrmFunctional::random(cfg.clone(), seed).expect("valid");
        let mut r = rng::seeded(seed + 7);
        let dense = Tensor::random([batch, 4], DType::Fp32, &mut r);
        let lookup = LookupBatch::random(&cfg.embedding, batch, &mut r);
        let out = model.forward(&dense, &lookup).expect("runs");
        // Row 0 recomputed alone must match the batched row 0.
        let d0 = Tensor::from_vec([1, 4], DType::Fp32, dense.row(0).to_vec()).expect("fits");
        let l0 = LookupBatch {
            batch: 1,
            indices: lookup
                .indices
                .iter()
                .map(|l| l[..cfg.embedding.pooling].to_vec())
                .collect(),
        };
        let single = model.forward(&d0, &l0).expect("runs");
        prop_assert!((single.at(0, 0) - out.at(0, 0)).abs() < 1e-4);
    }

    /// DSL arithmetic identities: (a+b)-b == a, mac(a,1,b) == a+b.
    #[test]
    fn dsl_arithmetic_identities(seed in 0u64..1000, n in 1usize..64) {
        let mut r = rng::seeded(seed);
        let a = Tensor::random([n], DType::Fp32, &mut r);
        let b = Tensor::random([n], DType::Fp32, &mut r);
        let exec = TpcExecutor::new(&DeviceSpec::gaudi2());
        let res = exec
            .launch(
                &move |ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, n)?;
                    let y = ctx.ld_tnsr(1, 0, n)?;
                    let sum = ctx.v_add(&x, &y)?;
                    let back = ctx.v_sub(&sum, &y)?;
                    let mac = ctx.v_mac(&x, &VecReg::splat(1.0, n), &y)?;
                    let diff = ctx.v_sub(&mac, &sum)?;
                    let check = ctx.v_sub(&back, &x)?;
                    let total = ctx.v_add(&diff, &check)?;
                    ctx.st_tnsr(0, 0, &total)
                },
                &IndexSpace::linear(1),
                &[&a, &b],
                &[dcm_core::tensor::TensorDesc::new([n], DType::Fp32)],
            )
            .expect("kernel runs");
        prop_assert!(res.outputs[0].data().iter().all(|v| v.abs() < 1e-4));
    }
}
