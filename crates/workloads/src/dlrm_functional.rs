//! Functional DLRM-DCNv2 forward pass.
//!
//! The timing path (`dlrm.rs`) lowers the model to an operator graph; this
//! module executes the *same architecture* numerically — random weights,
//! real matrix products, the actual DCNv2 low-rank cross interaction — so
//! the lowering can be validated against executable semantics: every GEMM
//! the graph claims corresponds to a real matrix product whose shapes
//! exist.

use crate::dlrm::DlrmConfig;
use dcm_core::cast::usize_to_f32;
use dcm_core::error::{DcmError, Result};
use dcm_core::tensor::Tensor;
use dcm_core::{linalg, rng, DType};
use dcm_embedding::{reference_forward, LookupBatch};
use rand::Rng;

/// Weights of one MLP: a chain of `(in x out)` matrices with bias.
#[derive(Debug, Clone)]
pub struct MlpWeights {
    layers: Vec<(Tensor, Tensor)>,
}

impl MlpWeights {
    fn random<R: Rng + ?Sized>(input: usize, widths: &[usize], r: &mut R) -> Self {
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = input;
        for &w in widths {
            // Scaled initialization keeps activations bounded for tests.
            let scale = 1.0 / usize_to_f32(prev).sqrt();
            let mut weight = Tensor::random([prev, w], DType::Fp32, r);
            for v in weight.data_mut() {
                *v *= scale;
            }
            let bias = Tensor::zeros([1, w], DType::Fp32);
            layers.push((weight, bias));
            prev = w;
        }
        MlpWeights { layers }
    }

    /// Forward with ReLU on every layer except the last.
    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = x.clone();
        let n = self.layers.len();
        for (i, (w, b)) in self.layers.iter().enumerate() {
            let mut out = linalg::matmul(&h, w)?;
            for row in 0..out.shape().dim(0) {
                let bias = b.row(0).to_vec();
                for (v, bv) in out.row_mut(row).iter_mut().zip(&bias) {
                    *v += bv;
                }
            }
            h = if i + 1 < n { linalg::relu(&out) } else { out };
        }
        Ok(h)
    }
}

/// Weights of one DCNv2 low-rank cross layer: `x0 ⊙ (U (V x) + b) + x`.
#[derive(Debug, Clone)]
pub struct CrossLayerWeights {
    v: Tensor, // d x r
    u: Tensor, // r x d
}

/// The full functional model.
#[derive(Debug, Clone)]
pub struct DlrmFunctional {
    config: DlrmConfig,
    embedding_tables: Vec<Tensor>,
    bottom: MlpWeights,
    cross: Vec<CrossLayerWeights>,
    top: MlpWeights,
}

impl DlrmFunctional {
    /// Instantiate the model with seeded random weights. Uses
    /// `rows_per_table` from the config, so build small configs for tests.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for a degenerate configuration.
    // dcm-lint: allow(R1) §3.4 functional layer; prop_functional::dlrm_functional_rows_are_independent
    pub fn random(config: DlrmConfig, seed: u64) -> Result<Self> {
        if config.bottom_mlp.is_empty() || config.top_mlp.is_empty() {
            return Err(DcmError::InvalidConfig(
                "DLRM needs non-empty MLP stacks".to_owned(),
            ));
        }
        let mut r = rng::seeded(seed);
        let embedding_tables = (0..config.embedding.tables)
            .map(|_| {
                Tensor::random(
                    [config.embedding.rows_per_table, config.embedding.dim],
                    DType::Fp32,
                    &mut r,
                )
            })
            .collect();
        let bottom = MlpWeights::random(config.dense_features, &config.bottom_mlp, &mut r);
        let d = config.interaction_dim();
        let cross = (0..config.cross_layers)
            .map(|_| {
                let scale = 1.0 / usize_to_f32(d).sqrt();
                let mut v = Tensor::random([d, config.cross_rank], DType::Fp32, &mut r);
                let mut u = Tensor::random([config.cross_rank, d], DType::Fp32, &mut r);
                for t in [&mut v, &mut u] {
                    for x in t.data_mut() {
                        *x *= scale;
                    }
                }
                CrossLayerWeights { v, u }
            })
            .collect();
        let top = MlpWeights::random(d, &config.top_mlp, &mut r);
        Ok(DlrmFunctional {
            config,
            embedding_tables,
            bottom,
            cross,
            top,
        })
    }

    /// One cross layer applied functionally: `x0 ⊙ (U(Vx)) + x`.
    fn cross_layer(x0: &Tensor, x: &Tensor, w: &CrossLayerWeights) -> Result<Tensor> {
        let low = linalg::matmul(x, &w.v)?;
        let back = linalg::matmul(&low, &w.u)?;
        let gated_data: Vec<f32> = x0
            .data()
            .iter()
            .zip(back.data())
            .zip(x.data())
            .map(|((&a, &b), &c)| a * b + c)
            .collect();
        Tensor::from_vec(x.shape().dims().to_vec(), x.dtype(), gated_data)
    }

    /// Full forward pass: `dense` is `[batch, dense_features]`, `lookup`
    /// addresses the embedding tables. Returns `[batch, 1]` scores.
    ///
    /// # Errors
    /// Returns shape or index errors from any stage.
    // dcm-lint: allow(R1) §3.4 functional layer; prop_functional::dlrm_functional_rows_are_independent
    pub fn forward(&self, dense: &Tensor, lookup: &LookupBatch) -> Result<Tensor> {
        if dense.shape().rank() != 2
            || dense.shape().dim(1) != self.config.dense_features
            || dense.shape().dim(0) != lookup.batch
        {
            return Err(DcmError::ShapeMismatch(format!(
                "dense input is {}, expected [{}, {}]",
                dense.shape(),
                lookup.batch,
                self.config.dense_features
            )));
        }
        // Bottom MLP over dense features.
        let bottom_out = self.bottom.forward(dense)?;
        // Embedding stage (pooled, concatenated per table).
        let pooled = reference_forward(&self.embedding_tables, lookup, &self.config.embedding)?;
        // Feature interaction input: [pooled embeddings | bottom output].
        let batch = lookup.batch;
        let d = self.config.interaction_dim();
        let mut x0 = Tensor::zeros([batch, d], DType::Fp32);
        let emb_w = pooled.shape().dim(1);
        for b in 0..batch {
            let erow = pooled.row(b).to_vec();
            let brow = bottom_out.row(b).to_vec();
            let row = x0.row_mut(b);
            row[..emb_w].copy_from_slice(&erow);
            row[emb_w..].copy_from_slice(&brow);
        }
        // DCNv2 low-rank cross stack.
        let mut x = x0.clone();
        for w in &self.cross {
            x = Self::cross_layer(&x0, &x, w)?;
        }
        // Top MLP to a single logit.
        self.top.forward(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DlrmConfig {
        let mut cfg = DlrmConfig::rm2(64); // dim 16
        cfg.embedding.tables = 3;
        cfg.embedding.rows_per_table = 40;
        cfg.embedding.pooling = 2;
        cfg.dense_features = 8;
        cfg.bottom_mlp = vec![8, 4];
        cfg.top_mlp = vec![16, 1];
        cfg.cross_rank = 6;
        cfg.cross_layers = 2;
        cfg
    }

    fn run(seed: u64, batch: usize) -> (DlrmFunctional, Tensor, LookupBatch) {
        let model = DlrmFunctional::random(tiny_config(), seed).unwrap();
        let mut r = rng::seeded(seed + 1);
        let dense = Tensor::random([batch, 8], DType::Fp32, &mut r);
        let lookup = LookupBatch::random(&model.config.embedding, batch, &mut r);
        (model, dense, lookup)
    }

    #[test]
    fn forward_produces_finite_scores() {
        let (model, dense, lookup) = run(1, 5);
        let out = model.forward(&dense, &lookup).unwrap();
        assert_eq!(out.shape().dims(), &[5, 1]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let (m1, d1, l1) = run(7, 3);
        let (m2, d2, l2) = run(7, 3);
        let o1 = m1.forward(&d1, &l1).unwrap();
        let o2 = m2.forward(&d2, &l2).unwrap();
        assert_eq!(o1, o2);
        let (m3, d3, l3) = run(8, 3);
        assert_ne!(o1, m3.forward(&d3, &l3).unwrap());
    }

    #[test]
    fn cross_layer_identity_when_u_is_zero() {
        // With U = 0 the cross layer reduces to x (the residual path).
        let mut r = rng::seeded(9);
        let d = 6;
        let w = CrossLayerWeights {
            v: Tensor::random([d, 3], DType::Fp32, &mut r),
            u: Tensor::zeros([3, d], DType::Fp32),
        };
        let x0 = Tensor::random([2, d], DType::Fp32, &mut r);
        let x = Tensor::random([2, d], DType::Fp32, &mut r);
        let out = DlrmFunctional::cross_layer(&x0, &x, &w).unwrap();
        assert!(out.max_abs_diff(&x).unwrap() < 1e-6);
    }

    #[test]
    fn interaction_dim_matches_graph_lowering() {
        // The functional model and the timing graph must agree on the
        // interaction width — the shape every cross GEMM depends on.
        let cfg = tiny_config();
        let model = DlrmFunctional::random(cfg.clone(), 3).unwrap();
        assert_eq!(
            model.config.interaction_dim(),
            cfg.embedding.tables * cfg.embedding.dim + cfg.bottom_mlp.last().copied().unwrap()
        );
        // And the graph's first cross GEMM uses exactly this dimension.
        let g = cfg.dense_graph(4);
        let has_cross_gemm = g.ops().any(|op| match op {
            dcm_compiler::Op::Gemm { shape, .. } => {
                shape.k == cfg.interaction_dim() && shape.n == cfg.cross_rank
            }
            _ => false,
        });
        assert!(has_cross_gemm, "graph lowering lost the interaction dim");
    }

    #[test]
    fn batch_dimension_scales_linearly() {
        let (model, _, _) = run(11, 1);
        let mut r = rng::seeded(99);
        let dense = Tensor::random([4, 8], DType::Fp32, &mut r);
        let lookup = LookupBatch::random(&model.config.embedding, 4, &mut r);
        // Per-sample forward equals the batched rows.
        let batched = model.forward(&dense, &lookup).unwrap();
        for b in 0..4 {
            let d1 = Tensor::from_vec([1, 8], DType::Fp32, dense.row(b).to_vec()).unwrap();
            let l1 = LookupBatch {
                batch: 1,
                indices: lookup
                    .indices
                    .iter()
                    .map(|list| {
                        list[b * model.config.embedding.pooling
                            ..(b + 1) * model.config.embedding.pooling]
                            .to_vec()
                    })
                    .collect(),
            };
            let single = model.forward(&d1, &l1).unwrap();
            assert!((single.at(0, 0) - batched.at(b, 0)).abs() < 1e-5, "row {b}");
        }
    }

    #[test]
    fn shape_validation() {
        let (model, _, lookup) = run(13, 3);
        let wrong = Tensor::zeros([3, 9], DType::Fp32);
        assert!(model.forward(&wrong, &lookup).is_err());
        let wrong_batch = Tensor::zeros([2, 8], DType::Fp32);
        assert!(model.forward(&wrong_batch, &lookup).is_err());
    }
}
