//! Functional Llama decoder layer.
//!
//! The timing path (`llama.rs`) lowers decoder layers to operator graphs;
//! this module executes one layer numerically — RMSNorm, rotary position
//! embeddings, grouped-query causal attention, and the SiLU-gated MLP — so
//! the lowering's shape claims correspond to real, verifiable math. The
//! attention here is also the ground truth the `dcm-vllm` block layouts
//! are checked against (their single-head path lives in
//! `dcm_vllm::block::BlockStore`).

use dcm_core::cast::usize_to_f32;
use dcm_core::error::{DcmError, Result};
use dcm_core::tensor::Tensor;
use dcm_core::{linalg, rng, DType};
use rand::Rng;

/// Dimensions of one functional decoder layer (a scaled-down
/// `LlamaConfig`-shaped slice; tests use tiny values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDims {
    /// Model width.
    pub hidden: usize,
    /// Query heads.
    pub q_heads: usize,
    /// Key/value heads (GQA groups; must divide `q_heads`).
    pub kv_heads: usize,
    /// Per-head width.
    pub head_dim: usize,
    /// MLP intermediate width.
    pub intermediate: usize,
}

impl LayerDims {
    /// Validate the dimension relationships.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] on inconsistent dimensions.
    pub fn validate(&self) -> Result<()> {
        if self.q_heads == 0 || self.kv_heads == 0 || !self.q_heads.is_multiple_of(self.kv_heads) {
            return Err(DcmError::InvalidConfig(format!(
                "kv_heads {} must divide q_heads {}",
                self.kv_heads, self.q_heads
            )));
        }
        if self.hidden != self.q_heads * self.head_dim {
            return Err(DcmError::InvalidConfig(format!(
                "hidden {} must equal q_heads*head_dim {}",
                self.hidden,
                self.q_heads * self.head_dim
            )));
        }
        Ok(())
    }
}

/// Weights of one decoder layer.
#[derive(Debug, Clone)]
pub struct LlamaLayerFunctional {
    dims: LayerDims,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    w_gate: Tensor,
    w_up: Tensor,
    w_down: Tensor,
}

fn scaled_random<R: Rng + ?Sized>(rows: usize, cols: usize, r: &mut R) -> Tensor {
    let mut t = Tensor::random([rows, cols], DType::Fp32, r);
    let scale = 1.0 / usize_to_f32(rows).sqrt();
    for v in t.data_mut() {
        *v *= scale;
    }
    t
}

/// Root-mean-square normalization over the last dimension (unit weights).
#[must_use]
pub fn rms_norm(x: &Tensor) -> Tensor {
    let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
    let mut out = Tensor::zeros([rows, cols], x.dtype());
    for i in 0..rows {
        let row = x.row(i);
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / usize_to_f32(cols);
        let inv = 1.0 / (ms + 1e-6).sqrt();
        for (o, &v) in out.row_mut(i).iter_mut().zip(row) {
            *o = v * inv;
        }
    }
    out
}

/// Rotary position embedding applied in place to a `[tokens, head_dim]`
/// head slice, with `positions[i]` the absolute position of token `i`.
///
/// # Panics
/// Panics if `head_dim` is odd or `positions.len()` mismatches.
pub fn apply_rope(head: &mut [f32], head_dim: usize, positions: &[usize]) {
    assert_eq!(head.len() % head_dim, 0);
    assert!(head_dim.is_multiple_of(2), "rope needs an even head_dim");
    let tokens = head.len() / head_dim;
    assert_eq!(positions.len(), tokens);
    for (t, &pos) in positions.iter().enumerate() {
        let m = usize_to_f32(pos);
        for pair in 0..head_dim / 2 {
            let theta = m / 10000f32.powf(2.0 * usize_to_f32(pair) / usize_to_f32(head_dim));
            let (sin, cos) = theta.sin_cos();
            let i0 = t * head_dim + 2 * pair;
            let (a, b) = (head[i0], head[i0 + 1]);
            head[i0] = a * cos - b * sin;
            head[i0 + 1] = a * sin + b * cos;
        }
    }
}

impl LlamaLayerFunctional {
    /// Seeded random layer.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] on inconsistent dimensions.
    // dcm-lint: allow(R1) §3.4 functional layer; prop_functional::llama_layer_is_causal
    pub fn random(dims: LayerDims, seed: u64) -> Result<Self> {
        dims.validate()?;
        let mut r = rng::seeded(seed);
        let kv_width = dims.kv_heads * dims.head_dim;
        Ok(LlamaLayerFunctional {
            dims,
            wq: scaled_random(dims.hidden, dims.hidden, &mut r),
            wk: scaled_random(dims.hidden, kv_width, &mut r),
            wv: scaled_random(dims.hidden, kv_width, &mut r),
            wo: scaled_random(dims.hidden, dims.hidden, &mut r),
            w_gate: scaled_random(dims.hidden, dims.intermediate, &mut r),
            w_up: scaled_random(dims.hidden, dims.intermediate, &mut r),
            w_down: scaled_random(dims.intermediate, dims.hidden, &mut r),
        })
    }

    /// Layer dimensions.
    #[must_use]
    pub fn dims(&self) -> LayerDims {
        self.dims
    }

    /// Causal grouped-query attention over one sequence of `[tokens,
    /// hidden]` activations at absolute `positions`.
    ///
    /// # Errors
    /// Returns shape errors from the projections.
    pub fn attention(&self, x: &Tensor, positions: &[usize]) -> Result<Tensor> {
        let tokens = x.shape().dim(0);
        if positions.len() != tokens {
            return Err(DcmError::ShapeMismatch(format!(
                "{} positions for {tokens} tokens",
                positions.len()
            )));
        }
        let d = self.dims.head_dim;
        let group = self.dims.q_heads / self.dims.kv_heads;
        let mut q = linalg::matmul(x, &self.wq)?;
        let mut k = linalg::matmul(x, &self.wk)?;
        let v = linalg::matmul(x, &self.wv)?;
        // RoPE per head on q and k.
        for h in 0..self.dims.q_heads {
            let mut slice = extract_head(&q, h, d);
            apply_rope(&mut slice, d, positions);
            write_head(&mut q, h, d, &slice);
        }
        for h in 0..self.dims.kv_heads {
            let mut slice = extract_head(&k, h, d);
            apply_rope(&mut slice, d, positions);
            write_head(&mut k, h, d, &slice);
        }
        // Per-query-head causal attention against the group's KV head.
        let mut ctx = Tensor::zeros([tokens, self.dims.hidden], DType::Fp32);
        let scale = 1.0 / usize_to_f32(d).sqrt();
        for h in 0..self.dims.q_heads {
            let kvh = h / group;
            for ti in 0..tokens {
                // Scores against all positions <= ti (causal mask).
                let qrow = &q.row(ti)[h * d..(h + 1) * d];
                let mut scores = Vec::with_capacity(ti + 1);
                for tj in 0..=ti {
                    let krow = &k.row(tj)[kvh * d..(kvh + 1) * d];
                    let dot: f32 = qrow.iter().zip(krow).map(|(a, b)| a * b).sum();
                    scores.push(dot * scale);
                }
                let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                let out_start = h * d;
                for (tj, e) in exps.iter().enumerate() {
                    let w = e / sum;
                    let vrow: Vec<f32> = v.row(tj)[kvh * d..(kvh + 1) * d].to_vec();
                    let orow = ctx.row_mut(ti);
                    for (o, &vv) in orow[out_start..out_start + d].iter_mut().zip(&vrow) {
                        *o += w * vv;
                    }
                }
            }
        }
        linalg::matmul(&ctx, &self.wo)
    }

    /// SiLU-gated MLP: `silu(x W_gate) ⊙ (x W_up) W_down`.
    ///
    /// # Errors
    /// Returns shape errors from the projections.
    pub fn mlp(&self, x: &Tensor) -> Result<Tensor> {
        let gate = linalg::silu(&linalg::matmul(x, &self.w_gate)?);
        let up = linalg::matmul(x, &self.w_up)?;
        let gated: Vec<f32> = gate
            .data()
            .iter()
            .zip(up.data())
            .map(|(a, b)| a * b)
            .collect();
        let gated = Tensor::from_vec(gate.shape().dims().to_vec(), DType::Fp32, gated)?;
        linalg::matmul(&gated, &self.w_down)
    }

    /// Full decoder layer: pre-norm attention and MLP with residuals.
    ///
    /// # Errors
    /// Returns shape errors from any stage.
    // dcm-lint: allow(R1) §3.4 functional layer; prop_functional::llama_layer_is_causal
    pub fn forward(&self, x: &Tensor, positions: &[usize]) -> Result<Tensor> {
        let attn = self.attention(&rms_norm(x), positions)?;
        let h = linalg::add(x, &attn)?;
        let mlp = self.mlp(&rms_norm(&h))?;
        linalg::add(&h, &mlp)
    }
}

fn extract_head(t: &Tensor, head: usize, d: usize) -> Vec<f32> {
    let tokens = t.shape().dim(0);
    let mut out = Vec::with_capacity(tokens * d);
    for ti in 0..tokens {
        out.extend_from_slice(&t.row(ti)[head * d..(head + 1) * d]);
    }
    out
}

fn write_head(t: &mut Tensor, head: usize, d: usize, data: &[f32]) {
    let tokens = t.shape().dim(0);
    for ti in 0..tokens {
        t.row_mut(ti)[head * d..(head + 1) * d].copy_from_slice(&data[ti * d..(ti + 1) * d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> LayerDims {
        LayerDims {
            hidden: 32,
            q_heads: 4,
            kv_heads: 2,
            head_dim: 8,
            intermediate: 48,
        }
    }

    fn input(tokens: usize, seed: u64) -> Tensor {
        let mut r = rng::seeded(seed);
        Tensor::random([tokens, 32], DType::Fp32, &mut r)
    }

    #[test]
    fn dims_validation() {
        assert!(dims().validate().is_ok());
        let mut bad = dims();
        bad.kv_heads = 3;
        assert!(bad.validate().is_err());
        let mut bad2 = dims();
        bad2.hidden = 30;
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let layer = LlamaLayerFunctional::random(dims(), 1).unwrap();
        let x = input(6, 2);
        let positions: Vec<usize> = (0..6).collect();
        let y = layer.forward(&x, &positions).unwrap();
        assert_eq!(y.shape().dims(), &[6, 32]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attention_is_causal() {
        // Perturbing a future token must not change earlier outputs.
        let layer = LlamaLayerFunctional::random(dims(), 3).unwrap();
        let positions: Vec<usize> = (0..5).collect();
        let x = input(5, 4);
        let base = layer.forward(&x, &positions).unwrap();
        let mut perturbed = x.clone();
        for v in perturbed.row_mut(4) {
            *v += 1.0;
        }
        let out = layer.forward(&perturbed, &positions).unwrap();
        for t in 0..4 {
            for (a, b) in base.row(t).iter().zip(out.row(t)) {
                assert!((a - b).abs() < 1e-6, "token {t} leaked future info");
            }
        }
        // The perturbed token itself must change.
        let diff: f32 = base
            .row(4)
            .iter()
            .zip(out.row(4))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn rope_preserves_norm_and_relative_dots() {
        let d = 8;
        let mut r = rng::seeded(5);
        let qk: Vec<f32> = (0..2 * d).map(|_| r.gen_range(-1.0..1.0)).collect();
        let (qv, kv) = qk.split_at(d);
        // Rotate q at position p and k at position p+delta; the dot product
        // must depend only on delta.
        let dot_at = |p: usize, delta: usize| {
            let mut q = qv.to_vec();
            let mut k = kv.to_vec();
            apply_rope(&mut q, d, &[p]);
            apply_rope(&mut k, d, &[p + delta]);
            q.iter().zip(&k).map(|(a, b)| a * b).sum::<f32>()
        };
        let a = dot_at(0, 3);
        let b = dot_at(7, 3);
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        // Norm preservation (rotation).
        let mut q = qv.to_vec();
        let before: f32 = q.iter().map(|v| v * v).sum();
        apply_rope(&mut q, d, &[11]);
        let after: f32 = q.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-4);
    }

    #[test]
    fn gqa_with_equal_heads_is_standard_mha() {
        // kv_heads == q_heads means group size 1: every query head has its
        // own KV head — plain multi-head attention. Verify via group
        // arithmetic: outputs differ between GQA and MHA weights only
        // because the weights differ, not shapes.
        let mha_dims = LayerDims {
            kv_heads: 4,
            ..dims()
        };
        let layer = LlamaLayerFunctional::random(mha_dims, 6).unwrap();
        let x = input(3, 7);
        let y = layer.forward(&x, &[0, 1, 2]).unwrap();
        assert_eq!(y.shape().dims(), &[3, 32]);
    }

    #[test]
    fn rms_norm_normalizes() {
        let x = input(4, 8);
        let n = rms_norm(&x);
        for i in 0..4 {
            let ms: f32 = n.row(i).iter().map(|v| v * v).sum::<f32>() / n.row(i).len() as f32;
            assert!((ms - 1.0).abs() < 1e-3, "row {i}: {ms}");
        }
    }

    #[test]
    fn single_token_decode_matches_prefill_suffix() {
        // Decode-style evaluation: running the layer over [t0..t3] and
        // over [t0..t4] must give the same outputs for t0..t3 (KV-cache
        // correctness property).
        let layer = LlamaLayerFunctional::random(dims(), 9).unwrap();
        let x5 = input(5, 10);
        let x4 = Tensor::from_vec([4, 32], DType::Fp32, x5.data()[..4 * 32].to_vec()).unwrap();
        let p5: Vec<usize> = (0..5).collect();
        let p4: Vec<usize> = (0..4).collect();
        let y5 = layer.forward(&x5, &p5).unwrap();
        let y4 = layer.forward(&x4, &p4).unwrap();
        for t in 0..4 {
            for (a, b) in y4.row(t).iter().zip(y5.row(t)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn position_mismatch_is_an_error() {
        let layer = LlamaLayerFunctional::random(dims(), 11).unwrap();
        let x = input(3, 12);
        assert!(layer.attention(&x, &[0, 1]).is_err());
    }
}
