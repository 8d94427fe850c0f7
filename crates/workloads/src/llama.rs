//! Llama-3.1 decoder models and the static-batch serving loop of §3.5
//! (Figures 12 and 13).
//!
//! Serving splits into a compute-bound *prefill* (all input tokens at
//! once) and a memory-bound *decode* (one token per step reading the whole
//! KV cache) — the latency breakdown of Figure 12(b). Multi-device serving
//! shards every projection column-/row-wise (tensor parallelism \[72\]) and
//! all-reduces activations twice per layer, which is where the node fabric
//! (KT#4) enters end-to-end performance.

use dcm_compiler::{CompileOptions, Device, EwKind, Graph, Op};
use dcm_core::cast::{self, usize_to_u64};
use dcm_core::cost::ExecStats;
use dcm_core::DType;
use dcm_mme::GemmShape;
use serde::{Deserialize, Serialize};

/// Configuration of a Llama-3.1 model (Table 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlamaConfig {
    /// Model name.
    pub name: String,
    /// Decoder layers (32 / 80).
    pub layers: usize,
    /// Hidden size (4,096 / 8,192).
    pub hidden: usize,
    /// MLP intermediate size (14,336 / 28,672).
    pub intermediate: usize,
    /// Query heads (32 / 64).
    pub q_heads: usize,
    /// Key/value heads (8 / 8 — grouped-query attention).
    pub kv_heads: usize,
    /// Head dimension (128).
    pub head_dim: usize,
    /// Vocabulary size (128,256).
    pub vocab: usize,
}

impl LlamaConfig {
    /// Llama-3.1-8B-Instruct (Table 3).
    #[must_use]
    pub fn llama31_8b() -> Self {
        LlamaConfig {
            name: "Llama-3.1-8B".to_owned(),
            layers: 32,
            hidden: 4096,
            intermediate: 14336,
            q_heads: 32,
            kv_heads: 8,
            head_dim: 128,
            vocab: 128_256,
        }
    }

    /// Llama-3.1-70B-Instruct (Table 3).
    #[must_use]
    pub fn llama31_70b() -> Self {
        LlamaConfig {
            name: "Llama-3.1-70B".to_owned(),
            layers: 80,
            hidden: 8192,
            intermediate: 28672,
            q_heads: 64,
            kv_heads: 8,
            head_dim: 128,
            vocab: 128_256,
        }
    }

    /// Approximate parameter count (for capacity checks).
    #[must_use]
    pub fn param_count(&self) -> f64 {
        let attn = self.hidden * (self.q_heads + 2 * self.kv_heads) * self.head_dim
            + self.q_heads * self.head_dim * self.hidden;
        let mlp = 3 * self.hidden * self.intermediate;
        cast::usize_to_f64(self.layers * (attn + mlp) + 2 * self.vocab * self.hidden)
    }

    /// KV-cache bytes per token per device at BF16 under `tp`-way tensor
    /// parallelism.
    #[must_use]
    pub fn kv_bytes_per_token(&self, tp: usize) -> u64 {
        usize_to_u64(self.layers * 2 * self.kv_heads * self.head_dim * 2 / tp)
    }

    /// Lower one *decode step* (one new token per sequence, context length
    /// `ctx`) to an operator graph for one of `tp` devices.
    #[must_use]
    pub fn decode_step_graph(&self, batch: usize, ctx: usize, tp: usize) -> Graph {
        self.step_graph(batch, 1, ctx, tp, format!("{}-decode", self.name))
    }

    /// Lower the *prefill* of `input_len` tokens per sequence.
    #[must_use]
    pub fn prefill_graph(&self, batch: usize, input_len: usize, tp: usize) -> Graph {
        self.step_graph(
            batch,
            input_len,
            input_len,
            tp,
            format!("{}-prefill", self.name),
        )
    }

    /// Lower one decode step *without* its attention score/value products
    /// and softmax — the serving engine of `dcm-vllm` splices a
    /// PagedAttention implementation in their place.
    #[must_use]
    pub fn decode_nonattn_graph(&self, batch: usize, tp: usize) -> Graph {
        let name = format!("{}-nonattn", self.name);
        let full = self.step_graph(batch, 1, 1, tp, name.clone());
        let mut g = Graph::new(name);
        for block in full.blocks() {
            let body: Vec<Op> = block
                .body()
                .iter()
                .filter(|op| !matches!(op, Op::BatchedGemm { .. } | Op::Softmax { .. }))
                .cloned()
                .collect();
            g.push_repeated(&body, block.repeat());
        }
        g
    }

    /// Shared lowering: `new_tokens` query tokens per sequence attending
    /// over `ctx` cached tokens.
    ///
    /// A layer runs RmsNorm, attention, residual add, RmsNorm, MLP and
    /// residual add. The graph cuts it after the next layer's first
    /// RmsNorm instead, so the add and the norm it fuses with sit in one
    /// repeated block: the first RmsNorm, `layers - 1` copies of [QKV
    /// projection … residual add, RmsNorm], then the last layer, whose
    /// add meets the LM head's RmsNorm.
    fn step_graph(
        &self,
        batch: usize,
        new_tokens: usize,
        ctx: usize,
        tp: usize,
        name: String,
    ) -> Graph {
        assert!(
            tp >= 1 && self.q_heads.is_multiple_of(tp),
            "tp must divide q_heads"
        );
        let dt = DType::Bf16;
        let m = batch * new_tokens;
        let heads = self.q_heads / tp;
        // GQA: the q_group query heads of one group share a K/V head, so
        // their score products fold into one GEMM over the shared K.
        let kv_local = (self.kv_heads / tp).max(1);
        let q_group = heads / kv_local;
        let qkv_out = (self.q_heads + 2 * self.kv_heads) * self.head_dim / tp;
        let o_in = self.q_heads * self.head_dim / tp;
        let inter = self.intermediate / tp;
        let rms_norm = |elems| Op::Elementwise {
            kind: EwKind::RmsNorm,
            elems,
            dtype: dt,
        };
        let all_reduce = |elems: usize| Op::AllReduce {
            bytes: usize_to_u64(elems * dt.size_bytes()),
            participants: tp,
        };
        let mut g = Graph::new(name);
        if self.layers > 0 {
            g.push(rms_norm(m * self.hidden));
            let mut layer = vec![
                // Attention block.
                Op::gemm(GemmShape::new(m, self.hidden, qkv_out), dt),
                // Scores: per (sequence, kv head): the group's queries share
                // the K matrix: (q_group * new x head_dim) x (head_dim x ctx).
                Op::batched_gemm(
                    batch * kv_local,
                    GemmShape::new(q_group * new_tokens, self.head_dim, ctx),
                    dt,
                ),
                Op::Softmax {
                    rows: batch * heads * new_tokens,
                    cols: ctx,
                    dtype: dt,
                },
                // Values: (q_group * new x ctx) x (ctx x head_dim), shared V.
                Op::batched_gemm(
                    batch * kv_local,
                    GemmShape::new(q_group * new_tokens, ctx, self.head_dim),
                    dt,
                ),
                Op::gemm(GemmShape::new(m, o_in, self.hidden), dt),
                all_reduce(m * self.hidden),
                Op::add(m * self.hidden, dt), // residual
                // MLP block (gate and up projections fused into one GEMM).
                rms_norm(m * self.hidden),
                Op::gemm(GemmShape::new(m, self.hidden, 2 * inter), dt),
                Op::Elementwise {
                    kind: EwKind::Silu,
                    elems: m * inter,
                    dtype: dt,
                },
                Op::Elementwise {
                    kind: EwKind::Mul,
                    elems: m * inter,
                    dtype: dt,
                },
                Op::gemm(GemmShape::new(m, inter, self.hidden), dt),
                all_reduce(m * self.hidden),
                Op::add(m * self.hidden, dt), // residual
                rms_norm(m * self.hidden),    // the next layer's first
            ];
            g.push_repeated(&layer, self.layers - 1);
            layer.pop();
            for op in layer {
                g.push(op);
            }
        }
        // LM head over the last token of each sequence.
        g.push(rms_norm(batch * self.hidden));
        g.push(Op::gemm(
            GemmShape::new(batch, self.hidden, self.vocab / tp),
            dt,
        ));
        g.push(all_reduce(batch * self.vocab / tp));
        g
    }
}

/// Result of serving one batch of requests to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Statistics of the prefill stage.
    pub prefill: ExecStats,
    /// Statistics of all decode steps combined.
    pub decode: ExecStats,
    /// Total modeled energy in joules (per device x devices).
    pub energy_j: f64,
    /// Mean per-device power in watts.
    pub power_w: f64,
    /// Output tokens produced (`batch * output_len`).
    pub tokens_generated: usize,
}

impl ServeRun {
    /// End-to-end latency in seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.prefill.time_s + self.decode.time_s
    }

    /// Energy per generated token in joules.
    #[must_use]
    pub fn energy_per_token(&self) -> f64 {
        self.energy_j / cast::usize_to_f64(self.tokens_generated)
    }
}

/// A static-batch Llama inference server over `tp` devices (the Figure 12
/// setup: fixed input length, swept output length).
#[derive(Debug, Clone)]
pub struct LlamaServer {
    config: LlamaConfig,
    tp: usize,
}

impl LlamaServer {
    /// Create a server with `tp`-way tensor parallelism.
    ///
    /// # Panics
    /// Panics if `tp` does not divide the query-head count.
    #[must_use]
    pub fn new(config: LlamaConfig, tp: usize) -> Self {
        assert!(
            tp >= 1 && config.q_heads.is_multiple_of(tp),
            "tp must divide q_heads"
        );
        LlamaServer { config, tp }
    }

    /// Serve `batch` requests of `input_len` prompt tokens, generating
    /// `output_len` tokens each. Decode steps are priced at the mean
    /// context length.
    ///
    /// # Panics
    /// Panics if `output_len` is zero.
    #[must_use]
    pub fn serve(
        &self,
        device: &Device,
        batch: usize,
        input_len: usize,
        output_len: usize,
    ) -> ServeRun {
        assert!(output_len > 0, "output_len must be positive");
        let opts = CompileOptions::default();
        let prefill =
            device.run_graph(&self.config.prefill_graph(batch, input_len, self.tp), &opts);
        let mean_ctx = input_len + output_len / 2;
        let step = device.run_graph(
            &self
                .config
                .decode_step_graph(batch, mean_ctx.max(1), self.tp),
            &opts,
        );
        let decode = step.stats.repeated(cast::usize_to_f64(output_len));
        // Energy: per-phase power at per-phase activity, times devices.
        let energy_per_device = prefill.energy_j + step.power_w * decode.time_s;
        let total_time = prefill.stats.time_s + decode.time_s;
        ServeRun {
            energy_j: energy_per_device * cast::usize_to_f64(self.tp),
            power_w: energy_per_device / total_time,
            prefill: prefill.stats,
            decode,
            tokens_generated: batch * output_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_configs() {
        let c8 = LlamaConfig::llama31_8b();
        assert_eq!(c8.layers, 32);
        assert_eq!(c8.hidden, 4096);
        assert_eq!(c8.kv_heads, 8);
        // ~8B parameters.
        assert!(
            (c8.param_count() / 1e9 - 8.0).abs() < 1.0,
            "{}",
            c8.param_count()
        );
        let c70 = LlamaConfig::llama31_70b();
        assert!(
            (c70.param_count() / 1e9 - 70.0).abs() < 6.0,
            "{}",
            c70.param_count()
        );
    }

    #[test]
    fn kv_cache_bytes() {
        let c = LlamaConfig::llama31_8b();
        // 32 layers x 2 (K,V) x 8 heads x 128 dim x 2 B = 128 KiB/token.
        assert_eq!(c.kv_bytes_per_token(1), 131_072);
        assert_eq!(c.kv_bytes_per_token(8), 131_072 / 8);
    }

    #[test]
    fn decode_graph_structure() {
        let c = LlamaConfig::llama31_8b();
        let g = c.decode_step_graph(16, 512, 1);
        // 15 ops per layer + 3 head ops.
        assert_eq!(g.len(), 32 * 15 + 3);
    }

    #[test]
    fn prefill_is_compute_heavier_than_decode() {
        // Figure 12(b): prefill dominates at long inputs, decode at long
        // outputs.
        let c = LlamaConfig::llama31_8b();
        let d = Device::gaudi2();
        let server = LlamaServer::new(c, 1);
        let run = server.serve(&d, 64, 100, 100);
        // One prefill of 100 tokens vs 100 decode steps: decode dominates
        // wall time, prefill dominates per-token FLOPs.
        assert!(run.decode.time_s > run.prefill.time_s);
        let prefill_flops_per_tok = run.prefill.flops / (64.0 * 100.0);
        let decode_flops_per_tok = run.decode.flops / (64.0 * 100.0);
        assert!((prefill_flops_per_tok / decode_flops_per_tok - 1.0).abs() < 0.3);
        // Decode is memory-bound: its achieved FLOP/s are far below
        // prefill's.
        assert!(run.prefill.achieved_flops() > 3.0 * run.decode.achieved_flops());
    }

    #[test]
    fn gaudi_beats_a100_on_llm_serving() {
        // Figure 12(a): ~1.47x average single-device speedup for 8B.
        let c = LlamaConfig::llama31_8b();
        let server = LlamaServer::new(c, 1);
        let g = server.serve(&Device::gaudi2(), 64, 100, 100);
        let a = server.serve(&Device::a100(), 64, 100, 100);
        let speedup = a.total_time_s() / g.total_time_s();
        assert!(speedup > 1.1 && speedup < 1.9, "speedup {speedup}");
    }

    #[test]
    fn gaudi_energy_efficiency_wins_for_llm() {
        // Figure 13 / KT#5: ~1.48x single-device energy-efficiency.
        let c = LlamaConfig::llama31_8b();
        let server = LlamaServer::new(c, 1);
        let g = server.serve(&Device::gaudi2(), 64, 100, 100);
        let a = server.serve(&Device::a100(), 64, 100, 100);
        let eff = a.energy_per_token() / g.energy_per_token();
        assert!(eff > 1.1, "efficiency improvement {eff}");
    }

    #[test]
    fn tp_scaling_on_70b() {
        let c = LlamaConfig::llama31_70b();
        let t2 = LlamaServer::new(c.clone(), 2).serve(&Device::gaudi2(), 16, 100, 50);
        let t8 = LlamaServer::new(c, 8).serve(&Device::gaudi2(), 16, 100, 50);
        assert!(
            t8.total_time_s() < t2.total_time_s(),
            "8-way {} vs 2-way {}",
            t8.total_time_s(),
            t2.total_time_s()
        );
    }

    #[test]
    fn speedup_grows_with_device_count() {
        // §3.5: Gaudi's speedup over A100 grows from 2 to 8 devices thanks
        // to the P2P fabric's proportional all-reduce bandwidth.
        // Bandwidth-dominated all-reduces (large batch) are where the P2P
        // mesh's proportional scaling shows; tiny payloads are latency-
        // dominated on both fabrics.
        let c = LlamaConfig::llama31_70b();
        let ratio = |tp: usize| {
            let s = LlamaServer::new(c.clone(), tp);
            let g = s.serve(&Device::gaudi2(), 128, 100, 50);
            let a = s.serve(&Device::a100(), 128, 100, 50);
            a.total_time_s() / g.total_time_s()
        };
        let r2 = ratio(2);
        let r8 = ratio(8);
        assert!(r8 > r2, "speedup should grow: {r2} -> {r8}");
    }

    #[test]
    fn serve_metrics_are_consistent() {
        let c = LlamaConfig::llama31_8b();
        let run = LlamaServer::new(c, 1).serve(&Device::gaudi2(), 8, 50, 25);
        assert_eq!(run.tokens_generated, 200);
        assert!(run.power_w > 100.0 && run.power_w < 600.0);
    }

    #[test]
    #[should_panic(expected = "tp must divide")]
    fn invalid_tp_rejected() {
        let _ = LlamaServer::new(LlamaConfig::llama31_8b(), 3);
    }

    #[test]
    #[should_panic(expected = "output_len")]
    fn zero_output_rejected() {
        let c = LlamaConfig::llama31_8b();
        let _ = LlamaServer::new(c, 1).serve(&Device::gaudi2(), 1, 10, 0);
    }
}
