//! Llama training-step model — the paper's stated immediate future work
//! (§5: "Analyzing Gaudi's competitive edge against NVIDIA GPUs in
//! training scenarios is part of our immediate future work").
//!
//! One data-parallel training step per device:
//!
//! 1. **Forward** — the prefill graph over the local micro-batch.
//! 2. **Backward** — ~2× the forward GEMM work (grad-activation and
//!    grad-weight products), lowered as a graph with the same shapes.
//! 3. **Gradient all-reduce** — one ring all-reduce of the full parameter
//!    gradient per step (bucketed overlap is modeled as a pipelined
//!    fraction).
//! 4. **Optimizer** — an element-wise Adam update over all parameters.
//!
//! Training exercises exactly the strengths the paper credits Gaudi with
//! (large compute-bound GEMMs, all-8-device collectives), which is why the
//! projection favors it even more than serving does.

use dcm_compiler::{CompileOptions, Device, EwKind, Graph, Op};
use dcm_core::cast::{f64_to_u64, f64_to_usize, usize_to_f64};
use dcm_core::cost::ExecStats;
use dcm_core::timeline::even_pipeline_makespan;
use dcm_core::DType;
use dcm_mme::GemmShape;
use serde::{Deserialize, Serialize};

use crate::llama::LlamaConfig;

/// Fraction of the gradient all-reduce that overlaps with the backward
/// pass (bucketed gradient buckets fire as soon as a layer's grads are
/// ready — standard DDP behaviour).
const ALLREDUCE_OVERLAP: f64 = 0.8;

/// Configuration of a training run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// The model being trained.
    pub model: LlamaConfig,
    /// Sequence length per sample.
    pub seq_len: usize,
    /// Micro-batch size per device.
    pub micro_batch: usize,
    /// Data-parallel devices (within one 8-device node here).
    pub data_parallel: usize,
}

impl TrainingConfig {
    /// A Llama-3.1-8B pre-training-style configuration on one node.
    #[must_use]
    pub fn llama8b_node() -> Self {
        TrainingConfig {
            model: LlamaConfig::llama31_8b(),
            seq_len: 2048,
            micro_batch: 2,
            data_parallel: 8,
        }
    }

    /// Tokens processed per step across the node.
    #[must_use]
    pub fn tokens_per_step(&self) -> usize {
        self.seq_len * self.micro_batch * self.data_parallel
    }
}

/// Timing of one training step on one device (all devices are symmetric
/// under pure data parallelism).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStepRun {
    /// Forward-pass statistics.
    pub forward: ExecStats,
    /// Backward-pass statistics.
    pub backward: ExecStats,
    /// Exposed (non-overlapped) gradient all-reduce time in seconds.
    pub exposed_allreduce_s: f64,
    /// Optimizer-update statistics.
    pub optimizer: ExecStats,
    /// Wall time of the whole step in seconds.
    pub step_time_s: f64,
    /// Modeled per-device energy in joules.
    pub energy_j: f64,
}

impl TrainStepRun {
    /// Training throughput in tokens per second for `cfg`.
    #[must_use]
    pub fn tokens_per_second(&self, cfg: &TrainingConfig) -> f64 {
        usize_to_f64(cfg.tokens_per_step()) / self.step_time_s
    }

    /// Model FLOPs utilization-style metric: useful FLOPs per second over
    /// the device's peak matrix throughput.
    #[must_use]
    pub fn achieved_flops(&self) -> f64 {
        (self.forward.flops + self.backward.flops) / self.step_time_s
    }
}

/// Build the backward-pass graph: for every forward GEMM `(m, k, n)`, the
/// grad-input product `(m, n, k)` and the grad-weight product `(k, m, n)`,
/// plus element-wise derivative work. Each forward block is lowered once
/// and re-emitted with its repeat count, so the forward's repeated layer
/// stays one block and compiles once.
fn backward_graph(model: &LlamaConfig, batch: usize, seq: usize) -> Graph {
    let fwd = model.prefill_graph(batch, seq, 1);
    let mut g = Graph::new(format!("{}-backward", model.name));
    let mut body = Vec::new();
    for block in fwd.blocks() {
        body.clear();
        for op in block.body() {
            backward_ops(op, &mut body);
        }
        g.push_repeated(&body, block.repeat());
    }
    g
}

/// Append the backward ops of forward op `op` to `out`.
fn backward_ops(op: &Op, out: &mut Vec<Op>) {
    match op {
        Op::Gemm { shape, dtype } => {
            out.push(Op::gemm(GemmShape::new(shape.m, shape.n, shape.k), *dtype));
            out.push(Op::gemm(GemmShape::new(shape.k, shape.m, shape.n), *dtype));
        }
        Op::BatchedGemm {
            batch: b,
            shape,
            dtype,
        } => {
            out.push(Op::batched_gemm(
                *b,
                GemmShape::new(shape.m, shape.n, shape.k),
                *dtype,
            ));
            out.push(Op::batched_gemm(
                *b,
                GemmShape::new(shape.k, shape.m, shape.n),
                *dtype,
            ));
        }
        Op::Elementwise { elems, dtype, .. } => {
            // Activation derivative + grad multiply.
            out.push(op.clone());
            out.push(Op::Elementwise {
                kind: EwKind::Mul,
                elems: *elems,
                dtype: *dtype,
            });
        }
        Op::Softmax { .. } => out.push(op.clone()),
        Op::Gather { .. } | Op::AllReduce { .. } => {}
    }
}

/// Adam update: read param + 2 moments + grad, write param + 2 moments;
/// ~10 element-wise ops per parameter.
fn optimizer_graph(model: &LlamaConfig) -> Graph {
    let params = f64_to_usize(model.param_count());
    let mut g = Graph::new("adam");
    for _ in 0..3 {
        g.push(Op::Elementwise {
            kind: EwKind::RmsNorm, // 4 chained ops: closest modeled kind
            elems: params,
            dtype: DType::Fp32,
        });
    }
    g
}

/// Execute one training step of `cfg` on `device`.
///
/// # Panics
/// Panics if `data_parallel` exceeds the node size or is zero.
#[must_use]
pub fn train_step(device: &Device, cfg: &TrainingConfig) -> TrainStepRun {
    assert!(
        cfg.data_parallel >= 1 && cfg.data_parallel <= device.spec().devices_per_node,
        "data_parallel out of node range"
    );
    let opts = CompileOptions::default();
    let fwd = device.run_graph(
        &cfg.model.prefill_graph(cfg.micro_batch, cfg.seq_len, 1),
        &opts,
    );
    let bwd = device.run_graph(
        &backward_graph(&cfg.model, cfg.micro_batch, cfg.seq_len),
        &opts,
    );
    let opt = device.run_graph(&optimizer_graph(&cfg.model), &opts);

    // Gradient all-reduce: full parameter gradients in BF16.
    let grad_bytes = f64_to_u64(cfg.model.param_count() * usize_to_f64(DType::Bf16.size_bytes()));
    let ar_s = if cfg.data_parallel >= 2 {
        device.collective_model().time(
            dcm_net::Collective::AllReduce,
            grad_bytes,
            cfg.data_parallel,
        )
    } else {
        0.0
    };
    // Bucketed overlap with backward: the overlapped fraction pipelines
    // against backward compute; the rest is exposed.
    let overlapped = ar_s * ALLREDUCE_OVERLAP;
    let bwd_wall = even_pipeline_makespan(bwd.stats.time_s, overlapped, 16);
    let exposed = ar_s - overlapped;
    let step_time = fwd.stats.time_s + bwd_wall + exposed + opt.stats.time_s;

    // Energy: phase powers weighted by phase durations.
    let comm_power = device.power_model().idle_watts() * 1.2;
    let energy = fwd.energy_j + bwd.energy_j + opt.energy_j + comm_power * exposed;

    TrainStepRun {
        forward: fwd.stats,
        backward: bwd.stats,
        exposed_allreduce_s: exposed,
        optimizer: opt.stats,
        step_time_s: step_time,
        energy_j: energy,
    }
}

/// Execute one training step of `cfg` replicated over `nodes` nodes of
/// `device`'s platform: per-device compute is unchanged, but the gradient
/// all-reduce runs hierarchically over the scale-out fabric
/// (`dcm_net::MultiNodeModel`).
///
/// # Panics
/// Panics on a zero node count or an oversubscribed node.
#[must_use]
pub fn train_step_cluster(device: &Device, cfg: &TrainingConfig, nodes: usize) -> TrainStepRun {
    let single = train_step(device, cfg);
    if nodes <= 1 {
        return single;
    }
    let grad_bytes = f64_to_u64(cfg.model.param_count() * usize_to_f64(DType::Bf16.size_bytes()));
    let cluster = dcm_net::MultiNodeModel::new(device.spec(), nodes);
    let ar_s = cluster.allreduce_time(grad_bytes);
    let overlapped = ar_s * ALLREDUCE_OVERLAP;
    let bwd_wall = even_pipeline_makespan(single.backward.time_s, overlapped, 16);
    let exposed = ar_s - overlapped;
    let step_time = single.forward.time_s + bwd_wall + exposed + single.optimizer.time_s;
    TrainStepRun {
        exposed_allreduce_s: exposed,
        step_time_s: step_time,
        // Energy scales with the longer step at comm-phase power.
        energy_j: single.energy_j
            + (step_time - single.step_time_s).max(0.0) * device.power_model().idle_watts() * 1.2,
        ..single
    }
}

/// Cluster-wide training throughput in tokens/s for `nodes` nodes.
#[must_use]
pub fn cluster_tokens_per_second(device: &Device, cfg: &TrainingConfig, nodes: usize) -> f64 {
    let run = train_step_cluster(device, cfg, nodes);
    usize_to_f64(cfg.tokens_per_step()) * usize_to_f64(nodes) / run.step_time_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TrainingConfig {
        TrainingConfig {
            model: LlamaConfig::llama31_8b(),
            seq_len: 512,
            micro_batch: 1,
            data_parallel: 8,
        }
    }

    #[test]
    fn backward_has_roughly_twice_the_forward_flops() {
        let cfg = small_cfg();
        let d = Device::gaudi2();
        let run = train_step(&d, &cfg);
        let ratio = run.backward.flops / run.forward.flops;
        assert!(ratio > 1.8 && ratio < 2.2, "bwd/fwd flops {ratio}");
    }

    #[test]
    fn backward_graph_lowers_each_block_once() {
        let model = LlamaConfig::llama31_8b();
        let fwd = model.prefill_graph(2, 2048, 1);
        let bwd = backward_graph(&model, 2, 2048);
        // The flat lowering: the forward's op sequence, op by op.
        let mut flat = Vec::new();
        for op in fwd.ops() {
            backward_ops(op, &mut flat);
        }
        assert_eq!(bwd.ops().cloned().collect::<Vec<_>>(), flat);
        let repeats = |g: &Graph| g.blocks().iter().map(|b| b.repeat()).collect::<Vec<_>>();
        assert_eq!(repeats(&bwd), [1, model.layers - 1, 1]);
        assert_eq!(repeats(&bwd), repeats(&fwd));
    }

    #[test]
    fn step_time_decomposes() {
        let cfg = small_cfg();
        let run = train_step(&Device::gaudi2(), &cfg);
        assert!(run.step_time_s >= run.forward.time_s + run.backward.time_s);
        assert!(run.exposed_allreduce_s >= 0.0);
        assert!(run.energy_j > 0.0);
        assert!(run.tokens_per_second(&cfg) > 0.0);
    }

    #[test]
    fn gaudi_wins_training_throughput() {
        // Training is compute-bound GEMMs + all-8 collectives: both are
        // Gaudi-2 strengths per the paper, so the projection must favor it
        // once the step is compute-dominated (realistic batch: the
        // gradient all-reduce hides under the backward pass).
        let cfg = TrainingConfig {
            seq_len: 2048,
            micro_batch: 2,
            ..small_cfg()
        };
        let g = train_step(&Device::gaudi2(), &cfg);
        let a = train_step(&Device::a100(), &cfg);
        let speedup = a.step_time_s / g.step_time_s;
        assert!(speedup > 1.15, "training speedup {speedup}");
    }

    #[test]
    fn data_parallel_scaling_amortizes_allreduce() {
        // Same per-device work; all-reduce over more peers costs slightly
        // more but token throughput scales nearly linearly.
        let mut cfg = small_cfg();
        cfg.data_parallel = 2;
        let t2 = train_step(&Device::gaudi2(), &cfg);
        cfg.data_parallel = 8;
        let t8 = train_step(&Device::gaudi2(), &cfg);
        let scale = t8.tokens_per_second(&cfg)
            / t2.tokens_per_second(&TrainingConfig {
                data_parallel: 2,
                ..cfg.clone()
            });
        // Superlinear on the P2P mesh: 2-device all-reduce uses 1/7 of the
        // links, so going to 8 devices gains both parallelism and fabric.
        assert!(scale > 3.5 && scale < 16.0, "2->8 device scaling {scale}");
    }

    #[test]
    fn single_device_has_no_allreduce() {
        let mut cfg = small_cfg();
        cfg.data_parallel = 1;
        let run = train_step(&Device::gaudi2(), &cfg);
        assert_eq!(run.exposed_allreduce_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "node range")]
    fn oversubscribed_node_rejected() {
        let mut cfg = small_cfg();
        cfg.data_parallel = 9;
        let _ = train_step(&Device::gaudi2(), &cfg);
    }

    #[test]
    fn cluster_step_adds_scale_out_cost() {
        let cfg = TrainingConfig::llama8b_node();
        let d = Device::gaudi2();
        let one = train_step_cluster(&d, &cfg, 1);
        let four = train_step_cluster(&d, &cfg, 4);
        assert!(four.step_time_s > one.step_time_s);
        // But cluster throughput still scales well (>3x at 4 nodes).
        let t1 = cluster_tokens_per_second(&d, &cfg, 1);
        let t4 = cluster_tokens_per_second(&d, &cfg, 4);
        assert!(t4 / t1 > 3.0, "scaling {}", t4 / t1);
    }

    #[test]
    fn gaudi_cluster_training_stays_ahead() {
        // Gaudi-2's 3x100GbE scale-out per device beats the DGX's single
        // HDR200 rail, so the training edge persists at 16 nodes.
        let cfg = TrainingConfig::llama8b_node();
        let g = cluster_tokens_per_second(&Device::gaudi2(), &cfg, 16);
        let a = cluster_tokens_per_second(&Device::a100(), &cfg, 16);
        assert!(g > a, "gaudi {g} vs a100 {a}");
    }
}
