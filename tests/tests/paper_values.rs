//! Regression tests pinning the reproduced paper values within tolerance.
//!
//! These complement the `takeaways` binary: if a model change drifts a
//! headline number outside the tolerances recorded in EXPERIMENTS.md, a
//! test here fails. Tolerances are deliberately wide where EXPERIMENTS.md
//! documents a known deviation.

use dcm_compiler::Device;
use dcm_core::metrics::mean;
use dcm_core::{DType, DeviceSpec};
use dcm_embedding::{BatchedTableOp, EmbeddingConfig, EmbeddingOp};
use dcm_mem::GatherScatterEngine;
use dcm_mme::GemmShape;
use dcm_net::{Collective, CollectiveModel};
use dcm_tpc::engine::{StreamKernel, VectorEngineModel};
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_workloads::dlrm::{DlrmConfig, DlrmServer};
use dcm_workloads::llama::{LlamaConfig, LlamaServer};

fn within(measured: f64, paper: f64, rel_tol: f64) -> bool {
    (measured / paper - 1.0).abs() <= rel_tol
}

#[test]
fn fig4_peak_gemm() {
    let g = Device::gaudi2().gemm(GemmShape::square(8192), DType::Bf16);
    assert!(within(g.achieved_flops() / 1e12, 429.0, 0.02));
}

#[test]
fn fig7_reconfigurability_gain() {
    use dcm_mme::{GaudiMme, GemmEngine};
    let spec = DeviceSpec::gaudi2();
    let mme = GaudiMme::new(&spec);
    let fixed = GaudiMme::fixed(&spec);
    let peak = spec.matrix.peak_flops(DType::Bf16);
    let mut max_gain: f64 = 0.0;
    for n in [64usize, 128, 256, 512, 1024, 2048] {
        let s = GemmShape::new(16384, 16384, n);
        let gain = mme.gemm(s, DType::Bf16).utilization(peak)
            - fixed.gemm(s, DType::Bf16).utilization(peak);
        max_gain = max_gain.max(gain);
    }
    assert!(within(max_gain * 100.0, 15.0, 0.25), "gain {max_gain}");
}

#[test]
fn fig8_saturation_levels() {
    let gaudi = VectorEngineModel::new(&DeviceSpec::gaudi2());
    let a100 = VectorEngineModel::new(&DeviceSpec::a100());
    let sat = |k: StreamKernel| gaudi.throughput(&k.with_unroll(4), 24, DType::Bf16) / 1e9;
    assert!(within(sat(StreamKernel::add()), 330.0, 0.25));
    assert!(within(sat(StreamKernel::scale()), 530.0, 0.25));
    assert!(within(sat(StreamKernel::triad()), 670.0, 0.25));
    let compute = |m: &VectorEngineModel, k: StreamKernel, cores: usize, unroll: usize| {
        m.throughput(
            &k.with_intensity_scale(1024).with_unroll(unroll),
            cores,
            DType::Bf16,
        ) / 1e12
    };
    assert!(within(
        compute(&gaudi, StreamKernel::add(), 24, 8),
        5.5,
        0.1
    ));
    assert!(within(
        compute(&gaudi, StreamKernel::triad(), 24, 8),
        10.9,
        0.1
    ));
    assert!(within(
        compute(&a100, StreamKernel::add(), 108, 1),
        19.4,
        0.1
    ));
    assert!(within(
        compute(&a100, StreamKernel::triad(), 108, 1),
        38.2,
        0.1
    ));
}

#[test]
fn fig9_gather_levels() {
    let g = GatherScatterEngine::new(&DeviceSpec::gaudi2());
    let a = GatherScatterEngine::new(&DeviceSpec::a100());
    let avg = |e: &GatherScatterEngine, sizes: &[usize]| {
        mean(
            &sizes
                .iter()
                .map(|&s| e.gather_utilization(4 << 20, s))
                .collect::<Vec<_>>(),
        )
    };
    assert!(within(avg(&g, &[256, 512, 1024, 2048]), 0.64, 0.10));
    assert!(within(avg(&a, &[256, 512, 1024, 2048]), 0.72, 0.10));
    assert!(within(avg(&g, &[16, 32, 64, 128]), 0.15, 0.30));
    assert!(within(avg(&a, &[16, 32, 64, 128]), 0.36, 0.30));
}

#[test]
fn fig10_five_of_six() {
    let g = CollectiveModel::new(&DeviceSpec::gaudi2());
    let a = CollectiveModel::new(&DeviceSpec::a100());
    let wins = Collective::ALL
        .iter()
        .filter(|&&c| g.bus_utilization(c, 32 << 20, 8) > a.bus_utilization(c, 32 << 20, 8))
        .count();
    assert_eq!(wins, 5);
}

#[test]
fn fig11_recsys_means() {
    // RM2 mean speedup ~0.82 (tight), RM1 ~0.78 (documented +18% drift).
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let mut rm2 = Vec::new();
    let mut rm1 = Vec::new();
    for vb in [16usize, 64, 256, 1024] {
        for batch in [512usize, 2048] {
            for (cfg, bucket) in [
                (DlrmConfig::rm2(vb), &mut rm2),
                (DlrmConfig::rm1(vb), &mut rm1),
            ] {
                let server = DlrmServer::new(cfg);
                let g = server.serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), batch);
                let a = server.serve(&a100, &BatchedTableOp::new(a100.spec()), batch);
                bucket.push(a.time_s() / g.time_s());
            }
        }
    }
    let rm2_mean = mean(&rm2);
    let rm1_mean = mean(&rm1);
    assert!(rm2_mean > 0.6 && rm2_mean < 1.05, "RM2 {rm2_mean}");
    assert!(rm1_mean > 0.6 && rm1_mean < 1.05, "RM1 {rm1_mean}");
}

#[test]
fn fig12_llm_speedups() {
    let server = LlamaServer::new(LlamaConfig::llama31_8b(), 1);
    let mut speedups = Vec::new();
    for batch in [16usize, 64] {
        for out in [50usize, 200] {
            let g = server.serve(&Device::gaudi2(), batch, 100, out);
            let a = server.serve(&Device::a100(), batch, 100, out);
            speedups.push(a.total_time_s() / g.total_time_s());
        }
    }
    let m = mean(&speedups);
    // Paper 1.47, documented -11% drift: accept 1.15..1.7.
    assert!(m > 1.15 && m < 1.7, "8B mean speedup {m}");
}

#[test]
fn fig12_multi_device_trend() {
    let ratio = |tp: usize| {
        let s = LlamaServer::new(LlamaConfig::llama31_70b(), tp);
        let g = s.serve(&Device::gaudi2(), 128, 100, 100);
        let a = s.serve(&Device::a100(), 128, 100, 100);
        a.total_time_s() / g.total_time_s()
    };
    let (r2, r4, r8) = (ratio(2), ratio(4), ratio(8));
    assert!(r2 > 1.0 && r4 > r2 && r8 > r4, "trend {r2} {r4} {r8}");
    assert!(r8 < 1.7, "tp8 {r8} implausibly high");
}

#[test]
fn fig15_embedding_levels() {
    let gb = BatchedTableOp::new(&DeviceSpec::gaudi2());
    let ab = BatchedTableOp::new(&DeviceSpec::a100());
    // Same grid as the fig15_embedding binary.
    let mut utils = Vec::new();
    for vb in [16usize, 32, 64, 128, 256, 512, 1024, 2048] {
        for batch in [8usize, 32, 128, 512, 2048, 4096] {
            utils.push(gb.utilization(&EmbeddingConfig::rm2_like(vb), batch));
        }
    }
    let m = mean(&utils);
    assert!(within(m, 0.342, 0.20), "batched mean util {m}");
    let peak = gb.utilization(&EmbeddingConfig::rm2_like(2048), 4096);
    assert!(within(peak, 0.705, 0.10), "peak {peak}");
    let a_peak = ab.utilization(&EmbeddingConfig::rm2_like(2048), 4096);
    assert!(within(a_peak, 0.818, 0.10), "a100 peak {a_peak}");
}

#[test]
fn fig17_paged_attention() {
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let model = LlamaConfig::llama31_8b();
    let base = PagedAttention::new(&gaudi, PagedBackend::GaudiBase, &model, 1);
    let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);
    let fused = PagedAttention::new(&a100, PagedBackend::A100Fused, &model, 1);
    let lens = vec![4096usize; 32];
    let opt_t = opt.decode_cost(&lens, 0.0).time();
    // 7.4x headline at 0% padding (+-35%).
    assert!(within(
        base.decode_cost(&lens, 0.0).time() / opt_t,
        7.4,
        0.35
    ));
    // ~21x average over 10-90% padding (+-40%).
    let pad_mean = mean(
        &(1..=9)
            .map(|i| base.decode_cost(&lens, i as f64 / 10.0).time() / opt_t)
            .collect::<Vec<_>>(),
    );
    assert!(within(pad_mean, 21.0, 0.40), "padding mean {pad_mean}");
    // Kernel vs A100: paper 45%, documented +33% drift: accept 0.4..0.7.
    let vs_a100 = fused.decode_cost(&lens, 0.0).time() / opt_t;
    assert!(vs_a100 > 0.40 && vs_a100 < 0.70, "vs A100 {vs_a100}");
}
