//! Integration: the same lowered graphs execute on both device models with
//! identical work accounting and the directional outcomes the paper
//! reports.

use dcm_compiler::{CompileOptions, Device, Graph, Op};
use dcm_core::{DType, DeviceSpec};
use dcm_mme::GemmShape;
use dcm_workloads::dlrm::DlrmConfig;
use dcm_workloads::llama::LlamaConfig;

fn devices() -> [Device; 2] {
    [Device::gaudi2(), Device::a100()]
}

#[test]
fn flops_accounting_is_device_independent() {
    let graphs = [
        LlamaConfig::llama31_8b().decode_step_graph(16, 512, 1),
        LlamaConfig::llama31_8b().prefill_graph(4, 256, 1),
        DlrmConfig::rm1(256).dense_graph(128),
    ];
    for g in &graphs {
        let runs: Vec<f64> = devices()
            .iter()
            .map(|d| d.run_graph(g, &CompileOptions::default()).stats.flops)
            .collect();
        assert!(
            (runs[0] - runs[1]).abs() / runs[0] < 1e-9,
            "{}: {} vs {}",
            g.name(),
            runs[0],
            runs[1]
        );
    }
}

#[test]
fn compile_options_never_change_flops() {
    let g = LlamaConfig::llama31_8b().decode_step_graph(8, 256, 1);
    for d in devices() {
        let opt = d.run_graph(&g, &CompileOptions::default());
        let unopt = d.run_graph(&g, &CompileOptions::unoptimized());
        assert!((opt.stats.flops - unopt.stats.flops).abs() < 1.0);
        assert!(opt.time_s() <= unopt.time_s() + 1e-12);
    }
}

#[test]
fn tensor_parallelism_conserves_total_flops_per_token() {
    // Sharding divides per-device work; total across devices stays put
    // (modulo the all-reduce, which does no FLOPs).
    let cfg = LlamaConfig::llama31_70b();
    let d = Device::gaudi2();
    let f1 = d
        .run_graph(
            &cfg.decode_step_graph(16, 512, 1),
            &CompileOptions::default(),
        )
        .stats
        .flops;
    let f8 = d
        .run_graph(
            &cfg.decode_step_graph(16, 512, 8),
            &CompileOptions::default(),
        )
        .stats
        .flops;
    let rel = (f8 * 8.0 - f1).abs() / f1;
    assert!(rel < 0.02, "tp sharding changed total flops by {rel}");
}

#[test]
fn gemm_heavy_graphs_favor_gaudi_vector_heavy_fp32_favors_a100() {
    let mut gemm_heavy = Graph::new("gemms");
    gemm_heavy.push(Op::gemm(GemmShape::square(4096), DType::Bf16));
    let g = Device::gaudi2().run_graph(&gemm_heavy, &CompileOptions::default());
    let a = Device::a100().run_graph(&gemm_heavy, &CompileOptions::default());
    assert!(g.time_s() < a.time_s());

    let mut vector_heavy = Graph::new("vectors");
    vector_heavy.push(Op::Elementwise {
        kind: dcm_compiler::EwKind::Silu,
        elems: 1 << 24,
        dtype: DType::Bf16,
    });
    // Memory-bound element-wise work still favors Gaudi's bandwidth...
    let gv = Device::gaudi2().run_graph(&vector_heavy, &CompileOptions::default());
    let av = Device::a100().run_graph(&vector_heavy, &CompileOptions::default());
    assert!(gv.time_s() < av.time_s());
    // ...but a compute-bound FP32 GEMM favors the A100 (PyTorch FP32).
    let mut fp32_gemm = Graph::new("fp32");
    fp32_gemm.push(Op::gemm(GemmShape::square(4096), DType::Fp32));
    let gf = Device::gaudi2().run_graph(&fp32_gemm, &CompileOptions::default());
    let af = Device::a100().run_graph(&fp32_gemm, &CompileOptions::default());
    assert!(af.time_s() < gf.time_s());
}

#[test]
fn energy_never_exceeds_tdp_times_time() {
    for d in devices() {
        let g = LlamaConfig::llama31_8b().prefill_graph(8, 512, 1);
        let run = d.run_graph(&g, &CompileOptions::default());
        let tdp = d.spec().power.tdp_watts;
        assert!(run.power_w <= tdp + 1e-9, "{}: {}", d.name(), run.power_w);
        assert!(run.power_w >= d.spec().power.idle_watts);
        assert!((run.energy_j - run.power_w * run.time_s()).abs() < 1e-9);
    }
}

#[test]
fn custom_spec_devices_are_constructible() {
    // A hypothetical Gaudi with 32 B sectors: the ablation DESIGN.md
    // mentions. The spec type supports it even though the stock Device
    // constructors don't expose it; verify the spec math responds.
    let mut spec = DeviceSpec::gaudi2();
    spec.memory.min_access_bytes = 32;
    assert_eq!(spec.memory.bus_bytes(64), 64);
    assert_eq!(DeviceSpec::gaudi2().memory.bus_bytes(64), 256);
}
