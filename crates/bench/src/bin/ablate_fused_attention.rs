//! Ablation: the Discussion's ask — direct MME access from TPC-C kernels.
//!
//! §5: "Gaudi's reliance on Intel's proprietary graph compiler, coupled
//! with the lack of a direct programming interface to the MMEs, creates
//! challenges for implementing low-level optimizations such as the kernel
//! fusion techniques used in FlashAttention", leaving a 2.2× PagedAttention
//! gap. This ablation prices the *hypothetical* fused kernel that the
//! missing interface would allow (blocks stream once from HBM into SRAM
//! and feed the MME directly, no staging copy) and shows how much of the
//! gap it closes, at the kernel and end-to-end level.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_vllm::dataset::SyntheticDataset;
use dcm_vllm::engine::ServingEngine;
use dcm_workloads::llama::LlamaConfig;

fn main() {
    banner(
        "Ablation: hypothetical FlashAttention-style fused kernel on Gaudi-2",
        "§5 Discussion: direct MME access would enable kernel fusion; today's gap is ~2.2x",
    );
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let model = LlamaConfig::llama31_8b();
    let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);
    let fused = PagedAttention::new(&gaudi, PagedBackend::GaudiFusedHypothetical, &model, 1);
    let cuda = PagedAttention::new(&a100, PagedBackend::A100Fused, &model, 1);

    let mut t = Table::new(
        "PagedAttention decode cost (us) per step",
        &[
            "seq x batch",
            "Gaudi opt",
            "Gaudi fused*",
            "A100",
            "opt/A100",
            "fused/A100",
        ],
    );
    for (len, batch) in [(1024usize, 32usize), (2048, 32), (4096, 32), (4096, 64)] {
        let lens = vec![len; batch];
        let to = opt.decode_cost(&lens, 0.0).time();
        let tf = fused.decode_cost(&lens, 0.0).time();
        let ta = cuda.decode_cost(&lens, 0.0).time();
        t.push(&[
            format!("{len}x{batch}"),
            format!("{:.0}", to * 1e6),
            format!("{:.0}", tf * 1e6),
            format!("{:.0}", ta * 1e6),
            format!("{:.2}", to / ta),
            format!("{:.2}", tf / ta),
        ]);
    }
    print!("{}", t.render());

    // End to end.
    let trace = SyntheticDataset::dynamic_sonnet(24, 17);
    let mut e = Table::new(
        "end-to-end serving throughput (tokens/s), max batch 16",
        &["engine", "tokens/s"],
    );
    for (name, device, backend) in [
        ("Gaudi-2 opt", &gaudi, PagedBackend::GaudiOpt),
        (
            "Gaudi-2 fused*",
            &gaudi,
            PagedBackend::GaudiFusedHypothetical,
        ),
        ("A100", &a100, PagedBackend::A100Fused),
    ] {
        let report = ServingEngine::new(device, model.clone(), 1, backend, 16)
            .run(&trace)
            .expect("trace fits");
        e.push(&[name.to_owned(), format!("{:.0}", report.throughput_tps)]);
    }
    print!("{}", e.render());
    println!(
        "\n(*hypothetical: requires the low-level MME interface the paper asks\n\
         Intel for.) The staging copy is the bulk of today's kernel gap; with\n\
         it gone, Gaudi's bandwidth advantage makes even the attention kernel\n\
         competitive — supporting the paper's conclusion that the limitation\n\
         is software-architectural, not silicon."
    );
}
