//! Regenerates Figure 17: the vLLM case study — PagedAttention speedups
//! (a, b), the A100 comparison (c), and end-to-end serving with the
//! Dynamic-Sonnet-like trace (d, e).

use dcm_bench::{banner, compare};
use dcm_compiler::Device;
use dcm_core::metrics::{Heatmap, Table};
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_vllm::dataset::SyntheticDataset;
use dcm_vllm::engine::ServingEngine;
use dcm_workloads::llama::LlamaConfig;

const SEQ_LENS: [usize; 4] = [512, 1024, 2048, 4096];
const BATCHES: [usize; 4] = [8, 16, 32, 64];

fn main() {
    banner(
        "Figure 17: vLLM PagedAttention and end-to-end serving",
        "vLLMopt 7.4x over base (0% padding), up to 55.7x with padding (avg 21x); 45% of A100 kernel; \
         end-to-end competitive with A100",
    );
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let model = LlamaConfig::llama31_8b();
    let base = PagedAttention::new(&gaudi, PagedBackend::GaudiBase, &model, 1);
    let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);
    let fused = PagedAttention::new(&a100, PagedBackend::A100Fused, &model, 1);

    // (a) opt vs base over sequence length x batch, 0% padding.
    let mut ha = Heatmap::new(
        "Figure 17(a): vLLMopt speedup over vLLMbase (0% zero-padding)",
        "seq len",
        "batch",
        BATCHES.iter().map(|b| b.to_string()).collect(),
    );
    let cells: Vec<(usize, usize)> = SEQ_LENS
        .iter()
        .flat_map(|&len| BATCHES.iter().map(move |&b| (len, b)))
        .collect();
    let a_cells = dcm_bench::sweep(&cells, |&(len, b)| {
        let lens = vec![len; b];
        base.decode_cost(&lens, 0.0).time() / opt.decode_cost(&lens, 0.0).time()
    });
    for (&len, row) in SEQ_LENS.iter().zip(a_cells.chunks(BATCHES.len())) {
        ha.push_row(len.to_string(), row.to_vec());
    }
    print!("{}", ha.render(2));
    println!("mean speedup {:.2}\n", ha.mean());

    // (b) padding sweep at seq 4K, batch 32.
    let lens = vec![4096usize; 32];
    let opt_t = opt.decode_cost(&lens, 0.0).time();
    let mut tb = Table::new(
        "Figure 17(b): speedup vs zero-padded index fraction (seq 4K, batch 32)",
        &["padding", "speedup"],
    );
    let fractions: Vec<f64> = (1..=9).map(|i| f64::from(i) / 10.0).collect();
    let pad_speedups = dcm_bench::sweep(&fractions, |&f| base.decode_cost(&lens, f).time() / opt_t);
    for (&f, &s) in fractions.iter().zip(&pad_speedups) {
        tb.push(&[format!("{:.0}%", f * 100.0), format!("{s:.1}x")]);
    }
    print!("{}", tb.render());

    // (c) opt vs A100 fused kernel.
    let mut hc = Heatmap::new(
        "Figure 17(c): vLLMopt(Gaudi-2) throughput normalized to A100",
        "seq len",
        "batch",
        BATCHES.iter().map(|b| b.to_string()).collect(),
    );
    let c_cells = dcm_bench::sweep(&cells, |&(len, b)| {
        let lens = vec![len; b];
        fused.decode_cost(&lens, 0.0).time() / opt.decode_cost(&lens, 0.0).time()
    });
    for (&len, row) in SEQ_LENS.iter().zip(c_cells.chunks(BATCHES.len())) {
        hc.push_row(len.to_string(), row.to_vec());
    }
    print!("{}", hc.render(2));

    // (d, e) end-to-end serving, Dynamic-Sonnet-like trace, sweeping the
    // maximum decode batch size.
    let trace = SyntheticDataset::dynamic_sonnet(48, 2026);
    let mut td = Table::new(
        "Figure 17(d,e): end-to-end serving vs max decode batch",
        &[
            "max batch",
            "G tput t/s",
            "A tput t/s",
            "G/A",
            "G TTFT ms",
            "G TPOT ms",
            "A TTFT ms",
            "A TPOT ms",
        ],
    );
    let max_batches = [2usize, 4, 8, 16, 32];
    let serving = dcm_bench::sweep(&max_batches, |&mb| {
        let g = ServingEngine::new(&gaudi, model.clone(), 1, PagedBackend::GaudiOpt, mb)
            .run(&trace)
            .expect("trace fits");
        let a = ServingEngine::new(&a100, model.clone(), 1, PagedBackend::A100Fused, mb)
            .run(&trace)
            .expect("trace fits");
        (g, a)
    });
    let mut ratios = Vec::new();
    for (&mb, (g, a)) in max_batches.iter().zip(&serving) {
        ratios.push(g.throughput_tps / a.throughput_tps);
        td.push(&[
            mb.to_string(),
            format!("{:.0}", g.throughput_tps),
            format!("{:.0}", a.throughput_tps),
            format!("{:.2}", g.throughput_tps / a.throughput_tps),
            format!("{:.0}", g.mean_ttft_s * 1e3),
            format!("{:.1}", g.mean_tpot_s * 1e3),
            format!("{:.0}", a.mean_ttft_s * 1e3),
            format!("{:.1}", a.mean_tpot_s * 1e3),
        ]);
    }
    print!("{}", td.render());

    println!();
    compare("vLLMopt/vLLMbase mean speedup, 0% padding", 7.4, ha.mean());
    compare(
        "max speedup with padding",
        55.7,
        pad_speedups.iter().cloned().fold(f64::MIN, f64::max),
    );
    compare(
        "mean speedup over 10-90% padding",
        21.0,
        pad_speedups.iter().sum::<f64>() / pad_speedups.len() as f64,
    );
    compare("PagedAttention throughput vs A100 (mean)", 0.45, hc.mean());
    compare(
        "end-to-end throughput vs A100 (mean over batches)",
        1.01,
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
}
