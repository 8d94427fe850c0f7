//! Regenerates Figure 12: (a) Gaudi-2's speedup over A100 serving
//! Llama-3.1-8B on one device and Llama-3.1-70B on 2/4/8 devices, over
//! batch size × output length; (b) the prefill/decode latency breakdown.

use dcm_bench::{banner, compare, LLM_BATCHES, OUTPUT_LENS};
use dcm_compiler::Device;
use dcm_core::metrics::Heatmap;
use dcm_workloads::llama::{LlamaConfig, LlamaServer};

const INPUT_LEN: usize = 100;

fn speedup_heatmap(cfg: &LlamaConfig, tp: usize) -> Heatmap {
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let server = LlamaServer::new(cfg.clone(), tp);
    let mut h = Heatmap::new(
        format!(
            "Figure 12(a): {} on {tp} device(s), Gaudi-2 speedup",
            cfg.name
        ),
        "batch",
        "output len",
        OUTPUT_LENS.iter().map(|o| o.to_string()).collect(),
    );
    for &batch in &LLM_BATCHES {
        h.push_row(
            batch.to_string(),
            OUTPUT_LENS
                .iter()
                .map(|&out| {
                    let g = server.serve(&gaudi, batch, INPUT_LEN, out);
                    let a = server.serve(&a100, batch, INPUT_LEN, out);
                    a.total_time_s() / g.total_time_s()
                })
                .collect(),
        );
    }
    h
}

fn main() {
    banner(
        "Figure 12: LLM serving performance, Gaudi-2 vs A100",
        "8B x1: avg 1.47x (max 1.70x); 70B x2/4/8: 1.29x/1.32x/1.35x; decode dominates long outputs",
    );
    let h8 = speedup_heatmap(&LlamaConfig::llama31_8b(), 1);
    print!("{}", h8.render(2));
    println!("mean {:.2}, max {:.2}\n", h8.mean(), h8.max());

    let mut tp_means = Vec::new();
    for tp in [2usize, 4, 8] {
        let h = speedup_heatmap(&LlamaConfig::llama31_70b(), tp);
        print!("{}", h.render(2));
        println!("mean {:.2}\n", h.mean());
        tp_means.push(h.mean());
    }

    // (b) latency breakdown, batch 64.
    let gaudi = Device::gaudi2();
    let server = LlamaServer::new(LlamaConfig::llama31_8b(), 1);
    let mut left = Heatmap::new(
        "Figure 12(b) left: latency split, input=100, varying output",
        "output len",
        "stage fraction",
        vec!["prefill".into(), "decode".into()],
    );
    for &out in &OUTPUT_LENS {
        let r = server.serve(&gaudi, 64, 100, out);
        let total = r.total_time_s();
        left.push_row(
            out.to_string(),
            vec![r.prefill.time_s / total, r.decode.time_s / total],
        );
    }
    print!("{}", left.render(2));
    let mut right = Heatmap::new(
        "Figure 12(b) right: latency split, output=100, varying input",
        "input len",
        "stage fraction",
        vec!["prefill".into(), "decode".into()],
    );
    for &inp in &[25usize, 50, 100, 200, 400] {
        let r = server.serve(&gaudi, 64, inp, 100);
        let total = r.total_time_s();
        right.push_row(
            inp.to_string(),
            vec![r.prefill.time_s / total, r.decode.time_s / total],
        );
    }
    print!("{}", right.render(2));

    println!();
    compare("8B single-device mean speedup", 1.47, h8.mean());
    compare("8B single-device max speedup", 1.70, h8.max());
    compare("70B 2-device mean speedup", 1.29, tp_means[0]);
    compare("70B 4-device mean speedup", 1.32, tp_means[1]);
    compare("70B 8-device mean speedup", 1.35, tp_means[2]);
}
