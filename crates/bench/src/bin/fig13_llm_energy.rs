//! Regenerates Figure 13: Gaudi-2's energy-efficiency improvement over
//! A100 for single- and multi-device Llama serving.

use dcm_bench::{banner, compare, LLM_BATCHES, OUTPUT_LENS};
use dcm_compiler::Device;
use dcm_core::metrics::Heatmap;
use dcm_workloads::llama::{LlamaConfig, LlamaServer};

const INPUT_LEN: usize = 100;

fn energy_heatmap(cfg: &LlamaConfig, tp: usize) -> (Heatmap, f64, f64) {
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let server = LlamaServer::new(cfg.clone(), tp);
    let mut h = Heatmap::new(
        format!(
            "Figure 13: {} on {tp} device(s), Gaudi-2 energy-eff improvement",
            cfg.name
        ),
        "batch",
        "output len",
        OUTPUT_LENS.iter().map(|o| o.to_string()).collect(),
    );
    let mut g_power = Vec::new();
    let mut a_power = Vec::new();
    for &batch in &LLM_BATCHES {
        h.push_row(
            batch.to_string(),
            OUTPUT_LENS
                .iter()
                .map(|&out| {
                    let g = server.serve(&gaudi, batch, INPUT_LEN, out);
                    let a = server.serve(&a100, batch, INPUT_LEN, out);
                    g_power.push(g.power_w);
                    a_power.push(a.power_w);
                    a.energy_per_token() / g.energy_per_token()
                })
                .collect(),
        );
    }
    let gp = g_power.iter().sum::<f64>() / g_power.len() as f64;
    let ap = a_power.iter().sum::<f64>() / a_power.len() as f64;
    (h, gp, ap)
}

fn main() {
    banner(
        "Figure 13: LLM serving energy efficiency, Gaudi-2 vs A100",
        "8B x1: 1.48x; 70B x2/4/8: 1.48x/1.51x/1.56x; Gaudi power ~88-101% of A100 despite 1.5x TDP",
    );
    let (h8, gp, ap) = energy_heatmap(&LlamaConfig::llama31_8b(), 1);
    print!("{}", h8.render(2));
    println!(
        "mean eff {:.2}; mean power Gaudi {:.0} W vs A100 {:.0} W (ratio {:.2})\n",
        h8.mean(),
        gp,
        ap,
        gp / ap
    );
    let mut tp_means = Vec::new();
    let mut power_ratios = Vec::new();
    for tp in [2usize, 4, 8] {
        let (h, gp, ap) = energy_heatmap(&LlamaConfig::llama31_70b(), tp);
        print!("{}", h.render(2));
        println!("mean eff {:.2}; power ratio {:.2}\n", h.mean(), gp / ap);
        tp_means.push(h.mean());
        power_ratios.push(gp / ap);
    }
    compare(
        "8B single-device mean energy-eff improvement",
        1.48,
        h8.mean(),
    );
    compare(
        "70B 2-device mean energy-eff improvement",
        1.48,
        tp_means[0],
    );
    compare(
        "70B 4-device mean energy-eff improvement",
        1.51,
        tp_means[1],
    );
    compare(
        "70B 8-device mean energy-eff improvement",
        1.56,
        tp_means[2],
    );
    compare(
        "multi-device Gaudi/A100 power ratio (paper ~0.88)",
        0.88,
        power_ratios.iter().sum::<f64>() / power_ratios.len() as f64,
    );
    compare("single-device power ratio (paper ~1.01)", 1.01, gp / ap);
}
