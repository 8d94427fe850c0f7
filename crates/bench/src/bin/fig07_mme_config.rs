//! Regenerates Figure 7: (a) the MME geometry selected as a function of
//! (M, N) with K=16,384; (b) the corresponding compute utilization; and
//! (c) the configurable-vs-fixed output-stationary ablation.

use dcm_bench::{banner, compare};
use dcm_core::metrics::{Heatmap, Table};
use dcm_core::{DType, DeviceSpec};
use dcm_mme::{GaudiMme, GemmEngine, GemmShape};

const K: usize = 16384;

fn main() {
    banner(
        "Figure 7: MME geometry selection and reconfigurability ablation",
        "tall arrays for large-M/small-N; power-gated sub-arrays for small GEMMs; up to ~15pp gain vs fixed",
    );
    let spec = DeviceSpec::gaudi2();
    let mme = GaudiMme::new(&spec);
    let fixed = GaudiMme::fixed(&spec);
    let dims = [64usize, 128, 256, 512, 1024, 2048, 4096];

    // (a) geometry table.
    let mut t = Table::new(
        "Figure 7(a): selected geometry (rows: M, cols: N), K=16384",
        &["M\\N", "64", "128", "256", "512", "1024", "2048", "4096"],
    );
    for &m in &dims {
        let mut row = vec![m.to_string()];
        for &n in &dims {
            let g = mme.select_geometry(GemmShape::new(m, K, n), 1);
            row.push(g.to_string());
        }
        t.push_row(row);
    }
    print!("{}", t.render());

    // Power-gated region: fraction of the MAC budget powered.
    let mut gate = Heatmap::new(
        "Figure 7(a) powered MAC fraction (gray region < 1.0)",
        "M",
        "N",
        dims.iter().map(|d| d.to_string()).collect(),
    );
    for &m in &dims {
        gate.push_row(
            m.to_string(),
            dims.iter()
                .map(|&n| {
                    mme.gemm(GemmShape::new(m, K, n), DType::Bf16)
                        .powered_fraction
                })
                .collect(),
        );
    }
    print!("{}", gate.render(2));

    // (b) utilization heatmap.
    let peak = spec.matrix.peak_flops(DType::Bf16);
    let mut util = Heatmap::new(
        "Figure 7(b): compute utilization, K=16384",
        "M",
        "N",
        dims.iter().map(|d| d.to_string()).collect(),
    );
    for &m in &dims {
        util.push_row(
            m.to_string(),
            dims.iter()
                .map(|&n| {
                    mme.gemm(GemmShape::new(m, K, n), DType::Bf16)
                        .utilization(peak)
                })
                .collect(),
        );
    }
    print!("{}", util.render(3));

    // (c) configurable vs fixed, M=K=16384, varying N.
    let mut abl = Table::new(
        "Figure 7(c): configurable (black) vs fixed 256x256x2 (white), M=K=16384",
        &["N", "configurable", "fixed", "gain (pp)"],
    );
    let mut max_gain: f64 = 0.0;
    for &n in &[64usize, 128, 256, 512, 1024, 2048] {
        let shape = GemmShape::new(16384, K, n);
        let c = mme.gemm(shape, DType::Bf16).utilization(peak);
        let f = fixed.gemm(shape, DType::Bf16).utilization(peak);
        max_gain = max_gain.max(c - f);
        abl.push(&[
            n.to_string(),
            format!("{c:.3}"),
            format!("{f:.3}"),
            format!("{:.1}", (c - f) * 100.0),
        ]);
    }
    print!("{}", abl.render());
    println!();
    compare("max reconfigurability gain (pp)", 15.0, max_gain * 100.0);
}
