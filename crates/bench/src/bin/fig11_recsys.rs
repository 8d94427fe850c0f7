//! Regenerates Figure 11: Gaudi-2's improvement in (a) performance and
//! (b) energy-efficiency over A100 when RM1 and RM2 are served on a single
//! device, swept over embedding vector size and batch size.

use dcm_bench::{banner, compare, RECSYS_BATCHES, VECTOR_SIZES};
use dcm_compiler::Device;
use dcm_core::metrics::Heatmap;
use dcm_embedding::BatchedTableOp;
use dcm_workloads::dlrm::{DlrmConfig, DlrmServer};

fn heatmaps(model: &str) -> (Heatmap, Heatmap) {
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();
    let g_op = BatchedTableOp::new(gaudi.spec());
    let a_op = BatchedTableOp::new(a100.spec());
    let cols: Vec<String> = RECSYS_BATCHES.iter().map(|b| b.to_string()).collect();
    let mut speed = Heatmap::new(
        format!("Figure 11(a) {model}: Gaudi-2 speedup over A100"),
        "vector bytes",
        "batch",
        cols.clone(),
    );
    let mut energy = Heatmap::new(
        format!("Figure 11(b) {model}: Gaudi-2 energy-efficiency improvement"),
        "vector bytes",
        "batch",
        cols,
    );
    for &vb in &VECTOR_SIZES {
        let cfg = if model == "RM1" {
            DlrmConfig::rm1(vb)
        } else {
            DlrmConfig::rm2(vb)
        };
        let server = DlrmServer::new(cfg);
        let mut srow = Vec::new();
        let mut erow = Vec::new();
        for &batch in &RECSYS_BATCHES {
            let g = server.serve(&gaudi, &g_op, batch);
            let a = server.serve(&a100, &a_op, batch);
            srow.push(a.time_s() / g.time_s());
            erow.push(a.energy_j / g.energy_j);
        }
        speed.push_row(vb.to_string(), srow);
        energy.push_row(vb.to_string(), erow);
    }
    (speed, energy)
}

fn main() {
    banner(
        "Figure 11: single-device RecSys serving, Gaudi-2 vs A100",
        "avg perf -22% (RM1) / -18% (RM2); wins up to 1.36x at wide vectors + large batch; energy avg -28%",
    );
    let mut all_speed = Vec::new();
    let mut all_energy = Vec::new();
    for model in ["RM1", "RM2"] {
        let (speed, energy) = heatmaps(model);
        print!("{}", speed.render(2));
        print!("{}", energy.render(2));
        println!(
            "{model}: mean speedup {:.2} (max {:.2}), mean energy-eff {:.2}\n",
            speed.mean(),
            speed.max(),
            energy.mean()
        );
        all_speed.push(speed);
        all_energy.push(energy);
    }
    compare(
        "RM1 mean Gaudi speedup (paper: 0.78)",
        0.78,
        all_speed[0].mean(),
    );
    compare(
        "RM2 mean Gaudi speedup (paper: 0.82)",
        0.82,
        all_speed[1].mean(),
    );
    compare(
        "max Gaudi speedup (wide vectors)",
        1.36,
        all_speed[0].max().max(all_speed[1].max()),
    );
    compare(
        "mean energy-efficiency (paper: 1/1.28 = 0.78)",
        0.78,
        (all_energy[0].mean() + all_energy[1].mean()) / 2.0,
    );
}
