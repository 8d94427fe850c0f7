//! Extension: multi-node training scale-out.
//!
//! §5 claims competitiveness "for training large-scale AI models requiring
//! hundreds to thousands of devices". This projects the one-node training
//! step of `ext_training` onto clusters via the hierarchical all-reduce
//! model: intra-node fabric, then each device's scale-out rail (Gaudi-2:
//! 3×100 GbE of its 24 RoCE ports; DGX A100: one HDR200 NIC per GPU).

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_net::{MultiNodeFlowTransport, MultiNodeModel};
use dcm_workloads::training::{cluster_tokens_per_second, TrainingConfig};

fn main() {
    banner(
        "Extension: cluster-scale training (hierarchical all-reduce)",
        "§5 future work: hundreds to thousands of devices",
    );
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();

    // Raw scale-out all-reduce of an 8B model's gradients (16 GB).
    let mut ar = Table::new(
        "16 GB gradient all-reduce time (ms) by cluster size",
        &["nodes", "devices", "HLS-Gaudi-2", "DGX A100"],
    );
    let ar_nodes = [1usize, 2, 4, 16, 64, 128];
    let ar_rows = dcm_bench::sweep(&ar_nodes, |&nodes| {
        let g = MultiNodeModel::new(gaudi.spec(), nodes);
        let a = MultiNodeModel::new(a100.spec(), nodes);
        (
            g.allreduce_time(16 << 30) * 1e3,
            a.allreduce_time(16 << 30) * 1e3,
        )
    });
    for (&nodes, &(g_ms, a_ms)) in ar_nodes.iter().zip(&ar_rows) {
        ar.push(&[
            nodes.to_string(),
            (nodes * 8).to_string(),
            format!("{g_ms:.0}"),
            format!("{a_ms:.0}"),
        ]);
    }
    print!("{}", ar.render());

    // Emergent cross-check: replay the gradient all-reduce on the
    // flow-level transport (intra-node flows + simulated inter-node ring
    // on each device's scale-out rail). The hierarchical schedule is
    // constructed to match the closed form, so deviation here means the
    // fabric layers drifted from the spec.
    let em_nodes = [1usize, 2, 4, 16, 64];
    let mut em = Table::new(
        "16 GB gradient all-reduce (ms): closed form vs emergent fabric",
        &[
            "nodes",
            "Gaudi-2 spec",
            "Gaudi-2 flow",
            "A100 spec",
            "A100 flow",
        ],
    );
    let em_rows = dcm_bench::sweep(&em_nodes, |&nodes| {
        (
            MultiNodeModel::new(gaudi.spec(), nodes).allreduce_time(16 << 30) * 1e3,
            MultiNodeFlowTransport::new(gaudi.spec(), nodes).allreduce_time(16 << 30) * 1e3,
            MultiNodeModel::new(a100.spec(), nodes).allreduce_time(16 << 30) * 1e3,
            MultiNodeFlowTransport::new(a100.spec(), nodes).allreduce_time(16 << 30) * 1e3,
        )
    });
    let mut worst_dev = 0.0f64;
    for (&nodes, &(gs, gf, as_, af)) in em_nodes.iter().zip(&em_rows) {
        worst_dev = worst_dev
            .max((gf / gs - 1.0).abs())
            .max((af / as_ - 1.0).abs());
        em.push(&[
            nodes.to_string(),
            format!("{gs:.0}"),
            format!("{gf:.0}"),
            format!("{as_:.0}"),
            format!("{af:.0}"),
        ]);
    }
    print!("{}", em.render());
    println!(
        "  worst emergent-vs-spec deviation: {:.4}%",
        worst_dev * 100.0
    );

    // End-to-end training throughput.
    let cfg = TrainingConfig::llama8b_node();
    let mut t = Table::new(
        "Llama-3.1-8B training throughput (tokens/s) by cluster size",
        &[
            "nodes",
            "devices",
            "Gaudi-2",
            "A100",
            "speedup",
            "Gaudi scaling eff",
        ],
    );
    let g1 = cluster_tokens_per_second(&gaudi, &cfg, 1);
    let tput_nodes = [1usize, 2, 4, 16, 64];
    let tput_rows = dcm_bench::sweep(&tput_nodes, |&nodes| {
        (
            cluster_tokens_per_second(&gaudi, &cfg, nodes),
            cluster_tokens_per_second(&a100, &cfg, nodes),
        )
    });
    for (&nodes, &(g, a)) in tput_nodes.iter().zip(&tput_rows) {
        t.push(&[
            nodes.to_string(),
            (nodes * 8).to_string(),
            format!("{g:.0}"),
            format!("{a:.0}"),
            format!("{:.2}x", g / a),
            format!("{:.0}%", 100.0 * g / (g1 * nodes as f64)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nGaudi-2's per-device scale-out bandwidth (37.5 GB/s) exceeds the\n\
         DGX A100's HDR rail (25 GB/s), so — in this projection — the training\n\
         edge survives scale-out, supporting Intel's §5 claim within the\n\
         limits of a first-order model (no topology contention, no stragglers)."
    );
}
