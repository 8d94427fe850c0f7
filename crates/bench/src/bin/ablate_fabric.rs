//! Ablation: what if the HLS-Gaudi-2 node had an all-to-all switch?
//!
//! KT#4 blames Gaudi's collective-communication decline at low device
//! counts on the P2P topology, "not … the Gaudi-2 processor architecture
//! itself". This ablation gives Gaudi-2 an NVSwitch-style fabric with the
//! same 300 GB/s injection bandwidth and re-runs Figure 10 and the 70B
//! tensor-parallel serving sweep.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_core::specs::FabricSpec;
use dcm_core::DeviceSpec;
use dcm_net::{Collective, CollectiveModel, FlowTransport};
use dcm_workloads::llama::{LlamaConfig, LlamaServer};

fn switched_gaudi() -> DeviceSpec {
    let mut spec = DeviceSpec::gaudi2();
    spec.name = "Gaudi-2+switch".to_owned();
    spec.fabric = FabricSpec::Switched {
        per_device_bps: 300.0e9,
    };
    spec
}

fn main() {
    banner(
        "Ablation: Gaudi-2 behind an all-to-all switch",
        "KT#4: the decline at few devices is a topology property, not a processor property",
    );
    let stock = CollectiveModel::new(&DeviceSpec::gaudi2());
    let switched = CollectiveModel::new(&switched_gaudi());

    let mut t = Table::new(
        "AllReduce bus-bandwidth utilization at 32 MB",
        &["devices", "Gaudi-2 (P2P)", "Gaudi-2+switch"],
    );
    for n in [2usize, 4, 8] {
        t.push(&[
            n.to_string(),
            format!(
                "{:.3}",
                stock.bus_utilization(Collective::AllReduce, 32 << 20, n)
            ),
            format!(
                "{:.3}",
                switched.bus_utilization(Collective::AllReduce, 32 << 20, n)
            ),
        ]);
    }
    print!("{}", t.render());

    let mut e = Table::new(
        "Llama-3.1-70B serving latency (ms), batch 128, 100 in / 100 out",
        &["devices", "Gaudi-2 (P2P)", "Gaudi-2+switch", "gain"],
    );
    let p2p = Device::gaudi2();
    let sw = Device::gaudi_like(switched_gaudi());
    for tp in [2usize, 4, 8] {
        let server = LlamaServer::new(LlamaConfig::llama31_70b(), tp);
        let t_p2p = server.serve(&p2p, 128, 100, 100).total_time_s();
        let t_sw = server.serve(&sw, 128, 100, 100).total_time_s();
        e.push(&[
            tp.to_string(),
            format!("{:.0}", t_p2p * 1e3),
            format!("{:.0}", t_sw * 1e3),
            format!("{:.1}%", 100.0 * (t_p2p - t_sw) / t_p2p),
        ]);
    }
    print!("{}", e.render());

    // Emergent extension of the ablation: the closed form assumes an
    // idle fabric, so it cannot rank the two topologies under load. The
    // flow-level transport can: pile background elephants onto device
    // 0's links and watch how each fabric degrades. The mesh isolates
    // the damage to the 0<->1 pair links; the switch funnels every flow
    // out of device 0 through one shared uplink.
    let flow_stock = FlowTransport::new(&DeviceSpec::gaudi2());
    let flow_sw = FlowTransport::new(&switched_gaudi());
    let payload: u64 = 32 << 20;
    let mut g = Table::new(
        "emergent AllReduce slowdown at 8 devices under background elephants",
        &["bg flows from dev 0", "Gaudi-2 (P2P)", "Gaudi-2+switch"],
    );
    let bg_all: Vec<(usize, usize, u64)> = (1..=4).map(|d| (0usize, d, 4 * payload)).collect();
    for k in [0usize, 1, 2, 4] {
        let slowdown = |flow: &FlowTransport| {
            let idle = flow.time(Collective::AllReduce, payload, 8);
            let (busy, _) = flow.contended_time(Collective::AllReduce, payload, 8, &bg_all[..k]);
            busy / idle
        };
        g.push(&[
            k.to_string(),
            format!("{:.2}x", slowdown(&flow_stock)),
            format!("{:.2}x", slowdown(&flow_sw)),
        ]);
    }
    print!("{}", g.render());
    println!(
        "\nconclusion: a switch helps most at 2-4 devices, where the P2P mesh\n\
         strands 5/7 of its links — exactly the paper's KT#4 diagnosis. Under\n\
         background load the ranking tightens: the mesh confines interference\n\
         to the contended pair links, while the switch shares device uplinks."
    );
}
