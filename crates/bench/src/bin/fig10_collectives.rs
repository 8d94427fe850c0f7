//! Regenerates Figure 10: bus-bandwidth utilization of the six collective
//! communication operations for 2, 4 and 8 participating devices, payloads
//! 2 KB to 32 MB.

use dcm_bench::{banner, compare};
use dcm_core::metrics::{Heatmap, Table};
use dcm_core::DeviceSpec;
use dcm_net::{Collective, CollectiveModel, FlowTransport};

const SIZES_KB: [u64; 8] = [2, 8, 32, 128, 512, 2048, 8192, 32768];

fn heatmap(model: &CollectiveModel, coll: Collective) -> Heatmap {
    let mut h = Heatmap::new(
        format!("{coll} bus-bandwidth utilization, {}", model.name()),
        "devices",
        "payload KB",
        SIZES_KB.iter().map(|s| s.to_string()).collect(),
    );
    for devices in [2usize, 4, 8] {
        h.push_row(
            devices.to_string(),
            SIZES_KB
                .iter()
                .map(|&kb| model.bus_utilization(coll, kb << 10, devices))
                .collect(),
        );
    }
    h
}

fn main() {
    banner(
        "Figure 10: collective-communication bus bandwidth utilization",
        "Gaudi-2 leads 5 of 6 collectives at 8 devices; near-linear decline with fewer devices (P2P); A100 stable (NVSwitch)",
    );
    let gaudi = CollectiveModel::new(&DeviceSpec::gaudi2());
    let a100 = CollectiveModel::new(&DeviceSpec::a100());
    for coll in Collective::ALL {
        print!("{}", heatmap(&gaudi, coll).render(3));
        print!("{}", heatmap(&a100, coll).render(3));
        println!();
    }

    // Emergent-fabric cross-check: rebuild the 8-device column from the
    // flow-level transport (topology + max-min fair links) instead of the
    // closed form. The symmetric four collectives agree to float
    // rounding; Reduce/Broadcast use a scatter/gather schedule and sit
    // within the documented 2x band (see DESIGN.md §3.9).
    let flow_gaudi = FlowTransport::new(&DeviceSpec::gaudi2());
    let flow_a100 = FlowTransport::new(&DeviceSpec::a100());
    let xkb: u64 = 32768;
    let mut x = Table::new(
        format!("emergent/closed-form time ratio at {xkb} KB, 8 devices"),
        &["collective", "Gaudi-2 (P2P)", "A100 (switch)"],
    );
    for coll in Collective::ALL {
        let ratio = |flow: &FlowTransport, spec: &CollectiveModel| {
            flow.time(coll, xkb << 10, 8) / spec.time(coll, xkb << 10, 8)
        };
        x.push(&[
            coll.to_string(),
            format!("{:.4}", ratio(&flow_gaudi, &gaudi)),
            format!("{:.4}", ratio(&flow_a100, &a100)),
        ]);
    }
    print!("{}", x.render());

    // What only the emergent layer can price: congestion. An elephant
    // flow crossing one of the collective's links stretches AllReduce on
    // the P2P mesh (the 0->1 pair link is halved) and on the switch (the
    // device-0 uplink is shared).
    let mut c = Table::new(
        format!("AllReduce at {xkb} KB, 8 devices: idle vs congested fabric"),
        &["fabric", "idle ms", "congested ms", "slowdown"],
    );
    for (name, flow) in [
        ("Gaudi-2 (P2P)", &flow_gaudi),
        ("A100 (switch)", &flow_a100),
    ] {
        let idle = flow.time(Collective::AllReduce, xkb << 10, 8);
        let (busy, _) = flow.contended_time(
            Collective::AllReduce,
            xkb << 10,
            8,
            &[(0, 1, 4 * (xkb << 10))],
        );
        c.push(&[
            name.to_owned(),
            format!("{:.3}", idle * 1e3),
            format!("{:.3}", busy * 1e3),
            format!("{:.2}x", busy / idle),
        ]);
    }
    print!("{}", c.render());
    println!();

    let at_32mb = |m: &CollectiveModel, c: Collective, n: usize| m.bus_utilization(c, 32 << 20, n);
    let gaudi_wins = Collective::ALL
        .iter()
        .filter(|&&c| at_32mb(&gaudi, c, 8) > at_32mb(&a100, c, 8))
        .count();
    compare(
        "collectives where Gaudi-2 leads at 8 devices",
        5.0,
        gaudi_wins as f64,
    );
    compare(
        "Gaudi-2 AllReduce util ratio 2-dev/8-dev (P2P ~ 1/7)",
        1.0 / 7.0,
        at_32mb(&gaudi, Collective::AllReduce, 2) / at_32mb(&gaudi, Collective::AllReduce, 8),
    );
    compare(
        "A100 AllReduce util ratio 2-dev/8-dev (switch ~ 1.0)",
        1.0,
        at_32mb(&a100, Collective::AllReduce, 2) / at_32mb(&a100, Collective::AllReduce, 8),
    );
}
