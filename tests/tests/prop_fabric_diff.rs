//! Differential properties of the flow-level transport against the
//! closed-form collective models — the layering contract of DESIGN.md
//! §3.9. The closed-form [`CollectiveModel`]/[`MultiNodeModel`] are the
//! executable spec; the emergent [`FlowTransport`] must agree with them
//! on an idle fabric (exactly for the four symmetric collectives, within
//! the documented [0.5, 2.0] band for the rooted ones), must only ever
//! get *slower* under congestion, must conserve bytes on every link,
//! and must be bit-identical regardless of the ambient `DCM_THREADS`.
//! Freeing finished flows, and reusing their slots, must move no bit
//! either.

use dcm_core::par::par_map;
use dcm_core::DeviceSpec;
use dcm_net::{Collective, CollectiveModel, FlowId, FlowSim, FlowTransport};
use dcm_net::{MultiNodeFlowTransport, MultiNodeModel, Topology};
use proptest::prelude::*;

/// The four collectives whose emergent schedule matches the spec's β
/// term exactly.
const SYMMETRIC: [Collective; 4] = [
    Collective::AllReduce,
    Collective::AllGather,
    Collective::ReduceScatter,
    Collective::AllToAll,
];

/// The rooted collectives, pinned to the documented tolerance band.
const ROOTED: [Collective; 2] = [Collective::Reduce, Collective::Broadcast];

fn spec_for(mesh: bool) -> DeviceSpec {
    if mesh {
        DeviceSpec::gaudi2()
    } else {
        DeviceSpec::a100()
    }
}

/// 4-endpoint mesh, 1 MB/s per directed pair.
fn mesh4() -> Topology {
    let mut topo = Topology::new(4);
    for s in 0..4usize {
        for d in 0..4usize {
            if s != d {
                let l = topo.add_link(s, d, 1.0e6, 0.0);
                topo.add_route(s, d, vec![l]);
            }
        }
    }
    topo
}

/// The cluster's control-fabric star: router 0 → egress (which carries
/// the latency) → hub 1 → one link per replica `2..6`.
fn control_star() -> Topology {
    let mut topo = Topology::new(2 + 4);
    let egress = topo.add_link(0, 1, 1.0e6, 5.0e-4);
    for i in 0..4 {
        let l = topo.add_link(1, 2 + i, 1.0e6, 0.0);
        topo.add_route(0, 2 + i, vec![egress, l]);
    }
    topo
}

/// One scheduled flow: `(endpoints, kb, gap_ms, dep)`. See
/// [`run_schedule`].
type Op = (usize, u64, usize, usize);

/// Run `ops` on a fresh simulator over `topo`. Op `(endpoints, kb, gap,
/// dep)` first advances the clock by `gap` ms, then injects a flow of
/// `kb` KiB (zero bytes below 4) between the endpoints that
/// `endpoints` picks (a self flow among them) and, for `dep > 0`, gated
/// on one of the flows still in flight. With `take` set, every flow is
/// taken as soon as an advance finds it finished, so later flows reuse
/// its slot; without, none is taken until the end. Every instant
/// `next_time()` returns must finish at least one flow. Returns each
/// flow's finish and delivery bits, in injection order, and the
/// makespan's.
fn run_schedule(topo: &Topology, star: bool, ops: &[Op], take: bool) -> (Vec<(u64, u64)>, u64) {
    let mut sim = FlowSim::new(topo.clone());
    let mut ids: Vec<FlowId> = Vec::new();
    let mut times: Vec<Option<(u64, u64)>> = Vec::new();
    let sweep = |sim: &mut FlowSim, ids: &[FlowId], times: &mut [Option<(u64, u64)>]| {
        for (&id, slot) in ids.iter().zip(times.iter_mut()) {
            if slot.is_none() {
                let finish = sim.finish_time(id);
                if let Some(delivery) = sim.take_finished(id) {
                    *slot = Some((finish.to_bits(), delivery.to_bits()));
                }
            }
        }
    };
    let mut t = 0.0;
    for &(endpoints, kb, gap, dep) in ops {
        t += f64::from(u8::try_from(gap).expect("small")) * 1.0e-3;
        sim.advance_to(t);
        if take {
            sweep(&mut sim, &ids, &mut times);
        }
        let (src, dst) = if star {
            (
                0,
                if endpoints % 5 == 0 {
                    0
                } else {
                    2 + endpoints % 4
                },
            )
        } else {
            (endpoints / 4, endpoints % 4)
        };
        let bytes = if kb < 4 { 0 } else { kb << 10 };
        let in_flight: Vec<FlowId> = ids
            .iter()
            .zip(&times)
            .filter(|&(&id, taken)| taken.is_none() && sim.finish_time(id).is_nan())
            .map(|(&id, _)| id)
            .collect();
        let deps: Vec<FlowId> = if dep == 0 || in_flight.is_empty() {
            Vec::new()
        } else {
            vec![in_flight[(dep - 1) % in_flight.len()]]
        };
        ids.push(sim.inject(src, dst, bytes, &deps));
        times.push(None);
    }
    let finished = |sim: &FlowSim, ids: &[FlowId], times: &[Option<(u64, u64)>]| {
        ids.iter()
            .zip(times)
            .filter(|&(&id, taken)| taken.is_some() || !sim.finish_time(id).is_nan())
            .count()
    };
    while let Some(next) = sim.next_time() {
        let before = finished(&sim, &ids, &times);
        sim.advance_to(next);
        assert!(
            finished(&sim, &ids, &times) > before,
            "next_time() returned {next}, at which no flow finished"
        );
        if take {
            sweep(&mut sim, &ids, &mut times);
        }
    }
    let makespan = sim.run_to_completion().to_bits();
    sweep(&mut sim, &ids, &mut times);
    let times = times
        .into_iter()
        .map(|t| t.expect("every flow finished"))
        .collect();
    (times, makespan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Uncongested single collectives: the emergent transport agrees
    /// with the closed-form spec — to float rounding for the symmetric
    /// four, within a factor of [0.5, 2.0] for Reduce/Broadcast.
    #[test]
    fn uncongested_flow_level_matches_closed_form(
        mesh in 0usize..2,
        kb in 1u64..65536,
        participants in 2usize..=8,
    ) {
        let spec = spec_for(mesh == 1);
        let transport = FlowTransport::new(&spec);
        let model = CollectiveModel::new(&spec);
        let bytes = kb << 10;
        for coll in SYMMETRIC {
            let emergent = transport.time(coll, bytes, participants);
            let closed = model.time(coll, bytes, participants);
            let rel = (emergent - closed).abs() / closed;
            prop_assert!(
                rel < 1e-6,
                "{coll} n={participants} {bytes}B: emergent {emergent} vs spec {closed}"
            );
        }
        for coll in ROOTED {
            let ratio = transport.time(coll, bytes, participants)
                / model.time(coll, bytes, participants);
            prop_assert!(
                (0.5..=2.0).contains(&ratio),
                "{coll} n={participants} {bytes}B: ratio {ratio}"
            );
        }
    }

    /// Degenerate inputs are no-ops on both layers: exactly 0.0, never
    /// NaN or infinity.
    #[test]
    fn degenerate_inputs_agree(
        mesh in 0usize..2,
        bytes_idx in 0usize..3,
        participants in 0usize..=1,
    ) {
        let bytes = [0u64, 1024, 1 << 20][bytes_idx];
        let spec = spec_for(mesh == 1);
        let transport = FlowTransport::new(&spec);
        let model = CollectiveModel::new(&spec);
        for coll in Collective::ALL {
            for (b, n) in [(bytes, participants), (0, 8)] {
                prop_assert_eq!(transport.time(coll, b, n).to_bits(), 0.0f64.to_bits());
                prop_assert_eq!(model.time(coll, b, n).to_bits(), 0.0f64.to_bits());
            }
        }
    }

    /// Congestion monotonicity at the transport level: background
    /// traffic on the fabric never makes a collective faster, and more
    /// background traffic never makes it faster than less.
    #[test]
    fn background_traffic_never_speeds_up_a_collective(
        mesh in 0usize..2,
        kb in 16u64..4096,
        participants in 2usize..=8,
        bg_kb in 16u64..4096,
        coll_idx in 0usize..6,
    ) {
        let spec = spec_for(mesh == 1);
        let transport = FlowTransport::new(&spec);
        let coll = Collective::ALL[coll_idx];
        let bytes = kb << 10;
        let clean = transport.time(coll, bytes, participants);
        // Background flows cross links the collective uses (0<->1).
        let one = [(0usize, 1usize, bg_kb << 10)];
        let two = [(0usize, 1usize, bg_kb << 10), (1usize, 0usize, bg_kb << 10)];
        let (t1, _) = transport.contended_time(coll, bytes, participants, &one);
        let (t2, _) = transport.contended_time(coll, bytes, participants, &two);
        prop_assert!(t1 >= clean * (1.0 - 1e-9), "1 bg flow sped it up: {t1} < {clean}");
        prop_assert!(t2 >= t1 * (1.0 - 1e-9), "2nd bg flow sped it up: {t2} < {t1}");
    }

    /// Congestion monotonicity at the flow level: adding one more flow
    /// to an arbitrary mix weakly delays every existing flow.
    #[test]
    fn adding_a_flow_never_speeds_anyone_up(
        flows in proptest::collection::vec((0usize..4, 0usize..4, 1u64..4096), 1..12),
        extra in (0usize..4, 0usize..4, 1u64..4096),
    ) {
        let topo = mesh4();
        let run = |extra_flow: Option<(usize, usize, u64)>| -> Vec<f64> {
            let mut sim = FlowSim::new(topo.clone());
            let ids: Vec<_> = flows
                .iter()
                .map(|&(s, d, kb)| sim.inject(s, d, kb << 10, &[]))
                .collect();
            if let Some((s, d, kb)) = extra_flow {
                sim.inject(s, d, kb << 10, &[]);
            }
            sim.run_to_completion();
            ids.iter().map(|&f| sim.finish_time(f)).collect()
        };
        let before = run(None);
        let after = run(Some(extra));
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                *a >= b * (1.0 - 1e-9),
                "flow {i} sped up: {a} < {b}"
            );
        }
    }

    /// Conservation of bytes: no link ever carries more than
    /// capacity × makespan, and a fully shared link is work-conserving
    /// (the makespan is exactly the total demand over capacity).
    #[test]
    fn links_conserve_bytes(
        sizes in proptest::collection::vec(1u64..65536, 1..10),
        staggered in 0usize..2,
    ) {
        let staggered = staggered == 1;
        let mut topo = Topology::new(2);
        let cap = 1.0e6;
        let l = topo.add_link(0, 1, cap, 0.0);
        topo.add_route(0, 1, vec![l]);
        let mut sim = FlowSim::new(topo);
        let mut ids = Vec::new();
        for (i, &kb) in sizes.iter().enumerate() {
            if staggered {
                // Stagger arrivals; the link still never idles while
                // work remains because earlier flows outlast the stagger.
                #[allow(clippy::cast_precision_loss)]
                sim.advance_to(i as f64 * 1.0e-3);
            }
            ids.push(sim.inject(0, 1, kb << 10, &[]));
        }
        let makespan = sim.run_to_completion();
        let total: u64 = sizes.iter().map(|&kb| kb << 10).sum();
        let lower = dcm_core::cast::u64_to_f64(total) / cap;
        // Feasibility: the link cannot move bytes faster than capacity.
        prop_assert!(makespan >= lower * (1.0 - 1e-9), "{makespan} < {lower}");
        if !staggered {
            // Work conservation: one always-busy link finishes exactly
            // at total/capacity.
            prop_assert!(
                (makespan - lower).abs() <= lower * 1e-9,
                "shared link not work-conserving: {makespan} vs {lower}"
            );
        }
        // Every flow got everything through.
        for &f in &ids {
            prop_assert!(sim.remaining_bytes(f) == 0.0);
            prop_assert!(sim.finish_time(f).is_finite());
        }
    }
}

proptest! {
    // Few schedules reuse a slot while other flows change rate: run
    // many cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Taking each flow as soon as it finishes, so that later flows
    /// reuse its slot, moves no finish or delivery time, on the mesh and
    /// on the control-fabric star alike.
    #[test]
    fn freeing_finished_flows_moves_no_bit(
        ops in proptest::collection::vec((0usize..16, 0u64..48, 0usize..4, 0usize..6), 1..41),
    ) {
        for (topo, star) in [(mesh4(), false), (control_star(), true)] {
            let kept = run_schedule(&topo, star, &ops, false);
            let freed = run_schedule(&topo, star, &ops, true);
            prop_assert_eq!(&freed, &kept, "star={}", star);
        }
    }
}

/// The transport is a pure function of its inputs: sweeping it through
/// `par_map` at different thread counts yields bit-identical results,
/// so `DCM_THREADS` cannot move a report.
#[test]
fn transport_is_bit_identical_across_thread_counts() {
    let cases: Vec<(bool, u64, usize, usize)> = (0..24)
        .map(|i| (i % 2 == 0, 1u64 << (10 + i % 12), 2 + i % 7, i % 6))
        .collect();
    let eval = |&(mesh, bytes, participants, coll_idx): &(bool, u64, usize, usize)| -> u64 {
        let transport = FlowTransport::new(&spec_for(mesh));
        let coll = Collective::ALL[coll_idx];
        transport.time(coll, bytes, participants).to_bits()
    };
    let serial = par_map(&cases, 1, eval);
    let par2 = par_map(&cases, 2, eval);
    let par8 = par_map(&cases, 8, eval);
    assert_eq!(serial, par2);
    assert_eq!(serial, par8);
}

/// Multi-node: the emergent hierarchical all-reduce agrees with the
/// closed-form spec (the β terms are constructed to match exactly), and
/// is bit-identical across thread counts.
#[test]
fn multinode_flow_level_matches_closed_form() {
    for spec in [
        DeviceSpec::gaudi2(),
        DeviceSpec::gaudi3(),
        DeviceSpec::a100(),
    ] {
        for nodes in [1usize, 2, 4, 8, 32] {
            let flow = MultiNodeFlowTransport::new(&spec, nodes);
            let closed = MultiNodeModel::new(&spec, nodes);
            for bytes in [1u64 << 20, 1 << 30, 16 << 30] {
                let e = flow.allreduce_time(bytes);
                let s = closed.allreduce_time(bytes);
                let rel = (e - s).abs() / s;
                assert!(
                    rel < 1e-6,
                    "{} nodes={nodes} {bytes}B: emergent {e} vs spec {s}",
                    spec.name
                );
            }
        }
    }
    let nodes: Vec<usize> = vec![1, 2, 4, 8, 16];
    let eval = |&n: &usize| -> u64 {
        MultiNodeFlowTransport::new(&DeviceSpec::gaudi2(), n)
            .allreduce_time(1 << 30)
            .to_bits()
    };
    assert_eq!(par_map(&nodes, 1, eval), par_map(&nodes, 4, eval));
}
