//! Differential properties of the flow-level transport against the
//! closed-form collective models — the layering contract of DESIGN.md
//! §3.9. The closed-form [`CollectiveModel`]/[`MultiNodeModel`] are the
//! executable spec; the emergent [`FlowTransport`] must agree with them
//! on an idle fabric (exactly for the four symmetric collectives, within
//! the documented [0.5, 2.0] band for the rooted ones), must only ever
//! get *slower* under congestion, must conserve bytes on every link,
//! and must be bit-identical regardless of the ambient `DCM_THREADS`.
//! Freeing finished flows, and reusing their slots, must move no bit
//! either. And `FlowSim`, whose phases wait on barrier records and whose
//! departures skip the rate solve when no other flow can feel them, must
//! run any schedule bit for bit as the child-list simulator
//! [`ChildListSim`] does, which solves after every completion.

use dcm_core::cast::u64_to_f64;
use dcm_core::par::par_map;
use dcm_core::DeviceSpec;
use dcm_net::{Collective, CollectiveModel, FlowId, FlowSim, FlowTransport};
use dcm_net::{LinkId, MultiNodeFlowTransport, MultiNodeModel, NodeId, Topology};
use dcm_tests::flow_oracle::ChildListSim;
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

/// Endpoints of [`hub_fabric`], besides its hub.
const ENDPOINTS: usize = 4;

/// The route table of a topology: `((src, dst), links)` per route.
type Routes = Vec<((NodeId, NodeId), Vec<LinkId>)>;

/// A hub fabric over [`ENDPOINTS`] endpoints: endpoint `i` has an uplink
/// into the hub (link `2i`, latency `i` × 0.25 ms) and a downlink from it
/// (link `2i + 1`). An ordered pair whose bit is set in `direct` gets a
/// link of its own after those; every other pair routes through the
/// hub. Link capacities come from `classes`, one class per link in id
/// order. Class 0 is 1 MB/s, so all-zero classes and no direct links
/// give an equal-capacity hub, where bottleneck ties fall to the lowest
/// link id. The other classes are not whole numbers, so a rate's last
/// bits show the increments progressive filling added it up from.
/// Returns the topology and, for [`ChildListSim`], its routes.
fn hub_fabric(classes: &[usize], direct: u16) -> (Topology, Routes) {
    let cap =
        |l: usize| [1.0e6, 1.0e6 / 3.0, 0.1e6 / 0.7, 2.2e6 / 0.9][classes[l % classes.len()] % 4];
    let mut topo = Topology::new(ENDPOINTS + 1);
    for i in 0..ENDPOINTS {
        let latency = f64::from(u8::try_from(i).expect("small")) * 2.5e-4;
        topo.add_link(i, ENDPOINTS, cap(2 * i), latency);
        topo.add_link(ENDPOINTS, i, cap(2 * i + 1), 0.0);
    }
    let mut routes = Routes::new();
    let pairs =
        (0..ENDPOINTS).flat_map(|s| (0..ENDPOINTS).filter(move |&d| d != s).map(move |d| (s, d)));
    for (bit, (src, dst)) in pairs.enumerate() {
        let path = if direct >> bit & 1 == 1 {
            vec![topo.add_link(src, dst, cap(topo.links().len()), 0.0)]
        } else {
            vec![2 * src, 2 * dst + 1]
        };
        topo.add_route(src, dst, path.clone());
        routes.push(((src, dst), path));
    }
    (topo, routes)
}

/// What the differential schedules need of a flow simulator: the
/// `FlowSim` API, which [`ChildListSim`] mirrors.
trait Flows {
    fn inject(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[FlowId]) -> FlowId;
    fn inject_phase(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        bytes: f64,
        deps: &[FlowId],
    ) -> Vec<FlowId>;
    fn next_time(&mut self) -> Option<f64>;
    fn advance_to(&mut self, t: f64);
    fn run_to_completion(&mut self) -> f64;
    fn take_finished(&mut self, id: FlowId) -> Option<f64>;
    fn finish_time(&self, id: FlowId) -> f64;
}

macro_rules! flows_impl {
    ($sim:ty) => {
        impl Flows for $sim {
            fn inject(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[FlowId]) -> FlowId {
                <$sim>::inject(self, src, dst, bytes, deps)
            }
            fn inject_phase(
                &mut self,
                pairs: &[(NodeId, NodeId)],
                bytes: f64,
                deps: &[FlowId],
            ) -> Vec<FlowId> {
                <$sim>::inject_phase(self, pairs.iter().copied(), bytes, deps)
            }
            fn next_time(&mut self) -> Option<f64> {
                <$sim>::next_time(self)
            }
            fn advance_to(&mut self, t: f64) {
                <$sim>::advance_to(self, t)
            }
            fn run_to_completion(&mut self) -> f64 {
                <$sim>::run_to_completion(self)
            }
            fn take_finished(&mut self, id: FlowId) -> Option<f64> {
                <$sim>::take_finished(self, id)
            }
            fn finish_time(&self, id: FlowId) -> f64 {
                <$sim>::finish_time(self, id)
            }
        }
    };
}

flows_impl!(FlowSim);
flows_impl!(ChildListSim);

/// One step of a differential schedule: `(shape, kb, gap_ms, pick)`.
/// See [`drive`].
type Step = (usize, u64, usize, usize);

/// Run `steps` on `sim` and return everything it reported, as bits: each
/// `next_time()` before a step and while draining, each injection's
/// ids, each finish and delivery time, and the makespan.
///
/// A step advances the clock by `gap_ms`, then injects `kb` KiB (zero
/// bytes below 4) in the way `shape` picks. With kind `shape % 4` and
/// `at = shape / 4`: kind 0 one flow from endpoint `at % 4` to `at / 4 %
/// 4` (a self flow when they are equal); kind 1 a ring phase, each
/// endpoint to its successor; kind 2 a direct exchange phase on every
/// ordered pair; kind 3 a gather phase into endpoint `at % 4`, whose own
/// flow is a self flow. A phase's flows carry a third of `kb` each. The
/// injection waits on up to three flows not yet taken, which `pick`
/// chooses and may repeat, and which may have finished already. With
/// `take` set, every flow is taken as soon as an advance finds it
/// finished, so later flows reuse its slot.
fn drive(sim: &mut impl Flows, steps: &[Step], take: bool) -> Vec<u64> {
    let mut seen = Vec::new();
    // Every flow injected, in order, and whether it was taken.
    let mut flows: Vec<(FlowId, bool)> = Vec::new();
    let sweep = |sim: &mut dyn Flows, flows: &mut [(FlowId, bool)], seen: &mut Vec<u64>| {
        for (i, (id, taken)) in flows.iter_mut().enumerate() {
            let finish = sim.finish_time(*id);
            if !*taken {
                if let Some(delivery) = sim.take_finished(*id) {
                    *taken = true;
                    seen.extend([i as u64, finish.to_bits(), delivery.to_bits()]);
                }
            }
        }
    };
    let mut t = 0.0;
    for &(shape, kb, gap, pick) in steps {
        let (kind, at) = (shape % 4, shape / 4);
        seen.push(sim.next_time().map_or(u64::MAX, f64::to_bits));
        t += f64::from(u8::try_from(gap).expect("small")) * 1.0e-3;
        sim.advance_to(t);
        if take {
            sweep(sim, &mut flows, &mut seen);
        }
        let live: Vec<FlowId> = flows.iter().filter(|f| !f.1).map(|f| f.0).collect();
        let deps: Vec<FlowId> = if live.is_empty() {
            Vec::new()
        } else {
            (0..pick % 4)
                .map(|j| live[(pick * 7 + j * 5) % live.len()])
                .collect()
        };
        let bytes = if kb < 4 { 0 } else { kb << 10 };
        let chunk = u64_to_f64(bytes) / 3.0;
        let pairs: Vec<(NodeId, NodeId)> = match kind {
            1 => (0..ENDPOINTS).map(|i| (i, (i + 1) % ENDPOINTS)).collect(),
            2 => (0..ENDPOINTS)
                .flat_map(|s| (0..ENDPOINTS).filter(move |&d| d != s).map(move |d| (s, d)))
                .collect(),
            _ => (0..ENDPOINTS).map(|s| (s, at % ENDPOINTS)).collect(),
        };
        let ids = if kind == 0 {
            vec![sim.inject(at % ENDPOINTS, at / ENDPOINTS % ENDPOINTS, bytes, &deps)]
        } else {
            sim.inject_phase(&pairs, chunk, &deps)
        };
        seen.extend(ids.iter().map(|&id| id as u64));
        flows.extend(ids.into_iter().map(|id| (id, false)));
    }
    while let Some(next) = sim.next_time() {
        seen.push(next.to_bits());
        sim.advance_to(next);
        if take {
            sweep(sim, &mut flows, &mut seen);
        }
    }
    seen.push(sim.run_to_completion().to_bits());
    sweep(sim, &mut flows, &mut seen);
    seen
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Barrier records and skipped solves move no bit: on an
    /// equal-capacity hub and on a hub with unequal capacities and some
    /// direct links, with flows kept or taken as they finish, `FlowSim`
    /// reports what the child-list simulator that solves after every
    /// completion reports, bit for bit.
    #[test]
    fn flow_sim_matches_the_child_list_oracle(
        steps in proptest::collection::vec((0usize..64, 0u64..48, 0usize..4, 0usize..16), 1..25),
        classes in proptest::collection::vec(0usize..4, 20..21),
        direct in 0u16..4096,
    ) {
        for (classes, direct) in [(&[0][..], 0), (&classes[..], direct)] {
            let (topo, routes) = hub_fabric(classes, direct);
            for take in [false, true] {
                let got = drive(&mut FlowSim::new(topo.clone()), &steps, take);
                let want = drive(&mut ChildListSim::new(topo.links(), &routes), &steps, take);
                prop_assert_eq!(&got, &want, "direct={:#x} take={}", direct, take);
            }
        }
    }
}

/// A flow alone on its links that bottlenecked the last solve changes
/// no survivor's rate by departing, except in the last bits: the
/// survivors' rates were added up from its increment and the one after.
/// Link 0 (1 MB/s ÷ 7) bottlenecks A; B and C share link 1 (2.2 MB/s ÷
/// 0.9) and get 1/7 MB/s and then half of the rest, one bit above half
/// of link 1. A departs first; a solve then gives B and C exactly half,
/// and `FlowSim` must solve as the child-list simulator does.
#[test]
fn a_lone_departure_that_bottlenecked_the_solve_is_solved() {
    let mut topo = Topology::new(4);
    let a = topo.add_link(0, 1, 0.1e6 / 0.7, 0.0);
    let bc = topo.add_link(2, 3, 2.2e6 / 0.9, 0.0);
    topo.add_route(0, 1, vec![a]);
    topo.add_route(2, 3, vec![bc]);
    let routes = [((0, 1), vec![a]), ((2, 3), vec![bc])];
    let run = |sim: &mut dyn Flows| {
        let ids = [
            sim.inject(0, 1, 1 << 10, &[]),
            sim.inject(2, 3, 1 << 20, &[]),
            sim.inject(2, 3, 1 << 21, &[]),
        ];
        let end = sim.run_to_completion();
        ids.map(|id| sim.finish_time(id).to_bits())
            .to_vec()
            .into_iter()
            .chain([end.to_bits()])
            .collect::<Vec<u64>>()
    };
    let got = run(&mut FlowSim::new(topo.clone()));
    let want = run(&mut ChildListSim::new(topo.links(), &routes));
    assert_eq!(got, want);
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
        for nodes in [1usize, 2, 4, 8, 32, 64] {
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
