//! Transport facade: collectives priced by *simulation* instead of
//! formula.
//!
//! [`FlowTransport`] exposes the same `time(coll, bytes, participants)`
//! shape as the closed-form [`CollectiveModel`], but answers by building
//! a dependency DAG of point-to-point flows ([`crate::flow::FlowSim`])
//! on the node's [`Topology`] and running it to completion. The
//! closed-form model survives as the *executable spec*: for the four
//! symmetric collectives (AllReduce, AllGather, ReduceScatter, AllToAll)
//! the schedules below are chosen so the uncongested β term matches the
//! spec *exactly* (agreement within float rounding, ~1e-9 relative); for
//! the rooted collectives (Reduce, Broadcast) the emergent schedule is a
//! real two-phase algorithm whose time stays within a factor of
//! `[0.5, 2.0]` of the spec — the documented tolerance pinned by
//! `tests/tests/prop_fabric_diff.rs`.
//!
//! Schedules, by fabric:
//!
//! * **P2P mesh** (direct algorithms — every pair wired): each phase
//!   sends a `bytes/n` chunk on every ordered participant pair
//!   simultaneously. AllReduce = reduce-scatter phase + all-gather
//!   phase; AllGather/ReduceScatter/AllToAll = one phase; Reduce =
//!   reduce-scatter phase + shard gather to root; Broadcast = shard
//!   scatter from root + all-gather phase.
//! * **Switch** (ring algorithms through the hub): round `r` sends
//!   `bytes/n` from each participant to its ring successor, rounds
//!   separated by barriers. AllReduce = 2(n−1) rounds;
//!   AllGather/ReduceScatter = n−1 rounds; AllToAll = direct (the
//!   crossbar serializes fan-in via max-min sharing on the links);
//!   Reduce = ring reduce-scatter + gather; Broadcast = scatter + ring
//!   all-gather.
//!
//! Each phase (one direct exchange, one ring round, a gather or a
//! scatter) is one [`FlowSim::inject_phase`] call, so its flows wait on
//! one barrier record. The inter-node ring's topology holds only the
//! routes the ring takes, node `i` to node `i + 1 mod n`.
//!
//! The α term (per-step software/NIC latency) is charged analytically
//! from the spec's own step rule (`CollectiveModel::latency_steps`) on
//! top of the simulated transfer time: link latency is a property of the
//! *fabric*, per-step launch cost a property of the *software*, and the
//! flow layer only models the former.

use crate::collective::{Collective, CollectiveModel, FabricTuning};
use crate::flow::{FlowId, FlowSim};
use crate::topology::Topology;
use dcm_core::cast::{u64_to_f64, usize_to_f64};
use dcm_core::specs::{DeviceSpec, ScaleOutSpec};

/// A background point-to-point transfer competing with a collective:
/// `(src_device, dst_device, bytes)`.
pub type BackgroundFlow = (usize, usize, u64);

/// Flow-level collective transport for one node.
#[derive(Debug, Clone)]
pub struct FlowTransport {
    spec_model: CollectiveModel,
    topo: Topology,
    tuning: FabricTuning,
    total_devices: usize,
}

impl FlowTransport {
    /// Build the transport for a device spec. Uses the same
    /// `FabricTuning` constants as the closed-form model so the two
    /// stay calibrated.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        let tuning = FabricTuning::for_fabric(&spec.fabric);
        FlowTransport {
            spec_model: CollectiveModel::new(spec),
            topo: Topology::node_fabric(&spec.fabric, spec.devices_per_node, tuning.efficiency),
            tuning,
            total_devices: spec.devices_per_node,
        }
    }

    /// A fresh simulator over this node's fabric — for callers that
    /// schedule their own traffic (tests, the cluster control plane).
    #[must_use]
    pub fn simulator(&self) -> FlowSim {
        FlowSim::new(self.topo.clone())
    }

    /// Wall time of `coll` over `bytes` per device with `participants`
    /// devices (ids `0..participants`), on an otherwise idle fabric.
    ///
    /// Degenerate inputs (`participants <= 1` or `bytes == 0`) return
    /// `0.0`, inheriting the [`CollectiveModel::time`] contract.
    ///
    /// # Panics
    /// Panics if `participants` exceeds the node size.
    #[must_use]
    pub fn time(&self, coll: Collective, bytes: u64, participants: usize) -> f64 {
        assert!(
            participants <= self.total_devices,
            "participants {participants} exceeds node size {}",
            self.total_devices
        );
        if participants <= 1 || bytes == 0 {
            return 0.0;
        }
        let mut sim = self.simulator();
        self.schedule(&mut sim, coll, bytes, participants, &[]);
        let beta = sim.run_to_completion();
        beta + self.alpha(coll, participants)
    }

    /// Like [`FlowTransport::time`], but with `background` transfers
    /// injected at t=0 competing for the same links. Returns
    /// `(collective_time, background_finish_times)` — the emergent cost
    /// of congestion the closed-form spec assumes away.
    #[must_use]
    pub fn contended_time(
        &self,
        coll: Collective,
        bytes: u64,
        participants: usize,
        background: &[BackgroundFlow],
    ) -> (f64, Vec<f64>) {
        assert!(
            participants <= self.total_devices,
            "participants {participants} exceeds node size {}",
            self.total_devices
        );
        let mut sim = self.simulator();
        let bg: Vec<FlowId> = background
            .iter()
            .map(|&(src, dst, b)| sim.inject(src, dst, b, &[]))
            .collect();
        let coll_flows = if participants <= 1 || bytes == 0 {
            Vec::new()
        } else {
            self.schedule(&mut sim, coll, bytes, participants, &[])
        };
        sim.run_to_completion();
        let coll_t = coll_flows
            .iter()
            .map(|&f| sim.finish_time(f))
            .fold(0.0f64, f64::max);
        let alpha = if coll_flows.is_empty() {
            0.0
        } else {
            self.alpha(coll, participants)
        };
        let bg_t = bg.iter().map(|&f| sim.finish_time(f)).collect();
        (coll_t + alpha, bg_t)
    }

    /// The analytic α term: the spec's step rule times the fabric's
    /// per-step latency.
    #[must_use]
    pub fn alpha(&self, coll: Collective, participants: usize) -> f64 {
        usize_to_f64(self.spec_model.latency_steps(coll, participants)) * self.tuning.alpha_s
    }

    /// Schedule the flow DAG for one collective; returns all flow ids,
    /// gated on `deps`.
    fn schedule(
        &self,
        sim: &mut FlowSim,
        coll: Collective,
        bytes: u64,
        n: usize,
        deps: &[FlowId],
    ) -> Vec<FlowId> {
        let parts: Vec<usize> = (0..n).collect();
        let chunk = u64_to_f64(bytes) / usize_to_f64(n);
        let mesh = matches!(
            self.spec_model.fabric_spec(),
            dcm_core::specs::FabricSpec::P2pMesh { .. }
        );
        match (coll, mesh) {
            (Collective::AllReduce, true) => {
                let rs = phase_direct(sim, &parts, chunk, deps);
                let mut ag = phase_direct(sim, &parts, chunk, &rs);
                ag.extend(rs);
                ag
            }
            (Collective::AllGather | Collective::ReduceScatter | Collective::AllToAll, true)
            | (Collective::AllToAll, false) => phase_direct(sim, &parts, chunk, deps),
            (Collective::Reduce, true) => {
                let rs = phase_direct(sim, &parts, chunk, deps);
                let mut g = phase_gather(sim, &parts, chunk, &rs);
                g.extend(rs);
                g
            }
            (Collective::Broadcast, true) => {
                let sc = phase_scatter(sim, &parts, chunk, deps);
                let mut ag = phase_direct(sim, &parts, chunk, &sc);
                ag.extend(sc);
                ag
            }
            (Collective::AllReduce, false) => phase_ring(sim, &parts, chunk, 2 * (n - 1), deps),
            (Collective::AllGather | Collective::ReduceScatter, false) => {
                phase_ring(sim, &parts, chunk, n - 1, deps)
            }
            (Collective::Reduce, false) => {
                let rs = phase_ring(sim, &parts, chunk, n - 1, deps);
                let mut g = phase_gather(sim, &parts, chunk, &rs);
                g.extend(rs);
                g
            }
            (Collective::Broadcast, false) => {
                let sc = phase_scatter(sim, &parts, chunk, deps);
                let mut ag = phase_ring(sim, &parts, chunk, n - 1, &sc);
                ag.extend(sc);
                ag
            }
        }
    }
}

/// One direct exchange phase: a `chunk` flow on every ordered pair.
fn phase_direct(sim: &mut FlowSim, parts: &[usize], chunk: f64, deps: &[FlowId]) -> Vec<FlowId> {
    let pairs = parts.iter().flat_map(|&src| {
        parts
            .iter()
            .filter(move |&&dst| dst != src)
            .map(move |&dst| (src, dst))
    });
    sim.inject_phase(pairs, chunk, deps)
}

/// Ring rounds with a barrier between rounds: round `r` sends `chunk`
/// from every participant to its ring successor, once round `r - 1` (or,
/// for the first, `deps`) has finished.
fn phase_ring(
    sim: &mut FlowSim,
    parts: &[usize],
    chunk: f64,
    rounds: usize,
    deps: &[FlowId],
) -> Vec<FlowId> {
    let n = parts.len();
    let mut out = Vec::with_capacity(rounds * n);
    for r in 0..rounds {
        let ring = (0..n).map(|i| (parts[i], parts[(i + 1) % n]));
        let prev = if r == 0 { deps } else { &out[out.len() - n..] };
        let round = sim.inject_phase(ring, chunk, prev);
        out.extend(round);
    }
    out
}

/// Every non-root participant sends its `chunk` shard to the root
/// (`parts[0]`).
fn phase_gather(sim: &mut FlowSim, parts: &[usize], chunk: f64, deps: &[FlowId]) -> Vec<FlowId> {
    let root = parts[0];
    sim.inject_phase(parts[1..].iter().map(|&src| (src, root)), chunk, deps)
}

/// The root (`parts[0]`) sends a distinct `chunk` shard to every peer.
fn phase_scatter(sim: &mut FlowSim, parts: &[usize], chunk: f64, deps: &[FlowId]) -> Vec<FlowId> {
    let root = parts[0];
    sim.inject_phase(parts[1..].iter().map(|&dst| (root, dst)), chunk, deps)
}

/// Flow-level counterpart of [`crate::MultiNodeModel`]: hierarchical
/// all-reduce with each phase simulated on its own fabric (intra-node
/// phases on the node fabric, the inter-node phase on one scale-out
/// rail — the `devices_per_node` rails are identical and independent,
/// so one representative ring suffices). Phases are serialized by
/// cluster-wide barriers, exactly like the spec's `rs + inter + ag` sum.
#[derive(Debug, Clone)]
pub struct MultiNodeFlowTransport {
    intra: FlowTransport,
    devices_per_node: usize,
    nodes: usize,
    scale_out: ScaleOutSpec,
}

impl MultiNodeFlowTransport {
    /// Build for `nodes` nodes of `spec` devices. The scale-out rail
    /// comes from [`ScaleOutSpec`] in the device registry, same as the
    /// closed-form [`crate::MultiNodeModel`].
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(spec: &DeviceSpec, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        MultiNodeFlowTransport {
            intra: FlowTransport::new(spec),
            devices_per_node: spec.devices_per_node,
            nodes,
            scale_out: spec.scale_out.clone(),
        }
    }

    /// Emergent wall time of a cluster-wide all-reduce of `bytes` per
    /// device. `bytes == 0` is a no-op returning `0.0`.
    #[must_use]
    pub fn allreduce_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        if self.nodes == 1 {
            return self
                .intra
                .time(Collective::AllReduce, bytes, self.devices_per_node);
        }
        let rs = self
            .intra
            .time(Collective::ReduceScatter, bytes, self.devices_per_node);
        let ag = self
            .intra
            .time(Collective::AllGather, bytes, self.devices_per_node);
        // Inter-node ring all-reduce of each device's shard over its
        // rail, simulated: one endpoint per node through an ideal core.
        // Integer shard matches the spec's arithmetic bit-for-bit.
        let dpn = u64::try_from(self.devices_per_node).unwrap_or(u64::MAX);
        let shard = (bytes / dpn).max(1);
        let cap = self.scale_out.bps_per_device * self.scale_out.efficiency;
        let mut topo = Topology::new(self.nodes + 1);
        let core = self.nodes;
        let mut up = Vec::with_capacity(self.nodes);
        let mut down = Vec::with_capacity(self.nodes);
        for node in 0..self.nodes {
            up.push(topo.add_link(node, core, cap, 0.0));
            down.push(topo.add_link(core, node, cap, 0.0));
        }
        // The ring sends only to each node's successor: those are the
        // only routes it reads.
        for (src, &u) in up.iter().enumerate() {
            let dst = (src + 1) % self.nodes;
            topo.add_route(src, dst, vec![u, down[dst]]);
        }
        let mut sim = FlowSim::new(topo);
        let rails: Vec<usize> = (0..self.nodes).collect();
        let chunk = u64_to_f64(shard) / usize_to_f64(self.nodes);
        phase_ring(&mut sim, &rails, chunk, 2 * (self.nodes - 1), &[]);
        let inter_beta = sim.run_to_completion();
        let inter_alpha = 2.0 * usize_to_f64(self.nodes - 1) * self.scale_out.alpha_s;
        rs + inter_beta + inter_alpha + ag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::DeviceSpec;

    const MB32: u64 = 32 << 20;

    #[test]
    fn symmetric_collectives_match_spec_exactly() {
        // The four symmetric collectives' schedules are constructed so
        // the uncongested β matches the closed-form spec to rounding.
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let t = FlowTransport::new(&spec);
            let m = t.spec_model.clone();
            for coll in [
                Collective::AllReduce,
                Collective::AllGather,
                Collective::ReduceScatter,
                Collective::AllToAll,
            ] {
                for n in [2usize, 4, 8] {
                    let emergent = t.time(coll, MB32, n);
                    let spec_t = m.time(coll, MB32, n);
                    let rel = (emergent - spec_t).abs() / spec_t;
                    assert!(
                        rel < 1e-6,
                        "{}: {coll} n={n}: {emergent} vs {spec_t}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn rooted_collectives_within_documented_band() {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let t = FlowTransport::new(&spec);
            let m = t.spec_model.clone();
            for coll in [Collective::Reduce, Collective::Broadcast] {
                for n in [2usize, 4, 8] {
                    let ratio = t.time(coll, MB32, n) / m.time(coll, MB32, n);
                    assert!(
                        (0.5..=2.0).contains(&ratio),
                        "{}: {coll} n={n}: ratio {ratio}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs_are_noops() {
        let t = FlowTransport::new(&DeviceSpec::gaudi2());
        for coll in Collective::ALL {
            assert_eq!(t.time(coll, 0, 8).to_bits(), 0.0f64.to_bits());
            assert_eq!(t.time(coll, MB32, 1).to_bits(), 0.0f64.to_bits());
            assert_eq!(t.time(coll, MB32, 0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn congestion_strictly_slows_the_collective() {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let t = FlowTransport::new(&spec);
            let clean = t.time(Collective::AllReduce, MB32, 8);
            // A fat background transfer on a link the collective uses.
            let (congested, bg) =
                t.contended_time(Collective::AllReduce, MB32, 8, &[(0, 1, MB32 * 8)]);
            assert!(congested > clean, "{}: {congested} !> {clean}", spec.name);
            assert!(bg[0] > 0.0);
        }
    }

    #[test]
    fn multinode_matches_closed_form_spec() {
        use crate::MultiNodeModel;
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            for nodes in [1usize, 2, 4, 16, 64] {
                let flow = MultiNodeFlowTransport::new(&spec, nodes);
                let closed = MultiNodeModel::new(&spec, nodes);
                let bytes = 1u64 << 30;
                let e = flow.allreduce_time(bytes);
                let s = closed.allreduce_time(bytes);
                let rel = (e - s).abs() / s;
                assert!(rel < 1e-6, "{} nodes={nodes}: {e} vs {s}", spec.name);
            }
        }
    }

    #[test]
    fn gaudi3_gets_a_fabric_for_free() {
        // S2 payoff: the flow transport works for any registry preset.
        let t = FlowTransport::new(&DeviceSpec::gaudi3());
        let time = t.time(Collective::AllReduce, MB32, 8);
        assert!(time.is_finite() && time > 0.0);
        let m = MultiNodeFlowTransport::new(&DeviceSpec::gaudi3(), 4);
        assert!(m.allreduce_time(1 << 30) > 0.0);
    }
}
