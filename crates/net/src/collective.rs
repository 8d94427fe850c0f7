//! α–β timing model for the six collectives of Figure 10, with NCCL-tests
//! bus-bandwidth accounting \[62\].

use dcm_core::cast::{f64_to_u64, u64_to_f64, usize_to_f64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::{DeviceSpec, FabricSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The six collective operations of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Collective {
    /// Every device ends with the element-wise sum of all inputs.
    AllReduce,
    /// Every device ends with the concatenation of all inputs.
    AllGather,
    /// Every device ends with one reduced shard.
    ReduceScatter,
    /// Personalized exchange: device i sends chunk j to device j.
    AllToAll,
    /// One root ends with the element-wise sum.
    Reduce,
    /// One root's buffer is copied to every device.
    Broadcast,
}

impl Collective {
    /// All six collectives, in the order of Figure 10's panels.
    pub const ALL: [Collective; 6] = [
        Collective::AllReduce,
        Collective::AllGather,
        Collective::ReduceScatter,
        Collective::AllToAll,
        Collective::Reduce,
        Collective::Broadcast,
    ];

    /// The NCCL-tests bus-bandwidth factor: `busbw = algbw * factor(n)`.
    /// Chosen so that busbw reflects per-link traffic independent of `n`.
    #[must_use]
    pub fn bus_factor(&self, n: usize) -> f64 {
        let nf = usize_to_f64(n);
        match self {
            Collective::AllReduce => 2.0 * (nf - 1.0) / nf,
            Collective::AllGather | Collective::ReduceScatter | Collective::AllToAll => {
                (nf - 1.0) / nf
            }
            Collective::Reduce | Collective::Broadcast => 1.0,
        }
    }

    /// Bytes each device must move (send side) per payload byte in a ring
    /// schedule — the β coefficient of the timing model.
    #[must_use]
    pub fn traffic_factor(&self, n: usize) -> f64 {
        let nf = usize_to_f64(n);
        match self {
            Collective::AllReduce => 2.0 * (nf - 1.0) / nf,
            Collective::AllGather | Collective::ReduceScatter | Collective::AllToAll => {
                (nf - 1.0) / nf
            }
            Collective::Reduce | Collective::Broadcast => 1.0,
        }
    }

    /// Latency steps on a switched fabric: NCCL switches to tree/CollNet
    /// algorithms when latency matters, giving log-depth critical paths
    /// (the bandwidth term still reflects ring-equivalent traffic).
    #[must_use]
    pub fn steps(&self, n: usize) -> usize {
        // dcm-lint: allow(C1) ceil(log2 n) is a small integer; n = 0 gives -inf, saturating to 0
        let depth = usize_to_f64(n).log2().ceil() as usize;
        match self {
            Collective::AllReduce => 2 * depth,
            _ => depth,
        }
    }

    /// Phases on a fully connected mesh, where every pair of devices has a
    /// direct link: reduce-scatter and all-gather each complete in one
    /// exchange phase (every device talks to every peer simultaneously),
    /// so all-reduce needs two and everything else one.
    #[must_use]
    pub fn direct_phases(&self) -> usize {
        match self {
            Collective::AllReduce => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Collective::AllReduce => "AllReduce",
            Collective::AllGather => "AllGather",
            Collective::ReduceScatter => "ReduceScatter",
            Collective::AllToAll => "AlltoAll",
            Collective::Reduce => "Reduce",
            Collective::Broadcast => "Broadcast",
        };
        f.write_str(s)
    }
}

/// Per-step software/NIC latency (the α term) and sustained link
/// efficiency, by fabric type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct FabricTuning {
    pub(crate) alpha_s: f64,
    pub(crate) efficiency: f64,
    /// Extra penalty for Broadcast on fabrics without hardware multicast
    /// (a P2P mesh root must feed each peer separately).
    pub(crate) broadcast_efficiency: f64,
}

impl FabricTuning {
    /// Tuning constants for one fabric type. Shared between the
    /// closed-form [`CollectiveModel`] and the flow-level transport so
    /// the two stay calibrated against the same α/efficiency numbers.
    pub(crate) fn for_fabric(fabric: &FabricSpec) -> Self {
        match fabric {
            // RoCE: higher per-message latency, but direct links sustain a
            // slightly higher fraction of line rate at large messages —
            // Figure 10 shows Gaudi-2 leading in 5 of 6 collectives when
            // all 8 devices participate.
            FabricSpec::P2pMesh { .. } => FabricTuning {
                alpha_s: 4.0e-6,
                efficiency: 0.93,
                broadcast_efficiency: 0.60,
            },
            // NVSwitch: low latency, but the crossbar serializes at high
            // fan-in, costing some sustained efficiency.
            FabricSpec::Switched { .. } => FabricTuning {
                alpha_s: 2.5e-6,
                efficiency: 0.80,
                broadcast_efficiency: 1.0,
            },
        }
    }
}

/// Collective-communication timing model for one node (HCCL on the mesh,
/// NCCL on the switch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveModel {
    name: String,
    fabric: FabricSpec,
    total_devices: usize,
    tuning: FabricTuning,
}

impl CollectiveModel {
    /// Build the model from a device spec.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        CollectiveModel {
            name: format!("{} node", spec.name),
            fabric: spec.fabric.clone(),
            total_devices: spec.devices_per_node,
            tuning: FabricTuning::for_fabric(&spec.fabric),
        }
    }

    /// The fabric this model was built for.
    pub(crate) fn fabric_spec(&self) -> &FabricSpec {
        &self.fabric
    }

    /// Latency steps the α term charges for `coll` with `participants`
    /// devices: exchange phases on the direct mesh, tree depth on the
    /// switch.
    pub(crate) fn latency_steps(&self, coll: Collective, participants: usize) -> usize {
        match self.fabric {
            FabricSpec::P2pMesh { .. } => coll.direct_phases(),
            FabricSpec::Switched { .. } => coll.steps(participants),
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Usable unidirectional per-device bandwidth with `participants`
    /// devices active, after protocol efficiency.
    ///
    /// A collective needs at least two participants to move bytes between
    /// devices, so `participants <= 1` returns `0.0` (no peer links are
    /// active) — never NaN or infinity.
    #[must_use]
    pub fn effective_bandwidth(&self, coll: Collective, participants: usize) -> f64 {
        if participants <= 1 {
            return 0.0;
        }
        let raw = self
            .fabric
            .usable_bandwidth(participants, self.total_devices);
        let eff = if coll == Collective::Broadcast {
            self.tuning.efficiency * self.tuning.broadcast_efficiency
        } else {
            self.tuning.efficiency
        };
        raw * eff
    }

    /// Wall time of `coll` over `bytes` payload per device with
    /// `participants` devices.
    ///
    /// Degenerate inputs are no-ops: `participants <= 1` (nothing to
    /// exchange) and `bytes == 0` (empty payload) return `0.0` — never
    /// NaN or infinity. Collective libraries treat both as immediate
    /// completion, and the flow-level transport inherits this contract.
    ///
    /// # Panics
    /// Panics if `participants` exceeds `total_devices`.
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
        let bw = self.effective_bandwidth(coll, participants);
        let beta = u64_to_f64(bytes) * coll.traffic_factor(participants) / bw;
        // The P2P mesh runs *direct* algorithms (every pair wired), so its
        // latency term counts exchange phases, not ring hops — one of the
        // few latency advantages of the HLS-Gaudi-2 topology.
        let steps = self.latency_steps(coll, participants);
        let alpha = usize_to_f64(steps) * self.tuning.alpha_s;
        alpha + beta
    }

    /// Algorithm bandwidth: payload bytes over wall time. Degenerate
    /// inputs (`participants <= 1` or `bytes == 0`) return `0.0`: a no-op
    /// moves no bytes across the fabric.
    #[must_use]
    pub fn alg_bandwidth(&self, coll: Collective, bytes: u64, participants: usize) -> f64 {
        let t = self.time(coll, bytes, participants);
        if t <= 0.0 {
            return 0.0;
        }
        dcm_core::cast::u64_to_f64(bytes) / t
    }

    /// Bus bandwidth per NCCL-tests: `algbw * bus_factor` \[62\].
    /// Degenerate inputs return `0.0` (the bus factor is only defined for
    /// `n >= 2`).
    #[must_use]
    pub fn bus_bandwidth(&self, coll: Collective, bytes: u64, participants: usize) -> f64 {
        if participants <= 1 {
            return 0.0;
        }
        self.alg_bandwidth(coll, bytes, participants) * coll.bus_factor(participants)
    }

    /// Bus-bandwidth utilization: bus bandwidth over the node's full
    /// per-device bandwidth (the y-axis of Figure 10). Degenerate inputs
    /// return `0.0`.
    #[must_use]
    pub fn bus_utilization(&self, coll: Collective, bytes: u64, participants: usize) -> f64 {
        self.bus_bandwidth(coll, bytes, participants)
            / self.fabric.full_bandwidth(self.total_devices)
    }

    /// Lift a collective into an [`OpCost`] (network engine). Degenerate
    /// inputs produce a zero-cost op.
    #[must_use]
    pub fn cost(&self, coll: Collective, bytes: u64, participants: usize) -> OpCost {
        if participants <= 1 || bytes == 0 {
            return OpCost {
                engine: Engine::Network,
                compute_s: 0.0,
                memory_s: 0.0,
                flops: 0.0,
                bus_bytes: 0,
                useful_bytes: bytes,
            };
        }
        let t = self.time(coll, bytes, participants);
        let moved = f64_to_u64((u64_to_f64(bytes) * coll.traffic_factor(participants)).floor());
        OpCost {
            engine: Engine::Network,
            compute_s: t,
            memory_s: 0.0,
            flops: 0.0,
            bus_bytes: moved,
            useful_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::DeviceSpec;

    fn gaudi() -> CollectiveModel {
        CollectiveModel::new(&DeviceSpec::gaudi2())
    }

    fn a100() -> CollectiveModel {
        CollectiveModel::new(&DeviceSpec::a100())
    }

    const MB32: u64 = 32 << 20;

    #[test]
    fn gaudi_leads_in_5_of_6_at_8_devices() {
        // Figure 10: "Gaudi-2 shows higher bus bandwidth utilization than
        // A100 for 5 of the 6 collective communication patterns" at 8
        // devices and large payloads.
        let mut gaudi_wins = 0;
        for coll in Collective::ALL {
            let g = gaudi().bus_utilization(coll, MB32, 8);
            let a = a100().bus_utilization(coll, MB32, 8);
            if g > a {
                gaudi_wins += 1;
            }
        }
        assert_eq!(gaudi_wins, 5, "expected exactly 5 Gaudi wins");
    }

    #[test]
    fn gaudi_utilization_declines_linearly_with_fewer_devices() {
        // Figure 10: "an almost linear decline" for Gaudi-2; the paper's
        // mechanism is that only links toward participants carry traffic.
        let g = gaudi();
        let u8 = g.bus_utilization(Collective::AllReduce, MB32, 8);
        let u4 = g.bus_utilization(Collective::AllReduce, MB32, 4);
        let u2 = g.bus_utilization(Collective::AllReduce, MB32, 2);
        assert!(u8 > u4 && u4 > u2);
        // 2 devices use 1/7 of the links but also move less data per ring
        // step; the net utilization ratio tracks (n-1)/7 closely.
        assert!((u2 / u8) < 0.25, "u2/u8 = {}", u2 / u8);
        assert!((u4 / u8) < 0.55, "u4/u8 = {}", u4 / u8);
    }

    #[test]
    fn a100_utilization_is_stable_across_device_counts() {
        let a = a100();
        let u8 = a.bus_utilization(Collective::AllReduce, MB32, 8);
        let u2 = a.bus_utilization(Collective::AllReduce, MB32, 2);
        assert!((u8 - u2).abs() / u8 < 0.15, "u8={u8} u2={u2}");
    }

    #[test]
    fn small_messages_are_latency_bound() {
        for model in [gaudi(), a100()] {
            let small = model.bus_utilization(Collective::AllReduce, 2 << 10, 8);
            let large = model.bus_utilization(Collective::AllReduce, MB32, 8);
            assert!(small < 0.1 * large, "{}: {small} vs {large}", model.name());
        }
    }

    #[test]
    fn small_message_latency_depends_on_topology() {
        // At 2 devices the switch's lower per-hop latency wins; at 8
        // devices the mesh's direct algorithms (2 phases vs 14 ring steps)
        // win the latency race despite RoCE's higher per-message cost.
        let g2 = gaudi().time(Collective::AllReduce, 2 << 10, 2);
        let a2 = a100().time(Collective::AllReduce, 2 << 10, 2);
        assert!(a2 < g2, "2 devices: switch {a2} vs mesh {g2}");
        let g8 = gaudi().time(Collective::AllReduce, 2 << 10, 8);
        let a8 = a100().time(Collective::AllReduce, 2 << 10, 8);
        assert!(g8 < a8, "8 devices: mesh {g8} vs switch {a8}");
    }

    #[test]
    fn allreduce_moves_twice_the_payload() {
        let c = gaudi().cost(Collective::AllReduce, 1 << 20, 8);
        let expected = (1u64 << 20) as f64 * 2.0 * 7.0 / 8.0;
        assert!((c.bus_bytes as f64 - expected).abs() < 1.0);
        assert_eq!(c.useful_bytes, 1 << 20);
        assert_eq!(c.engine, Engine::Network);
    }

    #[test]
    fn bus_factors_match_nccl_definitions() {
        assert!((Collective::AllReduce.bus_factor(8) - 1.75).abs() < 1e-12);
        assert!((Collective::AllGather.bus_factor(8) - 0.875).abs() < 1e-12);
        assert!((Collective::Reduce.bus_factor(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steps_scale_with_participants() {
        // Tree depth on the switch, constant phases on the mesh.
        assert_eq!(Collective::AllReduce.steps(8), 6);
        assert_eq!(Collective::Broadcast.steps(8), 3);
        assert_eq!(Collective::AllReduce.steps(2), 2);
        assert_eq!(Collective::AllReduce.direct_phases(), 2);
        assert_eq!(Collective::AllGather.direct_phases(), 1);
    }

    #[test]
    fn time_is_monotonic_in_bytes() {
        let g = gaudi();
        let mut prev = 0.0;
        for kb in [2u64, 32, 512, 8192, 32768] {
            let t = g.time(Collective::AllGather, kb << 10, 8);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn degenerate_inputs_are_noops() {
        // participants <= 1 and bytes == 0 are no-op collectives: zero
        // time, zero bandwidth, zero bus traffic — never NaN/inf.
        for model in [gaudi(), a100()] {
            for coll in Collective::ALL {
                for (bytes, parts) in [(1024u64, 0usize), (1024, 1), (0, 8), (0, 1)] {
                    let t = model.time(coll, bytes, parts);
                    assert_eq!(t.to_bits(), 0.0f64.to_bits(), "{coll} {bytes}B n={parts}");
                    for v in [
                        model.effective_bandwidth(coll, parts.min(1)),
                        model.alg_bandwidth(coll, bytes, parts),
                        model.bus_bandwidth(coll, bytes, parts),
                        model.bus_utilization(coll, bytes, parts),
                    ] {
                        assert!(v.is_finite(), "{coll}: non-finite {v}");
                        assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{coll}: {v}");
                    }
                    let c = model.cost(coll, bytes, parts);
                    assert_eq!(c.bus_bytes, 0);
                    assert_eq!(c.compute_s.to_bits(), 0.0f64.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds node size")]
    fn oversubscribed_participants_rejected() {
        let _ = gaudi().time(Collective::AllReduce, 1024, 9);
    }

    #[test]
    fn multi_device_llm_scaling_mechanism() {
        // §3.5: Gaudi's speedup grows with device count because all-reduce
        // bandwidth is proportional to participants. Verify the underlying
        // bandwidth ratio Gaudi/A100 improves from 2 to 8 devices.
        let ratio = |n: usize| {
            let g = gaudi().alg_bandwidth(Collective::AllReduce, MB32, n);
            let a = a100().alg_bandwidth(Collective::AllReduce, MB32, n);
            g / a
        };
        assert!(ratio(8) > ratio(4));
        assert!(ratio(4) > ratio(2));
    }
}
