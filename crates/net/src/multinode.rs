//! Multi-node scale-out collectives.
//!
//! §5 of the paper: "Intel claims that Gaudi NPUs are competitive to
//! NVIDIA GPUs for training large-scale AI models requiring hundreds to
//! thousands of devices." This module extends the single-node models with
//! the scale-out dimension:
//!
//! * **HLS-Gaudi-2** — 3 of each device's 24 RoCE ports face the scale-out
//!   network (§2.1 allocates 21 intra-node), giving 300 Gb/s per device of
//!   inter-node bandwidth through standard Ethernet switches.
//! * **DGX A100** — 8 HDR InfiniBand NICs per node (200 Gb/s each), one
//!   per GPU.
//!
//! Large collectives run hierarchically: intra-node reduce-scatter, then
//! an inter-node all-reduce over each device's shard (every device drives
//! its own scale-out links — rail-optimized), then intra-node all-gather.

use crate::collective::{Collective, CollectiveModel};
use dcm_core::specs::{DeviceSpec, ScaleOutSpec};
use serde::{Deserialize, Serialize};

/// A cluster of identical nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiNodeModel {
    intra: CollectiveModel,
    devices_per_node: usize,
    nodes: usize,
    scale_out: ScaleOutSpec,
}

impl MultiNodeModel {
    /// Build a cluster of `nodes` nodes of `spec` devices. The scale-out
    /// rail (bandwidth, per-step latency, sustained efficiency) comes
    /// from [`ScaleOutSpec`] in the device registry: 3×100 GbE for
    /// Gaudi-2 nodes, 1×200 Gb/s HDR per GPU for DGX A100 — new presets
    /// (Gaudi-3, …) get a fabric without touching this crate.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(spec: &DeviceSpec, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        MultiNodeModel {
            intra: CollectiveModel::new(spec),
            devices_per_node: spec.devices_per_node,
            nodes,
            scale_out: spec.scale_out.clone(),
        }
    }

    /// Wall time of a cluster-wide all-reduce of `bytes` per device.
    ///
    /// Single node: delegates to the intra-node model. Multi-node:
    /// hierarchical reduce-scatter → inter-node all-reduce of the
    /// 1/devices_per_node shard → all-gather.
    ///
    /// `bytes == 0` is a no-op and returns `0.0` (never NaN/inf),
    /// matching [`CollectiveModel::time`].
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
        // Each device all-reduces its shard across its rail.
        let dpn = u64::try_from(self.devices_per_node).unwrap_or(u64::MAX);
        let shard = (bytes / dpn).max(1);
        let n = dcm_core::cast::usize_to_f64(self.nodes);
        let inter_beta = dcm_core::cast::u64_to_f64(shard) * 2.0 * (n - 1.0)
            / n
            / (self.scale_out.bps_per_device * self.scale_out.efficiency);
        let inter_alpha =
            2.0 * dcm_core::cast::usize_to_f64(self.nodes - 1) * self.scale_out.alpha_s;
        rs + inter_beta + inter_alpha + ag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    fn gaudi(nodes: usize) -> MultiNodeModel {
        MultiNodeModel::new(&DeviceSpec::gaudi2(), nodes)
    }

    fn dgx(nodes: usize) -> MultiNodeModel {
        MultiNodeModel::new(&DeviceSpec::a100(), nodes)
    }

    #[test]
    fn single_node_matches_intra_model() {
        let m = gaudi(1);
        let direct = CollectiveModel::new(&DeviceSpec::gaudi2()).time(Collective::AllReduce, GB, 8);
        assert!((m.allreduce_time(GB) - direct).abs() < 1e-12);
    }

    #[test]
    fn scale_out_bandwidths_match_platforms() {
        // Gaudi-2: 3 x 100 GbE = 37.5 GB/s; DGX: HDR200 = 25 GB/s per GPU.
        assert!((gaudi(2).scale_out.bps_per_device - 37.5e9).abs() < 1e6);
        assert!((dgx(2).scale_out.bps_per_device - 25.0e9).abs() < 1e6);
    }

    #[test]
    fn multi_node_is_slower_than_single_node() {
        for model in [gaudi(4), dgx(4)] {
            let single = MultiNodeModel {
                nodes: 1,
                ..model.clone()
            };
            assert!(model.allreduce_time(GB) > single.allreduce_time(GB));
        }
    }

    #[test]
    fn inter_node_cost_grows_slowly_with_node_count() {
        // Ring all-reduce traffic converges to 2x shard; time grows toward
        // an asymptote, not linearly.
        let t2 = gaudi(2).allreduce_time(GB);
        let t16 = gaudi(16).allreduce_time(GB);
        let t64 = gaudi(64).allreduce_time(GB);
        assert!(t16 > t2);
        assert!(t64 < t16 * 1.2, "{t64} vs {t16}");
    }

    #[test]
    fn gaudi_scale_out_edge_matches_its_port_advantage() {
        // 37.5 vs 25 GB/s per device: at large payloads the Gaudi cluster
        // all-reduces faster.
        let g = gaudi(8).allreduce_time(4 * GB);
        let a = dgx(8).allreduce_time(4 * GB);
        assert!(g < a, "gaudi {g} vs dgx {a}");
        let ratio = a / g;
        assert!(ratio > 1.1 && ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = gaudi(0);
    }

    #[test]
    fn zero_bytes_is_a_noop() {
        // An empty all-reduce completes instantly — never NaN/inf.
        for model in [gaudi(1), gaudi(4), dgx(4)] {
            assert_eq!(model.allreduce_time(0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn scale_out_comes_from_device_registry() {
        // S2: constants live in ScaleOutSpec now — a preset added to the
        // registry gets a scale-out fabric with no dcm-net change.
        let g3 = MultiNodeModel::new(&DeviceSpec::gaudi3(), 2);
        assert!((g3.scale_out.bps_per_device - 75.0e9).abs() < 1e6);
    }
}
