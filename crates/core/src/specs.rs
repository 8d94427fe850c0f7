//! Hardware specifications of the two evaluated devices (the paper's
//! Table 1), plus the server-level fabric each ships in.
//!
//! Everything downstream — the MME/tensor-core models, the TPC/SIMT vector
//! models, the HBM model, the collective-communication models and the energy
//! model — is parameterized by a [`DeviceSpec`]. The two stock constructors
//! are [`DeviceSpec::gaudi2`] and [`DeviceSpec::a100`]; custom configurations
//! (e.g. a hypothetical Gaudi with 32 B sectors for ablations) are built by
//! mutating a stock spec.

use crate::cast::{usize_to_f64, usize_to_u64};
use crate::dtype::DType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Matrix-multiply engine parameters.
///
/// For Gaudi-2 this describes the two physical MMEs (§2.1): large
/// output-stationary systolic arrays that can be *reconfigured* at runtime
/// (two independent 256×256 arrays, one fused 512×256, one 1024×128, …).
/// For A100 it describes the aggregate Tensor Core capability, which is not
/// reconfigurable but is fed by many small per-SM tiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixEngineSpec {
    /// Number of physical engine instances (2 MMEs on Gaudi-2; for the A100
    /// this is the SM count, each SM holding 4 Tensor Cores).
    pub count: usize,
    /// Rows of one engine's MAC array (output-stationary height).
    pub mac_rows: usize,
    /// Columns of one engine's MAC array (output-stationary width).
    pub mac_cols: usize,
    /// Whether the engine geometry can be reconfigured at runtime to match
    /// the GEMM shape (true for Gaudi's MME, false for Tensor Cores).
    pub reconfigurable: bool,
    /// Engine clock in Hz.
    pub clock_hz: f64,
    /// Peak dense matrix throughput for BF16, in FLOP/s.
    pub peak_flops_bf16: f64,
    /// Peak FP32 matrix throughput as a fraction of the BF16 peak: 1/32 in
    /// [`DeviceSpec::gaudi2`] and [`DeviceSpec::gaudi3`] (FP32 as several
    /// BF16 MME passes), 1/16 in [`DeviceSpec::a100`] (CUDA-core FP32, TF32
    /// off). The comments at this field in `gaudi2` and `a100` give the
    /// calibration; `gaudi3` keeps Gaudi-2's.
    pub fp32_factor: f64,
}

impl MatrixEngineSpec {
    /// Peak matrix throughput for `dtype` in FLOP/s.
    #[must_use]
    pub fn peak_flops(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Bf16 | DType::Fp16 => self.peak_flops_bf16,
            DType::Fp32 => self.peak_flops_bf16 * self.fp32_factor,
            DType::Int8 => self.peak_flops_bf16 * 2.0,
            DType::Int32 => self.peak_flops_bf16 * self.fp32_factor,
        }
    }
}

/// Programmable vector/SIMD engine parameters.
///
/// On Gaudi-2 this is the TPC complex: 24 single-threaded VLIW cores, each
/// with a 2048-bit SIMD unit, a 4-cycle architectural instruction latency
/// that programmers hide via loop unrolling, 1 KB scalar + 80 KB vector local
/// memories, and a 256 B minimum global access granularity (§2.1–2.2).
/// On A100 it is the CUDA/SIMD-core complex: 108 SMs of fine-grained SIMT
/// hardware with massive multithreading that hides latency without manual
/// unrolling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorEngineSpec {
    /// Number of independently schedulable cores (24 TPCs / 108 SMs).
    pub count: usize,
    /// SIMD register width in bytes (256 B = 2048-bit for the TPC).
    pub vector_bytes: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Peak aggregate vector throughput for BF16, in FLOP/s (counting FMA as
    /// two operations).
    pub peak_flops_bf16: f64,
    /// Architectural instruction latency in cycles (4 for the TPC \[27\]);
    /// 0 means the core hides latency through hardware multithreading
    /// (the GPU SIMT model) instead of software pipelining.
    pub instr_latency_cycles: u32,
    /// Scalar local memory per core in bytes (1 KB on Gaudi-2).
    pub scalar_local_bytes: usize,
    /// Vector local memory per core in bytes (80 KB on Gaudi-2; for the A100
    /// we use the 164 KB configurable shared memory per SM).
    pub vector_local_bytes: usize,
    /// Number of cores needed to saturate chip HBM bandwidth with streaming
    /// kernels. One core can pull at most `stream_bw / this` bytes/s — the
    /// mechanism behind Figure 8(c), where ADD/SCALE/TRIAD stop scaling
    /// between 11 and 15 TPCs.
    pub bw_saturation_cores: usize,
}

impl VectorEngineSpec {
    /// Peak vector throughput for `dtype` in FLOP/s. Halving the element
    /// width doubles the lane count, so FP32 runs at half the BF16 rate.
    #[must_use]
    pub fn peak_flops(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Bf16 | DType::Fp16 => self.peak_flops_bf16,
            DType::Fp32 | DType::Int32 => self.peak_flops_bf16 / 2.0,
            DType::Int8 => self.peak_flops_bf16 * 2.0,
        }
    }
}

/// Off-chip memory (HBM) and on-chip SRAM parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// HBM capacity in bytes (96 GB / 80 GB).
    pub hbm_capacity_bytes: u64,
    /// Peak HBM bandwidth in bytes/s (2.45 TB/s / 2.0 TB/s).
    pub hbm_bandwidth_bps: f64,
    /// On-chip SRAM in bytes (48 MB shared scratchpad / 40 MB L2 cache).
    pub sram_bytes: u64,
    /// Minimum global-memory access granularity in bytes. Any access smaller
    /// than this transfers (and wastes) a full chunk: 256 B on Gaudi-2, 32 B
    /// sectors on the A100 (§3.3). This single parameter drives the paper's
    /// key takeaways #3 and #6.
    pub min_access_bytes: usize,
    /// Fraction of peak bandwidth achievable for perfectly streaming access
    /// (DRAM overheads: refresh, bank conflicts). Both devices sustain
    /// roughly 0.9 of peak on STREAM-like patterns.
    pub stream_efficiency: f64,
    /// Fraction of peak bandwidth achievable for fully random accesses at or
    /// above the minimum granularity (row activation overheads).
    pub random_efficiency: f64,
    /// Per-transaction overhead of a *random* access, expressed in
    /// equivalent bus bytes (DRAM row activation + controller occupancy).
    /// Random-access time is `(bus_bytes + overhead) / (bw * random_eff)`
    /// per transaction; streaming accesses amortize this to zero.
    pub random_overhead_bytes: usize,
}

impl MemorySpec {
    /// Bytes actually moved across the HBM bus to service a `useful` -byte
    /// access: the request is rounded up to whole minimum-granularity chunks.
    ///
    /// ```
    /// use dcm_core::specs::DeviceSpec;
    /// let g = DeviceSpec::gaudi2();
    /// // A 64-byte gather on Gaudi-2 still moves a full 256-byte chunk.
    /// assert_eq!(g.memory.bus_bytes(64), 256);
    /// let a = DeviceSpec::a100();
    /// // The A100's 32-byte sectors service it with 64 bytes.
    /// assert_eq!(a.memory.bus_bytes(64), 64);
    /// ```
    #[must_use]
    pub fn bus_bytes(&self, useful: usize) -> u64 {
        if useful == 0 {
            return 0;
        }
        let chunks = useful.div_ceil(self.min_access_bytes);
        usize_to_u64(chunks * self.min_access_bytes)
    }

    /// Sustained streaming bandwidth in bytes/s.
    #[must_use]
    pub fn stream_bandwidth(&self) -> f64 {
        self.hbm_bandwidth_bps * self.stream_efficiency
    }

    /// Sustained random-access bandwidth in bytes/s (bus bytes, i.e. before
    /// subtracting granularity waste).
    #[must_use]
    pub fn random_bandwidth(&self) -> f64 {
        self.hbm_bandwidth_bps * self.random_efficiency
    }
}

/// Scale-up fabric connecting the eight devices of one server node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FabricSpec {
    /// Direct point-to-point mesh: every pair of devices is wired with
    /// `links_per_pair` links of `link_bps` bytes/s each (HLS-Gaudi-2:
    /// 3×100 GbE per pair, 21 of 24 RoCE ports used intra-node, §2.1).
    /// Links to devices not participating in a collective sit idle.
    P2pMesh {
        /// Number of physical links between each device pair.
        links_per_pair: usize,
        /// Unidirectional bandwidth of one link in bytes/s.
        link_bps: f64,
    },
    /// Central crossbar switch: each device gets its full injection
    /// bandwidth regardless of how many peers participate (DGX A100's
    /// NVSwitch, §2.1).
    Switched {
        /// Unidirectional per-device injection bandwidth in bytes/s.
        per_device_bps: f64,
    },
}

impl FabricSpec {
    /// Usable unidirectional bandwidth of one device when `participants`
    /// devices (including itself) of the `total_devices` node take part in a
    /// collective.
    ///
    /// For the P2P mesh only the links toward the other `participants - 1`
    /// peers can carry traffic; for the switch the full injection bandwidth
    /// is always available. This is the mechanism behind the paper's key
    /// takeaway #4.
    #[must_use]
    pub fn usable_bandwidth(&self, participants: usize, total_devices: usize) -> f64 {
        assert!(participants >= 1 && participants <= total_devices);
        match *self {
            FabricSpec::P2pMesh {
                links_per_pair,
                link_bps,
            } => {
                usize_to_f64(links_per_pair)
                    * link_bps
                    * usize_to_f64(participants.saturating_sub(1))
            }
            FabricSpec::Switched { per_device_bps } => {
                if participants > 1 {
                    per_device_bps
                } else {
                    0.0
                }
            }
        }
    }

    /// Full unidirectional per-device bandwidth with every device of an
    /// 8-device node participating.
    #[must_use]
    pub fn full_bandwidth(&self, total_devices: usize) -> f64 {
        self.usable_bandwidth(total_devices, total_devices)
    }
}

/// Scale-out networking of one device: the NIC rail that faces the
/// *inter-node* cluster network, as opposed to the in-node [`FabricSpec`].
///
/// §2.1 / §5 of the paper: each Gaudi-2 dedicates 3 of its 24 RoCE ports
/// to scale-out (the other 21 wire the in-node mesh), while each DGX A100
/// GPU drives one HDR200 InfiniBand NIC. These used to be hard-coded in
/// `dcm-net`; carrying them on the spec means a new preset (Gaudi-3,
/// future silicon) gets a scale-out fabric for free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleOutSpec {
    /// Unidirectional per-device scale-out bandwidth in bytes/s (line
    /// rate, before `efficiency`).
    pub bps_per_device: f64,
    /// Per-step software/NIC latency on the scale-out path in seconds.
    pub alpha_s: f64,
    /// Sustained fraction of line rate on the scale-out links.
    pub efficiency: f64,
}

/// Power envelope of the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSpec {
    /// Thermal design power in watts (600 W / 400 W).
    pub tdp_watts: f64,
    /// Idle power in watts (clock trees, HBM refresh, leakage).
    pub idle_watts: f64,
    /// Whether the device aggressively power-gates inactive compute columns
    /// (the paper speculates Gaudi-2 gates unused MME sub-arrays for small
    /// GEMMs, Fig. 7 caption and §3.5).
    pub power_gating: bool,
}

/// Complete description of one device plus the node it is deployed in.
///
/// The stock values mirror the paper's Table 1 and §2.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Process node, informational (both are TSMC 7 nm).
    pub process_node: String,
    /// Matrix engine (MME / Tensor Cores).
    pub matrix: MatrixEngineSpec,
    /// Vector engine (TPCs / SIMD cores).
    pub vector: VectorEngineSpec,
    /// Memory subsystem.
    pub memory: MemorySpec,
    /// Node-level fabric.
    pub fabric: FabricSpec,
    /// Inter-node scale-out rail of each device.
    pub scale_out: ScaleOutSpec,
    /// Devices per server node (8 for both HLS-Gaudi-2 and DGX A100).
    pub devices_per_node: usize,
    /// Power envelope.
    pub power: PowerSpec,
}

impl DeviceSpec {
    /// Intel Gaudi-2 as described in Table 1 / §2.1 of the paper.
    #[must_use]
    pub fn gaudi2() -> Self {
        DeviceSpec {
            name: "Gaudi-2".to_owned(),
            process_node: "TSMC 7nm".to_owned(),
            matrix: MatrixEngineSpec {
                count: 2,
                mac_rows: 256,
                mac_cols: 256,
                reconfigurable: true,
                // 2 MMEs x 256x256 MACs x 2 FLOP/MAC x 1.65 GHz = 432 TFLOPS.
                clock_hz: 1.648e9,
                peak_flops_bf16: 432.0e12,
                // Intel does not publish MME FP32 throughput. The MME is a
                // BF16-native engine; FP32 decomposes into multiple BF16
                // passes, landing near 1/32 of the BF16 rate (~13.5 TF) —
                // below the A100's 19.5 TF CUDA-core SGEMM. This is the
                // value at which Figure 11's shape emerges: Gaudi-2 loses
                // the MLP-heavy RM1 by ~20% on average yet wins RecSys
                // where memory dominates (wide vectors, up to ~1.36x).
                fp32_factor: 1.0 / 32.0,
            },
            vector: VectorEngineSpec {
                count: 24,
                vector_bytes: 256, // 2048-bit SIMD
                // 24 TPC x 128 bf16 lanes x 2 FLOP (MAC) x 1.79 GHz = 11 TFLOPS.
                clock_hz: 1.79e9,
                peak_flops_bf16: 11.0e12,
                instr_latency_cycles: 4,
                scalar_local_bytes: 1 << 10,
                vector_local_bytes: 80 << 10,
                bw_saturation_cores: 13,
            },
            memory: MemorySpec {
                hbm_capacity_bytes: 96u64 << 30,
                hbm_bandwidth_bps: 2.45e12,
                sram_bytes: 48 << 20,
                min_access_bytes: 256,
                stream_efficiency: 0.90,
                random_efficiency: 0.80,
                random_overhead_bytes: 128,
            },
            fabric: FabricSpec::P2pMesh {
                links_per_pair: 3,
                // 100 GbE per link, unidirectional, in bytes/s.
                link_bps: 100.0e9 / 8.0,
            },
            scale_out: ScaleOutSpec {
                // The 3 remaining RoCE ports of each Gaudi-2: 3×100 GbE.
                bps_per_device: 3.0 * 100.0e9 / 8.0,
                alpha_s: 10.0e-6,
                efficiency: 0.85,
            },
            devices_per_node: 8,
            power: PowerSpec {
                tdp_watts: 600.0,
                idle_watts: 130.0,
                power_gating: true,
            },
        }
    }

    /// Intel Gaudi-3 projection. The paper's footnote 1: "the hardware and
    /// software architecture of Intel's recently announced Gaudi-3 is
    /// virtually identical to that of Gaudi-2 … except that Gaudi-3 offers
    /// higher compute and memory throughput, thanks to its chiplet-based
    /// design." Parameters follow Intel's Gaudi-3 white paper \[30\]: 8 MMEs
    /// (as two Gaudi-2-like chiplets of 4×256×256 arrays), 64 TPCs, 128 GB
    /// HBM2E at 3.7 TB/s, 96 MB SRAM, 24×200 GbE RoCE, 900 W OAM.
    #[must_use]
    pub fn gaudi3() -> Self {
        DeviceSpec {
            name: "Gaudi-3".to_owned(),
            process_node: "TSMC 5nm".to_owned(),
            matrix: MatrixEngineSpec {
                count: 8,
                mac_rows: 256,
                mac_cols: 256,
                reconfigurable: true,
                // 8 x 256x256 MACs x 2 FLOP x 1.75 GHz ~ 1835 TFLOPS BF16.
                clock_hz: 1.75e9,
                peak_flops_bf16: 1835.0e12,
                fp32_factor: 1.0 / 32.0,
            },
            vector: VectorEngineSpec {
                count: 64,
                vector_bytes: 256,
                clock_hz: 1.79e9,
                // 64 TPC x 128 lanes x 2 FLOP x 1.79 GHz ~ 29 TFLOPS.
                peak_flops_bf16: 29.0e12,
                instr_latency_cycles: 4,
                scalar_local_bytes: 1 << 10,
                vector_local_bytes: 80 << 10,
                bw_saturation_cores: 20,
            },
            memory: MemorySpec {
                hbm_capacity_bytes: 128u64 << 30,
                hbm_bandwidth_bps: 3.7e12,
                sram_bytes: 96 << 20,
                min_access_bytes: 256, // same TPC architecture
                stream_efficiency: 0.90,
                random_efficiency: 0.80,
                random_overhead_bytes: 128,
            },
            fabric: FabricSpec::P2pMesh {
                links_per_pair: 3,
                // 200 GbE per link.
                link_bps: 200.0e9 / 8.0,
            },
            scale_out: ScaleOutSpec {
                // Gaudi-3 keeps the 21/3 port split at 200 GbE per port.
                bps_per_device: 3.0 * 200.0e9 / 8.0,
                alpha_s: 10.0e-6,
                efficiency: 0.85,
            },
            devices_per_node: 8,
            power: PowerSpec {
                tdp_watts: 900.0,
                idle_watts: 190.0,
                power_gating: true,
            },
        }
    }

    /// NVIDIA A100 (80 GB SXM) as described in Table 1 / §2.1 of the paper.
    #[must_use]
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100".to_owned(),
            process_node: "TSMC 7nm".to_owned(),
            matrix: MatrixEngineSpec {
                // 108 SMs, 4 Tensor Cores each; modeled per-SM.
                count: 108,
                // Effective per-SM output tile the CUTLASS-style kernels use.
                mac_rows: 128,
                mac_cols: 128,
                reconfigurable: false,
                clock_hz: 1.41e9,
                peak_flops_bf16: 312.0e12,
                // True FP32 on CUDA cores: 19.5 TFLOPS. PyTorch disables
                // TF32 by default since 1.12, and the paper's RecSys
                // evaluation runs plain FP32 (§3.1).
                fp32_factor: 0.0625,
            },
            vector: VectorEngineSpec {
                count: 108,
                // 64 FP32 CUDA lanes per SM = 256 B per cycle; BF16 packs
                // two per lane: 108 x 128 lanes x 2 FLOP x 1.41 GHz = 39 TF.
                vector_bytes: 256,
                clock_hz: 1.41e9,
                peak_flops_bf16: 39.0e12,
                instr_latency_cycles: 0, // SIMT multithreading hides latency
                scalar_local_bytes: 256 << 10, // register file per SM
                vector_local_bytes: 164 << 10, // shared memory per SM
                bw_saturation_cores: 20,
            },
            memory: MemorySpec {
                hbm_capacity_bytes: 80u64 << 30,
                hbm_bandwidth_bps: 2.0e12,
                sram_bytes: 40 << 20,
                min_access_bytes: 32, // 32 B sectored L2 [36, 50]
                stream_efficiency: 0.90,
                random_efficiency: 0.85,
                random_overhead_bytes: 96,
            },
            fabric: FabricSpec::Switched {
                // NVLink 600 GB/s bidirectional = 300 GB/s per direction.
                per_device_bps: 300.0e9,
            },
            scale_out: ScaleOutSpec {
                // One HDR200 InfiniBand NIC per GPU on the DGX.
                bps_per_device: 200.0e9 / 8.0,
                alpha_s: 10.0e-6,
                efficiency: 0.85,
            },
            devices_per_node: 8,
            power: PowerSpec {
                tdp_watts: 400.0,
                idle_watts: 90.0,
                power_gating: false,
            },
        }
    }

    /// Peak matrix throughput for `dtype` in FLOP/s.
    #[must_use]
    pub fn matrix_peak_flops(&self, dtype: DType) -> f64 {
        self.matrix.peak_flops(dtype)
    }

    /// Peak vector throughput for `dtype` in FLOP/s.
    #[must_use]
    pub fn vector_peak_flops(&self, dtype: DType) -> f64 {
        self.vector.peak_flops(dtype)
    }

    /// Aggregate peak throughput (matrix + vector engines) for `dtype`.
    #[must_use]
    pub fn total_peak_flops(&self, dtype: DType) -> f64 {
        self.matrix_peak_flops(dtype) + self.vector_peak_flops(dtype)
    }

    /// Peak HBM bandwidth in bytes/s.
    #[must_use]
    pub fn hbm_bandwidth(&self) -> f64 {
        self.memory.hbm_bandwidth_bps
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roofline::Roofline;

    #[test]
    fn table1_ratios_hold() {
        let g = DeviceSpec::gaudi2();
        let a = DeviceSpec::a100();
        // Matrix: 432 vs 312 TFLOPS => 1.4x
        let r = g.matrix_peak_flops(DType::Bf16) / a.matrix_peak_flops(DType::Bf16);
        assert!((r - 1.385).abs() < 0.01, "matrix ratio {r}");
        // Vector: 11 vs 39 TFLOPS => 0.28x (the paper's 0.3x / "3.5x gap")
        let r = g.vector_peak_flops(DType::Bf16) / a.vector_peak_flops(DType::Bf16);
        assert!((r - 0.282).abs() < 0.01, "vector ratio {r}");
        // Memory bandwidth: 2.45 vs 2.0 TB/s => 1.2x
        let r = g.hbm_bandwidth() / a.hbm_bandwidth();
        assert!((r - 1.225).abs() < 0.01, "bw ratio {r}");
        // Capacity: 96 vs 80 GB => 1.2x
        let r = g.memory.hbm_capacity_bytes as f64 / a.memory.hbm_capacity_bytes as f64;
        assert!((r - 1.2).abs() < 0.01);
        // Power: 600 vs 400 W => 1.5x
        assert!((g.power.tdp_watts / a.power.tdp_watts - 1.5).abs() < 1e-9);
        // Aggregate compute: ~1.26x (abstract of the paper)
        let r = g.total_peak_flops(DType::Bf16) / a.total_peak_flops(DType::Bf16);
        assert!((r - 1.26).abs() < 0.02, "aggregate ratio {r}");
    }

    #[test]
    fn mme_clock_is_consistent_with_peak() {
        let g = DeviceSpec::gaudi2();
        let macs = g.matrix.count * g.matrix.mac_rows * g.matrix.mac_cols;
        let derived_peak = macs as f64 * 2.0 * g.matrix.clock_hz;
        let rel = (derived_peak - g.matrix.peak_flops_bf16).abs() / g.matrix.peak_flops_bf16;
        assert!(rel < 0.01, "clock/peak mismatch: {rel}");
    }

    #[test]
    fn granularity_rounding() {
        let g = DeviceSpec::gaudi2();
        assert_eq!(g.memory.bus_bytes(0), 0);
        assert_eq!(g.memory.bus_bytes(1), 256);
        assert_eq!(g.memory.bus_bytes(256), 256);
        assert_eq!(g.memory.bus_bytes(257), 512);
        let a = DeviceSpec::a100();
        assert_eq!(a.memory.bus_bytes(1), 32);
        assert_eq!(a.memory.bus_bytes(128), 128);
    }

    #[test]
    fn fabric_scaling_p2p_vs_switch() {
        let g = DeviceSpec::gaudi2();
        let a = DeviceSpec::a100();
        // All 8 devices: both nodes provide ~300 GB/s unidirectional
        // per-device ("aggregate of 300 GB/sec", §3.4).
        let g8 = g.fabric.usable_bandwidth(8, 8);
        let a8 = a.fabric.usable_bandwidth(8, 8);
        assert!((g8 - 262.5e9).abs() < 1e9, "gaudi 8-dev {g8}");
        assert!((a8 - 300.0e9).abs() < 1e9);
        // 2 devices: Gaudi has only 3 links = 37.5 GB/s; A100 keeps 300.
        let g2 = g.fabric.usable_bandwidth(2, 8);
        assert!((g2 - 37.5e9).abs() < 1e9, "gaudi 2-dev {g2}");
        assert!((a.fabric.usable_bandwidth(2, 8) - 300.0e9).abs() < 1e9);
        // Ratio 1/7th: the paper's "almost linear decline".
        assert!((g2 / g8 - 1.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn fabric_single_device_has_no_traffic() {
        let a = DeviceSpec::a100();
        assert_eq!(a.fabric.usable_bandwidth(1, 8), 0.0);
    }

    #[test]
    fn fp32_peaks() {
        let g = DeviceSpec::gaudi2();
        let a = DeviceSpec::a100();
        assert!((g.matrix_peak_flops(DType::Fp32) - 13.5e12).abs() < 1e10);
        assert!((a.matrix_peak_flops(DType::Fp32) - 19.5e12).abs() < 1e10);
        assert!((g.vector_peak_flops(DType::Fp32) - 5.5e12).abs() < 1e10);
        assert!((a.vector_peak_flops(DType::Fp32) - 19.5e12).abs() < 1e10);
    }

    #[test]
    fn gaudi3_scales_gaudi2_without_changing_the_architecture() {
        let g2 = DeviceSpec::gaudi2();
        let g3 = DeviceSpec::gaudi3();
        // Roughly 4x compute, 1.5x bandwidth, same granularity and fabric
        // style (footnote 1 + Gaudi-3 white paper).
        let c = g3.matrix_peak_flops(DType::Bf16) / g2.matrix_peak_flops(DType::Bf16);
        assert!(c > 4.0 && c < 4.5, "compute scale {c}");
        let b = g3.hbm_bandwidth() / g2.hbm_bandwidth();
        assert!((b - 1.51).abs() < 0.02, "bw scale {b}");
        assert_eq!(g3.memory.min_access_bytes, g2.memory.min_access_bytes);
        assert!(matches!(g3.fabric, FabricSpec::P2pMesh { .. }));
        // Per-link bandwidth doubled (200 GbE).
        assert!(g3.fabric.full_bandwidth(8) > 1.9 * g2.fabric.full_bandwidth(8));
    }

    #[test]
    fn serde_roundtrip() {
        let g = DeviceSpec::gaudi2();
        let json = serde_json_like(&g);
        assert!(json.contains("Gaudi-2"));
    }

    // serde_json is not among the allowed dependencies; a Debug roundtrip is
    // enough to verify the derives compile and fields are preserved.
    fn serde_json_like(spec: &DeviceSpec) -> String {
        format!("{spec:?}")
    }

    #[test]
    fn ridge_points_are_sane() {
        // Both devices become compute bound somewhere between 150 and 200
        // FLOP/byte for BF16 GEMM.
        let g = DeviceSpec::gaudi2();
        let a = DeviceSpec::a100();
        let (g, a) = (
            Roofline::matrix(&g, DType::Bf16).ridge(),
            Roofline::matrix(&a, DType::Bf16).ridge(),
        );
        assert!(g > 150.0 && g < 200.0, "{g}");
        assert!(a > 140.0 && a < 170.0, "{a}");
    }
}
