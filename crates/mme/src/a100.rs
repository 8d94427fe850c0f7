//! The A100 Tensor Core GEMM model.
//!
//! cuBLAS-style execution: the GEMM is tiled into CTA output tiles chosen
//! from a fixed menu (optionally split along K), tiles are distributed over
//! 108 SMs, and the kernel runs in "waves". Three effects shape
//! utilization:
//!
//! * **Wave quantization** — the last wave is partially filled whenever the
//!   tile count is not a multiple of the SM count.
//! * **Tile-level ILP** — small tiles cannot keep all four Tensor Cores of
//!   an SM busy (fewer MMA instructions in flight, less register reuse);
//!   co-resident CTAs recover some, but not all, of the lost issue slots.
//! * **Split-K** — skinny GEMMs (decode-time weight streaming) split the
//!   reduction dimension to occupy all SMs, at the cost of a partial-sum
//!   reduction pass.
//!
//! None of these can be removed by reconfiguring the datapath, which is why
//! the A100 trails Gaudi-2 in compute utilization across GEMM shapes
//! (Figure 5) despite its mature software stack.

use crate::{GemmConfig, GemmEngine, GemmRun, GemmShape};
use dcm_core::cast::{self, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::DeviceSpec;
use dcm_core::DType;
use serde::{Deserialize, Serialize};

/// CTA output-tile menu (heights × widths), mirroring CUTLASS kernel
/// selections available to cuBLAS on Ampere.
const TILE_MENU: &[(usize, usize)] = &[
    (256, 128),
    (128, 256),
    (128, 128),
    (128, 64),
    (64, 128),
    (64, 64),
];

/// Split-K factors the kernel selector may choose.
const SPLIT_K_MENU: &[usize] = &[1, 2, 4, 8];

/// Reference tile area at which an SM sustains its full Tensor Core rate.
const FULL_ILP_TILE_AREA: usize = 128 * 128;

/// Co-resident CTAs that can contribute independent MMA streams to one
/// SM's issue slots (register-file limited).
const MAX_ILP_CTAS: usize = 2;

/// Fraction of the boost clock the A100 sustains under full Tensor Core
/// load (power/thermal limits; the paper's Figure 5 shows A100 plateauing
/// below Gaudi-2's utilization).
const SUSTAINED_FRACTION: f64 = 0.92;

/// Per-kernel CUDA launch overhead in seconds (without CUDA graphs).
const LAUNCH_OVERHEAD_S: f64 = 3.0e-6;

/// Per-wave scheduling/epilogue overhead in cycles.
const WAVE_OVERHEAD_CYCLES: f64 = 512.0;

/// One evaluated tiling choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileChoice {
    /// Tile height (M-facing).
    pub height: usize,
    /// Tile width (N-facing).
    pub width: usize,
    /// Split-K factor (1 = no split).
    pub split_k: usize,
    /// Total CTA tiles (including the K splits).
    pub tiles: usize,
}

/// The A100 Tensor Core GEMM engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A100TensorCore {
    name: String,
    sm_count: usize,
    clock_hz: f64,
    peak_bf16: f64,
    fp32_factor: f64,
    stream_bw: f64,
    macs_per_sm_cycle: f64,
}

impl A100TensorCore {
    /// Build the model from a device spec (normally [`DeviceSpec::a100`]).
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        let m = &spec.matrix;
        let macs_per_sm_cycle = m.peak_flops_bf16 / 2.0 / m.clock_hz / cast::usize_to_f64(m.count);
        A100TensorCore {
            name: format!("{} TensorCore", spec.name),
            sm_count: m.count,
            clock_hz: m.clock_hz,
            peak_bf16: m.peak_flops_bf16,
            fp32_factor: m.fp32_factor,
            stream_bw: spec.memory.stream_bandwidth(),
            macs_per_sm_cycle,
        }
    }

    /// The tile cuBLAS-style heuristics select for a dispatch of `batch`
    /// GEMMs of `shape`: the menu entry minimizing modeled wall time
    /// (compute cycles *and* the partial-sum traffic split-K adds).
    #[must_use]
    pub fn select_tile(&self, shape: GemmShape, batch: usize, dtype: DType) -> TileChoice {
        let mut best: Option<(f64, TileChoice)> = None;
        for &(h, w) in TILE_MENU {
            for &kf in SPLIT_K_MENU {
                if kf > 1 && shape.k / kf < 64 {
                    continue; // not worth splitting a short reduction
                }
                let choice = self.tile_choice(shape, h, w, kf);
                let compute = self.cycles(shape, choice, batch, dtype) / self.clock_hz;
                let bytes = shape.ideal_bytes(DType::Bf16) * usize_to_u64(batch)
                    + self.splitk_bytes(shape, choice, batch);
                let t = compute.max(cast::u64_to_f64(bytes) / self.stream_bw);
                if best.is_none_or(|(bc, _)| t < bc) {
                    best = Some((t, choice));
                }
            }
        }
        // dcm-lint: allow(P1) static tile menu always yields a candidate
        best.expect("tile menu is never empty").1
    }

    /// Extra FP32 partial-sum traffic a split-K kernel writes and re-reads.
    fn splitk_bytes(&self, shape: GemmShape, t: TileChoice, batch: usize) -> u64 {
        usize_to_u64(shape.m * shape.n * 4 * 2 * (t.split_k - 1) * batch)
    }

    fn tile_choice(&self, shape: GemmShape, h: usize, w: usize, kf: usize) -> TileChoice {
        let tiles = shape.m.div_ceil(h) * shape.n.div_ceil(w) * kf;
        TileChoice {
            height: h,
            width: w,
            split_k: kf,
            tiles,
        }
    }

    /// Cycle model for `batch` GEMMs under one tile choice. CTAs of all
    /// batch members co-occupy the SMs; up to [`MAX_ILP_CTAS`] co-resident
    /// CTAs recover issue-slot parallelism lost to small tiles.
    fn cycles(&self, shape: GemmShape, t: TileChoice, batch: usize, dtype: DType) -> f64 {
        let total_tiles = t.tiles * batch;
        let waves = total_tiles.div_ceil(self.sm_count);
        let ctas_per_sm = (total_tiles / self.sm_count).clamp(1, MAX_ILP_CTAS);
        // The ILP area penalty is a Tensor Core phenomenon (few large MMA
        // instructions in flight). FP32 GEMMs run on CUDA cores, whose
        // small register tiles pipeline fully at any CTA size.
        let ilp = if matches!(dtype, DType::Fp32 | DType::Int32) {
            1.0
        } else {
            (cast::usize_to_f64(t.height * t.width * ctas_per_sm)
                / cast::usize_to_f64(FULL_ILP_TILE_AREA))
            .min(1.0)
        };
        let k_per_tile = shape.k.div_ceil(t.split_k);
        let tile_cycles = cast::usize_to_f64(t.height * t.width) * cast::usize_to_f64(k_per_tile)
            / (self.macs_per_sm_cycle * ilp);
        cast::usize_to_f64(waves) * (tile_cycles + WAVE_OVERHEAD_CYCLES)
    }

    fn dtype_slowdown(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Bf16 | DType::Fp16 => 1.0,
            DType::Fp32 | DType::Int32 => 1.0 / self.fp32_factor,
            DType::Int8 => 0.5,
        }
    }

    fn run(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        let tile = self.select_tile(shape, batch, dtype);
        let compute_s = self.cycles(shape, tile, batch, dtype) * self.dtype_slowdown(dtype)
            / (self.clock_hz * SUSTAINED_FRACTION)
            + LAUNCH_OVERHEAD_S;
        // Split-K kernels write and re-read partial sums in FP32.
        let bytes =
            shape.ideal_bytes(dtype) * usize_to_u64(batch) + self.splitk_bytes(shape, tile, batch);
        let memory_s = cast::u64_to_f64(bytes) / self.stream_bw;
        GemmRun {
            cost: OpCost {
                engine: Engine::Matrix,
                compute_s,
                memory_s,
                flops: shape.flops() * cast::usize_to_f64(batch),
                bus_bytes: bytes,
                useful_bytes: bytes,
            },
            config: GemmConfig::Cta {
                height: tile.height,
                width: tile.width,
                split_k: tile.split_k,
                batch,
            },
            powered_fraction: 1.0,
        }
    }
}

impl GemmEngine for A100TensorCore {
    fn gemm(&self, shape: GemmShape, dtype: DType) -> GemmRun {
        self.run(1, shape, dtype)
    }

    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        self.run(batch, shape, dtype)
    }

    fn peak_flops(&self, dtype: DType) -> f64 {
        self.peak_bf16 * self.dtype_slowdown(DType::Bf16) / self.dtype_slowdown(dtype)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn launch_overhead_s(&self) -> f64 {
        LAUNCH_OVERHEAD_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GaudiMme;
    use dcm_core::DeviceSpec;

    fn tc() -> A100TensorCore {
        A100TensorCore::new(&DeviceSpec::a100())
    }

    #[test]
    fn large_square_gemm_is_fast_but_below_gaudi_utilization() {
        let a = tc();
        let g = GaudiMme::new(&DeviceSpec::gaudi2());
        let shape = GemmShape::square(8192);
        let au = a.utilization(shape, DType::Bf16);
        let gu = g.utilization(shape, DType::Bf16);
        assert!(au > 0.80, "a100 util {au}");
        assert!(
            gu > au,
            "Figure 5: Gaudi-2 out-utilizes A100 ({gu} vs {au})"
        );
    }

    #[test]
    fn gaudi_outperforms_across_figure4_shapes() {
        // Figure 4: "Gaudi-2 consistently outperforms A100 across all
        // (M,K,N) GEMM shapes we explore".
        let a = tc();
        let g = GaudiMme::new(&DeviceSpec::gaudi2());
        for &n in &[512usize, 1024, 2048, 4096, 8192] {
            let s = GemmShape::square(n);
            let at = a.gemm(s, DType::Bf16).cost.time();
            let gt = g.gemm(s, DType::Bf16).cost.time();
            assert!(gt < at, "square {n}: gaudi {gt} vs a100 {at}");
        }
        for &m in &[2048usize, 8192] {
            let s = GemmShape::new(m, m, 16);
            let at = a.gemm(s, DType::Bf16).cost.time();
            let gt = g.gemm(s, DType::Bf16).cost.time();
            assert!(gt < at, "irregular {m}: gaudi {gt} vs a100 {at}");
        }
    }

    #[test]
    fn wave_quantization_hurts_awkward_tile_counts() {
        let a = tc();
        // 2048^3: 256 tiles of 128x128 over 108 SMs -> 3 waves, last wave
        // 40/108 full.
        let u2048 = a.utilization(GemmShape::square(2048), DType::Bf16);
        let u8192 = a.utilization(GemmShape::square(8192), DType::Bf16);
        assert!(u2048 < u8192 - 0.05, "{u2048} vs {u8192}");
    }

    #[test]
    fn average_utilization_gap_matches_paper_ballpark() {
        // Figure 5: Gaudi-2 averages ~4.5 pp higher utilization, with a
        // maximum gap around 2048^3.
        let a = tc();
        let g = GaudiMme::new(&DeviceSpec::gaudi2());
        let sizes = [512usize, 1024, 2048, 4096, 8192];
        let mut gaps = Vec::new();
        for &n in &sizes {
            let s = GemmShape::square(n);
            gaps.push(g.utilization(s, DType::Bf16) - a.utilization(s, DType::Bf16));
        }
        let avg = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(f64::MIN, f64::max);
        assert!(avg > 0.02 && avg < 0.20, "avg gap {avg}");
        assert!(max > 0.10 && max < 0.40, "max gap {max}");
    }

    #[test]
    fn skinny_decode_gemms_use_split_k_and_go_memory_bound() {
        // Weight-streaming decode GEMM: M=8, K=14336, N=4096. Without
        // split-K only 64 SMs would be active and the kernel would be
        // compute-bound; with it, memory (weight) streaming dominates.
        let a = tc();
        let run = a.gemm(GemmShape::new(8, 14336, 4096), DType::Bf16);
        assert!(
            run.config.to_string().contains('k'),
            "config {}",
            run.config
        );
        // Near-balanced weight streaming: compute no more than ~30% above
        // the pure memory time (without split-K it would be several times
        // slower than memory).
        assert!(
            run.cost.compute_s < 1.3 * run.cost.memory_s,
            "decode GEMM too compute-bound: {:?}",
            run.cost
        );
    }

    #[test]
    fn tile_selection_adapts_to_shape() {
        let a = tc();
        let skinny = a.select_tile(GemmShape::new(8192, 8192, 64), 1, DType::Bf16);
        assert!(
            skinny.width <= 128,
            "skinny GEMM picks narrow tiles: {skinny:?}"
        );
        let square = a.select_tile(GemmShape::square(8192), 1, DType::Bf16);
        assert!(square.height * square.width >= 128 * 128);
        assert_eq!(square.split_k, 1, "no split-K needed for square GEMMs");
    }

    #[test]
    fn batched_gemv_fills_the_sms() {
        // 2048 decode-attention GEMVs: batching restores occupancy.
        let a = tc();
        let shape = GemmShape::new(1, 128, 1024);
        let single = a.gemm(shape, DType::Bf16).cost;
        let batched = a.batched_gemm(2048, shape, DType::Bf16).cost;
        assert!(batched.time() < single.time() * 2048.0 * 0.05);
        assert!(batched.memory_s >= batched.compute_s);
    }

    #[test]
    fn fp32_uses_cuda_core_rate() {
        // PyTorch disables TF32 by default; FP32 GEMMs run on CUDA cores.
        let a = tc();
        assert!((a.peak_flops(DType::Fp32) - 19.5e12).abs() < 1e9);
    }

    #[test]
    fn small_gemm_is_launch_dominated() {
        let a = tc();
        let run = a.gemm(GemmShape::square(128), DType::Bf16);
        assert!(run.cost.time() >= LAUNCH_OVERHEAD_S);
        assert!(run.utilization(a.peak_flops(DType::Bf16)) < 0.05);
    }
}
