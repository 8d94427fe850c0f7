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

use crate::{dtype_slowdown, GemmConfig, GemmEngine, GemmRun, GemmShape};
use dcm_core::cast::{self, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::{DeviceSpec, MatrixEngineSpec};
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

/// Split-K factors the kernel selector may choose, 1 (no split) first.
const SPLIT_K_MENU: &[usize] = &[1, 2, 4, 8];

/// Shortest reduction slice a split may leave: a factor `kf` is not
/// considered when `k / kf` is below this.
const MIN_SPLIT_K_DEPTH: usize = 64;

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

/// A scored menu entry of [`A100TensorCore::select_tile`].
#[derive(Debug, Clone, Copy)]
struct Ranked {
    /// `max(cycles / clock_hz, rank memory time)`: what the selection
    /// minimizes.
    rank: f64,
    /// Position in the menu order: tiles, then split factors.
    order: usize,
    tile: TileChoice,
    cycles: f64,
}

/// The A100 Tensor Core GEMM engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A100TensorCore {
    /// The Tensor Core complex, one engine instance per SM.
    matrix: MatrixEngineSpec,
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
            matrix: m.clone(),
            stream_bw: spec.memory.stream_bandwidth(),
            macs_per_sm_cycle,
        }
    }

    /// The tile cuBLAS-style heuristics select for a dispatch of `batch`
    /// GEMMs of `shape`: the menu entry, a tile shape and a split-K
    /// factor, with the least `max(cycles / clock_hz, bytes /
    /// stream_bw)`, ties to the earlier entry (tile shapes in menu order,
    /// then factors 1, 2, 4, 8). `bytes` is the BF16 single-pass traffic
    /// plus the partial sums a split adds, for every `dtype`, which enters
    /// only through the cycle model. So this ranks candidates, and is not
    /// the run's time: the run also charges the sustained-clock fraction,
    /// the dtype's slowdown and bytes, and the launch overhead. A factor
    /// that leaves a reduction slice shorter than 64 is not considered.
    #[must_use]
    // dcm-lint: allow(R1) test hook; prop_mme_select::a100_selection_and_engine_choice_match_the_full_search
    pub fn select_tile(&self, shape: GemmShape, batch: usize, dtype: DType) -> TileChoice {
        self.select(shape, batch, dtype).tile
    }

    fn select(&self, shape: GemmShape, batch: usize, dtype: DType) -> Ranked {
        let unsplit = self.rank_unsplit(shape, batch, dtype);
        self.rank_splits(shape, batch, dtype, unsplit)
    }

    /// The least-ranked unsplit tile, ties to the earlier. Unsplit tiles
    /// all move the same bytes, the fewest of any candidate, so the scan
    /// stops at the first whose compute fits under their memory time:
    /// no later entry can rank below it.
    fn rank_unsplit(&self, shape: GemmShape, batch: usize, dtype: DType) -> Ranked {
        let memory_s = self.memory_s(shape, batch, DType::Bf16, 1);
        let mut best: Option<Ranked> = None;
        for i in 0..TILE_MENU.len() {
            let c = self.ranked(shape, batch, dtype, (i, 0), memory_s);
            if best.is_none_or(|b| c.rank < b.rank) {
                best = Some(c);
            }
            if c.rank == memory_s {
                break;
            }
        }
        // dcm-lint: allow(P1) static tile menu always yields a candidate
        best.expect("tile menu is never empty")
    }

    /// `best` against the split entries, by increasing factor. A factor's
    /// memory time bounds every tile at that factor from below and grows
    /// with the factor, so the scan stops at the first factor whose
    /// memory time can neither beat nor tie `best` (a tie wins when its
    /// entry comes earlier in the menu).
    fn rank_splits(
        &self,
        shape: GemmShape,
        batch: usize,
        dtype: DType,
        mut best: Ranked,
    ) -> Ranked {
        for (j, &kf) in SPLIT_K_MENU.iter().enumerate().skip(1) {
            if shape.k / kf < MIN_SPLIT_K_DEPTH {
                break;
            }
            let memory_s = self.memory_s(shape, batch, DType::Bf16, kf);
            if memory_s > best.rank {
                break;
            }
            for i in 0..TILE_MENU.len() {
                let c = self.ranked(shape, batch, dtype, (i, j), memory_s);
                if c.rank < best.rank || (c.rank == best.rank && c.order < best.order) {
                    best = c;
                }
            }
        }
        best
    }

    /// Score the entry of tile shape `TILE_MENU[i]` and split factor
    /// `SPLIT_K_MENU[j]`, whose rank memory time is `memory_s`.
    fn ranked(
        &self,
        shape: GemmShape,
        batch: usize,
        dtype: DType,
        (i, j): (usize, usize),
        memory_s: f64,
    ) -> Ranked {
        let ((height, width), split_k) = (TILE_MENU[i], SPLIT_K_MENU[j]);
        let tile = TileChoice {
            height,
            width,
            split_k,
            tiles: shape.m.div_ceil(height) * shape.n.div_ceil(width) * split_k,
        };
        let cycles = self.cycles(shape, tile, batch, dtype);
        Ranked {
            rank: (cycles / self.matrix.clock_hz).max(memory_s),
            order: i * SPLIT_K_MENU.len() + j,
            tile,
            cycles,
        }
    }

    /// HBM time of [`run_bytes`](Self::run_bytes) at stream bandwidth.
    fn memory_s(&self, shape: GemmShape, batch: usize, dtype: DType, kf: usize) -> f64 {
        cast::u64_to_f64(self.run_bytes(shape, batch, dtype, kf)) / self.stream_bw
    }

    /// HBM bytes of `batch` GEMMs at split factor `kf`: single-pass
    /// traffic plus the FP32 partial sums a split-K kernel writes and
    /// re-reads.
    fn run_bytes(&self, shape: GemmShape, batch: usize, dtype: DType, kf: usize) -> u64 {
        shape.ideal_bytes(dtype) * usize_to_u64(batch)
            + usize_to_u64(shape.m * shape.n * 4 * 2 * (kf - 1) * batch)
    }

    /// Cycle model for `batch` GEMMs under one tile choice, the cycles
    /// [`select_tile`](Self::select_tile) ranks. CTAs of all
    /// batch members co-occupy the SMs; up to `MAX_ILP_CTAS` co-resident
    /// CTAs recover issue-slot parallelism lost to small tiles.
    #[must_use]
    pub fn cycles(&self, shape: GemmShape, t: TileChoice, batch: usize, dtype: DType) -> f64 {
        let total_tiles = t.tiles * batch;
        let sm_count = self.matrix.count;
        let waves = total_tiles.div_ceil(sm_count);
        let ctas_per_sm = (total_tiles / sm_count).clamp(1, MAX_ILP_CTAS);
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

    /// Compute time of a run of `cycles` at `dtype`: the sustained clock,
    /// the dtype's slowdown and one launch.
    fn compute_s(&self, cycles: f64, dtype: DType) -> f64 {
        cycles * dtype_slowdown(&self.matrix, dtype) / (self.matrix.clock_hz * SUSTAINED_FRACTION)
            + LAUNCH_OVERHEAD_S
    }

    /// The run of `batch` GEMMs of `shape` on the selected entry `sel`.
    fn run(&self, batch: usize, shape: GemmShape, dtype: DType, sel: Ranked) -> GemmRun {
        let tile = sel.tile;
        let bytes = self.run_bytes(shape, batch, dtype, tile.split_k);
        GemmRun {
            cost: OpCost {
                engine: Engine::Matrix,
                compute_s: self.compute_s(sel.cycles, dtype),
                memory_s: cast::u64_to_f64(bytes) / self.stream_bw,
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
    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        self.run(batch, shape, dtype, self.select(shape, batch, dtype))
    }

    /// Answers from the unsplit scan alone when it can. The selected
    /// entry is the least-ranked unsplit tile, whose run computes for as
    /// long as that tile's cycles say, or a split entry, whose run moves
    /// at least the bytes of the least split factor. When both exceed
    /// `budget`, so does the run, and the split entries are not scored.
    fn batched_gemm_within(
        &self,
        batch: usize,
        shape: GemmShape,
        dtype: DType,
        budget: f64,
    ) -> Option<GemmRun> {
        let unsplit = self.rank_unsplit(shape, batch, dtype);
        let least_split = SPLIT_K_MENU[1];
        if budget < self.compute_s(unsplit.cycles, dtype)
            && (shape.k / least_split < MIN_SPLIT_K_DEPTH
                || budget < self.memory_s(shape, batch, dtype, least_split))
        {
            return None;
        }
        let run = self.run(
            batch,
            shape,
            dtype,
            self.rank_splits(shape, batch, dtype, unsplit),
        );
        if budget < run.cost.time() {
            None
        } else {
            Some(run)
        }
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

    /// BF16 compute utilization of `engine` on `shape` against `spec`'s
    /// peak.
    fn utilization(engine: &impl GemmEngine, spec: &DeviceSpec, shape: GemmShape) -> f64 {
        engine
            .gemm(shape, DType::Bf16)
            .utilization(spec.matrix.peak_flops(DType::Bf16))
    }

    #[test]
    fn large_square_gemm_is_fast_but_below_gaudi_utilization() {
        let a = tc();
        let g = GaudiMme::new(&DeviceSpec::gaudi2());
        let shape = GemmShape::square(8192);
        let au = utilization(&a, &DeviceSpec::a100(), shape);
        let gu = utilization(&g, &DeviceSpec::gaudi2(), shape);
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
        let spec = DeviceSpec::a100();
        let u2048 = utilization(&a, &spec, GemmShape::square(2048));
        let u8192 = utilization(&a, &spec, GemmShape::square(8192));
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
            gaps.push(
                utilization(&g, &DeviceSpec::gaudi2(), s) - utilization(&a, &DeviceSpec::a100(), s),
            );
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
        let fp32 = a
            .gemm(GemmShape::square(8192), DType::Fp32)
            .achieved_flops();
        assert!(fp32 <= 19.5e12 && fp32 > 0.8 * 19.5e12, "{fp32}");
    }

    #[test]
    fn small_gemm_is_launch_dominated() {
        let a = tc();
        let run = a.gemm(GemmShape::square(128), DType::Bf16);
        assert!(run.cost.time() >= LAUNCH_OVERHEAD_S);
        assert!(run.utilization(DeviceSpec::a100().matrix.peak_flops(DType::Bf16)) < 0.05);
    }
}
