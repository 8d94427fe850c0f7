//! The Gaudi-2 MME model: geometry selection over a reconfigurable
//! output-stationary array, plus the fixed-geometry baseline used in the
//! Figure 7(c) ablation.

use crate::geometry::{gaudi_candidates, Geometry};
use crate::systolic::{self, CeilDiv, SystolicRun, TILE_SWITCH_CYCLES};
use crate::{GemmConfig, GemmEngine, GemmRun, GemmShape};
use dcm_core::cast::{u64_to_f64, usize_to_f64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::DeviceSpec;
use dcm_core::DType;
use serde::{Deserialize, Serialize};

/// Fraction of the nominal clock the MME sustains under load. Gaudi-2 holds
/// its clock under full MME activity (the paper measures 99.3% of peak at
/// 8192³, Figure 4).
const SUSTAINED_FRACTION: f64 = 0.997;

/// Per-GEMM dispatch overhead in seconds. Gaudi executes pre-compiled
/// graphs (HPU graphs, §3.5), so per-operator overhead is small.
const LAUNCH_OVERHEAD_S: f64 = 2.0e-6;

/// One geometry of the search menu with its tile arithmetic decoded once,
/// so that scoring it costs shifts, multiplies and an integer compare: no
/// float, and no division unless the array count is not a power of two.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    geometry: Geometry,
    height: CeilDiv,
    width: CeilDiv,
    count: CeilDiv,
    /// Pipeline fill/drain, `height + width` cycles.
    fill: usize,
    macs: usize,
}

impl Candidate {
    fn new(geometry: Geometry) -> Self {
        Candidate {
            geometry,
            height: CeilDiv::new(geometry.height),
            width: CeilDiv::new(geometry.width),
            count: CeilDiv::new(geometry.count),
            fill: geometry.height + geometry.width,
            macs: geometry.macs(),
        }
    }
}

/// Whether `a` has strictly fewer cycles than `b` on every GEMM, so that
/// `b` can never be selected: `b` fuses `a`'s arrays `p × q` at a time,
/// `b = (p·h, q·w, c / (p·q))` with `p·q > 1`. A `b` tile covers at most
/// `p·q` of `a`'s tiles and `b` has `p·q` times fewer arrays, so `b`
/// needs at least as many rounds as `a`; and `b`'s fill `p·h + q·w` is
/// longer than `h + w`. (Below cycle-count saturation at `usize::MAX`.)
fn dominates(a: Geometry, b: Geometry) -> bool {
    b.height.is_multiple_of(a.height) && b.width.is_multiple_of(a.width) && {
        let fused = (b.height / a.height) * (b.width / a.width);
        fused > 1 && a.count == fused * b.count
    }
}

/// The geometries worth scoring: `candidates` minus every geometry some
/// other candidate [`dominates`]. On Gaudi-2 this keeps 16 of 36 — every
/// fused single array loses to the same MACs split into two arrays of half
/// the size, except the smallest gated 64×64.
fn search_menu(candidates: &[Geometry]) -> Vec<Candidate> {
    candidates
        .iter()
        .filter(|&&b| !candidates.iter().any(|&a| dominates(a, b)))
        .map(|&g| Candidate::new(g))
        .collect()
}

/// Gaudi-2's reconfigurable MME complex.
///
/// For every GEMM the graph compiler picks the geometry that minimizes
/// cycle count; ties are broken toward the geometry powering the fewest
/// MACs, modeling the power-gated sub-array configurations observed in
/// Figure 7(a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaudiMme {
    name: String,
    candidates: Vec<Candidate>,
    mac_budget: usize,
    clock_hz: f64,
    peak_bf16: f64,
    fp32_factor: f64,
    stream_bw: f64,
}

impl GaudiMme {
    /// Build the model from a device spec (normally [`DeviceSpec::gaudi2`]).
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        let m = &spec.matrix;
        GaudiMme {
            name: format!("{} MME", spec.name),
            candidates: search_menu(&gaudi_candidates(m.mac_rows, m.mac_cols, m.count)),
            mac_budget: m.mac_rows * m.mac_cols * m.count,
            clock_hz: m.clock_hz,
            peak_bf16: m.peak_flops_bf16,
            fp32_factor: m.fp32_factor,
            stream_bw: spec.memory.stream_bandwidth(),
        }
    }

    /// The geometry the compiler pass selects for `shape` — the
    /// reverse-engineered mapping of Figure 7(a).
    #[must_use]
    pub fn select_geometry(&self, shape: GemmShape) -> Geometry {
        self.select_geometry_batched(shape, 1)
    }

    /// Geometry selection for a batched dispatch.
    #[must_use]
    pub fn select_geometry_batched(&self, shape: GemmShape, batch: usize) -> Geometry {
        self.search(shape, batch).0
    }

    /// The geometry with the fewest cycles for `batch` GEMMs of `shape`,
    /// ties to the fewest powered MACs and then to the earlier menu entry,
    /// together with its [`systolic::run_batched`] run.
    ///
    /// Cycle counts are integers, so the search compares them exactly in
    /// integer arithmetic (saturating at `usize::MAX`). Below 2^53 cycles —
    /// any GEMM shorter than about two months of MME time — `f64` cycles
    /// are exact too, and the order is the one `run_batched`'s cycles give.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    fn search(&self, shape: GemmShape, batch: usize) -> (Geometry, SystolicRun) {
        assert!(batch > 0, "batch must be positive");
        let per_round = shape.k.saturating_add(TILE_SWITCH_CYCLES);
        let mut best: Option<(usize, &Candidate, usize, usize)> = None;
        for c in &self.candidates {
            let tiles = c.height.of(shape.m) * c.width.of(shape.n) * batch;
            let rounds = c.count.of(tiles);
            let cycles = rounds.saturating_mul(per_round).saturating_add(c.fill);
            if best.is_none_or(|(bc, b, ..)| cycles < bc || (cycles == bc && c.macs < b.macs)) {
                best = Some((cycles, c, tiles, rounds));
            }
        }
        // dcm-lint: allow(P1) the menu keeps every undominated geometry, so never empties
        let (_, c, tiles, rounds) = best.expect("candidate list is never empty");
        (
            c.geometry,
            SystolicRun::new(shape, c.geometry, tiles, rounds),
        )
    }

    fn dtype_slowdown(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Bf16 | DType::Fp16 => 1.0,
            DType::Fp32 | DType::Int32 => 1.0 / self.fp32_factor,
            DType::Int8 => 0.5,
        }
    }
}

impl GemmEngine for GaudiMme {
    fn gemm(&self, shape: GemmShape, dtype: DType) -> GemmRun {
        self.batched_gemm(1, shape, dtype)
    }

    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        let (geometry, run) = self.search(shape, batch);
        let compute_s = run.cycles * self.dtype_slowdown(dtype)
            / (self.clock_hz * SUSTAINED_FRACTION)
            + LAUNCH_OVERHEAD_S;
        let bytes = shape.ideal_bytes(dtype) * u64::try_from(batch).unwrap_or(u64::MAX);
        let memory_s = u64_to_f64(bytes) / self.stream_bw;
        GemmRun {
            cost: OpCost {
                engine: Engine::Matrix,
                compute_s,
                memory_s,
                flops: shape.flops() * usize_to_f64(batch),
                bus_bytes: bytes,
                useful_bytes: bytes,
            },
            config: GemmConfig::Geometry(geometry),
            powered_fraction: geometry.powered_fraction(self.mac_budget),
        }
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

/// Non-configurable output-stationary baseline with the same MAC budget as
/// the MME (two fixed 256×256 arrays) — the white bars of Figure 7(c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedSystolicBaseline {
    name: String,
    geometry: Geometry,
    mac_budget: usize,
    clock_hz: f64,
    peak_bf16: f64,
    fp32_factor: f64,
    stream_bw: f64,
}

impl FixedSystolicBaseline {
    /// Build the baseline from a device spec, locking the stock geometry.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        let m = &spec.matrix;
        FixedSystolicBaseline {
            name: format!("fixed {}x{}x{}", m.mac_rows, m.mac_cols, m.count),
            geometry: Geometry::new(m.mac_rows, m.mac_cols, m.count),
            mac_budget: m.mac_rows * m.mac_cols * m.count,
            clock_hz: m.clock_hz,
            peak_bf16: m.peak_flops_bf16,
            fp32_factor: m.fp32_factor,
            stream_bw: spec.memory.stream_bandwidth(),
        }
    }

    fn dtype_slowdown(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Bf16 | DType::Fp16 => 1.0,
            DType::Fp32 | DType::Int32 => 1.0 / self.fp32_factor,
            DType::Int8 => 0.5,
        }
    }
}

impl GemmEngine for FixedSystolicBaseline {
    fn gemm(&self, shape: GemmShape, dtype: DType) -> GemmRun {
        self.batched_gemm(1, shape, dtype)
    }

    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        let run = systolic::run_batched(shape, self.geometry, batch);
        let compute_s = run.cycles * self.dtype_slowdown(dtype)
            / (self.clock_hz * SUSTAINED_FRACTION)
            + LAUNCH_OVERHEAD_S;
        let bytes = shape.ideal_bytes(dtype) * u64::try_from(batch).unwrap_or(u64::MAX);
        let memory_s = u64_to_f64(bytes) / self.stream_bw;
        GemmRun {
            cost: OpCost {
                engine: Engine::Matrix,
                compute_s,
                memory_s,
                flops: shape.flops() * usize_to_f64(batch),
                bus_bytes: bytes,
                useful_bytes: bytes,
            },
            config: GemmConfig::Geometry(self.geometry),
            // A fixed array cannot gate geometry it does not know is unused.
            powered_fraction: 1.0,
        }
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
    use dcm_core::DeviceSpec;

    fn mme() -> GaudiMme {
        GaudiMme::new(&DeviceSpec::gaudi2())
    }

    fn fixed() -> FixedSystolicBaseline {
        FixedSystolicBaseline::new(&DeviceSpec::gaudi2())
    }

    #[test]
    fn peak_gemm_reaches_99_percent() {
        // Figure 4: 429 of 432 TFLOPS at M=K=N=8192 (99.3%).
        let run = mme().gemm(GemmShape::square(8192), DType::Bf16);
        let util = run.utilization(mme().peak_flops(DType::Bf16));
        assert!(util > 0.985, "{util}");
        assert!(run.achieved_flops() > 425e12, "{}", run.achieved_flops());
    }

    #[test]
    fn search_menu_drops_fused_singles() {
        let menu = mme().candidates;
        assert_eq!(menu.len(), 16);
        assert!(menu
            .iter()
            .all(|c| c.geometry.count == 2 || c.geometry == Geometry::new(64, 64, 1)));
        // 512x256 fuses 256x256x2's arrays; 128x128x4 would fuse into it.
        assert!(dominates(
            Geometry::new(256, 256, 2),
            Geometry::new(512, 256, 1)
        ));
        assert!(dominates(
            Geometry::new(128, 128, 4),
            Geometry::new(256, 256, 1)
        ));
        assert!(!dominates(
            Geometry::new(256, 256, 2),
            Geometry::new(256, 256, 2)
        ));
        assert!(!dominates(
            Geometry::new(128, 256, 2),
            Geometry::new(256, 128, 1)
        ));
    }

    #[test]
    fn geometry_selection_prefers_tall_arrays_for_skinny_gemms() {
        // Figure 7(a): large M with small N selects tall fused arrays.
        let g = mme().select_geometry(GemmShape::new(16384, 16384, 128));
        assert!(g.height > g.width, "selected {g}");
        assert!(g.height >= 512);
    }

    #[test]
    fn geometry_selection_gates_small_gemms() {
        // Figure 7(a) gray region: small GEMMs power only a sub-array.
        let run = mme().gemm(GemmShape::new(128, 16384, 64), DType::Bf16);
        assert!(run.powered_fraction < 0.5, "{}", run.powered_fraction);
    }

    #[test]
    fn full_budget_for_large_square() {
        let run = mme().gemm(GemmShape::square(8192), DType::Bf16);
        assert!((run.powered_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn configurable_beats_fixed_on_irregular_shapes() {
        // Figure 7(c): up to ~15 pp utilization gain from reconfigurability
        // for K=M=16384 with small N.
        let peak = mme().peak_flops(DType::Bf16);
        let mut max_gain = 0.0_f64;
        for n in [64usize, 128, 256, 512] {
            let shape = GemmShape::new(16384, 16384, n);
            let cfg = mme().gemm(shape, DType::Bf16).utilization(peak);
            let fix = fixed().gemm(shape, DType::Bf16).utilization(peak);
            assert!(cfg >= fix - 1e-9, "n={n}: {cfg} < {fix}");
            max_gain = max_gain.max(cfg - fix);
        }
        assert!(max_gain > 0.05, "max gain {max_gain}");
        assert!(
            max_gain < 0.30,
            "max gain {max_gain} too large to be credible"
        );
    }

    #[test]
    fn configurable_never_slower_than_fixed() {
        for &(m, k, n) in &[
            (64, 64, 64),
            (512, 512, 512),
            (2048, 2048, 2048),
            (8192, 8192, 16),
            (16384, 16384, 128),
            (100, 1000, 10),
        ] {
            let shape = GemmShape::new(m, k, n);
            let c = mme().gemm(shape, DType::Bf16).cost.time();
            let f = fixed().gemm(shape, DType::Bf16).cost.time();
            assert!(c <= f + 1e-12, "({m},{k},{n}): {c} > {f}");
        }
    }

    #[test]
    fn fp32_runs_at_reduced_rate() {
        let m = mme();
        assert!((m.peak_flops(DType::Fp32) - 13.5e12).abs() < 1e9);
        let shape = GemmShape::square(4096);
        let b = m.gemm(shape, DType::Bf16).cost.compute_s;
        let f = m.gemm(shape, DType::Fp32).cost.compute_s;
        assert!(f > b * 3.0, "fp32 {f} vs bf16 {b}");
    }

    #[test]
    fn irregular_gemm_is_memory_bound() {
        // N=16 triangles of Figure 4 sit on the bandwidth slope.
        let run = mme().gemm(GemmShape::new(8192, 8192, 16), DType::Bf16);
        assert!(run.cost.memory_s >= run.cost.compute_s);
    }

    #[test]
    fn names_are_informative() {
        assert!(mme().name().contains("MME"));
        assert!(fixed().name().contains("fixed"));
    }
}
