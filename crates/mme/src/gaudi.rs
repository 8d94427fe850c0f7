//! The Gaudi-2 MME model: geometry selection over a reconfigurable
//! output-stationary array. Locked to its stock geometry
//! ([`GaudiMme::fixed`]) it is the non-configurable baseline of the
//! Figure 7(c) ablation.

use crate::geometry::{gaudi_candidates, Geometry};
use crate::systolic::{self, SystolicRun};
use crate::{dtype_slowdown, GemmConfig, GemmEngine, GemmRun, GemmShape};
use dcm_core::cast::{u64_to_f64, usize_to_f64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::{DeviceSpec, MatrixEngineSpec};
use dcm_core::DType;
use serde::{Deserialize, Serialize};

/// Fraction of the nominal clock the MME sustains under load. Gaudi-2 holds
/// its clock under full MME activity (the paper measures 99.3% of peak at
/// 8192³, Figure 4).
const SUSTAINED_FRACTION: f64 = 0.997;

/// Per-GEMM dispatch overhead in seconds. Gaudi executes pre-compiled
/// graphs (HPU graphs, §3.5), so per-operator overhead is small.
const LAUNCH_OVERHEAD_S: f64 = 2.0e-6;

/// Whether `a` has strictly fewer cycles than `b` on every GEMM, so that
/// `b` can never be selected: `b` fuses `a`'s arrays `p × q` at a time,
/// `b = (p·h, q·w, c / (p·q))` with `p·q > 1`. A `b` tile covers at most
/// `p·q` of `a`'s tiles and `b` has `p·q` times fewer arrays, so `b`
/// needs at least as many rounds as `a`; and `b`'s fill `p·h + q·w` is
/// longer than `h + w`.
fn dominates(a: Geometry, b: Geometry) -> bool {
    b.height.is_multiple_of(a.height) && b.width.is_multiple_of(a.width) && {
        let fused = (b.height / a.height) * (b.width / a.width);
        fused > 1 && a.count == fused * b.count
    }
}

/// The geometries worth pricing: `candidates` minus every geometry some
/// other candidate [`dominates`]. On Gaudi-2 this keeps 16 of 36 — every
/// fused single array loses to the same MACs split into two arrays of half
/// the size, except the smallest gated 64×64.
fn search_menu(candidates: &[Geometry]) -> Vec<Geometry> {
    candidates
        .iter()
        .copied()
        .filter(|&b| !candidates.iter().any(|&a| dominates(a, b)))
        .collect()
}

/// Gaudi-2's reconfigurable MME complex.
///
/// For every GEMM the graph compiler picks the geometry of its menu that
/// minimizes cycle count; ties are broken toward the geometry powering the
/// fewest MACs, modeling the power-gated sub-array configurations observed
/// in Figure 7(a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaudiMme {
    menu: Vec<Geometry>,
    matrix: MatrixEngineSpec,
    stream_bw: f64,
}

impl GaudiMme {
    /// Build the model from a device spec (normally [`DeviceSpec::gaudi2`]).
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        let m = &spec.matrix;
        Self::with_menu(
            spec,
            search_menu(&gaudi_candidates(m.mac_rows, m.mac_cols, m.count)),
        )
    }

    /// The MME with reconfiguration switched off (§3.2): its menu holds
    /// only the stock geometry, `count` arrays of `mac_rows × mac_cols`
    /// (2 × 256×256 on Gaudi-2), which powers every MAC. The white bars of
    /// Figure 7(c).
    #[must_use]
    pub fn fixed(spec: &DeviceSpec) -> Self {
        let m = &spec.matrix;
        Self::with_menu(spec, vec![Geometry::new(m.mac_rows, m.mac_cols, m.count)])
    }

    fn with_menu(spec: &DeviceSpec, menu: Vec<Geometry>) -> Self {
        GaudiMme {
            menu,
            matrix: spec.matrix.clone(),
            stream_bw: spec.memory.stream_bandwidth(),
        }
    }

    /// The geometry the compiler pass selects for a dispatch of `batch`
    /// GEMMs of `shape`; at `batch` 1, the reverse-engineered mapping of
    /// Figure 7(a).
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn select_geometry(&self, shape: GemmShape, batch: usize) -> Geometry {
        self.search(shape, batch).0
    }

    /// The menu entry with the fewest [`systolic::run_batched`] cycles for
    /// `batch` GEMMs of `shape`, ties to the fewest powered MACs and then
    /// to the earlier entry, together with its run.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    fn search(&self, shape: GemmShape, batch: usize) -> (Geometry, SystolicRun) {
        let mut best: Option<(Geometry, SystolicRun)> = None;
        for &g in &self.menu {
            let run = systolic::run_batched(shape, g, batch);
            if best.is_none_or(|(b, r)| {
                run.cycles < r.cycles || (run.cycles == r.cycles && g.macs() < b.macs())
            }) {
                best = Some((g, run));
            }
        }
        // dcm-lint: allow(P1) `new`'s menu keeps every undominated geometry and `fixed`'s holds one
        best.expect("geometry menu is never empty")
    }
}

impl GemmEngine for GaudiMme {
    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        let (geometry, run) = self.search(shape, batch);
        let m = &self.matrix;
        let compute_s = run.cycles * dtype_slowdown(m, dtype) / (m.clock_hz * SUSTAINED_FRACTION)
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
            powered_fraction: geometry.powered_fraction(m.mac_rows * m.mac_cols * m.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::DeviceSpec;

    fn mme() -> GaudiMme {
        GaudiMme::new(&DeviceSpec::gaudi2())
    }

    fn fixed() -> GaudiMme {
        GaudiMme::fixed(&DeviceSpec::gaudi2())
    }

    fn peak(dtype: DType) -> f64 {
        DeviceSpec::gaudi2().matrix.peak_flops(dtype)
    }

    #[test]
    fn peak_gemm_reaches_99_percent() {
        // Figure 4: 429 of 432 TFLOPS at M=K=N=8192 (99.3%).
        let run = mme().gemm(GemmShape::square(8192), DType::Bf16);
        let util = run.utilization(peak(DType::Bf16));
        assert!(util > 0.985, "{util}");
        assert!(run.achieved_flops() > 425e12, "{}", run.achieved_flops());
    }

    #[test]
    fn search_menu_drops_fused_singles() {
        let menu = mme().menu;
        assert_eq!(menu.len(), 16);
        assert!(menu
            .iter()
            .all(|g| g.count == 2 || *g == Geometry::new(64, 64, 1)));
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
        let g = mme().select_geometry(GemmShape::new(16384, 16384, 128), 1);
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
        let peak = peak(DType::Bf16);
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
        // FP32 decomposes into BF16 passes at 1/32 of the BF16 rate:
        // ~13.5 TFLOPS, which a large square GEMM nearly reaches.
        let m = mme();
        let fp32 = m
            .gemm(GemmShape::square(8192), DType::Fp32)
            .achieved_flops();
        assert!(fp32 <= peak(DType::Fp32) && fp32 > 13.3e12, "{fp32}");
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
}
