//! Output-stationary systolic-array cycle model.
//!
//! An output-stationary array of `H × W` MACs computes an `H × W` output
//! tile by streaming `K` input slices through the array: one `k`-slice per
//! cycle once the pipeline is full. A GEMM of shape `(M, K, N)` therefore
//! needs `ceil(M/H) * ceil(N/W)` tiles; with `count` independent arrays the
//! tiles are distributed round-robin. Tiles whose `M`- or `N`-extent is
//! smaller than the array leave MAC rows/columns idle — the Figure 6(a)
//! pathology that reconfiguration fixes.

use crate::geometry::Geometry;
use crate::GemmShape;
use dcm_core::cast::usize_to_f64;
use serde::{Deserialize, Serialize};

/// Cycles a new tile costs beyond its `K` streaming cycles: accumulator
/// drain and input-skew switch. Double-buffered inputs hide the rest, so
/// this is small relative to the `H + W` one-off pipeline fill.
pub const TILE_SWITCH_CYCLES: usize = 32;

/// Cycle-level outcome of mapping a GEMM onto a systolic configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystolicRun {
    /// Total cycles from first input to last drained output.
    pub cycles: f64,
    /// Output tiles the GEMM was split into.
    pub tiles: usize,
    /// Sequential tile rounds per array after distributing over `count`.
    pub rounds: usize,
}

/// Map `batch` independent GEMMs of `shape` onto `geometry`: the tiles of
/// all batch members are distributed round-robin over the independent
/// arrays, so a batch of GEMV-like problems (decode attention) can still
/// fill a multi-array configuration. Each round streams `K` slices plus
/// the switch penalty, and the pipeline fill/drain (`height + width`) is
/// paid once — subsequent tiles are double-buffered.
///
/// # Panics
/// Panics if `batch` is zero.
#[must_use]
pub fn run_batched(shape: GemmShape, geometry: Geometry, batch: usize) -> SystolicRun {
    assert!(batch > 0, "batch must be positive");
    let tiles_m = shape.m.div_ceil(geometry.height);
    let tiles_n = shape.n.div_ceil(geometry.width);
    let tiles = tiles_m * tiles_n * batch;
    let rounds = tiles.div_ceil(geometry.count);
    let fill = usize_to_f64(geometry.height + geometry.width);
    let cycles =
        usize_to_f64(rounds) * (usize_to_f64(shape.k) + usize_to_f64(TILE_SWITCH_CYCLES)) + fill;
    SystolicRun {
        cycles,
        tiles,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MAC-level utilization of the mapping: useful MAC operations over MAC
    /// slots provided while the run occupied the *powered* geometry.
    fn mac_utilization(shape: GemmShape, geometry: Geometry) -> f64 {
        let useful = usize_to_f64(shape.m) * usize_to_f64(shape.k) * usize_to_f64(shape.n);
        let r = run_batched(shape, geometry, 1);
        let provided = r.cycles * usize_to_f64(geometry.macs());
        (useful / provided).min(1.0)
    }

    #[test]
    fn single_tile_costs_k_plus_overheads() {
        let g = Geometry::new(256, 256, 1);
        let r = run_batched(GemmShape::new(256, 1024, 256), g, 1);
        assert_eq!(r.tiles, 1);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.cycles, 1024.0 + TILE_SWITCH_CYCLES as f64 + 512.0);
    }

    #[test]
    fn tiles_round_up() {
        let g = Geometry::new(256, 256, 1);
        let r = run_batched(GemmShape::new(257, 128, 512), g, 1);
        assert_eq!(r.tiles, 2 * 2);
        assert_eq!(r.rounds, 4);
    }

    #[test]
    fn dual_arrays_halve_rounds() {
        let single = Geometry::new(256, 256, 1);
        let dual = Geometry::new(256, 256, 2);
        let shape = GemmShape::new(1024, 4096, 1024);
        let rs = run_batched(shape, single, 1);
        let rd = run_batched(shape, dual, 1);
        assert_eq!(rs.tiles, rd.tiles);
        assert_eq!(rd.rounds, rs.rounds / 2);
        assert!(rd.cycles < rs.cycles * 0.51);
    }

    #[test]
    fn tall_geometry_fixes_skinny_gemm() {
        // Figure 6: M=1024, N=128 GEMM. The fixed dual-256x256 layout needs
        // two sequential rounds; the fused 1024x128 array does it in one.
        let shape = GemmShape::new(1024, 16384, 128);
        let fixed = run_batched(shape, Geometry::new(256, 256, 2), 1);
        let tall = run_batched(shape, Geometry::new(1024, 128, 1), 1);
        assert_eq!(fixed.rounds, 2);
        assert_eq!(tall.rounds, 1);
        assert!(tall.cycles < fixed.cycles * 0.6);
    }

    #[test]
    fn mac_utilization_penalizes_partial_fill() {
        // N=16 on a 256-wide array wastes 240 of 256 columns.
        let shape = GemmShape::new(256, 16384, 16);
        let wide = mac_utilization(shape, Geometry::new(256, 256, 1));
        let narrow = mac_utilization(shape, Geometry::new(256, 64, 1));
        assert!(wide < 0.08, "wide array mostly idle: {wide}");
        assert!(narrow > wide * 3.0);
    }

    #[test]
    fn mac_utilization_bounded_by_one() {
        for &(m, k, n) in &[(64, 64, 64), (8192, 8192, 8192), (1, 1, 1), (1000, 3, 17)] {
            let u = mac_utilization(GemmShape::new(m, k, n), Geometry::new(256, 256, 2));
            assert!(u > 0.0 && u <= 1.0, "({m},{k},{n}): {u}");
        }
    }

    #[test]
    fn large_square_gemm_is_near_perfect() {
        let u = mac_utilization(GemmShape::square(8192), Geometry::new(256, 256, 2));
        assert!(u > 0.99, "{u}");
    }
}
