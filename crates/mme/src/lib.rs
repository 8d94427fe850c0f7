//! # dcm-mme
//!
//! GEMM engine models: Gaudi-2's *reconfigurable* Matrix Multiplication
//! Engine and the A100's Tensor Cores. The non-configurable baseline of
//! the Figure 7(c) ablation is the MME locked to its stock geometry
//! ([`GaudiMme::fixed`]).
//!
//! The central mechanism (§3.2 of the paper) is geometry: Gaudi-2's two
//! 256×256 MAC arrays can fuse into 512×256, 1024×128 and other shapes so
//! that tall/skinny GEMMs fill the array, where a fixed array would idle
//! most of its MACs (Figure 6). The A100 instead tiles GEMMs over 108 SMs
//! with fixed CTA tile shapes and pays wave quantization.
//!
//! ```
//! use dcm_core::{DType, DeviceSpec};
//! use dcm_mme::{GaudiMme, GemmEngine, GemmShape, A100TensorCore};
//!
//! let gaudi = GaudiMme::new(&DeviceSpec::gaudi2());
//! let a100 = A100TensorCore::new(&DeviceSpec::a100());
//! let shape = GemmShape::new(8192, 8192, 8192);
//! let g = gaudi.gemm(shape, DType::Bf16);
//! let a = a100.gemm(shape, DType::Bf16);
//! // Figure 4: Gaudi-2 reaches ~429 TFLOPS at 8192^3, beating A100.
//! assert!(g.achieved_flops() > 420e12);
//! assert!(g.achieved_flops() > a.achieved_flops());
//! ```

pub mod a100;
pub mod gaudi;
pub mod geometry;
pub mod systolic;

pub use a100::A100TensorCore;
pub use gaudi::GaudiMme;
pub use geometry::Geometry;

use dcm_core::cast::{u64_to_f64, usize_to_f64, usize_to_u64};
use dcm_core::cost::OpCost;
use dcm_core::specs::MatrixEngineSpec;
use dcm_core::DType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A GEMM problem: `C[m][n] += A[m][k] * B[k][n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Rows of A and C.
    pub m: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Columns of B and C.
    pub n: usize,
}

impl GemmShape {
    /// Create a GEMM shape.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        assert!(m > 0 && k > 0 && n > 0, "GEMM dimensions must be positive");
        GemmShape { m, k, n }
    }

    /// Square shape `m = k = n` (the square markers of Figure 4).
    #[must_use]
    pub fn square(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Floating-point operations of the GEMM (multiply + accumulate).
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * usize_to_f64(self.m) * usize_to_f64(self.k) * usize_to_f64(self.n)
    }

    /// Single-pass HBM traffic in bytes: each operand read once, the result
    /// written once (what an SRAM-blocked schedule achieves for these
    /// shapes).
    #[must_use]
    pub fn ideal_bytes(&self, dtype: DType) -> u64 {
        usize_to_u64((self.m * self.k + self.k * self.n + self.m * self.n) * dtype.size_bytes())
    }

    /// Operational intensity in FLOP/byte at single-pass traffic.
    #[must_use]
    pub fn intensity(&self, dtype: DType) -> f64 {
        self.flops() / u64_to_f64(self.ideal_bytes(dtype))
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}x{}x{})", self.m, self.k, self.n)
    }
}

/// The geometry / tile an engine chose for one GEMM. Copyable so per-op
/// cost evaluation never allocates (lint rule A1); render with `Display`
/// only when a report actually prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GemmConfig {
    /// An A100-style CTA tiling with split-K and batch factors.
    Cta {
        /// CTA tile rows.
        height: usize,
        /// CTA tile columns.
        width: usize,
        /// Split-K factor.
        split_k: usize,
        /// Batched-GEMM batch size.
        batch: usize,
    },
    /// A Gaudi-style MAC-array geometry.
    Geometry(Geometry),
}

impl fmt::Display for GemmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemmConfig::Cta {
                height,
                width,
                split_k,
                batch,
            } => write!(f, "cta{height}x{width}k{split_k}b{batch}"),
            GemmConfig::Geometry(g) => g.fmt(f),
        }
    }
}

/// Result of executing one GEMM on a modeled engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmRun {
    /// Timing and traffic of the execution.
    pub cost: OpCost,
    /// The chosen geometry / tile (human-readable via `Display`).
    pub config: GemmConfig,
    /// Fraction of the engine's MAC capacity powered during the run (< 1
    /// when Gaudi power-gates an unused sub-array; always 1 on A100).
    pub powered_fraction: f64,
}

impl GemmRun {
    /// Achieved FLOP/s over the run's wall time.
    #[must_use]
    pub fn achieved_flops(&self) -> f64 {
        self.cost.achieved_flops()
    }

    /// Compute utilization: achieved FLOP/s over `peak` FLOP/s — the metric
    /// of Figures 5 and 7.
    #[must_use]
    pub fn utilization(&self, peak_flops: f64) -> f64 {
        self.achieved_flops() / peak_flops
    }
}

/// How many times longer a GEMM takes at `dtype` than at BF16 on `spec`'s
/// matrix engine: the BF16 peak over `dtype`'s
/// [`peak_flops`](MatrixEngineSpec::peak_flops). Exactly 1, 32, 16 or ½ for
/// the shipped specs, whose `fp32_factor`s are powers of two.
pub(crate) fn dtype_slowdown(spec: &MatrixEngineSpec, dtype: DType) -> f64 {
    spec.peak_flops_bf16 / spec.peak_flops(dtype)
}

/// A GEMM execution engine (implemented by the two models in this crate).
pub trait GemmEngine {
    /// Execute `shape` at `dtype`, returning timing and configuration: a
    /// [`batched_gemm`](Self::batched_gemm) of one.
    fn gemm(&self, shape: GemmShape, dtype: DType) -> GemmRun {
        self.batched_gemm(1, shape, dtype)
    }

    /// Execute `batch` independent GEMMs of `shape` dispatched together
    /// (attention score/value products). Tiles of all batch members fill
    /// the engine jointly, so GEMV-like members still reach high
    /// occupancy; launch overhead is paid once.
    ///
    /// Every engine reads each operand and writes the result at least
    /// once, at its spec's stream bandwidth: the run's `memory_s` is never
    /// below `shape.ideal_bytes(dtype) × batch` bytes at that bandwidth.
    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun;

    /// [`batched_gemm`](Self::batched_gemm)'s run, or `None` when that run
    /// takes longer than `budget` seconds. An engine may answer `None`
    /// without finishing its search.
    fn batched_gemm_within(
        &self,
        batch: usize,
        shape: GemmShape,
        dtype: DType,
        budget: f64,
    ) -> Option<GemmRun> {
        let run = self.batched_gemm(batch, shape, dtype);
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

    #[test]
    fn shape_flops_and_bytes() {
        let s = GemmShape::new(64, 32, 16);
        assert_eq!(s.flops(), 2.0 * 64.0 * 32.0 * 16.0);
        assert_eq!(
            s.ideal_bytes(DType::Bf16),
            ((64 * 32 + 32 * 16 + 64 * 16) * 2) as u64
        );
        assert_eq!(s.to_string(), "(64x32x16)");
    }

    #[test]
    fn square_helper() {
        let s = GemmShape::square(128);
        assert_eq!((s.m, s.k, s.n), (128, 128, 128));
        // Square bf16 intensity is n/3.
        assert!((s.intensity(DType::Bf16) - 128.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = GemmShape::new(0, 1, 1);
    }
}
