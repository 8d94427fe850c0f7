//! Roofline model (Figure 4 of the paper).
//!
//! A kernel with operational intensity `oi` (FLOP per byte of HBM traffic)
//! can at best achieve `min(peak_flops, oi * bandwidth)`. The figure plots
//! achieved TFLOPS of real GEMM executions against this envelope for both
//! devices.

use crate::dtype::DType;
use crate::specs::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Which side of the ridge point a kernel sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Boundedness {
    /// Limited by HBM bandwidth (left of the ridge).
    MemoryBound,
    /// Limited by peak arithmetic throughput (right of the ridge).
    ComputeBound,
}

/// The roofline envelope of one device for one data type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    peak_flops: f64,
    bandwidth: f64,
}

impl Roofline {
    /// Roofline of `spec`'s *matrix* engine at `dtype` (Figure 4 uses the
    /// MME / Tensor Core peak).
    #[must_use]
    pub fn matrix(spec: &DeviceSpec, dtype: DType) -> Self {
        Roofline {
            peak_flops: spec.matrix_peak_flops(dtype),
            bandwidth: spec.hbm_bandwidth(),
        }
    }

    /// The ridge point: the intensity at which the kernel stops being
    /// memory-bound.
    #[must_use]
    pub fn ridge(&self) -> f64 {
        self.peak_flops / self.bandwidth
    }

    /// Classify a kernel of intensity `oi`.
    #[must_use]
    pub fn classify(&self, oi: f64) -> Boundedness {
        if oi < self.ridge() {
            Boundedness::MemoryBound
        } else {
            Boundedness::ComputeBound
        }
    }

    /// Peak FLOP/s of this roofline.
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cast::usize_to_f64;

    /// FLOPs per byte of a bf16 GEMM that reads and writes each matrix
    /// from HBM once.
    fn bf16_gemm_intensity(m: usize, k: usize, n: usize) -> f64 {
        let flops = 2.0 * usize_to_f64(m) * usize_to_f64(k) * usize_to_f64(n);
        flops / usize_to_f64((m * k + k * n + m * n) * 2)
    }

    #[test]
    fn classification_matches_ridge() {
        let r = Roofline {
            peak_flops: 100.0,
            bandwidth: 10.0,
        };
        assert_eq!(r.ridge(), 10.0);
        assert_eq!(r.classify(5.0), Boundedness::MemoryBound);
        assert_eq!(r.classify(50.0), Boundedness::ComputeBound);
    }

    #[test]
    fn gaudi_matrix_roofline_peaks_at_432() {
        let g = DeviceSpec::gaudi2();
        let r = Roofline::matrix(&g, DType::Bf16);
        assert!((r.peak_flops() - 432e12).abs() < 1e9);
    }

    #[test]
    fn irregular_gemm_is_memory_bound() {
        // N=16 "tall and skinny" GEMMs behave like GEMV (§3.2).
        let g = DeviceSpec::gaudi2();
        let r = Roofline::matrix(&g, DType::Bf16);
        let oi = bf16_gemm_intensity(8192, 8192, 16);
        assert_eq!(r.classify(oi), Boundedness::MemoryBound);
    }

    #[test]
    fn large_square_gemm_is_compute_bound_on_both() {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let r = Roofline::matrix(&spec, DType::Bf16);
            let oi = bf16_gemm_intensity(8192, 8192, 8192);
            assert_eq!(r.classify(oi), Boundedness::ComputeBound, "{}", spec.name);
        }
    }
}
