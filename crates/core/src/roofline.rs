//! Roofline model (Figure 4 of the paper).
//!
//! A kernel with operational intensity `oi` (FLOP per byte of HBM traffic)
//! can at best achieve `min(peak_flops, oi * bandwidth)`. The figure plots
//! achieved TFLOPS of real GEMM executions against this envelope for both
//! devices.

use crate::cast::usize_to_f64;
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

/// One point on (or under) the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Operational intensity in FLOP/byte.
    pub intensity: f64,
    /// Achieved performance in FLOP/s.
    pub achieved_flops: f64,
    /// Attainable performance at this intensity in FLOP/s.
    pub attainable_flops: f64,
}

impl RooflinePoint {
    /// Fraction of the attainable roofline actually achieved.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.attainable_flops > 0.0 {
            self.achieved_flops / self.attainable_flops
        } else {
            0.0
        }
    }
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

    /// Roofline of `spec`'s *vector* engine at `dtype` (Figure 8 saturation
    /// analysis).
    #[must_use]
    pub fn vector(spec: &DeviceSpec, dtype: DType) -> Self {
        Roofline {
            peak_flops: spec.vector_peak_flops(dtype),
            bandwidth: spec.hbm_bandwidth(),
        }
    }

    /// Roofline from raw peaks.
    #[must_use]
    pub fn from_peaks(peak_flops: f64, bandwidth: f64) -> Self {
        assert!(peak_flops > 0.0 && bandwidth > 0.0);
        Roofline {
            peak_flops,
            bandwidth,
        }
    }

    /// Attainable FLOP/s at operational intensity `oi`.
    #[must_use]
    pub fn attainable(&self, oi: f64) -> f64 {
        (oi * self.bandwidth).min(self.peak_flops)
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

    /// Build a roofline point from an achieved measurement.
    #[must_use]
    pub fn point(&self, oi: f64, achieved_flops: f64) -> RooflinePoint {
        RooflinePoint {
            intensity: oi,
            achieved_flops,
            attainable_flops: self.attainable(oi),
        }
    }

    /// Peak FLOP/s of this roofline.
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops
    }

    /// Bandwidth of this roofline in bytes/s.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }
}

/// Operational intensity of a GEMM of shape `(m, k, n)` at element size
/// `elem_bytes`, assuming each matrix is read/written from HBM exactly once
/// (the best case a graph compiler can arrange for a single GEMM).
#[must_use]
pub fn gemm_intensity(m: usize, k: usize, n: usize, elem_bytes: usize) -> f64 {
    let flops = 2.0 * usize_to_f64(m) * usize_to_f64(k) * usize_to_f64(n);
    let bytes = usize_to_f64((m * k + k * n + m * n) * elem_bytes);
    flops / bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attainable_is_min_of_slopes() {
        let r = Roofline::from_peaks(100.0, 10.0);
        assert_eq!(r.attainable(1.0), 10.0);
        assert_eq!(r.attainable(10.0), 100.0);
        assert_eq!(r.attainable(100.0), 100.0);
        assert_eq!(r.ridge(), 10.0);
    }

    #[test]
    fn classification_matches_ridge() {
        let r = Roofline::from_peaks(100.0, 10.0);
        assert_eq!(r.classify(5.0), Boundedness::MemoryBound);
        assert_eq!(r.classify(50.0), Boundedness::ComputeBound);
    }

    #[test]
    fn gaudi_matrix_roofline_peaks_at_432() {
        let g = DeviceSpec::gaudi2();
        let r = Roofline::matrix(&g, DType::Bf16);
        assert!((r.attainable(1e9) - 432e12).abs() < 1e9);
    }

    #[test]
    fn square_gemm_intensity_grows_with_size() {
        let small = gemm_intensity(128, 128, 128, 2);
        let large = gemm_intensity(8192, 8192, 8192, 2);
        assert!(large > small);
        // For square NxNxN bf16: OI = 2N^3 / (3*N^2*2) = N/3.
        assert!((large - 8192.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn irregular_gemm_is_memory_bound() {
        // N=16 "tall and skinny" GEMMs behave like GEMV (§3.2).
        let g = DeviceSpec::gaudi2();
        let r = Roofline::matrix(&g, DType::Bf16);
        let oi = gemm_intensity(8192, 8192, 16, 2);
        assert_eq!(r.classify(oi), Boundedness::MemoryBound);
    }

    #[test]
    fn large_square_gemm_is_compute_bound_on_both() {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let r = Roofline::matrix(&spec, DType::Bf16);
            let oi = gemm_intensity(8192, 8192, 8192, 2);
            assert_eq!(r.classify(oi), Boundedness::ComputeBound, "{}", spec.name);
        }
    }

    #[test]
    fn point_efficiency() {
        let r = Roofline::from_peaks(100.0, 10.0);
        let p = r.point(20.0, 80.0);
        assert!((p.efficiency() - 0.8).abs() < 1e-12);
        let z = r.point(20.0, 0.0);
        assert_eq!(z.efficiency(), 0.0);
    }

    #[test]
    #[should_panic]
    fn from_peaks_rejects_zero() {
        let _ = Roofline::from_peaks(0.0, 1.0);
    }
}
