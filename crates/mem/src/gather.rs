//! Vector gather/scatter engine (Figure 9, §3.3).
//!
//! Modeled after the paper's GUPS-inspired microbenchmark: read (gather) or
//! write (scatter) vectors at uniformly random rows of a large 2-D array.
//! The engine provides both a *timed* path (row counts and sizes only, so
//! the full 4M-row experiment runs without allocating gigabytes) and a
//! *functional* path over [`Tensor`]s used by the embedding operators and
//! their correctness tests.

use crate::hbm::{AccessPattern, HbmModel, MemCost};
use dcm_core::error::{DcmError, Result};
use dcm_core::specs::DeviceSpec;
use dcm_core::tensor::Tensor;

/// Gather/scatter engine bound to one device's memory system.
#[derive(Debug, Clone)]
pub struct GatherScatterEngine {
    hbm: HbmModel,
    peak_bps: f64,
}

impl GatherScatterEngine {
    /// Build the engine for a device.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        GatherScatterEngine {
            hbm: HbmModel::new(spec),
            peak_bps: spec.hbm_bandwidth(),
        }
    }

    /// Timed gather of `count` vectors of `vector_bytes` each from random
    /// rows: random HBM reads of the rows plus streaming index reads. The
    /// gathered vectors land in on-chip local memory, matching the paper's
    /// TPC-C microbenchmark where "gathered embedding vectors are stored
    /// inside TPC's local memory" (§4.1) — so no HBM write is charged.
    #[must_use]
    pub fn gather_cost(&self, count: usize, vector_bytes: usize) -> MemCost {
        let reads = self.hbm.access(count, vector_bytes, AccessPattern::Random);
        let index_reads = self.hbm.access(count, 4, AccessPattern::Stream);
        reads.merge(&index_reads)
    }

    /// Timed scatter of `count` vectors from on-chip memory to random HBM
    /// rows: random writes plus streaming index reads.
    #[must_use]
    pub fn scatter_cost(&self, count: usize, vector_bytes: usize) -> MemCost {
        let index_reads = self.hbm.access(count, 4, AccessPattern::Stream);
        let writes = self.hbm.access(count, vector_bytes, AccessPattern::Random);
        index_reads.merge(&writes)
    }

    /// Memory-bandwidth utilization of a gather workload — the y-axis of
    /// Figure 9(a).
    #[must_use]
    pub fn gather_utilization(&self, count: usize, vector_bytes: usize) -> f64 {
        self.gather_cost(count, vector_bytes)
            .bandwidth_utilization(self.peak_bps)
    }

    /// Memory-bandwidth utilization of a scatter workload — the y-axis of
    /// Figure 9(b).
    #[must_use]
    pub fn scatter_utilization(&self, count: usize, vector_bytes: usize) -> f64 {
        self.scatter_cost(count, vector_bytes)
            .bandwidth_utilization(self.peak_bps)
    }

    /// Functional gather: `out[i] = table[indices[i]]`, with the timed cost
    /// of the same access stream.
    ///
    /// # Errors
    /// Returns [`DcmError::IndexOutOfBounds`] if any index exceeds the table
    /// rows, or [`DcmError::ShapeMismatch`] if `table` is not rank 2.
    // dcm-lint: allow(R1) §3.4 functional layer; prop_memory::gather_matches_naive
    pub fn gather(&self, table: &Tensor, indices: &[usize]) -> Result<(Tensor, MemCost)> {
        if table.shape().rank() != 2 {
            return Err(DcmError::ShapeMismatch(
                "gather table must be rank 2".to_owned(),
            ));
        }
        let rows = table.shape().dim(0);
        let dim = table.shape().dim(1);
        let mut out = Tensor::zeros([indices.len(), dim], table.dtype());
        for (i, &idx) in indices.iter().enumerate() {
            if idx >= rows {
                return Err(DcmError::IndexOutOfBounds(format!(
                    "gather index {idx} out of {rows} rows"
                )));
            }
            out.row_mut(i).copy_from_slice(table.row(idx));
        }
        let bytes = dim * table.dtype().size_bytes();
        Ok((out, self.gather_cost(indices.len(), bytes)))
    }

    /// Functional scatter: `target[indices[i]] = values[i]`, last write
    /// wins, with the timed cost of the same access stream.
    ///
    /// # Errors
    /// Returns [`DcmError::IndexOutOfBounds`] for out-of-range indices, or
    /// [`DcmError::ShapeMismatch`] if row widths disagree or `values` has
    /// fewer rows than `indices`.
    // dcm-lint: allow(R1) §3.4 functional layer; prop_memory::scatter_gather_roundtrip
    pub fn scatter(
        &self,
        target: &mut Tensor,
        indices: &[usize],
        values: &Tensor,
    ) -> Result<MemCost> {
        if target.shape().rank() != 2 || values.shape().rank() != 2 {
            return Err(DcmError::ShapeMismatch(
                "scatter operands must be rank 2".to_owned(),
            ));
        }
        if target.shape().dim(1) != values.shape().dim(1) {
            return Err(DcmError::ShapeMismatch(format!(
                "scatter row widths disagree: {} vs {}",
                target.shape().dim(1),
                values.shape().dim(1)
            )));
        }
        if values.shape().dim(0) < indices.len() {
            return Err(DcmError::ShapeMismatch(format!(
                "scatter needs {} value rows, got {}",
                indices.len(),
                values.shape().dim(0)
            )));
        }
        let rows = target.shape().dim(0);
        for (i, &idx) in indices.iter().enumerate() {
            if idx >= rows {
                return Err(DcmError::IndexOutOfBounds(format!(
                    "scatter index {idx} out of {rows} rows"
                )));
            }
            let src: Vec<f32> = values.row(i).to_vec();
            target.row_mut(idx).copy_from_slice(&src);
        }
        let bytes = target.shape().dim(1) * target.dtype().size_bytes();
        Ok(self.scatter_cost(indices.len(), bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::{rng, DType, DeviceSpec};

    fn gaudi() -> GatherScatterEngine {
        GatherScatterEngine::new(&DeviceSpec::gaudi2())
    }

    fn a100() -> GatherScatterEngine {
        GatherScatterEngine::new(&DeviceSpec::a100())
    }

    #[test]
    fn functional_gather_matches_reference() {
        let mut r = rng::seeded(11);
        let table = Tensor::random([64, 8], DType::Fp32, &mut r);
        let idx = rng::uniform_indices(&mut r, 32, 64);
        let (out, cost) = gaudi().gather(&table, &idx).unwrap();
        for (i, &ix) in idx.iter().enumerate() {
            assert_eq!(out.row(i), table.row(ix), "row {i}");
        }
        assert!(cost.time_s > 0.0);
        assert_eq!(cost.useful_bytes, (32 * 8 * 4 + 32 * 4) as u64);
    }

    #[test]
    fn gather_rejects_bad_indices() {
        let table = Tensor::zeros([4, 4], DType::Fp32);
        let err = gaudi().gather(&table, &[0, 4]).unwrap_err();
        assert!(matches!(err, DcmError::IndexOutOfBounds(_)));
        let not2d = Tensor::zeros([4], DType::Fp32);
        assert!(gaudi().gather(&not2d, &[0]).is_err());
    }

    #[test]
    fn functional_scatter_last_write_wins() {
        let mut target = Tensor::zeros([4, 2], DType::Fp32);
        let values = Tensor::from_vec([3, 2], DType::Fp32, vec![1., 1., 2., 2., 3., 3.]).unwrap();
        gaudi().scatter(&mut target, &[1, 3, 1], &values).unwrap();
        assert_eq!(target.row(1), &[3., 3.]); // index 1 written twice
        assert_eq!(target.row(3), &[2., 2.]);
        assert_eq!(target.row(0), &[0., 0.]);
    }

    #[test]
    fn scatter_validates_shapes() {
        let mut target = Tensor::zeros([4, 2], DType::Fp32);
        let wrong_width = Tensor::zeros([2, 3], DType::Fp32);
        assert!(gaudi().scatter(&mut target, &[0, 1], &wrong_width).is_err());
        let short = Tensor::zeros([1, 2], DType::Fp32);
        assert!(gaudi().scatter(&mut target, &[0, 1], &short).is_err());
        let vals = Tensor::zeros([2, 2], DType::Fp32);
        assert!(gaudi().scatter(&mut target, &[0, 9], &vals).is_err());
    }

    #[test]
    fn utilization_grows_with_vector_size() {
        let g = gaudi();
        let count = 1 << 20;
        let mut prev = 0.0;
        for size in [16usize, 64, 256, 1024, 2048] {
            let u = g.gather_utilization(count, size);
            assert!(u > prev, "size {size}: {u} <= {prev}");
            prev = u;
        }
    }

    #[test]
    fn gaudi_cliff_below_256_bytes() {
        // Key takeaway #3: a sharp drop below the 256 B granularity on
        // Gaudi-2 that the A100's 32 B sectors do not exhibit.
        let count = 1 << 20;
        let g256 = gaudi().gather_utilization(count, 256);
        let g128 = gaudi().gather_utilization(count, 128);
        assert!(g256 / g128 > 1.8, "gaudi cliff {g256} vs {g128}");
        let a256 = a100().gather_utilization(count, 256);
        let a128 = a100().gather_utilization(count, 128);
        assert!(a256 / a128 < 1.6, "a100 should degrade gracefully");
    }

    #[test]
    fn scatter_tracks_gather_shape() {
        let count = 1 << 20;
        for size in [64usize, 256, 1024] {
            let gg = gaudi().gather_utilization(count, size);
            let gs = gaudi().scatter_utilization(count, size);
            let rel = (gg - gs).abs() / gg;
            assert!(rel < 0.15, "size {size}: gather {gg} vs scatter {gs}");
        }
    }

    #[test]
    fn small_counts_ramp_slowly() {
        let g = gaudi();
        let low = g.gather_utilization(64, 256);
        let high = g.gather_utilization(1 << 20, 256);
        assert!(
            low < high * 0.25,
            "low-count gather should underutilize: {low} vs {high}"
        );
    }
}
