//! Embedding-layer configurations and lookup batches.

use dcm_core::cast::usize_to_u64;
use dcm_core::error::{DcmError, Result};
use dcm_core::{rng, DType};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a multi-table embedding layer (Table 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Number of embedding tables.
    pub tables: usize,
    /// Rows per table (1M for RM1/RM2).
    pub rows_per_table: usize,
    /// Elements per embedding vector.
    pub dim: usize,
    /// Element type (RecSys serving uses FP32, §3.1).
    pub dtype: DType,
    /// Embedding lookups pooled (summed) per sample per table.
    pub pooling: usize,
}

impl EmbeddingConfig {
    /// An RM1-like layer: 10 tables of 1M rows, pooling factor 10, with
    /// `vector_bytes`-wide FP32 vectors.
    #[must_use]
    pub fn rm1_like(vector_bytes: usize) -> Self {
        EmbeddingConfig {
            tables: 10,
            rows_per_table: 1_000_000,
            dim: (vector_bytes / 4).max(1),
            dtype: DType::Fp32,
            pooling: 10,
        }
    }

    /// An RM2-like layer: 20 tables of 1M rows, pooling factor 40 — the
    /// memory-intensive configuration where embedding layers dominate.
    #[must_use]
    pub fn rm2_like(vector_bytes: usize) -> Self {
        EmbeddingConfig {
            tables: 20,
            rows_per_table: 1_000_000,
            dim: (vector_bytes / 4).max(1),
            dtype: DType::Fp32,
            pooling: 40,
        }
    }

    /// Bytes of one embedding vector.
    #[must_use]
    pub fn vector_bytes(&self) -> usize {
        self.dim * self.dtype.size_bytes()
    }

    /// Gathers issued for a batch of `batch` samples, per table.
    #[must_use]
    pub fn gathers_per_table(&self, batch: usize) -> usize {
        batch * self.pooling
    }

    /// Gathers issued for a batch across all tables.
    #[must_use]
    pub fn total_gathers(&self, batch: usize) -> usize {
        self.tables * self.gathers_per_table(batch)
    }

    /// Useful bytes gathered for a batch across all tables.
    #[must_use]
    pub fn gathered_bytes(&self, batch: usize) -> u64 {
        usize_to_u64(self.total_gathers(batch)) * usize_to_u64(self.vector_bytes())
    }
}

/// A concrete lookup batch: per-table index lists (FBGEMM layout: one flat
/// index array per table of length `batch * pooling`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LookupBatch {
    /// Samples in the batch.
    pub batch: usize,
    /// `indices[t]` holds `batch * pooling` row indices into table `t`.
    pub indices: Vec<Vec<usize>>,
}

impl LookupBatch {
    /// Draw a uniform-random lookup batch.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(cfg: &EmbeddingConfig, batch: usize, r: &mut R) -> Self {
        let indices = (0..cfg.tables)
            .map(|_| rng::uniform_indices(r, cfg.gathers_per_table(batch), cfg.rows_per_table))
            .collect();
        LookupBatch { batch, indices }
    }

    /// Validate the batch against a configuration.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] on table-count or length
    /// mismatch, [`DcmError::IndexOutOfBounds`] on bad indices.
    pub fn validate(&self, cfg: &EmbeddingConfig) -> Result<()> {
        if self.indices.len() != cfg.tables {
            return Err(DcmError::InvalidConfig(format!(
                "{} index lists for {} tables",
                self.indices.len(),
                cfg.tables
            )));
        }
        let expect = cfg.gathers_per_table(self.batch);
        for (t, list) in self.indices.iter().enumerate() {
            if list.len() != expect {
                return Err(DcmError::InvalidConfig(format!(
                    "table {t}: {} indices, expected {expect}",
                    list.len()
                )));
            }
            if let Some(&bad) = list.iter().find(|&&i| i >= cfg.rows_per_table) {
                return Err(DcmError::IndexOutOfBounds(format!(
                    "table {t}: index {bad} out of {} rows",
                    cfg.rows_per_table
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_arithmetic() {
        let cfg = EmbeddingConfig::rm1_like(256);
        assert_eq!(cfg.dim, 64);
        assert_eq!(cfg.vector_bytes(), 256);
        assert_eq!(cfg.gathers_per_table(32), 320);
        assert_eq!(cfg.total_gathers(32), 3200);
        assert_eq!(cfg.gathered_bytes(32), 3200 * 256);
    }

    #[test]
    fn rm2_is_more_memory_intensive_than_rm1() {
        let rm1 = EmbeddingConfig::rm1_like(128);
        let rm2 = EmbeddingConfig::rm2_like(128);
        assert!(rm2.gathered_bytes(64) > 4 * rm1.gathered_bytes(64));
    }

    #[test]
    fn random_batch_validates() {
        let cfg = EmbeddingConfig::rm1_like(64);
        let mut r = rng::seeded(1);
        let b = LookupBatch::random(&cfg, 16, &mut r);
        b.validate(&cfg).unwrap();
        assert_eq!(b.indices.len(), 10);
        assert_eq!(b.indices[0].len(), 160);
    }

    #[test]
    fn validation_catches_errors() {
        let cfg = EmbeddingConfig::rm1_like(64);
        let mut r = rng::seeded(3);
        let mut b = LookupBatch::random(&cfg, 4, &mut r);
        b.indices[3][0] = cfg.rows_per_table; // out of range
        assert!(matches!(
            b.validate(&cfg),
            Err(DcmError::IndexOutOfBounds(_))
        ));
        let mut short = LookupBatch::random(&cfg, 4, &mut r);
        short.indices.pop();
        assert!(matches!(
            short.validate(&cfg),
            Err(DcmError::InvalidConfig(_))
        ));
        let mut ragged = LookupBatch::random(&cfg, 4, &mut r);
        ragged.indices[0].pop();
        assert!(ragged.validate(&cfg).is_err());
    }

    #[test]
    fn tiny_vector_dims_are_clamped() {
        let cfg = EmbeddingConfig::rm1_like(2);
        assert_eq!(cfg.dim, 1);
    }
}
