//! Embedding-layer configurations and lookup batches.

use dcm_core::cast::usize_to_u64;
use dcm_core::error::{DcmError, Result};
use dcm_core::tensor::Tensor;
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

    /// Check the batch against the tables it gathers from and their
    /// configuration. Every forward (the reference and both TPC kernels)
    /// calls this first, so it alone decides whether a lookup is valid.
    /// It requires at least one sample and one table (a kernel's
    /// `[tables, batch]` index space cannot be empty); `cfg.tables`
    /// tables, each `[_, cfg.dim]`; one index list per table, each of
    /// `cfg.gathers_per_table(batch)` indices; and every index below its
    /// own table's row count, which may be fewer than
    /// `cfg.rows_per_table` (tests use small tables).
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] on an empty batch or table set,
    /// a table-count, list-count or list-length mismatch,
    /// [`DcmError::ShapeMismatch`] on a table that is not `[_, cfg.dim]`,
    /// and [`DcmError::IndexOutOfBounds`] on an index past its table.
    pub fn check(&self, tables: &[Tensor], cfg: &EmbeddingConfig) -> Result<()> {
        if self.batch == 0 || cfg.tables == 0 {
            return Err(DcmError::InvalidConfig(format!(
                "a lookup needs a sample and a table, got a batch of {} over {} tables",
                self.batch, cfg.tables
            )));
        }
        if tables.len() != cfg.tables {
            return Err(DcmError::InvalidConfig(format!(
                "{} tables provided, config says {}",
                tables.len(),
                cfg.tables
            )));
        }
        if self.indices.len() != cfg.tables {
            return Err(DcmError::InvalidConfig(format!(
                "{} index lists for {} tables",
                self.indices.len(),
                cfg.tables
            )));
        }
        // `None` when `batch * pooling` overflows: no list is that long.
        let expect = self.batch.checked_mul(cfg.pooling);
        for (t, (table, list)) in tables.iter().zip(&self.indices).enumerate() {
            if table.shape().rank() != 2 || table.shape().dim(1) != cfg.dim {
                return Err(DcmError::ShapeMismatch(format!(
                    "table {t} is {}, expected [_, {}]",
                    table.shape(),
                    cfg.dim
                )));
            }
            if Some(list.len()) != expect {
                return Err(DcmError::InvalidConfig(format!(
                    "table {t}: {} indices for a batch of {} at pooling {}",
                    list.len(),
                    self.batch,
                    cfg.pooling
                )));
            }
            let rows = table.shape().dim(0);
            if let Some(&bad) = list.iter().find(|&&i| i >= rows) {
                return Err(DcmError::IndexOutOfBounds(format!(
                    "table {t}: index {bad} out of {rows} rows"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{batched_table_tpc_forward, reference_forward, single_table_tpc_forward};
    use dcm_core::DeviceSpec;
    use std::mem::discriminant;

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

    /// Three 50-row tables of 8-float vectors, pooling 5.
    fn small() -> (EmbeddingConfig, Vec<Tensor>) {
        let cfg = EmbeddingConfig {
            tables: 3,
            rows_per_table: 50,
            dim: 8,
            dtype: DType::Fp32,
            pooling: 5,
        };
        let mut r = rng::seeded(7);
        let tables = (0..cfg.tables)
            .map(|_| Tensor::random([cfg.rows_per_table, cfg.dim], cfg.dtype, &mut r))
            .collect();
        (cfg, tables)
    }

    #[test]
    fn random_batch_validates() {
        let (cfg, tables) = small();
        let b = LookupBatch::random(&cfg, 16, &mut rng::seeded(1));
        b.check(&tables, &cfg).unwrap();
        assert_eq!(b.indices.len(), 3);
        assert_eq!(b.indices[0].len(), 80);
    }

    #[test]
    fn validation_catches_errors() {
        // Each malformed lookup, as an edit of a good configuration,
        // tables and lists, and the kind of error `check` gives for it,
        // which every forward must return unchanged.
        let (cfg, tables) = small();
        let good = LookupBatch::random(&cfg, 4, &mut rng::seeded(3));
        type Edit = fn(&mut EmbeddingConfig, &mut Vec<Tensor>, &mut LookupBatch);
        type Kind = fn(String) -> DcmError;
        let cases: [(&str, Edit, Kind); 10] = [
            (
                "missing table",
                |_, t, _| drop(t.pop()),
                DcmError::InvalidConfig,
            ),
            (
                "narrow table",
                |_, t, _| t[1] = Tensor::zeros([50, 7], DType::Fp32),
                DcmError::ShapeMismatch,
            ),
            (
                "extra list",
                |_, _, l| l.indices.push(vec![0; 20]),
                DcmError::InvalidConfig,
            ),
            (
                "short list",
                |_, _, l| l.indices[2].truncate(19),
                DcmError::InvalidConfig,
            ),
            (
                "long list",
                |_, _, l| l.indices[2].push(0),
                DcmError::InvalidConfig,
            ),
            (
                "short list beside a long one",
                |_, _, l| {
                    let moved = l.indices[0].split_off(19);
                    l.indices[1].extend(moved);
                },
                DcmError::InvalidConfig,
            ),
            (
                "batch larger than the lists",
                |_, _, l| l.batch = 5,
                DcmError::InvalidConfig,
            ),
            (
                "index past its table",
                |_, _, l| l.indices[1][7] = 50,
                DcmError::IndexOutOfBounds,
            ),
            (
                "empty batch",
                |_, _, l| {
                    l.batch = 0;
                    l.indices.iter_mut().for_each(Vec::clear);
                },
                DcmError::InvalidConfig,
            ),
            (
                "no tables",
                |c, t, l| {
                    c.tables = 0;
                    t.clear();
                    l.indices.clear();
                },
                DcmError::InvalidConfig,
            ),
        ];
        let spec = DeviceSpec::gaudi2();
        for (name, edit, kind) in cases {
            let (mut c, mut t, mut l) = (cfg.clone(), tables.clone(), good.clone());
            edit(&mut c, &mut t, &mut l);
            let want = l.check(&t, &c).expect_err(name);
            assert_eq!(
                discriminant(&want),
                discriminant(&kind(String::new())),
                "{name}"
            );
            for got in [
                reference_forward(&t, &l, &c).map(drop),
                single_table_tpc_forward(&spec, &t, &l, &c).map(drop),
                batched_table_tpc_forward(&spec, &t, &l, &c).map(drop),
            ] {
                assert_eq!(got, Err(want.clone()), "{name}");
            }
        }
    }

    #[test]
    fn tiny_vector_dims_are_clamped() {
        let cfg = EmbeddingConfig::rm1_like(2);
        assert_eq!(cfg.dim, 1);
    }
}
