//! DLRM-DCNv2 recommendation models (Table 3: RM1 and RM2).
//!
//! A DLRM forward pass is: dense features → bottom MLP; sparse features →
//! embedding lookups (the pluggable SingleTable/BatchedTable operators of
//! `dcm-embedding`); both → DCNv2 low-rank cross interaction → top MLP.
//! RecSys serving runs in FP32 (§3.1).

use dcm_compiler::{CompileOptions, Device, Graph, Op};
use dcm_core::cast::usize_to_f64;
use dcm_core::cost::ExecStats;
use dcm_core::energy::Activity;
use dcm_core::DType;
use dcm_embedding::{EmbeddingConfig, EmbeddingOp};
use dcm_mme::GemmShape;
use serde::{Deserialize, Serialize};

/// Configuration of one DLRM model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DlrmConfig {
    /// Model name ("RM1" / "RM2").
    pub name: String,
    /// Embedding-layer configuration (tables, rows, vector width, pooling).
    pub embedding: EmbeddingConfig,
    /// Dense input features fed to the bottom MLP.
    pub dense_features: usize,
    /// Bottom MLP layer widths, input first (Table 3: RM1 512-256-64).
    pub bottom_mlp: Vec<usize>,
    /// Top MLP layer widths, hidden sizes then 1 (RM1: 1024-1024-512-256-1).
    pub top_mlp: Vec<usize>,
    /// DCNv2 low-rank dimension (RM1: 512, RM2: 64).
    pub cross_rank: usize,
    /// DCNv2 cross layers (RM1: 3, RM2: 2).
    pub cross_layers: usize,
}

impl DlrmConfig {
    /// RM1: the compute-intensive configuration of Table 3, with
    /// `vector_bytes`-wide FP32 embedding vectors.
    #[must_use]
    pub fn rm1(vector_bytes: usize) -> Self {
        DlrmConfig {
            name: "RM1".to_owned(),
            embedding: EmbeddingConfig::rm1_like(vector_bytes),
            dense_features: 512,
            bottom_mlp: vec![512, 256, 64],
            top_mlp: vec![1024, 1024, 512, 256, 1],
            cross_rank: 512,
            cross_layers: 3,
        }
    }

    /// RM2: the memory-intensive configuration of Table 3 (embedding
    /// layers dominate).
    #[must_use]
    pub fn rm2(vector_bytes: usize) -> Self {
        DlrmConfig {
            name: "RM2".to_owned(),
            embedding: EmbeddingConfig::rm2_like(vector_bytes),
            dense_features: 256,
            bottom_mlp: vec![256, 64, 64],
            top_mlp: vec![128, 64, 1],
            cross_rank: 64,
            cross_layers: 2,
        }
    }

    /// Feature width entering the interaction/top stack: concatenated
    /// pooled embeddings plus the bottom-MLP output.
    #[must_use]
    pub fn interaction_dim(&self) -> usize {
        self.embedding.tables * self.embedding.dim + self.bottom_mlp.last().copied().unwrap_or(0)
    }

    /// Lower the *dense* part (bottom MLP, DCNv2 cross, top MLP) to an
    /// operator graph at `batch` samples. Embedding lookups are priced by
    /// the pluggable operator, not the graph.
    #[must_use]
    pub fn dense_graph(&self, batch: usize) -> Graph {
        let dt = DType::Fp32;
        let mut g = Graph::new(format!("{}-dense", self.name));
        // Bottom MLP: dense_features -> widths.
        let mut prev = self.dense_features;
        for &w in &self.bottom_mlp {
            g.push(Op::gemm(GemmShape::new(batch, prev, w), dt));
            g.push(Op::relu(batch * w, dt));
            prev = w;
        }
        // DCNv2 low-rank cross: x_{l+1} = x0 * (U (V x_l)) + x_l.
        let d = self.interaction_dim();
        for _ in 0..self.cross_layers {
            g.push(Op::gemm(GemmShape::new(batch, d, self.cross_rank), dt));
            g.push(Op::gemm(GemmShape::new(batch, self.cross_rank, d), dt));
            g.push(Op::Elementwise {
                kind: dcm_compiler::EwKind::Mul,
                elems: batch * d,
                dtype: dt,
            });
            g.push(Op::add(batch * d, dt));
        }
        // Top MLP over the interaction output.
        let mut prev = d;
        for &w in &self.top_mlp {
            g.push(Op::gemm(GemmShape::new(batch, prev, w), dt));
            g.push(Op::relu(batch * w, dt));
            prev = w;
        }
        g
    }
}

/// Result of serving one DLRM batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmRun {
    /// Wall time of the embedding stage in seconds.
    pub embedding_time_s: f64,
    /// Wall time of the dense stage in seconds.
    pub dense_time_s: f64,
    /// Aggregate statistics of both stages.
    pub stats: ExecStats,
    /// Modeled energy in joules.
    pub energy_j: f64,
    /// Mean power in watts.
    pub power_w: f64,
}

impl DlrmRun {
    /// Total latency in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.stats.time_s
    }

    /// Samples served per second for `batch`.
    #[must_use]
    pub fn throughput(&self, batch: usize) -> f64 {
        usize_to_f64(batch) / self.time_s()
    }

    /// Energy per sample in joules.
    #[must_use]
    pub fn energy_per_sample(&self, batch: usize) -> f64 {
        self.energy_j / usize_to_f64(batch)
    }
}

/// A single-device DLRM inference server (the Gaudi SDK "currently lacks
/// support for multi-device RecSys serving", §3.5, so the paper — and we —
/// evaluate one device).
#[derive(Debug, Clone)]
pub struct DlrmServer {
    config: DlrmConfig,
}

impl DlrmServer {
    /// Create a server for one model configuration.
    #[must_use]
    pub fn new(config: DlrmConfig) -> Self {
        DlrmServer { config }
    }

    /// Serve one batch on `device`, using `embedding_op` for the sparse
    /// stage.
    #[must_use]
    pub fn serve(&self, device: &Device, embedding_op: &dyn EmbeddingOp, batch: usize) -> DlrmRun {
        let emb_cost = embedding_op.cost(&self.config.embedding, batch);
        let dense = device.run_graph(&self.config.dense_graph(batch), &CompileOptions::default());
        let mut stats = ExecStats::new();
        stats.push_serial(&emb_cost);
        stats.merge_serial(&dense.stats);
        // Energy: activity-weighted over both phases; the embedding phase
        // keeps the MME idle (gating applies on Gaudi).
        let matrix_time = dense.stats.matrix_busy_s;
        let powered = if matrix_time > 0.0 {
            dense.matrix_powered_fraction
        } else {
            1.0
        };
        let activity = Activity::from_stats_with_gating(&stats, powered);
        let power_w = device.power_model().power_watts(activity);
        DlrmRun {
            embedding_time_s: emb_cost.time(),
            dense_time_s: dense.stats.time_s,
            energy_j: power_w * stats.time_s,
            power_w,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_embedding::{BatchedTableOp, SingleTableOp};

    #[test]
    fn table3_configs() {
        let rm1 = DlrmConfig::rm1(256);
        assert_eq!(rm1.bottom_mlp, vec![512, 256, 64]);
        assert_eq!(rm1.top_mlp.last(), Some(&1));
        assert_eq!(rm1.cross_rank, 512);
        let rm2 = DlrmConfig::rm2(256);
        assert_eq!(rm2.cross_layers, 2);
        assert_eq!(rm2.embedding.rows_per_table, 1_000_000);
    }

    #[test]
    fn dense_graph_shape_count() {
        let rm1 = DlrmConfig::rm1(256);
        let g = rm1.dense_graph(64);
        // 3 bottom pairs + 3 cross quads + 5 top pairs.
        assert_eq!(g.len(), 3 * 2 + 3 * 4 + 5 * 2);
    }

    #[test]
    fn rm2_is_embedding_dominated_rm1_is_not() {
        // At serving-scale batches the 20-table/pooling-40 embedding stage
        // dominates RM2; tiny batches are launch-overhead bound instead.
        let gaudi = Device::gaudi2();
        let op = BatchedTableOp::new(gaudi.spec());
        let rm2 = DlrmServer::new(DlrmConfig::rm2(128)).serve(&gaudi, &op, 2048);
        assert!(
            rm2.embedding_time_s > rm2.dense_time_s,
            "RM2 embedding {} vs dense {}",
            rm2.embedding_time_s,
            rm2.dense_time_s
        );
        let rm1 = DlrmServer::new(DlrmConfig::rm1(128)).serve(&gaudi, &op, 2048);
        let emb_frac_rm1 = rm1.embedding_time_s / rm1.time_s();
        let emb_frac_rm2 = rm2.embedding_time_s / rm2.time_s();
        assert!(emb_frac_rm2 > emb_frac_rm1);
    }

    #[test]
    fn a100_wins_recsys_at_small_vectors() {
        // Figure 11: Gaudi-2 loses badly below 256 B embedding vectors.
        let gaudi = Device::gaudi2();
        let a100 = Device::a100();
        let batch = 4096;
        let run = |d: &Device, vb: usize| {
            let cfg = DlrmConfig::rm2(vb);
            let op = BatchedTableOp::new(d.spec());
            DlrmServer::new(cfg).serve(d, &op, batch).time_s()
        };
        let slow_small = run(&gaudi, 64) / run(&a100, 64);
        let slow_big = run(&gaudi, 512) / run(&a100, 512);
        assert!(slow_small > 1.4, "small-vector slowdown {slow_small}");
        assert!(slow_big < 1.25, "big-vector slowdown {slow_big}");
        assert!(slow_small > slow_big + 0.3);
    }

    #[test]
    fn gaudi_can_win_at_wide_vectors_and_large_batch() {
        // Figure 11: "higher performance with wide embedding vectors and
        // large batch sizes (maximum 1.36x speedup)". The win comes from
        // the embedding-dominated RM2, where Gaudi's 1.2x bandwidth
        // advantage carries the day.
        let gaudi = Device::gaudi2();
        let a100 = Device::a100();
        let cfg = DlrmConfig::rm2(2048);
        let g =
            DlrmServer::new(cfg.clone()).serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), 4096);
        let a = DlrmServer::new(cfg).serve(&a100, &BatchedTableOp::new(a100.spec()), 4096);
        assert!(
            g.time_s() < a.time_s(),
            "gaudi {} vs a100 {}",
            g.time_s(),
            a.time_s()
        );
    }

    #[test]
    fn energy_tracks_latency_gap() {
        // §3.5: Gaudi-2's RecSys energy is worse than A100's (avg +28%).
        let gaudi = Device::gaudi2();
        let a100 = Device::a100();
        let cfg = DlrmConfig::rm2(128);
        let g =
            DlrmServer::new(cfg.clone()).serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), 1024);
        let a = DlrmServer::new(cfg).serve(&a100, &BatchedTableOp::new(a100.spec()), 1024);
        assert!(
            g.energy_j > a.energy_j,
            "gaudi {} vs a100 {}",
            g.energy_j,
            a.energy_j
        );
    }

    #[test]
    fn single_vs_batched_table_end_to_end() {
        let gaudi = Device::gaudi2();
        let cfg = DlrmConfig::rm2(256);
        let server = DlrmServer::new(cfg);
        let single = server.serve(&gaudi, &SingleTableOp::optimized(gaudi.spec()), 64);
        let batched = server.serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), 64);
        assert!(batched.time_s() < single.time_s());
    }

    #[test]
    fn throughput_and_energy_helpers() {
        let gaudi = Device::gaudi2();
        let cfg = DlrmConfig::rm1(256);
        let run = DlrmServer::new(cfg).serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), 128);
        assert!(run.throughput(128) > 0.0);
        assert!(run.energy_per_sample(128) > 0.0);
        assert!(run.power_w > 100.0 && run.power_w <= 600.0);
    }
}
