//! The timing models of the SingleTable and BatchedTable embedding-lookup
//! operators (§4.1, Figures 14 and 15), and the bag-sum reference their
//! TPC-C kernels are checked against.
//!
//! Both operators share the bag-sum semantics of FBGEMM's
//! `table_batched_embeddings`: for every sample and every table, `pooling`
//! rows are gathered and summed into one pooled vector; the per-table
//! pooled vectors are concatenated. [`reference_forward`] computes it
//! naively; the kernels in [`crate::tpc_kernel`] execute it.
//!
//! The *timing* difference is structural:
//!
//! * **SingleTable** launches one kernel per table. Each launch exposes
//!   only `batch × pooling` gathers to the memory system — too few to fill
//!   the HBM pipeline at small batch sizes — and pays per-launch overhead
//!   `tables` times. More tables do not raise bandwidth utilization
//!   (Figure 15(a), flat line).
//! * **BatchedTable** fuses all tables into one launch using per-table
//!   base offsets, exposing `tables × batch × pooling` concurrent gathers
//!   and paying the launch cost once. Utilization rises with table count
//!   (Figure 15(a), rising line).

use crate::config::{EmbeddingConfig, LookupBatch};
use dcm_core::cast::{u64_to_f64, usize_to_f64, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::error::Result;
use dcm_core::specs::DeviceSpec;
use dcm_core::tensor::Tensor;
use dcm_mem::hbm::{AccessPattern, HbmModel};

/// Per-kernel dispatch overhead of the optimized TPC/CUDA operators.
const KERNEL_LAUNCH_S: f64 = 5.0e-6;

/// Per-kernel dispatch overhead of the stock Gaudi SDK operator (heavier
/// host-side orchestration; footnote 2 reports our optimized SingleTable
/// is ~60% faster than the SDK version).
const SDK_LAUNCH_S: f64 = 8.0e-6;

/// Index-loop unroll factor of the stock SDK operator: some memory-level
/// parallelism (the SDK is not naive), but half the optimized kernel's.
const SDK_UNROLL: usize = 2;

/// Index-loop unroll factor of the optimized kernels (4 concurrent vector
/// gathers per core, Figure 14(a)).
const OPTIMIZED_UNROLL: usize = 4;

/// An embedding-lookup operator's timing model: what the figures, the
/// DLRM server and the reports price. The operator's functional execution
/// is its TPC-C kernel ([`crate::tpc_kernel`]).
pub trait EmbeddingOp {
    /// Operator name for reports.
    fn name(&self) -> &str;

    /// Modeled cost of one forward pass at `batch` samples.
    fn cost(&self, cfg: &EmbeddingConfig, batch: usize) -> OpCost;

    /// Memory-bandwidth utilization: gathered useful bytes per second over
    /// peak HBM bandwidth — the y-axis of Figure 15.
    fn utilization(&self, cfg: &EmbeddingConfig, batch: usize) -> f64;
}

/// Ground-truth bag-sum forward (naive, obviously correct): the
/// `[batch, tables * dim]` pooled output.
///
/// # Errors
/// Returns the error [`LookupBatch::check`] gives for a malformed lookup.
pub fn reference_forward(
    tables: &[Tensor],
    lookup: &LookupBatch,
    cfg: &EmbeddingConfig,
) -> Result<Tensor> {
    lookup.check(tables, cfg)?;
    let mut out = Tensor::zeros([lookup.batch, cfg.tables * cfg.dim], cfg.dtype);
    for (t, (table, list)) in tables.iter().zip(&lookup.indices).enumerate() {
        for s in 0..lookup.batch {
            for p in 0..cfg.pooling {
                let row = table.row(list[s * cfg.pooling + p]);
                let orow = &mut out.row_mut(s)[t * cfg.dim..(t + 1) * cfg.dim];
                for (o, v) in orow.iter_mut().zip(row) {
                    *o += v;
                }
            }
        }
    }
    Ok(out)
}

/// Shared timing helper: price `launches` kernel launches, each issuing
/// `gathers_per_launch` random vector reads, plus the streamed pooled
/// output write.
fn lookup_cost(
    hbm: &HbmModel,
    cfg: &EmbeddingConfig,
    batch: usize,
    launches: usize,
    gathers_per_launch: usize,
    launch_s: f64,
    unroll: usize,
) -> OpCost {
    let vb = cfg.vector_bytes();
    // Memory-level parallelism: fewer concurrent gathers per core than the
    // optimized unroll factor throttles the random-access pipeline.
    let mlp = (usize_to_f64(unroll) / usize_to_f64(OPTIMIZED_UNROLL)).min(1.0);
    let gather = hbm.access(gathers_per_launch, vb, AccessPattern::Random);
    let per_launch_mem = gather.time_s / mlp;
    let out_write = hbm.access(batch * cfg.tables, vb, AccessPattern::Stream);
    let idx_read = hbm.access(cfg.total_gathers(batch), 4, AccessPattern::Stream);
    let memory_s = per_launch_mem * usize_to_f64(launches) + out_write.time_s + idx_read.time_s;
    // The pooled reduction itself: one vector add per gathered row; the
    // TPC/SM hides it under the gather latency, so it contributes compute
    // time, not memory time.
    let adds = usize_to_f64(cfg.total_gathers(batch)) * usize_to_f64(cfg.dim);
    let compute_s = usize_to_f64(launches) * launch_s + adds / 3.0e12;
    OpCost {
        engine: Engine::Vector,
        compute_s,
        memory_s,
        flops: adds,
        bus_bytes: gather.bus_bytes * usize_to_u64(launches)
            + out_write.bus_bytes
            + idx_read.bus_bytes,
        useful_bytes: gather.useful_bytes * usize_to_u64(launches)
            + out_write.useful_bytes
            + idx_read.useful_bytes,
    }
}

fn utilization_of(cost: &OpCost, cfg: &EmbeddingConfig, batch: usize, peak_bps: f64) -> f64 {
    u64_to_f64(cfg.gathered_bytes(batch)) / cost.time() / peak_bps
}

/// One kernel launch per table (Figure 14(a)).
#[derive(Debug, Clone)]
pub struct SingleTableOp {
    name: String,
    hbm: HbmModel,
    peak_bps: f64,
    launch_s: f64,
    unroll: usize,
}

impl SingleTableOp {
    /// Our optimized TPC-C SingleTable: unroll 4, offsets spread across
    /// TPCs, gathered vectors kept in local memory.
    #[must_use]
    pub fn optimized(spec: &DeviceSpec) -> Self {
        SingleTableOp {
            name: format!("SingleTable({})", spec.name),
            hbm: HbmModel::new(spec),
            peak_bps: spec.hbm_bandwidth(),
            launch_s: KERNEL_LAUNCH_S,
            unroll: OPTIMIZED_UNROLL,
        }
    }

    /// The stock Gaudi SDK operator: no index-loop unrolling and heavier
    /// per-launch orchestration (§3.5 measures it at 37% of GPU FBGEMM).
    #[must_use]
    pub fn sdk(spec: &DeviceSpec) -> Self {
        SingleTableOp {
            name: format!("SdkSingleTable({})", spec.name),
            hbm: HbmModel::new(spec),
            peak_bps: spec.hbm_bandwidth(),
            launch_s: SDK_LAUNCH_S,
            unroll: SDK_UNROLL,
        }
    }
}

impl EmbeddingOp for SingleTableOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn cost(&self, cfg: &EmbeddingConfig, batch: usize) -> OpCost {
        lookup_cost(
            &self.hbm,
            cfg,
            batch,
            cfg.tables,
            cfg.gathers_per_table(batch),
            self.launch_s,
            self.unroll,
        )
    }

    fn utilization(&self, cfg: &EmbeddingConfig, batch: usize) -> f64 {
        utilization_of(&self.cost(cfg, batch), cfg, batch, self.peak_bps)
    }
}

/// All tables fused into one launch with per-table base offsets
/// (Figure 14(b)).
#[derive(Debug, Clone)]
pub struct BatchedTableOp {
    name: String,
    hbm: HbmModel,
    peak_bps: f64,
}

impl BatchedTableOp {
    /// Build the batched operator for a device (Gaudi-2 TPC-C version or
    /// the FBGEMM-GPU baseline, depending on the spec).
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        BatchedTableOp {
            name: format!("BatchedTable({})", spec.name),
            hbm: HbmModel::new(spec),
            peak_bps: spec.hbm_bandwidth(),
        }
    }
}

impl EmbeddingOp for BatchedTableOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn cost(&self, cfg: &EmbeddingConfig, batch: usize) -> OpCost {
        lookup_cost(
            &self.hbm,
            cfg,
            batch,
            1,
            cfg.total_gathers(batch),
            KERNEL_LAUNCH_S,
            OPTIMIZED_UNROLL,
        )
    }

    fn utilization(&self, cfg: &EmbeddingConfig, batch: usize) -> f64 {
        utilization_of(&self.cost(cfg, batch), cfg, batch, self.peak_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_is_faster_at_small_batches() {
        // Figure 15(a): BatchedTable's single launch fills the memory
        // pipeline where SingleTable's per-table launches cannot.
        let cfg = EmbeddingConfig::rm2_like(256);
        let gaudi = DeviceSpec::gaudi2();
        let single = SingleTableOp::optimized(&gaudi);
        let batched = BatchedTableOp::new(&gaudi);
        let su = single.utilization(&cfg, 8);
        let bu = batched.utilization(&cfg, 8);
        assert!(bu > 1.5 * su, "batched {bu} vs single {su}");
    }

    #[test]
    fn gap_narrows_at_large_batches() {
        // Figures 15(b,c): "with larger batch sizes, the performance gap
        // between SingleTable and BatchedTable diminishes".
        let cfg = EmbeddingConfig::rm2_like(256);
        let gaudi = DeviceSpec::gaudi2();
        let single = SingleTableOp::optimized(&gaudi);
        let batched = BatchedTableOp::new(&gaudi);
        let ratio_small = batched.utilization(&cfg, 8) / single.utilization(&cfg, 8);
        let ratio_large = batched.utilization(&cfg, 4096) / single.utilization(&cfg, 4096);
        assert!(ratio_large < ratio_small);
        assert!(ratio_large < 1.6, "large-batch ratio {ratio_large}");
    }

    #[test]
    fn batched_utilization_rises_with_table_count() {
        // Figure 15(a): utilization vs number of tables at a small batch.
        let gaudi = DeviceSpec::gaudi2();
        let batched = BatchedTableOp::new(&gaudi);
        let single = SingleTableOp::optimized(&gaudi);
        let util_at = |op: &dyn EmbeddingOp, tables: usize| {
            let mut cfg = EmbeddingConfig::rm2_like(256);
            cfg.tables = tables;
            op.utilization(&cfg, 4)
        };
        let b2 = util_at(&batched, 2);
        let b16 = util_at(&batched, 16);
        assert!(
            b16 > 1.5 * b2,
            "batched should scale with tables: {b2} -> {b16}"
        );
        let s2 = util_at(&single, 2);
        let s16 = util_at(&single, 16);
        assert!(
            (s16 - s2).abs() / s2 < 0.35,
            "single stays flat-ish: {s2} -> {s16}"
        );
    }

    #[test]
    fn sdk_operator_is_much_slower() {
        // Footnote 2: the optimized SingleTable is ~60% faster than the
        // SDK version.
        let cfg = EmbeddingConfig::rm2_like(256);
        let gaudi = DeviceSpec::gaudi2();
        let opt = SingleTableOp::optimized(&gaudi).cost(&cfg, 64).time();
        let sdk = SingleTableOp::sdk(&gaudi).cost(&cfg, 64).time();
        let speedup = sdk / opt;
        assert!(speedup > 1.4 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn small_vectors_crush_gaudi_but_not_a100() {
        // Key takeaway #6: ~95% of A100 throughput at >=256 B vectors but
        // only ~47% below.
        let gaudi = BatchedTableOp::new(&DeviceSpec::gaudi2());
        let a100 = BatchedTableOp::new(&DeviceSpec::a100());
        let big = EmbeddingConfig::rm2_like(512);
        let small = EmbeddingConfig::rm2_like(64);
        let batch = 1024;
        let ratio_big = gaudi.cost(&big, batch).time() / a100.cost(&big, batch).time();
        let ratio_small = gaudi.cost(&small, batch).time() / a100.cost(&small, batch).time();
        assert!(ratio_big < 1.45, "big-vector slowdown {ratio_big}");
        assert!(ratio_small > 1.8, "small-vector slowdown {ratio_small}");
    }

    #[test]
    fn fig15_utilization_magnitudes() {
        // BatchedTable(Gaudi-2) peak ~70%, A100 peak ~82% (+-8pp).
        let gaudi = BatchedTableOp::new(&DeviceSpec::gaudi2());
        let a100 = BatchedTableOp::new(&DeviceSpec::a100());
        let cfg = EmbeddingConfig::rm2_like(2048);
        let gu = gaudi.utilization(&cfg, 4096);
        let au = a100.utilization(&cfg, 4096);
        assert!((gu - 0.705).abs() < 0.08, "gaudi peak {gu}");
        assert!((au - 0.818).abs() < 0.08, "a100 peak {au}");
    }

    #[test]
    fn cost_scales_with_batch() {
        let cfg = EmbeddingConfig::rm1_like(256);
        let op = BatchedTableOp::new(&DeviceSpec::gaudi2());
        let t64 = op.cost(&cfg, 64).time();
        let t1024 = op.cost(&cfg, 1024).time();
        assert!(t1024 > 4.0 * t64);
    }
}
