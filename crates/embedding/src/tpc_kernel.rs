//! The §4.1 embedding-lookup kernels written against the *actual* TPC-C
//! style DSL of `dcm-tpc` — not just priced analytically, but executed
//! instruction by instruction over real tensors, exactly as Figure 14(a)
//! sketches: the index space spans (table, sample), the index loop is
//! unrolled by 4 for memory-level parallelism, gathered vectors are staged
//! in TPC local memory, and the pooled sum is accumulated with `v_add`.
//!
//! These two kernels are the SingleTable and BatchedTable operators' only
//! functional path, checked against [`reference_forward`]. The figures
//! price the operators through the analytic [`EmbeddingOp`] models in
//! [`crate::ops`] instead.
//!
//! [`reference_forward`]: crate::ops::reference_forward
//! [`EmbeddingOp`]: crate::ops::EmbeddingOp

use crate::config::{EmbeddingConfig, LookupBatch};
use dcm_core::cast::{f64_to_usize, usize_to_f32};
use dcm_core::cost::OpCost;
use dcm_core::dtype::DType;
use dcm_core::error::{DcmError, Result};
use dcm_core::specs::DeviceSpec;
use dcm_core::tensor::{Tensor, TensorDesc};
use dcm_tpc::index_space::{IndexMember, IndexSpace};
use dcm_tpc::program::{TpcContext, TpcExecutor, TpcProgram, VecReg};

/// The unroll factor of the optimized kernel (Figure 14(a)).
const UNROLL: usize = 4;

/// Every integer up to 2^24 is an exact `f32`; 2^24 + 1 is not.
const F32_EXACT: usize = 1 << 24;

/// Rows (indices, or the batched kernel's table offsets) as the rank-1
/// tensor the kernels read them from: they travel as `f32`, as they do
/// through PyTorch.
///
/// # Errors
/// Returns [`DcmError::InvalidConfig`] for a row above 2^24, which an
/// `f32` cannot carry exactly.
fn row_tensor(rows: impl Iterator<Item = usize>, dtype: DType) -> Result<Tensor> {
    let flat = rows
        .map(|row| {
            if row > F32_EXACT {
                return Err(DcmError::InvalidConfig(format!(
                    "row {row} is above 2^24, which an f32 index tensor cannot carry exactly"
                )));
            }
            Ok(usize_to_f32(row))
        })
        .collect::<Result<Vec<f32>>>()?;
    Tensor::from_vec([flat.len()], dtype, flat)
}

/// SingleTable embedding-lookup TPC kernel.
///
/// Index space: `[tables, batch]`; one member pools the `pooling` vectors
/// of one (table, sample) pair. Inputs: one flat index tensor (indices for
/// all tables concatenated) followed by one tensor per table. Output 0 is
/// the `[batch, tables * dim]` pooled embedding matrix.
#[derive(Debug, Clone)]
pub struct SingleTableTpcKernel {
    cfg: EmbeddingConfig,
    batch: usize,
}

impl SingleTableTpcKernel {
    /// Create the kernel for one configuration and batch size.
    #[must_use]
    pub fn new(cfg: EmbeddingConfig, batch: usize) -> Self {
        SingleTableTpcKernel { cfg, batch }
    }
}

impl TpcProgram for SingleTableTpcKernel {
    fn run(&self, ctx: &mut TpcContext<'_>, member: IndexMember) -> Result<()> {
        let table = member.coord(0);
        let sample = member.coord(1);
        let dim = self.cfg.dim;
        let pooling = self.cfg.pooling;
        let per_table = self.batch * pooling;

        // Stage the accumulator in local memory (Figure 14(a): "gathered
        // embedding vectors are stored inside TPC's local memory").
        ctx.vlm_alloc((UNROLL + 1) * dim * 4)?;
        let mut acc = VecReg::zeros(dim);
        // The index loop, unrolled by UNROLL: each iteration issues up to
        // UNROLL independent index loads + row gathers before reducing.
        let mut p = 0;
        while p < pooling {
            let chunk = UNROLL.min(pooling - p);
            let mut gathered = Vec::with_capacity(chunk);
            for u in 0..chunk {
                let flat = table * per_table + sample * pooling + p + u;
                // Indices travel in a tensor, as they do through PyTorch.
                let idx_reg = ctx.ld_tnsr(0, flat, 1)?;
                let row = f64_to_usize(f64::from(idx_reg.data()[0]));
                gathered.push(ctx.ld_tnsr(1 + table, row * dim, dim)?);
            }
            for g in &gathered {
                acc = ctx.v_add(&acc, g)?;
            }
            p += chunk;
        }
        ctx.st_tnsr(0, sample * (self.cfg.tables * dim) + table * dim, &acc)
    }

    fn unroll(&self) -> usize {
        UNROLL
    }

    fn name(&self) -> &str {
        "single_table_tpc"
    }
}

/// Execute the kernel on `spec`'s TPC complex: returns the pooled
/// embeddings and the DSL-derived cost.
///
/// # Errors
/// Returns the error [`LookupBatch::check`] gives for a malformed lookup,
/// [`DcmError::InvalidConfig`] for an index above 2^24, and
/// [`DcmError::ResourceExhausted`] when vectors are wider than the 80 KB
/// local memory allows.
pub fn single_table_tpc_forward(
    spec: &DeviceSpec,
    tables: &[Tensor],
    lookup: &LookupBatch,
    cfg: &EmbeddingConfig,
) -> Result<(Tensor, OpCost)> {
    lookup.check(tables, cfg)?;
    let idx_tensor = row_tensor(lookup.indices.iter().flatten().copied(), cfg.dtype)?;
    let mut inputs: Vec<&Tensor> = vec![&idx_tensor];
    inputs.extend(tables.iter());

    let exec = TpcExecutor::new(spec);
    let space = IndexSpace::new(vec![cfg.tables, lookup.batch])?;
    let kernel = SingleTableTpcKernel::new(cfg.clone(), lookup.batch);
    let out_desc = TensorDesc::new([lookup.batch, cfg.tables * cfg.dim], cfg.dtype);
    let mut result = exec.launch(&kernel, &space, &inputs, &[out_desc])?;
    // dcm-lint: allow(P1) launch returns exactly the declared output descs
    let out = result.outputs.pop().expect("one output declared");
    Ok((out, result.cost))
}

/// BatchedTable embedding-lookup TPC kernel (Figure 14(b)).
///
/// All tables are fused into one launch: the kernel receives one *big*
/// table tensor (all tables stacked) plus a `tableOffsets` tensor giving
/// each table's starting row, and a single flat index tensor. The index
/// space is still `[tables, batch]`, but one kernel launch covers the
/// whole space — the difference that lifts memory-level parallelism at
/// small batch sizes (Figure 15(a)).
#[derive(Debug, Clone)]
pub struct BatchedTableTpcKernel {
    cfg: EmbeddingConfig,
    batch: usize,
}

impl BatchedTableTpcKernel {
    /// Create the kernel for one configuration and batch size.
    #[must_use]
    pub fn new(cfg: EmbeddingConfig, batch: usize) -> Self {
        BatchedTableTpcKernel { cfg, batch }
    }
}

impl TpcProgram for BatchedTableTpcKernel {
    fn run(&self, ctx: &mut TpcContext<'_>, member: IndexMember) -> Result<()> {
        let table = member.coord(0);
        let sample = member.coord(1);
        let dim = self.cfg.dim;
        let pooling = self.cfg.pooling;
        let per_table = self.batch * pooling;

        // tableOffsets lookup (input 1): the base row of this table in the
        // stacked big table.
        let off_reg = ctx.ld_tnsr(1, table, 1)?;
        let base_row = f64_to_usize(f64::from(off_reg.data()[0]));

        ctx.vlm_alloc((UNROLL + 1) * dim * 4)?;
        let mut acc = VecReg::zeros(dim);
        let mut p = 0;
        while p < pooling {
            let chunk = UNROLL.min(pooling - p);
            let mut gathered = Vec::with_capacity(chunk);
            for u in 0..chunk {
                let flat = table * per_table + sample * pooling + p + u;
                let idx_reg = ctx.ld_tnsr(0, flat, 1)?;
                let row = base_row + f64_to_usize(f64::from(idx_reg.data()[0]));
                // Input 2 is the stacked big table.
                gathered.push(ctx.ld_tnsr(2, row * dim, dim)?);
            }
            for g in &gathered {
                acc = ctx.v_add(&acc, g)?;
            }
            p += chunk;
        }
        ctx.st_tnsr(0, sample * (self.cfg.tables * dim) + table * dim, &acc)
    }

    fn unroll(&self) -> usize {
        UNROLL
    }

    fn name(&self) -> &str {
        "batched_table_tpc"
    }
}

/// Execute the fused BatchedTable kernel: one launch over all tables.
///
/// # Errors
/// Returns the error [`LookupBatch::check`] gives for a malformed lookup,
/// [`DcmError::InvalidConfig`] for an index or a table offset above 2^24,
/// and [`DcmError::ResourceExhausted`] on VLM exhaustion.
pub fn batched_table_tpc_forward(
    spec: &DeviceSpec,
    tables: &[Tensor],
    lookup: &LookupBatch,
    cfg: &EmbeddingConfig,
) -> Result<(Tensor, OpCost)> {
    lookup.check(tables, cfg)?;
    let idx_tensor = row_tensor(lookup.indices.iter().flatten().copied(), cfg.dtype)?;
    // tableOffsets and the stacked big table (Figure 14(b)).
    let mut rows = 0;
    let offsets = tables.iter().map(|t| {
        let base = rows;
        rows += t.shape().dim(0);
        base
    });
    let offsets_tensor = row_tensor(offsets, cfg.dtype)?;
    let mut stacked = Vec::with_capacity(rows * cfg.dim);
    for t in tables {
        stacked.extend_from_slice(t.data());
    }
    let big = Tensor::from_vec([rows, cfg.dim], cfg.dtype, stacked)?;

    let exec = TpcExecutor::new(spec);
    let space = IndexSpace::new(vec![cfg.tables, lookup.batch])?;
    let kernel = BatchedTableTpcKernel::new(cfg.clone(), lookup.batch);
    let out_desc = TensorDesc::new([lookup.batch, cfg.tables * cfg.dim], cfg.dtype);
    let mut result = exec.launch(
        &kernel,
        &space,
        &[&idx_tensor, &offsets_tensor, &big],
        &[out_desc],
    )?;
    // dcm-lint: allow(P1) launch returns exactly the declared output descs
    let out = result.outputs.pop().expect("one output declared");
    Ok((out, result.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference_forward;
    use dcm_core::rng;

    fn setup(seed: u64) -> (EmbeddingConfig, Vec<Tensor>, LookupBatch) {
        let cfg = EmbeddingConfig {
            tables: 3,
            rows_per_table: 50,
            dim: 8,
            dtype: DType::Fp32,
            pooling: 5,
        };
        let mut r = rng::seeded(seed);
        let tables = (0..cfg.tables)
            .map(|_| Tensor::random([cfg.rows_per_table, cfg.dim], cfg.dtype, &mut r))
            .collect();
        let lookup = LookupBatch::random(&cfg, 7, &mut r);
        (cfg, tables, lookup)
    }

    #[test]
    fn tpc_kernel_matches_reference() {
        let (cfg, tables, lookup) = setup(31);
        let expect = reference_forward(&tables, &lookup, &cfg).unwrap();
        let (out, cost) =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        assert!(out.max_abs_diff(&expect).unwrap() < 1e-4);
        assert!(cost.time() > 0.0);
        assert!(cost.flops > 0.0);
    }

    #[test]
    fn gathers_are_classified_random() {
        // The embedding rows land at random offsets: the DSL's access
        // classifier must see mostly random accesses, which is what makes
        // the kernel granularity-sensitive on Gaudi (KT#6).
        let (cfg, tables, lookup) = setup(32);
        let exec_cost =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        // 32-byte rows on Gaudi: bus rounds every gather to 256 B.
        assert!(exec_cost.1.bus_bytes > exec_cost.1.useful_bytes * 3);
    }

    #[test]
    fn a100_prices_the_same_kernel_cheaper() {
        let (cfg, tables, lookup) = setup(33);
        let (out_g, cost_g) =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        let (out_a, cost_a) =
            single_table_tpc_forward(&DeviceSpec::a100(), &tables, &lookup, &cfg).unwrap();
        assert_eq!(out_g, out_a, "functional result is device independent");
        // 32 B rows: the A100's sectors waste far less bus traffic.
        assert!(cost_a.bus_bytes < cost_g.bus_bytes / 3);
    }

    #[test]
    fn wide_vectors_respect_local_memory() {
        // dim such that (UNROLL+1) * dim * 4 > 80 KB must fail cleanly.
        let cfg = EmbeddingConfig {
            tables: 1,
            rows_per_table: 4,
            dim: 8192, // 5 * 8192 * 4 = 160 KB > 80 KB
            dtype: DType::Fp32,
            pooling: 2,
        };
        let mut r = rng::seeded(34);
        let tables = vec![Tensor::random(
            [cfg.rows_per_table, cfg.dim],
            cfg.dtype,
            &mut r,
        )];
        let lookup = LookupBatch::random(&cfg, 1, &mut r);
        let err =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap_err();
        assert!(matches!(err, DcmError::ResourceExhausted(_)));
    }

    #[test]
    fn rows_past_2_pow_24_are_rejected_not_rounded() {
        // Dim-1 zero tables keep the 2^24 + 2-row table at 64 MiB.
        let cfg = EmbeddingConfig {
            tables: 2,
            rows_per_table: F32_EXACT + 2,
            dim: 1,
            dtype: DType::Fp32,
            pooling: 1,
        };
        let mut tables = vec![
            Tensor::zeros([1, 1], cfg.dtype),
            Tensor::zeros([F32_EXACT + 2, 1], cfg.dtype),
        ];
        let spec = DeviceSpec::gaudi2();
        let lookup = |row: usize| LookupBatch {
            batch: 1,
            indices: vec![vec![0], vec![row]],
        };
        let rejected = |r: Result<(Tensor, OpCost)>| matches!(r, Err(DcmError::InvalidConfig(_)));
        for forward in [single_table_tpc_forward, batched_table_tpc_forward] {
            assert!(forward(&spec, &tables, &lookup(F32_EXACT), &cfg).is_ok());
            assert!(rejected(forward(
                &spec,
                &tables,
                &lookup(F32_EXACT + 1),
                &cfg
            )));
        }
        // The big table first: the batched kernel's offset of the second
        // table is 2^24 + 2.
        tables.reverse();
        assert!(single_table_tpc_forward(&spec, &tables, &lookup(0), &cfg).is_ok());
        assert!(rejected(batched_table_tpc_forward(
            &spec,
            &tables,
            &lookup(0),
            &cfg
        )));
    }

    #[test]
    fn batched_kernel_matches_reference_and_single() {
        let (cfg, tables, lookup) = setup(37);
        let expect = reference_forward(&tables, &lookup, &cfg).unwrap();
        let (single, _) =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        let (batched, _) =
            batched_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        assert!(batched.max_abs_diff(&expect).unwrap() < 1e-4);
        assert!(batched.max_abs_diff(&single).unwrap() < 1e-4);
    }

    #[test]
    fn batched_kernel_issues_one_launch_worth_of_offsets() {
        // The fused kernel reads one tableOffsets entry per member and
        // gathers from a single stacked table — its instruction mix must
        // include those extra offset loads.
        let (cfg, tables, lookup) = setup(38);
        let (_, single_cost) =
            single_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        let (_, batched_cost) =
            batched_table_tpc_forward(&DeviceSpec::gaudi2(), &tables, &lookup, &cfg).unwrap();
        // Same gathered data either way.
        assert!(batched_cost.useful_bytes > 0);
        let rel = (batched_cost.useful_bytes as f64 - single_cost.useful_bytes as f64).abs()
            / single_cost.useful_bytes as f64;
        assert!(rel < 0.05, "useful bytes differ by {rel}");
    }
}
