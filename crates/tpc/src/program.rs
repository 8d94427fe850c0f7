//! Functional TPC-C-style kernel DSL.
//!
//! This is the programmability surface of the case studies in §4: a kernel
//! is Rust code written against [`TpcContext`] — `ld_tnsr`/`st_tnsr` tensor
//! accesses and `v_*` vector arithmetic, mirroring Figure 2(c) — executed
//! for real over host tensors while the context counts instructions and
//! classifies memory accesses. [`TpcExecutor`] then partitions an
//! [`IndexSpace`] over the cores and prices the recorded activity with the
//! same mechanisms as the analytic model (slot/latency pipeline, 256 B
//! granularity, per-core bandwidth).
//!
//! Deliberately *not* expressible here: MME operations. "The Gaudi SDK
//! currently restricts direct access to the MME units" (§2.2) — matrix math
//! must go through the graph-compiler level (`dcm-compiler`), exactly the
//! constraint the vLLM case study works around.

use crate::index_space::{IndexMember, IndexSpace};
use crate::vliw::{self, Slot, TraceInstr};
use dcm_core::cast::{self, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::error::{DcmError, Result};
use dcm_core::specs::DeviceSpec;
use dcm_core::tensor::{Tensor, TensorDesc};
use dcm_mem::hbm::{AccessPattern, HbmModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A vector register holding up to one SIMD vector's worth of elements.
///
/// Registers produced by [`TpcContext`] operations carry a dependency id
/// used by the VLIW trace scheduler; constant registers built with
/// [`VecReg::zeros`] / [`VecReg::splat`] are always ready (id 0).
#[derive(Debug, Clone, PartialEq)]
pub struct VecReg {
    data: Vec<f32>,
    id: u32,
}

impl VecReg {
    /// A register of `len` zeros (accumulator initialization).
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        VecReg {
            data: vec![0.0; len],
            id: 0,
        }
    }

    /// A register with every lane set to `v`.
    #[must_use]
    pub fn splat(v: f32, len: usize) -> Self {
        VecReg {
            data: vec![v; len],
            id: 0,
        }
    }

    /// Number of live lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the register holds no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Lane values.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// Instruction and memory-access counters accumulated during a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Vector load instructions issued.
    pub loads: u64,
    /// Vector store instructions issued.
    pub stores: u64,
    /// Vector compute instructions issued.
    pub computes: u64,
    /// FLOPs performed by compute instructions.
    pub flops: f64,
    /// Sequential (coalescing) accesses and their useful bytes.
    pub stream_accesses: u64,
    /// Useful bytes of streaming accesses.
    pub stream_bytes: u64,
    /// Non-sequential accesses and their useful bytes.
    pub random_accesses: u64,
    /// Useful bytes of random accesses.
    pub random_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TensorSide {
    Input(usize),
    Output(usize),
}

/// Execution context handed to a kernel: tensor access, vector arithmetic,
/// accounting. One context is shared by all index-space members of a launch
/// (members run sequentially in the functional simulation).
#[derive(Debug)]
pub struct TpcContext<'a> {
    inputs: Vec<&'a Tensor>,
    outputs: Vec<Tensor>,
    vector_lanes: usize,
    vlm_capacity: usize,
    vlm_used: usize,
    counters: KernelCounters,
    last_end: BTreeMap<TensorSide, usize>,
    next_reg: u32,
    current_member: u32,
    trace: Vec<TraceInstr>,
}

impl<'a> TpcContext<'a> {
    fn new(
        inputs: Vec<&'a Tensor>,
        outputs: Vec<Tensor>,
        vector_lanes: usize,
        vlm_capacity: usize,
    ) -> Self {
        TpcContext {
            inputs,
            outputs,
            vector_lanes,
            vlm_capacity,
            vlm_used: 0,
            counters: KernelCounters::default(),
            last_end: BTreeMap::new(),
            next_reg: 1,
            current_member: 0,
            trace: Vec::new(),
        }
    }

    fn fresh_reg(&mut self) -> u32 {
        self.next_reg += 1;
        self.next_reg - 1
    }

    /// Record `n` trace instructions for one logical operation: the
    /// destination register becomes ready after the last one.
    fn record(&mut self, slot: Slot, srcs: &[u32], dst: Option<u32>, n: u64) {
        for i in 0..n {
            self.trace.push(TraceInstr {
                slot,
                srcs: srcs.to_vec(),
                dst: if i + 1 == n { dst } else { None },
                member: self.current_member,
            });
        }
    }

    /// Reserve `bytes` of the TPC's vector local memory (VLM, 80 KB on
    /// Gaudi-2) for data the kernel stages on chip — e.g. the gathered
    /// embedding vectors of §4.1. The reservation lives until the current
    /// index-space member finishes.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if the member's reservations
    /// exceed the VLM capacity.
    pub fn vlm_alloc(&mut self, bytes: usize) -> Result<()> {
        if self.vlm_used + bytes > self.vlm_capacity {
            return Err(DcmError::ResourceExhausted(format!(
                "vector local memory exhausted: {} + {bytes} > {} B",
                self.vlm_used, self.vlm_capacity
            )));
        }
        self.vlm_used += bytes;
        Ok(())
    }

    fn record_access(&mut self, side: TensorSide, offset: usize, elems: usize, bytes: usize) {
        let sequential = self.last_end.get(&side).is_none_or(|&end| end == offset);
        self.last_end.insert(side, offset + elems);
        if sequential {
            self.counters.stream_accesses += 1;
            self.counters.stream_bytes += usize_to_u64(bytes);
        } else {
            self.counters.random_accesses += 1;
            self.counters.random_bytes += usize_to_u64(bytes);
        }
    }

    fn instr_count(&self, bytes: usize) -> u64 {
        // One vector instruction moves at most one SIMD vector.
        let vector_bytes = self.vector_lanes * 4; // lanes are modeled as f32
        usize_to_u64(bytes.div_ceil(vector_bytes).max(1))
    }

    /// Load `elems` consecutive elements of input `input` starting at flat
    /// element `offset` — the `v_f32_ld_tnsr` of Figure 2(c).
    ///
    /// # Errors
    /// Returns [`DcmError::IndexOutOfBounds`] if the range exceeds the
    /// tensor, or [`DcmError::InvalidConfig`] for an unknown input.
    pub fn ld_tnsr(&mut self, input: usize, offset: usize, elems: usize) -> Result<VecReg> {
        let t = *self
            .inputs
            .get(input)
            .ok_or_else(|| DcmError::InvalidConfig(format!("no input {input}")))?;
        let data = t.data();
        if offset + elems > data.len() {
            return Err(DcmError::IndexOutOfBounds(format!(
                "load [{offset}, {}) out of input {input} len {}",
                offset + elems,
                data.len()
            )));
        }
        let bytes = elems * t.dtype().size_bytes();
        let n = self.instr_count(bytes);
        self.counters.loads += n;
        self.record_access(TensorSide::Input(input), offset, elems, bytes);
        let id = self.fresh_reg();
        self.record(Slot::Load, &[], Some(id), n);
        Ok(VecReg {
            data: data[offset..offset + elems].to_vec(),
            id,
        })
    }

    /// Store a register into output `output` at flat element `offset` — the
    /// `v_f32_st_tnsr` of Figure 2(c).
    ///
    /// # Errors
    /// Returns [`DcmError::IndexOutOfBounds`] if the range exceeds the
    /// tensor, or [`DcmError::InvalidConfig`] for an unknown output.
    pub fn st_tnsr(&mut self, output: usize, offset: usize, reg: &VecReg) -> Result<()> {
        let t = self
            .outputs
            .get_mut(output)
            .ok_or_else(|| DcmError::InvalidConfig(format!("no output {output}")))?;
        let dtype = t.dtype();
        let data = t.data_mut();
        if offset + reg.len() > data.len() {
            return Err(DcmError::IndexOutOfBounds(format!(
                "store [{offset}, {}) out of output {output} len {}",
                offset + reg.len(),
                data.len()
            )));
        }
        data[offset..offset + reg.len()].copy_from_slice(reg.data());
        let bytes = reg.len() * dtype.size_bytes();
        let n = self.instr_count(bytes);
        self.counters.stores += n;
        let elems = reg.len();
        self.record_access(TensorSide::Output(output), offset, elems, bytes);
        let srcs = [reg.id];
        self.record(Slot::Store, &srcs, None, n);
        Ok(())
    }

    fn binary_op(
        &mut self,
        a: &VecReg,
        b: &VecReg,
        flops_per_lane: f64,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<VecReg> {
        if a.len() != b.len() {
            return Err(DcmError::ShapeMismatch(format!(
                "vector op lanes disagree: {} vs {}",
                a.len(),
                b.len()
            )));
        }
        let n = self.instr_count(a.len() * 4);
        self.counters.computes += n;
        self.counters.flops += flops_per_lane * cast::usize_to_f64(a.len());
        let id = self.fresh_reg();
        self.record(Slot::Vpu, &[a.id, b.id], Some(id), n);
        Ok(VecReg {
            data: a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect(),
            id,
        })
    }

    /// Element-wise add (`v_f32_add_b`).
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if lane counts differ.
    pub fn v_add(&mut self, a: &VecReg, b: &VecReg) -> Result<VecReg> {
        self.binary_op(a, b, 1.0, |x, y| x + y)
    }

    /// Element-wise multiply (`v_f32_mul_b`).
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if lane counts differ.
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::softmax_kernel_via_reductions
    pub fn v_mul(&mut self, a: &VecReg, b: &VecReg) -> Result<VecReg> {
        self.binary_op(a, b, 1.0, |x, y| x * y)
    }

    /// Multiply-accumulate `acc + a * b` (`v_f32_mac_b`, 2 FLOPs/lane).
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if lane counts differ.
    pub fn v_mac(&mut self, a: &VecReg, b: &VecReg, acc: &VecReg) -> Result<VecReg> {
        if a.len() != b.len() || a.len() != acc.len() {
            return Err(DcmError::ShapeMismatch(format!(
                "mac lanes disagree: {} / {} / {}",
                a.len(),
                b.len(),
                acc.len()
            )));
        }
        let n = self.instr_count(a.len() * 4);
        self.counters.computes += n;
        self.counters.flops += 2.0 * cast::usize_to_f64(a.len());
        let id = self.fresh_reg();
        self.record(Slot::Vpu, &[a.id, b.id, acc.id], Some(id), n);
        Ok(VecReg {
            data: a
                .data
                .iter()
                .zip(&b.data)
                .zip(&acc.data)
                .map(|((&x, &y), &z)| z + x * y)
                .collect(),
            id,
        })
    }

    /// Scale by an immediate (`v_f32_mul` with a scalar operand).
    #[must_use]
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::closures_are_programs
    pub fn v_scale(&mut self, a: &VecReg, s: f32) -> VecReg {
        let n = self.instr_count(a.len() * 4);
        self.counters.computes += n;
        self.counters.flops += cast::usize_to_f64(a.len());
        let id = self.fresh_reg();
        self.record(Slot::Vpu, &[a.id], Some(id), n);
        VecReg {
            data: a.data.iter().map(|&x| x * s).collect(),
            id,
        }
    }

    /// Element-wise subtract (`v_f32_sub_b`).
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if lane counts differ.
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::softmax_kernel_via_reductions
    pub fn v_sub(&mut self, a: &VecReg, b: &VecReg) -> Result<VecReg> {
        self.binary_op(a, b, 1.0, |x, y| x - y)
    }

    /// Element-wise maximum (`v_f32_max_b`).
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if lane counts differ.
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::select_and_max_semantics
    pub fn v_max(&mut self, a: &VecReg, b: &VecReg) -> Result<VecReg> {
        self.binary_op(a, b, 1.0, f32::max)
    }

    /// Element-wise exponential (the special-function unit; one vector
    /// instruction per register like the other ops, counted at 1 FLOP/lane).
    #[must_use]
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::softmax_kernel_via_reductions
    pub fn v_exp(&mut self, a: &VecReg) -> VecReg {
        let n = self.instr_count(a.len() * 4);
        self.counters.computes += n;
        self.counters.flops += cast::usize_to_f64(a.len());
        let id = self.fresh_reg();
        self.record(Slot::Vpu, &[a.id], Some(id), n);
        VecReg {
            data: a.data.iter().map(|&x| x.exp()).collect(),
            id,
        }
    }

    /// Element-wise reciprocal (`v_f32_recip`).
    #[must_use]
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::softmax_kernel_via_reductions
    pub fn v_recip(&mut self, a: &VecReg) -> VecReg {
        let n = self.instr_count(a.len() * 4);
        self.counters.computes += n;
        self.counters.flops += cast::usize_to_f64(a.len());
        let id = self.fresh_reg();
        self.record(Slot::Vpu, &[a.id], Some(id), n);
        VecReg {
            data: a.data.iter().map(|&x| 1.0 / x).collect(),
            id,
        }
    }

    /// Lane-wise select: `mask[i] != 0 ? a[i] : b[i]` (`v_f32_sel_*`).
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if lane counts differ.
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::select_and_max_semantics
    pub fn v_select(&mut self, mask: &VecReg, a: &VecReg, b: &VecReg) -> Result<VecReg> {
        if mask.len() != a.len() || a.len() != b.len() {
            return Err(DcmError::ShapeMismatch(format!(
                "select lanes disagree: {} / {} / {}",
                mask.len(),
                a.len(),
                b.len()
            )));
        }
        let n = self.instr_count(a.len() * 4);
        self.counters.computes += n;
        let id = self.fresh_reg();
        self.record(Slot::Vpu, &[mask.id, a.id, b.id], Some(id), n);
        Ok(VecReg {
            data: mask
                .data
                .iter()
                .zip(a.data.iter().zip(&b.data))
                // dcm-lint: allow(F2) select masks are exact 0.0/1.0 sentinels
                .map(|(&m, (&x, &y))| if m != 0.0 { x } else { y })
                .collect(),
            id,
        })
    }

    /// Horizontal sum of all lanes (a log2(lanes)-deep shuffle-add tree on
    /// real hardware; counted as one reduction instruction sequence).
    #[must_use]
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::reductions_count_tree_depth_instructions
    pub fn v_reduce_sum(&mut self, a: &VecReg) -> f32 {
        let tree_depth = cast::f64_to_u64(cast::usize_to_f64(a.len().max(2)).log2().ceil());
        self.counters.computes += tree_depth;
        self.counters.flops += cast::usize_to_f64(a.len());
        self.record_reduction(a.id, tree_depth);
        a.data.iter().sum()
    }

    /// Chain the shuffle-add tree of a reduction through fresh registers.
    fn record_reduction(&mut self, src: u32, depth: u64) {
        let mut prev = src;
        for _ in 0..depth {
            let id = self.fresh_reg();
            self.record(Slot::Vpu, &[prev], Some(id), 1);
            prev = id;
        }
    }

    /// Horizontal maximum of all lanes.
    #[must_use]
    // dcm-lint: allow(R1) §4 TPC-C DSL; program::softmax_kernel_via_reductions
    pub fn v_reduce_max(&mut self, a: &VecReg) -> f32 {
        let tree_depth = cast::f64_to_u64(cast::usize_to_f64(a.len().max(2)).log2().ceil());
        self.counters.computes += tree_depth;
        self.record_reduction(a.id, tree_depth);
        a.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }
}

/// A TPC kernel: the same program executed by every index-space member
/// (§2.2). Implement on a struct, or use any
/// `Fn(&mut TpcContext, IndexMember) -> Result<()>` closure.
pub trait TpcProgram {
    /// Execute the work of one index-space member.
    ///
    /// # Errors
    /// Propagates tensor access errors.
    fn run(&self, ctx: &mut TpcContext<'_>, member: IndexMember) -> Result<()>;

    /// Declared unroll factor (`#pragma unroll`, Figure 2(c) line 16).
    fn unroll(&self) -> usize {
        4
    }

    /// Kernel name for reports.
    fn name(&self) -> &str {
        "tpc-kernel"
    }
}

impl<F> TpcProgram for F
where
    F: Fn(&mut TpcContext<'_>, IndexMember) -> Result<()>,
{
    fn run(&self, ctx: &mut TpcContext<'_>, member: IndexMember) -> Result<()> {
        self(ctx, member)
    }
}

/// Outcome of a kernel launch: functional outputs plus timing.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Output tensors, in declaration order.
    pub outputs: Vec<Tensor>,
    /// Modeled cost of the launch.
    pub cost: OpCost,
    /// Raw instruction/access counters.
    pub counters: KernelCounters,
}

/// Launches [`TpcProgram`]s on a modeled device: functional execution plus
/// pipeline/memory pricing.
#[derive(Debug, Clone)]
pub struct TpcExecutor {
    hbm: HbmModel,
    cores: usize,
    clock_hz: f64,
    instr_latency: u32,
    vector_lanes: usize,
    vlm_capacity: usize,
    per_core_bw: f64,
    chip_stream_bw: f64,
}

impl TpcExecutor {
    /// Build an executor for a device.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        TpcExecutor {
            hbm: HbmModel::new(spec),
            cores: spec.vector.count,
            clock_hz: spec.vector.clock_hz,
            instr_latency: spec.vector.instr_latency_cycles,
            vector_lanes: spec.vector.vector_bytes / 4,
            vlm_capacity: spec.vector.vector_local_bytes,
            per_core_bw: spec.memory.stream_bandwidth()
                / cast::usize_to_f64(spec.vector.bw_saturation_cores),
            chip_stream_bw: spec.memory.stream_bandwidth(),
        }
    }

    /// Restrict the launch to at most `cores` cores (e.g. to study
    /// single-TPC behaviour, Figure 8(a,b)).
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn with_max_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        self.cores = self.cores.min(cores);
        self
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Launch `program` over `space`: every member executes functionally,
    /// outputs are created per `output_descs`, and the recorded activity is
    /// priced.
    ///
    /// # Errors
    /// Propagates kernel errors (out-of-bounds accesses, shape mismatches).
    pub fn launch<P: TpcProgram + ?Sized>(
        &self,
        program: &P,
        space: &IndexSpace,
        inputs: &[&Tensor],
        output_descs: &[TensorDesc],
    ) -> Result<LaunchResult> {
        let outputs = output_descs
            .iter()
            .map(|d| Tensor::zeros(d.shape.dims().to_vec(), d.dtype))
            .collect();
        let mut ctx = TpcContext::new(
            inputs.to_vec(),
            outputs,
            self.vector_lanes,
            self.vlm_capacity,
        );
        for (mi, member) in space.iter().enumerate() {
            ctx.vlm_used = 0; // local memory is reused across members
            ctx.current_member = u32::try_from(mi).unwrap_or(u32::MAX);
            program.run(&mut ctx, member)?;
        }
        let counters = ctx.counters();
        let cost = self.price(space, counters, &ctx.trace, program.unroll());
        Ok(LaunchResult {
            outputs: ctx.outputs,
            cost,
            counters,
        })
    }

    /// Price recorded kernel activity over the partitioned index space:
    /// the VLIW trace scheduler supplies the compute cycles (a window of
    /// `unroll` members models the compiler's software pipelining; a SIMT
    /// core schedules with zero architectural latency).
    fn price(
        &self,
        space: &IndexSpace,
        c: KernelCounters,
        trace: &[TraceInstr],
        unroll: usize,
    ) -> OpCost {
        let cores_used = self.cores.min(space.members()).max(1);
        let window = u32::try_from(unroll.max(1)).unwrap_or(u32::MAX);
        let total_cycles = cast::u64_to_f64(vliw::schedule(trace, window, self.instr_latency));
        // Members are independent and distributed across cores; the trace
        // schedule is member-linear, so the per-core share divides evenly.
        let compute_s = total_cycles / cast::usize_to_f64(cores_used) / self.clock_hz;

        // Memory: streams coalesce chip-wide; random accesses pay
        // granularity waste and transaction overhead.
        let stream_bw =
            (cast::usize_to_f64(cores_used) * self.per_core_bw).min(self.chip_stream_bw);
        let stream_s = cast::u64_to_f64(c.stream_bytes) / stream_bw;
        let (random_s, random_bus) = match c.random_bytes.checked_div(c.random_accesses) {
            Some(avg) => {
                let mc = self.hbm.access(
                    usize::try_from(c.random_accesses).unwrap_or(usize::MAX),
                    usize::try_from(avg).unwrap_or(usize::MAX).max(1),
                    AccessPattern::Random,
                );
                (mc.time_s, mc.bus_bytes)
            }
            None => (0.0, 0),
        };
        let stream_bytes = usize::try_from(c.stream_bytes).unwrap_or(usize::MAX);
        let stream_bus = self.hbm.memory().bus_bytes(stream_bytes);
        OpCost {
            engine: Engine::Vector,
            compute_s,
            memory_s: stream_s + random_s,
            flops: c.flops,
            bus_bytes: stream_bus + random_bus,
            useful_bytes: c.stream_bytes + c.random_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::{linalg, rng, DType, DeviceSpec};

    fn executor() -> TpcExecutor {
        TpcExecutor::new(&DeviceSpec::gaudi2())
    }

    /// The element-wise vector add of Figure 2(c), partitioned 1-D.
    struct AddKernel {
        chunk: usize,
    }

    impl TpcProgram for AddKernel {
        fn run(&self, ctx: &mut TpcContext<'_>, member: IndexMember) -> Result<()> {
            let start = member.coord(0) * self.chunk;
            let x = ctx.ld_tnsr(0, start, self.chunk)?;
            let y = ctx.ld_tnsr(1, start, self.chunk)?;
            let r = ctx.v_add(&x, &y)?;
            ctx.st_tnsr(0, start, &r)
        }

        fn name(&self) -> &str {
            "add_tpc"
        }
    }

    #[test]
    fn functional_add_matches_reference() {
        let mut r = rng::seeded(3);
        let n = 64 * 16;
        let a = Tensor::random([n], DType::Fp32, &mut r);
        let b = Tensor::random([n], DType::Fp32, &mut r);
        let space = IndexSpace::linear(16);
        let res = executor()
            .launch(
                &AddKernel { chunk: 64 },
                &space,
                &[&a, &b],
                &[TensorDesc::new([n], DType::Fp32)],
            )
            .unwrap();
        let expect = linalg::add(&a, &b).unwrap();
        assert!(res.outputs[0].max_abs_diff(&expect).unwrap() < 1e-6);
        assert!(res.cost.time() > 0.0);
        assert_eq!(res.counters.computes, 16);
        assert_eq!(res.counters.loads, 32);
        assert_eq!(res.counters.stores, 16);
        assert!((res.counters.flops - f64::from(n as u32)).abs() < 1.0);
    }

    #[test]
    fn closures_are_programs() {
        let a = Tensor::ones([8], DType::Fp32);
        let space = IndexSpace::linear(1);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, 8)?;
                    let y = ctx.v_scale(&x, 3.0);
                    ctx.st_tnsr(0, 0, &y)
                },
                &space,
                &[&a],
                &[TensorDesc::new([8], DType::Fp32)],
            )
            .unwrap();
        assert!(res.outputs[0].data().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn sequential_accesses_classified_as_stream() {
        let a = Tensor::ones([128], DType::Fp32);
        let space = IndexSpace::linear(4);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, m: IndexMember| {
                    let x = ctx.ld_tnsr(0, m.coord(0) * 32, 32)?;
                    ctx.st_tnsr(0, m.coord(0) * 32, &x)
                },
                &space,
                &[&a],
                &[TensorDesc::new([128], DType::Fp32)],
            )
            .unwrap();
        assert_eq!(res.counters.random_accesses, 0);
        assert_eq!(res.counters.stream_accesses, 8);
    }

    #[test]
    fn scattered_accesses_classified_as_random() {
        let a = Tensor::ones([4096], DType::Fp32);
        let space = IndexSpace::linear(4);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, m: IndexMember| {
                    // Jump backwards every member: never sequential.
                    let off = (3 - m.coord(0)) * 1024;
                    let x = ctx.ld_tnsr(0, off, 16)?;
                    ctx.st_tnsr(0, m.coord(0) * 16, &x)
                },
                &space,
                &[&a],
                &[TensorDesc::new([64], DType::Fp32)],
            )
            .unwrap();
        assert!(res.counters.random_accesses >= 3);
    }

    #[test]
    fn out_of_bounds_load_errors() {
        let a = Tensor::ones([8], DType::Fp32);
        let space = IndexSpace::linear(1);
        let err = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let _ = ctx.ld_tnsr(0, 4, 8)?;
                    Ok(())
                },
                &space,
                &[&a],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, DcmError::IndexOutOfBounds(_)));
    }

    #[test]
    fn mac_counts_two_flops_per_lane() {
        let a = Tensor::ones([64], DType::Fp32);
        let space = IndexSpace::linear(1);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, 64)?;
                    let acc = VecReg::zeros(64);
                    let r = ctx.v_mac(&x, &x, &acc)?;
                    ctx.st_tnsr(0, 0, &r)
                },
                &space,
                &[&a],
                &[TensorDesc::new([64], DType::Fp32)],
            )
            .unwrap();
        assert!((res.counters.flops - 128.0).abs() < 1e-9);
        assert!(res.outputs[0].data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn lane_mismatch_is_an_error() {
        let a = Tensor::ones([8], DType::Fp32);
        let space = IndexSpace::linear(1);
        let err = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, 4)?;
                    let y = ctx.ld_tnsr(0, 4, 2)?;
                    let _ = ctx.v_add(&x, &y)?;
                    Ok(())
                },
                &space,
                &[&a],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, DcmError::ShapeMismatch(_)));
    }

    #[test]
    fn wide_accesses_cost_multiple_instructions() {
        // 256 fp32 elements = 1 KB = 4 vector instructions on a 256 B SIMD.
        let a = Tensor::ones([256], DType::Fp32);
        let space = IndexSpace::linear(1);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, 256)?;
                    ctx.st_tnsr(0, 0, &x)
                },
                &space,
                &[&a],
                &[TensorDesc::new([256], DType::Fp32)],
            )
            .unwrap();
        assert_eq!(res.counters.loads, 4);
        assert_eq!(res.counters.stores, 4);
    }

    #[test]
    fn gaudi_prices_random_gathers_worse_than_a100() {
        let run = |spec: &DeviceSpec| {
            let exec = TpcExecutor::new(spec);
            let mut r = rng::seeded(5);
            let table = Tensor::random([4096, 16], DType::Fp32, &mut r);
            let idx = rng::uniform_indices(&mut r, 512, 4096);
            let space = IndexSpace::linear(512);
            let idx_clone = idx.clone();

            exec.launch(
                &move |ctx: &mut TpcContext<'_>, m: IndexMember| {
                    let row = idx_clone[m.coord(0)];
                    let x = ctx.ld_tnsr(0, row * 16, 16)?;
                    ctx.st_tnsr(0, m.coord(0) * 16, &x)
                },
                &space,
                &[&table],
                &[TensorDesc::new([512 * 16], DType::Fp32)],
            )
            .unwrap()
        };
        let g = run(&DeviceSpec::gaudi2());
        let a = run(&DeviceSpec::a100());
        // Same functional outcome...
        assert_eq!(g.outputs[0], a.outputs[0]);
        // ...but 64 B random gathers waste 3/4 of Gaudi's bus (the packed
        // streaming store is equally cheap on both, diluting the total
        // ratio below the 4x of the gather alone).
        assert!(g.cost.bus_bytes > 2 * a.cost.bus_bytes);
        assert!(g.cost.memory_s > a.cost.memory_s);
    }

    #[test]
    fn softmax_kernel_via_reductions() {
        // A numerically stable row softmax written entirely in the DSL:
        // the §4.2 attention softmax as a TPC programmer would express it.
        let mut r = rng::seeded(21);
        let rows = 6;
        let cols = 32;
        let x = Tensor::random([rows * cols], DType::Fp32, &mut r);
        let space = IndexSpace::linear(rows);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, m: IndexMember| {
                    let row = ctx.ld_tnsr(0, m.coord(0) * cols, cols)?;
                    let max = ctx.v_reduce_max(&row);
                    let shifted = ctx.v_sub(&row, &VecReg::splat(max, cols))?;
                    let exps = ctx.v_exp(&shifted);
                    let sum = ctx.v_reduce_sum(&exps);
                    let inv = ctx.v_recip(&VecReg::splat(sum, cols));
                    let out = ctx.v_mul(&exps, &inv)?;
                    ctx.st_tnsr(0, m.coord(0) * cols, &out)
                },
                &space,
                &[&x],
                &[TensorDesc::new([rows * cols], DType::Fp32)],
            )
            .unwrap();
        // Compare against the linalg reference.
        let x2 = Tensor::from_vec([rows, cols], DType::Fp32, x.data().to_vec()).unwrap();
        let expect = linalg::softmax_rows(&x2);
        let got =
            Tensor::from_vec([rows, cols], DType::Fp32, res.outputs[0].data().to_vec()).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-5);
        assert!(res.counters.computes > 0);
    }

    #[test]
    fn select_and_max_semantics() {
        let a = Tensor::from_vec([4], DType::Fp32, vec![1., -2., 3., -4.]).unwrap();
        let space = IndexSpace::linear(1);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, 4)?;
                    let zero = VecReg::zeros(4);
                    let relu = ctx.v_max(&x, &zero)?; // ReLU via max
                                                      // Mask selects original where positive, zero elsewhere:
                                                      // identical to the ReLU above.
                    let sel = ctx.v_select(&relu, &x, &zero)?;
                    let diff = ctx.v_sub(&relu, &sel)?;
                    ctx.st_tnsr(0, 0, &diff)
                },
                &space,
                &[&a],
                &[TensorDesc::new([4], DType::Fp32)],
            )
            .unwrap();
        assert!(res.outputs[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vlm_capacity_is_enforced_per_member() {
        // Gaudi-2's 80 KB vector local memory: a kernel staging more than
        // that must fail; the reservation resets between members.
        let a = Tensor::ones([8], DType::Fp32);
        let space = IndexSpace::linear(4);
        // 60 KB per member: fine, because VLM resets each member.
        let ok = executor().launch(
            &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                ctx.vlm_alloc(60 << 10)?;
                assert_eq!(ctx.vlm_used, 60 << 10);
                Ok(())
            },
            &space,
            &[&a],
            &[],
        );
        assert!(ok.is_ok());
        // 30 KB three times within one member: exceeds 80 KB.
        let err = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    ctx.vlm_alloc(30 << 10)?;
                    ctx.vlm_alloc(30 << 10)?;
                    ctx.vlm_alloc(30 << 10)?;
                    Ok(())
                },
                &IndexSpace::linear(1),
                &[&a],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, DcmError::ResourceExhausted(_)));
    }

    #[test]
    fn reductions_count_tree_depth_instructions() {
        let a = Tensor::ones([64], DType::Fp32);
        let res = executor()
            .launch(
                &|ctx: &mut TpcContext<'_>, _m: IndexMember| {
                    let x = ctx.ld_tnsr(0, 0, 64)?;
                    let s = ctx.v_reduce_sum(&x);
                    assert!((s - 64.0).abs() < 1e-6);
                    Ok(())
                },
                &IndexSpace::linear(1),
                &[&a],
                &[],
            )
            .unwrap();
        // log2(64) = 6 shuffle-add steps.
        assert_eq!(res.counters.computes, 6);
    }

    #[test]
    fn vecreg_helpers() {
        let z = VecReg::zeros(4);
        assert_eq!(z.len(), 4);
        assert!(!z.is_empty());
        let s = VecReg::splat(2.5, 3);
        assert_eq!(s.data(), &[2.5, 2.5, 2.5]);
        assert!(VecReg::zeros(0).is_empty());
    }
}
