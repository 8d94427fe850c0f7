//! The unified device model: op pricing, compiled-graph execution, and
//! energy accounting for both chips.

use crate::ir::{EwKind, Graph, Op};
use crate::passes::{compile, CompileOptions, CompiledGraph, Scheduled};
use dcm_core::cast::{u64_to_f64, usize_to_f64, usize_to_u64};
use dcm_core::cost::{ExecStats, OpCost};
use dcm_core::energy::{Activity, PowerModel};
use dcm_core::specs::{
    DeviceSpec, FabricSpec, MatrixEngineSpec, MemorySpec, PowerSpec, ScaleOutSpec, VectorEngineSpec,
};
use dcm_core::timeline::even_pipeline_makespan;
use dcm_core::DType;
use dcm_mem::GatherScatterEngine;
use dcm_mme::{A100TensorCore, GaudiMme, GemmEngine, GemmRun, GemmShape};
use dcm_net::Collective;
use dcm_net::CollectiveModel;
use dcm_tpc::engine::{StreamKernel, VectorEngineModel};

/// GEMM backend dispatch (static, no trait objects: the set is closed).
#[derive(Debug, Clone)]
enum GemmBackend {
    Gaudi(GaudiMme),
    A100(A100TensorCore),
}

impl GemmBackend {
    fn gemm(&self, shape: GemmShape, dtype: DType) -> GemmRun {
        match self {
            GemmBackend::Gaudi(g) => g.gemm(shape, dtype),
            GemmBackend::A100(a) => a.gemm(shape, dtype),
        }
    }

    fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        match self {
            GemmBackend::Gaudi(g) => g.batched_gemm(batch, shape, dtype),
            GemmBackend::A100(a) => a.batched_gemm(batch, shape, dtype),
        }
    }

    fn batched_gemm_within(
        &self,
        batch: usize,
        shape: GemmShape,
        dtype: DType,
        budget: f64,
    ) -> Option<GemmRun> {
        match self {
            GemmBackend::Gaudi(g) => g.batched_gemm_within(batch, shape, dtype, budget),
            GemmBackend::A100(a) => a.batched_gemm_within(batch, shape, dtype, budget),
        }
    }
}

/// Result of executing a compiled graph on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Aggregate timing and traffic.
    pub stats: ExecStats,
    /// Modeled energy in joules.
    pub energy_j: f64,
    /// Mean power draw in watts over the run.
    pub power_w: f64,
    /// Time-weighted fraction of the MAC array powered (drives the energy
    /// model's power gating).
    pub matrix_powered_fraction: f64,
}

impl GraphRun {
    /// Wall time of the run in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.stats.time_s
    }
}

/// A complete modeled device: matrix engine, vector engine, memory system,
/// node fabric and power model, with graph-compiler execution on top.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    gemm: GemmBackend,
    vector: VectorEngineModel,
    gather: GatherScatterEngine,
    collective: CollectiveModel,
    power: PowerModel,
}

impl Device {
    /// The modeled Intel Gaudi-2 (HLS-Gaudi-2 node).
    #[must_use]
    pub fn gaudi2() -> Self {
        Self::gaudi_like(DeviceSpec::gaudi2())
    }

    /// The modeled Intel Gaudi-3 projection (chiplet-based scale-up of the
    /// same architecture; the paper's footnote 1).
    #[must_use]
    pub fn gaudi3() -> Self {
        Self::gaudi_like(DeviceSpec::gaudi3())
    }

    /// The modeled NVIDIA A100 (DGX A100 node).
    #[must_use]
    pub fn a100() -> Self {
        Self::a100_like(DeviceSpec::a100())
    }

    /// A Gaudi-architecture device with a custom spec — the hook for
    /// what-if ablations (e.g. a hypothetical Gaudi with 32 B memory
    /// sectors or a switched fabric).
    #[must_use]
    pub fn gaudi_like(spec: DeviceSpec) -> Self {
        Device {
            gemm: GemmBackend::Gaudi(GaudiMme::new(&spec)),
            vector: VectorEngineModel::new(&spec),
            gather: GatherScatterEngine::new(&spec),
            collective: CollectiveModel::new(&spec),
            power: PowerModel::new(&spec),
            spec,
        }
    }

    /// A GPU-architecture device with a custom spec.
    #[must_use]
    pub fn a100_like(spec: DeviceSpec) -> Self {
        Device {
            gemm: GemmBackend::A100(A100TensorCore::new(&spec)),
            vector: VectorEngineModel::new(&spec),
            gather: GatherScatterEngine::new(&spec),
            collective: CollectiveModel::new(&spec),
            power: PowerModel::new(&spec),
            spec,
        }
    }

    /// The device specification.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Device name ("Gaudi-2" / "A100").
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Exact equality: the same backend architecture and specs equal
    /// field by field, floats compared by bit pattern. Two such devices
    /// price every graph to the same bits, which is what a cache keyed on
    /// devices needs. Derived `DeviceSpec` equality is not enough: it
    /// equates `-0.0` with `0.0` and never matches a NaN field to itself.
    #[must_use]
    pub fn exact_eq(&self, other: &Device) -> bool {
        let same_backend = matches!(
            (&self.gemm, &other.gemm),
            (GemmBackend::Gaudi(_), GemmBackend::Gaudi(_))
                | (GemmBackend::A100(_), GemmBackend::A100(_))
        );
        same_backend
            && self.spec.name == other.spec.name
            && self.spec.process_node == other.spec.process_node
            && spec_words(&self.spec) == spec_words(&other.spec)
    }

    /// Peak matrix FLOP/s at `dtype`.
    #[must_use]
    pub fn matrix_peak_flops(&self, dtype: DType) -> f64 {
        self.spec.matrix.peak_flops(dtype)
    }

    /// The collective-communication model of the device's node.
    #[must_use]
    pub fn collective_model(&self) -> &CollectiveModel {
        &self.collective
    }

    /// The power model.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Run a single GEMM (convenience for microbenchmarks).
    #[must_use]
    pub fn gemm(&self, shape: GemmShape, dtype: DType) -> GemmRun {
        self.gemm.gemm(shape, dtype)
    }

    /// Run `batch` independent GEMMs dispatched together.
    #[must_use]
    pub fn batched_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> GemmRun {
        self.gemm.batched_gemm(batch, shape, dtype)
    }

    /// Price one operator: cost plus the powered MAC fraction during it.
    #[must_use]
    pub fn op_cost(&self, op: &Op) -> (OpCost, f64) {
        match op {
            Op::Gemm { shape, dtype } => {
                let run = self.gemm.gemm(*shape, *dtype);
                (run.cost, run.powered_fraction)
            }
            Op::BatchedGemm {
                batch,
                shape,
                dtype,
            } => {
                // The compiler may lower a batch of GEMV-like problems onto
                // the vector engine instead of the matrix engine (FusedSDPA
                // does this for decode attention; flash-decoding is the
                // CUDA analogue): a 1-row output tile wastes almost the
                // whole systolic array, while the SIMD units stream it at
                // memory speed. The matrix engine wins ties.
                let vector = self.batched_vector_gemm(*batch, *shape, *dtype);
                match self
                    .gemm
                    .batched_gemm_within(*batch, *shape, *dtype, vector.time())
                {
                    Some(matrix) => (matrix.cost, matrix.powered_fraction),
                    None => (vector, 0.0),
                }
            }
            Op::Elementwise { kind, elems, dtype } => {
                (self.elementwise_cost(*kind, *elems, *dtype), 0.0)
            }
            Op::Softmax { rows, cols, dtype } => {
                // Max, exp, sum, divide: two passes over the data, four
                // chained vector ops per element.
                let kernel = StreamKernel {
                    name: "softmax",
                    loads: 2,
                    stores: 1,
                    computes: 4,
                    ops_per_instr: 1,
                    granularity: 256,
                    unroll: 4,
                };
                let cores = self.vector.cores();
                (
                    self.vector.run_cost(&kernel, cores, rows * cols, *dtype),
                    0.0,
                )
            }
            Op::Gather {
                count,
                vector_bytes,
            } => (
                self.gather
                    .gather_cost(*count, *vector_bytes)
                    .into_op_cost(),
                0.0,
            ),
            Op::AllReduce {
                bytes,
                participants,
            } => {
                if *participants < 2 {
                    (OpCost::free(dcm_core::cost::Engine::Network), 0.0)
                } else {
                    (
                        self.collective
                            .cost(Collective::AllReduce, *bytes, *participants),
                        0.0,
                    )
                }
            }
        }
    }

    /// [`op_cost`](Self::op_cost)`(op).0.time()`, bit for bit. A batched
    /// GEMM whose vector lowering is memory-bound takes that lowering's
    /// time whichever engine runs it, since no engine moves fewer bytes
    /// (DESIGN.md §3.6, "Cold prices"), so its time needs no matrix search.
    #[must_use]
    pub fn op_time(&self, op: &Op) -> f64 {
        if let Op::BatchedGemm {
            batch,
            shape,
            dtype,
        } = *op
        {
            let vector = self.batched_vector_gemm(batch, shape, dtype);
            if vector.compute_s <= vector.memory_s {
                return vector.time();
            }
        }
        self.op_cost(op).0.time()
    }

    /// Price a batched GEMM executed as dot products on the vector engine:
    /// streaming-memory-bound with FMA-rate compute.
    fn batched_vector_gemm(&self, batch: usize, shape: GemmShape, dtype: DType) -> OpCost {
        let flops = shape.flops() * usize_to_f64(batch);
        let bytes = shape.ideal_bytes(dtype) * usize_to_u64(batch);
        OpCost {
            engine: dcm_core::cost::Engine::Vector,
            compute_s: flops / self.spec.vector_peak_flops(dtype),
            memory_s: u64_to_f64(bytes) / self.spec.memory.stream_bandwidth(),
            flops,
            bus_bytes: bytes,
            useful_bytes: bytes,
        }
    }

    fn elementwise_cost(&self, kind: EwKind, elems: usize, dtype: DType) -> OpCost {
        let kernel = StreamKernel {
            name: kind.name(),
            loads: kind.inputs(),
            stores: 1,
            computes: kind.computes_per_elem().max(1),
            ops_per_instr: 1,
            granularity: 256,
            unroll: 4,
        };
        let cores = self.vector.cores();
        let mut cost = self.vector.run_cost(&kernel, cores, elems, dtype);
        if kind.computes_per_elem() == 0 {
            cost.flops = 0.0;
        }
        cost
    }

    /// Price a fused element-wise chain: one load/store pass, all compute
    /// chained (the intermediate tensors stay on chip).
    fn fused_cost(&self, ops: &[Op]) -> OpCost {
        let mut computes = 0usize;
        let mut elems = 0usize;
        let mut dtype = DType::Bf16;
        let first_inputs = match ops.first() {
            Some(Op::Elementwise { kind, .. }) => kind.inputs(),
            _ => 1,
        };
        // Later ops in the chain may add extra operands (e.g. residual
        // adds), each a streaming input.
        let mut extra_inputs = 0usize;
        for op in ops {
            if let Op::Elementwise {
                kind,
                elems: e,
                dtype: d,
            } = op
            {
                computes += kind.computes_per_elem();
                elems = elems.max(*e);
                dtype = *d;
                if kind.inputs() > 1 {
                    extra_inputs += kind.inputs() - 1;
                }
            }
        }
        let extra = extra_inputs.saturating_sub(first_inputs.saturating_sub(1));
        let kernel = StreamKernel {
            name: "fused-ew",
            loads: first_inputs + extra,
            stores: 1,
            computes: computes.max(1),
            ops_per_instr: 1,
            granularity: 256,
            unroll: 4,
        };
        let cores = self.vector.cores();
        self.vector.run_cost(&kernel, cores, elems, dtype)
    }

    /// Price one schedule unit: append each of its ops' cost and powered
    /// MAC fraction to `costs` in execution order, and return the unit's
    /// wall time.
    fn scheduled_cost(&self, unit: &Scheduled, costs: &mut Vec<(OpCost, f64)>) -> f64 {
        match unit {
            Scheduled::Single(op) => {
                let (c, pf) = self.op_cost(op);
                costs.push((c, pf));
                c.time()
            }
            Scheduled::FusedElementwise(ops) => {
                let c = self.fused_cost(ops);
                costs.push((c, 0.0));
                c.time()
            }
            Scheduled::Pipelined {
                producer,
                consumer,
                slices,
            } => {
                let (pc, pf) = self.op_cost(producer);
                costs.push((pc, pf));
                let consumer_wall = self.scheduled_cost(consumer, costs);
                even_pipeline_makespan(pc.time(), consumer_wall, *slices)
            }
        }
    }

    /// Execute a compiled graph. Each unit of a block is priced once; its
    /// costs are then accumulated once per repetition, in schedule order,
    /// so the sums are those of pricing the flat schedule unit by unit.
    #[must_use]
    pub fn execute(&self, graph: &CompiledGraph) -> GraphRun {
        let mut stats = ExecStats::new();
        let mut powered_weight = 0.0;
        let mut matrix_time = 0.0;
        let mut costs = Vec::new();
        // Per body unit: the end of its run in `costs`, and its wall.
        let mut units = Vec::new();
        for block in graph.blocks() {
            costs.clear();
            units.clear();
            for unit in block.body() {
                let wall = self.scheduled_cost(unit, &mut costs);
                units.push((costs.len(), wall));
            }
            for _ in 0..block.repeat() {
                let mut start = 0;
                for &(end, wall) in &units {
                    for (i, (c, pf)) in costs[start..end].iter().enumerate() {
                        if c.engine == dcm_core::cost::Engine::Matrix {
                            powered_weight += pf * c.compute_s;
                            matrix_time += c.compute_s;
                        }
                        stats.push_overlapped(c, if i == 0 { wall } else { 0.0 });
                    }
                    start = end;
                }
            }
        }
        let powered = if matrix_time > 0.0 {
            powered_weight / matrix_time
        } else {
            1.0
        };
        let activity = Activity::from_stats_with_gating(&stats, powered);
        let power_w = self.power.power_watts(activity);
        GraphRun {
            energy_j: power_w * stats.time_s,
            power_w,
            matrix_powered_fraction: powered,
            stats,
        }
    }

    /// Compile and execute a graph in one step.
    #[must_use]
    pub fn run_graph(&self, graph: &Graph, opts: &CompileOptions) -> GraphRun {
        self.execute(&compile(graph, opts))
    }
}

/// Every numeric field of `spec` as a 64-bit word, floats by bit pattern
/// and the fabric variant as a tag, for [`Device::exact_eq`]. The
/// destructuring is exhaustive, so a new spec field does not compile
/// until it is compared here.
fn spec_words(spec: &DeviceSpec) -> [u64; 32] {
    let DeviceSpec {
        name: _,
        process_node: _,
        matrix:
            MatrixEngineSpec {
                count,
                mac_rows,
                mac_cols,
                reconfigurable,
                clock_hz,
                peak_flops_bf16,
                fp32_factor,
            },
        vector:
            VectorEngineSpec {
                count: vector_count,
                vector_bytes,
                clock_hz: vector_clock_hz,
                peak_flops_bf16: vector_peak_flops_bf16,
                instr_latency_cycles,
                scalar_local_bytes,
                vector_local_bytes,
                bw_saturation_cores,
            },
        memory:
            MemorySpec {
                hbm_capacity_bytes,
                hbm_bandwidth_bps,
                sram_bytes,
                min_access_bytes,
                stream_efficiency,
                random_efficiency,
                random_overhead_bytes,
            },
        fabric,
        scale_out:
            ScaleOutSpec {
                bps_per_device,
                alpha_s,
                efficiency,
            },
        devices_per_node,
        power:
            PowerSpec {
                tdp_watts,
                idle_watts,
                power_gating,
            },
    } = spec;
    let (fabric_tag, fabric_links, fabric_bps) = match *fabric {
        FabricSpec::P2pMesh {
            links_per_pair,
            link_bps,
        } => (0, links_per_pair, link_bps),
        FabricSpec::Switched { per_device_bps } => (1, 0, per_device_bps),
    };
    [
        usize_to_u64(*count),
        usize_to_u64(*mac_rows),
        usize_to_u64(*mac_cols),
        u64::from(*reconfigurable),
        clock_hz.to_bits(),
        peak_flops_bf16.to_bits(),
        fp32_factor.to_bits(),
        usize_to_u64(*vector_count),
        usize_to_u64(*vector_bytes),
        vector_clock_hz.to_bits(),
        vector_peak_flops_bf16.to_bits(),
        u64::from(*instr_latency_cycles),
        usize_to_u64(*scalar_local_bytes),
        usize_to_u64(*vector_local_bytes),
        usize_to_u64(*bw_saturation_cores),
        *hbm_capacity_bytes,
        hbm_bandwidth_bps.to_bits(),
        *sram_bytes,
        usize_to_u64(*min_access_bytes),
        stream_efficiency.to_bits(),
        random_efficiency.to_bits(),
        usize_to_u64(*random_overhead_bytes),
        fabric_tag,
        usize_to_u64(fabric_links),
        fabric_bps.to_bits(),
        bps_per_device.to_bits(),
        alpha_s.to_bits(),
        efficiency.to_bits(),
        usize_to_u64(*devices_per_node),
        tdp_watts.to_bits(),
        idle_watts.to_bits(),
        u64::from(*power_gating),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp_graph(batch: usize, hidden: usize) -> Graph {
        let mut g = Graph::new("mlp");
        g.push(Op::gemm(GemmShape::new(batch, hidden, hidden), DType::Bf16));
        g.push(Op::relu(batch * hidden, DType::Bf16));
        g.push(Op::gemm(GemmShape::new(batch, hidden, hidden), DType::Bf16));
        g.push(Op::relu(batch * hidden, DType::Bf16));
        g
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let g = mlp_graph(4096, 4096);
        let gaudi = Device::gaudi2();
        let piped = gaudi.run_graph(&g, &CompileOptions::default());
        let serial = gaudi.run_graph(&g, &CompileOptions::unoptimized());
        assert!(
            piped.time_s() < serial.time_s(),
            "piped {} vs serial {}",
            piped.time_s(),
            serial.time_s()
        );
    }

    #[test]
    fn fusion_reduces_memory_traffic() {
        let mut g = Graph::new("chain");
        g.push(Op::relu(1 << 22, DType::Bf16));
        g.push(Op::add(1 << 22, DType::Bf16));
        g.push(Op::relu(1 << 22, DType::Bf16));
        let gaudi = Device::gaudi2();
        let fused = gaudi.run_graph(&g, &CompileOptions::default());
        let unfused = gaudi.run_graph(&g, &CompileOptions::unoptimized());
        assert!(fused.stats.bus_bytes < unfused.stats.bus_bytes);
        assert!(fused.time_s() < unfused.time_s());
    }

    #[test]
    fn both_devices_execute_the_same_graph() {
        let g = mlp_graph(2048, 2048);
        let gaudi = Device::gaudi2().run_graph(&g, &CompileOptions::default());
        let a100 = Device::a100().run_graph(&g, &CompileOptions::default());
        assert!(gaudi.stats.flops > 0.0 && a100.stats.flops > 0.0);
        assert!((gaudi.stats.flops - a100.stats.flops).abs() < 1.0);
        // GEMM-dominated graphs favor Gaudi-2 (key takeaway #1).
        assert!(gaudi.time_s() < a100.time_s());
    }

    #[test]
    fn batched_gemm_amortizes_launches() {
        let d = Device::gaudi2();
        let batched = Op::batched_gemm(64, GemmShape::new(128, 128, 128), DType::Bf16);
        let (bc, _) = d.op_cost(&batched);
        let single = Op::gemm(GemmShape::new(128, 128, 128), DType::Bf16);
        let (sc, _) = d.op_cost(&single);
        assert!(bc.time() < sc.time() * 64.0);
        assert!((bc.flops - sc.flops * 64.0).abs() < 1.0);
    }

    #[test]
    fn energy_reflects_power_gating() {
        let d = Device::gaudi2();
        // A small GEMM powers a sub-array; powered fraction < 1.
        let mut g = Graph::new("small");
        g.push(Op::gemm(GemmShape::new(128, 8192, 64), DType::Bf16));
        let run = d.run_graph(&g, &CompileOptions::default());
        assert!(run.matrix_powered_fraction < 0.5);
        assert!(run.power_w < d.spec().power.tdp_watts);
        assert!(run.energy_j > 0.0);
    }

    #[test]
    fn allreduce_op_prices_via_fabric() {
        let d = Device::gaudi2();
        let (c8, _) = d.op_cost(&Op::AllReduce {
            bytes: 32 << 20,
            participants: 8,
        });
        let (c2, _) = d.op_cost(&Op::AllReduce {
            bytes: 32 << 20,
            participants: 2,
        });
        // Fewer participants -> fewer usable links -> slower (KT#4).
        assert!(c2.time() > c8.time());
        let (c1, _) = d.op_cost(&Op::AllReduce {
            bytes: 32 << 20,
            participants: 1,
        });
        assert_eq!(c1.time(), 0.0);
    }

    #[test]
    fn unit_times_are_labeled() {
        let g = mlp_graph(1024, 1024);
        let c = compile(&g, &CompileOptions::default());
        // Two pipelined pairs.
        assert!(c.units().all(|u| matches!(u, Scheduled::Pipelined { .. })));
        let labels: Vec<String> = c.units().map(ToString::to_string).collect();
        let pair = "gemm(1024x1024x1024):bf16 ~> ew:Relu[1048576] (x16)";
        assert_eq!(labels, [pair, pair]);
    }

    #[test]
    fn copy_op_moves_bytes_without_flops() {
        let d = Device::a100();
        let (c, _) = d.op_cost(&Op::Elementwise {
            kind: EwKind::Copy,
            elems: 1 << 20,
            dtype: DType::Bf16,
        });
        assert_eq!(c.flops, 0.0);
        assert!(c.useful_bytes > 0);
    }

    #[test]
    fn gather_cost_prefers_a100_for_small_vectors() {
        let op = Op::Gather {
            count: 1 << 20,
            vector_bytes: 64,
        };
        let (g, _) = Device::gaudi2().op_cost(&op);
        let (a, _) = Device::a100().op_cost(&op);
        assert!(g.time() > a.time(), "KT#3: {} vs {}", g.time(), a.time());
    }

    #[test]
    fn exact_eq_compares_backend_and_every_spec_bit() {
        let g2 = Device::gaudi2();
        assert!(g2.exact_eq(&Device::gaudi2()));
        assert!(g2.exact_eq(&g2.clone()));
        assert!(!g2.exact_eq(&Device::gaudi3()));
        assert!(!g2.exact_eq(&Device::a100()));
        // Same spec, other architecture.
        assert!(!g2.exact_eq(&Device::a100_like(DeviceSpec::gaudi2())));
        // A mutated spec that keeps its name is another device.
        let mut sectors = DeviceSpec::gaudi2();
        sectors.memory.min_access_bytes = 32;
        assert!(!g2.exact_eq(&Device::gaudi_like(sectors)));
        // Floats compare by bits: -0.0 is not 0.0, and NaN matches itself.
        let with_alpha = |alpha_s: f64| {
            let mut spec = DeviceSpec::gaudi2();
            spec.scale_out.alpha_s = alpha_s;
            Device::gaudi_like(spec)
        };
        assert_eq!(with_alpha(0.0).spec(), with_alpha(-0.0).spec());
        assert!(!with_alpha(0.0).exact_eq(&with_alpha(-0.0)));
        assert!(with_alpha(f64::NAN).exact_eq(&with_alpha(f64::NAN)));
        // So does a renamed but otherwise identical device.
        let mut renamed = DeviceSpec::gaudi2();
        renamed.name = "Gaudi-2b".to_owned();
        assert!(!g2.exact_eq(&Device::gaudi_like(renamed)));
    }
}
