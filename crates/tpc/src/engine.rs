//! Analytic vector-engine timing model (all of Figure 8).
//!
//! A [`StreamKernel`] describes one iteration of a STREAM-style loop body:
//! how many vector loads, stores and compute instructions it issues, the
//! data access granularity, and the unroll factor. A [`VectorEngineModel`]
//! maps such kernels onto either device:
//!
//! * **Gaudi TPC** — single-threaded VLIW: one instruction per slot
//!   (load / store / vector) per cycle, results visible 4 cycles later
//!   \[27\]. Without unrolling, the dependent load→compute→store chain stalls
//!   the pipeline; unrolling `U` independent iterations divides the stall.
//! * **A100 SM** — SIMT: hardware multithreading hides latency
//!   (`instr_latency_cycles = 0`), so the slot bound applies directly.
//!
//! Memory: one core can pull at most `stream_bw / bw_saturation_cores`; the
//! chip caps at streaming bandwidth. Sub-granularity accesses waste bus
//! bytes *and* SIMD lanes.

use dcm_core::cast::{self, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::DeviceSpec;
use dcm_core::DType;
use serde::{Deserialize, Serialize};

/// Pipeline stages of a dependent iteration body beyond its compute chain.
/// Loads of the next iteration issue during stalls (in-order issue with
/// scoreboarding), so only the load→compute edge and the compute chain
/// itself stall the pipeline; the trailing store drains in the shadow of
/// the next iteration's loads.
const CHAIN_BASE_STAGES: usize = 1;

/// One iteration of a STREAM-style loop body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamKernel {
    /// Kernel name for reports. Static: kernels are a closed catalog,
    /// and cost evaluation sits on the per-event hot path (lint rule A1).
    pub name: &'static str,
    /// Vector loads per iteration (arrays read).
    pub loads: usize,
    /// Vector stores per iteration (arrays written).
    pub stores: usize,
    /// Dependent compute instructions per iteration.
    pub computes: usize,
    /// FLOPs per lane per compute instruction: 1 for add/mul, 2 for MAC.
    pub ops_per_instr: usize,
    /// Useful bytes touched per access (the x-axis of Figure 8(a)).
    pub granularity: usize,
    /// Loop unroll factor (the x-axis of Figure 8(b)).
    pub unroll: usize,
}

impl StreamKernel {
    /// STREAM ADD: `c[i] = a[i] + b[i]` (Algorithm 1).
    #[must_use]
    pub fn add() -> Self {
        StreamKernel {
            name: "ADD",
            loads: 2,
            stores: 1,
            computes: 1,
            ops_per_instr: 1,
            granularity: 256,
            unroll: 1,
        }
    }

    /// STREAM SCALE: `b[i] = s * a[i]` (Algorithm 1).
    #[must_use]
    pub fn scale() -> Self {
        StreamKernel {
            name: "SCALE",
            loads: 1,
            stores: 1,
            computes: 1,
            ops_per_instr: 1,
            granularity: 256,
            unroll: 1,
        }
    }

    /// STREAM TRIAD: `c[i] = s * a[i] + b[i]` (Algorithm 1) — one MAC.
    #[must_use]
    pub fn triad() -> Self {
        StreamKernel {
            name: "TRIAD",
            loads: 2,
            stores: 1,
            computes: 1,
            ops_per_instr: 2,
            granularity: 256,
            unroll: 1,
        }
    }

    /// Replace the unroll factor.
    #[must_use]
    pub fn with_unroll(mut self, unroll: usize) -> Self {
        assert!(unroll > 0, "unroll must be positive");
        self.unroll = unroll;
        self
    }

    /// Replace the data access granularity in bytes.
    #[must_use]
    pub fn with_granularity(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "granularity must be positive");
        self.granularity = bytes;
        self
    }

    /// Artificially raise operational intensity by chaining `n` compute
    /// instructions per loaded vector (the Figure 8(d–f) sweep).
    #[must_use]
    pub fn with_intensity_scale(mut self, n: usize) -> Self {
        assert!(n > 0, "intensity scale must be positive");
        self.computes = n;
        self
    }

    /// FLOPs per iteration at `dtype` (useful elements × compute chain).
    #[must_use]
    pub fn flops_per_iter(&self, dtype: DType) -> f64 {
        let elems = (self.granularity / dtype.size_bytes()).max(1);
        cast::usize_to_f64(elems * self.computes * self.ops_per_instr)
    }

    /// Useful bytes per iteration.
    #[must_use]
    pub fn useful_bytes_per_iter(&self) -> u64 {
        usize_to_u64((self.loads + self.stores) * self.granularity)
    }

    /// Operational intensity in FLOP per useful byte at `dtype`
    /// (ADD 1/6, SCALE 1/4, TRIAD 1/3 for BF16 — §3.2).
    #[must_use]
    pub fn operational_intensity(&self, dtype: DType) -> f64 {
        self.flops_per_iter(dtype) / cast::u64_to_f64(self.useful_bytes_per_iter())
    }
}

/// Analytic timing model of one device's programmable vector engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorEngineModel {
    name: String,
    cores: usize,
    clock_hz: f64,
    vector_bytes: usize,
    peak_bf16: f64,
    instr_latency: u32,
    per_core_bw: f64,
    chip_stream_bw: f64,
    min_access_bytes: usize,
}

impl VectorEngineModel {
    /// Build the model from a device spec.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        let v = &spec.vector;
        let chip_stream_bw = spec.memory.stream_bandwidth();
        VectorEngineModel {
            name: format!("{} vector engine", spec.name),
            cores: v.count,
            clock_hz: v.clock_hz,
            vector_bytes: v.vector_bytes,
            peak_bf16: v.peak_flops_bf16,
            instr_latency: v.instr_latency_cycles,
            per_core_bw: chip_stream_bw / cast::usize_to_f64(v.bw_saturation_cores),
            chip_stream_bw,
            min_access_bytes: spec.memory.min_access_bytes,
        }
    }

    /// Engine name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total cores (24 TPCs / 108 SMs).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Peak vector FLOP/s at `dtype`.
    #[must_use]
    pub fn peak_flops(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Bf16 | DType::Fp16 => self.peak_bf16,
            DType::Fp32 | DType::Int32 => self.peak_bf16 / 2.0,
            DType::Int8 => self.peak_bf16 * 2.0,
        }
    }

    /// Compute cycles per iteration for `kernel` on one core.
    ///
    /// Slot bound: the VLIW issues one instruction per slot per cycle, and
    /// an access of `granularity > vector_bytes` needs multiple
    /// instructions. Latency bound: the dependent chain costs
    /// `instr_latency` per stage and is divided by the unroll factor.
    #[must_use]
    pub fn cycles_per_iter(&self, kernel: &StreamKernel) -> f64 {
        let unit_instrs = cast::usize_to_f64(kernel.granularity.div_ceil(self.vector_bytes).max(1));
        let slot =
            cast::usize_to_f64(kernel.loads.max(kernel.stores).max(kernel.computes)) * unit_instrs;
        if self.instr_latency == 0 {
            return slot;
        }
        let chain_stages = cast::usize_to_f64(CHAIN_BASE_STAGES + kernel.computes);
        let latency_total = slot + f64::from(self.instr_latency) * chain_stages;
        // Unrolling U independent iterations lets their instructions fill
        // each other's latency bubbles (§2.2 best practice #2).
        slot.max(latency_total / cast::usize_to_f64(kernel.unroll))
    }

    /// Memory time per iteration on one core in seconds: every access is
    /// rounded up to the device granularity and strided kernels cannot
    /// coalesce across iterations.
    #[must_use]
    pub fn mem_time_per_iter(&self, kernel: &StreamKernel, cores_used: usize) -> f64 {
        let per_access_bus = usize_to_u64(round_up(kernel.granularity, self.min_access_bytes));
        let bus = per_access_bus * usize_to_u64(kernel.loads + kernel.stores);
        let bw = (cast::usize_to_f64(cores_used) * self.per_core_bw).min(self.chip_stream_bw)
            / cast::usize_to_f64(cores_used);
        cast::u64_to_f64(bus) / bw
    }

    /// Sustained FLOP/s of one core running `kernel` (Figure 8(a,b)).
    #[must_use]
    pub fn single_core_throughput(&self, kernel: &StreamKernel, dtype: DType) -> f64 {
        self.throughput(kernel, 1, dtype)
    }

    /// Sustained FLOP/s of `cores_used` cores running `kernel` under weak
    /// scaling (Figure 8(c–f)).
    ///
    /// # Panics
    /// Panics if `cores_used` is zero or exceeds the core count.
    #[must_use]
    pub fn throughput(&self, kernel: &StreamKernel, cores_used: usize, dtype: DType) -> f64 {
        assert!(
            cores_used >= 1 && cores_used <= self.cores,
            "cores_used {cores_used} out of 1..={}",
            self.cores
        );
        let compute_t = self.cycles_per_iter(kernel) / self.clock_hz;
        let mem_t = self.mem_time_per_iter(kernel, cores_used);
        let per_core = kernel.flops_per_iter(dtype) / compute_t.max(mem_t);
        // Lane waste for sub-vector granularity is already captured by
        // flops_per_iter (fewer useful elements per instruction).
        per_core * cast::usize_to_f64(cores_used)
    }

    /// Vector-engine utilization: throughput over peak (right axes of
    /// Figure 8(d–f)).
    #[must_use]
    pub fn utilization(&self, kernel: &StreamKernel, cores_used: usize, dtype: DType) -> f64 {
        self.throughput(kernel, cores_used, dtype) / self.peak_flops(dtype)
    }

    /// Full [`OpCost`] for processing `total_elems` scalar elements with
    /// `kernel` on `cores_used` cores.
    #[must_use]
    pub fn run_cost(
        &self,
        kernel: &StreamKernel,
        cores_used: usize,
        total_elems: usize,
        dtype: DType,
    ) -> OpCost {
        let elems_per_iter = (kernel.granularity / dtype.size_bytes()).max(1);
        let iters = total_elems.div_ceil(elems_per_iter);
        let iters_per_core = iters.div_ceil(cores_used);
        let compute_s =
            self.cycles_per_iter(kernel) * cast::usize_to_f64(iters_per_core) / self.clock_hz;
        let per_access_bus = usize_to_u64(round_up(kernel.granularity, self.min_access_bytes));
        let bus = per_access_bus * usize_to_u64(kernel.loads + kernel.stores) * usize_to_u64(iters);
        let bw = (cast::usize_to_f64(cores_used) * self.per_core_bw).min(self.chip_stream_bw);
        OpCost {
            engine: Engine::Vector,
            compute_s,
            memory_s: cast::u64_to_f64(bus) / bw,
            flops: kernel.flops_per_iter(dtype) * cast::usize_to_f64(iters),
            bus_bytes: bus,
            useful_bytes: kernel.useful_bytes_per_iter() * usize_to_u64(iters),
        }
    }
}

fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::DeviceSpec;

    fn gaudi() -> VectorEngineModel {
        VectorEngineModel::new(&DeviceSpec::gaudi2())
    }

    fn a100() -> VectorEngineModel {
        VectorEngineModel::new(&DeviceSpec::a100())
    }

    #[test]
    fn operational_intensities_match_the_paper() {
        // §3.2: 1/6 (ADD), 1/4 (SCALE), 2/6 (TRIAD) FLOP/byte for BF16.
        assert!((StreamKernel::add().operational_intensity(DType::Bf16) - 1.0 / 6.0).abs() < 1e-9);
        assert!(
            (StreamKernel::scale().operational_intensity(DType::Bf16) - 1.0 / 4.0).abs() < 1e-9
        );
        assert!(
            (StreamKernel::triad().operational_intensity(DType::Bf16) - 1.0 / 3.0).abs() < 1e-9
        );
    }

    #[test]
    fn fig8a_granularity_cliff_at_256_bytes() {
        let g = gaudi();
        let t2 = g.single_core_throughput(&StreamKernel::triad().with_granularity(2), DType::Bf16);
        let t256 =
            g.single_core_throughput(&StreamKernel::triad().with_granularity(256), DType::Bf16);
        let t2048 =
            g.single_core_throughput(&StreamKernel::triad().with_granularity(2048), DType::Bf16);
        assert!(t256 / t2 > 30.0, "cliff: {t256} vs {t2}");
        // Saturation above 256 B: within 35% without unroll (wider accesses
        // implicitly pipeline), and identical once unrolled.
        assert!((t2048 / t256 - 1.0).abs() < 0.35, "{t2048} vs {t256}");
        let g4 = |gran: usize| {
            g.single_core_throughput(
                &StreamKernel::triad().with_granularity(gran).with_unroll(4),
                DType::Bf16,
            )
        };
        assert!((g4(2048) / g4(256) - 1.0).abs() < 0.05);
    }

    #[test]
    fn fig8a_no_unroll_saturation_levels() {
        // ~55 GFLOPS TRIAD, ~30 GFLOPS SCALE/ADD at >=256 B without unroll.
        let g = gaudi();
        let triad = g.single_core_throughput(&StreamKernel::triad(), DType::Bf16);
        let add = g.single_core_throughput(&StreamKernel::add(), DType::Bf16);
        let scale = g.single_core_throughput(&StreamKernel::scale(), DType::Bf16);
        assert!((40e9..70e9).contains(&triad), "triad {triad}");
        assert!((18e9..40e9).contains(&add), "add {add}");
        assert!((18e9..40e9).contains(&scale), "scale {scale}");
    }

    #[test]
    fn fig8b_scale_benefits_most_from_unrolling() {
        let g = gaudi();
        let gain = |k: StreamKernel| {
            g.single_core_throughput(&k.clone().with_unroll(8), DType::Bf16)
                / g.single_core_throughput(&k.with_unroll(1), DType::Bf16)
        };
        let scale_gain = gain(StreamKernel::scale());
        let add_gain = gain(StreamKernel::add());
        let triad_gain = gain(StreamKernel::triad());
        assert!(
            scale_gain > add_gain && scale_gain > triad_gain,
            "scale {scale_gain}, add {add_gain}, triad {triad_gain}"
        );
        assert!(scale_gain > 1.5, "scale gain {scale_gain}");
    }

    #[test]
    fn unrolling_is_irrelevant_on_the_simt_core() {
        let a = a100();
        let t1 = a.single_core_throughput(&StreamKernel::add().with_unroll(1), DType::Bf16);
        let t8 = a.single_core_throughput(&StreamKernel::add().with_unroll(8), DType::Bf16);
        assert!((t1 - t8).abs() / t1 < 1e-9);
    }

    #[test]
    fn fig8c_weak_scaling_saturates_between_11_and_15_tpcs() {
        let g = gaudi();
        let k = StreamKernel::add().with_unroll(4);
        let t11 = g.throughput(&k, 11, DType::Bf16);
        let t15 = g.throughput(&k, 15, DType::Bf16);
        let t24 = g.throughput(&k, 24, DType::Bf16);
        // Scaling from 15 to 24 cores buys almost nothing.
        assert!(t24 / t15 < 1.05, "{t24} vs {t15}");
        // But 1 to 11 scaled nearly linearly.
        let t1 = g.throughput(&k, 1, DType::Bf16);
        assert!(t11 / t1 > 9.0, "{t11} vs {t1}");
    }

    #[test]
    fn fig8c_saturation_levels() {
        // ~330 / 530 / 670 GFLOPS for ADD / SCALE / TRIAD (+-20%).
        let g = gaudi();
        let add = g.throughput(&StreamKernel::add().with_unroll(4), 24, DType::Bf16);
        let scale = g.throughput(&StreamKernel::scale().with_unroll(4), 24, DType::Bf16);
        let triad = g.throughput(&StreamKernel::triad().with_unroll(4), 24, DType::Bf16);
        assert!((add / 330e9 - 1.0).abs() < 0.25, "add {add}");
        assert!((scale / 530e9 - 1.0).abs() < 0.25, "scale {scale}");
        assert!((triad / 670e9 - 1.0).abs() < 0.25, "triad {triad}");
    }

    #[test]
    fn fig8def_compute_saturation_utilizations() {
        // Gaudi: ADD/SCALE saturate at ~50% (no FMA), TRIAD at ~99%.
        let g = gaudi();
        let sat = |k: StreamKernel| {
            g.utilization(&k.with_intensity_scale(512).with_unroll(8), 24, DType::Bf16)
        };
        let add = sat(StreamKernel::add());
        let scale = sat(StreamKernel::scale());
        let triad = sat(StreamKernel::triad());
        assert!((add - 0.5).abs() < 0.05, "add {add}");
        assert!((scale - 0.5).abs() < 0.05, "scale {scale}");
        assert!(triad > 0.95, "triad {triad}");
        // A100: same utilizations at 3.5x the absolute throughput.
        let a = a100();
        let a_triad = a.throughput(
            &StreamKernel::triad().with_intensity_scale(512),
            108,
            DType::Bf16,
        );
        let g_triad = g.throughput(
            &StreamKernel::triad()
                .with_intensity_scale(512)
                .with_unroll(8),
            24,
            DType::Bf16,
        );
        assert!(
            (a_triad / g_triad - 3.5).abs() < 0.4,
            "gap {}",
            a_triad / g_triad
        );
        assert!((a_triad - 38.2e12).abs() < 3e12, "a100 triad {a_triad}");
    }

    #[test]
    fn gaudi_wins_at_low_intensity_a100_at_high() {
        // Figure 8(d): memory-bound left side favors Gaudi's bandwidth,
        // compute-bound right side favors A100's 3.5x vector power.
        let g = gaudi();
        let a = a100();
        let low_g = g.throughput(&StreamKernel::add().with_unroll(4), 24, DType::Bf16);
        let low_a = a.throughput(&StreamKernel::add(), 108, DType::Bf16);
        assert!(low_g > low_a, "low intensity: {low_g} vs {low_a}");
        let hi = StreamKernel::add().with_intensity_scale(512);
        let hi_g = g.throughput(&hi.clone().with_unroll(8), 24, DType::Bf16);
        let hi_a = a.throughput(&hi, 108, DType::Bf16);
        assert!(hi_a > hi_g * 3.0, "high intensity: {hi_a} vs {hi_g}");
    }

    #[test]
    fn run_cost_accounts_totals() {
        let g = gaudi();
        let k = StreamKernel::triad().with_unroll(4);
        let c = g.run_cost(&k, 24, 24_000_000, DType::Bf16);
        assert!(c.flops > 0.0 && c.time() > 0.0);
        // 24M elements, 3 arrays, 2 bytes each.
        assert_eq!(c.useful_bytes, 24_000_000 / 128 * 768);
        assert!(c.bus_bytes >= c.useful_bytes);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn cores_bounds_checked() {
        let _ = gaudi().throughput(&StreamKernel::add(), 25, DType::Bf16);
    }
}
