//! The cost algebra every simulated operator reports into.
//!
//! An [`OpCost`] is produced by a device model (MME, TPC, DMA, NIC) for one
//! operator execution. It separates *compute time* from *memory time* so the
//! composition rules can model both bottleneck behaviour (`max`) within an
//! operator and the graph compiler's MME/TPC pipelining across operators.
//! [`ExecStats`] aggregates costs over a whole run and derives the
//! utilization metrics the paper plots.

use crate::cast::{f64_to_u64, u64_to_f64, usize_to_f64};
use crate::specs::DeviceSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which hardware engine executed an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// The matrix engine: Gaudi's MME or the A100's Tensor Cores.
    Matrix,
    /// The programmable vector engine: Gaudi's TPCs or the A100's SIMD cores.
    Vector,
    /// A pure data-movement operation (DMA engines).
    Dma,
    /// Inter-device communication over the node fabric.
    Network,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Engine::Matrix => "matrix",
            Engine::Vector => "vector",
            Engine::Dma => "dma",
            Engine::Network => "network",
        };
        f.write_str(s)
    }
}

/// Cost of one simulated operator execution.
///
/// `compute_s` is the time the engine's arithmetic pipeline needs;
/// `memory_s` the time the HBM system needs to move `bus_bytes`
/// (which may exceed `useful_bytes` because of minimum-access-granularity
/// waste). The operator's wall time is their max — compute and memory
/// overlap within one operator on both architectures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCost {
    /// Executing engine.
    pub engine: Engine,
    /// Arithmetic pipeline time in seconds.
    pub compute_s: f64,
    /// HBM transfer time in seconds.
    pub memory_s: f64,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes actually moved on the HBM bus (including granularity waste).
    pub bus_bytes: u64,
    /// Bytes the algorithm actually needed.
    pub useful_bytes: u64,
}

impl OpCost {
    /// A zero-cost (free) operation on `engine`.
    #[must_use]
    pub fn free(engine: Engine) -> Self {
        OpCost {
            engine,
            compute_s: 0.0,
            memory_s: 0.0,
            flops: 0.0,
            bus_bytes: 0,
            useful_bytes: 0,
        }
    }

    /// Wall-clock time of the operator: compute and memory overlap, so the
    /// slower of the two determines the duration.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.compute_s.max(self.memory_s)
    }

    /// Achieved throughput in FLOP/s (0 for pure data movement).
    #[must_use]
    pub fn achieved_flops(&self) -> f64 {
        let t = self.time();
        if t > 0.0 {
            self.flops / t
        } else {
            0.0
        }
    }

    /// Achieved *useful* memory bandwidth in bytes/s. Granularity waste
    /// lowers this even when the bus itself is saturated — this is exactly
    /// the "memory bandwidth utilization" metric of Figures 9 and 15.
    #[must_use]
    pub fn achieved_useful_bandwidth(&self) -> f64 {
        let t = self.time();
        if t > 0.0 {
            u64_to_f64(self.useful_bytes) / t
        } else {
            0.0
        }
    }

    /// Scale the cost for `n` back-to-back executions of the same operator.
    #[must_use]
    pub fn repeat(&self, n: usize) -> Self {
        let n = usize_to_f64(n);
        OpCost {
            engine: self.engine,
            compute_s: self.compute_s * n,
            memory_s: self.memory_s * n,
            flops: self.flops * n,
            bus_bytes: f64_to_u64((u64_to_f64(self.bus_bytes) * n).floor()),
            useful_bytes: f64_to_u64((u64_to_f64(self.useful_bytes) * n).floor()),
        }
    }
}

/// Aggregated execution statistics over a sequence of operators.
///
/// `time_s` is the accumulated wall-clock time under the composition rule
/// chosen by the caller (serial sums op times; pipelined composition is done
/// in [`crate::timeline`] before being folded in here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Total wall-clock time in seconds.
    pub time_s: f64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total bytes moved on the HBM bus.
    pub bus_bytes: u64,
    /// Total useful bytes.
    pub useful_bytes: u64,
    /// Busy time of the matrix engine.
    pub matrix_busy_s: f64,
    /// Busy time of the vector engine.
    pub vector_busy_s: f64,
    /// Busy time of the HBM system.
    pub memory_busy_s: f64,
    /// Busy time of the network.
    pub network_busy_s: f64,
}

impl ExecStats {
    /// Empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `cost` executed serially after everything recorded so far.
    pub fn push_serial(&mut self, cost: &OpCost) {
        self.account(cost, cost.time());
    }

    /// Append `cost` with an externally computed wall-time contribution
    /// `wall_s` (used when the caller already overlapped several ops, e.g.
    /// pipelined MME/TPC slices).
    pub fn push_overlapped(&mut self, cost: &OpCost, wall_s: f64) {
        self.account(cost, wall_s);
    }

    fn account(&mut self, cost: &OpCost, wall_s: f64) {
        self.time_s += wall_s;
        self.flops += cost.flops;
        self.bus_bytes += cost.bus_bytes;
        self.useful_bytes += cost.useful_bytes;
        self.memory_busy_s += cost.memory_s;
        match cost.engine {
            Engine::Matrix => self.matrix_busy_s += cost.compute_s,
            Engine::Vector => self.vector_busy_s += cost.compute_s,
            Engine::Dma => {}
            Engine::Network => self.network_busy_s += cost.compute_s.max(cost.memory_s),
        }
    }

    /// Scale the whole block by `n` identical serial repetitions (e.g. one
    /// decode step replayed for every output token).
    #[must_use]
    pub fn repeated(&self, n: f64) -> ExecStats {
        ExecStats {
            time_s: self.time_s * n,
            flops: self.flops * n,
            bus_bytes: f64_to_u64((u64_to_f64(self.bus_bytes) * n).floor()),
            useful_bytes: f64_to_u64((u64_to_f64(self.useful_bytes) * n).floor()),
            matrix_busy_s: self.matrix_busy_s * n,
            vector_busy_s: self.vector_busy_s * n,
            memory_busy_s: self.memory_busy_s * n,
            network_busy_s: self.network_busy_s * n,
        }
    }

    /// Merge another stats block executed serially after this one.
    pub fn merge_serial(&mut self, other: &ExecStats) {
        self.time_s += other.time_s;
        self.flops += other.flops;
        self.bus_bytes += other.bus_bytes;
        self.useful_bytes += other.useful_bytes;
        self.matrix_busy_s += other.matrix_busy_s;
        self.vector_busy_s += other.vector_busy_s;
        self.memory_busy_s += other.memory_busy_s;
        self.network_busy_s += other.network_busy_s;
    }

    /// Achieved throughput in FLOP/s.
    #[must_use]
    pub fn achieved_flops(&self) -> f64 {
        if self.time_s > 0.0 {
            self.flops / self.time_s
        } else {
            0.0
        }
    }

    /// Useful-bandwidth utilization: useful bytes per second over peak HBM
    /// bandwidth. The metric of Figures 9 and 15.
    #[must_use]
    pub fn bandwidth_utilization(&self, spec: &DeviceSpec) -> f64 {
        if self.time_s > 0.0 {
            (u64_to_f64(self.useful_bytes) / self.time_s) / spec.hbm_bandwidth()
        } else {
            0.0
        }
    }

    /// Fraction of the wall time each engine was busy, as activity inputs to
    /// the energy model: `(matrix, vector, memory)`.
    #[must_use]
    pub fn activity(&self) -> (f64, f64, f64) {
        if self.time_s <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            (self.matrix_busy_s / self.time_s).min(1.0),
            (self.vector_busy_s / self.time_s).min(1.0),
            (self.memory_busy_s / self.time_s).min(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cost() -> OpCost {
        OpCost {
            engine: Engine::Matrix,
            compute_s: 2e-3,
            memory_s: 1e-3,
            flops: 4e9,
            bus_bytes: 1 << 20,
            useful_bytes: 1 << 19,
        }
    }

    #[test]
    fn time_is_max_of_compute_and_memory() {
        let c = sample_cost();
        assert_eq!(c.time(), 2e-3);
        let mut m = c;
        m.memory_s = 5e-3;
        assert_eq!(m.time(), 5e-3);
    }

    #[test]
    fn achieved_flops_uses_wall_time() {
        let c = sample_cost();
        assert!((c.achieved_flops() - 2e12).abs() < 1e6);
    }

    #[test]
    fn free_cost_is_zero() {
        let f = OpCost::free(Engine::Dma);
        assert_eq!(f.time(), 0.0);
        assert_eq!(f.achieved_flops(), 0.0);
        assert_eq!(f.achieved_useful_bandwidth(), 0.0);
    }

    #[test]
    fn repeat_scales_linearly() {
        let c = sample_cost().repeat(3);
        assert!((c.compute_s - 6e-3).abs() < 1e-12);
        assert!((c.flops - 12e9).abs() < 1.0);
        assert_eq!(c.bus_bytes, 3 << 20);
    }

    #[test]
    fn serial_accumulation() {
        let mut s = ExecStats::new();
        s.push_serial(&sample_cost());
        s.push_serial(&sample_cost());
        assert!((s.time_s - 4e-3).abs() < 1e-12);
        assert!((s.flops - 8e9).abs() < 1.0);
        assert!((s.matrix_busy_s - 4e-3).abs() < 1e-12);
        assert!((s.memory_busy_s - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn overlapped_accumulation_keeps_busy_times() {
        let mut s = ExecStats::new();
        // Two ops overlapped into 2.5 ms of wall time.
        s.push_overlapped(&sample_cost(), 2.5e-3);
        assert!((s.time_s - 2.5e-3).abs() < 1e-12);
        assert!((s.matrix_busy_s - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn utilization_against_specs() {
        let g = crate::DeviceSpec::gaudi2();
        let mut s = ExecStats::new();
        // 432e9 flops in 2 ms => 216 TFLOPS => 50% of Gaudi-2 peak.
        s.push_serial(&OpCost {
            engine: Engine::Matrix,
            compute_s: 2e-3,
            memory_s: 0.0,
            flops: 432e9,
            bus_bytes: 0,
            useful_bytes: 0,
        });
        let u = s.achieved_flops() / g.matrix_peak_flops(crate::DType::Bf16);
        assert!((u - 0.5).abs() < 1e-6, "{u}");
    }

    #[test]
    fn bandwidth_utilization_counts_useful_bytes_only() {
        let g = crate::DeviceSpec::gaudi2();
        let mut s = ExecStats::new();
        // Move 2.45e9 useful bytes in 10 ms => 245 GB/s => 10% of peak.
        s.push_serial(&OpCost {
            engine: Engine::Dma,
            compute_s: 0.0,
            memory_s: 10e-3,
            flops: 0.0,
            bus_bytes: 4_900_000_000,
            useful_bytes: 2_450_000_000,
        });
        let u = s.bandwidth_utilization(&g);
        assert!((u - 0.1).abs() < 1e-6, "{u}");
    }

    #[test]
    fn activity_is_bounded() {
        let mut s = ExecStats::new();
        s.push_overlapped(&sample_cost(), 1e-3); // busier than wall time
        let (m, v, mem) = s.activity();
        assert!(m <= 1.0 && v <= 1.0 && mem <= 1.0);
        assert!((m - 1.0).abs() < 1e-9);
    }
}
