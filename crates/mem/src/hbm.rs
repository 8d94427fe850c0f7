//! HBM timing model.
//!
//! Charges every access its *bus* footprint: the requested size rounded up
//! to the device's minimum access granularity, plus (for random accesses) a
//! per-transaction DRAM overhead. Streaming accesses amortize row
//! activations and run at the device's streaming efficiency.

use dcm_core::cast::{self, usize_to_u64};
use dcm_core::cost::{Engine, OpCost};
use dcm_core::specs::{DeviceSpec, MemorySpec};
use serde::{Deserialize, Serialize};

/// Spatial locality class of an access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive addresses: row activations are amortized and transfers
    /// below the granularity coalesce with their neighbors within the same
    /// *chunk-aligned* region (the STREAM microbenchmarks, §3.2).
    Stream,
    /// Uniformly random addresses: no coalescing, every transaction pays a
    /// row-activation overhead (the GUPS-style benchmarks, §3.3).
    Random,
}

/// Outcome of a modeled memory access stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemCost {
    /// Transfer time in seconds.
    pub time_s: f64,
    /// Bytes moved on the HBM bus (after granularity rounding).
    pub bus_bytes: u64,
    /// Bytes the algorithm asked for.
    pub useful_bytes: u64,
}

impl MemCost {
    /// A zero-byte access.
    #[must_use]
    pub fn zero() -> Self {
        MemCost {
            time_s: 0.0,
            bus_bytes: 0,
            useful_bytes: 0,
        }
    }

    /// Achieved useful bandwidth in bytes/s.
    #[must_use]
    pub fn useful_bandwidth(&self) -> f64 {
        if self.time_s > 0.0 {
            cast::u64_to_f64(self.useful_bytes) / self.time_s
        } else {
            0.0
        }
    }

    /// Fraction of `peak` bandwidth achieved on useful bytes — the
    /// "memory bandwidth utilization" metric of Figures 9 and 15.
    #[must_use]
    pub fn bandwidth_utilization(&self, peak_bps: f64) -> f64 {
        self.useful_bandwidth() / peak_bps
    }

    /// Combine with another access stream executed concurrently on the same
    /// HBM system (times add: the bus is shared).
    #[must_use]
    pub fn merge(&self, other: &MemCost) -> MemCost {
        MemCost {
            time_s: self.time_s + other.time_s,
            bus_bytes: self.bus_bytes + other.bus_bytes,
            useful_bytes: self.useful_bytes + other.useful_bytes,
        }
    }

    /// Lift to an [`OpCost`] on the DMA engine (no compute component).
    #[must_use]
    pub fn into_op_cost(self) -> OpCost {
        OpCost {
            engine: Engine::Dma,
            compute_s: 0.0,
            memory_s: self.time_s,
            flops: 0.0,
            bus_bytes: self.bus_bytes,
            useful_bytes: self.useful_bytes,
        }
    }
}

/// Minimum number of outstanding transactions needed to saturate the HBM
/// pipeline. Below this, achieved bandwidth ramps linearly — small gathers
/// cannot fill the memory system (visible at the left edge of Fig. 9 and in
/// the low-batch cells of Fig. 15).
const SATURATION_INFLIGHT: usize = 4096;

/// HBM timing model for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HbmModel {
    mem: MemorySpec,
}

impl HbmModel {
    /// Build the model from a device spec.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        HbmModel {
            mem: spec.memory.clone(),
        }
    }

    /// The underlying memory spec.
    #[must_use]
    pub fn memory(&self) -> &MemorySpec {
        &self.mem
    }

    /// Model `count` accesses of `size` useful bytes each under `pattern`.
    ///
    /// Streaming: contiguous accesses coalesce, so the bus moves the total
    /// span rounded to whole chunks once; time is span over streaming
    /// bandwidth.
    ///
    /// Random: each access moves its rounded size plus the per-transaction
    /// overhead at random-access efficiency, with a ramp-up factor when
    /// there are too few transactions to fill the memory pipeline.
    #[must_use]
    pub fn access(&self, count: usize, size: usize, pattern: AccessPattern) -> MemCost {
        if count == 0 || size == 0 {
            return MemCost::zero();
        }
        let useful = usize_to_u64(count * size);
        match pattern {
            AccessPattern::Stream => {
                let bus = self.mem.bus_bytes(count * size);
                MemCost {
                    time_s: cast::u64_to_f64(bus) / self.mem.stream_bandwidth(),
                    bus_bytes: bus,
                    useful_bytes: useful,
                }
            }
            AccessPattern::Random => {
                let per_access_bus = self.mem.bus_bytes(size);
                let bus = per_access_bus * usize_to_u64(count);
                let charged = (per_access_bus + usize_to_u64(self.mem.random_overhead_bytes))
                    * usize_to_u64(count);
                // Parallelism ramps with *chunk* count: one large block is
                // itself many concurrent minimum-granularity transactions.
                let chunks_per_access = size.div_ceil(self.mem.min_access_bytes).max(1);
                let ramp = self.ramp(count * chunks_per_access);
                MemCost {
                    time_s: cast::u64_to_f64(charged) / (self.mem.random_bandwidth() * ramp),
                    bus_bytes: bus,
                    useful_bytes: useful,
                }
            }
        }
    }

    /// Pipeline ramp factor in `(0, 1]`: fraction of peak the memory system
    /// reaches with `count` independent transactions in flight.
    #[must_use]
    pub fn ramp(&self, count: usize) -> f64 {
        let x = cast::usize_to_f64(count) / cast::usize_to_f64(SATURATION_INFLIGHT);
        x.min(1.0)
            .max(1.0 / cast::usize_to_f64(SATURATION_INFLIGHT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::DeviceSpec;

    fn gaudi() -> HbmModel {
        HbmModel::new(&DeviceSpec::gaudi2())
    }

    fn a100() -> HbmModel {
        HbmModel::new(&DeviceSpec::a100())
    }

    #[test]
    fn zero_access_is_free() {
        assert_eq!(
            gaudi().access(0, 64, AccessPattern::Random),
            MemCost::zero()
        );
        assert_eq!(
            gaudi().access(10, 0, AccessPattern::Stream),
            MemCost::zero()
        );
    }

    #[test]
    fn streaming_reaches_high_utilization() {
        let g = gaudi();
        let c = g.access(1_000_000, 256, AccessPattern::Stream);
        let util = c.bandwidth_utilization(g.memory().hbm_bandwidth_bps);
        assert!((util - 0.90).abs() < 0.01, "stream util {util}");
    }

    #[test]
    fn small_random_gathers_waste_gaudi_bandwidth() {
        // Figure 9: 64 B gathers achieve a small fraction of peak on Gaudi-2
        // but much more on A100 (2.4x gap averaged over <=128 B sizes).
        let count = 1_000_000;
        let g = gaudi().access(count, 64, AccessPattern::Random);
        let a = a100().access(count, 64, AccessPattern::Random);
        let gu = g.bandwidth_utilization(gaudi().memory().hbm_bandwidth_bps);
        let au = a.bandwidth_utilization(a100().memory().hbm_bandwidth_bps);
        assert!(gu < 0.20, "gaudi 64B util {gu}");
        assert!(au > 0.30, "a100 64B util {au}");
        assert!(au / gu > 2.0, "gap {}", au / gu);
    }

    #[test]
    fn large_gathers_are_competitive_on_gaudi() {
        let count = 1_000_000;
        let g = gaudi().access(count, 1024, AccessPattern::Random);
        let a = a100().access(count, 1024, AccessPattern::Random);
        let gu = g.bandwidth_utilization(gaudi().memory().hbm_bandwidth_bps);
        let au = a.bandwidth_utilization(a100().memory().hbm_bandwidth_bps);
        assert!(gu > 0.6, "gaudi 1KB util {gu}");
        // "only slightly lower than A100" (§3.3)
        assert!(au - gu < 0.25);
    }

    #[test]
    fn fig9_aggregate_utilizations() {
        // >=256 B gathers: Gaudi ~64%, A100 ~72% (+-8pp model tolerance).
        let sizes_big = [256usize, 512, 1024, 2048];
        let count = 1_000_000;
        let avg = |m: &HbmModel, sizes: &[usize]| {
            let peak = m.memory().hbm_bandwidth_bps;
            sizes
                .iter()
                .map(|&s| {
                    m.access(count, s, AccessPattern::Random)
                        .bandwidth_utilization(peak)
                })
                .sum::<f64>()
                / cast::usize_to_f64(sizes.len())
        };
        let g_big = avg(&gaudi(), &sizes_big);
        let a_big = avg(&a100(), &sizes_big);
        assert!((g_big - 0.64).abs() < 0.08, "gaudi big {g_big}");
        assert!((a_big - 0.72).abs() < 0.08, "a100 big {a_big}");
        // <=128 B gathers: Gaudi ~15%, A100 ~36%.
        let sizes_small = [16usize, 32, 64, 128];
        let g_small = avg(&gaudi(), &sizes_small);
        let a_small = avg(&a100(), &sizes_small);
        assert!((g_small - 0.15).abs() < 0.06, "gaudi small {g_small}");
        assert!((a_small - 0.36).abs() < 0.10, "a100 small {a_small}");
    }

    #[test]
    fn ramp_is_monotonic_and_bounded() {
        let g = gaudi();
        let mut prev = 0.0;
        for n in [1usize, 16, 256, 4096, 100_000] {
            let r = g.ramp(n);
            assert!(r >= prev);
            assert!(r > 0.0 && r <= 1.0);
            prev = r;
        }
        assert_eq!(g.ramp(1_000_000), 1.0);
    }

    #[test]
    fn random_time_exceeds_stream_time_for_same_bytes() {
        let g = gaudi();
        let s = g.access(100_000, 256, AccessPattern::Stream);
        let r = g.access(100_000, 256, AccessPattern::Random);
        assert!(r.time_s > s.time_s);
        assert_eq!(r.useful_bytes, s.useful_bytes);
    }

    #[test]
    fn merge_adds_components() {
        let g = gaudi();
        let a = g.access(1000, 256, AccessPattern::Stream);
        let b = g.access(500, 512, AccessPattern::Random);
        let m = a.merge(&b);
        assert!((m.time_s - (a.time_s + b.time_s)).abs() < 1e-15);
        assert_eq!(m.bus_bytes, a.bus_bytes + b.bus_bytes);
        assert_eq!(m.useful_bytes, a.useful_bytes + b.useful_bytes);
    }

    #[test]
    fn into_op_cost_is_memory_only() {
        let c = gaudi()
            .access(10, 256, AccessPattern::Stream)
            .into_op_cost();
        assert_eq!(c.compute_s, 0.0);
        assert!(c.memory_s > 0.0);
        assert_eq!(c.flops, 0.0);
    }
}
