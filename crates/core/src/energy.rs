//! Activity-based power and energy model.
//!
//! The paper samples wall power with `nvidia-smi` (A100) and `hl-smi`
//! (Gaudi-2) while serving models (§3.1). We stand in for the meters with an
//! activity model: device power is idle power plus dynamic power
//! proportional to how busy each engine is. Two observations from the paper
//! shape the model:
//!
//! * Gaudi-2's TDP is 1.5× the A100's, yet measured RecSys power was only
//!   ~12% higher and LLM power ~1% higher (§3.5) — so dynamic power must
//!   track *activity*, not TDP.
//! * For small GEMM shapes Gaudi "activates only a subset of its large MME"
//!   and appears to "more aggressively power-gate its circuitry" (§3.5,
//!   Fig. 7(a) caption). The model therefore scales MME dynamic power by the
//!   fraction of the MAC array that is powered when `power_gating` is set.

use crate::cost::ExecStats;
use crate::specs::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Share of dynamic power attributed to each subsystem at full activity.
/// The split (matrix 50%, vector 20%, memory 30%) reflects die-area and
/// HBM-interface power estimates for large AI accelerators.
const MATRIX_SHARE: f64 = 0.50;
const VECTOR_SHARE: f64 = 0.20;
const MEMORY_SHARE: f64 = 0.30;

/// Residual activity of an *ungated* but idle engine (clock distribution
/// keeps toggling even when no useful work retires).
const UNGATED_FLOOR: f64 = 0.30;

/// Activity snapshot of one execution, all values in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    /// Fraction of time the matrix engine was busy.
    pub matrix: f64,
    /// Fraction of time the vector engine was busy.
    pub vector: f64,
    /// Fraction of time the HBM interface was busy.
    pub memory: f64,
    /// Fraction of the matrix engine's MAC array that was powered
    /// (1.0 unless the device power-gates unused geometry).
    pub matrix_powered_fraction: f64,
}

impl Activity {
    /// Build an activity snapshot from execution statistics, assuming the
    /// full MAC array was powered.
    #[must_use]
    pub fn from_stats(stats: &ExecStats) -> Self {
        let (matrix, vector, memory) = stats.activity();
        Activity {
            matrix,
            vector,
            memory,
            matrix_powered_fraction: 1.0,
        }
    }

    /// Same, but with only `fraction` of the MAC array powered (used when
    /// the MME geometry pass selected a sub-array configuration).
    #[must_use]
    pub fn from_stats_with_gating(stats: &ExecStats, fraction: f64) -> Self {
        let mut a = Self::from_stats(stats);
        a.matrix_powered_fraction = fraction.clamp(0.0, 1.0);
        a
    }

    fn clamped(self) -> Self {
        Activity {
            matrix: self.matrix.clamp(0.0, 1.0),
            vector: self.vector.clamp(0.0, 1.0),
            memory: self.memory.clamp(0.0, 1.0),
            matrix_powered_fraction: self.matrix_powered_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Power model for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    idle_watts: f64,
    dynamic_watts: f64,
    power_gating: bool,
}

impl PowerModel {
    /// Build the power model from a device specification.
    #[must_use]
    pub fn new(spec: &DeviceSpec) -> Self {
        PowerModel {
            idle_watts: spec.power.idle_watts,
            dynamic_watts: spec.power.tdp_watts - spec.power.idle_watts,
            power_gating: spec.power.power_gating,
        }
    }

    /// Instantaneous power draw in watts for an activity snapshot.
    ///
    /// Ungated engines burn `UNGATED_FLOOR` of their dynamic share even
    /// when idle (clock trees keep toggling). A power-gating device clock-
    /// gates idle compute cycles and powers only the selected MME
    /// sub-array, so its compute power tracks activity with no floor —
    /// this is the mechanism behind Gaudi-2 drawing near-A100 power
    /// despite a 1.5× TDP (§3.5). The HBM interface keeps its floor on
    /// both devices (refresh, PHY).
    #[must_use]
    pub fn power_watts(&self, activity: Activity) -> f64 {
        let a = activity.clamped();
        let (matrix_act, vector_act) = if self.power_gating {
            (a.matrix * a.matrix_powered_fraction, a.vector)
        } else {
            (
                UNGATED_FLOOR + (1.0 - UNGATED_FLOOR) * a.matrix,
                UNGATED_FLOOR + (1.0 - UNGATED_FLOOR) * a.vector,
            )
        };
        let memory_act = UNGATED_FLOOR + (1.0 - UNGATED_FLOOR) * a.memory;
        self.idle_watts
            + self.dynamic_watts
                * (MATRIX_SHARE * matrix_act
                    + VECTOR_SHARE * vector_act
                    + MEMORY_SHARE * memory_act)
    }

    /// Idle power in watts.
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Engine, OpCost};
    use crate::specs::DeviceSpec;

    fn busy_stats(matrix: f64, vector: f64, memory: f64, wall: f64) -> ExecStats {
        let mut s = ExecStats::new();
        s.push_overlapped(
            &OpCost {
                engine: Engine::Matrix,
                compute_s: matrix * wall,
                memory_s: 0.0,
                flops: 1.0,
                bus_bytes: 0,
                useful_bytes: 0,
            },
            0.0,
        );
        s.push_overlapped(
            &OpCost {
                engine: Engine::Vector,
                compute_s: vector * wall,
                memory_s: memory * wall,
                flops: 0.0,
                bus_bytes: 0,
                useful_bytes: 0,
            },
            wall,
        );
        s
    }

    /// Energy in joules of running at the activity `stats` records, with
    /// `powered` of the MAC array powered, for its wall time.
    fn energy(model: &PowerModel, stats: &ExecStats, powered: f64) -> f64 {
        model.power_watts(Activity::from_stats_with_gating(stats, powered)) * stats.time_s
    }

    #[test]
    fn idle_device_draws_more_than_idle_floor_when_ungated() {
        let a100 = PowerModel::new(&DeviceSpec::a100());
        let idle = Activity {
            matrix: 0.0,
            vector: 0.0,
            memory: 0.0,
            matrix_powered_fraction: 1.0,
        };
        let p = a100.power_watts(idle);
        assert!(p > a100.idle_watts());
        assert!(p < a100.idle_watts + a100.dynamic_watts);
    }

    #[test]
    fn full_activity_hits_tdp() {
        for spec in [DeviceSpec::gaudi2(), DeviceSpec::a100()] {
            let m = PowerModel::new(&spec);
            let p = m.power_watts(Activity {
                matrix: 1.0,
                vector: 1.0,
                memory: 1.0,
                matrix_powered_fraction: 1.0,
            });
            assert!((p - spec.power.tdp_watts).abs() < 1e-9, "{}", spec.name);
        }
    }

    #[test]
    fn gating_reduces_small_gemm_power() {
        let gaudi = PowerModel::new(&DeviceSpec::gaudi2());
        let act_full = Activity {
            matrix: 0.3,
            vector: 0.2,
            memory: 0.5,
            matrix_powered_fraction: 1.0,
        };
        let act_gated = Activity {
            matrix_powered_fraction: 0.25,
            ..act_full
        };
        assert!(gaudi.power_watts(act_gated) < gaudi.power_watts(act_full));
    }

    #[test]
    fn gaudi_measured_power_gap_is_much_smaller_than_tdp_gap() {
        // §3.5: despite a 50% higher TDP, Gaudi-2 drew only ~1-12% more
        // power in serving. At moderate activity with gating the model
        // reproduces a small gap.
        let g = PowerModel::new(&DeviceSpec::gaudi2());
        let a = PowerModel::new(&DeviceSpec::a100());
        let stats = busy_stats(0.4, 0.3, 0.7, 1.0);
        let eg = energy(&g, &stats, 0.5); // half the MME powered
        let ea = energy(&a, &stats, 1.0);
        let gap = eg / ea;
        assert!(
            gap < 1.35,
            "power gap {gap} should be well below the 1.5x TDP ratio"
        );
        assert!(gap > 0.8);
    }

    #[test]
    fn energy_scales_with_time() {
        let g = PowerModel::new(&DeviceSpec::gaudi2());
        let s1 = busy_stats(0.5, 0.5, 0.5, 1.0);
        let s2 = busy_stats(0.5, 0.5, 0.5, 2.0);
        let e1 = energy(&g, &s1, 1.0);
        let e2 = energy(&g, &s2, 1.0);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn activity_is_clamped() {
        let g = PowerModel::new(&DeviceSpec::gaudi2());
        let p = g.power_watts(Activity {
            matrix: 2.0,
            vector: -1.0,
            memory: 0.5,
            matrix_powered_fraction: 5.0,
        });
        assert!(p <= g.idle_watts + g.dynamic_watts + 1e-9);
        assert!(p >= g.idle_watts());
    }
}
