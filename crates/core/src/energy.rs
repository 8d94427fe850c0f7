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

use crate::cast::usize_to_f64;
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

    /// Energy in joules for running at `activity` for the wall time recorded
    /// in `stats`.
    #[must_use]
    pub fn energy_joules(&self, stats: &ExecStats, activity: Activity) -> f64 {
        self.power_watts(activity) * stats.time_s
    }

    /// Convenience: energy for `stats` with activity derived from the stats
    /// themselves and an optional powered MAC fraction.
    #[must_use]
    pub fn energy_of(&self, stats: &ExecStats, matrix_powered_fraction: f64) -> f64 {
        let a = Activity::from_stats_with_gating(stats, matrix_powered_fraction);
        self.energy_joules(stats, a)
    }

    /// Peak (TDP) power in watts.
    #[must_use]
    pub fn tdp_watts(&self) -> f64 {
        self.idle_watts + self.dynamic_watts
    }

    /// Idle power in watts.
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }
}

/// A sampled power trace — the stand-in for polling `hl-smi` / `nvidia-smi`
/// during a run (§3.1 methodology). Phases of an execution are laid on a
/// time axis and sampled at a fixed period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    samples: Vec<(f64, f64)>,
}

impl PowerTrace {
    /// Sample `phases` — `(duration_s, activity)` segments executed back to
    /// back — every `period_s` seconds under `model`.
    ///
    /// # Panics
    /// Panics if `period_s` is not positive.
    #[must_use]
    pub fn sample(model: &PowerModel, phases: &[(f64, Activity)], period_s: f64) -> Self {
        assert!(period_s > 0.0, "sampling period must be positive");
        let total: f64 = phases.iter().map(|(d, _)| d).sum();
        let mut samples = Vec::new();
        let mut t = 0.0;
        while t < total {
            // Find the phase containing t.
            let mut acc = 0.0;
            for &(dur, act) in phases {
                if t < acc + dur {
                    samples.push((t, model.power_watts(act)));
                    break;
                }
                acc += dur;
            }
            t += period_s;
        }
        PowerTrace { samples }
    }

    /// The `(time_s, watts)` samples.
    #[must_use]
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Mean sampled power in watts (what the paper averages from the SMI
    /// tools). Returns 0 for an empty trace.
    #[must_use]
    pub fn mean_watts(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, w)| w).sum::<f64>() / usize_to_f64(self.samples.len())
    }

    /// Peak sampled power in watts.
    #[must_use]
    pub fn peak_watts(&self) -> f64 {
        self.samples.iter().map(|&(_, w)| w).fold(0.0, f64::max)
    }
}

/// Energy efficiency of a run: useful work per joule. Higher is better.
/// The paper reports Gaudi-2's *improvement* in energy-efficiency over A100,
/// i.e. `(work/J)_gaudi / (work/J)_a100`, which for equal work reduces to
/// `E_a100 / E_gaudi`.
#[must_use]
pub fn efficiency_improvement(energy_gaudi_j: f64, energy_a100_j: f64) -> f64 {
    assert!(energy_gaudi_j > 0.0 && energy_a100_j > 0.0);
    energy_a100_j / energy_gaudi_j
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
        assert!(p < a100.tdp_watts());
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
        let eg = g.energy_of(&stats, 0.5); // half the MME powered
        let ea = a.energy_of(&stats, 1.0);
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
        let e1 = g.energy_of(&s1, 1.0);
        let e2 = g.energy_of(&s2, 1.0);
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
        assert!(p <= g.tdp_watts() + 1e-9);
        assert!(p >= g.idle_watts());
    }

    #[test]
    fn power_trace_samples_phases() {
        let m = PowerModel::new(&DeviceSpec::a100());
        let hot = Activity {
            matrix: 1.0,
            vector: 1.0,
            memory: 1.0,
            matrix_powered_fraction: 1.0,
        };
        let cold = Activity {
            matrix: 0.0,
            vector: 0.0,
            memory: 0.0,
            matrix_powered_fraction: 1.0,
        };
        let trace = PowerTrace::sample(&m, &[(1.0, hot), (1.0, cold)], 0.25);
        assert_eq!(trace.samples().len(), 8);
        assert!((trace.peak_watts() - m.tdp_watts()).abs() < 1e-9);
        // Mean sits between the two phase powers.
        let mean = trace.mean_watts();
        assert!(mean < m.tdp_watts() && mean > m.power_watts(cold));
        // Samples are time ordered.
        assert!(trace.samples().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_trace_is_zero() {
        let m = PowerModel::new(&DeviceSpec::gaudi2());
        let trace = PowerTrace::sample(&m, &[], 0.1);
        assert_eq!(trace.mean_watts(), 0.0);
        assert_eq!(trace.peak_watts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn bad_period_rejected() {
        let m = PowerModel::new(&DeviceSpec::gaudi2());
        let _ = PowerTrace::sample(&m, &[], 0.0);
    }

    #[test]
    fn efficiency_improvement_is_energy_ratio() {
        assert!((efficiency_improvement(100.0, 148.0) - 1.48).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn efficiency_rejects_zero_energy() {
        let _ = efficiency_improvement(0.0, 1.0);
    }
}
