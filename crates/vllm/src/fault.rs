//! Deterministic fault injection and resilience policies for cluster
//! serving.
//!
//! The paper's serving study models a production deployment — replicated
//! device groups behind a router — where what matters under partial
//! failure is *goodput* (tokens delivered within the SLO) and how
//! gracefully the tail degrades, not the fault-free peak. This module
//! supplies the three ingredients the cluster layer needs to study that:
//!
//! * [`FaultPlan`] — a schedule of replica faults (crashes with optional
//!   recovery, transient slowdown windows). Plans are plain data, built
//!   explicitly or sampled from a seeded RNG, so every faulty run replays
//!   bit-identically. An empty plan reproduces the fault-free
//!   [`Cluster::run`](crate::cluster::Cluster::run) output exactly.
//! * [`ShedPolicy`] — admission control: reject an arrival when the
//!   best-available replica is already past a queue-depth or KV-pressure
//!   threshold, so overload degrades into bounded latency plus explicit
//!   rejections instead of an unbounded queue.
//! * [`SloSpec`] / [`ResilienceConfig`] — the latency objective completed
//!   requests are judged against (driving goodput and SLO-attainment
//!   accounting) and the retry budget for crash-displaced requests.
//!
//! Semantics of a crash: the replica's KV cache and in-flight state are
//! lost at the crash instant. Its queued and in-flight requests are
//! re-dispatched to surviving replicas (restarting from scratch —
//! recompute-mode, like vLLM preemption but across replicas) until each
//! request's retry budget is exhausted, after which it counts as
//! *failed*. Output tokens already produced for a displaced request are
//! counted as *lost* work: they were real device time, but the retry must
//! regenerate them, so `total_output_tokens` = completed-request tokens +
//! `lost_tokens` holds exactly on every run.

use dcm_core::error::{DcmError, Result};
use dcm_core::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Latency service-level objective a completed request is judged against.
///
/// A request meets the SLO when its client-perceived TTFT (from original
/// arrival, including any time lost to crashed attempts) and its TPOT are
/// both within bounds. Single-output-token requests have no decode
/// interval and trivially satisfy the TPOT bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Maximum acceptable time-to-first-token in seconds.
    pub max_ttft_s: f64,
    /// Maximum acceptable time-per-output-token in seconds.
    pub max_tpot_s: f64,
}

impl SloSpec {
    /// An SLO with the given TTFT and TPOT bounds. A run rejects a bound
    /// that is NaN or not positive (see [`ResilienceConfig`]).
    #[must_use]
    pub fn new(max_ttft_s: f64, max_tpot_s: f64) -> Self {
        SloSpec {
            max_ttft_s,
            max_tpot_s,
        }
    }

    /// Whether a completed request with the given latencies met the SLO.
    /// `tpot_s` is `None` for single-output-token requests, which have no
    /// decode interval and pass the TPOT bound vacuously.
    #[must_use]
    pub fn met(&self, ttft_s: f64, tpot_s: Option<f64>) -> bool {
        ttft_s <= self.max_ttft_s && tpot_s.is_none_or(|t| t <= self.max_tpot_s)
    }
}

impl Default for SloSpec {
    /// Loose interactive-chat bounds: 10 s to first token, 0.5 s per
    /// output token. Tight enough that a saturated or crash-degraded run
    /// visibly loses attainment, loose enough that a healthy run at
    /// moderate load meets it.
    fn default() -> Self {
        SloSpec {
            max_ttft_s: 10.0,
            max_tpot_s: 0.5,
        }
    }
}

/// One scheduled fault against a replica.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The replica dies at `at_s`: its KV cache and queue contents are
    /// lost and re-routed to survivors. With `recover_at_s` it rejoins
    /// (cold, empty KV) at that time; otherwise it stays down.
    Crash {
        /// Replica index.
        replica: usize,
        /// Crash instant in seconds.
        at_s: f64,
        /// Optional rejoin instant in seconds (must be after `at_s`).
        recover_at_s: Option<f64>,
    },
    /// The replica executes every step `factor`× slower during
    /// `[from_s, until_s)` — a thermal throttle, a noisy neighbour, a
    /// link brown-out.
    Slowdown {
        /// Replica index.
        replica: usize,
        /// Window start in seconds.
        from_s: f64,
        /// Window end in seconds.
        until_s: f64,
        /// Step-time multiplier, `>= 1`.
        factor: f64,
    },
}

/// A deterministic schedule of replica faults. Plain data: building the
/// same plan (or sampling one from the same seed) and replaying it on the
/// same trace gives bit-identical reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — no faults; reproduces the fault-free run exactly.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add a permanent crash of `replica` at `at_s`.
    #[must_use]
    pub fn with_crash(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent::Crash {
            replica,
            at_s,
            recover_at_s: None,
        });
        self
    }

    /// Add a crash of `replica` at `at_s` that recovers (cold) at
    /// `recover_at_s`.
    #[must_use]
    pub fn with_recovering_crash(mut self, replica: usize, at_s: f64, recover_at_s: f64) -> Self {
        self.events.push(FaultEvent::Crash {
            replica,
            at_s,
            recover_at_s: Some(recover_at_s),
        });
        self
    }

    /// Add a `factor`× slowdown of `replica` over `[from_s, until_s)`.
    #[must_use]
    pub fn with_slowdown(mut self, replica: usize, from_s: f64, until_s: f64, factor: f64) -> Self {
        self.events.push(FaultEvent::Slowdown {
            replica,
            from_s,
            until_s,
            factor,
        });
        self
    }

    /// Sample a plan that permanently crashes `crashes` distinct replicas
    /// (out of `replicas`) at uniform times in `(0, horizon_s)`,
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `crashes >= replicas` (at least one survivor is
    /// required) or `horizon_s` is non-positive.
    #[must_use]
    pub fn random_crashes(replicas: usize, crashes: usize, horizon_s: f64, seed: u64) -> Self {
        assert!(crashes < replicas, "at least one replica must survive");
        assert!(horizon_s > 0.0, "horizon must be positive");
        let mut r = rng::seeded(seed);
        // Deterministic partial Fisher-Yates for the victim set.
        let mut idx: Vec<usize> = (0..replicas).collect();
        let mut plan = FaultPlan::none();
        for k in 0..crashes {
            let j = r.gen_range(k..replicas);
            idx.swap(k, j);
            let at_s = r.gen_range(0.0_f64..1.0) * horizon_s;
            plan = plan.with_crash(idx[k], at_s);
        }
        plan
    }

    /// Check every event against a cluster of `replicas` replicas.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for an out-of-range replica
    /// index, a non-finite or negative time, a recovery at or before its
    /// crash, an empty or inverted slowdown window, or a slowdown factor
    /// below 1.
    pub fn validate(&self, replicas: usize) -> Result<()> {
        let bad = |msg: String| Err(DcmError::InvalidConfig(msg));
        for e in &self.events {
            match *e {
                FaultEvent::Crash {
                    replica,
                    at_s,
                    recover_at_s,
                } => {
                    if replica >= replicas {
                        return bad(format!("crash of replica {replica} of {replicas}"));
                    }
                    if !at_s.is_finite() || at_s < 0.0 {
                        return bad(format!("crash time {at_s} must be finite and >= 0"));
                    }
                    if let Some(rec) = recover_at_s {
                        if !rec.is_finite() || rec <= at_s {
                            return bad(format!(
                                "recovery at {rec} must be finite and after crash at {at_s}"
                            ));
                        }
                    }
                }
                FaultEvent::Slowdown {
                    replica,
                    from_s,
                    until_s,
                    factor,
                } => {
                    if replica >= replicas {
                        return bad(format!("slowdown of replica {replica} of {replicas}"));
                    }
                    if !from_s.is_finite() || from_s < 0.0 || !until_s.is_finite() {
                        return bad(format!(
                            "slowdown window [{from_s}, {until_s}) must be finite and >= 0"
                        ));
                    }
                    if until_s <= from_s {
                        return bad(format!("slowdown window [{from_s}, {until_s}) is empty"));
                    }
                    if !factor.is_finite() || factor < 1.0 {
                        return bad(format!("slowdown factor {factor} must be >= 1"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Flatten into a time-ordered event timeline. Ties are broken by
    /// event class (recoveries and window-ends before window-starts
    /// before crashes, so a zero-length outage never swallows an
    /// arrival) and then replica index — fully deterministic.
    pub(crate) fn timeline(&self) -> Vec<TimelineEvent> {
        let mut out = Vec::with_capacity(self.events.len() * 2);
        for e in &self.events {
            match *e {
                FaultEvent::Crash {
                    replica,
                    at_s,
                    recover_at_s,
                } => {
                    out.push(TimelineEvent {
                        t: at_s,
                        kind: TimelineKind::Crash { replica },
                    });
                    if let Some(rec) = recover_at_s {
                        out.push(TimelineEvent {
                            t: rec,
                            kind: TimelineKind::Recover { replica },
                        });
                    }
                }
                FaultEvent::Slowdown {
                    replica,
                    from_s,
                    until_s,
                    factor,
                } => {
                    out.push(TimelineEvent {
                        t: from_s,
                        kind: TimelineKind::SlowStart { replica, factor },
                    });
                    out.push(TimelineEvent {
                        t: until_s,
                        kind: TimelineKind::SlowEnd { replica },
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            a.t.total_cmp(&b.t)
                .then_with(|| a.kind.class_rank().cmp(&b.kind.class_rank()))
                .then_with(|| a.kind.replica().cmp(&b.kind.replica()))
        });
        out
    }
}

/// A single point on the flattened fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimelineEvent {
    pub(crate) t: f64,
    pub(crate) kind: TimelineKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TimelineKind {
    Recover { replica: usize },
    SlowEnd { replica: usize },
    SlowStart { replica: usize, factor: f64 },
    Crash { replica: usize },
}

impl TimelineKind {
    /// Tie-break class among fault edges at one instant, by which
    /// [`FaultPlan::timeline`] sorts them. Against the control fabric and
    /// arrivals every fault edge goes first (the cluster timeline's
    /// `pop`).
    pub(crate) fn class_rank(self) -> u8 {
        match self {
            TimelineKind::Recover { .. } => 0,
            TimelineKind::SlowEnd { .. } => 1,
            TimelineKind::SlowStart { .. } => 2,
            TimelineKind::Crash { .. } => 3,
        }
    }

    pub(crate) fn replica(self) -> usize {
        match self {
            TimelineKind::Recover { replica }
            | TimelineKind::SlowEnd { replica }
            | TimelineKind::SlowStart { replica, .. }
            | TimelineKind::Crash { replica } => replica,
        }
    }
}

/// Admission control: when to reject an arrival instead of queueing it.
///
/// Checked against the replica the routing policy *would* dispatch to —
/// the least-loaded candidate under JSQ/least-KV — so a rejection means
/// the whole cluster is past the threshold, not one unlucky replica.
/// Crash-displaced retries are never shed: they were already admitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ShedPolicy {
    /// Reject when the selected replica already holds this many requests
    /// (queued + in service). `None` disables the check.
    pub max_queue_depth: Option<usize>,
    /// Reject when the selected replica's KV-cache usage fraction is at
    /// or above this. `None` disables the check. A run rejects a fraction
    /// that is NaN or outside `[0, 1]`.
    pub max_kv_used: Option<f64>,
}

impl ShedPolicy {
    /// Never shed — the unbounded-queue behaviour of the plain cluster.
    #[must_use]
    pub fn none() -> Self {
        ShedPolicy::default()
    }

    /// Shed when the selected replica's queue depth reaches `depth`.
    #[must_use]
    pub fn queue_cap(depth: usize) -> Self {
        ShedPolicy {
            max_queue_depth: Some(depth),
            max_kv_used: None,
        }
    }

    /// Shed when the selected replica's KV usage reaches `frac` (0..=1).
    #[must_use]
    pub fn kv_cap(frac: f64) -> Self {
        ShedPolicy {
            max_queue_depth: None,
            max_kv_used: Some(frac),
        }
    }

    /// Whether an arrival routed to a replica with the given state is
    /// rejected.
    #[must_use]
    pub fn rejects(&self, queue_depth: usize, kv_used_fraction: f64) -> bool {
        self.max_queue_depth.is_some_and(|d| queue_depth >= d)
            || self.max_kv_used.is_some_and(|f| kv_used_fraction >= f)
    }

    /// Whether any threshold is configured at all. An inactive policy
    /// never rejects, so the cluster's lazy-horizon dispatch skips the
    /// target catch-up its check would otherwise force (DESIGN.md
    /// §3.10).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.max_queue_depth.is_some() || self.max_kv_used.is_some()
    }
}

/// Everything the cluster needs to run resiliently: the shedding policy,
/// the crash retry budget, and the SLO that goodput is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Admission control for new arrivals.
    pub shed: ShedPolicy,
    /// How many times a crash-displaced request may be re-dispatched
    /// before it counts as failed.
    pub max_retries: usize,
    /// The latency objective behind `goodput_tps` / `slo_attainment`.
    pub slo: SloSpec,
}

impl ResilienceConfig {
    /// Check the thresholds a run judges and sheds by.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] naming the field for an SLO
    /// bound that is NaN or not positive, or a KV shed fraction that is
    /// NaN or outside `[0, 1]`.
    pub(crate) fn validate(&self) -> Result<()> {
        for (field, bound) in [
            ("slo.max_ttft_s", self.slo.max_ttft_s),
            ("slo.max_tpot_s", self.slo.max_tpot_s),
        ] {
            if bound.is_nan() || bound <= 0.0 {
                return Err(DcmError::InvalidConfig(format!(
                    "{field} must be > 0, got {bound}"
                )));
            }
        }
        if let Some(frac) = self.shed.max_kv_used {
            if !(0.0..=1.0).contains(&frac) {
                return Err(DcmError::InvalidConfig(format!(
                    "shed.max_kv_used must be in [0, 1], got {frac}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ResilienceConfig {
    /// No shedding, two retries, the default [`SloSpec`] — the
    /// fault-free cluster behaviour plus a sane retry budget.
    fn default() -> Self {
        ResilienceConfig {
            shed: ShedPolicy::none(),
            max_retries: 2,
            slo: SloSpec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_judges_both_bounds() {
        let slo = SloSpec::new(1.0, 0.1);
        assert!(slo.met(0.5, Some(0.05)));
        assert!(!slo.met(1.5, Some(0.05)), "TTFT bound");
        assert!(!slo.met(0.5, Some(0.2)), "TPOT bound");
        // Single-token outputs have no decode interval: TPOT is vacuous.
        assert!(slo.met(0.5, None));
        assert!(!slo.met(2.0, None));
    }

    #[test]
    fn slo_rejects_nonpositive_bounds() {
        let with_slo = |ttft, tpot| ResilienceConfig {
            slo: SloSpec::new(ttft, tpot),
            ..ResilienceConfig::default()
        };
        assert!(with_slo(1.0, 0.1).validate().is_ok());
        assert!(
            with_slo(f64::INFINITY, 0.1).validate().is_ok(),
            "no TTFT bound"
        );
        for (cfg, field) in [
            (with_slo(0.0, 0.1), "slo.max_ttft_s"),
            (with_slo(f64::NAN, 0.1), "slo.max_ttft_s"),
            (with_slo(1.0, -0.1), "slo.max_tpot_s"),
        ] {
            assert!(
                matches!(cfg.validate(), Err(DcmError::InvalidConfig(m)) if m.starts_with(field)),
                "{field}"
            );
        }
    }

    #[test]
    fn plan_builders_and_timeline_ordering() {
        let plan = FaultPlan::none()
            .with_recovering_crash(1, 5.0, 9.0)
            .with_slowdown(0, 2.0, 5.0, 3.0)
            .with_crash(2, 5.0);
        assert_eq!(plan.events.len(), 3);
        assert!(plan.validate(3).is_ok());
        let tl = plan.timeline();
        let times: Vec<f64> = tl.iter().map(|e| e.t).collect();
        assert_eq!(times, vec![2.0, 5.0, 5.0, 5.0, 9.0]);
        // Tie at t=5: the slowdown end precedes both crashes, and the
        // crashes order by replica index.
        assert!(matches!(tl[1].kind, TimelineKind::SlowEnd { replica: 0 }));
        assert!(matches!(tl[2].kind, TimelineKind::Crash { replica: 1 }));
        assert!(matches!(tl[3].kind, TimelineKind::Crash { replica: 2 }));
        assert!(matches!(tl[4].kind, TimelineKind::Recover { replica: 1 }));
    }

    #[test]
    fn plan_validation_rejects_bad_events() {
        assert!(FaultPlan::none().with_crash(4, 1.0).validate(4).is_err());
        assert!(FaultPlan::none().with_crash(0, -1.0).validate(2).is_err());
        assert!(FaultPlan::none()
            .with_recovering_crash(0, 5.0, 5.0)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_slowdown(0, 3.0, 3.0, 2.0)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_slowdown(0, 0.0, 1.0, 0.5)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none()
            .with_crash(0, f64::NAN)
            .validate(2)
            .is_err());
        assert!(FaultPlan::none().validate(0).is_ok());
    }

    #[test]
    fn random_crashes_are_seeded_and_leave_survivors() {
        let a = FaultPlan::random_crashes(4, 2, 100.0, 11);
        let b = FaultPlan::random_crashes(4, 2, 100.0, 11);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::random_crashes(4, 2, 100.0, 12));
        assert_eq!(a.events.len(), 2);
        assert!(a.validate(4).is_ok());
        let mut victims: Vec<usize> = a
            .events
            .iter()
            .map(|e| match *e {
                FaultEvent::Crash { replica, .. } => replica,
                FaultEvent::Slowdown { .. } => unreachable!("plan has only crashes"),
            })
            .collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 2, "distinct victims");
        for e in &a.events {
            if let FaultEvent::Crash {
                at_s, recover_at_s, ..
            } = *e
            {
                assert!(at_s > 0.0 && at_s < 100.0);
                assert!(recover_at_s.is_none());
            }
        }
    }

    #[test]
    fn shed_policy_thresholds() {
        let none = ShedPolicy::none();
        assert!(!none.rejects(usize::MAX, 1.0));
        let q = ShedPolicy::queue_cap(8);
        assert!(!q.rejects(7, 1.0));
        assert!(q.rejects(8, 0.0));
        let kv = ShedPolicy::kv_cap(0.9);
        assert!(!kv.rejects(100, 0.89));
        assert!(kv.rejects(0, 0.9));
    }
}
