//! Multi-replica online serving: a router dispatching an arrival stream
//! across N independent serving engines on one shared simulated clock.
//!
//! Production LLM serving replicates the model across device groups and
//! load-balances incoming requests; tail latency then depends as much on
//! the routing policy as on the single-engine scheduler. This module
//! models that layer for the paper's serving study: each replica is a
//! full [`ServingEngine`] (its own KV cache, continuous-batching
//! scheduler and preemption behaviour), and the [`Cluster`] replays a
//! trace in global arrival order under **lazy per-replica horizons**:
//! a replica's simulation is advanced to an event instant only when the
//! event lands on it or a cluster-level read (a routing policy that
//! inspects queue depth or KV load, a shedding decision, a fault edge,
//! a fabric delivery, the final report) needs its state. Deferring is
//! unobservable — each replica's step sequence depends only on its own
//! queue and global event times are monotone — so a lazy run is
//! bit-identical to eagerly advancing every replica to every event
//! (DESIGN.md §3.10), while state-oblivious policies (round-robin) skip
//! the per-arrival advance entirely.
//!
//! Four policies are modeled:
//!
//! * [`RoutingPolicy::RoundRobin`] — arrival-order striping, oblivious to
//!   load. The baseline every serving paper compares against.
//! * [`RoutingPolicy::JoinShortestQueue`] — route to the replica with the
//!   fewest requests in flight (queued + active).
//! * [`RoutingPolicy::LeastLoadedKv`] — route to the replica with the
//!   most free KV-cache blocks, the signal vLLM-style engines actually
//!   bottleneck on (memory-bound batching, §4.2 of the paper).
//! * [`RoutingPolicy::WeightedJsq`] — JSQ with queue depth divided by
//!   each replica's device speed (peak BF16 matrix throughput), the
//!   device-aware policy for heterogeneous Gaudi + GPU clusters: a
//!   faster replica absorbs proportionally more arrivals.
//!
//! Replicas may be heterogeneous ([`Cluster::new`] accepts any mix of
//! engines — e.g. Gaudi-2 and A100 behind one router); the report labels
//! each replica with its device name.
//!
//! The run is driven by one merged timeline over three sources, each
//! already in time order: the fault plan's edges, the control fabric's
//! next instant and the trace's arrivals; `Timeline::pop` is the one
//! place that states the rule for events at one instant. Replicas are
//! advanced and ties broken in replica-index order, and every engine is
//! seeded purely by the trace, so a given (trace, policy, replica mix)
//! replays bit-identically.
//!
//! This loop (`serve`) is the only serving event loop and its report
//! builder the only one: [`ServingEngine::run`] is a one-replica
//! round-robin run of it. Fast-forward and the metrics mode are set
//! once per cluster and handed to every replica's simulation, and
//! goodput is judged against [`ResilienceConfig::slo`].
//!
//! Resilience ([`Cluster::run_resilient`]): the same event loop
//! additionally replays a [`FaultPlan`] — replica crashes (with optional
//! cold recovery) and transient slowdown windows — on the shared clock.
//! A crashed replica's queued and in-flight requests are re-dispatched to
//! survivors (restarting from scratch, recompute-mode) within a capped
//! retry budget, a [`ShedPolicy`](crate::fault::ShedPolicy) can reject
//! arrivals when the least-loaded replica is already past a queue or
//! KV-pressure threshold, and the report gains goodput / SLO-attainment /
//! shed / failed accounting. `run` is exactly `run_resilient` with the
//! empty plan and default config, bit for bit.

use crate::dataset::Request;
use crate::engine::{at, validate_trace, ServingEngine, ServingReport, SimState};
use crate::fault::{FaultPlan, ResilienceConfig, TimelineEvent, TimelineKind};
use dcm_core::cast::usize_to_f64;
use dcm_core::error::{DcmError, Result};
use dcm_core::metrics::{LatencyRecorder, MetricsMode};
use dcm_core::specs::DeviceSpec;
use dcm_core::trace::{Span, SpanKind, Trace, TraceRecorder};
use dcm_net::flow::{FlowId, FlowSim};
use dcm_net::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::iter::Peekable;
use std::vec::IntoIter;

/// One event of the run's merged timeline.
enum ClusterEvent {
    Fault(TimelineKind),
    /// The control fabric has work due: a dispatch flow finishing or a
    /// delivery landing.
    Fabric,
    /// The request at this trace index arrives.
    Arrival(u32),
}

/// The run's merged timeline over three sources, each already in time
/// order: the fault plan's edges, the control fabric's next instant
/// (passed to each [`pop`](Self::pop)), and the trace's arrivals in
/// `(arrival_s by f64::total_cmp, trace index)` order, read in place.
struct Timeline<'a> {
    faults: Peekable<IntoIter<TimelineEvent>>,
    requests: &'a [Request],
    /// Trace indices in arrival order; empty when the trace is in that
    /// order already, as generated traces are.
    order: Vec<u32>,
    /// Arrivals read so far.
    next: u32,
}

impl<'a> Timeline<'a> {
    /// `plan`'s fault edges and `requests`' arrivals, from a trace that
    /// [`validate_trace`] has capped at `u32::MAX` requests.
    fn new(plan: &FaultPlan, requests: &'a [Request]) -> Self {
        let by_arrival = |a: &Request, b: &Request| a.arrival_s.total_cmp(&b.arrival_s);
        let order = if requests.is_sorted_by(|a, b| by_arrival(a, b).is_le()) {
            Vec::new()
        } else {
            let mut order: Vec<u32> = (0..=u32::MAX).take(requests.len()).collect();
            // Stable: simultaneous arrivals keep trace order.
            order.sort_by(|&a, &b| by_arrival(&requests[at(a)], &requests[at(b)]));
            order
        };
        Timeline {
            faults: plan.timeline().into_iter().peekable(),
            requests,
            order,
            next: 0,
        }
    }

    /// The trace index of the next arrival, unread.
    fn peek_arrival(&self) -> Option<u32> {
        if self.order.is_empty() {
            (at(self.next) < self.requests.len()).then_some(self.next)
        } else {
            self.order.get(at(self.next)).copied()
        }
    }

    /// Remove and return the earliest event and its time, `fabric_due`
    /// being the control fabric's next instant. This is the rule for
    /// events at one instant: fault edges first, in timeline order (which
    /// ranks their classes), then the fabric, then arrivals in trace
    /// order. So a dispatch toward a replica crashing at its delivery
    /// instant is re-routed, a routing decision sees every delivery due
    /// at its instant, and a replica crashing when a request arrives
    /// cannot receive it.
    fn pop(&mut self, fabric_due: Option<f64>) -> Option<(f64, ClusterEvent)> {
        let candidates = [
            self.faults
                .peek()
                .map(|e| (e.t, ClusterEvent::Fault(e.kind))),
            fabric_due.map(|t| (t, ClusterEvent::Fabric)),
            self.peek_arrival()
                .map(|i| (self.requests[at(i)].arrival_s, ClusterEvent::Arrival(i))),
        ];
        // `min_by` keeps the first of equal elements: the rule's order.
        let (t, event) = candidates
            .into_iter()
            .flatten()
            .min_by(|a, b| a.0.total_cmp(&b.0))?;
        match event {
            ClusterEvent::Fault(_) => {
                self.faults.next();
            }
            ClusterEvent::Fabric => {}
            ClusterEvent::Arrival(_) => self.next += 1,
        }
        Some((t, event))
    }
}

/// How the cluster assigns an arriving request to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Stripe arrivals across replicas in order, ignoring load.
    RoundRobin,
    /// Send each arrival to the replica with the fewest requests in the
    /// system (pending + ready + active); ties go to the lowest index.
    JoinShortestQueue,
    /// Send each arrival to the replica with the lowest fraction of KV
    /// blocks in use; ties go to the lowest index.
    LeastLoadedKv,
    /// Device-aware JSQ for heterogeneous clusters: send each arrival to
    /// the replica minimizing `queue_depth / device_speed` (speed = peak
    /// BF16 matrix throughput), so a faster device absorbs
    /// proportionally more load; ties go to the lowest index. On a
    /// homogeneous cluster this decides exactly like
    /// [`JoinShortestQueue`](Self::JoinShortestQueue).
    WeightedJsq,
}

impl RoutingPolicy {
    /// Short stable name for CSV export and plot legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round_robin",
            RoutingPolicy::JoinShortestQueue => "jsq",
            RoutingPolicy::LeastLoadedKv => "least_kv",
            RoutingPolicy::WeightedJsq => "wjsq",
        }
    }

    /// Whether a routing decision inspects replica state (queue depth or
    /// KV pressure). State-reading policies force every live replica to
    /// catch up to the arrival instant so they observe current values;
    /// round-robin reads nothing and routes without advancing anyone —
    /// the cheapest policy under lazy horizons (DESIGN.md §3.10).
    #[must_use]
    pub fn reads_replica_state(self) -> bool {
        !matches!(self, RoutingPolicy::RoundRobin)
    }
}

/// Opt-in control-plane fabric: router → replica dispatch messages are
/// costed as flows on a shared star topology instead of arriving for
/// free (a prerequisite for disaggregated serving, ROADMAP's parked
/// "Serving estate", where KV-migration traffic competes on the same
/// links).
///
/// Topology: the router's single egress link feeds a hub, which fans out
/// one link per replica. Every dispatch crosses the shared egress link,
/// so bursts of simultaneous arrivals contend (deterministic max-min
/// sharing) and the delivery delay shows up in TTFT/queue delay. With no
/// fabric configured (the default), dispatch is instantaneous and all
/// golden serving reports are byte-identical to previous versions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Size of one dispatch/coordination message in bytes.
    pub dispatch_bytes: u64,
    /// Capacity of the router egress and per-replica links, bytes/s.
    pub link_bps: f64,
    /// One-way latency of the router→replica path, seconds.
    pub latency_s: f64,
}

impl FabricConfig {
    /// Derive a control fabric from a device's scale-out rail (the NIC
    /// the router would really reach replicas through): link speed and
    /// per-message latency from [`dcm_core::specs::ScaleOutSpec`], with
    /// a 16 KiB dispatch payload (request metadata + routing envelope).
    #[must_use]
    pub fn from_spec(spec: &DeviceSpec) -> Self {
        FabricConfig {
            dispatch_bytes: 16 << 10,
            link_bps: spec.scale_out.bps_per_device * spec.scale_out.efficiency,
            latency_s: spec.scale_out.alpha_s,
        }
    }

    /// Check the link parameters a run builds its fabric topology from.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] naming the field when
    /// `link_bps` is not finite and positive, or `latency_s` is not
    /// finite and non-negative.
    fn validate(&self) -> Result<()> {
        if !(self.link_bps.is_finite() && self.link_bps > 0.0) {
            return Err(DcmError::InvalidConfig(format!(
                "fabric link_bps must be finite and > 0, got {}",
                self.link_bps
            )));
        }
        if !(self.latency_s.is_finite() && self.latency_s >= 0.0) {
            return Err(DcmError::InvalidConfig(format!(
                "fabric latency_s must be finite and >= 0, got {}",
                self.latency_s
            )));
        }
        Ok(())
    }
}

/// Live control-fabric state of one run: the flow simulator plus the
/// dispatches in flight and the deliveries already timed.
struct FabricRun {
    sim: FlowSim,
    dispatch_bytes: u64,
    /// Dispatch flows still transferring: `(flow, trace index, target)`.
    pending: Vec<(FlowId, u32, usize)>,
    /// Finished dispatches awaiting their delivery instant, `(time, trace
    /// index, target)` sorted ascending by time (stable — equal times
    /// keep finish order).
    deliveries: Vec<(f64, u32, usize)>,
}

/// Router endpoint in the control-fabric topology.
const FABRIC_ROUTER: usize = 0;

impl FabricRun {
    fn new(cfg: FabricConfig, replicas: usize) -> Self {
        // Star: router(0) → egress → hub(1) → one link per replica
        // (replica i is endpoint 2+i). The egress link carries the
        // latency so every dispatch pays it exactly once.
        let mut topo = Topology::new(2 + replicas);
        let egress = topo.add_link(0, 1, cfg.link_bps, cfg.latency_s);
        for i in 0..replicas {
            let l = topo.add_link(1, 2 + i, cfg.link_bps, 0.0);
            topo.add_route(FABRIC_ROUTER, 2 + i, vec![egress, l]);
        }
        FabricRun {
            sim: FlowSim::new(topo),
            dispatch_bytes: cfg.dispatch_bytes,
            pending: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Inject the dispatch of the request at trace index `index` toward
    /// `target` at the current fabric time.
    fn dispatch(&mut self, index: u32, target: usize) {
        let flow = self
            .sim
            .inject(FABRIC_ROUTER, 2 + target, self.dispatch_bytes, &[]);
        self.pending.push((flow, index, target));
    }

    /// The next instant the fabric needs the event loop's attention.
    fn next_time(&mut self) -> Option<f64> {
        let next_delivery = self.deliveries.first().map(|d| d.0);
        let next_finish = self.sim.next_time();
        match (next_delivery, next_finish) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Per-replica accounting of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStats {
    /// Requests routed to this replica, including crash-displaced
    /// re-dispatches from other replicas.
    pub dispatched: usize,
    /// Requests it completed (equals `dispatched` on a fault-free
    /// drained run).
    pub completed: usize,
    /// Output tokens it produced.
    pub output_tokens: usize,
    /// Time it spent executing prefill or decode steps.
    pub busy_s: f64,
    /// `busy_s` over the cluster's total span — the replica's duty cycle.
    pub utilization: f64,
    /// Recompute-mode preemptions on this replica.
    pub preemptions: usize,
    /// Times this replica crashed under the fault plan (0 on a
    /// fault-free run).
    pub crashes: usize,
}

/// Aggregate result of one cluster run: cluster-wide serving metrics plus
/// the per-replica breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Cluster-wide metrics, directly comparable to a single-engine
    /// [`ServingReport`]: latency percentiles pool every request's
    /// samples, throughput divides total tokens by the span of the
    /// longest-running replica.
    pub serving: ServingReport,
    /// One entry per replica, in replica-index order.
    pub per_replica: Vec<ReplicaStats>,
    /// Device name of each replica, in replica-index order — identifies
    /// the mix in a heterogeneous run.
    pub replica_devices: Vec<String>,
    /// The routing policy that produced this run.
    pub policy: RoutingPolicy,
}

impl ClusterReport {
    /// Mean of the per-replica duty cycles. A report with no replicas
    /// (never produced by [`Cluster`], but constructible) is defined to
    /// have mean utilization 0.0, not NaN.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.per_replica.is_empty() {
            return 0.0;
        }
        self.per_replica.iter().map(|r| r.utilization).sum::<f64>()
            / usize_to_f64(self.per_replica.len())
    }

    /// Largest relative spread in dispatched requests across replicas —
    /// 0.0 is a perfectly even split. Defined as 0.0 (balanced) when no
    /// replica dispatched anything, including the no-replica and
    /// single-replica degenerate cases.
    #[must_use]
    pub fn dispatch_imbalance(&self) -> f64 {
        let max = self
            .per_replica
            .iter()
            .map(|r| r.dispatched)
            .max()
            .unwrap_or(0);
        let min = self
            .per_replica
            .iter()
            .map(|r| r.dispatched)
            .min()
            .unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            usize_to_f64(max - min) / usize_to_f64(max)
        }
    }
}

/// A router over N replica [`ServingEngine`]s sharing one simulated clock.
pub struct Cluster {
    replicas: Vec<ServingEngine>,
    settings: RunSettings,
}

/// How a run serves, apart from its replicas: the routing policy, the
/// optional control fabric, fast-forward and the metrics mode. A
/// [`Cluster`] holds one; [`ServingEngine::run`] serves with
/// `RunSettings::new(RoutingPolicy::RoundRobin)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSettings {
    policy: RoutingPolicy,
    fabric: Option<FabricConfig>,
    pub(crate) fast_forward: bool,
    pub(crate) metrics_mode: MetricsMode,
}

impl RunSettings {
    /// Route by `policy`, with instantaneous dispatch, exact stepping and
    /// exact metrics.
    pub(crate) fn new(policy: RoutingPolicy) -> Self {
        RunSettings {
            policy,
            fabric: None,
            fast_forward: false,
            metrics_mode: MetricsMode::Exact,
        }
    }
}

impl Cluster {
    /// Build a cluster from pre-configured engines (replicas may be
    /// heterogeneous — e.g. different devices or batch caps). An empty
    /// list is rejected when a run starts.
    #[must_use]
    pub fn new(replicas: Vec<ServingEngine>, policy: RoutingPolicy) -> Self {
        Cluster {
            replicas,
            settings: RunSettings::new(policy),
        }
    }

    /// Build `n` identical replicas, mirroring [`ServingEngine::new`].
    #[must_use]
    pub fn homogeneous(
        device: &dcm_compiler::Device,
        model: &dcm_workloads::llama::LlamaConfig,
        tp: usize,
        backend: crate::attention::PagedBackend,
        max_decode_batch: usize,
        n: usize,
        policy: RoutingPolicy,
    ) -> Self {
        let replicas = (0..n)
            .map(|_| ServingEngine::new(device, model.clone(), tp, backend, max_decode_batch))
            .collect();
        Cluster::new(replicas, policy)
    }

    /// Cost router→replica dispatch traffic as flows on a control fabric
    /// (see [`FabricConfig`]). Off by default: without this call,
    /// dispatch is instantaneous and reports are byte-identical to
    /// previous versions.
    #[must_use]
    pub fn with_fabric(mut self, cfg: FabricConfig) -> Self {
        self.settings.fabric = Some(cfg);
        self
    }

    /// Cap every replica's KV cache at `blocks` blocks (see
    /// [`ServingEngine::with_kv_blocks`]).
    #[must_use]
    pub fn with_kv_blocks(mut self, blocks: usize) -> Self {
        self.replicas = self
            .replicas
            .into_iter()
            .map(|e| e.with_kv_blocks(blocks))
            .collect();
        self
    }

    /// Enable analytic fast-forward on every replica. In a steady
    /// stretch (no admission possible, no arrival or completion due) a
    /// replica advances its clock in one closed-form step instead of
    /// pricing every step of the stretch. Off by default. With it on,
    /// every count in the report (completed / shed / failed / retries,
    /// token totals) stays exact: a stretch never crosses a completion,
    /// admission or KV-exhaustion boundary. Timestamps are a trapezoid over each
    /// stretch, so latency percentiles and `total_time_s` carry the
    /// documented drift (DESIGN.md §3.8/§3.10), property-pinned by
    /// `tests/tests/prop_cluster_ff.rs`. The five golden exact-mode
    /// reports never enable it.
    #[must_use]
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.settings.fast_forward = enabled;
        self
    }

    /// Record every replica's TTFT/TPOT/queue-delay samples in `mode`.
    /// The default [`MetricsMode::Exact`] stores every sample
    /// (golden-pinned); [`MetricsMode::Histogram`] keeps O(1)-memory log
    /// histograms whose quantiles carry a proven
    /// ±[`HISTOGRAM_MAX_RELATIVE_ERROR`] bound — the million-request
    /// configuration.
    ///
    /// [`HISTOGRAM_MAX_RELATIVE_ERROR`]: dcm_core::metrics::HISTOGRAM_MAX_RELATIVE_ERROR
    #[must_use]
    pub fn with_metrics_mode(mut self, mode: MetricsMode) -> Self {
        self.settings.metrics_mode = mode;
        self
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the cluster has no replicas; a run rejects such a cluster.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Serve `requests` across the replicas to completion, fault-free.
    ///
    /// The trace is replayed in global arrival order. At each arrival a
    /// state-reading policy first catches every replica up to the
    /// arrival instant (so routing observes the state the replica would
    /// really have at that time; round-robin skips this), the policy
    /// picks a replica, and the request joins its queue. After the last
    /// arrival every replica drains.
    ///
    /// With one replica under round-robin this is exactly
    /// [`ServingEngine::run`], which serves through this loop. Equivalent
    /// to [`Cluster::run_resilient`] with [`FaultPlan::none`] and the
    /// default [`ResilienceConfig`], bit for bit.
    ///
    /// # Errors
    /// Returns [`InvalidConfig`](dcm_core::error::DcmError::InvalidConfig)
    /// for an empty cluster, a replica with a zero `max_decode_batch` or
    /// KV block cap (naming the replica and the field), an invalid trace
    /// (empty or longer than `u32::MAX` requests, a non-finite or
    /// negative arrival, an empty prompt, a request generating no token,
    /// or a duplicated id) or an invalid [`FabricConfig`] (a `link_bps`
    /// that is not finite and positive, a `latency_s` that is not finite
    /// and non-negative), and propagates any replica error (e.g. a
    /// request exceeding a replica's KV capacity).
    pub fn run(&mut self, requests: &[Request]) -> Result<ClusterReport> {
        self.run_resilient(requests, &FaultPlan::none(), &ResilienceConfig::default())
    }

    /// Like [`run`](Self::run), additionally recording a structured
    /// [`Trace`] merging every replica's engine spans (track = replica
    /// index) with the router's dispatch decisions (track = one past the
    /// last replica). Tracing is observational only — the report is
    /// bit-identical to an untraced run on the same trace.
    ///
    /// # Errors
    /// Same failure modes as [`run`](Self::run).
    pub fn run_traced(&mut self, requests: &[Request]) -> Result<(ClusterReport, Trace)> {
        self.run_resilient_traced(requests, &FaultPlan::none(), &ResilienceConfig::default())
    }

    /// Serve `requests` while replaying `plan`'s replica faults on the
    /// shared clock, under `cfg`'s shedding/retry/SLO policy.
    ///
    /// Event order is deterministic: fault events due at or before an
    /// arrival apply first (so a replica crashing at the arrival instant
    /// cannot receive it), every replica whose state an event reads is
    /// caught up to the event's instant before it takes effect (lazy
    /// horizons — see the module docs), and all ties break by replica
    /// index. Each offered request ends in exactly one of three buckets —
    /// completed, shed (admission control), or failed (crash retries
    /// exhausted, or no replica alive) — so
    /// `completed + shed + failed == offered` always holds, and
    /// `total_output_tokens - lost_tokens` is exactly the token count of
    /// completed requests.
    ///
    /// # Errors
    /// Returns [`InvalidConfig`](dcm_core::error::DcmError::InvalidConfig)
    /// for an invalid cluster, trace or fabric (see [`run`](Self::run)),
    /// an invalid plan (see [`FaultPlan::validate`]), an SLO bound that is
    /// NaN or not positive, or a KV shed fraction that is NaN or outside
    /// `[0, 1]`, naming the field, and propagates any replica error.
    pub fn run_resilient(
        &mut self,
        requests: &[Request],
        plan: &FaultPlan,
        cfg: &ResilienceConfig,
    ) -> Result<ClusterReport> {
        let (report, _) = serve(
            &mut self.replicas,
            self.settings,
            requests,
            plan,
            cfg,
            false,
        )?;
        Ok(report)
    }

    /// Like [`run_resilient`](Self::run_resilient), additionally recording
    /// a structured [`Trace`] (see [`run_traced`](Self::run_traced)); the
    /// fault timeline appears as instants on the router track. Tracing is
    /// observational only — the report is bit-identical to an untraced
    /// run.
    ///
    /// # Errors
    /// Same failure modes as [`run_resilient`](Self::run_resilient).
    pub fn run_resilient_traced(
        &mut self,
        requests: &[Request],
        plan: &FaultPlan,
        cfg: &ResilienceConfig,
    ) -> Result<(ClusterReport, Trace)> {
        let (report, spans) = serve(&mut self.replicas, self.settings, requests, plan, cfg, true)?;
        Ok((report, Trace::new(spans)))
    }
}

/// The one serving event loop: serve `requests` on `replicas` under
/// `settings`, replaying `plan` under `cfg`, and return the report plus,
/// when `traced`, every span. [`Cluster`]'s run entries pass their
/// replicas; [`ServingEngine::run`] passes itself as the only replica.
///
/// # Errors
/// Returns [`DcmError::InvalidConfig`] for an empty replica list, a
/// replica with a zero `max_decode_batch` or KV block cap, or an invalid
/// trace, plan, resilience threshold or fabric, and propagates any
/// replica error.
pub(crate) fn serve(
    replicas: &mut [ServingEngine],
    settings: RunSettings,
    requests: &[Request],
    plan: &FaultPlan,
    cfg: &ResilienceConfig,
    traced: bool,
) -> Result<(ClusterReport, Vec<Span>)> {
    if replicas.is_empty() {
        return Err(DcmError::InvalidConfig(
            "replicas: a cluster needs at least one replica".to_owned(),
        ));
    }
    validate_trace(requests)?;
    plan.validate(replicas.len())?;
    cfg.validate()?;
    if let Some(fabric) = &settings.fabric {
        fabric.validate()?;
    }

    let n = replicas.len();
    let sims = replicas
        .iter()
        .enumerate()
        .map(|(i, e)| e.make_sim(i, &settings, cfg.slo, requests))
        .collect::<Result<_>>()?;
    let mut st = RunState {
        replicas,
        settings,
        cfg,
        requests,
        sims,
        alive: vec![true; n],
        dispatched: vec![0usize; n],
        crashes: vec![0usize; n],
        attempts: BTreeMap::new(),
        shed: 0,
        failed: 0,
        retries: 0,
        lost_tokens: 0,
        router_trace: TraceRecorder::disabled(),
        fabric: settings.fabric.map(|f| FabricRun::new(f, n)),
    };
    if traced {
        for (i, sim) in st.sims.iter_mut().enumerate() {
            // dcm-lint: allow(P1) replica counts are far below u32::MAX
            sim.trace = TraceRecorder::enabled(u32::try_from(i).expect("replica count"));
        }
        // dcm-lint: allow(P1) replica counts are far below u32::MAX
        st.router_trace = TraceRecorder::enabled(u32::try_from(n).expect("replica count"));
    }

    let mut events = Timeline::new(plan, requests);

    // Hot loop: nothing here may allocate per event. Routing and
    // advance_live are iterator-based, trace instants are no-ops when
    // disabled, the per-replica decode loops reuse engine-side scratch
    // buffers, and a fabric dispatch reuses the flow slot of a dispatch
    // already delivered (the fabric's lists keep their capacity); the
    // only allocating path is the crash harvest (drain_unfinished),
    // which runs once per fault edge, not per arrival.
    while let Some((time, event)) = events.pop(st.fabric.as_mut().and_then(FabricRun::next_time)) {
        match event {
            ClusterEvent::Fault(kind) => st.apply_fault(time, kind)?,
            ClusterEvent::Fabric => st.fabric_deliver(time)?,
            ClusterEvent::Arrival(index) => {
                let r = &requests[at(index)];
                // Lazy horizons: replicas catch up to the arrival
                // instant only when this dispatch is about to read
                // their state — a state-reading policy inspects all
                // of them, a shedding check inspects the target.
                // Round-robin with shedding off reads nothing and
                // dispatches without advancing anyone; the deferred
                // work replays bit-identically at the replica's
                // next read, fault edge, fabric delivery, or the
                // final drain (DESIGN.md §3.10).
                let policy_reads = settings.policy.reads_replica_state();
                if policy_reads {
                    st.advance_live(r.arrival_s)?;
                }
                match st.route() {
                    // Total outage: no replica can accept the request.
                    None => {
                        st.failed += 1;
                        st.router_trace.instant(
                            SpanKind::Route,
                            "fail",
                            r.arrival_s,
                            Some(r.id),
                            &[],
                        );
                    }
                    Some(target) => {
                        if !policy_reads && cfg.shed.is_active() {
                            // Shedding reads the target's queue/KV
                            // pressure even when routing does not.
                            st.catch_up(target, r.arrival_s)?;
                        }
                        let sim = &st.sims[target];
                        if cfg.shed.rejects(sim.queue_depth(), sim.kv_used_fraction()) {
                            st.shed += 1;
                            st.router_trace.instant(
                                SpanKind::Route,
                                "shed",
                                r.arrival_s,
                                Some(r.id),
                                &[("replica", usize_to_f64(target))],
                            );
                        } else {
                            st.dispatched[target] += 1;
                            st.router_trace.instant(
                                SpanKind::Route,
                                "dispatch",
                                r.arrival_s,
                                Some(r.id),
                                &[("replica", usize_to_f64(target))],
                            );
                            match st.fabric.as_mut() {
                                // Instantaneous dispatch (default).
                                None => st.sims[target].enqueue(index),
                                // Costed dispatch: the request rides a
                                // flow and joins the replica's queue at
                                // the delivery instant.
                                Some(fr) => {
                                    fr.sim.advance_to(r.arrival_s);
                                    fr.dispatch(index, target);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    st.advance_live(f64::INFINITY)?;
    debug_assert!(
        st.sims.iter().all(SimState::is_drained),
        "run left work behind"
    );
    let report = st.aggregate();
    let mut spans = Vec::new();
    if traced {
        for sim in &mut st.sims {
            spans.append(&mut sim.trace.take_spans());
        }
        spans.append(&mut st.router_trace.take_spans());
    }
    Ok((report, spans))
}

/// The mutable state of one run: the replicas and their simulations,
/// liveness, dispatch bookkeeping, and the resilience counters that feed
/// the report. Its methods are the steps of `serve`'s event loop.
struct RunState<'a> {
    replicas: &'a mut [ServingEngine],
    settings: RunSettings,
    cfg: &'a ResilienceConfig,
    /// The run's trace: every request on its way to a replica is named
    /// by its index here.
    requests: &'a [Request],
    sims: Vec<SimState<'a>>,
    alive: Vec<bool>,
    /// Requests routed to each replica, retries included; their sum
    /// drives round-robin striping.
    dispatched: Vec<usize>,
    crashes: Vec<usize>,
    /// Crash-displacement count per request id, judged against the retry
    /// budget.
    attempts: BTreeMap<u64, usize>,
    shed: usize,
    failed: usize,
    retries: usize,
    lost_tokens: usize,
    /// Router-track span recorder — disabled (free) on untraced runs.
    router_trace: TraceRecorder,
    /// Control fabric, when dispatch traffic is costed as flows.
    fabric: Option<FabricRun>,
}

impl RunState<'_> {
    /// Pick a live replica for the next dispatch, or `None` during a
    /// total outage. With every replica alive this reproduces the
    /// fault-free policy decisions exactly (ties to the lowest index).
    fn route(&self) -> Option<usize> {
        let alive = &self.alive;
        let live = alive.iter().filter(|a| **a).count();
        if live == 0 {
            return None;
        }
        match self.settings.policy {
            RoutingPolicy::RoundRobin => {
                // Stripe over the live replicas only, in index order, by
                // the dispatches and retries routed so far.
                let k = self.dispatched.iter().sum::<usize>() % live;
                alive
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| **a)
                    .map(|(i, _)| i)
                    .nth(k)
            }
            RoutingPolicy::JoinShortestQueue => self
                .sims
                .iter()
                .enumerate()
                .filter(|(i, _)| alive[*i])
                .min_by_key(|(_, s)| s.queue_depth())
                .map(|(i, _)| i),
            RoutingPolicy::LeastLoadedKv => self
                .sims
                .iter()
                .enumerate()
                .filter(|(i, _)| alive[*i])
                .min_by(|(_, a), (_, b)| a.kv_used_fraction().total_cmp(&b.kv_used_fraction()))
                .map(|(i, _)| i),
            RoutingPolicy::WeightedJsq => self
                .sims
                .iter()
                .enumerate()
                .filter(|(i, _)| alive[*i])
                .min_by(|(i, a), (j, b)| {
                    let wa = usize_to_f64(a.queue_depth()) / self.replicas[*i].speed_weight();
                    let wb = usize_to_f64(b.queue_depth()) / self.replicas[*j].speed_weight();
                    wa.total_cmp(&wb)
                })
                .map(|(i, _)| i),
        }
    }

    /// Catch every live replica's simulation up to instant `t` — the
    /// full (eager) catch-up, forced by cluster-wide state reads:
    /// state-reading routing policies, crash re-routing, fabric
    /// deliveries and the final drain.
    fn advance_live(&mut self, t: f64) -> Result<()> {
        for (i, (engine, sim)) in self
            .replicas
            .iter_mut()
            .zip(self.sims.iter_mut())
            .enumerate()
        {
            if self.alive[i] {
                engine.sim_advance(sim, t)?;
            }
        }
        Ok(())
    }

    /// Catch a single replica's simulation up to instant `t` (no-op for
    /// a dead replica) — the targeted catch-up for events that read or
    /// mutate one replica's state only (shedding checks, slowdown
    /// edges).
    fn catch_up(&mut self, i: usize, t: f64) -> Result<()> {
        if self.alive[i] {
            self.replicas[i].sim_advance(&mut self.sims[i], t)?;
        }
        Ok(())
    }

    /// Re-route displaced request `id` at instant `t` under the retry
    /// budget: the one path for crash-displaced work and for in-flight
    /// dispatches to a dead replica. Counts the attempt, then either
    /// records a retry and returns the chosen replica, or records a
    /// failure (budget spent, or no live replica) and returns `None`. The
    /// caller hands the request over. Displaced work is never shed: it
    /// was already admitted once.
    fn reroute(&mut self, id: u64, t: f64) -> Option<usize> {
        let tries = self.attempts.entry(id).or_insert(0);
        *tries += 1;
        let target = if *tries > self.cfg.max_retries {
            None
        } else {
            self.route()
        };
        match target {
            None => {
                self.failed += 1;
                self.router_trace
                    .instant(SpanKind::Route, "fail", t, Some(id), &[]);
            }
            Some(target) => {
                self.retries += 1;
                self.dispatched[target] += 1;
                self.router_trace.instant(
                    SpanKind::Route,
                    "retry",
                    t,
                    Some(id),
                    &[("replica", usize_to_f64(target))],
                );
            }
        }
        target
    }

    /// Apply one fault-timeline event at instant `t`.
    fn apply_fault(&mut self, t: f64, kind: TimelineKind) -> Result<()> {
        match kind {
            TimelineKind::Crash { replica } => {
                if !self.alive[replica] {
                    return Ok(()); // already down
                }
                // Survivors' state must be current at the crash instant:
                // re-routing decisions observe it.
                self.advance_live(t)?;
                self.alive[replica] = false;
                self.crashes[replica] += 1;
                self.router_trace.instant(
                    SpanKind::Fault,
                    "crash",
                    t,
                    None,
                    &[("replica", usize_to_f64(replica))],
                );
                let (orphans, lost) = self.sims[replica].drain_unfinished();
                self.lost_tokens += lost;
                for i in orphans {
                    if let Some(target) = self.reroute(self.requests[at(i)].id, t) {
                        // Original arrival time kept: the retry's latency
                        // is client-perceived, spanning the lost attempt.
                        self.sims[target].enqueue(i);
                    }
                }
            }
            TimelineKind::Recover { replica } => {
                // Cold rejoin: queues and KV were drained at the crash;
                // the replica's clock catches up at its next dispatch.
                self.alive[replica] = true;
                self.router_trace.instant(
                    SpanKind::Fault,
                    "recover",
                    t,
                    None,
                    &[("replica", usize_to_f64(replica))],
                );
            }
            TimelineKind::SlowStart { replica, factor } => {
                // Only the affected replica must be current: the scale
                // applies to *its* steps from `t` on. Other replicas'
                // deferred work replays identically later (two-stage
                // advances with nothing enqueued in between execute the
                // same step sequence).
                self.catch_up(replica, t)?;
                self.sims[replica].set_time_scale(factor);
                self.router_trace.instant(
                    SpanKind::Fault,
                    "slow_start",
                    t,
                    None,
                    &[("replica", usize_to_f64(replica)), ("factor", factor)],
                );
            }
            TimelineKind::SlowEnd { replica } => {
                self.catch_up(replica, t)?;
                self.sims[replica].set_time_scale(1.0);
                self.router_trace.instant(
                    SpanKind::Fault,
                    "slow_end",
                    t,
                    None,
                    &[("replica", usize_to_f64(replica))],
                );
            }
        }
        Ok(())
    }

    /// Process everything the control fabric owes at instant `t`: finish
    /// due dispatch flows, time their deliveries, and enqueue every
    /// delivery due at or before `t` into its target replica. A delivery
    /// whose target died in flight is re-routed under the same retry
    /// budget as crash displacement.
    fn fabric_deliver(&mut self, t: f64) -> Result<()> {
        let Some(mut fr) = self.fabric.take() else {
            return Ok(());
        };
        fr.sim.advance_to(t);
        // Move finished flows into the delivery queue (delivery = finish
        // + route latency), keeping it sorted by time, and free their
        // records. Partitioned in place, in order: flows in flight keep
        // theirs, and deliveries are inserted in the order their flows
        // were dispatched.
        let FabricRun {
            sim,
            pending,
            deliveries,
            ..
        } = &mut fr;
        pending.retain(|&(flow, i, target)| {
            let Some(due) = sim.take_finished(flow) else {
                return true;
            };
            let pos = deliveries.partition_point(|d| d.0.total_cmp(&due).is_le());
            deliveries.insert(pos, (due, i, target));
            false
        });
        while fr.deliveries.first().is_some_and(|d| d.0 <= t) {
            let (due, i, target) = fr.deliveries.remove(0);
            self.advance_live(due)?;
            if self.alive[target] {
                self.sims[target].enqueue(i);
                continue;
            }
            // In-flight dispatch toward a dead replica: same budgeted
            // re-route as crash-displaced work.
            if let Some(next) = self.reroute(self.requests[at(i)].id, due) {
                fr.dispatch(i, next);
            }
        }
        self.fabric = Some(fr);
        Ok(())
    }

    /// Build the run's report: the one place a [`ServingReport`] is
    /// made. Latency samples pool every replica's, taken from the
    /// replicas rather than copied: the first replica's recorders take
    /// the others' samples in replica order. Goodput and SLO attainment
    /// sum the counts each replica judged against `cfg.slo` at
    /// completion, and the span is the longest replica clock.
    fn aggregate(&mut self) -> ClusterReport {
        let total_time_s = self.sims.iter().map(SimState::now).fold(0.0_f64, f64::max);
        let mode = self.settings.metrics_mode;
        let mut taken = self
            .sims
            .iter_mut()
            .map(|sim| [&mut sim.ttft, &mut sim.tpot, &mut sim.queue_delay].map(std::mem::take));
        let [mut ttft, mut tpot, mut queue_delay] = taken
            .next()
            .unwrap_or_else(|| std::array::from_fn(|_| LatencyRecorder::with_mode(mode)));
        for [t, p, q] in taken {
            ttft.merge(&t);
            tpot.merge(&p);
            queue_delay.merge(&q);
        }
        let mut completed = 0;
        let mut total_output = 0;
        let mut peak_batch = 0;
        let mut preemptions = 0;
        let mut met_requests = 0;
        let mut met_tokens = 0;
        let mut per_replica = Vec::with_capacity(self.sims.len());
        for (i, sim) in self.sims.iter().enumerate() {
            completed += sim.completed();
            total_output += sim.total_output_tokens();
            peak_batch = peak_batch.max(sim.peak_batch());
            preemptions += sim.preemptions();
            met_requests += sim.slo_met_requests;
            met_tokens += sim.slo_met_tokens;
            per_replica.push(ReplicaStats {
                dispatched: self.dispatched[i],
                completed: sim.completed(),
                output_tokens: sim.total_output_tokens(),
                busy_s: sim.busy_s,
                utilization: if total_time_s > 0.0 {
                    sim.busy_s / total_time_s
                } else {
                    0.0
                },
                preemptions: sim.preemptions(),
                crashes: self.crashes[i],
            });
        }
        let (p50_ttft_s, p95_ttft_s, p99_ttft_s) = ttft.summary();
        let (p50_tpot_s, p95_tpot_s, p99_tpot_s) = tpot.summary();
        let offered = completed + self.shed + self.failed;
        let serving = ServingReport {
            completed,
            total_output_tokens: total_output,
            total_time_s,
            throughput_tps: safe_rate(total_output, total_time_s),
            mean_ttft_s: ttft.mean(),
            mean_tpot_s: tpot.mean(),
            p50_ttft_s,
            p95_ttft_s,
            p99_ttft_s,
            p50_tpot_s,
            p95_tpot_s,
            p99_tpot_s,
            mean_queue_delay_s: queue_delay.mean(),
            p99_queue_delay_s: queue_delay.quantile(99.0),
            peak_batch,
            preemptions,
            shed: self.shed,
            failed: self.failed,
            retries: self.retries,
            lost_tokens: self.lost_tokens,
            goodput_tps: safe_rate(met_tokens, total_time_s),
            // Vacuously 1 when nothing was offered.
            slo_attainment: if offered == 0 {
                1.0
            } else {
                usize_to_f64(met_requests) / usize_to_f64(offered)
            },
        };
        ClusterReport {
            serving,
            per_replica,
            replica_devices: self
                .replicas
                .iter()
                .map(|e| e.device_name().to_owned())
                .collect(),
            policy: self.settings.policy,
        }
    }
}

/// `tokens / span`, with a zero (or degenerate) span mapping to 0 instead
/// of NaN/inf — no report field may ever be non-finite.
fn safe_rate(tokens: usize, span_s: f64) -> f64 {
    if span_s > 0.0 {
        usize_to_f64(tokens) / span_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::PagedBackend;
    use crate::dataset::{ArrivalProcess, SyntheticDataset};
    use dcm_compiler::Device;
    use dcm_core::error::DcmError;
    use dcm_workloads::llama::LlamaConfig;

    fn cluster(n: usize, policy: RoutingPolicy) -> Cluster {
        Cluster::homogeneous(
            &Device::gaudi2(),
            &LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            8,
            n,
            policy,
        )
    }

    fn online_trace(n: usize, seed: u64, rate: f64) -> Vec<crate::dataset::Request> {
        SyntheticDataset::dynamic_sonnet_online(
            n,
            seed,
            &ArrivalProcess::Poisson { rate_rps: rate },
        )
    }

    #[test]
    fn single_replica_offline_cluster_matches_engine() {
        // The cluster with one replica and an all-zero trace must be the
        // offline engine, bit for bit.
        let reqs = SyntheticDataset::dynamic_sonnet(16, 21);
        let mut engine = crate::engine::ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            8,
        );
        let solo = engine.run(&reqs).unwrap();
        let report = cluster(1, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        assert_eq!(report.serving, solo);
        assert_eq!(report.per_replica[0].dispatched, 16);
        assert_eq!(report.per_replica[0].completed, 16);
    }

    #[test]
    fn round_robin_stripes_evenly() {
        let reqs = online_trace(24, 4, 5.0);
        let report = cluster(4, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        for r in &report.per_replica {
            assert_eq!(r.dispatched, 6);
            assert_eq!(r.completed, 6);
        }
        assert_eq!(report.serving.completed, 24);
        assert!((report.dispatch_imbalance() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn all_policies_conserve_tokens() {
        let reqs = online_trace(20, 6, 8.0);
        let expected: usize = reqs.iter().map(|r| r.output_len).sum();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastLoadedKv,
        ] {
            let report = cluster(3, policy).run(&reqs).unwrap();
            assert_eq!(report.serving.completed, 20, "{policy:?}");
            assert_eq!(report.serving.total_output_tokens, expected, "{policy:?}");
            let by_replica: usize = report.per_replica.iter().map(|r| r.output_tokens).sum();
            assert_eq!(by_replica, expected, "{policy:?}");
        }
    }

    #[test]
    fn jsq_routes_around_a_long_job() {
        // One giant request at t=0 pins a replica. The short requests are
        // spaced so each finishes before the next arrives: the idle
        // replica's queue is empty at every arrival, so JSQ sends every
        // short there, while round-robin blindly alternates onto the
        // pinned replica.
        let mut reqs = vec![crate::dataset::Request::new(0, 1024, 4000)];
        for i in 1..9 {
            reqs.push(crate::dataset::Request {
                arrival_s: i as f64 * 2.0,
                ..crate::dataset::Request::new(i, 128, 32)
            });
        }
        let jsq = cluster(2, RoutingPolicy::JoinShortestQueue)
            .run(&reqs)
            .unwrap();
        let rr = cluster(2, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        // JSQ piles the burst onto the idle replica (1 vs 8 split is more
        // imbalanced in dispatch count but balanced in load).
        assert!(jsq.dispatch_imbalance() > rr.dispatch_imbalance());
        // ...and the burst's latency tail is no worse for it.
        assert!(jsq.serving.p99_ttft_s <= rr.serving.p99_ttft_s * 1.5);
    }

    #[test]
    fn more_replicas_cut_tail_latency_under_load() {
        // Offered load past a single replica's capacity: adding replicas
        // must shorten the span and the TTFT tail.
        let reqs = online_trace(32, 9, 20.0);
        let one = cluster(1, RoutingPolicy::JoinShortestQueue)
            .run(&reqs)
            .unwrap();
        let four = cluster(4, RoutingPolicy::JoinShortestQueue)
            .run(&reqs)
            .unwrap();
        assert!(four.serving.total_time_s < one.serving.total_time_s);
        assert!(four.serving.p99_ttft_s < one.serving.p99_ttft_s);
        assert!(four.serving.throughput_tps > one.serving.throughput_tps);
    }

    #[test]
    fn utilization_is_a_duty_cycle() {
        let reqs = online_trace(16, 13, 4.0);
        let report = cluster(2, RoutingPolicy::LeastLoadedKv).run(&reqs).unwrap();
        for r in &report.per_replica {
            assert!(r.utilization >= 0.0 && r.utilization <= 1.0, "{r:?}");
            assert!(r.busy_s <= report.serving.total_time_s + 1e-9);
        }
        assert!(report.mean_utilization() > 0.0);
    }

    #[test]
    fn seeded_cluster_runs_are_bit_identical() {
        // Determinism regression: same seed, same trace, same cluster →
        // the full report (every f64 included) must match exactly.
        let a_trace = online_trace(24, 17, 10.0);
        let b_trace = online_trace(24, 17, 10.0);
        assert_eq!(a_trace, b_trace);
        let a = cluster(4, RoutingPolicy::JoinShortestQueue)
            .run(&a_trace)
            .unwrap();
        let b = cluster(4, RoutingPolicy::JoinShortestQueue)
            .run(&b_trace)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(cluster(2, RoutingPolicy::RoundRobin).run(&[]).is_err());
    }

    #[test]
    fn empty_cluster_is_an_error() {
        let reqs = online_trace(4, 3, 10.0);
        let mut empty = Cluster::new(Vec::new(), RoutingPolicy::JoinShortestQueue);
        assert!(empty.is_empty());
        let err = empty.run(&reqs).unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m) if m.contains("replicas")),
            "{err}"
        );
    }

    #[test]
    fn empty_homogeneous_cluster_is_an_error() {
        let reqs = online_trace(4, 3, 10.0);
        let err = cluster(0, RoutingPolicy::RoundRobin)
            .run(&reqs)
            .unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m) if m.contains("replicas")),
            "{err}"
        );
    }

    #[test]
    fn bad_replica_setting_names_the_replica() {
        let reqs = online_trace(4, 3, 10.0);
        let engine = |max_batch| {
            crate::engine::ServingEngine::new(
                &Device::gaudi2(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::GaudiOpt,
                max_batch,
            )
        };
        let err = Cluster::new(vec![engine(8), engine(0)], RoutingPolicy::RoundRobin)
            .run(&reqs)
            .unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m)
                if m.contains("replica 1") && m.contains("max_decode_batch")),
            "{err}"
        );
    }

    #[test]
    fn invalid_requests_are_errors_naming_the_request() {
        let mut nan = Request::new(3, 128, 4);
        nan.arrival_s = f64::NAN;
        for bad in [nan, Request::new(5, 128, 0), Request::new(6, 0, 4)] {
            let reqs = [Request::new(1, 128, 4), bad];
            let err = cluster(2, RoutingPolicy::JoinShortestQueue)
                .run_resilient_traced(&reqs, &FaultPlan::none(), &ResilienceConfig::default())
                .unwrap_err();
            let want = format!("request {}", bad.id);
            assert!(
                matches!(&err, DcmError::InvalidConfig(m) if m.contains(&want)),
                "{err}"
            );
        }
    }

    #[test]
    fn duplicate_ids_are_an_error_naming_the_id() {
        // Round robin puts the two copies on different replicas, where
        // neither engine sees a clash: only the trace check can.
        let reqs = [Request::new(7, 128, 4), Request::new(7, 128, 4)];
        let err = cluster(2, RoutingPolicy::RoundRobin)
            .run(&reqs)
            .unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m) if m.contains("id 7")),
            "{err}"
        );
    }

    #[test]
    fn heterogeneous_replicas_are_supported() {
        // A Gaudi-2 and an A100 replica behind one router.
        let engines = vec![
            crate::engine::ServingEngine::new(
                &Device::gaudi2(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::GaudiOpt,
                8,
            ),
            crate::engine::ServingEngine::new(
                &Device::a100(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::A100Fused,
                8,
            ),
        ];
        let reqs = online_trace(12, 23, 6.0);
        let expected: usize = reqs.iter().map(|r| r.output_len).sum();
        let report = Cluster::new(engines, RoutingPolicy::JoinShortestQueue)
            .run(&reqs)
            .unwrap();
        assert_eq!(report.serving.total_output_tokens, expected);
    }

    // ---- fault injection & resilience ------------------------------------

    use crate::fault::{FaultPlan, ResilienceConfig, ShedPolicy};

    #[test]
    fn fault_free_plan_matches_run_bit_for_bit() {
        let reqs = online_trace(24, 17, 10.0);
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastLoadedKv,
        ] {
            let plain = cluster(3, policy).run(&reqs).unwrap();
            let resilient = cluster(3, policy)
                .run_resilient(&reqs, &FaultPlan::none(), &ResilienceConfig::default())
                .unwrap();
            assert_eq!(plain, resilient, "{policy:?}");
            assert_eq!(plain.serving.shed, 0);
            assert_eq!(plain.serving.failed, 0);
            assert_eq!(plain.serving.retries, 0);
            assert_eq!(plain.serving.offered(), 24);
        }
    }

    #[test]
    fn unit_slowdown_is_bit_identical() {
        // A slowdown window with factor 1.0 multiplies every step time by
        // exactly 1.0 (IEEE-exact) and its boundary advances are no-ops on
        // the step sequence, so the report must not move a single bit.
        let reqs = online_trace(20, 31, 8.0);
        let baseline = cluster(2, RoutingPolicy::JoinShortestQueue)
            .run(&reqs)
            .unwrap();
        let plan = FaultPlan::none().with_slowdown(0, 0.5, 2.0, 1.0);
        let slowed = cluster(2, RoutingPolicy::JoinShortestQueue)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .unwrap();
        assert_eq!(baseline, slowed);
    }

    #[test]
    fn slowdown_lengthens_the_run() {
        let reqs = online_trace(20, 31, 8.0);
        let baseline = cluster(2, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        let plan = FaultPlan::none().with_slowdown(0, 0.0, 1.0e6, 4.0);
        let slowed = cluster(2, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .unwrap();
        assert!(slowed.serving.total_time_s > baseline.serving.total_time_s);
        assert!(slowed.serving.throughput_tps < baseline.serving.throughput_tps);
        // Slowdowns lose no work.
        assert_eq!(slowed.serving.completed, 20);
        assert_eq!(slowed.serving.lost_tokens, 0);
    }

    #[test]
    fn crash_reroutes_displaced_work_to_survivors() {
        let reqs = online_trace(24, 7, 12.0);
        let expected: usize = reqs.iter().map(|r| r.output_len).sum();
        let plan = FaultPlan::none().with_crash(0, 1.0);
        let report = cluster(3, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .unwrap();
        // Every displaced request found a survivor within the retry budget.
        assert_eq!(report.serving.completed, 24);
        assert_eq!(report.serving.failed, 0);
        assert_eq!(report.serving.shed, 0);
        assert!(report.serving.retries > 0, "crash displaced no work");
        assert_eq!(report.per_replica[0].crashes, 1);
        // Tokens produced by the lost attempt are accounted, not resold:
        // net output is exactly the completed requests' token count.
        assert_eq!(
            report.serving.total_output_tokens - report.serving.lost_tokens,
            expected
        );
        // The dead replica received no post-crash dispatches.
        let post_crash: usize = report.per_replica[1].dispatched + report.per_replica[2].dispatched;
        assert_eq!(
            report.per_replica[0].dispatched + post_crash,
            24 + report.serving.retries
        );
    }

    #[test]
    fn seeded_fault_runs_are_bit_reproducible() {
        let trace_a = online_trace(24, 41, 10.0);
        let trace_b = online_trace(24, 41, 10.0);
        let plan_a = FaultPlan::random_crashes(3, 1, 3.0, 97).with_slowdown(1, 0.5, 1.5, 2.0);
        let plan_b = FaultPlan::random_crashes(3, 1, 3.0, 97).with_slowdown(1, 0.5, 1.5, 2.0);
        let cfg = ResilienceConfig {
            shed: ShedPolicy::queue_cap(12),
            ..ResilienceConfig::default()
        };
        let a = cluster(3, RoutingPolicy::JoinShortestQueue)
            .run_resilient(&trace_a, &plan_a, &cfg)
            .unwrap();
        let b = cluster(3, RoutingPolicy::JoinShortestQueue)
            .run_resilient(&trace_b, &plan_b, &cfg)
            .unwrap();
        assert_eq!(a, b);
        // Accounting balances exactly even with faults and shedding.
        assert_eq!(
            a.serving.completed + a.serving.shed + a.serving.failed,
            a.serving.offered()
        );
        assert_eq!(a.serving.offered(), 24);
    }

    #[test]
    fn zero_retry_budget_fails_displaced_requests() {
        let reqs = online_trace(24, 7, 12.0);
        let plan = FaultPlan::none().with_crash(0, 1.0);
        let cfg = ResilienceConfig {
            max_retries: 0,
            ..ResilienceConfig::default()
        };
        let report = cluster(3, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &plan, &cfg)
            .unwrap();
        assert!(report.serving.failed > 0, "crash displaced no work");
        assert_eq!(report.serving.retries, 0);
        assert_eq!(
            report.serving.completed + report.serving.failed,
            report.serving.offered()
        );
        assert_eq!(report.serving.offered(), 24);
    }

    #[test]
    fn crash_after_drain_changes_nothing_but_the_counter() {
        // A crash scheduled far past the horizon fires after all work has
        // completed: nothing to displace, so the serving report is
        // bit-identical and only the crash counter moves.
        let reqs = online_trace(16, 13, 6.0);
        let baseline = cluster(2, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        let plan = FaultPlan::none().with_crash(1, 1.0e9);
        let crashed = cluster(2, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .unwrap();
        assert_eq!(baseline.serving, crashed.serving);
        assert_eq!(crashed.per_replica[1].crashes, 1);
        assert_eq!(crashed.per_replica[0].crashes, 0);
    }

    #[test]
    fn recovery_restores_capacity() {
        // All arrivals land after the crash/recover window: a recovered
        // replica serves exactly as if it had never crashed, while an
        // unrecovered one forces everything onto the survivor.
        let reqs: Vec<crate::dataset::Request> = online_trace(16, 19, 8.0)
            .into_iter()
            .map(|r| {
                let t = r.arrival_s + 10.0;
                crate::dataset::Request { arrival_s: t, ..r }
            })
            .collect();
        let baseline = cluster(2, RoutingPolicy::RoundRobin).run(&reqs).unwrap();

        let recovered = cluster(2, RoutingPolicy::RoundRobin)
            .run_resilient(
                &reqs,
                &FaultPlan::none().with_recovering_crash(0, 1.0, 5.0),
                &ResilienceConfig::default(),
            )
            .unwrap();
        assert_eq!(baseline.serving, recovered.serving);
        assert_eq!(recovered.per_replica[0].crashes, 1);
        assert_eq!(recovered.per_replica[0].dispatched, 8);

        let unrecovered = cluster(2, RoutingPolicy::RoundRobin)
            .run_resilient(
                &reqs,
                &FaultPlan::none().with_crash(0, 1.0),
                &ResilienceConfig::default(),
            )
            .unwrap();
        assert_eq!(unrecovered.per_replica[0].dispatched, 0);
        assert_eq!(unrecovered.per_replica[1].dispatched, 16);
        assert_eq!(unrecovered.serving.completed, 16);
        assert_eq!(unrecovered.serving.failed, 0);
    }

    #[test]
    fn shedding_bounds_the_ttft_tail_under_overload() {
        // Offered load far past capacity: without admission control the
        // queue grows without bound and the TTFT tail explodes; a queue
        // cap trades completed requests for a bounded tail.
        let reqs = online_trace(48, 29, 60.0);
        let open = cluster(1, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        let cfg = ResilienceConfig {
            shed: ShedPolicy::queue_cap(6),
            ..ResilienceConfig::default()
        };
        let capped = cluster(1, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &FaultPlan::none(), &cfg)
            .unwrap();
        assert!(capped.serving.shed > 0, "overload shed nothing");
        assert_eq!(
            capped.serving.completed + capped.serving.shed,
            capped.serving.offered()
        );
        assert_eq!(capped.serving.offered(), 48);
        assert!(capped.serving.p99_ttft_s < open.serving.p99_ttft_s);
        assert!(capped.serving.slo_attainment <= 1.0);
    }

    #[test]
    fn total_outage_fails_all_arrivals() {
        // The only replica dies at t=0, before the first arrival is
        // dispatched: every request fails, and every report float stays
        // finite on the zero-span run.
        let reqs = SyntheticDataset::dynamic_sonnet(8, 3);
        let plan = FaultPlan::none().with_crash(0, 0.0);
        let report = cluster(1, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .unwrap();
        assert_eq!(report.serving.completed, 0);
        assert_eq!(report.serving.failed, 8);
        assert_eq!(report.serving.offered(), 8);
        assert_eq!(report.serving.total_time_s, 0.0);
        assert_eq!(report.serving.throughput_tps, 0.0);
        assert_eq!(report.serving.goodput_tps, 0.0);
        assert_eq!(report.serving.slo_attainment, 0.0);
        assert!(report.serving.mean_ttft_s.is_finite());
        assert!(report.per_replica[0].utilization.is_finite());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let reqs = SyntheticDataset::dynamic_sonnet(4, 3);
        // Replica index out of range for this cluster size.
        let plan = FaultPlan::none().with_crash(5, 1.0);
        assert!(cluster(2, RoutingPolicy::RoundRobin)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .is_err());
    }

    // ---- control-plane fabric --------------------------------------------

    #[test]
    fn bad_fabric_config_is_an_error_naming_the_field() {
        let reqs = online_trace(4, 3, 10.0);
        for (link_bps, latency_s, field) in [
            (0.0, 0.0, "link_bps"),
            (-1.0, 0.0, "link_bps"),
            (f64::NAN, 0.0, "link_bps"),
            (f64::INFINITY, 0.0, "link_bps"),
            (1e9, -1.0, "latency_s"),
            (1e9, f64::NAN, "latency_s"),
        ] {
            let cfg = FabricConfig {
                dispatch_bytes: 1024,
                link_bps,
                latency_s,
            };
            let err = cluster(2, RoutingPolicy::RoundRobin)
                .with_fabric(cfg)
                .run(&reqs)
                .unwrap_err();
            assert!(
                matches!(&err, DcmError::InvalidConfig(m) if m.contains(field)),
                "{cfg:?}: {err}"
            );
        }
    }

    #[test]
    fn zero_cost_fabric_matches_baseline_bit_for_bit() {
        // A fabric with zero-byte dispatches and zero latency delivers
        // every request at its arrival instant, before any same-time
        // arrival is routed — the report must not move a single bit. On
        // the all-zero trace every delivery shares its instant with the
        // next arrival: routed first, JSQ would find every replica empty
        // and send all 24 requests to replica 0.
        let zero = FabricConfig {
            dispatch_bytes: 0,
            link_bps: 1.0,
            latency_s: 0.0,
        };
        for reqs in [
            online_trace(24, 17, 10.0),
            SyntheticDataset::dynamic_sonnet(24, 17),
        ] {
            let baseline = cluster(3, RoutingPolicy::JoinShortestQueue)
                .run(&reqs)
                .unwrap();
            let fabriced = cluster(3, RoutingPolicy::JoinShortestQueue)
                .with_fabric(zero)
                .run(&reqs)
                .unwrap();
            assert_eq!(baseline, fabriced);
        }
    }

    #[test]
    fn zero_cost_fabric_matches_lazy_round_robin_bit_for_bit() {
        // Round-robin reads no replica state, so the lazy scheduler skips
        // every per-arrival catch-up; a zero-cost fabric instead forces an
        // eager `advance_live` at each delivery instant. Bit-identical
        // reports pin lazy ≡ eager (DESIGN.md §3.10) on the one policy
        // where the two schedules differ maximally.
        let reqs = online_trace(24, 29, 10.0);
        let lazy = cluster(3, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        let zero = FabricConfig {
            dispatch_bytes: 0,
            link_bps: 1.0,
            latency_s: 0.0,
        };
        let eager = cluster(3, RoutingPolicy::RoundRobin)
            .with_fabric(zero)
            .run(&reqs)
            .unwrap();
        assert_eq!(lazy, eager);
    }

    #[test]
    fn slow_fabric_shows_up_in_the_latency_tail() {
        // Dispatches crossing a slow shared egress link arrive late and
        // contend under bursts: TTFT grows, but no request is lost.
        let reqs = online_trace(24, 7, 12.0);
        let baseline = cluster(2, RoutingPolicy::RoundRobin).run(&reqs).unwrap();
        let slow = FabricConfig {
            dispatch_bytes: 1 << 20,
            link_bps: 4.0e6, // ~0.26 s per dispatch on the shared egress
            latency_s: 5.0e-3,
        };
        let fabriced = cluster(2, RoutingPolicy::RoundRobin)
            .with_fabric(slow)
            .run(&reqs)
            .unwrap();
        assert_eq!(fabriced.serving.completed, 24, "fabric lost requests");
        assert!(
            fabriced.serving.mean_ttft_s > baseline.serving.mean_ttft_s,
            "{} !> {}",
            fabriced.serving.mean_ttft_s,
            baseline.serving.mean_ttft_s
        );
        assert!(fabriced.serving.total_time_s >= baseline.serving.total_time_s);
    }

    #[test]
    fn fabric_runs_are_bit_identical() {
        let reqs = online_trace(24, 41, 10.0);
        let cfg = FabricConfig {
            dispatch_bytes: 64 << 10,
            link_bps: 1.0e9,
            latency_s: 1.0e-4,
        };
        let a = cluster(3, RoutingPolicy::LeastLoadedKv)
            .with_fabric(cfg)
            .run(&reqs)
            .unwrap();
        let b = cluster(3, RoutingPolicy::LeastLoadedKv)
            .with_fabric(cfg)
            .run(&reqs)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fabric_from_spec_uses_the_scale_out_rail() {
        let cfg = FabricConfig::from_spec(&dcm_core::DeviceSpec::gaudi2());
        // 37.5 GB/s rail at 85% efficiency.
        assert!((cfg.link_bps - 37.5e9 * 0.85).abs() < 1e3);
        assert!(cfg.latency_s > 0.0);
        let reqs = online_trace(12, 23, 6.0);
        let report = cluster(2, RoutingPolicy::JoinShortestQueue)
            .with_fabric(cfg)
            .run(&reqs)
            .unwrap();
        assert_eq!(report.serving.completed, 12);
    }

    #[test]
    fn in_flight_dispatch_to_crashed_replica_is_rerouted() {
        // A fat dispatch takes ~1 s to deliver; replica 0 dies while it
        // is in flight. The delivery must re-route to the survivor and
        // the accounting must still balance.
        let reqs = vec![
            crate::dataset::Request {
                arrival_s: 0.0,
                ..crate::dataset::Request::new(0, 128, 16)
            },
            crate::dataset::Request {
                arrival_s: 0.1,
                ..crate::dataset::Request::new(1, 128, 16)
            },
        ];
        let slow = FabricConfig {
            dispatch_bytes: 1 << 20,
            link_bps: 1.0e6,
            latency_s: 0.0,
        };
        let plan = FaultPlan::none().with_crash(0, 0.5);
        let report = cluster(2, RoutingPolicy::RoundRobin)
            .with_fabric(slow)
            .run_resilient(&reqs, &plan, &ResilienceConfig::default())
            .unwrap();
        assert_eq!(
            report.serving.completed + report.serving.shed + report.serving.failed,
            report.serving.offered()
        );
        assert_eq!(report.serving.offered(), 2);
        assert_eq!(report.serving.completed, 2, "displaced dispatch was lost");
        assert!(report.serving.retries > 0, "no re-route happened");
        assert_eq!(report.per_replica[0].crashes, 1);
    }

    /// An all-zero serving report for degenerate-input tests.
    fn zero_serving() -> ServingReport {
        ServingReport {
            completed: 0,
            total_output_tokens: 0,
            total_time_s: 0.0,
            throughput_tps: 0.0,
            mean_ttft_s: 0.0,
            mean_tpot_s: 0.0,
            p50_ttft_s: 0.0,
            p95_ttft_s: 0.0,
            p99_ttft_s: 0.0,
            p50_tpot_s: 0.0,
            p95_tpot_s: 0.0,
            p99_tpot_s: 0.0,
            mean_queue_delay_s: 0.0,
            p99_queue_delay_s: 0.0,
            peak_batch: 0,
            preemptions: 0,
            shed: 0,
            failed: 0,
            retries: 0,
            lost_tokens: 0,
            goodput_tps: 0.0,
            slo_attainment: 1.0,
        }
    }

    #[test]
    fn degenerate_reports_never_divide_by_zero() {
        // A constructed report with no replicas: the Cluster never
        // produces one (a run rejects an empty cluster), but the
        // aggregation helpers are documented to return 0.0, not NaN.
        let empty = ClusterReport {
            serving: zero_serving(),
            per_replica: vec![],
            replica_devices: vec![],
            policy: RoutingPolicy::RoundRobin,
        };
        assert_eq!(empty.mean_utilization(), 0.0);
        assert_eq!(empty.dispatch_imbalance(), 0.0);
        assert!(!empty.mean_utilization().is_nan());

        // One replica that dispatched nothing: max == 0 takes the
        // balanced branch, not 0/0.
        let idle = ClusterReport {
            serving: zero_serving(),
            per_replica: vec![ReplicaStats {
                dispatched: 0,
                completed: 0,
                output_tokens: 0,
                busy_s: 0.0,
                utilization: 0.0,
                preemptions: 0,
                crashes: 0,
            }],
            replica_devices: vec!["Gaudi-2".to_owned()],
            policy: RoutingPolicy::JoinShortestQueue,
        };
        assert_eq!(idle.mean_utilization(), 0.0);
        assert_eq!(idle.dispatch_imbalance(), 0.0);
    }

    #[test]
    fn single_replica_run_is_trivially_balanced() {
        // A real single-replica run: imbalance is 0 by definition (max
        // and min are the same replica) and mean utilization equals that
        // replica's duty cycle exactly.
        let reqs = online_trace(8, 3, 6.0);
        let report = cluster(1, RoutingPolicy::JoinShortestQueue)
            .run(&reqs)
            .unwrap();
        assert_eq!(report.dispatch_imbalance(), 0.0);
        assert_eq!(
            report.mean_utilization().to_bits(),
            report.per_replica[0].utilization.to_bits()
        );
        assert_eq!(report.replica_devices, ["Gaudi-2"]);
    }

    #[test]
    fn report_labels_the_device_mix() {
        let reqs = online_trace(8, 5, 6.0);
        let engines = vec![
            crate::engine::ServingEngine::new(
                &Device::gaudi2(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::GaudiOpt,
                4,
            ),
            crate::engine::ServingEngine::new(
                &Device::a100(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::A100Fused,
                4,
            ),
        ];
        let report = Cluster::new(engines, RoutingPolicy::WeightedJsq)
            .run(&reqs)
            .unwrap();
        assert_eq!(report.replica_devices, ["Gaudi-2", "A100"]);
        assert_eq!(report.policy.name(), "wjsq");
    }
}
