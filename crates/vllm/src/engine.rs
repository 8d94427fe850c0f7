//! Continuous-batching serving engine (Figure 17(d,e)) with online
//! arrival support.
//!
//! An iteration-level scheduler in the ORCA/vLLM style [80, 42]: each
//! iteration either admits a waiting request (running its prefill) or
//! executes one decode step for every active sequence. The decode-stage
//! batch size is capped by `max_decode_batch` — the knob the paper sweeps
//! — and by KV-cache block availability.
//!
//! The paper's experiment is offline (every request queued at `t = 0`);
//! that remains the behaviour of [`ServingEngine::run`] on a trace whose
//! `arrival_s` are all zero. Requests with later arrival times are held
//! back until the simulated clock reaches them: admission only considers
//! arrived requests, and an idle engine fast-forwards to the next arrival.
//!
//! Between two changes of the batch (an admission, a completion, a
//! preemption, an admissible arrival or the caller's horizon) every
//! decode step's shape follows from the batch at the stretch start, so
//! the scheduler advances such a *stretch* in one pass: it prices each
//! step from a projection of the batch, recomputing only what the step
//! moved, adds the steps to the clock in order, and updates each
//! sequence once at the end. The projection is kept current across
//! stretches, one mutation per batch change, so a stretch starts
//! without re-reading the batch. Only the step in which an append fails
//! and preempts runs token by token.
//!
//! Each sequence is one record (`Seq`), held by the ready queue until
//! admitted and then by the batch, a `Vec` in ascending id order.
//!
//! This module owns one replica's scheduler, a steppable simulation
//! (`SimState`); `cluster` owns the one event loop that drives it.
//! [`ServingEngine::run`] is a one-replica round-robin cluster run with
//! no fabric and no faults, so it reports exactly what
//! [`Cluster::run`](crate::cluster::Cluster::run) reports for the same
//! engine alone. Fast-forward, histogram metrics, SLOs and tracing are
//! set on the [`Cluster`](crate::cluster::Cluster).
//!
//! The simulation is built on the deterministic discrete-event core:
//! arrivals live in a [`dcm_core::sim::EventQueue`] (total pop order on
//! `(time, priority, seq)`) and the clock is a monotone
//! [`dcm_core::sim::SimClock`], so a given trace replays bit-identically
//! — pinned by `tests/tests/golden_serving.rs` against the pre-refactor
//! loops. A traced run records structured spans (request lifecycle,
//! prefill/decode steps, preemptions) into a
//! [`Trace`](dcm_core::trace::Trace).
//!
//! Reported metrics follow the paper — end-to-end serving throughput
//! (output tokens per second), mean TTFT (arrival to first token) and mean
//! TPOT (per-token decode latency) — extended with exact p50/p95/p99 tail
//! percentiles and queueing delay for the online experiments.

use crate::attention::{
    BatchGrowth, BatchShape, GemmTerms, PagedAttention, PagedBackend, StretchPricer,
    DEFAULT_BLOCK_TOKENS,
};
use crate::cluster::{self, RoutingPolicy, RunSettings};
use crate::dataset::Request;
use crate::fault::{FaultPlan, ResilienceConfig, SloSpec};
use crate::kv_cache::KvPool;
use dcm_compiler::{CompileOptions, Device, Graph};
use dcm_core::cast::{f64_to_u64, u64_to_f64, usize_to_f64};
use dcm_core::error::{DcmError, Result};
use dcm_core::metrics::LatencyRecorder;
use dcm_core::sim::{EventQueue, SimClock};
use dcm_core::trace::{SpanKind, TraceRecorder};
use dcm_core::DType;
use dcm_workloads::llama::LlamaConfig;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

/// Fraction of HBM reserved for weights and activations before sizing the
/// KV cache.
const ACTIVATION_HEADROOM: f64 = 0.08;

/// Shortest decode stretch fast-forward integrates in closed form: a
/// trapezoid over one step costs two full attention prices, where an
/// exact step's price is a GEMM-table read and the wall formula.
/// Shorter stretches, and stretches whose closed form would cross the
/// horizon, run as exact steps.
const MIN_FF_STEPS: usize = 2;

/// Aggregate metrics of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Completed requests.
    pub completed: usize,
    /// Output tokens produced.
    pub total_output_tokens: usize,
    /// Wall time of the run in seconds.
    pub total_time_s: f64,
    /// Output tokens per second — Figure 17(d).
    pub throughput_tps: f64,
    /// Mean time-to-first-token (arrival to first token) in seconds —
    /// Figure 17(e).
    pub mean_ttft_s: f64,
    /// Mean time-per-output-token in seconds — Figure 17(e).
    pub mean_tpot_s: f64,
    /// Median TTFT in seconds.
    pub p50_ttft_s: f64,
    /// 95th-percentile TTFT in seconds.
    pub p95_ttft_s: f64,
    /// 99th-percentile TTFT in seconds — the online tail-latency metric.
    pub p99_ttft_s: f64,
    /// Median TPOT in seconds.
    pub p50_tpot_s: f64,
    /// 95th-percentile TPOT in seconds.
    pub p95_tpot_s: f64,
    /// 99th-percentile TPOT in seconds.
    pub p99_tpot_s: f64,
    /// Mean time a request waits between arrival and the start of its
    /// prefill (zero when the engine keeps up with offered load).
    pub mean_queue_delay_s: f64,
    /// 99th-percentile queueing delay in seconds.
    pub p99_queue_delay_s: f64,
    /// Peak concurrent decode batch observed.
    pub peak_batch: usize,
    /// Sequences preempted (KV blocks reclaimed, progress recomputed
    /// later) — vLLM's recompute-mode preemption.
    pub preemptions: usize,
    /// Arrivals rejected by admission control (load shedding). Always 0
    /// for a single engine; the cluster's [`ShedPolicy`] fills it in.
    ///
    /// [`ShedPolicy`]: crate::fault::ShedPolicy
    pub shed: usize,
    /// Requests abandoned after replica crashes exhausted their retry
    /// budget. Always 0 for a single engine.
    pub failed: usize,
    /// Crash-displaced re-dispatches onto surviving replicas. Always 0
    /// for a single engine.
    pub retries: usize,
    /// Output tokens produced and then lost to replica crashes — work the
    /// retries had to redo. `total_output_tokens - lost_tokens` is exactly
    /// the token count of completed requests.
    pub lost_tokens: usize,
    /// Output tokens from completed requests that met the SLO, per second
    /// of run span — the goodput the resilience experiments optimize.
    pub goodput_tps: f64,
    /// Completed-within-SLO requests as a fraction of offered requests
    /// (`completed + shed + failed`).
    pub slo_attainment: f64,
}

impl ServingReport {
    /// Requests offered to the system: completed plus shed plus failed.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.completed + self.shed + self.failed
    }
}

/// One sequence's serving state: queued in `ready` (fresh while `produced
/// == 0`, resumed after a preemption otherwise, its generated tokens to be
/// recomputed at re-admission, vLLM's recompute mode), then held in the
/// batch.
struct Seq {
    request: Request,
    /// Output tokens produced so far; kept across a preemption.
    produced: usize,
    /// When the first output token was emitted (the TTFT anchor); set at
    /// the first admission.
    first_token_t: f64,
    /// KV tokens held in the batch, `⌈kv_tokens/B⌉` blocks; set at
    /// admission.
    kv_tokens: usize,
}

impl Seq {
    fn fresh(request: Request) -> Self {
        Seq {
            request,
            produced: 0,
            first_token_t: 0.0,
            kv_tokens: 0,
        }
    }

    /// Output tokens still to produce.
    fn remaining(&self) -> usize {
        self.request.output_len - self.produced
    }

    /// Tokens that must be in the KV cache at admission.
    fn admit_tokens(&self) -> usize {
        self.request.input_len + self.produced
    }
}

/// The mutable state of one serving run: queues, KV blocks, clock and
/// metric recorders. Separated from [`ServingEngine`] (the immutable
/// device/model configuration) so the `cluster` router can hold many of
/// these and advance them on a shared clock.
pub(crate) struct SimState {
    /// The replica's KV blocks, counted. A sequence in the batch holds
    /// `⌈t/B⌉` of them for its `t` KV tokens whenever the scheduler reads
    /// the pool (DESIGN.md §3.6), so its `kv_tokens` is the only
    /// per-sequence KV count.
    kv: KvPool,
    /// The batch's KV token counts as a projection. `after(0)` prices the
    /// preemption step in O(1), and every step of a stretch is priced
    /// from it. Kept up to date across stretches: one insert at
    /// admission, one remove at completion and preemption, one move per
    /// sequence in the preemption step and one grow-all when a stretch
    /// settles.
    growth: BatchGrowth,
    /// The decode stretch a horizon cut short, while the batch stays the
    /// same. The batch and `growth` still hold the counts of its start;
    /// the pool and the output count are charged for every step it ran.
    stretch: Option<OpenStretch>,
    /// Requests whose arrival time the clock has not reached. The event
    /// queue's `(time, priority, seq)` total order makes simultaneous
    /// arrivals pop in enqueue order — the same behaviour the pre-refactor
    /// sorted `VecDeque` had, without requiring callers to pre-sort.
    arrivals: EventQueue<Request>,
    /// Arrived requests awaiting admission; preempted sequences re-enter
    /// at the front (they already hold a place in the service order).
    ready: VecDeque<Seq>,
    /// The admitted sequences in ascending id order: the decode order,
    /// with the youngest (highest-id) preemption victim last. Pre-sized
    /// to `max_decode_batch`, so its inserts and removes never allocate.
    batch: Vec<Seq>,
    clock: SimClock,
    /// Time spent executing prefill or decode steps (for utilization).
    pub(crate) busy_s: f64,
    /// Step-time multiplier (1.0 = nominal); the cluster layer raises it
    /// inside a [`FaultEvent::Slowdown`](crate::fault::FaultEvent) window.
    time_scale: f64,
    /// Whether decode stretches advance in closed form rather than by
    /// exact steps (see
    /// [`Cluster::with_fast_forward`](crate::cluster::Cluster::with_fast_forward)).
    fast_forward: bool,
    pub(crate) ttft: LatencyRecorder,
    pub(crate) tpot: LatencyRecorder,
    pub(crate) queue_delay: LatencyRecorder,
    /// The run's SLO, judged once per request at completion. TTFT is
    /// client-perceived: measured from the request's original arrival,
    /// through any crashed attempts.
    slo: SloSpec,
    /// Completed requests that met `slo` — SLO attainment.
    pub(crate) slo_met_requests: usize,
    /// Output tokens of the requests that met `slo` — goodput.
    pub(crate) slo_met_tokens: usize,
    /// Span recorder — [`TraceRecorder::disabled`] (free) unless the run
    /// was started through a traced entry point. Purely observational:
    /// recording must never influence scheduling or the report.
    pub(crate) trace: TraceRecorder,
    total_output: usize,
    completed: usize,
    peak_batch: usize,
    preemptions: usize,
}

/// A decode stretch in progress: what a catch-up that cuts it short
/// keeps, so the next one resumes it instead of starting over (DESIGN.md
/// §3.8).
struct OpenStretch {
    /// Steps to the batch's next change (caps 1 and 2), counted from the
    /// stretch start.
    n: usize,
    /// The non-attention price of a step at this batch size.
    nonattn: f64,
    /// The attention prices; its [`steps`](StretchPricer::steps) are the
    /// steps run so far.
    prices: StretchPricer,
}

/// The per-step costs a closed-form stretch's time is integrated from:
/// the batch-shaped non-attention time, the first step's attention time
/// and the slowdown multiplier. Fixed over a stretch.
#[derive(Debug, Clone, Copy)]
struct StepCost {
    nonattn: f64,
    attn_start: f64,
    scale: f64,
}

/// Arrivals are the only event class in an engine's own queue, so this
/// priority orders them against nothing; the cluster's merged timeline
/// numbers its queued classes separately (fault edges 0–3, fabric wakes
/// 4) and reads arrivals from the trace (see `cluster`).
const PRIO_ARRIVAL: u32 = 4;

/// Check a trace before a run serves it: non-empty, every arrival finite
/// and non-negative, every request with a prompt and generating at least
/// one token, and no id used twice.
///
/// # Errors
/// Returns [`DcmError::InvalidConfig`] naming the first offending request,
/// or the duplicated id.
pub(crate) fn validate_trace(requests: &[Request]) -> Result<()> {
    if requests.is_empty() {
        return Err(DcmError::InvalidConfig("empty request trace".to_owned()));
    }
    for r in requests {
        if !(r.arrival_s.is_finite() && r.arrival_s >= 0.0) {
            return Err(DcmError::InvalidConfig(format!(
                "request {}: arrival time must be finite and non-negative, got {}",
                r.id, r.arrival_s
            )));
        }
        if r.input_len == 0 {
            return Err(DcmError::InvalidConfig(format!(
                "request {}: input_len must be at least 1",
                r.id
            )));
        }
        if r.output_len == 0 {
            return Err(DcmError::InvalidConfig(format!(
                "request {}: output_len must be at least 1",
                r.id
            )));
        }
    }
    // Generated traces number requests 0, 1, 2, ...: one O(n) pass proves
    // them unique, and only other traces pay for a sort.
    if requests.windows(2).all(|w| w[0].id < w[1].id) {
        return Ok(());
    }
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    match ids.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(DcmError::InvalidConfig(format!(
            "request id {} appears more than once",
            w[0]
        ))),
        None => Ok(()),
    }
}

impl SimState {
    /// Hand the simulation a future (or immediate) arrival. Any enqueue
    /// order is fine: the event queue pops arrivals by
    /// `(time, enqueue order)`.
    pub(crate) fn enqueue(&mut self, request: Request) {
        self.arrivals.push(request.arrival_s, PRIO_ARRIVAL, request);
    }

    /// Place an admitted sequence in the batch, in id order; the caller
    /// has taken its blocks and entered it in the projection.
    fn batch_insert(&mut self, seq: Seq) {
        let id = seq.request.id;
        let pos = self.batch.partition_point(|s| s.request.id < id);
        assert!(
            self.batch.get(pos).is_none_or(|s| s.request.id != id),
            "duplicate active id {id}"
        );
        // dcm-lint: allow(A1) the batch is pre-sized to max_decode_batch, which admission never exceeds
        self.batch.insert(pos, seq);
    }

    /// Take batch entry `i` out, giving its blocks back to the pool and
    /// removing it from the projection.
    fn batch_remove(&mut self, i: usize) -> Seq {
        let seq = self.batch.remove(i);
        self.growth.remove(seq.kv_tokens);
        self.kv.give(self.kv.blocks_for(seq.kv_tokens));
        seq
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Requests in the system (queued or in service) — the
    /// join-shortest-queue routing signal.
    pub(crate) fn queue_depth(&self) -> usize {
        self.arrivals.len() + self.ready.len() + self.batch.len()
    }

    /// Fraction of KV blocks in use — the least-loaded-KV routing signal.
    pub(crate) fn kv_used_fraction(&self) -> f64 {
        self.kv.used_fraction()
    }

    /// Whether all enqueued work has completed.
    pub(crate) fn is_drained(&self) -> bool {
        self.arrivals.is_empty() && self.ready.is_empty() && self.batch.is_empty()
    }

    pub(crate) fn completed(&self) -> usize {
        self.completed
    }

    pub(crate) fn total_output_tokens(&self) -> usize {
        self.total_output
    }

    pub(crate) fn peak_batch(&self) -> usize {
        self.peak_batch
    }

    pub(crate) fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Set the step-time multiplier (1.0 = nominal speed, larger =
    /// slower). The cluster layer flips this at slowdown-window edges.
    pub(crate) fn set_time_scale(&mut self, scale: f64) {
        debug_assert!(scale.is_finite() && scale >= 1.0, "bad time scale {scale}");
        self.time_scale = scale;
    }

    /// Crash harvest: remove every request this replica has not finished
    /// — pending, ready (including preemption holders) and active —
    /// releasing their KV blocks. Returns the requests sorted by
    /// (arrival, id), ready for deterministic re-dispatch, plus the
    /// output tokens that had already been produced for them and are now
    /// lost (the retries must regenerate them).
    ///
    /// Completed requests and their metrics are untouched: they were
    /// delivered before the crash. TTFT/queue-delay samples already
    /// recorded for an *unfinished* request stay in the recorders — the
    /// latency distributions are per-attempt — while the SLO counts
    /// (attainment, goodput) only ever see the attempt that completes.
    pub(crate) fn drain_unfinished(&mut self) -> (Vec<Request>, usize) {
        self.settle_stretch();
        let mut lost = 0usize;
        let mut out: Vec<Request> = self
            .arrivals
            .drain_ordered()
            .into_iter()
            .map(|e| e.payload)
            .collect();
        for seq in std::mem::take(&mut self.ready) {
            lost += seq.produced;
            out.push(seq.request);
        }
        for seq in self.batch.drain(..) {
            lost += seq.produced;
            self.kv.give(self.kv.blocks_for(seq.kv_tokens));
            out.push(seq.request);
        }
        self.growth.clear(); // the batch is gone wholesale

        out.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then_with(|| a.id.cmp(&b.id))
        });
        (out, lost)
    }

    /// Complete `seq`, which has just produced its last token at the
    /// current clock: record its TPOT sample, judge it against the SLO,
    /// count it and emit its `Request` span. Single-token admissions and
    /// decode retirements both end here. A single-token request has no
    /// decode interval, so it records no TPOT sample (a 0.0 would drag
    /// the TPOT distribution toward zero) and meets any TPOT bound.
    fn complete(&mut self, seq: &Seq) {
        let now = self.clock.now();
        let r = &seq.request;
        let tpot =
            (seq.produced > 1).then(|| (now - seq.first_token_t) / usize_to_f64(seq.produced - 1));
        if let Some(tpot) = tpot {
            self.tpot.record(tpot);
        }
        let ttft_s = seq.first_token_t - r.arrival_s;
        if self.slo.met(ttft_s, tpot) {
            self.slo_met_requests += 1;
            self.slo_met_tokens += seq.produced;
        }
        self.completed += 1;
        self.trace.span(
            SpanKind::Request,
            "request",
            r.arrival_s,
            now - r.arrival_s,
            Some(r.id),
            &[
                ("output_tokens", usize_to_f64(seq.produced)),
                ("ttft_s", ttft_s),
            ],
        );
    }

    /// Charge steps `from..to` of a stretch over `batch` sequences: the
    /// tokens they output and the blocks they fill. The pool lends exactly
    /// the blocks the batch holds, so after step `to` it lends
    /// `growth.blocks_after(to)`; cap 2 made room for them.
    fn charge_steps(&mut self, batch: usize, from: usize, to: usize) {
        self.peak_batch = self.peak_batch.max(batch);
        self.total_output += (to - from) * batch;
        self.kv.take(self.growth.blocks_after(to) - self.kv.used());
    }

    /// Apply the `k` steps a stretch ran to the projection (one grow-all)
    /// and to every sequence (once each), and complete the sequences that
    /// have produced their last token, in ascending-id order: the order
    /// stepping completes them in.
    fn settle(&mut self, k: usize) {
        self.growth.grow_all(k);
        let mut i = 0;
        while let Some(seq) = self.batch.get_mut(i) {
            seq.kv_tokens += k;
            seq.produced += k;
            if seq.remaining() == 0 {
                let seq = self.batch_remove(i);
                self.complete(&seq);
            } else {
                i += 1;
            }
        }
    }

    /// Settle the open stretch, if any, before the batch changes: no
    /// sequence completes, since a cut stretch is short of its cap 1.
    fn settle_stretch(&mut self) {
        if let Some(open) = self.stretch.take() {
            self.settle(open.prices.steps());
        }
    }

    fn promote_arrivals(&mut self) {
        let now = self.clock.now();
        while let Some(e) = self.arrivals.pop_due(now) {
            self.ready.push_back(Seq::fresh(e.payload));
        }
    }
}

/// The (device, model, tp) families engines have registered, process-wide:
/// a family's handle is its index, so it is valid on every thread. Engines
/// of one family compile the same step graphs and price the same GEMM
/// shapes, so they share one [`FamilyTables`] per thread. Families match
/// exactly: [`Device::exact_eq`] (same backend and name, spec floats equal
/// by bit pattern), `LlamaConfig ==` and the same `tp`. The lock is taken
/// once per engine built, never while pricing; a poisoned lock is
/// recovered as is, since its one update is a push.
static FAMILIES: Mutex<Vec<(Device, LlamaConfig, usize)>> = Mutex::new(Vec::new());

/// The handle of the (device, model, tp) family, registering it on first
/// sight.
fn resolve_family(device: &Device, model: &LlamaConfig, tp: usize) -> usize {
    let mut families = FAMILIES.lock().unwrap_or_else(PoisonError::into_inner);
    let known = families
        .iter()
        .position(|(d, m, t)| *t == tp && m == model && d.exact_eq(device));
    known.unwrap_or_else(|| {
        families.push((device.clone(), model.clone(), tp));
        families.len() - 1
    })
}

/// One family's step prices on one thread (see [`THREAD_TABLES`]).
#[derive(Debug, Default)]
struct FamilyTables {
    /// Batch-1 prefill time by prompt length.
    prefill: BTreeMap<usize, f64>,
    /// Non-attention decode-step time by batch size; NaN until first read.
    nonattn: Vec<f64>,
    /// Step graphs compiled into `prefill` and `nonattn`.
    compiles: u64,
    /// GEMM terms, one table per backend (see [`Self::gemm_terms`]).
    gemm_terms: [GemmTerms; 4],
}

impl FamilyTables {
    /// The GEMM-term table of `backend`. The backend is part of the
    /// choice: GaudiOpt memoizes the pair's time, GaudiFusedHypothetical
    /// on the same family its arithmetic time.
    fn gemm_terms(&mut self, backend: PagedBackend) -> &mut GemmTerms {
        let slot = match backend {
            PagedBackend::GaudiBase => 0,
            PagedBackend::GaudiOpt => 1,
            PagedBackend::A100Fused => 2,
            PagedBackend::GaudiFusedHypothetical => 3,
        };
        &mut self.gemm_terms[slot]
    }
}

thread_local! {
    /// The per-thread step tables, indexed by family handle: every
    /// replica and every engine of a family on this thread reads its
    /// prefill, non-attention and attention prices here, lock-free.
    ///
    /// * **Key and value.** `prefill` maps a prompt length and `nonattn`
    ///   a batch size to `device.run_graph(&graph,
    ///   &CompileOptions::default()).time_s()` of that step graph; a
    ///   backend's [`GemmTerms`] map the (GEMM batch, GEMM length) it
    ///   passes to `Op::batched_gemm` to the one number its attention
    ///   time takes from that pair. Each is a pure function of family,
    ///   backend and key, so which thread priced a value, and what ran on
    ///   it before, cannot move a report bit.
    /// * **Per thread.** Not per engine, whose replicas would each fill a
    ///   copy; not behind a lock, which a decode step would take every
    ///   time (DESIGN.md §3.6). A miss compiles on the thread that reads
    ///   it, so a `DCM_THREADS` sweep compiles a key once per worker.
    /// * **Growth.** One prefill entry per distinct length, one
    ///   non-attention cell per batch size, and GEMM-term pages of 128
    ///   cells on first touch, bounded by what the thread prices. Nothing
    ///   is evicted and there is no size knob: the tables live as long as
    ///   the thread.
    static THREAD_TABLES: RefCell<Vec<FamilyTables>> = const { RefCell::new(Vec::new()) };
}

/// `f` on this thread's tables for `family`.
fn with_family_tables<R>(family: usize, f: impl FnOnce(&mut FamilyTables) -> R) -> R {
    THREAD_TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        if family >= tables.len() {
            tables.resize_with(family + 1, FamilyTables::default);
        }
        f(&mut tables[family])
    })
}

/// The calling thread's step-table counts, over every family and backend.
/// They depend on what ran earlier on the thread, so they are not part of
/// any report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepTableStats {
    /// Prefill and non-attention step times held.
    pub steps: usize,
    /// Step graphs compiled.
    pub compiles: u64,
    /// GEMM terms priced and held.
    pub cells: usize,
    /// Reads that priced a GEMM pair.
    pub misses: u64,
}

/// Read the calling thread's step-table counts.
#[must_use]
pub fn step_table_stats() -> StepTableStats {
    THREAD_TABLES.with(|tables| {
        let tables = tables.borrow();
        let terms = tables.iter().flat_map(|t| &t.gemm_terms);
        StepTableStats {
            steps: tables
                .iter()
                .map(|t| t.prefill.len() + t.nonattn.iter().filter(|x| !x.is_nan()).count())
                .sum(),
            compiles: tables.iter().map(|t| t.compiles).sum(),
            cells: terms.clone().map(GemmTerms::cells).sum(),
            misses: terms.map(GemmTerms::misses).sum(),
        }
    })
}

/// Continuous-batching LLM serving engine over one device group.
///
/// Prefill, non-attention and attention step prices come from per-thread
/// tables shared by every engine of the same device, model and `tp`, so a
/// thread compiles each step graph and prices each GEMM shape once.
#[derive(Debug)]
pub struct ServingEngine {
    device: Device,
    model: LlamaConfig,
    tp: usize,
    /// Handle of this engine's (device, model, tp) family (see
    /// [`FAMILIES`]).
    family: usize,
    attention: PagedAttention,
    max_decode_batch: usize,
    kv_blocks_override: Option<usize>,
}

impl ServingEngine {
    /// Create an engine for `model` on `device` with `tp`-way tensor
    /// parallelism and the given PagedAttention backend. A zero
    /// `max_decode_batch`, and a `tp` that is zero or does not divide the
    /// query heads, are rejected when a run starts.
    #[must_use]
    pub fn new(
        device: &Device,
        model: LlamaConfig,
        tp: usize,
        backend: PagedBackend,
        max_decode_batch: usize,
    ) -> Self {
        let attention = PagedAttention::new(device, backend, &model, tp);
        let family = resolve_family(device, &model, tp);
        ServingEngine {
            device: device.clone(),
            model,
            tp,
            family,
            attention,
            max_decode_batch,
            kv_blocks_override: None,
        }
    }

    /// Cap the KV cache at `blocks` blocks regardless of HBM capacity —
    /// for studying preemption behaviour under memory pressure. Zero
    /// blocks are rejected when a run starts.
    #[must_use]
    pub fn with_kv_blocks(mut self, blocks: usize) -> Self {
        self.kv_blocks_override = Some(blocks);
        self
    }

    /// Name of the device this engine serves on (e.g. `"Gaudi-2"`) — the
    /// per-replica device label in heterogeneous-cluster reports.
    #[must_use]
    pub fn device_name(&self) -> &str {
        self.device.name()
    }

    /// Relative capacity weight for device-aware routing: the device's
    /// peak BF16 matrix throughput. A weighted-JSQ router divides queue
    /// depth by this, so a faster replica absorbs proportionally more
    /// arrivals.
    pub(crate) fn speed_weight(&self) -> f64 {
        self.device.matrix_peak_flops(DType::Bf16)
    }

    /// The time of a batch-1 prefill of `length` tokens, from this
    /// thread's tables for the engine's family; a miss compiles.
    fn prefill_time(&self, length: usize) -> f64 {
        with_family_tables(self.family, |tables| {
            if let Some(&t) = tables.prefill.get(&length) {
                return t;
            }
            let t = self.compile(&self.model.prefill_graph(1, length, self.tp));
            tables.compiles += 1;
            tables.prefill.insert(length, t);
            t
        })
    }

    /// The non-attention time of a decode step at `batch`, from this
    /// thread's tables for the engine's family; a miss compiles.
    fn nonattn_step_time(&self, batch: usize) -> f64 {
        with_family_tables(self.family, |tables| {
            if let Some(&t) = tables.nonattn.get(batch).filter(|t| !t.is_nan()) {
                return t;
            }
            let t = self.compile(&self.model.decode_nonattn_graph(batch, self.tp));
            tables.compiles += 1;
            if batch >= tables.nonattn.len() {
                tables.nonattn.resize(batch + 1, f64::NAN);
            }
            tables.nonattn[batch] = t;
            t
        })
    }

    /// The time of one step graph on this engine's device.
    fn compile(&self, graph: &Graph) -> f64 {
        self.device
            .run_graph(graph, &CompileOptions::default())
            .time_s()
    }

    /// `price` on this engine's attention model and this thread's GEMM
    /// terms for the engine's family and backend.
    fn with_gemm_terms<R>(&self, price: impl FnOnce(&PagedAttention, &mut GemmTerms) -> R) -> R {
        let backend = self.attention.backend();
        with_family_tables(self.family, |tables| {
            price(&self.attention, tables.gemm_terms(backend))
        })
    }

    /// Start a fresh simulation of this engine as replica `replica` under
    /// the run's `settings` (fast-forward, metrics mode), judging
    /// completions against `slo`: size the KV cache and reset all state.
    /// `expected_requests` pre-sizes the arrival queue (large sweeps
    /// enqueue the whole trace up front; repeated growth there is pure
    /// waste), and the batch and its projection are pre-sized to
    /// `max_decode_batch` so steady-state serving never reallocates.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] naming `replica` and the field
    /// if `max_decode_batch` or the KV block cap is zero or `tp` is zero
    /// or does not divide the query heads, and
    /// [`DcmError::ResourceExhausted`] if the KV cache cannot hold a
    /// single block.
    pub(crate) fn make_sim(
        &self,
        replica: usize,
        expected_requests: usize,
        settings: &RunSettings,
        slo: SloSpec,
    ) -> Result<SimState> {
        if self.max_decode_batch == 0 {
            return Err(DcmError::InvalidConfig(format!(
                "replica {replica}: max_decode_batch must be at least 1"
            )));
        }
        if self.kv_blocks_override == Some(0) {
            return Err(DcmError::InvalidConfig(format!(
                "replica {replica}: kv_blocks must be at least 1"
            )));
        }
        // Before the KV sizing below, which divides by `tp`.
        if self.tp == 0 || !self.model.q_heads.is_multiple_of(self.tp) {
            return Err(DcmError::InvalidConfig(format!(
                "replica {replica}: tp {} must be at least 1 and divide the {} query heads",
                self.tp, self.model.q_heads
            )));
        }
        let weights = self.model.param_count() * usize_to_f64(DType::Bf16.size_bytes())
            / usize_to_f64(self.tp);
        let hbm = self.device.spec().memory.hbm_capacity_bytes;
        let reserved = f64_to_u64(weights.floor())
            + f64_to_u64((u64_to_f64(hbm) * ACTIVATION_HEADROOM).floor());
        let kv = match self.kv_blocks_override {
            Some(blocks) => KvPool::new(blocks, DEFAULT_BLOCK_TOKENS),
            None => KvPool::sized_for(
                hbm,
                reserved,
                self.model.kv_bytes_per_token(self.tp),
                DEFAULT_BLOCK_TOKENS,
            )?,
        };
        Ok(SimState {
            kv,
            growth: BatchGrowth::with_capacity(DEFAULT_BLOCK_TOKENS, self.max_decode_batch),
            stretch: None,
            arrivals: EventQueue::with_capacity(expected_requests),
            ready: VecDeque::new(),
            batch: Vec::with_capacity(self.max_decode_batch),
            clock: SimClock::new(),
            busy_s: 0.0,
            time_scale: 1.0,
            fast_forward: settings.fast_forward,
            ttft: LatencyRecorder::with_mode(settings.metrics_mode),
            tpot: LatencyRecorder::with_mode(settings.metrics_mode),
            queue_delay: LatencyRecorder::with_mode(settings.metrics_mode),
            slo,
            slo_met_requests: 0,
            slo_met_tokens: 0,
            trace: TraceRecorder::disabled(),
            total_output: 0,
            completed: 0,
            peak_batch: 0,
            preemptions: 0,
        })
    }

    /// Whether `sim_step` would admit right now: the decode batch has
    /// room and the head of the ready queue fits the KV cache with one
    /// output token.
    fn admission_possible(&self, sim: &SimState) -> bool {
        sim.batch.len() < self.max_decode_batch
            && sim
                .ready
                .front()
                .is_some_and(|s| sim.kv.fits(s.admit_tokens() + 1))
    }

    /// Admit the head of the ready queue: prefill it at the current
    /// clock and either complete it (single-output-token request) or place
    /// it in the batch, holding the blocks of its tokens plus the first
    /// output token's. `sim_step` is its only caller, in exact and
    /// fast-forward mode alike.
    ///
    /// Caller must have checked [`Self::admission_possible`].
    fn admit_one(&self, sim: &mut SimState) {
        // dcm-lint: allow(P1) admission_possible requires front() to be Some
        let mut seq = sim.ready.pop_front().expect("checked non-empty");
        let admit_tokens = seq.admit_tokens();
        let fresh = seq.produced == 0;
        if fresh {
            sim.queue_delay
                .record(sim.clock.now() - seq.request.arrival_s);
        }
        // Prefill covers the prompt plus, for a resumed sequence, the
        // recomputation of its already-generated tokens. The time
        // scale models transient slowdown windows (1.0 = nominal).
        let t0 = sim.clock.now();
        let prefill = self.prefill_time(admit_tokens) * sim.time_scale;
        sim.clock.advance_by(prefill);
        sim.busy_s += prefill;
        sim.trace.span(
            SpanKind::Prefill,
            "prefill",
            t0,
            prefill,
            Some(seq.request.id),
            &[("tokens", usize_to_f64(admit_tokens))],
        );
        if fresh {
            // Prefill emits the first output token.
            sim.ttft.record(sim.clock.now() - seq.request.arrival_s);
            sim.total_output += 1;
            seq.produced = 1;
            seq.first_token_t = sim.clock.now();
        }
        if seq.remaining() == 0 {
            sim.complete(&seq);
        } else {
            // The prefilled tokens and the first output token's KV slot.
            seq.kv_tokens = admit_tokens + 1;
            sim.kv.take(sim.kv.blocks_for(seq.kv_tokens));
            sim.growth.insert(seq.kv_tokens);
            sim.batch_insert(seq);
        }
    }

    /// Run one scheduler iteration at the current clock, if any work has
    /// arrived: admit the head of the ready queue (prefill), or execute
    /// one decode step for every active sequence, token by token. Returns
    /// `Ok(false)` when the engine is idle (nothing arrived and nothing
    /// active). `sim_advance` calls it only where [`Self::try_stretch`]
    /// declines, so its decode step is the one in which an append fails
    /// and preempts.
    fn sim_step(&self, sim: &mut SimState) -> Result<bool> {
        // Admission: prefill one ready item per iteration if the decode
        // batch has room and its current tokens fit.
        if self.admission_possible(sim) {
            self.admit_one(sim);
            return Ok(true);
        }
        if sim.batch.is_empty() {
            if let Some(s) = sim.ready.front() {
                // Nothing active and the head of queue cannot be admitted:
                // the request alone exceeds capacity.
                return Err(DcmError::ResourceExhausted(format!(
                    "request {} ({} tokens) exceeds KV capacity",
                    s.request.id,
                    s.admit_tokens()
                )));
            }
            return Ok(false); // idle: awaiting future arrivals (or drained)
        }
        // One decode step for all active sequences, priced from the
        // incrementally maintained batch projection — no O(batch) length
        // re-walk, no per-step allocation.
        let batch = sim.batch.len();
        sim.peak_batch = sim.peak_batch.max(batch);
        let shape = sim.growth.after(0);
        debug_assert_eq!(shape.count, batch, "projection desynced from the batch");
        let attn = self.with_gemm_terms(|pa, terms| pa.decode_time_of(shape, terms));
        let step = (self.nonattn_step_time(batch) + attn) * sim.time_scale;
        let t0 = sim.clock.now();
        sim.clock.advance_by(step);
        sim.busy_s += step;
        sim.trace.span(
            SpanKind::Decode,
            "decode",
            t0,
            step,
            None,
            &[("batch", usize_to_f64(batch))],
        );
        // Walk the batch by index in id order: a completion removes entry
        // `i`, a preemption the victim.
        let mut i = 0;
        while i < sim.batch.len() {
            let id = sim.batch[i].request.id;
            // The pool counts a token per append *attempt*, even a failed
            // one, and a failed append is followed by exactly one that
            // succeeds: the victim gives back at least one block and the
            // next token needs one. So `known` ends holding `⌈known/B⌉`
            // blocks, and the sequence and projection take it as the count.
            let start = sim.batch[i].kv_tokens;
            let mut known = start;
            let mut held = sim.kv.blocks_for(start);
            while !sim.kv.append(&mut known, &mut held) {
                // Out of blocks: preempt the youngest sequence (highest
                // id) other than this one: the last entry, or the one
                // before it, which has already stepped, when this one is
                // last. If this one is alone, it holds every used block
                // and still needs more: it alone exceeds the cache, and
                // preempting it would only re-admit it into the same wall.
                let last = sim.batch.len() - 1;
                let victim = if i < last {
                    last
                } else if i > 0 {
                    i -= 1; // the victim sits before this sequence
                    i
                } else {
                    return Err(DcmError::ResourceExhausted(format!(
                        "request {id} ({known} tokens) exceeds KV capacity"
                    )));
                };
                let victim = sim.batch_remove(victim);
                sim.preemptions += 1;
                sim.trace.instant(
                    SpanKind::Preemption,
                    "preempt",
                    sim.clock.now(),
                    Some(victim.request.id),
                    &[("recompute_tokens", usize_to_f64(victim.produced))],
                );
                sim.ready.push_front(victim);
            }
            debug_assert_eq!(held, sim.kv.blocks_for(known), "request {id}'s blocks");
            sim.growth.remove(start);
            sim.growth.insert(known);
            sim.total_output += 1;
            let seq = &mut sim.batch[i];
            seq.kv_tokens = known;
            seq.produced += 1;
            if seq.remaining() == 0 {
                let seq = sim.batch_remove(i);
                sim.complete(&seq);
            } else {
                i += 1;
            }
        }
        Ok(true)
    }

    /// Advance the active batch `k ≥ 1` decode steps, up to its next
    /// batch change, in one pass; `false` if no stretch applies. An
    /// admission that is possible declines the stretch, so `sim_step`
    /// admits: there is one admission path. So does a batch whose next
    /// append must fail: `sim_step` runs that preemption step.
    ///
    /// A decode stretch is `n` consecutive decode steps during which the
    /// batch composition cannot change: admission is blocked (and KV
    /// growth is monotone, so it stays blocked), no sequence completes
    /// before the end, the KV cache cannot run out of blocks (so no
    /// preemption), and neither the caller horizon nor — when an arrival
    /// could actually be admitted mid-stretch — the next arrival is
    /// crossed. The caps are computed once; then one of two pricing rules
    /// advances the clock (DESIGN.md §3.8 and §3.10 give the soundness
    /// arguments):
    ///
    /// * **Closed form.** With fast-forward on, when a stretch of at least
    ///   [`MIN_FF_STEPS`] fits the horizon, the longest one that fits is
    ///   integrated by a trapezoid over its first and last step (see
    ///   [`Self::closed_form`]). Only the clock is approximate.
    /// * **Exact steps.** Otherwise step `i` is priced as `sim_step` would
    ///   price the batch grown `i` times, from the projection
    ///   `growth.after(i)` through a [`StretchPricer`], and added to the
    ///   clock in order. A step starts only while the clock is below the
    ///   horizon, `sim_advance`'s own loop-head rule, so the clock is
    ///   bit-identical to stepping.
    ///
    /// Either way every produced-token count is exact. The output count
    /// and the pool are charged as the steps run; each sequence is updated
    /// once, when the stretch settles. An exact stretch that the horizon
    /// cuts short stays open in `sim.stretch`, and the next call resumes
    /// it with the caps and the pricer it had: the batch is the same, so
    /// a fresh start would compute them again, shortened by the steps run.
    /// It settles at its end or before the batch changes (an admission
    /// here, a crash drain in [`SimState::drain_unfinished`]). With
    /// fast-forward on it settles at every cut, so the next stretch may
    /// take the closed form.
    fn try_stretch(&self, sim: &mut SimState, limit: f64) -> bool {
        if self.admission_possible(sim) {
            sim.settle_stretch(); // the batch changes: `sim_step` admits
            return false;
        }
        if sim.batch.is_empty() {
            return false;
        }
        // Admission has priority in `sim_step` and is blocked here; free
        // blocks only shrink mid-stretch and the batch never drains, so a
        // blocked ready head stays blocked for the whole stretch.
        let batch = sim.batch.len();
        // Cap 3: never cross the caller's horizon, nor — when a new
        // arrival could actually be admitted mid-stretch — the next
        // arrival. An arrival can only change the schedule by being
        // admitted, which needs batch room and an empty ready queue (a
        // waiting ready head shields it: the head is KV-blocked here and
        // free blocks only shrink mid-stretch, so arrivals queue behind
        // it). With a full batch or a waiting head the stretch runs
        // straight through arrival instants; they are promoted at the
        // stretch end, bit-identically to step mode.
        let arrival_can_admit = batch < self.max_decode_batch && sim.ready.is_empty();
        let next_arrival = if arrival_can_admit {
            sim.arrivals.peek_time().unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        };
        let horizon = limit.min(next_arrival);
        let open = match sim.stretch.take() {
            Some(open) => {
                debug_assert_eq!(
                    sim.kv.used(),
                    sim.growth.blocks_after(open.prices.steps()),
                    "KV pool desynced from the open stretch"
                );
                open
            }
            None => {
                let n = self.stretch_cap(sim);
                if n == 0 {
                    return false; // the next step's append must fail
                }
                let nonattn = self.nonattn_step_time(batch);
                if sim.fast_forward && n >= MIN_FF_STEPS {
                    if let Some(k) = self.closed_form_stretch(sim, nonattn, n, horizon) {
                        sim.charge_steps(batch, 0, k);
                        sim.settle(k);
                        return true;
                    }
                }
                OpenStretch {
                    n,
                    nonattn,
                    prices: self.attention.stretch_pricer(&sim.growth),
                }
            }
        };
        self.exact_steps(sim, open, horizon);
        true
    }

    /// Caps 1 and 2 of a stretch starting now: the most steps the batch
    /// can run before its first completion, with every append fitting the
    /// pool. Zero when the next step's append must fail.
    fn stretch_cap(&self, sim: &SimState) -> usize {
        // Cap 1: no completion strictly inside the stretch (completions
        // land exactly at the stretch end).
        let mut n = sim
            .batch
            .iter()
            .map(Seq::remaining)
            .min()
            .unwrap_or(usize::MAX);
        // Cap 2: growing every sequence by `n` tokens must fit the pool,
        // so no append can fail mid-stretch (block demand is monotone in
        // n — binary search the largest feasible stretch). Every active
        // sequence holds `⌈t/B⌉` blocks for its `t ≥ 1` KV tokens, so the
        // projection counts the blocks the pool has lent.
        let growth = &sim.growth;
        if cfg!(debug_assertions) {
            let shape =
                BatchShape::of_lens(sim.batch.iter().map(|s| s.kv_tokens), DEFAULT_BLOCK_TOKENS);
            assert_eq!(growth.after(0), shape, "projection desynced from the batch");
            assert_eq!(
                sim.kv.used(),
                shape.sum_blocks,
                "KV pool desynced from the batch"
            );
        }
        let blocks = sim.kv.blocks();
        if growth.blocks_after(n) > blocks {
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if growth.blocks_after(mid) <= blocks {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            n = lo;
        }
        n
    }

    /// Advance the clock over the longest closed-form stretch of at most
    /// `n` steps that ends by `horizon`, and return its length; `None`,
    /// with nothing advanced, if [`Self::closed_form`] declines.
    fn closed_form_stretch(
        &self,
        sim: &mut SimState,
        nonattn: f64,
        n: usize,
        horizon: f64,
    ) -> Option<usize> {
        let step = StepCost {
            nonattn,
            attn_start: self
                .with_gemm_terms(|pa, terms| pa.decode_time_of(sim.growth.after(0), terms)),
            scale: sim.time_scale,
        };
        let now = sim.clock.now();
        let (k, span) = self.closed_form(&sim.growth, step, n, now, horizon)?;
        sim.clock.advance_by(span);
        sim.busy_s += span;
        sim.trace.span(
            SpanKind::Decode,
            "decode_ff",
            now,
            span,
            None,
            &[
                ("batch", usize_to_f64(sim.batch.len())),
                ("steps", usize_to_f64(k)),
            ],
        );
        Some(k)
    }

    /// The longest closed-form stretch of at most `n` steps that starts
    /// at `now` and ends by `horizon`, with its time; `None` if even
    /// [`MIN_FF_STEPS`] steps would cross the horizon. Stretch time is
    /// monotone in its length, so the longest fit is binary-searched,
    /// from the shortest worthwhile stretch: a hopeless one is declined
    /// after one price.
    fn closed_form(
        &self,
        growth: &BatchGrowth,
        step: StepCost,
        n: usize,
        now: f64,
        horizon: f64,
    ) -> Option<(usize, f64)> {
        let mut span = self.stretch_time(growth, step, n);
        if now + span <= horizon {
            return Some((n, span));
        }
        span = self.stretch_time(growth, step, MIN_FF_STEPS);
        if now + span > horizon {
            return None;
        }
        let (mut lo, mut hi) = (MIN_FF_STEPS, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let t = self.stretch_time(growth, step, mid);
            if now + t <= horizon {
                (lo, span) = (mid, t);
            } else {
                hi = mid - 1;
            }
        }
        Some((lo, span))
    }

    /// Run exact decode steps of `open` over the batch `sim.growth`
    /// projects, at least one and up to its cap, while the clock is below
    /// `horizon`. Step `i` costs `(nonattn + attention of growth.after(i))
    /// × time_scale`, the float operations `sim_step` performs on the
    /// batch after `i` grows, with the attention time from `open`'s
    /// [`StretchPricer`]; the clock and busy time add the steps in order.
    /// Then the steps are charged, and the stretch settles at its cap or
    /// stays open in `sim.stretch` if the horizon cut it short.
    fn exact_steps(&self, sim: &mut SimState, mut open: OpenStretch, horizon: f64) {
        let batch = sim.batch.len();
        let from = open.prices.steps();
        let SimState {
            growth,
            clock,
            busy_s,
            trace,
            time_scale,
            ..
        } = sim;
        let OpenStretch { n, nonattn, prices } = &mut open;
        self.with_gemm_terms(|pa, terms| loop {
            let step = (*nonattn + prices.step(pa, growth, terms)) * *time_scale;
            let t0 = clock.now();
            clock.advance_by(step);
            *busy_s += step;
            trace.span(
                SpanKind::Decode,
                "decode",
                t0,
                step,
                None,
                &[("batch", usize_to_f64(batch))],
            );
            if prices.steps() == *n || clock.now() >= horizon {
                return;
            }
        });
        let k = open.prices.steps();
        sim.charge_steps(batch, from, k);
        if k < open.n && !sim.fast_forward {
            sim.stretch = Some(open); // cut by the horizon: the batch stays
        } else {
            sim.settle(k);
        }
    }

    /// Trapezoid estimate of the wall time of `n` decode steps from the
    /// current batch state: non-attention cost is batch-shaped (constant
    /// over the stretch), attention cost is evaluated at the stretch's
    /// first and last step and averaged.
    fn stretch_time(&self, growth: &BatchGrowth, step: StepCost, n: usize) -> f64 {
        let attn_end = self.with_gemm_terms(|pa, terms| pa.decode_time_of(growth.after(n), terms));
        (step.nonattn + 0.5 * (step.attn_start + attn_end)) * usize_to_f64(n) * step.scale
    }

    /// Advance the simulation: execute every scheduler iteration that can
    /// start strictly before `limit`, fast-forwarding an idle clock to the
    /// next arrival. Stops when the clock reaches `limit`, or when no work
    /// can start before it. Pass `f64::INFINITY` to drain completely.
    pub(crate) fn sim_advance(&self, sim: &mut SimState, limit: f64) -> Result<()> {
        loop {
            sim.promote_arrivals();
            if sim.clock.now() >= limit {
                return Ok(());
            }
            if self.try_stretch(sim, limit) || self.sim_step(sim)? {
                continue;
            }
            // Idle: fast-forward to the next arrival if it is within the
            // horizon, otherwise yield back to the caller.
            match sim.arrivals.peek_time() {
                Some(at) if at < limit => {
                    sim.clock.advance_to(at);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Serve `requests` to completion. A trace whose `arrival_s` are all
    /// zero reproduces the offline-throughput setup of Figure 17(d,e);
    /// later arrival times make this an open-system (online) run in which
    /// admission waits for arrival and the engine idles forward to the
    /// next arrival when empty.
    ///
    /// Admission is optimistic (vLLM style): a request is admitted when
    /// its *current* tokens fit, and sequences that outgrow the cache
    /// preempt the youngest active sequence, whose progress is recomputed
    /// at re-admission (recompute-mode preemption).
    ///
    /// This is the cluster event loop with this engine as its only
    /// replica: round-robin, no fabric, [`FaultPlan::none`], the default
    /// [`ResilienceConfig`] (its SLO judges goodput), exact stepping and
    /// exact metrics. Simultaneous arrivals are served in trace order.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if a single request alone
    /// cannot fit in the KV cache, at admission or as it grows, or
    /// [`DcmError::InvalidConfig`] naming the offending request for an
    /// invalid trace (empty, a non-finite or negative arrival, an empty
    /// prompt, a request generating no token, or a duplicated id) or the
    /// field for a zero `max_decode_batch` or KV block cap.
    pub fn run(&mut self, requests: &[Request]) -> Result<ServingReport> {
        let (report, _) = cluster::serve(
            std::slice::from_mut(self),
            RunSettings::new(RoutingPolicy::RoundRobin),
            requests,
            &FaultPlan::none(),
            &ResilienceConfig::default(),
            false,
        )?;
        Ok(report.serving)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::dataset::{ArrivalProcess, SyntheticDataset};
    use dcm_core::metrics::MetricsMode;

    fn engine(backend: PagedBackend, max_batch: usize) -> ServingEngine {
        let device = match backend {
            PagedBackend::A100Fused => Device::a100(),
            _ => Device::gaudi2(),
        };
        ServingEngine::new(&device, LlamaConfig::llama31_8b(), 1, backend, max_batch)
    }

    /// `e` as the only replica of a round-robin cluster, which is where
    /// fast-forward, histogram metrics and SLOs are set.
    fn solo(e: ServingEngine) -> Cluster {
        Cluster::new(vec![e], RoutingPolicy::RoundRobin)
    }

    #[test]
    fn completes_all_requests() {
        let reqs = SyntheticDataset::fixed(8, 128, 16);
        let report = engine(PagedBackend::GaudiOpt, 8).run(&reqs).unwrap();
        assert_eq!(report.completed, 8);
        assert_eq!(report.total_output_tokens, 8 * 16);
        assert!(report.total_time_s > 0.0);
        assert_eq!(report.peak_batch, 8);
    }

    #[test]
    fn throughput_rises_with_max_batch() {
        // Figure 17(d): larger decode batches raise serving throughput.
        let reqs = SyntheticDataset::dynamic_sonnet(24, 7);
        let t4 = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        let t16 = engine(PagedBackend::GaudiOpt, 16).run(&reqs).unwrap();
        assert!(
            t16.throughput_tps > t4.throughput_tps,
            "{} vs {}",
            t16.throughput_tps,
            t4.throughput_tps
        );
    }

    #[test]
    fn tpot_degrades_with_max_batch() {
        // Figure 17(e): bigger batches mean slower per-token latency.
        let reqs = SyntheticDataset::dynamic_sonnet(24, 8);
        let t2 = engine(PagedBackend::GaudiOpt, 2).run(&reqs).unwrap();
        let t16 = engine(PagedBackend::GaudiOpt, 16).run(&reqs).unwrap();
        assert!(t16.mean_tpot_s > t2.mean_tpot_s);
    }

    #[test]
    fn opt_backend_beats_base_end_to_end() {
        // Decode-heavy workload: short prompts, long generations, so the
        // PagedAttention gap isn't fully diluted by prefill. Even so,
        // Amdahl's law (KT#7) shrinks the 7.4x kernel-level gap to a
        // moderate end-to-end win — the same effect that lets the
        // optimized Gaudi reach A100-level end-to-end throughput despite
        // a 2.2x slower attention kernel.
        let reqs = SyntheticDataset::fixed(8, 512, 96);
        let base = engine(PagedBackend::GaudiBase, 8).run(&reqs).unwrap();
        let opt = engine(PagedBackend::GaudiOpt, 8).run(&reqs).unwrap();
        assert!(
            opt.throughput_tps > 1.3 * base.throughput_tps,
            "opt {} vs base {}",
            opt.throughput_tps,
            base.throughput_tps
        );
    }

    #[test]
    fn gaudi_opt_is_competitive_with_a100_end_to_end() {
        // Figure 17(d) / KT#7: despite the 2.2x PagedAttention gap,
        // end-to-end throughput is comparable (Amdahl + GEMM advantage).
        let reqs = SyntheticDataset::dynamic_sonnet(16, 9);
        let g = engine(PagedBackend::GaudiOpt, 8).run(&reqs).unwrap();
        let a = engine(PagedBackend::A100Fused, 8).run(&reqs).unwrap();
        let ratio = g.throughput_tps / a.throughput_tps;
        assert!(ratio > 0.8 && ratio < 1.6, "gaudi/a100 throughput {ratio}");
    }

    #[test]
    fn oversized_request_is_reported() {
        let reqs = SyntheticDataset::fixed(1, 4_000_000, 8);
        let err = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap_err();
        assert!(matches!(err, DcmError::ResourceExhausted(_)));
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(engine(PagedBackend::GaudiOpt, 4).run(&[]).is_err());
    }

    #[test]
    fn bad_arrival_is_an_error_naming_the_request() {
        for arrival_s in [f64::NAN, -1.0, f64::INFINITY] {
            let mut bad = Request::new(7, 128, 4);
            bad.arrival_s = arrival_s;
            let reqs = [Request::new(1, 128, 4), bad];
            let err = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap_err();
            assert!(
                matches!(&err, DcmError::InvalidConfig(m) if m.contains("request 7")),
                "{arrival_s}: {err}"
            );
        }
    }

    #[test]
    fn zero_output_len_is_an_error_naming_the_request() {
        let reqs = [Request::new(1, 128, 4), Request::new(9, 128, 0)];
        let err = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m) if m.contains("request 9")),
            "{err}"
        );
    }

    #[test]
    fn zero_input_len_is_an_error_naming_the_request() {
        let reqs = [Request::new(1, 128, 4), Request::new(5, 0, 4)];
        let err = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m) if m.contains("request 5")),
            "{err}"
        );
    }

    #[test]
    fn duplicate_ids_are_an_error_naming_the_id() {
        let reqs = [
            Request::new(3, 128, 4),
            Request::new(7, 128, 4),
            Request::new(1, 128, 4),
            Request::new(7, 64, 2),
        ];
        let err = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m) if m.contains("id 7")),
            "{err}"
        );
        // Unique ids in any order pass (the sorted fallback path).
        let report = engine(PagedBackend::GaudiOpt, 4).run(&reqs[..3]).unwrap();
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn zero_max_decode_batch_is_an_error_naming_the_field() {
        let reqs = SyntheticDataset::fixed(2, 128, 4);
        let err = engine(PagedBackend::GaudiOpt, 0).run(&reqs).unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m)
                if m.contains("replica 0") && m.contains("max_decode_batch")),
            "{err}"
        );
    }

    #[test]
    fn zero_kv_blocks_is_an_error_naming_the_field() {
        let reqs = SyntheticDataset::fixed(2, 128, 4);
        let err = engine(PagedBackend::GaudiOpt, 4)
            .with_kv_blocks(0)
            .run(&reqs)
            .unwrap_err();
        assert!(
            matches!(&err, DcmError::InvalidConfig(m)
                if m.contains("replica 0") && m.contains("kv_blocks")),
            "{err}"
        );
    }

    #[test]
    fn bad_tp_is_an_error_naming_the_replica() {
        // Llama-3.1-8B has 32 query heads: a zero split, and one that does
        // not divide them, build an engine and fail the run, KV cap or not.
        let reqs = SyntheticDataset::fixed(2, 128, 4);
        let model = LlamaConfig::llama31_8b;
        for tp in [0, 3] {
            let opt = PagedBackend::GaudiOpt;
            let mut cluster = Cluster::homogeneous(
                &Device::gaudi2(),
                &model(),
                tp,
                opt,
                4,
                2,
                RoutingPolicy::RoundRobin,
            );
            let capped =
                ServingEngine::new(&Device::gaudi2(), model(), tp, opt, 4).with_kv_blocks(8);
            for err in [
                cluster.run(&reqs).unwrap_err(),
                solo(capped).run(&reqs).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, DcmError::InvalidConfig(m)
                        if m.contains("replica 0") && m.contains(&format!("tp {tp}"))),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn lone_sequence_outgrowing_the_cache_is_an_error_not_a_livelock() {
        // Request 1 is preempted once by request 0's growth and later
        // resumed. Alone, it then needs more than the 2,048-token cache.
        // Preempting itself used to re-admit it at exactly full capacity,
        // forever. The run must end, with a typed error naming it.
        use std::sync::mpsc::{channel, RecvTimeoutError};
        for fast_forward in [false, true] {
            let (tx, rx) = channel();
            let worker = std::thread::spawn(move || {
                let reqs = [Request::new(0, 900, 600), Request::new(1, 900, 3000)];
                let result = solo(engine(PagedBackend::GaudiOpt, 4).with_kv_blocks(16))
                    .with_fast_forward(fast_forward)
                    .run(&reqs);
                let _ = tx.send(result);
            });
            // On a timeout the worker is left spinning; the test fails.
            let result = match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(result) => result,
                Err(RecvTimeoutError::Disconnected) => {
                    std::panic::resume_unwind(worker.join().unwrap_err())
                }
                Err(RecvTimeoutError::Timeout) => {
                    panic!("fast_forward={fast_forward}: no result within 60 s")
                }
            };
            worker.join().unwrap();
            let err = result.unwrap_err();
            assert!(
                matches!(&err, DcmError::ResourceExhausted(m) if m.contains("request 1")),
                "fast_forward={fast_forward}: {err}"
            );
        }
    }

    #[test]
    fn memo_values_are_bit_identical_to_direct_compiles() {
        // Every family prices the same (kind, length) keys, so a key that
        // conflated two families would hand one of them the other's bits.
        use dcm_core::specs::DeviceSpec;
        let with_alpha = |alpha_s: f64| {
            let mut spec = DeviceSpec::gaudi2();
            spec.scale_out.alpha_s = alpha_s;
            Device::gaudi_like(spec)
        };
        let mut sectors = DeviceSpec::gaudi2();
        sectors.memory.min_access_bytes = 32; // keeps the name "Gaudi-2"
        let small = LlamaConfig::llama31_8b;
        let large = LlamaConfig::llama31_70b;
        let families = [
            (Device::gaudi2(), small(), 1),
            (Device::a100(), small(), 1),
            (Device::gaudi3(), small(), 1),
            (Device::a100_like(DeviceSpec::gaudi2()), small(), 1),
            (Device::gaudi_like(sectors), small(), 1),
            (with_alpha(0.0), small(), 1),
            (with_alpha(-0.0), small(), 1),
            (Device::gaudi2(), large(), 2),
            (Device::gaudi2(), large(), 4),
            (Device::gaudi2(), large(), 8),
        ];
        let engines: Vec<ServingEngine> = families
            .iter()
            .map(|(device, model, tp)| {
                ServingEngine::new(device, model.clone(), *tp, PagedBackend::GaudiOpt, 8)
            })
            .collect();
        for (i, a) in engines.iter().enumerate() {
            for b in &engines[i + 1..] {
                assert_ne!(a.family, b.family, "{i}: families conflated");
            }
        }
        let twin = ServingEngine::new(&Device::gaudi2(), small(), 1, PagedBackend::GaudiBase, 2);
        assert_eq!(twin.family, engines[0].family, "same family, same handle");
        // Round 0 may compile; round 1 reads what round 0 inserted.
        let opts = CompileOptions::default();
        for round in 0..2 {
            for (e, (device, model, tp)) in engines.iter().zip(&families) {
                for length in [1, 7, 128, 517] {
                    let direct = device.run_graph(&model.prefill_graph(1, length, *tp), &opts);
                    let memo = e.prefill_time(length);
                    assert_eq!(memo.to_bits(), direct.time_s().to_bits(), "{round}");
                }
                for batch in [1, 3, 16] {
                    let graph = model.decode_nonattn_graph(batch, *tp);
                    let direct = device.run_graph(&graph, &opts);
                    let memo = e.nonattn_step_time(batch);
                    assert_eq!(memo.to_bits(), direct.time_s().to_bits(), "{round}");
                }
            }
        }
    }

    #[test]
    fn one_exact_stretch_runs_the_batch_to_its_first_completion() {
        // Four active sequences and nothing pending, in exact mode: one
        // stretch call advances the whole batch to its first completion,
        // not one step, and reaches the clock stepping reaches.
        let e = engine(PagedBackend::GaudiOpt, 4);
        let settings = RunSettings::new(RoutingPolicy::RoundRobin);
        let admitted = || {
            let slo = ResilienceConfig::default().slo;
            let mut sim = e.make_sim(0, 4, &settings, slo).unwrap();
            for (id, input_len, output_len) in
                [(0, 128, 40), (1, 700, 25), (2, 300, 60), (3, 64, 33)]
            {
                sim.enqueue(Request::new(id, input_len, output_len));
            }
            sim.promote_arrivals();
            for _ in 0..4 {
                assert!(e.sim_step(&mut sim).unwrap(), "admission");
            }
            sim
        };
        let mut sim = admitted();
        assert_eq!((sim.batch.len(), sim.total_output), (4, 4));
        // Prefill emitted every first token: 24 steps remain until
        // request 1 completes.
        assert!(e.try_stretch(&mut sim, f64::INFINITY));
        assert_eq!(sim.total_output, 4 + 4 * 24);
        assert_eq!((sim.completed, sim.batch.len()), (1, 3));
        let mut stepped = admitted();
        for _ in 0..24 {
            assert!(e.sim_step(&mut stepped).unwrap());
        }
        assert_eq!(stepped.now().to_bits(), sim.now().to_bits());
        assert_eq!(stepped.busy_s.to_bits(), sim.busy_s.to_bits());
        assert_eq!(
            (
                stepped.completed,
                stepped.total_output,
                stepped.growth.after(0)
            ),
            (sim.completed, sim.total_output, sim.growth.after(0))
        );
    }

    #[test]
    fn a_cut_stretch_stays_open_and_resumes_bit_for_bit() {
        // The batch of `one_exact_stretch_runs_the_batch_to_its_first_
        // completion`, advanced to four limits inside its 24-step stretch
        // and then to its end: every cut keeps the stretch open with the
        // batch at its start counts and the pool and output count current,
        // and the end matches the uncut stretch.
        let e = engine(PagedBackend::GaudiOpt, 4);
        let settings = RunSettings::new(RoutingPolicy::RoundRobin);
        let admitted = || {
            let slo = ResilienceConfig::default().slo;
            let mut sim = e.make_sim(0, 4, &settings, slo).unwrap();
            for (id, input_len, output_len) in
                [(0, 128, 40), (1, 700, 25), (2, 300, 60), (3, 64, 33)]
            {
                sim.enqueue(Request::new(id, input_len, output_len));
            }
            sim.promote_arrivals();
            for _ in 0..4 {
                assert!(e.sim_step(&mut sim).unwrap(), "admission");
            }
            sim
        };
        let mut uncut = admitted();
        assert!(e.try_stretch(&mut uncut, f64::INFINITY));
        let mut sim = admitted();
        let start: Vec<usize> = sim.batch.iter().map(|s| s.kv_tokens).collect();
        let (t0, t1) = (sim.now(), uncut.now());
        let mut last = 0;
        for frac in [0.1, 0.35, 0.6, 0.9] {
            e.sim_advance(&mut sim, t0 + frac * (t1 - t0)).unwrap();
            let k = sim.stretch.as_ref().expect("open").prices.steps();
            assert!(last < k && k < 24, "{frac}: {k} steps");
            last = k;
            let at: Vec<usize> = sim.batch.iter().map(|s| s.kv_tokens).collect();
            assert_eq!(at, start, "the batch keeps the start counts");
            let held: usize = start.iter().map(|&t| sim.kv.blocks_for(t + k)).sum();
            assert_eq!(sim.kv.used(), held, "the pool is current");
            assert_eq!(sim.total_output, 4 + 4 * k, "the output count is current");
        }
        assert!(e.try_stretch(&mut sim, f64::INFINITY));
        assert!(sim.stretch.is_none(), "settled at its end");
        assert_eq!(sim.now().to_bits(), uncut.now().to_bits());
        assert_eq!(sim.busy_s.to_bits(), uncut.busy_s.to_bits());
        assert_eq!(
            (
                sim.completed,
                sim.total_output,
                sim.kv.used(),
                sim.growth.after(0)
            ),
            (
                uncut.completed,
                uncut.total_output,
                uncut.kv.used(),
                uncut.growth.after(0)
            )
        );
    }

    #[test]
    fn preemption_under_memory_pressure() {
        // 12 blocks of 128 tokens: four 256-token prompts with 200-token
        // generations cannot all stay resident; the engine must preempt,
        // recompute and still complete everything.
        let reqs = SyntheticDataset::fixed(4, 256, 200);
        let mut eng = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            4,
        )
        .with_kv_blocks(12);
        let report = eng.run(&reqs).unwrap();
        assert_eq!(report.completed, 4);
        assert_eq!(report.total_output_tokens, 4 * 200);
        assert!(report.preemptions > 0, "expected preemptions: {report:?}");
        // Preemption costs time: the unconstrained run is faster.
        let mut free = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            4,
        );
        let unconstrained = free.run(&reqs).unwrap();
        assert_eq!(unconstrained.preemptions, 0);
        assert!(unconstrained.total_time_s < report.total_time_s);
    }

    #[test]
    fn a_failed_append_by_the_last_entry_preempts_the_entry_before_it() {
        // Six blocks of 128 tokens, all lent: requests 0 and 1 hold 200
        // tokens (mid-block) and request 2, the youngest and last, holds
        // 256 (on a block boundary). In the next step 0 and 1 append
        // within their blocks and 2's append fails, so the victim is the
        // youngest other entry, 1, which has already stepped.
        let e = engine(PagedBackend::GaudiOpt, 4).with_kv_blocks(6);
        let settings = RunSettings::new(RoutingPolicy::RoundRobin);
        let slo = ResilienceConfig::default().slo;
        let mut sim = e.make_sim(0, 3, &settings, slo).unwrap();
        for (id, input_len) in [(0, 199), (1, 199), (2, 255)] {
            sim.enqueue(Request::new(id, input_len, 50));
        }
        sim.promote_arrivals();
        for _ in 0..3 {
            assert!(e.sim_step(&mut sim).unwrap(), "admission");
        }
        let counts = |sim: &SimState| -> Vec<(u64, usize)> {
            sim.batch
                .iter()
                .map(|s| (s.request.id, s.kv_tokens))
                .collect()
        };
        assert_eq!(counts(&sim), [(0, 200), (1, 200), (2, 256)]);
        assert_eq!(sim.kv.free(), 0, "the pool is full");
        assert!(e.sim_step(&mut sim).unwrap(), "the preemption step");
        assert_eq!(sim.preemptions, 1);
        // 2 counts its failed token, then appends one more into a block
        // that 1 gave back.
        assert_eq!(counts(&sim), [(0, 201), (2, 256 + 2)]);
        let victim = sim.ready.front().expect("the victim is queued");
        assert_eq!(
            (victim.request.id, victim.produced),
            (1, 2),
            "the victim keeps the token it produced in this step"
        );
        assert_eq!(sim.total_output, 3 + 3);
        assert_eq!(sim.kv.used(), 2 + 3);
    }

    #[test]
    fn preemption_of_resumed_sequence_preserves_produced_tokens() {
        // Three long generations in a cache that fits barely two: the
        // youngest sequence is preempted, resumed, and preempted again
        // while holding recomputed progress. If a resumed sequence's
        // produced-token count were lost at its second preemption, the
        // engine would regenerate those tokens and overshoot the trace's
        // total output.
        let reqs = SyntheticDataset::fixed(3, 256, 1000);
        let mut eng = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            3,
        )
        .with_kv_blocks(13);
        let report = eng.run(&reqs).unwrap();
        assert!(
            report.preemptions >= 3,
            "scenario must preempt a resumed sequence: {report:?}"
        );
        assert_eq!(report.completed, 3);
        // Exact conservation: every requested token produced exactly once.
        assert_eq!(report.total_output_tokens, 3 * 1000);
        assert!(report.mean_ttft_s > 0.0 && report.mean_ttft_s.is_finite());
    }

    #[test]
    fn single_request_larger_than_cache_errors() {
        let reqs = SyntheticDataset::fixed(1, 2000, 8);
        let mut eng = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            2,
        )
        .with_kv_blocks(4); // 512 tokens max
        assert!(matches!(
            eng.run(&reqs),
            Err(DcmError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn single_token_requests_complete_at_prefill() {
        let reqs = SyntheticDataset::fixed(3, 64, 1);
        let report = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        assert_eq!(report.completed, 3);
        assert_eq!(report.total_output_tokens, 3);
        assert_eq!(report.peak_batch, 0); // never decoded
                                          // No decode interval -> no TPOT samples at all (regression: these
                                          // used to record tpot = 0.0 each).
        assert_eq!(report.mean_tpot_s, 0.0);
        assert_eq!(report.p99_tpot_s, 0.0);
        // They still count for TTFT and (vacuously) meet the TPOT SLO.
        assert!(report.mean_ttft_s > 0.0);
        assert_eq!(report.slo_attainment, 1.0);
    }

    #[test]
    fn single_token_requests_do_not_drag_tpot_distribution() {
        // Regression for the tpot = 0.0 admission sample: a trace mixing
        // one-token and long requests must report the TPOT of the long
        // requests alone, not a distribution polluted with zeros.
        let mut reqs = SyntheticDataset::fixed(3, 64, 1);
        reqs.push(crate::dataset::Request::new(3, 64, 65));
        let report = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        assert_eq!(report.completed, 4);
        // Exactly one TPOT sample (the 65-token request): every summary
        // statistic equals it and is strictly positive.
        assert!(report.mean_tpot_s > 0.0);
        assert_eq!(report.mean_tpot_s, report.p50_tpot_s);
        assert_eq!(report.p50_tpot_s, report.p99_tpot_s);
    }

    #[test]
    fn goodput_equals_throughput_when_every_request_meets_slo() {
        let reqs = SyntheticDataset::fixed(4, 128, 16);
        let report = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        assert_eq!(report.slo_attainment, 1.0);
        assert_eq!(report.goodput_tps, report.throughput_tps);
        assert_eq!(report.offered(), report.completed);
        assert_eq!(report.shed + report.failed + report.retries, 0);
        assert_eq!(report.lost_tokens, 0);
    }

    #[test]
    fn unattainable_slo_zeroes_goodput_but_not_throughput() {
        let reqs = SyntheticDataset::fixed(4, 128, 16);
        let cfg = ResilienceConfig {
            slo: crate::fault::SloSpec::new(1e-12, 1e-12),
            ..ResilienceConfig::default()
        };
        let report = solo(engine(PagedBackend::GaudiOpt, 4))
            .run_resilient(&reqs, &FaultPlan::none(), &cfg)
            .unwrap()
            .serving;
        assert_eq!(report.slo_attainment, 0.0);
        assert_eq!(report.goodput_tps, 0.0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn zero_arrival_online_path_matches_offline_run() {
        // arrival_s == 0 must be the offline special case, bit-identical.
        let reqs = SyntheticDataset::dynamic_sonnet(16, 11);
        let stamped: Vec<Request> = reqs.iter().map(|r| r.with_arrival(0.0)).collect();
        let a = engine(PagedBackend::GaudiOpt, 8).run(&reqs).unwrap();
        let b = engine(PagedBackend::GaudiOpt, 8).run(&stamped).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn idle_engine_fast_forwards_to_late_arrivals() {
        // Two requests a long gap apart: the engine must idle to the
        // second arrival instead of serving it early, and the total time
        // must cover the gap.
        let gap = 50.0;
        let reqs = vec![
            Request::new(0, 128, 8),
            Request::new(1, 128, 8).with_arrival(gap),
        ];
        let report = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        assert_eq!(report.completed, 2);
        assert!(report.total_time_s > gap, "clock must reach the arrival");
        // Neither request queued behind the other: no queueing delay.
        assert!(report.mean_queue_delay_s < 1e-9, "{report:?}");
        // TTFT is measured from each arrival, so both are prefill-bound
        // and small compared to the gap.
        assert!(report.p99_ttft_s < 1.0, "{report:?}");
    }

    #[test]
    fn overload_shows_up_as_queueing_delay_and_ttft_tail() {
        // The same 24 requests offered slowly vs all-at-once: the
        // saturated run must show queueing delay and a worse TTFT tail.
        let n = 24;
        let reqs = SyntheticDataset::dynamic_sonnet(n, 5);
        let offline = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        // Offered well below capacity: one request every 10 s.
        let trickle: Vec<Request> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| r.with_arrival(i as f64 * 10.0))
            .collect();
        let relaxed = engine(PagedBackend::GaudiOpt, 4).run(&trickle).unwrap();
        assert!(relaxed.mean_queue_delay_s < offline.mean_queue_delay_s);
        assert!(relaxed.p99_ttft_s < offline.p99_ttft_s);
        // The offline run drains the queue faster overall (closed system),
        // while the trickle run's span is arrival-dominated.
        assert!(relaxed.total_time_s > offline.total_time_s);
    }

    #[test]
    fn fast_forward_preserves_counts_and_approximates_time() {
        // Long steady generations: the analytic stretch covers almost the
        // whole run. Counts must be exact; the trapezoid clock is allowed
        // a small relative error against the step-by-step engine.
        let reqs = SyntheticDataset::fixed(8, 128, 512);
        let exact = engine(PagedBackend::GaudiOpt, 8).run(&reqs).unwrap();
        let ff = solo(engine(PagedBackend::GaudiOpt, 8))
            .with_fast_forward(true)
            .run(&reqs)
            .unwrap()
            .serving;
        assert_eq!(ff.completed, exact.completed);
        assert_eq!(ff.total_output_tokens, exact.total_output_tokens);
        assert_eq!(ff.peak_batch, exact.peak_batch);
        assert_eq!(ff.preemptions, exact.preemptions);
        let ratio = ff.total_time_s / exact.total_time_s;
        assert!((ratio - 1.0).abs() < 0.02, "time drift {ratio}");
    }

    #[test]
    fn fast_forward_survives_preemption_pressure() {
        // The capacity cap must stop every stretch before KV exhaustion;
        // preemption then happens step-by-step, identically placed.
        let reqs = SyntheticDataset::fixed(4, 256, 200);
        let mk = || engine(PagedBackend::GaudiOpt, 4).with_kv_blocks(12);
        let exact = mk().run(&reqs).unwrap();
        let ff = solo(mk())
            .with_fast_forward(true)
            .run(&reqs)
            .unwrap()
            .serving;
        assert_eq!(ff.completed, exact.completed);
        assert_eq!(ff.total_output_tokens, exact.total_output_tokens);
        assert_eq!(ff.preemptions, exact.preemptions);
        assert!(ff.preemptions > 0);
    }

    #[test]
    fn fast_forward_respects_late_arrivals() {
        // An arrival mid-generation must not be skipped over: the stretch
        // stops at the arrival, the request is admitted, and everything
        // completes.
        let reqs = vec![
            Request::new(0, 128, 400),
            Request::new(1, 128, 64).with_arrival(0.5),
        ];
        let exact = engine(PagedBackend::GaudiOpt, 4).run(&reqs).unwrap();
        let ff = solo(engine(PagedBackend::GaudiOpt, 4))
            .with_fast_forward(true)
            .run(&reqs)
            .unwrap()
            .serving;
        assert_eq!(ff.completed, 2);
        assert_eq!(ff.total_output_tokens, exact.total_output_tokens);
    }

    #[test]
    fn histogram_metrics_mode_preserves_counts_and_bounds_quantiles() {
        use dcm_core::metrics::HISTOGRAM_MAX_RELATIVE_ERROR;
        let reqs = SyntheticDataset::dynamic_sonnet(24, 7);
        let exact = engine(PagedBackend::GaudiOpt, 8).run(&reqs).unwrap();
        let hist = solo(engine(PagedBackend::GaudiOpt, 8))
            .with_metrics_mode(MetricsMode::Histogram)
            .run(&reqs)
            .unwrap()
            .serving;
        // Counts, clock and means are mode-independent (sums are exact).
        assert_eq!(hist.completed, exact.completed);
        assert_eq!(hist.total_output_tokens, exact.total_output_tokens);
        assert_eq!(hist.total_time_s, exact.total_time_s);
        assert_eq!(hist.throughput_tps, exact.throughput_tps);
        assert_eq!(hist.mean_ttft_s, exact.mean_ttft_s);
        assert_eq!(hist.mean_tpot_s, exact.mean_tpot_s);
        // Quantiles carry the documented relative-error bound.
        for (h, e) in [
            (hist.p50_ttft_s, exact.p50_ttft_s),
            (hist.p99_ttft_s, exact.p99_ttft_s),
            (hist.p50_tpot_s, exact.p50_tpot_s),
            (hist.p99_tpot_s, exact.p99_tpot_s),
        ] {
            assert!(
                (h - e).abs() <= HISTOGRAM_MAX_RELATIVE_ERROR * e.abs() + f64::EPSILON,
                "histogram quantile {h} vs exact {e}"
            );
        }
    }

    #[test]
    fn online_trace_conserves_tokens_under_preemption_pressure() {
        let reqs = SyntheticDataset::dynamic_sonnet_online(
            16,
            3,
            &ArrivalProcess::Bursty {
                rate_rps: 50.0,
                burst: 8,
            },
        );
        let expected: usize = reqs.iter().map(|r| r.output_len).sum();
        let mut eng = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            8,
        )
        .with_kv_blocks(64);
        let report = eng.run(&reqs).unwrap();
        assert_eq!(report.completed, 16);
        assert_eq!(report.total_output_tokens, expected);
    }
}
