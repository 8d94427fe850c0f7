//! Extension beyond the paper: fault-tolerant cluster serving.
//!
//! The paper's serving study (§4.2, Figure 17) assumes immortal devices;
//! a production deployment (NAVER-scale, the paper's framing) must keep
//! serving through replica failures and absorb overload gracefully. This
//! binary stresses the resilience layer on the same cost model:
//!
//! 1. Crash sweep — failure time x replica count at fixed per-replica
//!    load: a replica dies mid-run, its in-flight and queued work
//!    re-routes to survivors (recompute restart), and the report tracks
//!    retries, lost tokens, goodput and SLO attainment for Gaudi-2
//!    (vLLMopt) and A100 (fused).
//! 2. Shedding sweep — overload with and without admission control
//!    (queue-depth and KV-pressure caps): shedding trades completed
//!    requests for a bounded p99 TTFT tail.
//! 3. Recovery — a crash with and without a later rejoin: recovered
//!    capacity claws back goodput.
//!
//! The expected shape: goodput dips with earlier crashes (more work
//! displaced, more tokens recomputed), survivors' tails grow with the
//! absorbed load, and under overload the queue cap keeps p99 TTFT bounded
//! where the no-shedding run diverges. The KV-pressure cap is inert at
//! this scale — HBM holds orders of magnitude more KV blocks than a
//! 16-deep decode batch ever touches, so queue depth is the signal that
//! actually binds; the row is kept to show exactly that.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::fault::{FaultPlan, ResilienceConfig, ShedPolicy, SloSpec};
use dcm_workloads::llama::LlamaConfig;

/// Replica counts for the crash sweep.
const REPLICA_COUNTS: [usize; 3] = [2, 4, 8];
/// Crash instants as fractions of the arrival-trace span.
const CRASH_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.75];
/// Per-replica requests in the synthetic trace.
const TRACE_LEN: usize = 64;
const TRACE_SEED: u64 = 2026;
const MAX_DECODE_BATCH: usize = 16;
/// Per-replica offered load for the crash sweep, as a fraction of
/// single-replica offline capacity — busy but below the knee, so the
/// damage visible in the report is the crash, not baseline queueing.
const CRASH_SWEEP_LOAD: f64 = 0.75;
/// Offered load for the shedding sweep — far past the knee.
const OVERLOAD: f64 = 2.0;

/// An interactive-serving SLO tight enough to separate the scenarios:
/// the default 10 s TTFT bound is met even by the overload runs here.
fn slo() -> SloSpec {
    SloSpec::new(2.5, 0.5)
}

fn default_cfg() -> ResilienceConfig {
    ResilienceConfig {
        slo: slo(),
        ..ResilienceConfig::default()
    }
}

struct DeviceSetup {
    label: &'static str,
    device: Device,
    backend: PagedBackend,
}

fn setups() -> Vec<DeviceSetup> {
    vec![
        DeviceSetup {
            label: "Gaudi-2 (vLLMopt)",
            device: Device::gaudi2(),
            backend: PagedBackend::GaudiOpt,
        },
        DeviceSetup {
            label: "A100 (fused)",
            device: Device::a100(),
            backend: PagedBackend::A100Fused,
        },
    ]
}

fn cluster(setup: &DeviceSetup, model: &LlamaConfig, replicas: usize) -> Cluster {
    Cluster::homogeneous(
        &setup.device,
        model,
        1,
        setup.backend,
        MAX_DECODE_BATCH,
        replicas,
        RoutingPolicy::JoinShortestQueue,
    )
}

/// The seeded arrival trace for one (replica count, rate) cell, and the
/// span of its arrivals — the clock the crash fractions index into.
fn trace_for(replicas: usize, rate_rps: f64) -> (Vec<dcm_vllm::dataset::Request>, f64) {
    let trace = SyntheticDataset::dynamic_sonnet_online(
        TRACE_LEN * replicas,
        TRACE_SEED,
        &ArrivalProcess::Poisson { rate_rps },
    );
    let span = trace.iter().map(|r| r.arrival_s).fold(0.0_f64, f64::max);
    (trace, span)
}

fn resilient(
    setup: &DeviceSetup,
    model: &LlamaConfig,
    replicas: usize,
    rate_rps: f64,
    plan: &FaultPlan,
    cfg: &ResilienceConfig,
) -> ClusterReport {
    let (trace, _) = trace_for(replicas, rate_rps);
    cluster(setup, model, replicas)
        .run_resilient(&trace, plan, cfg)
        .expect("online trace fits")
}

fn main() {
    banner(
        "Extension: fault-tolerant cluster serving (crash / shed / recover)",
        "beyond Figure 17 — replica failures with retry re-routing, admission-control \
         shedding under overload, and recovery; expected: graceful degradation, bounded tails",
    );
    let model = LlamaConfig::llama31_8b();

    // 1. Crash sweep: failure time x replica count.
    for setup in setups() {
        let capacity_rps =
            dcm_bench::offline_capacity_rps(&setup.device, setup.backend, &model, TRACE_LEN);
        println!(
            "\n{}: single-replica offline capacity {:.2} req/s",
            setup.label, capacity_rps
        );
        let mut t = Table::new(
            format!(
                "{} — replica crash sweep (JSQ, {CRASH_SWEEP_LOAD}x load, retry<=2)",
                setup.label
            ),
            &[
                "replicas",
                "crash at",
                "completed",
                "retries",
                "lost tok",
                "p99 TTFT s",
                "goodput t/s",
                "SLO att",
            ],
        );
        // Independent (replicas, crash-fraction) cells — evaluate on
        // DCM_THREADS workers, tabulate serially in input order.
        let points: Vec<(usize, f64)> = REPLICA_COUNTS
            .into_iter()
            .flat_map(|replicas| CRASH_FRACTIONS.map(|frac| (replicas, frac)))
            .collect();
        let reports = dcm_bench::sweep(&points, |&(replicas, frac)| {
            let rate = CRASH_SWEEP_LOAD * capacity_rps * replicas as f64;
            let (_, span) = trace_for(replicas, rate);
            let plan = FaultPlan::none().with_crash(0, frac * span);
            resilient(&setup, &model, replicas, rate, &plan, &default_cfg())
        });
        for (&(replicas, frac), report) in points.iter().zip(&reports) {
            let s = &report.serving;
            t.push(&[
                replicas.to_string(),
                format!("{:.0}% span", frac * 100.0),
                format!("{}/{}", s.completed, s.offered()),
                s.retries.to_string(),
                s.lost_tokens.to_string(),
                format!("{:.2}", s.p99_ttft_s),
                format!("{:.0}", s.goodput_tps),
                format!("{:.2}", s.slo_attainment),
            ]);
        }
        print!("{}", t.render());
    }

    // 2. Shedding under overload: the no-shedding run grows an unbounded
    //    queue; admission control bounds the tail at the cost of shed
    //    requests.
    for setup in setups() {
        let capacity_rps =
            dcm_bench::offline_capacity_rps(&setup.device, setup.backend, &model, TRACE_LEN);
        let replicas = 4;
        let rate = OVERLOAD * capacity_rps * replicas as f64;
        let mut t = Table::new(
            format!(
                "{} — shedding at {OVERLOAD}x capacity, {replicas} replicas (JSQ)",
                setup.label
            ),
            &[
                "policy",
                "completed",
                "shed",
                "p99 TTFT s",
                "tput t/s",
                "goodput t/s",
                "SLO att",
            ],
        );
        let policies: [(&str, ShedPolicy); 3] = [
            ("none (open queue)", ShedPolicy::none()),
            (
                "queue cap 2xbatch",
                ShedPolicy::queue_cap(2 * MAX_DECODE_BATCH),
            ),
            ("KV cap 90%", ShedPolicy::kv_cap(0.9)),
        ];
        let shed_reports = dcm_bench::sweep(&policies, |&(_, shed)| {
            let cfg = ResilienceConfig {
                shed,
                ..default_cfg()
            };
            resilient(&setup, &model, replicas, rate, &FaultPlan::none(), &cfg)
        });
        for (&(name, _), report) in policies.iter().zip(&shed_reports) {
            let s = &report.serving;
            t.push(&[
                name.to_owned(),
                format!("{}/{}", s.completed, s.offered()),
                s.shed.to_string(),
                format!("{:.2}", s.p99_ttft_s),
                format!("{:.0}", s.throughput_tps),
                format!("{:.0}", s.goodput_tps),
                format!("{:.2}", s.slo_attainment),
            ]);
        }
        print!("\n{}", t.render());
    }

    // 3. Recovery claws back goodput after a crash.
    let gaudi = &setups()[0];
    let capacity_rps =
        dcm_bench::offline_capacity_rps(&gaudi.device, gaudi.backend, &model, TRACE_LEN);
    let replicas = 4;
    let rate = CRASH_SWEEP_LOAD * capacity_rps * replicas as f64;
    let (_, span) = trace_for(replicas, rate);
    let recovery_plans = [
        FaultPlan::none().with_crash(0, 0.25 * span),
        FaultPlan::none().with_recovering_crash(0, 0.25 * span, 0.5 * span),
    ];
    let recovery = dcm_bench::sweep(&recovery_plans, |plan| {
        resilient(gaudi, &model, replicas, rate, plan, &default_cfg())
    });
    let (dead, healed) = (&recovery[0], &recovery[1]);
    println!(
        "\nrecovery check (Gaudi-2, 4 replicas, crash at 25% span): \
         goodput {:.0} t/s dead -> {:.0} t/s recovered at 50% span ({})",
        dead.serving.goodput_tps,
        healed.serving.goodput_tps,
        if healed.serving.goodput_tps >= dead.serving.goodput_tps {
            "rejoin recovers capacity, as expected"
        } else {
            "UNEXPECTED: recovery did not help"
        }
    );

    // Graceful-degradation check: under overload the queue cap must bound
    // the p99 TTFT tail relative to the open queue.
    let rate = OVERLOAD * capacity_rps * replicas as f64;
    let degradation_cfgs = [
        default_cfg(),
        ResilienceConfig {
            shed: ShedPolicy::queue_cap(2 * MAX_DECODE_BATCH),
            ..default_cfg()
        },
    ];
    let degradation = dcm_bench::sweep(&degradation_cfgs, |cfg| {
        resilient(gaudi, &model, replicas, rate, &FaultPlan::none(), cfg)
    });
    let (open, capped) = (&degradation[0], &degradation[1]);
    println!(
        "graceful-degradation check (Gaudi-2, 4 replicas, {OVERLOAD}x load): \
         p99 TTFT {:.2}s open queue -> {:.2}s with queue cap, {} shed ({})",
        open.serving.p99_ttft_s,
        capped.serving.p99_ttft_s,
        capped.serving.shed,
        if capped.serving.p99_ttft_s < open.serving.p99_ttft_s && capped.serving.shed > 0 {
            "shedding bounds the tail, as expected"
        } else {
            "UNEXPECTED: no graceful degradation"
        }
    );
}
