//! Extension beyond the paper: online multi-replica serving.
//!
//! Figure 17(d,e) is an offline experiment — every request is queued at
//! `t = 0` and one engine drains the queue. Production serving is an open
//! system: requests arrive over time, are load-balanced across replicas,
//! and the headline metrics are the tails (p99 TTFT) as a function of
//! offered load. This binary sweeps that space on the same cost model:
//!
//! 1. Calibrate each device's single-replica offline capacity
//!    (requests/s) from the Figure 17 trace.
//! 2. Sweep offered load (fractions of aggregate capacity) x replica
//!    count {1, 2, 4, 8} for Gaudi-2 (vLLMopt) and A100 (fused), routing
//!    with join-shortest-queue, and report achieved throughput,
//!    queueing delay, p99 TTFT and replica utilization.
//! 3. Compare routing policies (round-robin / JSQ / least-loaded-KV) at
//!    saturation, where the policy actually matters.
//!
//! The expected shape: achieved throughput tracks offered load until the
//! load factor reaches ~1.0, then saturates, while p99 TTFT diverges
//! past the knee — classic open-system behaviour.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_workloads::llama::LlamaConfig;

/// Offered load as a fraction of aggregate (replicas x single-replica)
/// offline capacity. 1.0 is the saturation knee.
const LOAD_FACTORS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
const REPLICA_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Per-replica requests in the synthetic trace.
const TRACE_LEN: usize = 64;
const TRACE_SEED: u64 = 2026;
const MAX_DECODE_BATCH: usize = 16;

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

fn run_cluster(
    setup: &DeviceSetup,
    model: &LlamaConfig,
    replicas: usize,
    policy: RoutingPolicy,
    rate_rps: f64,
) -> ClusterReport {
    // Scale the trace with the replica count so per-replica pressure is
    // comparable across cluster sizes (otherwise a large cluster swallows
    // a short trace in its aggregate batch slots and no queue ever forms).
    let trace = SyntheticDataset::dynamic_sonnet_online(
        TRACE_LEN * replicas,
        TRACE_SEED,
        &ArrivalProcess::Poisson { rate_rps },
    );
    Cluster::homogeneous(
        &setup.device,
        model,
        1,
        setup.backend,
        MAX_DECODE_BATCH,
        replicas,
        policy,
    )
    .run(&trace)
    .expect("online trace fits")
}

fn main() {
    banner(
        "Extension: online multi-replica serving (open-system sweep)",
        "beyond Figure 17 — throughput-vs-offered-load and p99 TTFT tails \
         across 1-8 replicas; expected: saturating throughput, tail divergence past the knee",
    );
    let model = LlamaConfig::llama31_8b();

    for setup in setups() {
        let capacity_rps =
            dcm_bench::offline_capacity_rps(&setup.device, setup.backend, &model, TRACE_LEN);
        println!(
            "\n{}: single-replica offline capacity {:.2} req/s",
            setup.label, capacity_rps
        );
        let mut t = Table::new(
            format!("{} — offered load sweep (JSQ routing)", setup.label),
            &[
                "replicas",
                "load",
                "offered r/s",
                "achieved r/s",
                "tput t/s",
                "p50 TTFT s",
                "p99 TTFT s",
                "queue p99 s",
                "mean util",
            ],
        );
        // Flatten the replicas x load grid into independent sweep points
        // (each builds its own cluster + trace from seeds), evaluate on
        // DCM_THREADS workers, assemble the table serially in input order.
        let points: Vec<(usize, f64)> = REPLICA_COUNTS
            .into_iter()
            .flat_map(|replicas| LOAD_FACTORS.map(|load| (replicas, load)))
            .collect();
        let reports = dcm_bench::sweep(&points, |&(replicas, load)| {
            let offered = load * capacity_rps * replicas as f64;
            run_cluster(
                &setup,
                &model,
                replicas,
                RoutingPolicy::JoinShortestQueue,
                offered,
            )
        });
        for (&(replicas, load), report) in points.iter().zip(&reports) {
            let offered = load * capacity_rps * replicas as f64;
            let s = &report.serving;
            t.push(&[
                replicas.to_string(),
                format!("{load:.2}"),
                format!("{offered:.2}"),
                format!("{:.2}", s.completed as f64 / s.total_time_s),
                format!("{:.0}", s.throughput_tps),
                format!("{:.2}", s.p50_ttft_s),
                format!("{:.2}", s.p99_ttft_s),
                format!("{:.2}", s.p99_queue_delay_s),
                format!("{:.2}", report.mean_utilization()),
            ]);
        }
        print!("{}", t.render());
    }

    // Routing policies at saturation, where dispatch decisions matter.
    let gaudi = &setups()[0];
    let capacity_rps =
        dcm_bench::offline_capacity_rps(&gaudi.device, gaudi.backend, &model, TRACE_LEN);
    let replicas = 4;
    let offered = 1.5 * capacity_rps * replicas as f64;
    let mut t = Table::new(
        format!("Routing policy comparison — Gaudi-2, {replicas} replicas, 1.5x capacity"),
        &[
            "policy",
            "p50 TTFT s",
            "p99 TTFT s",
            "queue p99 s",
            "imbalance",
        ],
    );
    let policies = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::LeastLoadedKv,
    ];
    let policy_reports = dcm_bench::sweep(&policies, |&policy| {
        run_cluster(gaudi, &model, replicas, policy, offered)
    });
    for (policy, report) in policies.iter().zip(&policy_reports) {
        t.push(&[
            policy.name().to_owned(),
            format!("{:.2}", report.serving.p50_ttft_s),
            format!("{:.2}", report.serving.p99_ttft_s),
            format!("{:.2}", report.serving.p99_queue_delay_s),
            format!("{:.2}", report.dispatch_imbalance()),
        ]);
    }
    print!("\n{}", t.render());

    // Sanity line for the expected open-system shape at 4 replicas.
    let knee_loads = [0.25, 2.0];
    let knee = dcm_bench::sweep(&knee_loads, |&load| {
        run_cluster(
            gaudi,
            &model,
            4,
            RoutingPolicy::JoinShortestQueue,
            load * capacity_rps * 4.0,
        )
    });
    let (low, high) = (&knee[0], &knee[1]);
    println!(
        "\nsaturation check (Gaudi-2, 4 replicas): p99 TTFT {:.2}s at 0.25x load -> {:.2}s at 2.0x load ({})",
        low.serving.p99_ttft_s,
        high.serving.p99_ttft_s,
        if high.serving.p99_ttft_s > 2.0 * low.serving.p99_ttft_s {
            "tail diverges past the knee, as expected"
        } else {
            "UNEXPECTED: no tail divergence"
        }
    );
}
