//! Extension beyond the paper: heterogeneous Gaudi-2 + A100 clusters.
//!
//! The paper benchmarks each device in isolation; a fleet operator who
//! owns both asks a different question — how should a *mixed* pool be
//! routed, and how much does device-aware dispatch buy over
//! device-blind policies? This binary sweeps Gaudi-2/A100 replica mixes
//! x routing policies on the shared cost model:
//!
//! 1. Calibrate each device's single-replica offline capacity from the
//!    Figure 17 trace (Gaudi-2 runs vLLMopt, A100 runs the fused
//!    kernel, per the paper's best-known configurations).
//! 2. For every mix of a fixed-size pool (all-Gaudi ... all-A100),
//!    offer a fixed fraction of the mix's aggregate capacity and
//!    compare round-robin, join-shortest-queue, least-loaded-KV, and
//!    speed-weighted JSQ (`wjsq`, which scales queue depth by peak
//!    BF16 FLOPS so the faster device absorbs proportionally more).
//! 3. Export the headline heatmaps as CSV under `results/`, plus a
//!    Chrome `trace_event` JSON + per-request CSV of one traced mixed
//!    run for chrome://tracing / Perfetto (see EXPERIMENTS.md).
//!
//! Every report is checked for conservation (completed + shed + failed
//! equals offered) and finiteness before it is tabulated.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::{Heatmap, Table};
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::engine::ServingEngine;
use dcm_workloads::llama::LlamaConfig;
use std::path::Path;

const TRACE_SEED: u64 = 2026;
const MAX_DECODE_BATCH: usize = 16;
/// Offered load as a fraction of the mix's aggregate offline capacity.
/// 0.75 keeps queues busy without saturating, so routing quality (not
/// raw capacity) dominates the tails.
const LOAD_FACTOR: f64 = 0.75;

const POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::RoundRobin,
    RoutingPolicy::JoinShortestQueue,
    RoutingPolicy::LeastLoadedKv,
    RoutingPolicy::WeightedJsq,
];

/// Per-replica requests in the synthetic trace.
const TRACE_LEN: usize = 48;

/// Pool size to sweep mixes over.
const POOL_SIZE: usize = 4;

/// A Gaudi-2 replica with vLLMopt attention.
fn gaudi_replica() -> (Device, PagedBackend) {
    (Device::gaudi2(), PagedBackend::GaudiOpt)
}

/// An A100 replica with the fused attention kernel.
fn a100_replica() -> (Device, PagedBackend) {
    (Device::a100(), PagedBackend::A100Fused)
}

/// A mixed pool: `n_gaudi` Gaudi-2 replicas followed by `n_a100` A100
/// replicas, all serving the same model.
fn mixed_cluster(
    n_gaudi: usize,
    n_a100: usize,
    model: &LlamaConfig,
    policy: RoutingPolicy,
) -> Cluster {
    let (gaudi, a100) = (gaudi_replica(), a100_replica());
    let replicas = std::iter::repeat_n(&gaudi, n_gaudi)
        .chain(std::iter::repeat_n(&a100, n_a100))
        .map(|(device, backend)| {
            ServingEngine::new(device, model.clone(), 1, *backend, MAX_DECODE_BATCH)
        })
        .collect();
    Cluster::new(replicas, policy)
}

/// Conservation + finiteness checks every tabulated report must pass.
fn check_report(report: &ClusterReport, offered: usize, what: &str) {
    let s = &report.serving;
    assert_eq!(
        s.completed + s.shed + s.failed,
        offered,
        "{what}: request conservation violated"
    );
    for (v, name) in [
        (s.throughput_tps, "throughput"),
        (s.p99_ttft_s, "p99 TTFT"),
        (s.p99_queue_delay_s, "p99 queue delay"),
        (report.mean_utilization(), "mean utilization"),
        (report.dispatch_imbalance(), "dispatch imbalance"),
    ] {
        assert!(v.is_finite(), "{what}: {name} is not finite ({v})");
    }
}

fn run_mix(
    n_gaudi: usize,
    n_a100: usize,
    model: &LlamaConfig,
    policy: RoutingPolicy,
    rate_rps: f64,
) -> ClusterReport {
    let n = n_gaudi + n_a100;
    let trace = SyntheticDataset::dynamic_sonnet_online(
        TRACE_LEN * n,
        TRACE_SEED,
        &ArrivalProcess::Poisson { rate_rps },
    );
    let report = mixed_cluster(n_gaudi, n_a100, model, policy)
        .run(&trace)
        .expect("online trace fits");
    check_report(
        &report,
        trace.len(),
        &format!("{n_gaudi}G+{n_a100}A {}", policy.name()),
    );
    report
}

fn main() {
    banner(
        "Extension: heterogeneous Gaudi-2 + A100 cluster serving",
        "beyond Figure 17 — mixed-device pools need device-aware routing; \
         expected: wjsq matches JSQ on uniform pools and beats device-blind \
         policies on skewed mixes",
    );
    let model = LlamaConfig::llama31_8b();
    let caps = dcm_bench::sweep(&[gaudi_replica(), a100_replica()], |(device, backend)| {
        dcm_bench::offline_capacity_rps(device, *backend, &model, TRACE_LEN)
    });
    let (gaudi_rps, a100_rps) = (caps[0], caps[1]);
    println!(
        "\nsingle-replica offline capacity: Gaudi-2 {gaudi_rps:.2} req/s, A100 {a100_rps:.2} req/s"
    );

    let results_dir = Path::new("results");
    let policy_cols: Vec<String> = POLICIES.iter().map(|p| p.name().to_owned()).collect();
    let mut p99_map = Heatmap::new(
        "ext hetero cluster: p99 TTFT (s) by mix x policy",
        "mix",
        "policy",
        policy_cols.clone(),
    );
    let mut tput_map = Heatmap::new(
        "ext hetero cluster: throughput (tokens/s) by mix x policy",
        "mix",
        "policy",
        policy_cols,
    );

    let mut t = Table::new(
        format!("Mix sweep — {POOL_SIZE}-replica pool at {LOAD_FACTOR:.2}x aggregate capacity"),
        &[
            "mix",
            "policy",
            "tput t/s",
            "p99 TTFT s",
            "queue p99 s",
            "imbalance",
            "mean util",
        ],
    );
    // Flatten the mix x policy grid into independent sweep points; each
    // point builds its own cluster and trace from seeds, so the grid can
    // run on any DCM_THREADS with byte-identical tables and CSVs.
    let points: Vec<(usize, RoutingPolicy)> = (0..=POOL_SIZE)
        .rev()
        .flat_map(|n_gaudi| POLICIES.into_iter().map(move |p| (n_gaudi, p)))
        .collect();
    let reports = dcm_bench::sweep(&points, |&(n_gaudi, policy)| {
        let n_a100 = POOL_SIZE - n_gaudi;
        let aggregate = gaudi_rps * n_gaudi as f64 + a100_rps * n_a100 as f64;
        run_mix(n_gaudi, n_a100, &model, policy, LOAD_FACTOR * aggregate)
    });
    for (mix_idx, chunk) in reports.chunks(POLICIES.len()).enumerate() {
        let n_gaudi = POOL_SIZE - mix_idx;
        let mix = format!("{n_gaudi}G+{}A", POOL_SIZE - n_gaudi);
        let mut p99_row = Vec::new();
        let mut tput_row = Vec::new();
        for (policy, report) in POLICIES.iter().zip(chunk) {
            let s = &report.serving;
            t.push(&[
                mix.clone(),
                policy.name().to_owned(),
                format!("{:.0}", s.throughput_tps),
                format!("{:.2}", s.p99_ttft_s),
                format!("{:.2}", s.p99_queue_delay_s),
                format!("{:.2}", report.dispatch_imbalance()),
                format!("{:.2}", report.mean_utilization()),
            ]);
            p99_row.push(s.p99_ttft_s);
            tput_row.push(s.throughput_tps);
        }
        p99_map.push_row(mix.clone(), p99_row);
        tput_map.push_row(mix, tput_row);
    }
    print!("{}", t.render());
    dcm_bench::write_artifact(
        &results_dir.join("ext_hetero_p99_ttft.csv"),
        &p99_map.to_csv(),
    );
    dcm_bench::write_artifact(
        &results_dir.join("ext_hetero_throughput.csv"),
        &tput_map.to_csv(),
    );

    // Device-aware routing headline: on the most skewed mixed pool,
    // how much load does each policy send to the fast device?
    let n_gaudi = 1;
    let n_a100 = POOL_SIZE - 1;
    let aggregate = gaudi_rps * n_gaudi as f64 + a100_rps * n_a100 as f64;
    let mut t = Table::new(
        format!("Dispatch split on the skewed mix ({n_gaudi}G+{n_a100}A)"),
        &["policy", "to Gaudi-2", "to A100", "p99 TTFT s"],
    );
    let split_reports = dcm_bench::sweep(&POLICIES, |&policy| {
        run_mix(n_gaudi, n_a100, &model, policy, LOAD_FACTOR * aggregate)
    });
    for (policy, report) in POLICIES.iter().zip(&split_reports) {
        // Gaudi-2 replicas come first in every mixed pool.
        let (gaudi_reps, a100_reps) = report.per_replica.split_at(n_gaudi);
        let to_gaudi: usize = gaudi_reps.iter().map(|r| r.dispatched).sum();
        let to_a100: usize = a100_reps.iter().map(|r| r.dispatched).sum();
        t.push(&[
            policy.name().to_owned(),
            to_gaudi.to_string(),
            to_a100.to_string(),
            format!("{:.2}", report.serving.p99_ttft_s),
        ]);
    }
    print!("\n{}", t.render());

    // Traced run of an even mix: Chrome trace JSON + per-request CSV.
    let n_gaudi = POOL_SIZE.div_ceil(2);
    let n_a100 = POOL_SIZE - n_gaudi;
    let aggregate = gaudi_rps * n_gaudi as f64 + a100_rps * n_a100 as f64;
    let trace_in = SyntheticDataset::dynamic_sonnet_online(
        TRACE_LEN * POOL_SIZE,
        TRACE_SEED,
        &ArrivalProcess::Poisson {
            rate_rps: LOAD_FACTOR * aggregate,
        },
    );
    let (report, trace) = mixed_cluster(n_gaudi, n_a100, &model, RoutingPolicy::WeightedJsq)
        .run_traced(&trace_in)
        .expect("online trace fits");
    check_report(&report, trace_in.len(), "traced even mix");
    let request_spans = trace.count_of(dcm_core::trace::SpanKind::Request);
    assert!(
        request_spans >= report.serving.completed,
        "trace must carry at least one span per completed request \
         ({request_spans} spans, {} completed)",
        report.serving.completed
    );
    dcm_bench::write_artifact(
        &results_dir.join("ext_hetero_trace.json"),
        &trace.to_chrome_json(),
    );
    dcm_bench::write_artifact(
        &results_dir.join("ext_hetero_requests.csv"),
        &trace.request_csv(),
    );
    println!(
        "\ntraced {n_gaudi}G+{n_a100}A wjsq run: {} completed, {request_spans} request spans, \
         {} total spans (load results/ext_hetero_trace.json in chrome://tracing)",
        report.serving.completed,
        trace.spans().len()
    );
}
