//! Metamorphic property of exact stretches: where a stretch is cut moves
//! no bit. An exact-mode replica advances its batch to the next batch
//! change in one pass, but a catch-up to an instant the cluster must
//! observe cuts that pass short. One replica serves the same online trace
//! under three cutting schedules, and every report must be the same, every
//! float compared by its bits:
//!
//! * round-robin, which never advances the replica early, so stretches
//!   end only at batch changes and admissible arrivals;
//! * join-shortest-queue and least-loaded-KV, which read the replica and
//!   so advance it to every arrival instant;
//! * round-robin under 1–8 non-overlapping slowdown windows of factor
//!   1.0 at random instants, whose edges force catch-ups and change no
//!   step time.
//!
//! Small KV caps make sequences preempt, so stretches also end at the
//! preemption steps run token by token.

use dcm_compiler::Device;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, ReplicaStats, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, Request, SyntheticDataset};
use dcm_vllm::engine::{ServingEngine, ServingReport};
use dcm_vllm::fault::{FaultPlan, ResilienceConfig};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

/// Every number a one-replica report carries, floats as bit patterns.
/// The destructuring names every field, so a new one fails to compile
/// until it is compared too.
fn report_bits(report: &ClusterReport) -> Vec<u64> {
    let ServingReport {
        completed,
        total_output_tokens,
        total_time_s,
        throughput_tps,
        mean_ttft_s,
        mean_tpot_s,
        p50_ttft_s,
        p95_ttft_s,
        p99_ttft_s,
        p50_tpot_s,
        p95_tpot_s,
        p99_tpot_s,
        mean_queue_delay_s,
        p99_queue_delay_s,
        peak_batch,
        preemptions,
        shed,
        failed,
        retries,
        lost_tokens,
        goodput_tps,
        slo_attainment,
    } = report.serving;
    let mut bits: Vec<u64> = [
        total_time_s,
        throughput_tps,
        mean_ttft_s,
        mean_tpot_s,
        p50_ttft_s,
        p95_ttft_s,
        p99_ttft_s,
        p50_tpot_s,
        p95_tpot_s,
        p99_tpot_s,
        mean_queue_delay_s,
        p99_queue_delay_s,
        goodput_tps,
        slo_attainment,
    ]
    .map(f64::to_bits)
    .to_vec();
    let counts = [
        completed,
        total_output_tokens,
        peak_batch,
        preemptions,
        shed,
        failed,
        retries,
        lost_tokens,
    ];
    bits.extend(counts.map(|c| c as u64));
    for &ReplicaStats {
        dispatched,
        completed,
        output_tokens,
        busy_s,
        utilization,
        preemptions,
        crashes,
    } in &report.per_replica
    {
        bits.extend([dispatched, completed, output_tokens, preemptions, crashes].map(|c| c as u64));
        bits.extend([busy_s.to_bits(), utilization.to_bits()]);
    }
    bits
}

/// A Dynamic-Sonnet online trace with prompts cut to an eighth, so that
/// decode growth, not admission, fills a small KV cache.
fn trace(n: usize, seed: u64, process: &ArrivalProcess) -> Vec<Request> {
    let mut reqs = SyntheticDataset::dynamic_sonnet_online(n, seed, process);
    for r in &mut reqs {
        r.input_len /= 8;
    }
    reqs
}

/// KV blocks of 128 tokens that hold any one request of `reqs` alone,
/// with room for a resumed sequence's extra slot.
fn lone_fit_blocks(reqs: &[Request]) -> usize {
    reqs.iter()
        .map(|r| (r.input_len + r.output_len + 2).div_ceil(128))
        .max()
        .unwrap_or(1)
}

/// The report of `reqs` on one exact-mode replica under `policy` and
/// `plan`, or the error's text.
fn serve(
    reqs: &[Request],
    max_batch: usize,
    kv_blocks: usize,
    policy: RoutingPolicy,
    plan: &FaultPlan,
) -> Result<ClusterReport, String> {
    let engine = ServingEngine::new(
        &Device::gaudi2(),
        LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
    )
    .with_kv_blocks(kv_blocks);
    Cluster::new(vec![engine], policy)
        .run_resilient(reqs, plan, &ResilienceConfig::default())
        .map_err(|e| e.to_string())
}

/// `windows` non-overlapping unit-factor slowdowns of replica 0, their
/// edges at the sorted distinct instants `marks` (in milliseconds).
fn unit_slowdowns(marks: &[u32], windows: usize) -> FaultPlan {
    let mut edges: Vec<f64> = marks.iter().map(|&ms| f64::from(ms) * 1e-3).collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    edges
        .chunks_exact(2)
        .take(windows)
        .fold(FaultPlan::none(), |plan, w| {
            plan.with_slowdown(0, w[0], w[1], 1.0)
        })
}

/// Serve `reqs` under every cutting schedule and assert one report, or
/// one error. Returns the round-robin run's, for the caller's own checks.
fn assert_cuts_agree(
    reqs: &[Request],
    max_batch: usize,
    kv_blocks: usize,
    plan: &FaultPlan,
) -> Result<ClusterReport, String> {
    let none = FaultPlan::none();
    let bits =
        |run: &Result<ClusterReport, String>| run.as_ref().map(report_bits).map_err(String::clone);
    let lazy = serve(reqs, max_batch, kv_blocks, RoutingPolicy::RoundRobin, &none);
    for policy in [
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::LeastLoadedKv,
    ] {
        let eager = serve(reqs, max_batch, kv_blocks, policy, &none);
        assert_eq!(
            bits(&eager),
            bits(&lazy),
            "{} cuts moved a bit",
            policy.name()
        );
    }
    let windowed = serve(reqs, max_batch, kv_blocks, RoutingPolicy::RoundRobin, plan);
    assert_eq!(
        bits(&windowed),
        bits(&lazy),
        "unit slowdown windows moved a bit"
    );
    lazy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Poisson and bursty online traces under KV pressure: every cutting
    /// schedule gives the same report.
    #[test]
    fn cutting_exact_stretches_moves_no_bit(
        n in 2usize..16,
        seed in 0u64..1000,
        rate_x10 in 5u32..300,
        bursty in 0u8..2,
        max_batch in 2usize..9,
        extra_blocks in 0usize..24,
        windows in 1usize..9,
        marks in proptest::collection::vec(0u32..20_000, 16..17),
    ) {
        let rate_rps = f64::from(rate_x10) / 10.0;
        let process = if bursty == 0 {
            ArrivalProcess::Poisson { rate_rps }
        } else {
            ArrivalProcess::Bursty { rate_rps, burst: 4 }
        };
        let reqs = trace(n, seed, &process);
        let kv_blocks = lone_fit_blocks(&reqs) + extra_blocks;
        let plan = unit_slowdowns(&marks, windows);
        assert_cuts_agree(&reqs, max_batch, kv_blocks, &plan).unwrap();
    }
}

/// The property is not vacuous: on this trace the cap forces
/// preemptions, the windows fall inside the run, and still no cut moves a
/// bit.
#[test]
fn cuts_agree_under_preemption() {
    let reqs = trace(
        12,
        3,
        &ArrivalProcess::Bursty {
            rate_rps: 20.0,
            burst: 4,
        },
    );
    let kv_blocks = lone_fit_blocks(&reqs);
    let plan = unit_slowdowns(&[150, 400, 900, 1300, 2100, 2600, 3000, 3700], 4);
    let report = assert_cuts_agree(&reqs, 4, kv_blocks, &plan)
        .unwrap()
        .serving;
    assert!(report.total_time_s > 3.7, "the last window ends in the run");
    assert_eq!(report.completed, 12);
    assert!(report.preemptions > 0, "the KV cap must force preemptions");
}
