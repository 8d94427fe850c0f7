//! Differential properties for cluster-scale fast-forward (DESIGN.md
//! §3.8/§3.10): with `Cluster::with_fast_forward(true)` every replica
//! advances steady decode stretches in closed form under lazy
//! per-replica horizons, so wall-clock *timestamps* carry a bounded
//! drift — but every *count* must be exact. Across offline, online
//! (Poisson and bursty), preemption-pressure, seeded-fault and fabric-on
//! workloads on one to three replicas the fast-forward and exact cluster
//! runs must agree on all conservation counters (on one replica also on
//! preemptions and peak batch), the total-time drift must stay inside
//! the documented 5% bound, and the ambient `DCM_THREADS` must never
//! move a bit of either mode. (The single engine's fast-forward cases
//! are in `prop_fast_forward.rs`; the five exact-mode golden reports are
//! pinned separately in `golden_serving.rs`; fast-forward is opt-in and
//! never touches them.)

use dcm_compiler::Device;
use dcm_core::metrics::MetricsMode;
use dcm_core::par::par_map;
use dcm_core::trace::SpanKind;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, FabricConfig, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::fault::{FaultPlan, ResilienceConfig};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

/// Every routing policy, including the ones whose per-arrival reads force
/// a full lazy catch-up (all but `RoundRobin`).
const POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::RoundRobin,
    RoutingPolicy::JoinShortestQueue,
    RoutingPolicy::LeastLoadedKv,
    RoutingPolicy::WeightedJsq,
];

fn cluster(
    n: usize,
    policy: RoutingPolicy,
    max_batch: usize,
    kv_blocks: Option<usize>,
    fast_forward: bool,
) -> Cluster {
    let c = Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
        n,
        policy,
    )
    .with_fast_forward(fast_forward);
    match kv_blocks {
        Some(b) => c.with_kv_blocks(b),
        None => c,
    }
}

/// Per-mode conservation identities that hold regardless of drift: every
/// offered request is accounted for, and in a fault-free run the
/// completed token volume is exactly the trace volume.
fn assert_conserved(report: &ClusterReport, offered: usize) {
    let s = &report.serving;
    assert_eq!(s.completed + s.shed + s.failed, s.offered(), "partition");
    assert_eq!(s.offered(), offered, "requests leaked");
}

/// Cross-mode count equality and the drift bound. Only sound on
/// workloads whose counts are trace-determined (fault-free, no shedding):
/// there completed/shed/failed and the token total do not depend on
/// which replica served which request, so drifted routing cannot move
/// them. One replica has no routing to drift, so its preemptions and
/// peak batch must match too.
fn assert_counts_equal(ff: &ClusterReport, exact: &ClusterReport) {
    assert_eq!(ff.serving.completed, exact.serving.completed, "completed");
    assert_eq!(
        ff.serving.total_output_tokens, exact.serving.total_output_tokens,
        "token totals"
    );
    assert_eq!(ff.serving.shed, exact.serving.shed);
    assert_eq!(ff.serving.failed, exact.serving.failed);
    if exact.per_replica.len() == 1 {
        assert_eq!(
            ff.serving.preemptions, exact.serving.preemptions,
            "preemption placement"
        );
        assert_eq!(ff.serving.peak_batch, exact.serving.peak_batch);
    }
    if exact.serving.total_time_s > 0.0 {
        let drift = (ff.serving.total_time_s / exact.serving.total_time_s - 1.0).abs();
        assert!(drift < 0.05, "clock drift {drift} exceeds 5%");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Offline traces (everything arrives at t=0, the paper's Figure 17
    /// setup) across replica counts, batch caps and every routing
    /// policy: counts exact, drift bounded, conservation in both modes.
    #[test]
    fn offline_cluster_counts_are_identical(
        n in 1usize..24,
        seed in 0u64..1000,
        replicas in 1usize..4,
        policy_idx in 0usize..4,
        max_batch in 1usize..12,
    ) {
        let reqs = SyntheticDataset::dynamic_sonnet(n, seed);
        let policy = POLICIES[policy_idx];
        let exact = cluster(replicas, policy, max_batch, None, false).run(&reqs).unwrap();
        let ff = cluster(replicas, policy, max_batch, None, true).run(&reqs).unwrap();
        assert_conserved(&exact, n);
        assert_conserved(&ff, n);
        assert_counts_equal(&ff, &exact);
    }

    /// Online traces with seeded Poisson and bursty arrivals: every
    /// stretch must stop at (or before) the next arrival that could
    /// change the schedule, on every replica, under every policy.
    #[test]
    fn online_cluster_counts_are_identical(
        n in 1usize..20,
        seed in 0u64..1000,
        rate_x10 in 1u32..200,
        bursty in 0u8..2,
        replicas in 1usize..4,
        policy_idx in 0usize..4,
    ) {
        let rate_rps = f64::from(rate_x10) / 10.0;
        let process = if bursty == 0 {
            ArrivalProcess::Poisson { rate_rps }
        } else {
            ArrivalProcess::Bursty { rate_rps, burst: 4 }
        };
        let reqs = SyntheticDataset::dynamic_sonnet_online(n, seed, &process);
        let policy = POLICIES[policy_idx];
        let exact = cluster(replicas, policy, 8, None, false).run(&reqs).unwrap();
        let ff = cluster(replicas, policy, 8, None, true).run(&reqs).unwrap();
        assert_conserved(&exact, n);
        assert_conserved(&ff, n);
        assert_counts_equal(&ff, &exact);
    }

    /// Tight KV caches force preemptions; the capacity cap must stop
    /// every stretch before exhaustion so preemptions land identically.
    #[test]
    fn preemption_pressure_counts_are_identical(
        n in 2usize..8,
        gen in 50usize..300,
        blocks in 6usize..20,
        replicas in 1usize..3,
    ) {
        // Bounded request shape (256-token prompt, ≤300-token generation)
        // so even the smallest cache fits one request — the pressure comes
        // from concurrency, forcing mid-run preemptions.
        let reqs = SyntheticDataset::fixed(n, 256, gen);
        let policy = RoutingPolicy::RoundRobin;
        let exact = cluster(replicas, policy, 4, Some(blocks), false).run(&reqs).unwrap();
        let ff = cluster(replicas, policy, 4, Some(blocks), true).run(&reqs).unwrap();
        assert_conserved(&exact, n);
        assert_conserved(&ff, n);
        assert_counts_equal(&ff, &exact);
    }
}

/// Seeded fault workload: a replica crashes and recovers mid-run while
/// another runs slow; every displaced request is retried to completion
/// in both modes, so the counts are trace-determined and must match.
#[test]
fn seeded_fault_cluster_counts_are_identical() {
    let reqs =
        SyntheticDataset::dynamic_sonnet_online(20, 23, &ArrivalProcess::Poisson { rate_rps: 8.0 });
    let expected_tokens: usize = reqs.iter().map(|r| r.output_len).sum();
    let plan = FaultPlan::none()
        .with_recovering_crash(1, 1.0, 3.0)
        .with_slowdown(0, 0.5, 1.5, 2.0);
    let cfg = ResilienceConfig::default();
    let run = |fast_forward: bool| {
        cluster(3, RoutingPolicy::JoinShortestQueue, 8, None, fast_forward)
            .run_resilient(&reqs, &plan, &cfg)
            .unwrap()
    };
    let exact = run(false);
    let ff = run(true);
    assert_conserved(&exact, 20);
    assert_conserved(&ff, 20);
    assert_eq!(ff.serving.completed, exact.serving.completed);
    assert_eq!(ff.serving.completed, 20, "every request must complete");
    assert_eq!(ff.serving.shed, exact.serving.shed);
    assert_eq!(ff.serving.failed, exact.serving.failed);
    // Completed-token totals are trace-determined: output tokens minus
    // crash-lost (re-generated) tokens is exactly the completed volume.
    for report in [&exact, &ff] {
        assert_eq!(
            report.serving.total_output_tokens - report.serving.lost_tokens,
            expected_tokens
        );
    }
}

/// A control-plane fabric forces an eager `advance_live` at every
/// delivery instant — the opposite extreme from the lazy round-robin
/// path. Fast-forward must compose with it without moving a count.
#[test]
fn fabric_on_cluster_counts_are_identical() {
    let reqs = SyntheticDataset::dynamic_sonnet_online(
        18,
        41,
        &ArrivalProcess::Poisson { rate_rps: 12.0 },
    );
    let fabric = FabricConfig {
        dispatch_bytes: 256 << 10,
        link_bps: 1.0e8,
        latency_s: 1.0e-3,
    };
    let run = |fast_forward: bool| {
        cluster(3, RoutingPolicy::LeastLoadedKv, 8, None, fast_forward)
            .with_fabric(fabric)
            .run(&reqs)
            .unwrap()
    };
    let exact = run(false);
    let ff = run(true);
    assert_conserved(&exact, 18);
    assert_conserved(&ff, 18);
    assert_counts_equal(&ff, &exact);
}

/// Fast-forward composes with histogram metrics — the million-request
/// cluster configuration — without disturbing any count, and the pooled
/// percentiles stay finite.
#[test]
fn histogram_metrics_cluster_preserves_counts() {
    let reqs =
        SyntheticDataset::dynamic_sonnet_online(16, 7, &ArrivalProcess::Poisson { rate_rps: 10.0 });
    let exact = cluster(2, RoutingPolicy::JoinShortestQueue, 8, None, false)
        .run(&reqs)
        .unwrap();
    let both = cluster(2, RoutingPolicy::JoinShortestQueue, 8, None, true)
        .with_metrics_mode(MetricsMode::Histogram)
        .run(&reqs)
        .unwrap();
    assert_eq!(both.serving.completed, exact.serving.completed);
    assert_eq!(
        both.serving.total_output_tokens,
        exact.serving.total_output_tokens
    );
    assert!(both.serving.mean_ttft_s.is_finite());
    assert!(both.serving.p99_ttft_s.is_finite());
    assert!(both.serving.p99_tpot_s.is_finite());
}

/// Cluster fast-forward must actually engage: with round-robin routing
/// and arrivals in waves of one full cluster batch, every replica's
/// decode plateaus are steady, so the traced run records at least 100×
/// fewer decode spans than exact stepping. Counts, not wall time, so the
/// floor holds on any host. (The one-replica plateau is
/// `prop_fast_forward.rs`'s `fast_forward_collapses_a_steady_decode_plateau`.)
#[test]
fn cluster_ff_collapses_wave_aligned_decode_plateaus() {
    const REPLICAS: usize = 4;
    let wave = REPLICAS * 8;
    let mut reqs = SyntheticDataset::fixed(2 * wave, 128, 1024);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.arrival_s = if i < wave { 0.0 } else { 4.0 };
    }
    let run = |fast_forward: bool| {
        cluster(REPLICAS, RoutingPolicy::RoundRobin, 8, None, fast_forward)
            .run_traced(&reqs)
            .unwrap()
    };
    let (exact, exact_trace) = run(false);
    let (ff, ff_trace) = run(true);
    assert_counts_equal(&ff, &exact);
    let (exact_steps, ff_steps) = (
        exact_trace.count_of(SpanKind::Decode),
        ff_trace.count_of(SpanKind::Decode),
    );
    assert!(
        ff_steps * 100 <= exact_steps,
        "fast-forward took {ff_steps} decode spans vs {exact_steps} exact"
    );
}

/// Cluster runs (both modes) are pure functions of their inputs:
/// sweeping them through `par_map` at different thread counts yields
/// bit-identical digests, so `DCM_THREADS` cannot move a report.
#[test]
fn cluster_ff_is_bit_identical_across_thread_counts() {
    let cases: Vec<(u64, usize, bool)> = (0..6usize)
        .map(|i| {
            let seed = u64::try_from(i).expect("small") * 31 + 5;
            (seed, i % 4, i % 2 == 0)
        })
        .collect();
    let eval = |&(seed, policy_idx, fast_forward): &(u64, usize, bool)| {
        let reqs = SyntheticDataset::dynamic_sonnet_online(
            12,
            seed,
            &ArrivalProcess::Poisson { rate_rps: 10.0 },
        );
        let report = cluster(3, POLICIES[policy_idx], 8, None, fast_forward)
            .run(&reqs)
            .unwrap();
        (
            report.serving.completed,
            report.serving.total_output_tokens,
            report.serving.total_time_s.to_bits(),
            report.serving.mean_ttft_s.to_bits(),
            report.serving.p99_ttft_s.to_bits(),
        )
    };
    let serial = par_map(&cases, 1, eval);
    let par2 = par_map(&cases, 2, eval);
    let par4 = par_map(&cases, 4, eval);
    assert_eq!(serial, par2);
    assert_eq!(serial, par4);
}
