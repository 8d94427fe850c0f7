//! Equivalence tests for the analytic fast-forward path on the single
//! engine. `ServingEngine::run` is a one-replica round-robin run of the
//! cluster loop with exact stepping, so fast-forward is switched on
//! through a one-replica `Cluster::with_fast_forward(true)` and checked
//! against the engine's own `run`. Steady decode stretches advance in
//! closed form, so wall-clock *timestamps* are approximate — but every
//! *count* must be exact. Across randomized offline and online (seeded
//! Poisson/bursty arrivals) traces, a seeded-fault cluster, a steady
//! decode plateau and histogram metrics, the completed/shed/failed
//! counts and the token totals of completed requests must be identical
//! with fast-forward on and off. (Properties on several replicas, and
//! the preemption-pressure property, are in `prop_cluster_ff.rs`; the
//! five exact-mode golden reports are pinned separately in
//! `golden_serving.rs`; fast-forward is opt-in and never touches them.)

use dcm_compiler::Device;
use dcm_core::metrics::MetricsMode;
use dcm_core::trace::SpanKind;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, Request, SyntheticDataset};
use dcm_vllm::engine::ServingEngine;
use dcm_vllm::fault::{FaultPlan, ResilienceConfig};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

fn engine(max_batch: usize) -> ServingEngine {
    ServingEngine::new(
        &Device::gaudi2(),
        LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
    )
}

/// The engine as a one-replica cluster, so the fast-forward and metrics
/// knobs (which live on `Cluster`) can be set.
fn solo(max_batch: usize, fast_forward: bool) -> Cluster {
    Cluster::new(vec![engine(max_batch)], RoutingPolicy::RoundRobin).with_fast_forward(fast_forward)
}

/// Run the trace exactly on the engine and fast-forwarded on its
/// one-replica cluster; assert count equivalence and bounded clock
/// drift.
fn assert_equivalent(reqs: &[Request], max_batch: usize) {
    let exact = engine(max_batch).run(reqs).unwrap();
    let ff = solo(max_batch, true).run(reqs).unwrap().serving;
    assert_eq!(ff.completed, exact.completed, "completed count");
    assert_eq!(
        ff.total_output_tokens, exact.total_output_tokens,
        "token totals"
    );
    assert_eq!(ff.shed, exact.shed);
    assert_eq!(ff.failed, exact.failed);
    assert_eq!(ff.preemptions, exact.preemptions, "preemption placement");
    assert_eq!(ff.peak_batch, exact.peak_batch);
    if exact.total_time_s > 0.0 {
        let drift = (ff.total_time_s / exact.total_time_s - 1.0).abs();
        assert!(drift < 0.05, "clock drift {drift} exceeds 5%");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Offline traces (the paper's Figure 17 setup) across random sizes,
    /// batch caps and generation lengths.
    #[test]
    fn offline_counts_are_identical(
        n in 1usize..24,
        seed in 0u64..1000,
        max_batch in 1usize..12,
    ) {
        let reqs = SyntheticDataset::dynamic_sonnet(n, seed);
        assert_equivalent(&reqs, max_batch);
    }

    /// Online traces with seeded Poisson and bursty arrival processes:
    /// the stretch must stop at every arrival.
    #[test]
    fn online_arrival_counts_are_identical(
        n in 1usize..20,
        seed in 0u64..1000,
        rate_x10 in 1u32..200,
        bursty in 0u8..2,
    ) {
        let rate_rps = f64::from(rate_x10) / 10.0;
        let process = if bursty == 0 {
            ArrivalProcess::Poisson { rate_rps }
        } else {
            ArrivalProcess::Bursty { rate_rps, burst: 4 }
        };
        let reqs = SyntheticDataset::dynamic_sonnet_online(n, seed, &process);
        assert_equivalent(&reqs, 8);
    }
}

/// Seeded fault + arrival workload on a cluster: a replica crashes and
/// recovers mid-run; every displaced request is retried to completion in
/// both modes, so completed/shed/failed and completed-token totals are
/// trace-determined and must match exactly.
#[test]
fn seeded_fault_cluster_counts_are_identical() {
    let reqs = SyntheticDataset::dynamic_sonnet_online(
        24,
        17,
        &ArrivalProcess::Poisson { rate_rps: 10.0 },
    );
    let expected_tokens: usize = reqs.iter().map(|r| r.output_len).sum();
    let plan = FaultPlan::none()
        .with_recovering_crash(1, 1.0, 3.0)
        .with_slowdown(0, 0.5, 1.5, 2.0);
    let cfg = ResilienceConfig::default();
    let run = |fast_forward: bool| {
        let replicas: Vec<ServingEngine> = (0..3).map(|_| engine(4)).collect();
        Cluster::new(replicas, RoutingPolicy::JoinShortestQueue)
            .with_fast_forward(fast_forward)
            .run_resilient(&reqs, &plan, &cfg)
            .unwrap()
    };
    let exact = run(false);
    let ff = run(true);
    assert_eq!(ff.serving.completed, exact.serving.completed);
    assert_eq!(ff.serving.completed, 24, "every request must complete");
    assert_eq!(ff.serving.shed, exact.serving.shed);
    assert_eq!(ff.serving.failed, exact.serving.failed);
    assert_eq!(ff.serving.shed, 0);
    assert_eq!(ff.serving.failed, 0);
    // Completed-token totals are trace-determined: output tokens minus
    // crash-lost (re-generated) tokens is exactly the completed volume.
    assert_eq!(
        ff.serving.total_output_tokens - ff.serving.lost_tokens,
        expected_tokens
    );
    assert_eq!(
        exact.serving.total_output_tokens - exact.serving.lost_tokens,
        expected_tokens
    );
}

/// Fast-forward must actually engage: on one wave of fixed-shape
/// generations the whole decode plateau is steady, so the traced run
/// records at least 100× fewer decode spans (one per exact step, one per
/// fast-forward stretch) than exact stepping. Counts, not wall time, so
/// the floor holds on any host.
#[test]
fn fast_forward_collapses_a_steady_decode_plateau() {
    let reqs = SyntheticDataset::fixed(8, 128, 1024);
    let (exact, exact_trace) = solo(8, false).run_traced(&reqs).unwrap();
    let (ff, ff_trace) = solo(8, true).run_traced(&reqs).unwrap();
    assert_eq!(
        ff.serving.total_output_tokens,
        exact.serving.total_output_tokens
    );
    let (exact_steps, ff_steps) = (
        exact_trace.count_of(SpanKind::Decode),
        ff_trace.count_of(SpanKind::Decode),
    );
    assert!(
        ff_steps * 100 <= exact_steps,
        "fast-forward took {ff_steps} decode spans vs {exact_steps} exact"
    );
}

/// Fast-forward composes with histogram metrics — the million-request
/// configuration — without disturbing any count.
#[test]
fn fast_forward_with_histogram_metrics_preserves_counts() {
    let reqs = SyntheticDataset::fixed(16, 128, 256);
    let exact = engine(8).run(&reqs).unwrap();
    let both = solo(8, true)
        .with_metrics_mode(MetricsMode::Histogram)
        .run(&reqs)
        .unwrap()
        .serving;
    assert_eq!(both.completed, exact.completed);
    assert_eq!(both.total_output_tokens, exact.total_output_tokens);
    assert_eq!(both.peak_batch, exact.peak_batch);
    assert!(both.mean_ttft_s.is_finite() && both.p99_tpot_s.is_finite());
}
