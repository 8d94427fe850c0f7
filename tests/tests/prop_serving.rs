//! Property tests for online serving: token conservation under arbitrary
//! arrival patterns, offline equivalence of the cluster path, load/tail
//! monotonicity, and bit-exact determinism of seeded cluster runs.

use dcm_compiler::Device;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, Request, SyntheticDataset};
use dcm_vllm::engine::{ServingEngine, ServingReport};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

/// Every float a [`ServingReport`] exposes, for finiteness sweeps.
fn serving_floats(r: &ServingReport) -> Vec<(&'static str, f64)> {
    vec![
        ("total_time_s", r.total_time_s),
        ("throughput_tps", r.throughput_tps),
        ("goodput_tps", r.goodput_tps),
        ("slo_attainment", r.slo_attainment),
        ("mean_ttft_s", r.mean_ttft_s),
        ("mean_tpot_s", r.mean_tpot_s),
        ("p50_ttft_s", r.p50_ttft_s),
        ("p95_ttft_s", r.p95_ttft_s),
        ("p99_ttft_s", r.p99_ttft_s),
        ("p50_tpot_s", r.p50_tpot_s),
        ("p95_tpot_s", r.p95_tpot_s),
        ("p99_tpot_s", r.p99_tpot_s),
        ("mean_queue_delay_s", r.mean_queue_delay_s),
        ("p99_queue_delay_s", r.p99_queue_delay_s),
    ]
}

/// Every float a [`ClusterReport`] exposes, including per-replica stats.
fn cluster_floats(r: &ClusterReport) -> Vec<(&'static str, f64)> {
    let mut floats = serving_floats(&r.serving);
    for rep in &r.per_replica {
        floats.push(("busy_s", rep.busy_s));
        floats.push(("utilization", rep.utilization));
    }
    floats.push(("dispatch_imbalance", r.dispatch_imbalance()));
    floats.push(("mean_utilization", r.mean_utilization()));
    floats
}

fn engine(max_batch: usize) -> ServingEngine {
    ServingEngine::new(
        &Device::gaudi2(),
        LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
    )
}

fn cluster(n: usize, policy: RoutingPolicy, max_batch: usize) -> Cluster {
    Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
        n,
        policy,
    )
}

fn policy_for(idx: usize) -> RoutingPolicy {
    [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::LeastLoadedKv,
    ][idx % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every requested output token is produced exactly once, for any
    /// arrival process (offline, Poisson, bursty) and any engine shape.
    #[test]
    fn tokens_conserved_for_any_arrival_pattern(
        seed in 0u64..500,
        n_requests in 1usize..20,
        max_batch in 1usize..12,
        process_idx in 0usize..3,
        rate_tenths in 5usize..200,
    ) {
        let rate_rps = rate_tenths as f64 / 10.0;
        let process = match process_idx {
            0 => ArrivalProcess::Offline,
            1 => ArrivalProcess::Poisson { rate_rps },
            _ => ArrivalProcess::Bursty { rate_rps, burst: 4 },
        };
        let reqs =
            SyntheticDataset::dynamic_sonnet_online(n_requests, seed, &process);
        let expected: usize = reqs.iter().map(|r| r.output_len).sum();
        let report = engine(max_batch).run(&reqs).expect("trace fits");
        prop_assert_eq!(report.completed, n_requests);
        prop_assert_eq!(report.total_output_tokens, expected);
        prop_assert!(report.peak_batch <= max_batch);
    }

    /// The cluster conserves tokens too, for every routing policy and
    /// replica count, and its per-replica accounting sums to the total.
    #[test]
    fn cluster_conserves_tokens_for_any_arrival_pattern(
        seed in 0u64..500,
        n_requests in 1usize..24,
        replicas in 1usize..5,
        policy_idx in 0usize..3,
        rate_tenths in 5usize..100,
    ) {
        let reqs = SyntheticDataset::dynamic_sonnet_online(
            n_requests,
            seed,
            &ArrivalProcess::Poisson { rate_rps: rate_tenths as f64 / 10.0 },
        );
        let expected: usize = reqs.iter().map(|r| r.output_len).sum();
        let report = cluster(replicas, policy_for(policy_idx), 8)
            .run(&reqs)
            .expect("trace fits");
        prop_assert_eq!(report.serving.completed, n_requests);
        prop_assert_eq!(report.serving.total_output_tokens, expected);
        let dispatched: usize =
            report.per_replica.iter().map(|r| r.dispatched).sum();
        let by_replica: usize =
            report.per_replica.iter().map(|r| r.output_tokens).sum();
        prop_assert_eq!(dispatched, n_requests);
        prop_assert_eq!(by_replica, expected);
    }

    /// An all-zero-arrival trace through a 1-replica cluster is the
    /// offline engine, bit for bit — the cluster layer adds nothing to
    /// the paper's Figure 17 path.
    #[test]
    fn zero_arrival_single_replica_cluster_equals_engine(
        seed in 0u64..1000,
        n_requests in 1usize..24,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
    ) {
        let reqs = SyntheticDataset::dynamic_sonnet(n_requests, seed);
        prop_assert!(reqs.iter().all(|r| r.arrival_s == 0.0));
        let solo = engine(max_batch).run(&reqs).expect("trace fits");
        let clustered = cluster(1, policy_for(policy_idx), max_batch)
            .run(&reqs)
            .expect("trace fits");
        prop_assert_eq!(clustered.serving, solo);
    }

    /// For a fixed seed, raising the offered load (same request mix, the
    /// same exponential gaps scaled down) never improves the p99 TTFT.
    /// This is the knee the online sweep plots: tails are monotone in
    /// load. Below saturation TTFT is prefill-bound and batch-composition
    /// noise can move the tail by a few percent, so each step tolerates a
    /// 10% dip; the knee itself is multiplicative and must still show as
    /// end-to-end growth.
    #[test]
    fn p99_ttft_monotone_in_offered_load(
        seed in 0u64..200,
        base_rate_tenths in 10usize..40,
    ) {
        let base_rate = base_rate_tenths as f64 / 10.0;
        let mut prev = 0.0_f64;
        let mut first = f64::NAN;
        for mult in [1.0, 2.0, 4.0, 8.0] {
            let reqs = SyntheticDataset::dynamic_sonnet_online(
                24,
                seed,
                &ArrivalProcess::Poisson { rate_rps: base_rate * mult },
            );
            let report = engine(8).run(&reqs).expect("trace fits");
            prop_assert!(
                report.p99_ttft_s >= prev * 0.9,
                "p99 TTFT fell from {} to {} at {}x load",
                prev,
                report.p99_ttft_s,
                mult
            );
            prev = report.p99_ttft_s;
            if first.is_nan() {
                first = report.p99_ttft_s;
            }
        }
        // End to end, 8x the load can only worsen the tail.
        prop_assert!(prev >= first, "p99 at 8x load {prev} < at 1x {first}");
    }

    /// Two runs of the same seeded trace through the same 4-replica
    /// cluster are bit-identical — the regression gate for simulation
    /// determinism.
    #[test]
    fn seeded_cluster_runs_replay_bit_identically(
        seed in 0u64..1000,
        rate_tenths in 10usize..300,
        policy_idx in 0usize..3,
    ) {
        let make_trace = || {
            SyntheticDataset::dynamic_sonnet_online(
                32,
                seed,
                &ArrivalProcess::Poisson {
                    rate_rps: rate_tenths as f64 / 10.0,
                },
            )
        };
        let a_trace = make_trace();
        let b_trace = make_trace();
        prop_assert_eq!(&a_trace, &b_trace);
        let policy = policy_for(policy_idx);
        let a = cluster(4, policy, 8).run(&a_trace).expect("trace fits");
        let b = cluster(4, policy, 8).run(&b_trace).expect("trace fits");
        prop_assert_eq!(a, b);
    }

    /// Shifting every arrival by a constant delay shifts the clock but
    /// not the service outcome: completions and token counts match, and
    /// latency statistics (measured from each arrival) are unchanged.
    #[test]
    fn arrival_translation_invariance(
        seed in 0u64..300,
        n_requests in 1usize..16,
        delay_tenths in 1usize..100,
    ) {
        let reqs = SyntheticDataset::dynamic_sonnet_online(
            n_requests,
            seed,
            &ArrivalProcess::Poisson { rate_rps: 4.0 },
        );
        let delay = delay_tenths as f64 / 10.0;
        let shifted: Vec<Request> = reqs
            .iter()
            .map(|r| Request { arrival_s: r.arrival_s + delay, ..*r })
            .collect();
        let a = engine(8).run(&reqs).expect("trace fits");
        let b = engine(8).run(&shifted).expect("trace fits");
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.total_output_tokens, b.total_output_tokens);
        prop_assert!((a.mean_ttft_s - b.mean_ttft_s).abs() < 1e-6);
        prop_assert!((a.p99_ttft_s - b.p99_ttft_s).abs() < 1e-6);
        prop_assert!((b.total_time_s - a.total_time_s - delay).abs() < 1e-6);
    }

    /// No report field is ever NaN or infinite, for any routing policy,
    /// replica count, load, or batch shape — including the degenerate
    /// single-request, single-slot runs where spans approach zero.
    #[test]
    fn every_report_float_is_finite(
        seed in 0u64..500,
        n_requests in 1usize..24,
        replicas in 1usize..5,
        policy_idx in 0usize..3,
        max_batch in 1usize..12,
        rate_tenths in 1usize..400,
    ) {
        let reqs = SyntheticDataset::dynamic_sonnet_online(
            n_requests,
            seed,
            &ArrivalProcess::Poisson { rate_rps: rate_tenths as f64 / 10.0 },
        );
        let solo = engine(max_batch).run(&reqs).expect("trace fits");
        for (name, x) in serving_floats(&solo) {
            prop_assert!(x.is_finite(), "engine {name} = {x}");
        }
        let clustered = cluster(replicas, policy_for(policy_idx), max_batch)
            .run(&reqs)
            .expect("trace fits");
        for (name, x) in cluster_floats(&clustered) {
            prop_assert!(x.is_finite(), "cluster {name} = {x}");
        }
    }
}
