//! Never panic, never hang: small cluster runs over every knob a run
//! takes (routing policy, metrics mode, fast-forward, the control fabric,
//! crashes, recoveries, slowdowns, queue and KV shedding, KV caps of 1 to
//! 400 blocks, backends, tensor-parallel splits and SLO and KV-shed
//! thresholds, valid or not) return `Ok` or a typed error within a
//! timeout. A run that returns accounts for every request it was offered
//! and reports only finite floats.

use dcm_compiler::Device;
use dcm_core::error::DcmError;
use dcm_core::metrics::MetricsMode;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, FabricConfig, RoutingPolicy};
use dcm_vllm::dataset::Request;
use dcm_vllm::fault::{FaultPlan, ResilienceConfig, ShedPolicy};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// How long one run may take on its worker thread before it counts as a
/// hang: runs of 40 requests take milliseconds.
const TIMEOUT: Duration = Duration::from_secs(60);

/// `run` on a worker thread: its result, a re-raised panic, or a test
/// failure after [`TIMEOUT`] (the worker is then left running).
fn within_timeout<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    match rx.recv_timeout(TIMEOUT) {
        Ok(result) => {
            worker.join().unwrap();
            result
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("no result within {TIMEOUT:?}"),
    }
}

/// Every float a cluster report carries, named.
fn floats(report: &ClusterReport) -> Vec<(&'static str, f64)> {
    let s = &report.serving;
    let mut out = vec![
        ("total_time_s", s.total_time_s),
        ("throughput_tps", s.throughput_tps),
        ("mean_ttft_s", s.mean_ttft_s),
        ("mean_tpot_s", s.mean_tpot_s),
        ("p50_ttft_s", s.p50_ttft_s),
        ("p95_ttft_s", s.p95_ttft_s),
        ("p99_ttft_s", s.p99_ttft_s),
        ("p50_tpot_s", s.p50_tpot_s),
        ("p95_tpot_s", s.p95_tpot_s),
        ("p99_tpot_s", s.p99_tpot_s),
        ("mean_queue_delay_s", s.mean_queue_delay_s),
        ("p99_queue_delay_s", s.p99_queue_delay_s),
        ("goodput_tps", s.goodput_tps),
        ("slo_attainment", s.slo_attainment),
        ("mean_utilization", report.mean_utilization()),
        ("dispatch_imbalance", report.dispatch_imbalance()),
    ];
    for r in &report.per_replica {
        out.push(("busy_s", r.busy_s));
        out.push(("utilization", r.utilization));
    }
    out
}

/// Resilience thresholds a run must reject, each with the field its
/// error names: SLO bounds that are NaN or not positive, and KV shed
/// fractions that are NaN or outside `[0, 1]`.
const BAD_THRESHOLDS: [(&str, f64); 6] = [
    ("slo.max_ttft_s", f64::NAN),
    ("slo.max_ttft_s", 0.0),
    ("slo.max_tpot_s", -0.5),
    ("shed.max_kv_used", f64::NAN),
    ("shed.max_kv_used", -0.25),
    ("shed.max_kv_used", 1.5),
];

/// A fault plan on `replicas` replicas from the bits of `faults`: up to
/// one permanent crash per replica, a recovering crash and a slowdown,
/// all inside the first `horizon_s` seconds.
fn plan(replicas: usize, faults: u64, horizon_s: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let at = |k: u64| horizon_s * ((faults >> (4 * k)) & 15) as f64 / 16.0;
    for r in 0..replicas {
        if faults & (1 << (32 + r)) != 0 {
            plan = plan.with_crash(r, at(r as u64));
        }
    }
    if faults & (1 << 40) != 0 {
        let t = at(4);
        plan = plan.with_recovering_crash(replicas - 1, t, t + 0.5 * horizon_s);
    }
    if faults & (1 << 41) != 0 {
        let t = at(5);
        let factor = 1.0 + ((faults >> 42) & 7) as f64;
        plan = plan.with_slowdown(0, t, t + horizon_s, factor);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cluster_runs_end_with_a_report_or_a_typed_error(
        shape in proptest::collection::vec((1usize..700, 1usize..600, 0.0f64..0.01), 1..41),
        replicas in 1usize..5,
        policy in 0usize..4,
        switches in 0u8..8,
        kv in 0usize..800,
        faults in 0u64..(1 << 45),
        shed in (0usize..3, 1usize..12, 0.05f64..1.0),
        engine in (0usize..4, 0usize..12),
        bad in 0usize..32,
    ) {
        let mut at = 0.0;
        let trace: Vec<Request> = shape
            .iter()
            .zip(0u64..)
            .map(|(&(input, output, gap), id)| {
                at += gap;
                Request { arrival_s: at, ..Request::new(id, input, output) }
            })
            .collect();
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastLoadedKv,
            RoutingPolicy::WeightedJsq,
        ][policy];
        let shed = match shed {
            (0, _, _) => ShedPolicy::none(),
            (1, depth, _) => ShedPolicy::queue_cap(depth),
            (_, _, frac) => ShedPolicy::kv_cap(frac),
        };
        let mut cfg = ResilienceConfig { shed, ..ResilienceConfig::default() };
        let bad = BAD_THRESHOLDS.get(bad).map(|&(field, x)| {
            match field {
                "slo.max_ttft_s" => cfg.slo.max_ttft_s = x,
                "slo.max_tpot_s" => cfg.slo.max_tpot_s = x,
                _ => cfg.shed.max_kv_used = Some(x),
            }
            field
        });
        let plan = plan(replicas, faults, at.max(0.1));
        // Llama-3.1-8B has 32 query heads: splits of 0, 3 and 64 are
        // invalid.
        let (backend, tp) = (engine.0, [1, 1, 1, 1, 1, 1, 2, 2, 4, 0, 3, 64][engine.1]);
        let valid_tp = tp != 0 && 32 % tp == 0;
        // Half the caps are at most 50 blocks, where preemption churns.
        let kv_blocks = if kv < 400 { 1 + kv / 8 } else { kv - 399 };
        let offered = trace.len();
        let result = within_timeout(move || {
            let (device, backend) = match backend {
                0 => (Device::gaudi2(), PagedBackend::GaudiOpt),
                1 => (Device::gaudi2(), PagedBackend::GaudiBase),
                2 => (Device::gaudi2(), PagedBackend::GaudiFusedHypothetical),
                _ => (Device::a100(), PagedBackend::A100Fused),
            };
            let model = LlamaConfig::llama31_8b();
            let mut cluster = Cluster::homogeneous(&device, &model, tp, backend, 8, replicas, policy)
                .with_kv_blocks(kv_blocks)
                .with_fast_forward(switches & 1 != 0)
                .with_metrics_mode(if switches & 2 != 0 {
                    MetricsMode::Histogram
                } else {
                    MetricsMode::Exact
                });
            if switches & 4 != 0 {
                cluster = cluster.with_fabric(FabricConfig::from_spec(device.spec()));
            }
            cluster.run_resilient(&trace, &plan, &cfg)
        });
        match result {
            Ok(report) => {
                prop_assert!(valid_tp, "tp {} served", tp);
                prop_assert!(bad.is_none(), "{:?} served", bad);
                prop_assert_eq!(report.serving.offered(), offered);
                for (name, x) in floats(&report) {
                    prop_assert!(x.is_finite(), "{} = {}", name, x);
                }
            }
            // The thresholds are checked before the replicas are built.
            Err(DcmError::InvalidConfig(m)) => match bad {
                Some(field) => prop_assert!(m.starts_with(field), "{}", m),
                None => {
                    prop_assert!(!valid_tp, "{}", m);
                    prop_assert!(m.contains("replica 0") && m.contains(&format!("tp {tp}")), "{}", m);
                }
            },
            Err(DcmError::ResourceExhausted(m)) => prop_assert!(m.contains("request"), "{}", m),
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
