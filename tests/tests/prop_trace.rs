//! Property pins for the structured-tracing layer.
//!
//! Tracing is observational: a traced run must produce a bit-identical
//! report to the same run untraced, the trace must carry exactly one
//! lifecycle span per completed request, and the Chrome `trace_event`
//! export must be valid JSON. These are verified for a single engine
//! (a one-replica cluster), the fault-free cluster, the seeded-fault
//! cluster, and a heterogeneous (Gaudi-2 + A100) cluster under the
//! device-aware routing policy.

use dcm_compiler::Device;
use dcm_core::trace::{SpanKind, Trace};
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, Request, SyntheticDataset};
use dcm_vllm::engine::ServingEngine;
use dcm_vllm::fault::{FaultPlan, ResilienceConfig, ShedPolicy};
use dcm_workloads::llama::LlamaConfig;

// ---- a minimal JSON validator (no serde_json in the workspace) ---------

/// Validate that `s` is one complete JSON value. Returns the byte offset
/// just past the value; panics with context on malformed input.
fn json_value(s: &[u8], mut i: usize) -> usize {
    i = skip_ws(s, i);
    match s.get(i) {
        Some(b'{') => {
            i += 1;
            i = skip_ws(s, i);
            if s.get(i) == Some(&b'}') {
                return i + 1;
            }
            loop {
                i = json_string(s, skip_ws(s, i));
                i = skip_ws(s, i);
                assert_eq!(s.get(i), Some(&b':'), "expected ':' at byte {i}");
                i = json_value(s, i + 1);
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return i + 1,
                    other => panic!("expected ',' or '}}' at byte {i}, got {other:?}"),
                }
            }
        }
        Some(b'[') => {
            i += 1;
            i = skip_ws(s, i);
            if s.get(i) == Some(&b']') {
                return i + 1;
            }
            loop {
                i = json_value(s, i);
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return i + 1,
                    other => panic!("expected ',' or ']' at byte {i}, got {other:?}"),
                }
            }
        }
        Some(b'"') => json_string(s, i),
        Some(b't') => json_literal(s, i, b"true"),
        Some(b'f') => json_literal(s, i, b"false"),
        Some(b'n') => json_literal(s, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => json_number(s, i),
        other => panic!("unexpected token {other:?} at byte {i}"),
    }
}

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while matches!(s.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

fn json_string(s: &[u8], i: usize) -> usize {
    assert_eq!(s.get(i), Some(&b'"'), "expected '\"' at byte {i}");
    let mut j = i + 1;
    loop {
        match s.get(j) {
            Some(b'"') => return j + 1,
            Some(b'\\') => j += 2,
            Some(_) => j += 1,
            None => panic!("unterminated string starting at byte {i}"),
        }
    }
}

fn json_literal(s: &[u8], i: usize, lit: &[u8]) -> usize {
    assert_eq!(
        s.get(i..i + lit.len()),
        Some(lit),
        "bad literal at byte {i}"
    );
    i + lit.len()
}

fn json_number(s: &[u8], i: usize) -> usize {
    let mut j = i;
    if s.get(j) == Some(&b'-') {
        j += 1;
    }
    let start = j;
    while matches!(s.get(j), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        j += 1;
    }
    assert!(j > start, "empty number at byte {i}");
    j
}

/// Assert `s` is exactly one valid JSON value with nothing trailing.
fn assert_valid_json(s: &str) {
    let bytes = s.as_bytes();
    let end = json_value(bytes, 0);
    assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage");
}

// ---- fixtures ----------------------------------------------------------

fn engine(max_batch: usize) -> ServingEngine {
    ServingEngine::new(
        &Device::gaudi2(),
        LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
    )
}

fn hetero_cluster(policy: RoutingPolicy) -> Cluster {
    Cluster::new(
        vec![
            ServingEngine::new(
                &Device::gaudi2(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::GaudiOpt,
                8,
            ),
            ServingEngine::new(
                &Device::a100(),
                LlamaConfig::llama31_8b(),
                1,
                PagedBackend::A100Fused,
                8,
            ),
        ],
        policy,
    )
}

fn cluster3(policy: RoutingPolicy) -> Cluster {
    Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        8,
        3,
        policy,
    )
}

fn online_trace(n: usize, seed: u64, rate: f64) -> Vec<Request> {
    SyntheticDataset::dynamic_sonnet_online(n, seed, &ArrivalProcess::Poisson { rate_rps: rate })
}

fn check_export(trace: &Trace, completed: usize) {
    assert_eq!(
        trace.count_of(SpanKind::Request),
        completed,
        "one lifecycle span per completed request"
    );
    let json = trace.to_chrome_json();
    assert_valid_json(&json);
    // One CSV data row per completed request.
    let csv = trace.request_csv();
    assert_eq!(csv.trim_end().lines().count(), completed + 1, "{csv}");
    // Spans are well-formed: non-negative durations, finite times,
    // instants have zero duration.
    for s in trace.spans() {
        assert!(s.start_s.is_finite() && s.dur_s.is_finite(), "{s:?}");
        assert!(s.dur_s >= 0.0, "{s:?}");
        if s.kind.is_instant() {
            assert_eq!(s.dur_s, 0.0, "{s:?}");
        }
    }
}

// ---- engine ------------------------------------------------------------

/// `e` as the only replica of a round-robin cluster: the traced form of
/// `ServingEngine::run`.
fn solo(e: ServingEngine) -> Cluster {
    Cluster::new(vec![e], RoutingPolicy::RoundRobin)
}

#[test]
fn traced_engine_report_is_bit_identical_to_untraced() {
    let reqs = online_trace(24, 5, 8.0);
    let untraced = engine(4).run(&reqs).unwrap();
    let (traced, trace) = solo(engine(4)).run_traced(&reqs).unwrap();
    let traced = traced.serving;
    assert_eq!(untraced, traced);
    check_export(&trace, traced.completed);
    // Engine spans exist and sit on track 0, router instants on track 1.
    assert!(trace.count_of(SpanKind::Prefill) >= traced.completed);
    assert!(trace.count_of(SpanKind::Decode) > 0);
    assert!(trace
        .spans()
        .iter()
        .all(|s| s.track == u32::from(s.kind == SpanKind::Route)));
}

#[test]
fn preempting_engine_trace_records_preemptions() {
    let reqs = SyntheticDataset::fixed(4, 256, 200);
    let (report, trace) = solo(engine(4).with_kv_blocks(12))
        .run_traced(&reqs)
        .unwrap();
    let report = report.serving;
    assert_eq!(trace.count_of(SpanKind::Preemption), report.preemptions);
    assert!(report.preemptions > 0, "fixture must preempt");
    // A preempted request is prefilled more than once (recompute mode).
    assert!(trace.count_of(SpanKind::Prefill) > report.completed);
    check_export(&trace, report.completed);
}

#[test]
fn untraced_run_records_no_spans_and_stays_deterministic() {
    // Two untraced runs replay bit-identically (the trace layer has no
    // hidden state bleeding into the schedule).
    let reqs = online_trace(16, 11, 6.0);
    let a = engine(4).run(&reqs).unwrap();
    let b = engine(4).run(&reqs).unwrap();
    assert_eq!(a, b);
}

// ---- cluster -----------------------------------------------------------

#[test]
fn traced_cluster_report_is_bit_identical_to_untraced() {
    let reqs = online_trace(24, 17, 10.0);
    let untraced = cluster3(RoutingPolicy::JoinShortestQueue)
        .run(&reqs)
        .unwrap();
    let (traced, trace) = cluster3(RoutingPolicy::JoinShortestQueue)
        .run_traced(&reqs)
        .unwrap();
    assert_eq!(untraced, traced);
    check_export(&trace, traced.serving.completed);
    // Router instants live on the track one past the last replica, one
    // dispatch per routed request.
    let dispatches = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Route && s.detail == "dispatch")
        .count();
    assert_eq!(dispatches, 24);
    assert!(trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Route)
        .all(|s| s.track == 3));
    // Every engine span's track is a valid replica index.
    assert!(trace
        .spans()
        .iter()
        .filter(|s| !matches!(s.kind, SpanKind::Route | SpanKind::Fault))
        .all(|s| s.track < 3));
}

#[test]
fn traced_fault_cluster_is_bit_identical_and_spans_the_timeline() {
    let reqs = online_trace(24, 17, 10.0);
    let plan = FaultPlan::random_crashes(3, 1, 3.0, 97).with_slowdown(1, 0.5, 1.5, 2.0);
    let cfg = ResilienceConfig {
        shed: ShedPolicy::queue_cap(12),
        ..ResilienceConfig::default()
    };
    let untraced = cluster3(RoutingPolicy::JoinShortestQueue)
        .run_resilient(&reqs, &plan, &cfg)
        .unwrap();
    let (traced, trace) = cluster3(RoutingPolicy::JoinShortestQueue)
        .run_resilient_traced(&reqs, &plan, &cfg)
        .unwrap();
    assert_eq!(untraced, traced);
    check_export(&trace, traced.serving.completed);
    // The fault timeline shows up as instants: this plan schedules one
    // crash and one slowdown window (start + end edges).
    let faults: Vec<&str> = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Fault)
        .map(|s| s.detail)
        .collect();
    assert!(faults.contains(&"crash"), "{faults:?}");
    assert!(faults.contains(&"slow_start"), "{faults:?}");
    assert!(faults.contains(&"slow_end"), "{faults:?}");
    // Crash-displaced work appears as retry route decisions.
    let retries = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Route && s.detail == "retry")
        .count();
    assert_eq!(retries, traced.serving.retries);
}

// ---- heterogeneous clusters and device-aware routing -------------------

#[test]
fn hetero_cluster_conserves_tokens_under_every_policy() {
    let reqs = online_trace(20, 23, 8.0);
    let expected: usize = reqs.iter().map(|r| r.output_len).sum();
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::LeastLoadedKv,
        RoutingPolicy::WeightedJsq,
    ] {
        let report = hetero_cluster(policy).run(&reqs).unwrap();
        assert_eq!(report.serving.completed, 20, "{policy:?}");
        assert_eq!(report.serving.total_output_tokens, expected, "{policy:?}");
        let by_replica: usize = report.per_replica.iter().map(|r| r.output_tokens).sum();
        assert_eq!(by_replica, expected, "{policy:?}");
        // Device labels identify the mix.
        assert_eq!(report.replica_devices, ["Gaudi-2", "A100"], "{policy:?}");
        // Every float in the report is finite.
        for v in [
            report.serving.total_time_s,
            report.serving.throughput_tps,
            report.serving.mean_ttft_s,
            report.serving.mean_tpot_s,
            report.serving.p99_ttft_s,
            report.serving.goodput_tps,
            report.mean_utilization(),
            report.dispatch_imbalance(),
        ] {
            assert!(v.is_finite(), "{policy:?}: {v}");
        }
    }
}

#[test]
fn weighted_jsq_matches_jsq_on_a_homogeneous_cluster() {
    // Identical replicas have identical speed weights, so dividing queue
    // depths by them cannot change any routing decision: the runs match
    // except for the policy label.
    let reqs = online_trace(24, 29, 12.0);
    let jsq = cluster3(RoutingPolicy::JoinShortestQueue)
        .run(&reqs)
        .unwrap();
    let wjsq = cluster3(RoutingPolicy::WeightedJsq).run(&reqs).unwrap();
    assert_eq!(jsq.serving, wjsq.serving);
    assert_eq!(jsq.per_replica, wjsq.per_replica);
    assert_eq!(wjsq.policy.name(), "wjsq");
}

#[test]
fn weighted_jsq_sends_more_load_to_the_faster_device() {
    // Saturating load on a Gaudi-2 + A100 pair: the BF16-faster Gaudi-2
    // must absorb at least as many dispatches under weighted JSQ, and the
    // weighting must not beat plain JSQ's balance by starving a device.
    let reqs = online_trace(40, 31, 40.0);
    let report = hetero_cluster(RoutingPolicy::WeightedJsq)
        .run(&reqs)
        .unwrap();
    assert!(
        report.per_replica[0].dispatched >= report.per_replica[1].dispatched,
        "faster device starved: {:?}",
        report.per_replica
    );
    assert!(report.per_replica[1].dispatched > 0, "slower device idle");
}

#[test]
fn traced_hetero_run_is_bit_identical_and_exports() {
    let reqs = online_trace(16, 37, 10.0);
    let untraced = hetero_cluster(RoutingPolicy::WeightedJsq)
        .run(&reqs)
        .unwrap();
    let (traced, trace) = hetero_cluster(RoutingPolicy::WeightedJsq)
        .run_traced(&reqs)
        .unwrap();
    assert_eq!(untraced, traced);
    check_export(&trace, traced.serving.completed);
}
