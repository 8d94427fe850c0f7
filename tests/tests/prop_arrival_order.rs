//! The cluster's arrival order and the exact quantiles, against what
//! they replaced.
//!
//! A cluster run reads arrivals from the trace in `(arrival_s by
//! f64::total_cmp, trace index)` order: the trace itself when it is in
//! that order, an index sort of it otherwise. Fault edges and fabric
//! wakes wait in an event queue and apply before an arrival at their
//! instant. So:
//!
//! * a permutation of a trace whose arrival times are distinct gives the
//!   same report, every float by its bits, under all four routing
//!   policies with the control fabric, crashes and shedding each on and
//!   off (the generated trace is in order, the permuted one is not);
//! * simultaneous arrivals, `-0.0` among `0.0` included, are dispatched
//!   in the order one event queue holding every arrival pops them:
//!   `total_cmp` puts `-0.0` first, and equal times keep trace order;
//! * a replica crashing at an arrival's instant cannot receive it.
//!
//! `percentile` selects its rank in a copy; it must return the bits of
//! sorting a copy, the definition it replaced, kept here as the oracle.

use dcm_compiler::Device;
use dcm_core::metrics::{percentile, LatencyRecorder};
use dcm_core::sim::EventQueue;
use dcm_core::trace::SpanKind;
use dcm_tests::report_bits;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, FabricConfig, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, Request, SyntheticDataset};
use dcm_vllm::fault::{FaultPlan, ResilienceConfig, ShedPolicy};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

const POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::RoundRobin,
    RoutingPolicy::JoinShortestQueue,
    RoutingPolicy::LeastLoadedKv,
    RoutingPolicy::WeightedJsq,
];

/// `replicas` Gaudi-2 Llama-3.1-8B replicas under `policy`, with a KV cap
/// small enough to preempt, and the control fabric when `fabric`.
fn cluster(replicas: usize, policy: RoutingPolicy, fabric: bool) -> Cluster {
    let c = Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        4,
        replicas,
        policy,
    )
    .with_kv_blocks(40);
    if fabric {
        c.with_fabric(FabricConfig {
            dispatch_bytes: 1 << 20,
            link_bps: 1e9,
            latency_s: 2e-3,
        })
    } else {
        c
    }
}

/// `reqs` reordered by a hash of each position: a permutation, and never
/// the sorted order of a trace of at least two distinct times.
fn permuted(reqs: &[Request], salt: u64) -> Vec<Request> {
    let mut out = reqs.to_vec();
    out.sort_by_key(|r| (r.id ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if out.is_sorted_by(|a, b| a.arrival_s <= b.arrival_s) {
        out.reverse();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A permuted trace of distinct arrival times is served bit for bit
    /// as the trace in arrival order.
    #[test]
    fn permuting_a_trace_moves_no_bit(
        n in 2usize..20,
        seed in 0u64..1000,
        rate_x10 in 5u32..200,
        replicas in 1usize..4,
        salt in 0u64..u64::MAX,
        fabric in 0u8..2,
        crash in 0u8..2,
        shed in 0u8..2,
    ) {
        let mut reqs =
            SyntheticDataset::dynamic_sonnet_online(n, seed, &ArrivalProcess::Poisson {
                rate_rps: f64::from(rate_x10) / 10.0,
            });
        for r in &mut reqs {
            r.input_len /= 8;
        }
        let times: Vec<u64> = reqs.iter().map(|r| r.arrival_s.to_bits()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] < w[1]), "distinct, sorted times");
        let shuffled = permuted(&reqs, salt);
        // The crash lands on an arrival's instant.
        let plan = if crash == 1 {
            let (down, up) = (reqs[n / 2].arrival_s, reqs[n - 1].arrival_s + 0.5);
            FaultPlan::none().with_recovering_crash(0, down, up)
        } else {
            FaultPlan::none()
        };
        let cfg = ResilienceConfig {
            shed: if shed == 1 { ShedPolicy::queue_cap(6) } else { ShedPolicy::none() },
            ..ResilienceConfig::default()
        };
        for policy in POLICIES {
            let run = |trace: &[Request]| {
                cluster(replicas, policy, fabric == 1)
                    .run_resilient(trace, &plan, &cfg)
                    .map(|report| report_bits(&report))
                    .map_err(|e| e.to_string())
            };
            prop_assert_eq!(run(&shuffled), run(&reqs), "{}", policy.name());
        }
    }
}

/// Simultaneous arrivals go out in the order one event queue holding all
/// of them pops them. Round-robin sends the `k`-th dispatch to replica
/// `k mod 3`, so each request's replica shows where it was dispatched.
#[test]
fn simultaneous_arrivals_keep_the_queue_order() {
    let times = [
        0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 0.0, 1.0, -0.0, 0.5, 1.0, 0.0,
    ];
    let reqs: Vec<Request> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| Request::new(100 - i as u64, 64, 3).with_arrival(t))
        .collect();
    let mut oracle = EventQueue::new();
    for r in &reqs {
        oracle.push(r.arrival_s, 0, r.id);
    }
    let expected: Vec<(u64, f64)> = oracle
        .drain_ordered()
        .into_iter()
        .enumerate()
        .map(|(k, e)| (e.payload, (k % 3) as f64))
        .collect();
    assert_eq!(expected[0].0, 99, "-0.0 sorts before 0.0");
    let (report, trace) = cluster(3, RoutingPolicy::RoundRobin, false)
        .run_traced(&reqs)
        .unwrap();
    assert_eq!(report.serving.completed, reqs.len());
    let mut dispatched: Vec<(u64, f64)> = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Route && s.detail == "dispatch")
        .map(|s| (s.request.unwrap(), s.args[0].1))
        .collect();
    let mut expected_by_id = expected.clone();
    dispatched.sort_by_key(|d| d.0);
    expected_by_id.sort_by_key(|d| d.0);
    assert_eq!(dispatched, expected_by_id);
}

/// A crash at an arrival's instant applies first: round-robin would send
/// the second request to replica 1, which is down by then. A crash just
/// after it displaces the request instead, which then retries.
#[test]
fn a_fault_at_an_arrival_applies_first() {
    let reqs = [
        Request::new(0, 64, 4),
        Request::new(1, 64, 4).with_arrival(1.0),
    ];
    for (at, sent_to_1_and_retried) in [(1.0, 0), (1.0 + 1e-9, 1)] {
        let report = cluster(2, RoutingPolicy::RoundRobin, false)
            .run_resilient(
                &reqs,
                &FaultPlan::none().with_crash(1, at),
                &ResilienceConfig::default(),
            )
            .unwrap();
        let got = (report.per_replica[1].dispatched, report.serving.retries);
        assert_eq!(
            got,
            (sent_to_1_and_retried, sent_to_1_and_retried),
            "crash at {at}"
        );
        assert_eq!(report.serving.completed, 2);
    }
}

/// The exact-mode percentile before selection: sort a copy, index the
/// rounded linear rank.
fn sorted_percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Values where an order can go wrong: signed zeros and infinities,
/// subnormals, extremes and duplicates.
const SPECIAL: [f64; 12] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::MIN,
    1.0,
    1.0,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `percentile` and an exact recorder's quantile return the sorted
    /// copy's sample, bit for bit, at every integer `p` and a few others.
    #[test]
    fn selection_matches_sorting_a_copy(
        picks in proptest::collection::vec(0usize..24, 1..48),
        bits in proptest::collection::vec(0u64..u64::MAX, 12..13),
    ) {
        let xs: Vec<f64> = picks
            .iter()
            .map(|&i| match SPECIAL.get(i) {
                Some(&x) => x,
                None => {
                    let x = f64::from_bits(bits[i - SPECIAL.len()]);
                    if x.is_nan() { 0.5 } else { x }
                }
            })
            .collect();
        let mut recorder = LatencyRecorder::new();
        xs.iter().for_each(|&x| recorder.record(x));
        let ps = (0..=100).map(f64::from).chain([0.1, 49.5, 99.9]);
        for p in ps {
            let want = sorted_percentile(&xs, p).to_bits();
            prop_assert_eq!(percentile(&xs, p).to_bits(), want, "p = {}", p);
            prop_assert_eq!(recorder.quantile(p).to_bits(), want, "p = {}", p);
        }
    }
}
