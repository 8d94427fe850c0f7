//! Synthetic request traces and arrival processes.
//!
//! The paper's end-to-end serving experiment (Figure 17(d,e)) uses the
//! Dynamic-Sonnet dataset \[13\] "to properly reflect LLM serving system's
//! dynamism and variable output length". The dataset itself is a prompt
//! collection; only its *length distribution* matters to a timing model,
//! so we synthesize traces with matching character: prompts drawn from
//! discrete buckets (512/1K/2K/4K tokens) and output lengths from a
//! truncated geometric distribution.
//!
//! The paper's setup is *offline*: every request is present at `t = 0` and
//! one engine drains the queue. For online serving experiments each
//! [`Request`] additionally carries an `arrival_s` timestamp, produced by an
//! [`ArrivalProcess`] — Poisson (independent user traffic), bursty
//! (correlated spikes, e.g. a batch upstream), or an explicit trace. All
//! processes are seeded and deterministic so every figure regenerates
//! bit-identically.

use dcm_core::cast::{f64_to_usize, usize_to_f64, usize_to_u64};
use dcm_core::rng;
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One serving request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request id (stable across the trace).
    pub id: u64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Tokens to generate.
    pub output_len: usize,
    /// Arrival time in seconds from the start of the run. Zero reproduces
    /// the paper's offline setup (everything queued at the start). Every
    /// `ServingEngine::run*` and `Cluster::run*` entry rejects a NaN,
    /// negative or infinite arrival with `DcmError::InvalidConfig`.
    pub arrival_s: f64,
}

impl Request {
    /// An offline request (arrives at `t = 0`).
    #[must_use]
    pub fn new(id: u64, input_len: usize, output_len: usize) -> Self {
        Request {
            id,
            input_len,
            output_len,
            arrival_s: 0.0,
        }
    }
}

/// When requests reach the serving system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Everything at `t = 0` — the paper's offline-throughput setup.
    Offline,
    /// Independent arrivals at `rate_rps` requests/second: exponential
    /// inter-arrival gaps (an M/G/k open-system model).
    Poisson {
        /// Mean offered load in requests per second.
        rate_rps: f64,
    },
    /// Bursts of `burst` back-to-back requests, bursts themselves Poisson
    /// at `rate_rps / burst` so the long-run offered load matches
    /// `rate_rps` — correlated traffic spikes, the tail-latency stressor.
    Bursty {
        /// Mean offered load in requests per second.
        rate_rps: f64,
        /// Requests per burst.
        burst: usize,
    },
    /// Explicit arrival times in seconds — replay of a recorded trace.
    /// Must be sorted and non-negative; reused cyclically by offsetting
    /// whole periods if shorter than the request count.
    Trace(Vec<f64>),
}

impl ArrivalProcess {
    /// Generate `n` arrival timestamps (sorted, non-negative),
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics on a non-positive rate, a zero burst size, or an unsorted or
    /// negative trace.
    #[must_use]
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut times = vec![0.0; n];
        self.stamp(times.iter_mut(), seed);
        times
    }

    /// Stamp arrival times onto `requests` in order.
    ///
    /// # Panics
    /// As [`Self::sample`].
    pub fn assign(&self, requests: &mut [Request], seed: u64) {
        self.stamp(requests.iter_mut().map(|r| &mut r.arrival_s), seed);
    }

    /// The one drawing loop: write the arrival times `sample` returns into
    /// `slots`, each as it is drawn.
    fn stamp<'a>(&self, slots: impl ExactSizeIterator<Item = &'a mut f64>, seed: u64) {
        match *self {
            ArrivalProcess::Offline => slots.for_each(|slot| *slot = 0.0),
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "rate must be positive, got {rate_rps}");
                let mut r = rng::seeded(seed);
                let mut t = 0.0;
                for slot in slots {
                    t += exp_gap(&mut r, rate_rps);
                    *slot = t;
                }
            }
            ArrivalProcess::Bursty { rate_rps, burst } => {
                assert!(rate_rps > 0.0, "rate must be positive, got {rate_rps}");
                assert!(burst > 0, "burst size must be positive");
                let mut r = rng::seeded(seed);
                let burst_rate = rate_rps / usize_to_f64(burst);
                let mut t = 0.0;
                // Requests left in the current burst: a new burst's gap is
                // drawn only when a request needs it.
                let mut left = 0;
                for slot in slots {
                    if left == 0 {
                        t += exp_gap(&mut r, burst_rate);
                        left = burst;
                    }
                    left -= 1;
                    *slot = t;
                }
            }
            ArrivalProcess::Trace(ref times) => {
                assert!(
                    times.windows(2).all(|w| w[0] <= w[1]),
                    "trace arrivals must be sorted"
                );
                assert!(
                    times.first().is_none_or(|&t| t >= 0.0),
                    "trace arrivals must be non-negative"
                );
                assert!(
                    !times.is_empty() || slots.len() == 0,
                    "empty trace cannot produce arrivals"
                );
                // Cycle the trace, shifting each repetition by whole
                // periods so time keeps moving forward.
                let period = times.last().copied().unwrap_or(0.0);
                for (i, slot) in slots.enumerate() {
                    let lap = usize_to_f64(i / times.len());
                    *slot = times[i % times.len()] + lap * period;
                }
            }
        }
    }
}

/// Exponential inter-arrival gap with mean `1/rate`.
fn exp_gap<R: Rng + ?Sized>(r: &mut R, rate: f64) -> f64 {
    let u: f64 = r.gen_range(0.0_f64..1.0);
    -(1.0 - u).ln() / rate
}

/// Synthetic trace generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyntheticDataset;

impl SyntheticDataset {
    /// A Dynamic-Sonnet-like trace: `n` requests, prompt lengths from the
    /// buckets {512, 1024, 2048, 4096} (weighted toward the shorter ones),
    /// output lengths geometric with mean ~200, clamped to `[25, 1024]`.
    /// All requests arrive at `t = 0` (the offline setup).
    #[must_use]
    pub fn dynamic_sonnet(n: usize, seed: u64) -> Vec<Request> {
        let mut r = rng::seeded(seed);
        let buckets = [512, 1024, 2048, 4096];
        let bucket = WeightedIndex::new(&[0.4, 0.3, 0.2, 0.1])
            // dcm-lint: allow(P1) constant weights, non-negative with a positive sum
            .expect("valid bucket weights");
        (0..usize_to_u64(n))
            .map(|id| {
                let input_len = buckets[bucket.sample(&mut r)];
                // Truncated geometric via inverse CDF.
                let u: f64 = r.gen_range(0.0_f64..1.0);
                let mean = 200.0;
                let raw = f64_to_usize((-(1.0 - u).ln() * mean).floor());
                Request {
                    id,
                    input_len,
                    output_len: raw.clamp(25, 1024),
                    arrival_s: 0.0,
                }
            })
            .collect()
    }

    /// A Dynamic-Sonnet-like trace whose arrivals follow `process`. Length
    /// sampling uses `seed`, arrival sampling `seed + 1`, so the same
    /// request mix can be replayed under different offered loads.
    #[must_use]
    pub fn dynamic_sonnet_online(n: usize, seed: u64, process: &ArrivalProcess) -> Vec<Request> {
        let mut reqs = Self::dynamic_sonnet(n, seed);
        process.assign(&mut reqs, seed.wrapping_add(1));
        reqs
    }

    /// A fixed-shape trace (the Figure 12 static experiments).
    #[must_use]
    pub fn fixed(n: usize, input_len: usize, output_len: usize) -> Vec<Request> {
        (0..usize_to_u64(n))
            .map(|id| Request::new(id, input_len, output_len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = SyntheticDataset::dynamic_sonnet(64, 42);
        let b = SyntheticDataset::dynamic_sonnet(64, 42);
        assert_eq!(a, b);
        let c = SyntheticDataset::dynamic_sonnet(64, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn lengths_are_in_range_and_variable() {
        let reqs = SyntheticDataset::dynamic_sonnet(500, 1);
        assert_eq!(reqs.len(), 500);
        for r in &reqs {
            assert!([512, 1024, 2048, 4096].contains(&r.input_len));
            assert!((25..=1024).contains(&r.output_len));
            assert_eq!(r.arrival_s, 0.0);
        }
        let distinct_out: std::collections::HashSet<_> =
            reqs.iter().map(|r| r.output_len).collect();
        assert!(distinct_out.len() > 20, "outputs should vary");
        let mean_out: f64 =
            reqs.iter().map(|r| r.output_len as f64).sum::<f64>() / reqs.len() as f64;
        assert!((120.0..280.0).contains(&mean_out), "mean output {mean_out}");
    }

    #[test]
    fn short_prompts_dominate() {
        let reqs = SyntheticDataset::dynamic_sonnet(1000, 2);
        let short = reqs.iter().filter(|r| r.input_len <= 1024).count();
        assert!(short > 550, "short-prompt share {short}");
    }

    #[test]
    fn fixed_trace() {
        let reqs = SyntheticDataset::fixed(3, 100, 25);
        assert_eq!(reqs.len(), 3);
        assert!(reqs
            .iter()
            .all(|r| r.input_len == 100 && r.output_len == 25));
        assert_eq!(reqs[2].id, 2);
    }

    #[test]
    fn poisson_arrivals_are_sorted_deterministic_and_rate_matched() {
        let p = ArrivalProcess::Poisson { rate_rps: 10.0 };
        let a = p.sample(2000, 7);
        let b = p.sample(2000, 7);
        assert_eq!(a, b);
        assert_ne!(a, p.sample(2000, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        assert!(a.iter().all(|&t| t >= 0.0));
        // Mean inter-arrival gap ~ 1/rate (law of large numbers, ±15%).
        let span = a.last().unwrap() - a.first().unwrap();
        let mean_gap = span / (a.len() - 1) as f64;
        assert!((mean_gap - 0.1).abs() < 0.015, "mean gap {mean_gap}");
    }

    #[test]
    fn bursty_arrivals_cluster_but_match_offered_load() {
        let p = ArrivalProcess::Bursty {
            rate_rps: 10.0,
            burst: 8,
        };
        let a = p.sample(2000, 3);
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Bursts: most consecutive gaps are exactly zero.
        let zero_gaps = a.windows(2).filter(|w| w[1] == w[0]).count();
        assert!(zero_gaps >= 1700, "burst structure lost: {zero_gaps}");
        // Long-run rate still ~10 rps (±20%).
        let rate = (a.len() - 1) as f64 / (a.last().unwrap() - a[0]);
        assert!((rate - 10.0).abs() < 2.0, "offered rate {rate}");
    }

    #[test]
    fn trace_arrivals_replay_and_cycle() {
        let p = ArrivalProcess::Trace(vec![0.0, 0.5, 2.0]);
        let a = p.sample(7, 0);
        assert_eq!(a, vec![0.0, 0.5, 2.0, 2.0, 2.5, 4.0, 4.0]);
        assert_eq!(ArrivalProcess::Offline.sample(3, 0), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_is_rejected() {
        let _ = ArrivalProcess::Trace(vec![1.0, 0.5]).sample(2, 0);
    }

    #[test]
    fn online_dataset_keeps_length_mix_and_stamps_arrivals() {
        let offline = SyntheticDataset::dynamic_sonnet(32, 9);
        let online = SyntheticDataset::dynamic_sonnet_online(
            32,
            9,
            &ArrivalProcess::Poisson { rate_rps: 4.0 },
        );
        for (a, b) in offline.iter().zip(&online) {
            assert_eq!(
                (a.id, a.input_len, a.output_len),
                (b.id, b.input_len, b.output_len)
            );
        }
        assert!(online.iter().any(|r| r.arrival_s > 0.0));
        assert!(online.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }

    /// The arrival times before one-pass stamping: every time collected
    /// into a `Vec`, then stamped.
    fn collected_times(process: &ArrivalProcess, n: usize, seed: u64) -> Vec<f64> {
        match *process {
            ArrivalProcess::Offline => vec![0.0; n],
            ArrivalProcess::Poisson { rate_rps } => {
                let mut r = rng::seeded(seed);
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        t += exp_gap(&mut r, rate_rps);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty { rate_rps, burst } => {
                let mut r = rng::seeded(seed);
                let burst_rate = rate_rps / burst as f64;
                let mut t = 0.0;
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    t += exp_gap(&mut r, burst_rate);
                    for _ in 0..burst.min(n - out.len()) {
                        out.push(t);
                    }
                }
                out
            }
            ArrivalProcess::Trace(ref times) => {
                let period = times.last().copied().unwrap_or(0.0);
                (0..n)
                    .map(|i| times[i % times.len()] + (i / times.len()) as f64 * period)
                    .collect()
            }
        }
    }

    /// The online generator before it drew in one pass: a weight `Vec`
    /// and a `WeightedIndex` built per request, then every arrival time
    /// collected before it is stamped.
    fn two_pass_online(n: usize, seed: u64, process: &ArrivalProcess) -> Vec<Request> {
        let mut r = rng::seeded(seed);
        let buckets: [(usize, f64); 4] = [(512, 0.4), (1024, 0.3), (2048, 0.2), (4096, 0.1)];
        let mut reqs: Vec<Request> = (0..n as u64)
            .map(|id| {
                let weights: Vec<f64> = buckets.iter().map(|&(_, w)| w).collect();
                let pick = WeightedIndex::new(&weights).unwrap().sample(&mut r);
                let u: f64 = r.gen_range(0.0_f64..1.0);
                let raw = f64_to_usize((-(1.0 - u).ln() * 200.0).floor());
                Request {
                    id,
                    input_len: buckets[pick].0,
                    output_len: raw.clamp(25, 1024),
                    arrival_s: 0.0,
                }
            })
            .collect();
        let times = collected_times(process, n, seed.wrapping_add(1));
        for (r, t) in reqs.iter_mut().zip(times) {
            r.arrival_s = t;
        }
        reqs
    }

    #[test]
    fn one_pass_generation_matches_the_two_pass_generator_bit_for_bit() {
        let bits = |reqs: &[Request]| -> Vec<(u64, usize, usize, u64)> {
            reqs.iter()
                .map(|r| (r.id, r.input_len, r.output_len, r.arrival_s.to_bits()))
                .collect()
        };
        let time_bits = |times: &[f64]| -> Vec<u64> { times.iter().map(|t| t.to_bits()).collect() };
        let processes = [
            ArrivalProcess::Offline,
            ArrivalProcess::Poisson { rate_rps: 3.5 },
            ArrivalProcess::Bursty {
                rate_rps: 20.0,
                burst: 8,
            },
            ArrivalProcess::Bursty {
                rate_rps: 2.0,
                burst: 1,
            },
            ArrivalProcess::Trace(vec![0.0, 0.25, 0.25, 1.5]),
        ];
        for process in &processes {
            for seed in [0, 7, 2026] {
                for n in [0, 1, 203] {
                    let got = SyntheticDataset::dynamic_sonnet_online(n, seed, process);
                    let want = two_pass_online(n, seed, process);
                    assert_eq!(bits(&got), bits(&want), "{process:?}, seed {seed}, n {n}");
                    assert_eq!(
                        time_bits(&process.sample(n, seed)),
                        time_bits(&collected_times(process, n, seed)),
                        "{process:?}: sample, seed {seed}, n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_arrival_is_rejected_at_run_entry() {
        use crate::{Cluster, PagedBackend, RoutingPolicy, ServingEngine};
        use dcm_compiler::Device;
        use dcm_core::error::DcmError;
        use dcm_workloads::llama::LlamaConfig;

        let device = Device::gaudi2();
        let model = LlamaConfig::llama31_8b();
        let mut engine = ServingEngine::new(&device, model.clone(), 1, PagedBackend::GaudiOpt, 4);
        let mut cluster = Cluster::homogeneous(
            &device,
            &model,
            1,
            PagedBackend::GaudiOpt,
            4,
            2,
            RoutingPolicy::RoundRobin,
        );
        for arrival_s in [f64::NAN, -1.0, f64::INFINITY] {
            let reqs = [
                Request::new(1, 128, 4),
                Request {
                    arrival_s,
                    ..Request::new(7, 128, 4)
                },
            ];
            let names_request_7 =
                |e: DcmError| matches!(&e, DcmError::InvalidConfig(m) if m.contains("request 7"));
            assert!(
                names_request_7(engine.run(&reqs).unwrap_err()),
                "engine: {arrival_s}"
            );
            assert!(
                names_request_7(cluster.run(&reqs).unwrap_err()),
                "cluster: {arrival_s}"
            );
        }
    }
}
