//! Per-layer probes: each times one public function of one crate, on
//! the benchmark workloads' input shapes or on the shapes of the
//! criterion benches in `crates/bench/benches/`.
//!
//! A probe reports the minimum over several timed regions of the mean
//! cost per operation; each region lasts at least `min_region`. The
//! unit is the metric name's suffix (`_ns`, `_us`, `_ms`, `_s`).

use crate::spans::Spans;
use crate::workloads::{ServingSpec, Workload};
use dcm_compiler::{CompileOptions, Device};
use dcm_core::metrics::LatencyRecorder;
use dcm_core::sim::EventQueue;
use dcm_core::tensor::{Tensor, TensorDesc};
use dcm_core::{rng, DType, DeviceSpec};
use dcm_embedding::BatchedTableOp;
use dcm_mem::GatherScatterEngine;
use dcm_mme::{A100TensorCore, GaudiMme, GemmEngine, GemmShape};
use dcm_net::{
    functional, Collective, CollectiveModel, FlowSim, FlowTransport, MultiNodeFlowTransport,
    Topology,
};
use dcm_tpc::{IndexMember, IndexSpace, StreamKernel, TpcContext, TpcExecutor, VectorEngineModel};
use dcm_vllm::{
    ArrivalProcess, BatchStats, Cluster, FabricConfig, PagedAttention, PagedBackend, PagedKvCache,
    Request, RoutingPolicy, SeqSlab, ServingEngine, SyntheticDataset,
};
use dcm_workloads::dlrm::{DlrmConfig, DlrmServer};
use dcm_workloads::llama::LlamaConfig;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long and on how much input the probes measure.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    pub min_region: Duration,
    pub regions: usize,
    /// Arrivals pushed through the event queue and histogram recorder,
    /// and requests per generated trace: `poisson_ff`'s size.
    pub events: usize,
    /// Samples in an exact-mode recorder: one per request of the
    /// exact-metrics workloads.
    pub exact_samples: usize,
}

impl ProbeConfig {
    pub fn full() -> Self {
        ProbeConfig {
            min_region: Duration::from_millis(100),
            regions: 3,
            events: poisson_ff().requests,
            exact_samples: 100_000,
        }
    }
}

/// One per-layer metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Unit of a probe and its factor from seconds, by the name's suffix.
fn unit_of(name: &str) -> (&'static str, f64) {
    [
        ("_ns", "ns", 1e9),
        ("_us", "us", 1e6),
        ("_ms", "ms", 1e3),
        ("_s", "s", 1.0),
    ]
    .into_iter()
    .find(|(suffix, ..)| name.ends_with(suffix))
    .map(|(_, unit, scale)| (unit, scale))
    .unwrap_or_else(|| panic!("probe {name} has no time-unit suffix"))
}

/// Runs probes, wrapping each in a span and collecting its metric.
struct Prober<'a> {
    cfg: ProbeConfig,
    spans: &'a mut Spans,
    out: Vec<Metric>,
}

impl Prober<'_> {
    /// Measure `secs_per_op` and report it under `name`.
    fn probe(&mut self, name: &str, secs_per_op: impl FnOnce(&ProbeConfig) -> f64) {
        let cfg = self.cfg;
        let (secs, _) = self
            .spans
            .span(&format!("probe.{name}"), || secs_per_op(&cfg));
        let (unit, scale) = unit_of(name);
        self.out.push(Metric {
            name: name.to_owned(),
            value: secs * scale,
            unit,
        });
    }
}

/// Seconds per operation: the minimum over `cfg.regions` regions of at
/// least `cfg.min_region` each. `batch` does its own untimed preparation
/// and returns the host time of its timed part with the operations it
/// timed.
fn per_op(cfg: &ProbeConfig, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..cfg.regions {
        let (mut elapsed, mut ops) = (Duration::ZERO, 0u64);
        while elapsed < cfg.min_region || ops == 0 {
            let (d, n) = batch();
            elapsed += d;
            ops += n;
        }
        best = best.min(elapsed.as_secs_f64() / ops as f64);
    }
    best
}

/// [`per_op`] for a call that needs no preparation. Calls are timed in
/// groups long enough that reading the clock costs nothing measurable.
fn per_call<R>(cfg: &ProbeConfig, mut f: impl FnMut() -> R) -> f64 {
    let group_floor = cfg.min_region / 100;
    let mut group = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..group {
            black_box(f());
        }
        if start.elapsed() >= group_floor || group >= 1 << 24 {
            break;
        }
        group *= 2;
    }
    per_op(cfg, || {
        let start = Instant::now();
        for _ in 0..group {
            black_box(f());
        }
        (start.elapsed(), group)
    })
}

/// Time `f` once, returning its elapsed time and result.
fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// Every probe, on inputs drawn from `seed`.
pub fn all(cfg: ProbeConfig, seed: u64, spans: &mut Spans) -> Vec<Metric> {
    let mut p = Prober {
        cfg,
        spans,
        out: Vec::new(),
    };
    core_probes(&mut p, seed);
    vllm_probes(&mut p, seed);
    compiler_probes(&mut p);
    net_probes(&mut p);
    device_probes(&mut p);
    p.out
}

/// The `poisson_ff` workload, whose shapes several probes use.
fn poisson_ff() -> ServingSpec {
    Workload::PoissonFf
        .serving()
        .expect("poisson_ff is a serving workload")
}

fn poisson_process() -> ArrivalProcess {
    ArrivalProcess::Poisson {
        rate_rps: poisson_ff().rate_rps,
    }
}

fn core_probes(p: &mut Prober<'_>, seed: u64) {
    // The workload's arrival instants: its trace generator draws them
    // from `seed + 1`.
    let arrivals = poisson_process().sample(p.cfg.events, seed.wrapping_add(1));
    // Inter-arrival gaps stand in for latency samples: positive, with
    // the spread of real queueing delays.
    let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
    let n = arrivals.len() as u64;

    p.probe("core.sim.push_ns", |cfg| {
        per_op(cfg, || {
            let mut q = EventQueue::new();
            let (d, ()) = timed(|| {
                for (i, &t) in arrivals.iter().enumerate() {
                    q.push(t, 0, i);
                }
            });
            black_box(q.len());
            (d, n)
        })
    });
    p.probe("core.sim.pop_due_ns", |cfg| {
        per_op(cfg, || {
            let mut q = EventQueue::with_capacity(arrivals.len());
            for (i, &t) in arrivals.iter().enumerate() {
                q.push(t, 0, i);
            }
            let (d, calls) = timed(|| {
                let mut calls = 0u64;
                for &horizon in &arrivals {
                    calls += 1;
                    while let Some(e) = q.pop_due(horizon) {
                        black_box(e.payload);
                        calls += 1;
                    }
                }
                calls
            });
            assert!(q.is_empty(), "every arrival is due by the last horizon");
            (d, calls)
        })
    });
    p.probe("core.metrics.record_hist_ns", |cfg| {
        per_op(cfg, || {
            let mut r = LatencyRecorder::histogram_mode();
            let (d, ()) = timed(|| gaps.iter().for_each(|&g| r.record(g)));
            black_box(r.count());
            (d, gaps.len() as u64)
        })
    });
    let exact = &gaps[..p.cfg.exact_samples.min(gaps.len())];
    p.probe("core.metrics.record_exact_ns", |cfg| {
        per_op(cfg, || {
            let mut r = LatencyRecorder::new();
            let (d, ()) = timed(|| exact.iter().for_each(|&g| r.record(g)));
            black_box(r.count());
            (d, exact.len() as u64)
        })
    });
    p.probe("core.metrics.quantile_exact_ms", |cfg| {
        let mut r = LatencyRecorder::new();
        exact.iter().for_each(|&g| r.record(g));
        per_call(cfg, || r.quantile(99.0))
    });
}

fn vllm_probes(p: &mut Prober<'_>, seed: u64) {
    let gaudi = Device::gaudi2();
    let model = LlamaConfig::llama31_8b();
    let sonnet = SyntheticDataset::dynamic_sonnet(4096, seed);
    let batch = &sonnet[..16];

    p.probe("vllm.dataset.generate_s", |cfg| {
        let process = poisson_process();
        per_op(cfg, || {
            let (d, trace) =
                timed(|| SyntheticDataset::dynamic_sonnet_online(cfg.events, seed, &process));
            drop(black_box(trace));
            (d, 1)
        })
    });

    p.probe("vllm.kv_cache.append_ns", |cfg| {
        per_op(cfg, || {
            let mut kv = admitted(batch);
            let steps = batch.iter().map(|r| r.output_len).max().unwrap_or(0);
            timed(|| {
                let mut ops = 0;
                for step in 0..steps {
                    for (id, r) in batch.iter().enumerate() {
                        if step < r.output_len {
                            kv.append_token(id as u64)
                                .expect("cache sized for the batch");
                            ops += 1;
                        }
                    }
                }
                ops
            })
        })
    });
    p.probe("vllm.kv_cache.append_bulk_ns", |cfg| {
        // Fast-forward appends a stretch of tokens per sequence at once.
        const STRETCH: usize = 64;
        per_op(cfg, || {
            let mut kv = admitted(batch);
            timed(|| {
                let mut ops = 0;
                for (id, r) in batch.iter().enumerate() {
                    let mut left = r.output_len;
                    while left > 0 {
                        let n = left.min(STRETCH);
                        kv.append_tokens(id as u64, n)
                            .expect("cache sized for the batch");
                        left -= n;
                        ops += 1;
                    }
                }
                ops
            })
        })
    });
    p.probe("vllm.kv_cache.admit_release_ns", |cfg| {
        // The faults_fabric_kv cap: 120 blocks churn through the trace.
        per_op(cfg, || {
            let mut kv = PagedKvCache::new(120, 128);
            let mut live = VecDeque::with_capacity(120);
            timed(|| {
                for (id, r) in sonnet.iter().enumerate() {
                    while !kv.can_admit(r.input_len) {
                        let old = live.pop_front().expect("an empty cache admits any prompt");
                        kv.release(old).expect("live sequence");
                    }
                    kv.admit(id as u64, r.input_len).expect("room was made");
                    live.push_back(id as u64);
                }
                for id in live.drain(..) {
                    kv.release(id).expect("live sequence");
                }
                sonnet.len() as u64
            })
        })
    });
    p.probe("vllm.slab.insert_remove_ns", |cfg| {
        per_op(cfg, || {
            let mut slab = SeqSlab::with_capacity(16);
            let mut slots = Vec::with_capacity(16);
            timed(|| {
                for chunk in sonnet.chunks(16) {
                    slots.extend(
                        chunk
                            .iter()
                            .map(|r| slab.insert(*r, r.output_len, 0.0, 0, r.input_len)),
                    );
                    for s in slots.drain(..) {
                        black_box(slab.remove(s));
                    }
                }
                sonnet.len() as u64
            })
        })
    });

    let attention = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);
    let block_tokens = attention.batch_stats().block_tokens();
    // Mid-generation context lengths of the workload's requests.
    let lens: Vec<usize> = sonnet
        .iter()
        .map(|r| r.input_len + r.output_len / 2)
        .collect();
    for b in [1usize, 8, 16] {
        let stats = BatchStats::from_lens(&lens[..b], block_tokens);
        p.probe(&format!("vllm.attention.decode_cost.b{b}_ns"), |cfg| {
            per_call(cfg, || attention.decode_cost_from_stats(&stats, 0.0).time())
        });
    }
    p.probe("vllm.attention.stats_grow_ns", |cfg| {
        const STEPS: usize = 256;
        per_op(cfg, || {
            let mut cur = lens[..16].to_vec();
            let mut stats = BatchStats::from_lens(&cur, block_tokens);
            timed(|| {
                for _ in 0..STEPS {
                    for l in &mut cur {
                        stats.grow(*l);
                        *l += 1;
                    }
                }
                (STEPS * cur.len()) as u64
            })
        })
    });
    // The `paged-attention-price-b64` criterion bench.
    let lens64: Vec<usize> = (0..64).map(|i| 256 + i * 32).collect();
    p.probe("vllm.attention.decode_cost_slice.b64_ns", |cfg| {
        per_call(cfg, || attention.decode_cost(&lens64, 0.0).time())
    });

    // The `serving-engine-6-requests` criterion bench.
    let six = SyntheticDataset::fixed(6, 256, 16);
    p.probe("vllm.engine.serve_6req_us", |cfg| {
        per_call(cfg, || {
            ServingEngine::new(&gaudi, model.clone(), 1, PagedBackend::GaudiOpt, 6)
                .run(&six)
                .expect("trace fits")
                .throughput_tps
        })
    });
    p.probe("vllm.cluster.new_us", |cfg| {
        per_call(cfg, || {
            Cluster::homogeneous(
                &gaudi,
                &model,
                1,
                PagedBackend::GaudiOpt,
                16,
                4,
                RoutingPolicy::JoinShortestQueue,
            )
        })
    });
}

/// A cache holding `batch`'s prompts, with room for every output token.
fn admitted(batch: &[Request]) -> PagedKvCache {
    let blocks: usize = batch
        .iter()
        .map(|r| (r.input_len + r.output_len).div_ceil(128) + 1)
        .sum();
    let mut kv = PagedKvCache::new(blocks, 128);
    for (id, r) in batch.iter().enumerate() {
        kv.admit(id as u64, r.input_len)
            .expect("cache sized for the batch");
    }
    kv
}

fn compiler_probes(p: &mut Prober<'_>) {
    let gaudi = &Device::gaudi2();
    let opts = &CompileOptions::default();
    let model = LlamaConfig::llama31_8b();
    let graphs = |gs: Vec<dcm_compiler::Graph>| {
        move |cfg: &ProbeConfig| {
            per_op(cfg, || {
                timed(|| {
                    for g in &gs {
                        black_box(gaudi.run_graph(g, opts).time_s());
                    }
                    gs.len() as u64
                })
            })
        }
    };
    // Dynamic-Sonnet prompt buckets, one request per prefill.
    p.probe(
        "compiler.run_graph.prefill_us",
        graphs(
            [512, 1024, 2048, 4096]
                .map(|l| model.prefill_graph(1, l, 1))
                .to_vec(),
        ),
    );
    p.probe(
        "compiler.run_graph.decode_nonattn_us",
        graphs((1..=16).map(|b| model.decode_nonattn_graph(b, 1)).collect()),
    );
    // The `llama8b-decode-step-price` criterion bench.
    p.probe(
        "compiler.run_graph.decode_step_us",
        graphs(vec![model.decode_step_graph(64, 1024, 1)]),
    );
}

fn net_probes(p: &mut Prober<'_>) {
    let spec = DeviceSpec::gaudi2();
    let fabric = FabricConfig::from_spec(&spec);
    // The cluster's control fabric: router -> hub -> one link per replica.
    p.probe("net.flow.dispatch_us", |cfg| {
        const DISPATCHES: usize = 256;
        per_op(cfg, || {
            let mut topo = Topology::new(2 + 4);
            let egress = topo.add_link(0, 1, fabric.link_bps, fabric.latency_s);
            for i in 0..4 {
                let l = topo.add_link(1, 2 + i, fabric.link_bps, 0.0);
                topo.add_route(0, 2 + i, vec![egress, l]);
            }
            let mut sim = FlowSim::new(topo);
            timed(|| {
                for i in 0..DISPATCHES {
                    sim.inject(0, 2 + i % 4, fabric.dispatch_bytes, &[]);
                    while let Some(t) = sim.next_time() {
                        sim.advance_to(t);
                    }
                }
                DISPATCHES as u64
            })
        })
    });
    let transport = FlowTransport::new(&spec);
    p.probe("net.transport.allreduce_us", |cfg| {
        per_call(cfg, || transport.time(Collective::AllReduce, 32 << 20, 8))
    });
    let multinode = MultiNodeFlowTransport::new(&spec, 16);
    p.probe("net.multinode.allreduce_us", |cfg| {
        per_call(cfg, || multinode.allreduce_time(1 << 30))
    });
    // The `collective-sweep` criterion bench, per model call.
    let model = CollectiveModel::new(&spec);
    p.probe("net.collective.sweep_ns", |cfg| {
        per_op(cfg, || {
            timed(|| {
                let mut calls = 0;
                for coll in Collective::ALL {
                    for n in [2usize, 4, 8] {
                        for kb in [2u64, 512, 32768] {
                            black_box(model.bus_utilization(coll, kb << 10, n));
                            calls += 1;
                        }
                    }
                }
                calls
            })
        })
    });
    // The `functional-allreduce-8x4096` criterion bench.
    let mut r = rng::seeded(3);
    let tensors: Vec<Tensor> = (0..8)
        .map(|_| Tensor::random([4096], DType::Fp32, &mut r))
        .collect();
    p.probe("net.functional.allreduce_8x4096_us", |cfg| {
        per_call(cfg, || {
            let mut ts = tensors.clone();
            functional::allreduce(&mut ts).expect("uniform shapes");
            ts[0].data()[0]
        })
    });
}

/// The device-model criterion benches (`gemm`, `microbench`, `serving`'s
/// DLRM batch), with their shapes.
fn device_probes(p: &mut Prober<'_>) {
    let gaudi_spec = DeviceSpec::gaudi2();
    let shapes = [
        GemmShape::square(512),
        GemmShape::square(8192),
        GemmShape::new(16384, 16384, 16),
        GemmShape::new(8, 14336, 4096),
    ];
    fn gemms(engine: &impl GemmEngine, shapes: &[GemmShape], cfg: &ProbeConfig) -> f64 {
        per_op(cfg, || {
            timed(|| {
                for &s in shapes {
                    black_box(engine.gemm(black_box(s), DType::Bf16));
                }
                shapes.len() as u64
            })
        })
    }
    let mme = GaudiMme::new(&gaudi_spec);
    p.probe("mme.gemm.gaudi_us", |cfg| gemms(&mme, &shapes, cfg));
    let tc = A100TensorCore::new(&DeviceSpec::a100());
    p.probe("mme.gemm.a100_us", |cfg| gemms(&tc, &shapes, cfg));
    p.probe("mme.batched_gemv_us", |cfg| {
        per_call(cfg, || {
            mme.batched_gemm(2048, GemmShape::new(1, 128, 1024), DType::Bf16)
        })
    });

    let gather = GatherScatterEngine::new(&gaudi_spec);
    p.probe("mem.gather_model_ns", |cfg| {
        per_op(cfg, || {
            timed(|| {
                for size in [16usize, 256, 2048] {
                    black_box(gather.gather_utilization(black_box(1 << 20), size));
                }
                3
            })
        })
    });

    let vector = VectorEngineModel::new(&gaudi_spec);
    p.probe("tpc.stream_model_ns", |cfg| {
        per_op(cfg, || {
            timed(|| {
                let mut calls = 0;
                for gran in [2usize, 64, 256, 2048] {
                    for unroll in [1usize, 4, 16] {
                        let k = StreamKernel::triad()
                            .with_granularity(gran)
                            .with_unroll(unroll);
                        black_box(vector.throughput(black_box(&k), 24, DType::Bf16));
                        calls += 1;
                    }
                }
                calls
            })
        })
    });

    let exec = TpcExecutor::new(&gaudi_spec);
    let mut r = rng::seeded(1);
    let n = 64 * 256;
    let a = Tensor::random([n], DType::Fp32, &mut r);
    let b = Tensor::random([n], DType::Fp32, &mut r);
    let space = IndexSpace::linear(256);
    p.probe("tpc.functional_add16k_us", |cfg| {
        per_call(cfg, || {
            exec.launch(
                &|ctx: &mut TpcContext<'_>, m: IndexMember| {
                    let x = ctx.ld_tnsr(0, m.coord(0) * 64, 64)?;
                    let y = ctx.ld_tnsr(1, m.coord(0) * 64, 64)?;
                    let s = ctx.v_add(&x, &y)?;
                    ctx.st_tnsr(0, m.coord(0) * 64, &s)
                },
                &space,
                &[&a, &b],
                &[TensorDesc::new([n], DType::Fp32)],
            )
            .expect("kernel runs")
            .cost
            .time()
        })
    });

    let device = Device::gaudi2();
    let op = BatchedTableOp::new(device.spec());
    let server = DlrmServer::new(DlrmConfig::rm2(256));
    p.probe("workloads.dlrm.serve_b2048_us", |cfg| {
        per_call(cfg, || server.serve(&device, &op, 2048).time_s())
    });
}
