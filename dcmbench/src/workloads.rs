//! The benchmark's workloads and one rep of each.
//!
//! Every workload is a closed loop: one caller runs reps back to back,
//! each in a fresh child process. Poisson arrivals exist only in
//! simulated time.

use crate::spans::Spans;
use crate::stats::Fnv;
use dcm_compiler::Device;
use dcm_core::metrics::MetricsMode;
use dcm_vllm::{
    ArrivalProcess, Cluster, ClusterReport, FabricConfig, FaultPlan, PagedBackend,
    ResilienceConfig, RoutingPolicy, ShedPolicy, SyntheticDataset,
};
use dcm_workloads::llama::LlamaConfig;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Offline capacity of one Gaudi-2 Llama-3.1-8B replica at decode batch
/// 16 on Dynamic-Sonnet traffic (EXPERIMENTS.md), in requests per second.
/// Arrival rates are fixed fractions of four such replicas.
const REPLICA_CAPACITY_RPS: f64 = 4.267;
const REPLICAS: usize = 4;
const MAX_DECODE_BATCH: usize = 16;

/// The seed the simulated workloads' digests are pinned for. The paper
/// artifacts fix their own seeds, so their digest is pinned for every
/// seed.
pub const PINNED_SEED: u64 = 2026;

/// Output digests at [`PINNED_SEED`]: a change that alters any simulated
/// count, float or artifact byte fails the correctness gate.
const PINNED_DIGESTS: [(Workload, u64); 4] = [
    (Workload::PaperArtifacts, 0x9416_ef86_2590_6f75),
    (Workload::PoissonFf, 0x84f6_a20d_15e6_9aa3),
    (Workload::ExactJsq, 0x49fd_b56a_0058_d82c),
    (Workload::FaultsFabricKv, 0x4a30_f5fe_e9fd_e53d),
];

/// The artifact binaries of `crates/bench/src/bin/`: every paper figure,
/// table, ablation and extension, i.e. all of them except `perf_report`,
/// which measures host speed and so never prints the same bytes twice.
pub const ARTIFACTS: [&str; 28] = [
    "ablate_block_size",
    "ablate_fabric",
    "ablate_fused_attention",
    "ablate_geometry",
    "ablate_granularity",
    "ablate_pipelining",
    "ext_fault_tolerance",
    "ext_gaudi3",
    "ext_hetero_cluster",
    "ext_multinode",
    "ext_online_serving",
    "ext_training",
    "fig04_roofline",
    "fig05_gemm_util",
    "fig07_mme_config",
    "fig08_stream",
    "fig09_gather_scatter",
    "fig10_collectives",
    "fig11_recsys",
    "fig12_llm_perf",
    "fig13_llm_energy",
    "fig15_embedding",
    "fig17_vllm",
    "golden_capture",
    "report",
    "table1_specs",
    "table3_models",
    "takeaways",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperArtifacts,
    PoissonFf,
    ExactJsq,
    FaultsFabricKv,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperArtifacts,
        Workload::PoissonFf,
        Workload::ExactJsq,
        Workload::FaultsFabricKv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperArtifacts => "paper_artifacts",
            Workload::PoissonFf => "poisson_ff",
            Workload::ExactJsq => "online_exact_jsq",
            Workload::FaultsFabricKv => "faults_fabric_kv",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serving configuration, or `None` for the paper artifacts.
    pub fn serving(self) -> Option<ServingSpec> {
        let spec = |requests, load, policy, fast_forward, metrics, faults| ServingSpec {
            requests,
            rate_rps: load * REPLICAS as f64 * REPLICA_CAPACITY_RPS,
            policy,
            fast_forward,
            metrics,
            faults,
        };
        match self {
            Workload::PaperArtifacts => None,
            // A quarter of the million requests ROADMAP names: the cost
            // per request is about the same, and a rep of ~4 s leaves
            // room for enough reps per run that their first quartile is
            // steady. A 10^6 rep takes ~16 s.
            Workload::PoissonFf => Some(spec(
                250_000,
                0.8,
                RoutingPolicy::RoundRobin,
                true,
                MetricsMode::Histogram,
                false,
            )),
            Workload::ExactJsq => Some(spec(
                100_000,
                0.9,
                RoutingPolicy::JoinShortestQueue,
                false,
                MetricsMode::Exact,
                false,
            )),
            Workload::FaultsFabricKv => Some(spec(
                100_000,
                0.8,
                RoutingPolicy::LeastLoadedKv,
                false,
                MetricsMode::Exact,
                true,
            )),
        }
    }

    /// Operations one rep attempts: each artifact binary, or one cluster
    /// run.
    pub fn ops_per_rep(self) -> u64 {
        match self {
            Workload::PaperArtifacts => ARTIFACTS.len() as u64,
            _ => 1,
        }
    }

    /// The digest every rep must reproduce, when one is pinned.
    pub fn pinned_digest(self, seed: u64) -> Option<u64> {
        if self != Workload::PaperArtifacts && seed != PINNED_SEED {
            return None;
        }
        PINNED_DIGESTS
            .iter()
            .find(|(w, _)| *w == self)
            .map(|&(_, d)| d)
    }
}

/// One cluster configuration on Dynamic-Sonnet Poisson traffic.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    pub requests: usize,
    pub rate_rps: f64,
    pub policy: RoutingPolicy,
    pub fast_forward: bool,
    pub metrics: MetricsMode,
    /// Fault plan, control fabric, queue-cap shedding and a KV cap.
    pub faults: bool,
}

impl ServingSpec {
    /// The same configuration over `requests` requests.
    #[cfg(test)]
    pub fn with_requests(self, requests: usize) -> Self {
        ServingSpec { requests, ..self }
    }
}

/// What one rep measured and produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub sim_tokens: u64,
}

impl Rep {
    /// The rep as the last line of the child-to-parent protocol.
    pub fn to_line(self) -> String {
        format!(
            "rep\t{}\t{}\t{}\t{:016x}\t{}\t{}\t{}",
            self.setup_s,
            self.wall_s,
            self.peak_rss_mb,
            self.digest,
            self.attempted,
            self.failed,
            self.sim_tokens
        )
    }

    pub fn from_line(line: &str) -> Option<Rep> {
        let f: Vec<&str> = line.strip_prefix("rep\t")?.split('\t').collect();
        let [setup_s, wall_s, rss, digest, attempted, failed, tokens] = f[..] else {
            return None;
        };
        Some(Rep {
            setup_s: setup_s.parse().ok()?,
            wall_s: wall_s.parse().ok()?,
            peak_rss_mb: rss.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            sim_tokens: tokens.parse().ok()?,
        })
    }
}

/// Set-up is repeated this many times per rep and its median reported,
/// so that work moved into set-up shows even with few reps.
const SETUP_REPEATS: usize = 5;

/// Everything a cluster run needs, built during set-up.
struct Prepared {
    trace: Vec<dcm_vllm::Request>,
    cluster: Cluster,
    plan: FaultPlan,
    resilience: ResilienceConfig,
}

fn prepare(spec: &ServingSpec, seed: u64, spans: &mut Spans) -> Prepared {
    let process = ArrivalProcess::Poisson {
        rate_rps: spec.rate_rps,
    };
    let (trace, _) = spans.span("vllm.dataset.generate", || {
        SyntheticDataset::dynamic_sonnet_online(spec.requests, seed, &process)
    });
    let (cluster, _) = spans.span("vllm.cluster.new", || {
        let gaudi = Device::gaudi2();
        let cluster = Cluster::homogeneous(
            &gaudi,
            &LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            MAX_DECODE_BATCH,
            REPLICAS,
            spec.policy,
        )
        .with_fast_forward(spec.fast_forward)
        .with_metrics_mode(spec.metrics);
        if spec.faults {
            cluster
                .with_fabric(FabricConfig::from_spec(gaudi.spec()))
                .with_kv_blocks(120)
        } else {
            cluster
        }
    });
    let (plan, resilience) = if spec.faults {
        // Replica 0 is down for the second quarter of the arrival span and
        // replica 1 runs at half speed through the third.
        let span_s = trace.last().map_or(0.0, |r| r.arrival_s);
        let plan = FaultPlan::none()
            .with_recovering_crash(0, 0.25 * span_s, 0.5 * span_s)
            .with_slowdown(1, 0.5 * span_s, 0.75 * span_s, 2.0);
        let resilience = ResilienceConfig {
            shed: ShedPolicy::queue_cap(32),
            ..ResilienceConfig::default()
        };
        (plan, resilience)
    } else {
        (FaultPlan::none(), ResilienceConfig::default())
    };
    Prepared {
        trace,
        cluster,
        plan,
        resilience,
    }
}

/// One cluster run: set up (trace generation and cluster construction),
/// serve, then check and digest the report.
pub fn serving_rep(spec: &ServingSpec, seed: u64, spans: &mut Spans) -> Rep {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(prepare(spec, seed, spans));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut p = prepared.expect("at least one set-up");
    let (result, wall_s) = spans.span("vllm.cluster.run", || {
        p.cluster.run_resilient(&p.trace, &p.plan, &p.resilience)
    });
    let (digest, failed, sim_tokens) = match result {
        Ok(report) => {
            let expected_tokens: usize = p.trace.iter().map(|r| r.output_len).sum();
            let ok = check_report(&report, spec, expected_tokens);
            if !ok {
                eprintln!("dcmbench: report failed its checks: {:?}", report.serving);
            }
            (
                report_digest(&report),
                u64::from(!ok),
                report.serving.total_output_tokens as u64,
            )
        }
        Err(e) => {
            eprintln!("dcmbench: cluster run failed: {e}");
            (0, 1, 0)
        }
    };
    Rep {
        setup_s: crate::stats::median(&setups),
        wall_s,
        peak_rss_mb: own_peak_rss_mb(),
        digest,
        attempted: 1,
        failed,
        sim_tokens,
    }
}

/// Every offered request ends completed, shed or failed; without faults
/// every request completes with exactly the tokens the trace asked for.
fn check_report(report: &ClusterReport, spec: &ServingSpec, expected_tokens: usize) -> bool {
    let s = &report.serving;
    let accounted = s.offered() == spec.requests && s.completed > 0;
    let fault_free = spec.faults
        || (s.completed == spec.requests
            && s.shed == 0
            && s.failed == 0
            && s.total_output_tokens == expected_tokens);
    accounted && fault_free
}

/// Digest of every count and the exact bits of every float in a report.
pub fn report_digest(report: &ClusterReport) -> u64 {
    let s = &report.serving;
    let mut h = Fnv::default();
    for n in [
        s.completed,
        s.total_output_tokens,
        s.peak_batch,
        s.preemptions,
        s.shed,
        s.failed,
        s.retries,
        s.lost_tokens,
    ] {
        h.usize(n);
    }
    for x in [
        s.total_time_s,
        s.throughput_tps,
        s.mean_ttft_s,
        s.mean_tpot_s,
        s.p50_ttft_s,
        s.p95_ttft_s,
        s.p99_ttft_s,
        s.p50_tpot_s,
        s.p95_tpot_s,
        s.p99_tpot_s,
        s.mean_queue_delay_s,
        s.p99_queue_delay_s,
        s.goodput_tps,
        s.slo_attainment,
    ] {
        h.f64(x);
    }
    for r in &report.per_replica {
        for n in [
            r.dispatched,
            r.completed,
            r.output_tokens,
            r.preemptions,
            r.crashes,
        ] {
            h.usize(n);
        }
        h.f64(r.busy_s).f64(r.utilization);
    }
    h.finish()
}

/// One pass over every artifact binary in `bin_dir`, each in a fresh
/// working directory under `scratch`, with stdout and written files
/// digested after the timed pass.
pub fn artifacts_rep(bin_dir: &Path, scratch: &Path, spans: &mut Spans) -> Rep {
    let root = scratch.join(format!("rep-{}", std::process::id()));
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        jobs = artifact_jobs(bin_dir, &root);
        setups.push(start.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let outputs: Vec<_> = jobs
        .iter()
        .map(|(name, exe, dir)| {
            let (out, _) = spans.span(&format!("artifact.{name}"), || {
                Command::new(exe)
                    .current_dir(dir)
                    .env("DCM_THREADS", "1")
                    .env_remove("DCM_SMOKE")
                    .stdin(Stdio::null())
                    .output()
            });
            out
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();

    let mut h = Fnv::default();
    let mut failed = 0;
    for ((name, exe, dir), out) in jobs.iter().zip(outputs) {
        match out {
            Ok(o) if o.status.success() => {
                h.field(name.as_bytes()).field(&o.stdout);
                digest_dir(dir, dir, &mut h);
            }
            Ok(o) => {
                failed += 1;
                eprintln!(
                    "dcmbench: {} exited with {}:\n{}",
                    exe.display(),
                    o.status,
                    String::from_utf8_lossy(&o.stderr)
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("dcmbench: cannot start {}: {e}", exe.display());
            }
        }
    }
    let _ = fs::remove_dir_all(&root);
    Rep {
        setup_s: crate::stats::median(&setups),
        wall_s,
        peak_rss_mb: children_peak_rss_mb(),
        digest: h.finish(),
        attempted: ARTIFACTS.len() as u64,
        failed,
        sim_tokens: 0,
    }
}

/// Set-up of an artifacts rep: an empty working directory per binary,
/// and the binary's path. A missing binary surfaces as a failed start.
fn artifact_jobs(bin_dir: &Path, root: &Path) -> Vec<(&'static str, PathBuf, PathBuf)> {
    let _ = fs::remove_dir_all(root);
    ARTIFACTS
        .iter()
        .map(|&name| {
            let dir = root.join(name);
            if let Err(e) = fs::create_dir_all(&dir) {
                eprintln!("dcmbench: cannot create {}: {e}", dir.display());
            }
            (name, bin_dir.join(name), dir)
        })
        .collect()
}

/// Fold every file under `dir` into `h`, in sorted path order.
fn digest_dir(base: &Path, dir: &Path, h: &mut Fnv) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            digest_dir(base, &p, h);
        } else {
            let rel = p.strip_prefix(base).unwrap_or(&p);
            h.field(rel.to_string_lossy().as_bytes())
                .field(&fs::read(&p).unwrap_or_default());
        }
    }
}

/// This process's peak resident set, in MiB.
fn own_peak_rss_mb() -> f64 {
    peak_rss_mb(0) // RUSAGE_SELF
}

/// Largest peak resident set of any waited-for child process, in MiB.
fn children_peak_rss_mb() -> f64 {
    peak_rss_mb(-1) // RUSAGE_CHILDREN
}

/// `ru_maxrss` of `getrusage(who)`, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb(who: i32) -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (kB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` has the layout of the platform's `struct rusage` and is
    // writable; getrusage writes only within it.
    let rc = unsafe { getrusage(who, &mut u) };
    if rc == 0 {
        u.maxrss_kb as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mb(_who: i32) -> f64 {
    0.0
}
