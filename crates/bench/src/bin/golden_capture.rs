//! Regenerate the golden bit-pattern fixtures pinned by
//! `tests/tests/golden_serving.rs`.
//!
//! The discrete-event refactor (and any future scheduler change) must not
//! move a single bit of the serving reports on the pinned configurations.
//! This binary prints each pinned report as `(field, f64::to_bits)` rows —
//! paste its output into the golden test when an *intentional* semantic
//! change lands, with a CHANGELOG note explaining why the goldens moved.
//!
//! ```text
//! cargo run --release -p dcm-bench --bin golden_capture
//! ```

use dcm_compiler::Device;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, ClusterReport, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::engine::{ServingEngine, ServingReport};
use dcm_vllm::fault::{FaultPlan, ResilienceConfig, ShedPolicy};
use dcm_workloads::llama::LlamaConfig;

fn engine(max_batch: usize) -> ServingEngine {
    ServingEngine::new(
        &Device::gaudi2(),
        LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        max_batch,
    )
}

fn dump_serving(name: &str, r: &ServingReport) {
    println!("// {name}");
    println!(
        "(\"{name}\", &[{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]),",
        r.completed,
        r.total_output_tokens,
        r.peak_batch,
        r.preemptions,
        r.total_time_s.to_bits(),
        r.throughput_tps.to_bits(),
        r.mean_ttft_s.to_bits(),
        r.mean_tpot_s.to_bits(),
        r.p99_ttft_s.to_bits(),
        r.p99_tpot_s.to_bits(),
        r.mean_queue_delay_s.to_bits(),
        r.goodput_tps.to_bits(),
    );
}

fn dump_cluster(name: &str, r: &ClusterReport) {
    dump_serving(name, &r.serving);
    let extra: Vec<String> = r
        .per_replica
        .iter()
        .flat_map(|p| {
            vec![
                p.dispatched.to_string(),
                p.completed.to_string(),
                p.output_tokens.to_string(),
                p.busy_s.to_bits().to_string(),
            ]
        })
        .collect();
    println!("// {name} per-replica [dispatched, completed, tokens, busy_bits]*");
    println!("(\"{name}.replicas\", &[{}]),", extra.join(", "));
    println!(
        "(\"{name}.counts\", &[{}, {}, {}, {}]),",
        r.serving.shed, r.serving.failed, r.serving.retries, r.serving.lost_tokens
    );
}

fn main() {
    // A: the paper's offline Figure 17(d,e) path.
    let offline = SyntheticDataset::dynamic_sonnet(16, 11);
    let a = engine(8).run(&offline).expect("offline trace fits");
    dump_serving("offline_engine", &a);

    // B: online single engine, Poisson arrivals.
    let online =
        SyntheticDataset::dynamic_sonnet_online(24, 5, &ArrivalProcess::Poisson { rate_rps: 8.0 });
    let b = engine(4).run(&online).expect("online trace fits");
    dump_serving("online_engine", &b);

    // C: preemption under memory pressure (exercises victim eviction).
    let tight = SyntheticDataset::fixed(4, 256, 200);
    let c = engine(4)
        .with_kv_blocks(12)
        .run(&tight)
        .expect("tight trace fits");
    dump_serving("preempting_engine", &c);

    // D: 3-replica online cluster, JSQ routing.
    let trace = SyntheticDataset::dynamic_sonnet_online(
        24,
        17,
        &ArrivalProcess::Poisson { rate_rps: 10.0 },
    );
    let d = Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        8,
        3,
        RoutingPolicy::JoinShortestQueue,
    )
    .run(&trace)
    .expect("cluster trace fits");
    dump_cluster("online_cluster", &d);

    // E: seeded faults (crash + slowdown) under a queue-cap shed policy.
    let plan = FaultPlan::random_crashes(3, 1, 3.0, 97).with_slowdown(1, 0.5, 1.5, 2.0);
    let cfg = ResilienceConfig {
        shed: ShedPolicy::queue_cap(12),
        ..ResilienceConfig::default()
    };
    let e = Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        8,
        3,
        RoutingPolicy::JoinShortestQueue,
    )
    .run_resilient(&trace, &plan, &cfg)
    .expect("fault trace fits");
    dump_cluster("fault_cluster", &e);
}
