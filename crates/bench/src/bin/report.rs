//! Regenerate the headline heatmaps and export them as CSV under
//! `results/`, for plotting outside the terminal.
//!
//! ```text
//! cargo run --release -p dcm-bench --bin report
//! ```

use dcm_bench::{LLM_BATCHES, OUTPUT_LENS, RECSYS_BATCHES, VECTOR_SIZES};
use dcm_compiler::Device;
use dcm_core::metrics::Heatmap;
use dcm_embedding::{BatchedTableOp, EmbeddingConfig, EmbeddingOp};
use dcm_mem::GatherScatterEngine;
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_vllm::cluster::{Cluster, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::fault::{FaultPlan, ResilienceConfig, ShedPolicy, SloSpec};
use dcm_workloads::dlrm::{DlrmConfig, DlrmServer};
use dcm_workloads::llama::{LlamaConfig, LlamaServer};
use std::path::Path;

fn write_csv(dir: &Path, name: &str, h: &Heatmap) {
    dcm_bench::write_artifact(&dir.join(format!("{name}.csv")), &h.to_csv());
}

fn main() {
    let dir = Path::new("results");
    let gaudi = Device::gaudi2();
    let a100 = Device::a100();

    // Figure 9: gather utilization per device.
    for device in [&gaudi, &a100] {
        let engine = GatherScatterEngine::new(device.spec());
        let mut h = Heatmap::new(
            format!("fig9 gather util {}", device.name()),
            "vector_bytes",
            "count",
            vec!["4194304".into()],
        );
        for &vb in &VECTOR_SIZES {
            h.push_row(vb.to_string(), vec![engine.gather_utilization(4 << 20, vb)]);
        }
        write_csv(
            dir,
            &format!("fig09_gather_{}", device.name().to_lowercase()),
            &h,
        );
    }

    // Figure 11: RM2 speedup heatmap.
    let mut rm2 = Heatmap::new(
        "fig11 RM2 Gaudi-2 speedup",
        "vector_bytes",
        "batch",
        RECSYS_BATCHES.iter().map(|b| b.to_string()).collect(),
    );
    for &vb in &VECTOR_SIZES {
        let server = DlrmServer::new(DlrmConfig::rm2(vb));
        rm2.push_row(
            vb.to_string(),
            RECSYS_BATCHES
                .iter()
                .map(|&b| {
                    let g = server.serve(&gaudi, &BatchedTableOp::new(gaudi.spec()), b);
                    let a = server.serve(&a100, &BatchedTableOp::new(a100.spec()), b);
                    a.time_s() / g.time_s()
                })
                .collect(),
        );
    }
    write_csv(dir, "fig11_rm2_speedup", &rm2);

    // Figure 12: 8B single-device speedup heatmap.
    let server = LlamaServer::new(LlamaConfig::llama31_8b(), 1);
    let mut llm = Heatmap::new(
        "fig12 8B speedup",
        "batch",
        "output_len",
        OUTPUT_LENS.iter().map(|o| o.to_string()).collect(),
    );
    for &batch in &LLM_BATCHES {
        llm.push_row(
            batch.to_string(),
            OUTPUT_LENS
                .iter()
                .map(|&out| {
                    let g = server.serve(&gaudi, batch, 100, out);
                    let a = server.serve(&a100, batch, 100, out);
                    a.total_time_s() / g.total_time_s()
                })
                .collect(),
        );
    }
    write_csv(dir, "fig12_llama8b_speedup", &llm);

    // Figure 15: BatchedTable utilization heatmaps.
    for device in [&gaudi, &a100] {
        let op = BatchedTableOp::new(device.spec());
        let batches = [8usize, 32, 128, 512, 2048, 4096];
        let mut h = Heatmap::new(
            format!("fig15 batched util {}", device.name()),
            "vector_bytes",
            "batch",
            batches.iter().map(|b| b.to_string()).collect(),
        );
        for &vb in &VECTOR_SIZES {
            let cfg = EmbeddingConfig::rm2_like(vb);
            h.push_row(
                vb.to_string(),
                batches.iter().map(|&b| op.utilization(&cfg, b)).collect(),
            );
        }
        write_csv(
            dir,
            &format!("fig15_batched_{}", device.name().to_lowercase()),
            &h,
        );
    }

    // Figure 17(a): vLLM opt/base speedup.
    let model = LlamaConfig::llama31_8b();
    let base = PagedAttention::new(&gaudi, PagedBackend::GaudiBase, &model, 1);
    let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);
    let batches = [8usize, 16, 32, 64];
    let mut vllm = Heatmap::new(
        "fig17a vLLMopt speedup",
        "seq_len",
        "batch",
        batches.iter().map(|b| b.to_string()).collect(),
    );
    for &len in &[512usize, 1024, 2048, 4096] {
        vllm.push_row(
            len.to_string(),
            batches
                .iter()
                .map(|&b| {
                    let lens = vec![len; b];
                    base.decode_cost(&lens, 0.0).time() / opt.decode_cost(&lens, 0.0).time()
                })
                .collect(),
        );
    }
    write_csv(dir, "fig17a_vllm_speedup", &vllm);

    // Online serving extension: achieved throughput and p99 TTFT versus
    // offered load x replica count (Gaudi-2 vLLMopt, JSQ routing) — the
    // curves behind `ext_online_serving`.
    let load_factors = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let replica_counts = [1usize, 2, 4, 8];
    let per_replica_trace = 64;
    let seed = 2026;
    let capacity_rps =
        dcm_bench::offline_capacity_rps(&gaudi, PagedBackend::GaudiOpt, &model, per_replica_trace);
    let mut online_tput = Heatmap::new(
        "ext online serving: achieved throughput (tokens/s)",
        "load_factor",
        "replicas",
        replica_counts.iter().map(|r| r.to_string()).collect(),
    );
    let mut online_p99 = Heatmap::new(
        "ext online serving: p99 TTFT (s)",
        "load_factor",
        "replicas",
        replica_counts.iter().map(|r| r.to_string()).collect(),
    );
    for load in load_factors {
        let mut tput_row = Vec::new();
        let mut p99_row = Vec::new();
        for replicas in replica_counts {
            let trace = SyntheticDataset::dynamic_sonnet_online(
                per_replica_trace * replicas,
                seed,
                &ArrivalProcess::Poisson {
                    rate_rps: load * capacity_rps * replicas as f64,
                },
            );
            let report = Cluster::homogeneous(
                &gaudi,
                &model,
                1,
                PagedBackend::GaudiOpt,
                16,
                replicas,
                RoutingPolicy::JoinShortestQueue,
            )
            .run(&trace)
            .expect("online trace fits");
            tput_row.push(report.serving.throughput_tps);
            p99_row.push(report.serving.p99_ttft_s);
        }
        online_tput.push_row(format!("{load:.2}"), tput_row);
        online_p99.push_row(format!("{load:.2}"), p99_row);
    }
    write_csv(dir, "ext_online_throughput", &online_tput);
    write_csv(dir, "ext_online_p99_ttft", &online_p99);

    // Fault-tolerance extension: goodput under a replica crash (crash
    // time x replica count) and the p99 TTFT tail under admission
    // control (queue cap x overload) — the curves behind
    // `ext_fault_tolerance`. Both use a 2.5 s TTFT / 0.5 s TPOT SLO.
    let slo = SloSpec::new(2.5, 0.5);
    let fault_replicas = [2usize, 4, 8];
    let crash_fracs = [0.25, 0.5, 0.75];
    let mut fault_goodput = Heatmap::new(
        "ext fault tolerance: goodput (tokens/s) after a replica crash",
        "crash_frac",
        "replicas",
        fault_replicas.iter().map(|r| r.to_string()).collect(),
    );
    for frac in crash_fracs {
        let mut row = Vec::new();
        for replicas in fault_replicas {
            let rate = 0.75 * capacity_rps * replicas as f64;
            let trace = SyntheticDataset::dynamic_sonnet_online(
                per_replica_trace * replicas,
                seed,
                &ArrivalProcess::Poisson { rate_rps: rate },
            );
            let span = trace.iter().map(|r| r.arrival_s).fold(0.0_f64, f64::max);
            let report = Cluster::homogeneous(
                &gaudi,
                &model,
                1,
                PagedBackend::GaudiOpt,
                16,
                replicas,
                RoutingPolicy::JoinShortestQueue,
            )
            .run_resilient(
                &trace,
                &FaultPlan::none().with_crash(0, frac * span),
                &ResilienceConfig {
                    slo,
                    ..ResilienceConfig::default()
                },
            )
            .expect("online trace fits");
            row.push(report.serving.goodput_tps);
        }
        fault_goodput.push_row(format!("{frac:.2}"), row);
    }
    write_csv(dir, "ext_fault_goodput", &fault_goodput);

    let queue_caps = [4usize, 8, 16, 32];
    let overloads = [1.5, 2.0];
    let mut shed_p99 = Heatmap::new(
        "ext fault tolerance: p99 TTFT (s) under admission control",
        "queue_cap",
        "load_factor",
        overloads.iter().map(|l| format!("{l:.1}")).collect(),
    );
    for cap in queue_caps {
        let mut row = Vec::new();
        for load in overloads {
            let rate = load * capacity_rps * 4.0;
            let trace = SyntheticDataset::dynamic_sonnet_online(
                per_replica_trace * 4,
                seed,
                &ArrivalProcess::Poisson { rate_rps: rate },
            );
            let report = Cluster::homogeneous(
                &gaudi,
                &model,
                1,
                PagedBackend::GaudiOpt,
                16,
                4,
                RoutingPolicy::JoinShortestQueue,
            )
            .run_resilient(
                &trace,
                &FaultPlan::none(),
                &ResilienceConfig {
                    shed: ShedPolicy::queue_cap(cap),
                    slo,
                    ..ResilienceConfig::default()
                },
            )
            .expect("online trace fits");
            row.push(report.serving.p99_ttft_s);
        }
        shed_p99.push_row(cap.to_string(), row);
    }
    write_csv(dir, "ext_fault_shed_p99_ttft", &shed_p99);

    // Structured trace export: one resilient 2-replica run with a
    // mid-trace crash, as a Chrome `trace_event` JSON (load in
    // chrome://tracing or Perfetto) plus the per-request span CSV.
    let trace_in = SyntheticDataset::dynamic_sonnet_online(
        per_replica_trace * 2,
        seed,
        &ArrivalProcess::Poisson {
            rate_rps: 0.75 * capacity_rps * 2.0,
        },
    );
    let span_s = trace_in.iter().map(|r| r.arrival_s).fold(0.0_f64, f64::max);
    let (traced_report, trace) = Cluster::homogeneous(
        &gaudi,
        &model,
        1,
        PagedBackend::GaudiOpt,
        16,
        2,
        RoutingPolicy::JoinShortestQueue,
    )
    .run_resilient_traced(
        &trace_in,
        &FaultPlan::none().with_crash(0, 0.5 * span_s),
        &ResilienceConfig {
            slo,
            ..ResilienceConfig::default()
        },
    )
    .expect("online trace fits");
    dcm_bench::write_artifact(&dir.join("ext_serving_trace.json"), &trace.to_chrome_json());
    dcm_bench::write_artifact(&dir.join("ext_serving_requests.csv"), &trace.request_csv());
    println!(
        "traced crash run: {} completed, {} spans",
        traced_report.serving.completed,
        trace.spans().len()
    );

    println!("\nall CSVs written to results/");
}
