//! Step-table counts (DESIGN.md §3.6), a host-independent guard for the
//! per-thread step tables' speedup: a thread compiles every step graph,
//! and prices every decode-attention GEMM term, once.
//!
//! The counts are the calling thread's own, and a cluster run serves on
//! the calling thread, so a fresh thread starts from zero.

use dcm_compiler::Device;
use dcm_core::trace::SpanKind;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, Request, SyntheticDataset};
use dcm_vllm::{step_table_stats, ClusterReport, StepTableStats};
use dcm_workloads::llama::LlamaConfig;
use std::collections::BTreeSet;

fn four_replicas() -> Cluster {
    Cluster::homogeneous(
        &Device::gaudi2(),
        &LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        8,
        4,
        RoutingPolicy::JoinShortestQueue,
    )
}

/// Serve `trace` on a fresh thread: its report, and that thread's counts
/// before and after.
fn on_fresh_thread(trace: &[Request]) -> (ClusterReport, StepTableStats, StepTableStats) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let before = step_table_stats();
            let report = four_replicas().run(trace).unwrap();
            (report, before, step_table_stats())
        })
        .join()
        .unwrap()
    })
}

#[test]
fn each_step_graph_compiles_once_per_thread() {
    assert_eq!(step_table_stats(), StepTableStats::default());
    let trace = SyntheticDataset::dynamic_sonnet_online(
        64,
        2026,
        &ArrivalProcess::Poisson { rate_rps: 20.0 },
    );

    // The distinct keys the first run prices, read off its trace: prefill
    // spans carry their token count, exact decode spans their batch size.
    let (first, spans) = four_replicas().run_traced(&trace).unwrap();
    let lengths = |kind: SpanKind, arg: &str| -> BTreeSet<u64> {
        spans
            .spans()
            .iter()
            .filter(|s| s.kind == kind)
            .flat_map(|s| s.args.iter().filter(|(k, _)| *k == arg))
            .map(|&(_, v)| v as u64)
            .collect()
    };
    let keys =
        lengths(SpanKind::Prefill, "tokens").len() + lengths(SpanKind::Decode, "batch").len();
    let cold = step_table_stats();
    assert_eq!(cold.steps, keys);
    assert_eq!(
        cold.compiles, keys as u64,
        "one compile per distinct key, whichever replica read it"
    );
    assert!(cold.cells > 0);
    assert_eq!(
        cold.misses, cold.cells as u64,
        "one GEMM pair priced per cell, whichever replica read it"
    );

    // A second identical cluster on the warm thread compiles and prices
    // nothing.
    let second = four_replicas().run(&trace).unwrap();
    assert_eq!(second, first);
    assert_eq!(step_table_stats(), cold, "a warm thread compiles nothing");

    // A fresh thread fills tables of its own, the same ones, and leaves
    // this thread's alone.
    let (third, before, after) = on_fresh_thread(&trace);
    assert_eq!(third, first);
    assert_eq!(before, StepTableStats::default());
    assert_eq!(after, cold);
    assert_eq!(step_table_stats(), cold);
}
