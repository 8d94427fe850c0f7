//! Step-cost memo counts (DESIGN.md §3.6), a host-independent guard for
//! the memo's speedup: every step graph is compiled once per process, and
//! every decode-attention GEMM term is priced once per thread.
//!
//! The compile counts are process-wide, and the tests of one file run on
//! parallel threads of one process. So this file holds a single test: no
//! other test can move the counts it reads. The attention counts are the
//! test thread's own, and a cluster run serves on the calling thread.

use dcm_compiler::Device;
use dcm_core::trace::SpanKind;
use dcm_vllm::attention::PagedBackend;
use dcm_vllm::cluster::{Cluster, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::{attention_memo_stats, step_cost_memo_stats, AttentionMemoStats, StepCostMemoStats};
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

#[test]
fn each_step_graph_compiles_once_per_process() {
    assert_eq!(step_cost_memo_stats(), StepCostMemoStats::default());
    assert_eq!(attention_memo_stats(), AttentionMemoStats::default());
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
    let after_first = step_cost_memo_stats();
    assert_eq!(after_first.families, 1, "four replicas, one family");
    assert_eq!(after_first.entries, keys);
    assert_eq!(
        after_first.misses, keys as u64,
        "one compile per distinct key"
    );
    assert!(after_first.hits > 0, "replicas share what a sibling priced");
    let attention_first = attention_memo_stats();
    assert!(attention_first.cells > 0);
    assert_eq!(
        attention_first.misses, attention_first.cells as u64,
        "one GEMM pair priced per cell, whichever replica read it"
    );

    // A second identical cluster in the same process compiles nothing.
    let second = four_replicas().run(&trace).unwrap();
    assert_eq!(second, first);
    let after_second = step_cost_memo_stats();
    assert_eq!(after_second.misses, after_first.misses);
    assert_eq!(after_second.entries, after_first.entries);
    assert_eq!(after_second.families, 1);
    assert!(after_second.hits > after_first.hits);
    assert_eq!(
        attention_memo_stats(),
        attention_first,
        "a warm thread prices no GEMM pair"
    );
}
