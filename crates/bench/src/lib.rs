//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every measurement artifact of the paper has a matching binary in
//! `src/bin/`; run them with `cargo run -p dcm-bench --bin <name>`:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_specs` | Table 1 (device comparison) |
//! | `fig04_roofline` | Figure 4 (GEMM roofline) |
//! | `fig05_gemm_util` | Figure 5 (GEMM compute utilization) |
//! | `fig07_mme_config` | Figure 7 (MME geometry + ablation) |
//! | `fig08_stream` | Figure 8 (STREAM microbenchmarks) |
//! | `fig09_gather_scatter` | Figure 9 (gather/scatter bandwidth) |
//! | `fig10_collectives` | Figure 10 (collective communication) |
//! | `table3_models` | Table 3 (model configurations) |
//! | `fig11_recsys` | Figure 11 (RecSys speedup + energy) |
//! | `fig12_llm_perf` | Figure 12 (LLM speedup + latency split) |
//! | `fig13_llm_energy` | Figure 13 (LLM energy efficiency) |
//! | `fig15_embedding` | Figure 15 (embedding-lookup bandwidth) |
//! | `fig17_vllm` | Figure 17 (PagedAttention + serving) |
//! | `ext_online_serving` | extension: online multi-replica serving sweep |
//! | `ext_hetero_cluster` | extension: heterogeneous Gaudi-2 + A100 cluster sweep |
//! | `takeaways` | Key takeaways #1–#7 (directional checks) |
//!
//! Each binary has one configuration, the full sweep, and its output is
//! byte-identical at any `DCM_THREADS`.

use dcm_compiler::Device;
use dcm_core::cast::usize_to_f64;
use dcm_core::metrics::Table;
use dcm_vllm::{PagedBackend, ServingEngine, SyntheticDataset};
use dcm_workloads::llama::LlamaConfig;
use std::path::Path;

/// Standard embedding-vector-size sweep in bytes (Figures 9, 11, 15).
pub const VECTOR_SIZES: [usize; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// Standard batch-size sweep for RecSys figures.
pub const RECSYS_BATCHES: [usize; 5] = [256, 512, 1024, 2048, 4096];

/// Standard batch-size sweep for LLM figures (Figure 12).
pub const LLM_BATCHES: [usize; 4] = [8, 16, 32, 64];

/// Standard output-length sweep for LLM figures (Figure 12).
pub const OUTPUT_LENS: [usize; 5] = [25, 50, 100, 200, 400];

/// Single-replica offline capacity in requests per second, the unit
/// the online-serving extensions scale arrival rates by: `model` on
/// `device` with `backend` at decode batch cap 16 serves a
/// `trace_len`-request Dynamic-Sonnet trace (seed 2026) offline, and its
/// token throughput is divided by the trace's mean output length.
///
/// # Panics
/// Panics if the trace does not fit the device's KV cache.
#[must_use]
pub fn offline_capacity_rps(
    device: &Device,
    backend: PagedBackend,
    model: &LlamaConfig,
    trace_len: usize,
) -> f64 {
    let trace = SyntheticDataset::dynamic_sonnet(trace_len, 2026);
    let report = ServingEngine::new(device, model.clone(), 1, backend, 16)
        .run(&trace)
        .expect("offline trace fits");
    let mean_output = trace
        .iter()
        .map(|r| usize_to_f64(r.output_len))
        .sum::<f64>()
        / usize_to_f64(trace.len());
    report.throughput_tps / mean_output
}

/// Write a result artifact, panicking with the offending path on
/// failure — "results/ is writable" tells the operator nothing; the
/// path that could not be written tells them everything.
///
/// # Panics
/// Panics if `path` cannot be written, naming the path and the OS error.
pub fn write_artifact(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create directory {}: {e}", dir.display()));
    }
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Evaluate a sweep's points in parallel, preserving input order.
///
/// Thin wrapper over [`dcm_core::par::par_map`] at the ambient
/// [`dcm_core::par::thread_count`] (`DCM_THREADS`; `1` forces the
/// historical serial path). Every sweep point must be a pure seeded
/// function of its descriptor — construct engines *inside* the closure —
/// so the output is byte-identical at any thread count. Assemble tables,
/// heatmaps and CSVs from the returned `Vec` serially, in input order.
pub fn sweep<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    dcm_core::par::par_map(points, dcm_core::par::thread_count(), f)
}

/// Print a banner identifying the regenerated artifact.
pub fn banner(artifact: &str, paper_claim: &str) {
    println!("==============================================================");
    println!("{artifact}");
    println!("paper: {paper_claim}");
    println!("==============================================================");
}

/// Print a compact paper-vs-measured comparison line.
pub fn compare(metric: &str, paper: f64, measured: f64) {
    // dcm-lint: allow(F2) exact-zero sentinel: no paper value to compare
    let dev = if paper != 0.0 {
        format!("{:+.0}%", (measured / paper - 1.0) * 100.0)
    } else {
        "n/a".to_owned()
    };
    println!("  {metric:<52} paper {paper:>8.3}  measured {measured:>8.3}  ({dev})");
}

/// Build a two-column summary table of paper-vs-measured rows.
#[must_use]
pub fn summary_table(title: &str) -> Table {
    Table::new(title, &["metric", "paper", "measured"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sorted() {
        assert!(VECTOR_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(RECSYS_BATCHES.windows(2).all(|w| w[0] < w[1]));
        assert!(LLM_BATCHES.windows(2).all(|w| w[0] < w[1]));
        assert!(OUTPUT_LENS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn summary_table_has_three_columns() {
        let mut t = summary_table("x");
        t.push(&["a", "1", "2"]);
        assert!(t.render().contains("measured"));
    }
}
