//! Ablation: KV-cache block size.
//!
//! vLLM's block size trades three effects the suite models: smaller blocks
//! waste less KV memory and less padding work, but mean more gather
//! transactions (and on Gaudi, blocks below 256 B of row width would also
//! hit the granularity cliff). The Gaudi fork defaults to 128-token
//! blocks; this sweep shows why.

use dcm_bench::banner;
use dcm_compiler::Device;
use dcm_core::metrics::Table;
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_workloads::llama::LlamaConfig;

fn main() {
    banner(
        "Ablation: KV-cache block size (tokens per block)",
        "the Gaudi vLLM fork defaults to 128-token blocks",
    );
    let gaudi = Device::gaudi2();
    let model = LlamaConfig::llama31_8b();
    // Mixed-length batch: padding waste matters.
    let lens: Vec<usize> = (0..32).map(|i| 257 + i * 120).collect();

    let mut t = Table::new(
        "decode attention cost and KV overhead vs block size (batch 32, mixed 257-3977 ctx)",
        &[
            "block tokens",
            "opt us",
            "base us",
            "blocks/seq avg",
            "alloc waste %",
        ],
    );
    for bt in [16usize, 32, 64, 128, 256, 512] {
        let opt =
            PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1).with_block_tokens(bt);
        let base =
            PagedAttention::new(&gaudi, PagedBackend::GaudiBase, &model, 1).with_block_tokens(bt);
        let opt_t = opt.decode_cost(&lens, 0.0).time();
        let base_t = base.decode_cost(&lens, 0.0).time();
        // Internal-fragmentation waste of the last block per sequence.
        let total_blocks: usize = lens.iter().map(|&l| l.div_ceil(bt)).sum();
        let used_tokens: usize = lens.iter().sum();
        let alloc_tokens = total_blocks * bt;
        t.push(&[
            bt.to_string(),
            format!("{:.0}", opt_t * 1e6),
            format!("{:.0}", base_t * 1e6),
            format!("{:.1}", total_blocks as f64 / lens.len() as f64),
            format!(
                "{:.1}",
                100.0 * (alloc_tokens - used_tokens) as f64 / alloc_tokens as f64
            ),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\ntiny blocks multiply gather transactions (and per-block op overhead in\n\
         the baseline); huge blocks waste allocation and inflate padding. The\n\
         128-token default sits near the knee on the optimized path."
    );
}
