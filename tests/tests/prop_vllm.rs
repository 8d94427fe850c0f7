//! Property tests for the vLLM layer: block-layout equivalence over random
//! batches, KV-cache conservation and agreement with a block-naming model,
//! and serving-engine accounting.

use dcm_compiler::Device;
use dcm_core::tensor::Tensor;
use dcm_core::{rng, DType};
use dcm_tests::kv_cache::BlockIdCache;
use dcm_vllm::attention::{PagedAttention, PagedBackend};
use dcm_vllm::block::{BlockList, BlockStore, BlockTable};
use dcm_vllm::dataset::Request;
use dcm_vllm::engine::ServingEngine;
use dcm_vllm::kv_cache::PagedKvCache;
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

fn random_seqs(seed: u64, batch: usize, max_blocks: usize, num_blocks: usize) -> Vec<Vec<usize>> {
    let mut r = rng::seeded(seed);
    (0..batch)
        .map(|_| {
            let n = rng::uniform_indices(&mut r, 1, max_blocks)[0] + 1;
            rng::uniform_indices(&mut r, n, num_blocks)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BlockTable and BlockList attention agree with dense attention for
    /// arbitrary block assignments.
    #[test]
    fn block_layouts_agree(
        seed in 0u64..10_000,
        batch in 1usize..6,
        max_blocks in 1usize..5,
    ) {
        let num_blocks = 12;
        let block_tokens = 4;
        let head_dim = 8;
        let mut r = rng::seeded(seed);
        let store = BlockStore::random(num_blocks, block_tokens, head_dim, &mut r);
        let seqs = random_seqs(seed + 1, batch, max_blocks, num_blocks);
        let table = BlockTable::new(&seqs).expect("non-empty");
        let list = BlockList::new(&seqs).expect("non-empty");
        for (i, blocks) in seqs.iter().enumerate() {
            let tokens = blocks.len() * block_tokens;
            let q = Tensor::random([1, head_dim], DType::Fp32, &mut r);
            let dense = store.attend(&q, blocks, tokens).expect("valid");
            let via_t = store.attend_block_table(&q, &table, i, tokens).expect("valid");
            let via_l = store.attend_block_list(&q, &list, i, tokens).expect("valid");
            prop_assert!(dense.max_abs_diff(&via_t).expect("shape") < 1e-5);
            prop_assert!(dense.max_abs_diff(&via_l).expect("shape") < 1e-5);
        }
        // Accounting identities.
        prop_assert_eq!(list.total_gathers(), table.effectual_gathers());
        prop_assert!(table.total_gathers() >= list.total_gathers());
    }

    /// KV-cache block accounting conserves blocks across arbitrary
    /// admit/append/release interleavings.
    #[test]
    fn kv_cache_conserves_blocks(
        seed in 0u64..10_000,
        ops in 1usize..60,
    ) {
        let mut r = rng::seeded(seed);
        let mut cache = PagedKvCache::new(64, 4);
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..ops {
            let choice = rng::uniform_indices(&mut r, 1, 3)[0];
            match choice {
                0 => {
                    let tokens = rng::uniform_indices(&mut r, 1, 12)[0] + 1;
                    if cache.can_admit(tokens) {
                        cache.admit(next_id, tokens).expect("can_admit said yes");
                        live.push(next_id);
                        next_id += 1;
                    }
                }
                1 => {
                    if let Some(&id) = live.first() {
                        // Appends may legitimately hit exhaustion.
                        let _ = cache.append_token(id);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live.remove(0);
                        cache.release(id).expect("live sequence");
                    }
                }
            }
            let allocated: usize = live
                .iter()
                .map(|id| cache.blocks_of(*id).expect("live"))
                .sum();
            prop_assert_eq!(allocated + cache.free_blocks(), 64);
        }
    }

    /// Attention cost is monotone in padding and base always dominates opt.
    #[test]
    fn base_dominates_opt(
        len_pow in 8u32..12,
        batch in 2usize..24,
        pad_tenths in 0usize..9,
    ) {
        let gaudi = Device::gaudi2();
        let cfg = LlamaConfig::llama31_8b();
        let base = PagedAttention::new(&gaudi, PagedBackend::GaudiBase, &cfg, 1);
        let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &cfg, 1);
        let lens = vec![1usize << len_pow; batch];
        let pad = pad_tenths as f64 / 10.0;
        let bt = base.decode_cost(&lens, pad).time();
        let ot = opt.decode_cost(&lens, pad).time();
        prop_assert!(bt > ot, "base {bt} <= opt {ot}");
        // More padding never helps the baseline.
        if pad_tenths > 0 {
            prop_assert!(bt >= base.decode_cost(&lens, pad - 0.1).time());
        }
    }

    /// The serving engine conserves tokens: output count equals the trace's
    /// total requested output.
    #[test]
    fn serving_engine_conserves_tokens(
        seed in 0u64..1000,
        n_requests in 1usize..6,
        max_batch in 1usize..8,
    ) {
        let mut r = rng::seeded(seed);
        let requests: Vec<Request> = (0..n_requests as u64)
            .map(|id| {
                Request::new(
                    id,
                    rng::uniform_indices(&mut r, 1, 256)[0] + 16,
                    rng::uniform_indices(&mut r, 1, 16)[0] + 1,
                )
            })
            .collect();
        let gaudi = Device::gaudi2();
        let mut engine = ServingEngine::new(
            &gaudi,
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            max_batch,
        );
        let report = engine.run(&requests).expect("all requests fit");
        let expected: usize = requests.iter().map(|r| r.output_len).sum();
        prop_assert_eq!(report.total_output_tokens, expected);
        prop_assert_eq!(report.completed, requests.len());
        prop_assert!(report.peak_batch <= max_batch);
        prop_assert!(report.throughput_tps > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The counting cache tracks the block-naming model through random
    /// scripts of admits, single and bulk appends and releases, on ids
    /// live, released and never seen, through exhaustion and failed
    /// appends: after every operation both agree on success, free blocks,
    /// and each sequence's tokens and held blocks.
    #[test]
    fn kv_cache_matches_the_block_id_model(
        seed in 0u64..10_000,
        block_tokens in 1usize..9,
        blocks in 1usize..65,
        ops in 1usize..200,
    ) {
        const IDS: u64 = 6;
        let mut r = rng::seeded(seed);
        let mut pick = |n: usize| rng::uniform_indices(&mut r, 1, n)[0];
        let mut cache = PagedKvCache::new(blocks, block_tokens);
        let mut model = BlockIdCache::new(blocks, block_tokens);
        for op in 0..ops {
            let id = pick(IDS as usize) as u64;
            let (ok, model_ok) = match pick(4) {
                0 => {
                    let tokens = pick(3 * block_tokens + 1);
                    prop_assert_eq!(cache.can_admit(tokens), model.can_admit(tokens));
                    (cache.admit(id, tokens).is_ok(), model.admit(id, tokens))
                }
                1 => (cache.append_token(id).is_ok(), model.append_token(id)),
                2 => {
                    let n = pick(3 * block_tokens + 2);
                    (cache.append_tokens(id, n).is_ok(), model.append_tokens(id, n))
                }
                _ => (cache.release(id).is_ok(), model.release(id)),
            };
            prop_assert_eq!(ok, model_ok, "op {}", op);
            prop_assert_eq!(cache.free_blocks(), model.free_blocks(), "op {}", op);
            for id in 0..IDS {
                prop_assert_eq!(cache.tokens_of(id), model.tokens_of(id), "op {} id {}", op, id);
                prop_assert_eq!(
                    cache.blocks_of(id),
                    model.blocks_of(id).map(<[usize]>::len),
                    "op {} id {}", op, id
                );
            }
        }
    }
}
