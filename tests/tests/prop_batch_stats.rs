//! Property tests for the O(1) decode-step costing path: the
//! incrementally maintained [`BatchStats`] must agree with aggregates
//! recomputed from scratch under arbitrary admit/grow/remove
//! interleavings, [`PagedAttention::decode_cost_from_stats`] must be
//! bit-identical to the historical slice path, the memoized
//! [`PagedAttention::decode_time_of`] to the cost model, and
//! a stretch's [`BatchGrowth`] projection must equal a grown copy of the
//! stats and price like it, step by step and summed, without ever
//! falling as the batch grows. The projection kept up to date across
//! insert, remove, grow-all and clear must equal one rebuilt from
//! scratch, a `StretchPricer` must price every step of a stretch as
//! `decode_time_of` prices the projection, and the split makespan
//! [`EvenPipeline`] must equal the per-slice recurrence — the invariants
//! the engine hot loop and the golden serving fixtures lean on.

use dcm_compiler::Device;
use dcm_core::timeline::{even_pipeline_makespan, EvenPipeline};
use dcm_tests::timeline::pipeline_makespan;
use dcm_vllm::attention::{
    BatchGrowth, BatchShape, BatchStats, GemmTerms, PagedAttention, PagedBackend,
};
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};

fn attention(backend: PagedBackend) -> PagedAttention {
    let device = match backend {
        PagedBackend::A100Fused => Device::a100(),
        _ => Device::gaudi2(),
    };
    PagedAttention::new(&device, backend, &LlamaConfig::llama31_8b(), 1)
}

fn nth_backend(idx: usize) -> PagedBackend {
    [
        PagedBackend::GaudiBase,
        PagedBackend::GaudiOpt,
        PagedBackend::A100Fused,
        PagedBackend::GaudiFusedHypothetical,
    ][idx % 4]
}

/// Attention configurations the memo is checked on: the four backends on
/// Gaudi-2, Gaudi-3 and A100, each with Llama-8B at tp 1 and Llama-70B
/// at tp 2, 4 and 8.
const MEMO_CONFIGS: usize = 3 * 4 * 4;

/// Configuration `idx` of [`MEMO_CONFIGS`], with `block_tokens`-token
/// KV blocks.
fn memo_config(idx: usize, block_tokens: usize) -> PagedAttention {
    let device = match idx / 16 {
        0 => Device::gaudi2(),
        1 => Device::gaudi3(),
        _ => Device::a100(),
    };
    let (model, tp) = match idx % 4 {
        0 => (LlamaConfig::llama31_8b(), 1),
        split => (LlamaConfig::llama31_70b(), 1 << split),
    };
    PagedAttention::new(&device, nth_backend(idx / 4 % 4), &model, tp)
        .with_block_tokens(block_tokens)
}

/// One table per configuration, reused by every case: each case reads
/// cells that earlier cases priced, under other block sizes too (the
/// GEMM term does not depend on them).
static WARM: Mutex<Vec<GemmTerms>> = Mutex::new(Vec::new());

/// A projection of `lens` built from scratch (`clear` plus one `insert`
/// per sequence): the oracle the incrementally kept one is checked
/// against.
fn rebuilt(growth: &mut BatchGrowth, lens: &[usize]) {
    growth.clear();
    for &t in lens {
        growth.insert(t);
    }
}

/// Every observable of a projection: its shape and block demand at
/// growths around the block size `b` and at `far`.
fn observed(growth: &BatchGrowth, b: usize, far: usize) -> Vec<(BatchShape, usize)> {
    [0, 1, b - 1, b, b + 1, 2 * b + 3, far]
        .into_iter()
        .map(|n| (growth.after(n), growth.extra_blocks(n)))
        .collect()
}

/// A float of class `class` from `mantissa`: normal over a wide range
/// (negative for class 5, which no stage time is), a zero, a subnormal,
/// a huge value or an infinity.
fn float_of(class: u8, mantissa: u64, exp: i32) -> f64 {
    let normal = (1.0 + (mantissa % (1 << 52)) as f64 / (1u64 << 52) as f64) * 2f64.powi(exp);
    match class {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(mantissa % (1 << 52) + 1), // subnormal
        3 => f64::MAX / f64::from(1 + (exp.unsigned_abs() % 4)),
        4 => f64::INFINITY,
        5 => -normal,
        _ => normal,
    }
}

/// Replay an op sequence against both the incremental accumulator and a
/// plain `Vec<usize>` model, checking the aggregates after every step.
/// Ops: 0 = admit a new sequence, 1 = grow one, 2 = remove one.
fn replay(block_tokens: usize, ops: &[(u8, usize, usize)]) -> (BatchStats, Vec<usize>) {
    let mut stats = BatchStats::new(block_tokens);
    let mut model: Vec<usize> = Vec::new();
    for &(op, len_seed, pick_seed) in ops {
        match op % 3 {
            0 => {
                let len = len_seed % 5000;
                stats.add(len);
                model.push(len);
            }
            1 if !model.is_empty() => {
                let i = pick_seed % model.len();
                stats.grow(model[i]);
                model[i] += 1;
            }
            2 if !model.is_empty() => {
                let i = pick_seed % model.len();
                let len = model.swap_remove(i);
                stats.remove(len);
            }
            _ => {}
        }
        let reference = BatchStats::from_lens(&model, block_tokens);
        assert_eq!(stats, reference, "stats diverged after {} ops", ops.len());
    }
    (stats, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental aggregates equal recomputed-from-scratch aggregates
    /// after every step of a random admit/grow/remove interleaving.
    #[test]
    fn incremental_stats_match_recompute_under_interleavings(
        block_tokens in 1usize..300,
        ops in proptest::collection::vec(
            (0u8..3, 0usize..10_000, 0usize..10_000), 0..120),
    ) {
        let (stats, model) = replay(block_tokens, &ops);
        prop_assert_eq!(stats.count(), model.len());
        prop_assert_eq!(stats.sum_lens(), model.iter().sum::<usize>());
        let blocks: Vec<usize> = model
            .iter()
            .map(|&l| l.max(1).div_ceil(block_tokens))
            .collect();
        prop_assert_eq!(stats.sum_blocks(), blocks.iter().sum::<usize>());
        prop_assert_eq!(stats.max_blocks(), blocks.iter().max().copied().unwrap_or(0));
    }

    /// `decode_cost_from_stats` reproduces `decode_cost` bit for bit on
    /// every backend, padding and length mix — the slice path is a thin
    /// wrapper, so the two can never drift.
    #[test]
    fn stats_costing_is_bit_identical_to_slice_costing(
        backend_idx in 0usize..4,
        lens in proptest::collection::vec(0usize..8192, 1..96),
        padding_pct in 0usize..100,
    ) {
        let pa = attention(nth_backend(backend_idx));
        let padding = padding_pct as f64 / 100.0;
        let stats = BatchStats::from_lens(&lens, pa.batch_stats().block_tokens());
        let a = pa.decode_cost(&lens, padding);
        let b = pa.decode_cost_from_stats(&stats, padding);
        prop_assert_eq!(a.time().to_bits(), b.time().to_bits());
        prop_assert_eq!(a.compute_s.to_bits(), b.compute_s.to_bits());
        prop_assert_eq!(a.memory_s.to_bits(), b.memory_s.to_bits());
        prop_assert_eq!(a.flops.to_bits(), b.flops.to_bits());
        prop_assert_eq!(a.bus_bytes, b.bus_bytes);
        prop_assert_eq!(a.useful_bytes, b.useful_bytes);
    }

    /// The memoized price equals `decode_cost_of(shape, 0.0).time()` bit
    /// for bit, read from a cold table, again once it is warm, and from a
    /// table every earlier case of the configuration has filled. The
    /// batches grow token by token from lengths that include zero, alone
    /// and doubled.
    #[test]
    fn memoized_price_is_bit_identical_to_the_cost_model(
        config in 0usize..MEMO_CONFIGS,
        block_idx in 0usize..3,
        lens in proptest::collection::vec((0u8..4, 0usize..4096), 1..48),
        steps in 1usize..24,
    ) {
        let block_tokens = [16, 128, 256][block_idx];
        let pa = memo_config(config, block_tokens);
        let lens: Vec<usize> = lens.iter().map(|&(z, l)| if z == 0 { 0 } else { l }).collect();
        // The batch grown by `d` tokens per sequence, `copies` times over:
        // two copies share one mean length under a doubled GEMM batch.
        let grown = |d: usize, copies: usize| {
            let lens: Vec<usize> = (0..copies).flat_map(|_| lens.iter().map(|&l| l + d)).collect();
            BatchStats::from_lens(&lens, block_tokens).shape()
        };
        let shapes: Vec<BatchShape> = (0..steps).flat_map(|d| [grown(d, 1), grown(d, 2)]).collect();
        let mut warm = WARM.lock().unwrap_or_else(PoisonError::into_inner);
        warm.resize_with(MEMO_CONFIGS, GemmTerms::default);
        let mut cold = GemmTerms::default();
        let mut cold_misses = 0;
        for pass in 0..2 {
            for &shape in &shapes {
                let want = pa.decode_cost_of(shape, 0.0).time().to_bits();
                prop_assert_eq!(pa.decode_time_of(shape, &mut cold).to_bits(), want);
                prop_assert_eq!(pa.decode_time_of(shape, &mut warm[config]).to_bits(), want);
            }
            if pass == 0 {
                cold_misses = cold.misses();
            }
        }
        prop_assert_eq!(cold.misses(), cold_misses, "a warm table prices nothing");
        prop_assert_eq!(cold.cells() as u64, cold_misses, "one miss per cell");
        let stats = BatchStats::from_lens(&lens, block_tokens);
        prop_assert_eq!(
            pa.decode_time_of(stats.shape(), &mut cold).to_bits(),
            pa.decode_cost_from_stats(&stats, 0.0).time().to_bits()
        );
    }

    /// A stretch's projection is exactly the shape the batch has after
    /// `grow_by(t, n)` on every member, and its block demand is what the
    /// KV cache would newly allocate.
    #[test]
    fn growth_projection_matches_grow_by(
        block_tokens in 1usize..300,
        lens in proptest::collection::vec(1usize..10_000, 0..96),
        n in 0usize..5_000,
    ) {
        let stats = BatchStats::from_lens(&lens, block_tokens);
        let mut growth = BatchGrowth::with_capacity(block_tokens, lens.len());
        rebuilt(&mut growth, &lens);
        prop_assert_eq!(growth.after(0), stats.shape());
        let mut grown = stats.clone();
        for &t in &lens {
            grown.grow_by(t, n);
        }
        prop_assert_eq!(growth.after(n), grown.shape());
        let extra: usize = lens
            .iter()
            .map(|&t| (t + n).div_ceil(block_tokens) - t.div_ceil(block_tokens))
            .sum();
        prop_assert_eq!(growth.extra_blocks(n), extra);
    }

    /// An exact stretch's clock is stepping's, bit for bit: adding up in
    /// order the memoized prices of `growth.after(i)` for `i < k`, as
    /// `(nonattn + attention) × scale` steps onto a start time, gives the
    /// same `f64` at every step as growing a `BatchStats` token by token
    /// and pricing each step from the stats.
    #[test]
    fn stretch_prices_add_up_like_token_by_token_steps(
        config in 0usize..MEMO_CONFIGS,
        block_tokens in 1usize..300,
        lens in proptest::collection::vec(1usize..4096, 1..32),
        k in 1usize..300,
        nonattn_us in 1u32..50_000,
        scale_x8 in 8u32..40,
        start_ms in 0u32..100_000,
    ) {
        let pa = memo_config(config, block_tokens);
        let nonattn = f64::from(nonattn_us) * 1e-6;
        let scale = f64::from(scale_x8) / 8.0;
        let mut growth = BatchGrowth::with_capacity(block_tokens, lens.len());
        rebuilt(&mut growth, &lens);
        let mut stats = BatchStats::from_lens(&lens, block_tokens);
        let mut grown = lens.clone();
        let (mut projected_terms, mut stepped_terms) = (GemmTerms::default(), GemmTerms::default());
        let start = f64::from(start_ms) * 1e-3;
        let (mut projected, mut stepped) = (start, start);
        for i in 0..k {
            projected += (nonattn + pa.decode_time_of(growth.after(i), &mut projected_terms)) * scale;
            stepped += (nonattn + pa.decode_time_of(stats.shape(), &mut stepped_terms)) * scale;
            prop_assert_eq!(projected.to_bits(), stepped.to_bits(), "step {}", i);
            for len in &mut grown {
                stats.grow(*len);
                *len += 1;
            }
        }
    }

    /// A price never falls as its batch grows: the attention time of
    /// `growth.after(i)` is non-decreasing in `i`. So with fast-forward
    /// on, a closed form declined at the horizon stays declined at every
    /// later step before it, and the exact steps up to the horizon may
    /// run as one stretch.
    #[test]
    fn price_never_falls_as_the_batch_grows(
        config in 0usize..MEMO_CONFIGS,
        block_tokens in 1usize..300,
        lens in proptest::collection::vec(1usize..6000, 1..32),
        k in 1usize..400,
    ) {
        let pa = memo_config(config, block_tokens);
        let mut growth = BatchGrowth::with_capacity(block_tokens, lens.len());
        rebuilt(&mut growth, &lens);
        let mut terms = GemmTerms::default();
        let mut prev = pa.decode_time_of(growth.after(0), &mut terms);
        for i in 1..=k {
            let t = pa.decode_time_of(growth.after(i), &mut terms);
            prop_assert!(t >= prev, "step {}: {} < {}", i, t, prev);
            prev = t;
        }
    }

    /// The projection kept up to date across a random interleaving of
    /// inserts, removes, single-sequence regrows (a remove and an insert
    /// of the grown length, as the preemption step moves a sequence),
    /// grow-alls of zero to several blocks and clears equals one rebuilt
    /// from the current lengths, after every operation.
    #[test]
    fn incremental_projection_matches_a_rebuild(
        block_tokens in 1usize..300,
        ops in proptest::collection::vec((0u8..12, 1usize..3000, 0usize..10_000), 0..160),
        far in 0usize..5000,
    ) {
        let mut growth = BatchGrowth::with_capacity(block_tokens, 8);
        let mut oracle = BatchGrowth::with_capacity(block_tokens, 8);
        let mut lens: Vec<usize> = Vec::new();
        for &(op, x, pick) in &ops {
            match op {
                0..=3 => {
                    growth.insert(x);
                    lens.push(x);
                }
                4 | 5 if !lens.is_empty() => growth.remove(lens.swap_remove(pick % lens.len())),
                6 | 7 if !lens.is_empty() => {
                    let i = pick % lens.len();
                    let to = lens[i] + 1 + x % 3;
                    growth.remove(lens[i]);
                    growth.insert(to);
                    lens[i] = to;
                }
                8..=10 => {
                    let k = x % (4 * block_tokens);
                    growth.grow_all(k);
                    for t in &mut lens {
                        *t += k;
                    }
                }
                11 if pick % 4 == 0 => {
                    growth.clear();
                    lens.clear();
                }
                _ => {}
            }
            rebuilt(&mut oracle, &lens);
            prop_assert_eq!(
                observed(&growth, block_tokens, far),
                observed(&oracle, block_tokens, far)
            );
        }
    }

    /// A stretch pricer returns, at every step `k`, the bits of
    /// `decode_time_of(growth.after(k))`, and reads the same GEMM cells:
    /// on every backend, on Gaudi-2, Gaudi-3 and A100 at four
    /// tensor-parallel splits, block sizes 1–299, batches 1–64, for up to
    /// 400 steps, across block boundaries and 128-cell `GemmTerms` pages.
    /// The projection is the engine's kind: an earlier grow-all has
    /// rotated it, then up to four sequences left and up to four joined
    /// under that rotation, so fresh remainders sit among wrapped and
    /// unwrapped ones.
    #[test]
    fn stretch_pricer_matches_projected_prices(
        config in 0usize..MEMO_CONFIGS,
        block_tokens in 1usize..300,
        lens in proptest::collection::vec(1usize..4096, 1..65),
        rotate in 0usize..600,
        leaving in proptest::collection::vec(0usize..10_000, 0..5),
        joining in proptest::collection::vec(1usize..4096, 0..5),
        k in 1usize..400,
    ) {
        let pa = memo_config(config, block_tokens);
        let mut growth = BatchGrowth::with_capacity(block_tokens, lens.len() + joining.len());
        rebuilt(&mut growth, &lens);
        growth.grow_all(rotate);
        let mut lens: Vec<usize> = lens.iter().map(|&t| t + rotate).collect();
        for &pick in &leaving {
            if lens.len() > 1 {
                growth.remove(lens.swap_remove(pick % lens.len()));
            }
        }
        for &t in &joining {
            growth.insert(t);
        }
        let (mut priced, mut projected) = (GemmTerms::default(), GemmTerms::default());
        let mut prices = pa.stretch_pricer(&growth);
        for i in 0..k {
            let want = pa.decode_time_of(growth.after(i), &mut projected).to_bits();
            prop_assert_eq!(prices.step(&mut priced).to_bits(), want, "step {}", i);
        }
        prop_assert_eq!(priced.misses(), projected.misses());
        prop_assert_eq!(priced.cells(), projected.cells());
    }

    /// The split makespan equals the per-slice recurrence bit for bit,
    /// through `EvenPipeline` and `even_pipeline_makespan` alike, with
    /// either stage the longer: on stage times over a wide range, equal
    /// ones, neighbouring floats, zeros of both signs, subnormals, huge
    /// values, infinities and negative values.
    #[test]
    fn split_makespan_matches_the_recurrence(
        class in 0u8..10,
        mantissa in 0u64..u64::MAX,
        exp in -1074i32..1000,
        relation in 0u8..8,
        other in (0u8..10, 0u64..u64::MAX, -60i32..60),
        n in 1usize..40,
    ) {
        let a = float_of(class, mantissa, exp);
        let b = match relation {
            0 => a,
            1 => a.next_up(),
            2 => a.next_down(),
            _ => float_of(other.0, other.1, other.2),
        };
        for (a, b) in [(a, b), (b, a)] {
            let slices = vec![(a / n as f64, b / n as f64); n];
            let want = pipeline_makespan(&slices).to_bits();
            prop_assert_eq!(EvenPipeline::new(a, n).makespan(b).to_bits(), want, "{} {} {}", a, b, n);
            prop_assert_eq!(even_pipeline_makespan(a, b, n).to_bits(), want);
        }
    }

    /// Growing a sequence one token at a time equals rebuilding the
    /// aggregates from the final lengths — block-boundary bookkeeping
    /// (including the len 0 -> 1 edge, which stays at one block) never
    /// drifts.
    #[test]
    fn token_by_token_growth_matches_rebuild(
        block_tokens in 1usize..130,
        start in 0usize..300,
        growth in 0usize..400,
    ) {
        let mut stats = BatchStats::new(block_tokens);
        stats.add(start);
        for len in start..start + growth {
            stats.grow(len);
        }
        prop_assert_eq!(
            stats,
            BatchStats::from_lens(&[start + growth], block_tokens)
        );
    }
}
