//! Repeated blocks in the graph IR: a graph that stores a layer once and
//! its flat twin, built by `push`ing the same ops one at a time, compile
//! to the same schedule and execute to the same bits, and the Llama
//! lowerings really do store their layers as one repeated block.

use dcm_compiler::{compile, CompileOptions, Device, EwKind, Graph, GraphRun, Op};
use dcm_core::cost::ExecStats;
use dcm_core::DType;
use dcm_mme::GemmShape;
use dcm_workloads::llama::LlamaConfig;
use proptest::prelude::*;

/// Every field of a run as 64-bit words, floats by bit pattern. The
/// destructuring is exhaustive, so a new field does not compile until it
/// is compared here.
fn run_words(run: &GraphRun) -> Vec<u64> {
    let GraphRun {
        stats:
            ExecStats {
                time_s,
                flops,
                bus_bytes,
                useful_bytes,
                matrix_busy_s,
                vector_busy_s,
                memory_busy_s,
                network_busy_s,
            },
        energy_j,
        power_w,
        matrix_powered_fraction,
    } = run;
    vec![
        time_s.to_bits(),
        flops.to_bits(),
        *bus_bytes,
        *useful_bytes,
        matrix_busy_s.to_bits(),
        vector_busy_s.to_bits(),
        memory_busy_s.to_bits(),
        network_busy_s.to_bits(),
        energy_j.to_bits(),
        power_w.to_bits(),
        matrix_powered_fraction.to_bits(),
    ]
}

/// `g`'s flat twin: the same ops pushed one at a time.
fn flat_twin(g: &Graph) -> Graph {
    let mut flat = Graph::new(g.name());
    for op in g.ops() {
        flat.push(op.clone());
    }
    assert!(flat.blocks().iter().all(|b| b.repeat() == 1));
    flat
}

/// Default, unoptimized and one drawn option set.
fn option_sets(fuse: bool, slices: usize) -> [CompileOptions; 3] {
    [
        CompileOptions::default(),
        CompileOptions::unoptimized(),
        CompileOptions {
            fuse_elementwise: fuse,
            pipeline_slices: slices,
        },
    ]
}

/// `g` and its flat twin compile to the same units and execute to the
/// same bits on Gaudi-2, Gaudi-3 and A100 under every option set.
fn assert_matches_flat_twin(g: &Graph, options: &[CompileOptions]) {
    let flat = flat_twin(g);
    assert_eq!(g.len(), flat.len());
    for opts in options {
        let (blocks, flat_compiled) = (compile(g, opts), compile(&flat, opts));
        assert!(
            blocks.units().eq(flat_compiled.units()),
            "{} {opts:?}: schedules differ",
            g.name()
        );
        for device in [Device::gaudi2(), Device::gaudi3(), Device::a100()] {
            assert_eq!(
                run_words(&device.execute(&blocks)),
                run_words(&device.execute(&flat_compiled)),
                "{} on {} under {opts:?}",
                g.name(),
                device.name()
            );
        }
    }
}

/// Op number `kind` of 11 (every `Op` variant and every `EwKind`),
/// sized by `size`.
fn op_of_kind(kind: usize, size: usize) -> Op {
    let dt = DType::Bf16;
    let ew = |kind| Op::Elementwise {
        kind,
        elems: 64 * size,
        dtype: dt,
    };
    match kind {
        0 => Op::gemm(GemmShape::new(size, 2 * size, 3 * size), dt),
        1 => Op::batched_gemm(size, GemmShape::new(1, 16, size), dt),
        2 => ew(EwKind::Add),
        3 => ew(EwKind::Mul),
        4 => ew(EwKind::Relu),
        5 => ew(EwKind::Silu),
        6 => ew(EwKind::RmsNorm),
        7 => ew(EwKind::Copy),
        8 => Op::Softmax {
            rows: size,
            cols: 32,
            dtype: dt,
        },
        9 => Op::Gather {
            count: size,
            vector_bytes: 4 * size,
        },
        _ => Op::AllReduce {
            bytes: 1024 * size as u64,
            participants: 1 + size % 8,
        },
    }
}

fn ops(drawn: &[(usize, usize)]) -> Vec<Op> {
    drawn.iter().map(|&(k, s)| op_of_kind(k, s)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scaled-down Llama prefill, decode-step and non-attention graphs
    /// run bit-identically to their flat twins.
    #[test]
    fn llama_graphs_match_their_flat_twins(
        layers in 0usize..=12,
        heads in (0u32..4, 0u32..3, 0u32..4),
        dims in (8usize..=64, 8usize..=256, 1usize..=64, 1usize..=128),
        lens in (1usize..=8, 1usize..=48, 1usize..=256),
        opts in (0u8..2, 0usize..=32),
    ) {
        let (kv_pow, group_pow, tp_pow) = heads;
        let kv_heads = 1usize << kv_pow;
        let q_heads = kv_heads << group_pow;
        let tp = 1usize << (tp_pow % (kv_pow + group_pow + 1));
        let (head_dim, hidden, inter_per_tp, vocab_per_tp) = dims;
        let model = LlamaConfig {
            name: "tiny".to_owned(),
            layers,
            hidden,
            intermediate: inter_per_tp * tp,
            q_heads,
            kv_heads,
            head_dim,
            vocab: vocab_per_tp * tp,
        };
        let (batch, input_len, ctx) = lens;
        let options = option_sets(opts.0 == 1, opts.1);
        for g in [
            model.prefill_graph(batch, input_len, tp),
            model.decode_step_graph(batch, ctx, tp),
            model.decode_nonattn_graph(batch, tp),
        ] {
            assert_matches_flat_twin(&g, &options);
        }
    }

    /// Random bodies over every op kind, repeated between random
    /// prefixes, middles and suffixes: unclean junctions fall back to the
    /// flat expansion or peel a repetition, and the flat op sequence and
    /// every output bit stay those of the flat twin.
    #[test]
    fn random_repeats_match_their_flat_twins(
        ends in (
            proptest::collection::vec((0usize..11, 1usize..=24), 0..4),
            proptest::collection::vec((0usize..11, 1usize..=24), 0..3),
            proptest::collection::vec((0usize..11, 1usize..=24), 0..4),
        ),
        first in (proptest::collection::vec((0usize..11, 1usize..=24), 1..6), 0usize..6),
        second in (proptest::collection::vec((0usize..11, 1usize..=24), 1..6), 0usize..6),
        opts in (0u8..2, 0usize..=32),
    ) {
        let (prefix, middle, suffix) = (ops(&ends.0), ops(&ends.1), ops(&ends.2));
        let (body1, n1) = (ops(&first.0), first.1);
        let (body2, n2) = (ops(&second.0), second.1);
        let mut g = Graph::new("random");
        let mut expected = Vec::new();
        for op in &prefix {
            g.push(op.clone());
        }
        expected.extend(prefix);
        g.push_repeated(&body1, n1);
        for _ in 0..n1 {
            expected.extend(body1.iter().cloned());
        }
        for op in &middle {
            g.push(op.clone());
        }
        expected.extend(middle);
        g.push_repeated(&body2, n2);
        for _ in 0..n2 {
            expected.extend(body2.iter().cloned());
        }
        for op in &suffix {
            g.push(op.clone());
        }
        expected.extend(suffix);
        prop_assert!(g.ops().eq(expected.iter()));
        prop_assert_eq!(g.len(), expected.len());
        prop_assert_eq!(g.is_empty(), expected.is_empty());
        assert_matches_flat_twin(&g, &option_sets(opts.0 == 1, opts.1));
    }
}

/// A silent fallback to the flat expansion keeps every bit but loses the
/// speed, so pin the structure: the first RmsNorm, `layers - 1`
/// repetitions of one layer, then the last layer and the LM head.
#[test]
fn llama_graphs_keep_their_layers_in_one_block() {
    for model in [LlamaConfig::llama31_8b(), LlamaConfig::llama31_70b()] {
        for tp in [1, 2, 8] {
            for g in [
                model.prefill_graph(4, 512, tp),
                model.decode_step_graph(16, 1024, tp),
                model.decode_nonattn_graph(16, tp),
            ] {
                let repeats: Vec<usize> = g.blocks().iter().map(|b| b.repeat()).collect();
                assert_eq!(repeats, [1, model.layers - 1, 1], "{} tp {tp}", g.name());
                let compiled = compile(&g, &CompileOptions::default());
                let repeats: Vec<usize> = compiled.blocks().iter().map(|b| b.repeat()).collect();
                assert_eq!(repeats, [1, model.layers - 1, 1], "{} tp {tp}", g.name());
            }
        }
    }
}
