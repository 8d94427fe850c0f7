//! Graph-compiler passes: element-wise fusion and MME→TPC pipelining.
//!
//! The pass pipeline runs over each block's op sequence:
//!
//! 1. **Fusion** — maximal runs of consecutive element-wise ops collapse
//!    into one fused vector kernel (the MLIR fuser of §2.2); the
//!    intermediate tensors never touch HBM.
//! 2. **Pipelining** — a matrix op immediately followed by a vector op is
//!    sliced into `pipeline_slices` sub-operations executed as a two-stage
//!    pipeline through SRAM (§2.2). With one slice this degenerates to
//!    serial execution — the schedule `vLLM_base` effectively gets when its
//!    data layout defeats the pass (§4.2).

use crate::ir::{Block, Graph, Op};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Knobs describing what the (black-box) graph compiler does to a graph.
/// Programmers cannot set these on real hardware; the vLLM case study
/// changes them only indirectly, through data layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Fuse runs of consecutive element-wise ops.
    pub fuse_elementwise: bool,
    /// Sub-operation slices for MME→TPC pipelining; `1` disables overlap.
    pub pipeline_slices: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fuse_elementwise: true,
            pipeline_slices: 16,
        }
    }
}

impl CompileOptions {
    /// The schedule a layout-hostile graph gets: no fusion, no overlap.
    #[must_use]
    pub fn unoptimized() -> Self {
        CompileOptions {
            fuse_elementwise: false,
            pipeline_slices: 1,
        }
    }
}

/// One scheduled unit after compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scheduled {
    /// A single operator executed as-is.
    Single(Op),
    /// A fused chain of element-wise ops: inputs of the first, outputs of
    /// the last, all compute chained in one kernel.
    FusedElementwise(Vec<Op>),
    /// A matrix producer overlapped with a vector consumer in `slices`
    /// sub-operations.
    Pipelined {
        /// The matrix-engine producer.
        producer: Op,
        /// The vector-engine consumer.
        consumer: Box<Scheduled>,
        /// Number of sub-operation slices (1 = serial).
        slices: usize,
    },
}

/// The unit's profiler label, e.g.
/// `gemm(1024x1024x1024):bf16 ~> ew:Relu[1048576] (x16)`.
impl fmt::Display for Scheduled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheduled::Single(op) => write!(f, "{op}"),
            Scheduled::FusedElementwise(ops) => write!(f, "fused[{}]", ops.len()),
            Scheduled::Pipelined {
                producer,
                consumer,
                slices,
            } => write!(f, "{producer} ~> {consumer} (x{slices})"),
        }
    }
}

/// A compiled graph: the schedule the device executes, one compiled
/// block per block of the source [`Graph`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledGraph {
    blocks: Vec<Block<Scheduled>>,
}

impl CompiledGraph {
    /// Compiled blocks in execution order.
    #[must_use]
    pub fn blocks(&self) -> &[Block<Scheduled>] {
        &self.blocks
    }

    /// Schedule units in execution order: the flat expansion of the blocks.
    // dcm-lint: allow(R1) test hook; prop_graph_blocks::random_repeats_match_their_flat_twins
    pub fn units(&self) -> impl Iterator<Item = &Scheduled> + '_ {
        self.blocks.iter().flat_map(Block::iter)
    }
}

/// Run the pass pipeline over each block of `graph`. The graph's
/// junction rule makes this the schedule of its flat expansion.
#[must_use]
pub fn compile(graph: &Graph, opts: &CompileOptions) -> CompiledGraph {
    let blocks = graph
        .blocks()
        .iter()
        .map(|b| {
            let fused = fuse_elementwise(b.body(), opts.fuse_elementwise);
            Block::new(pipeline(fused, opts.pipeline_slices.max(1)), b.repeat())
        })
        .collect();
    CompiledGraph { blocks }
}

fn fuse_elementwise(ops: &[Op], enabled: bool) -> Vec<Scheduled> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if enabled && ops[i].is_elementwise() {
            let mut run = vec![ops[i].clone()];
            let mut j = i + 1;
            while j < ops.len() && ops[j].is_elementwise() {
                run.push(ops[j].clone());
                j += 1;
            }
            if run.len() > 1 {
                out.push(Scheduled::FusedElementwise(run));
            } else {
                out.push(Scheduled::Single(ops[i].clone()));
            }
            i = j;
        } else {
            out.push(Scheduled::Single(ops[i].clone()));
            i += 1;
        }
    }
    out
}

fn pipeline(units: Vec<Scheduled>, slices: usize) -> Vec<Scheduled> {
    if slices <= 1 {
        return units;
    }
    let mut out: Vec<Scheduled> = Vec::new();
    let mut iter = units.into_iter().peekable();
    while let Some(unit) = iter.next() {
        let is_matrix_single = matches!(&unit, Scheduled::Single(op) if op.is_matrix());
        if is_matrix_single {
            let next_is_vector = matches!(
                iter.peek(),
                Some(Scheduled::Single(op)) if op.is_vector()
            ) || matches!(iter.peek(), Some(Scheduled::FusedElementwise(_)));
            if next_is_vector {
                let producer = match unit {
                    Scheduled::Single(op) => op,
                    _ => unreachable!("checked above"),
                };
                // dcm-lint: allow(P1) next_is_vector proved peek() was Some
                let consumer = iter.next().expect("peeked");
                out.push(Scheduled::Pipelined {
                    producer,
                    consumer: Box::new(consumer),
                    slices,
                });
                continue;
            }
        }
        out.push(unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::DType;
    use dcm_mme::GemmShape;

    fn gemm() -> Op {
        Op::gemm(GemmShape::square(512), DType::Bf16)
    }

    /// The schedule of a graph built by `push` alone: one flat block.
    fn only_block(c: &CompiledGraph) -> &[Scheduled] {
        match c.blocks() {
            [b] if b.repeat() == 1 => b.body(),
            other => panic!("expected one flat block, got {other:?}"),
        }
    }

    #[test]
    fn lone_elementwise_stays_single() {
        let mut g = Graph::new("t");
        g.push(Op::relu(100, DType::Bf16));
        let c = compile(&g, &CompileOptions::default());
        assert!(matches!(only_block(&c), [Scheduled::Single(_)]));
    }

    #[test]
    fn consecutive_elementwise_fuse() {
        let mut g = Graph::new("t");
        g.push(Op::relu(100, DType::Bf16));
        g.push(Op::add(100, DType::Bf16));
        g.push(Op::relu(100, DType::Bf16));
        let c = compile(&g, &CompileOptions::default());
        assert_eq!(only_block(&c).len(), 1);
        assert!(matches!(&only_block(&c)[0], Scheduled::FusedElementwise(v) if v.len() == 3));
    }

    #[test]
    fn gemm_then_activation_pipelines() {
        let mut g = Graph::new("t");
        g.push(gemm());
        g.push(Op::relu(512 * 512, DType::Bf16));
        let c = compile(&g, &CompileOptions::default());
        assert_eq!(only_block(&c).len(), 1);
        match &only_block(&c)[0] {
            Scheduled::Pipelined {
                producer, slices, ..
            } => {
                assert!(producer.is_matrix());
                assert_eq!(*slices, 16);
            }
            other => panic!("expected pipelined, got {other:?}"),
        }
    }

    #[test]
    fn gemm_then_fused_chain_pipelines_as_a_unit() {
        let mut g = Graph::new("t");
        g.push(gemm());
        g.push(Op::relu(512 * 512, DType::Bf16));
        g.push(Op::add(512 * 512, DType::Bf16));
        let c = compile(&g, &CompileOptions::default());
        assert_eq!(only_block(&c).len(), 1);
        match &only_block(&c)[0] {
            Scheduled::Pipelined { consumer, .. } => {
                assert!(matches!(**consumer, Scheduled::FusedElementwise(_)));
            }
            other => panic!("expected pipelined, got {other:?}"),
        }
    }

    #[test]
    fn unoptimized_mode_disables_both_passes() {
        let mut g = Graph::new("t");
        g.push(gemm());
        g.push(Op::relu(512 * 512, DType::Bf16));
        g.push(Op::add(512 * 512, DType::Bf16));
        let c = compile(&g, &CompileOptions::unoptimized());
        assert_eq!(only_block(&c).len(), 3);
        assert!(only_block(&c)
            .iter()
            .all(|s| matches!(s, Scheduled::Single(_))));
    }

    #[test]
    fn back_to_back_gemms_do_not_pipeline() {
        let mut g = Graph::new("t");
        g.push(gemm());
        g.push(gemm());
        let c = compile(&g, &CompileOptions::default());
        assert_eq!(only_block(&c).len(), 2);
    }

    #[test]
    fn a_repeated_block_compiles_once_to_the_flat_schedule() {
        let layer = [
            gemm(),
            Op::relu(512 * 512, DType::Bf16),
            Op::add(512 * 512, DType::Bf16),
        ];
        let mut g = Graph::new("t");
        g.push(Op::relu(64, DType::Bf16));
        g.push_repeated(&layer, 4);
        g.push(gemm());
        let mut flat = Graph::new("flat");
        for op in g.ops() {
            flat.push(op.clone());
        }
        for opts in [CompileOptions::default(), CompileOptions::unoptimized()] {
            let c = compile(&g, &opts);
            let repeats: Vec<usize> = c.blocks().iter().map(Block::repeat).collect();
            assert_eq!(repeats, [1, 4, 1]);
            assert!(c.units().eq(compile(&flat, &opts).units()));
        }
    }

    #[test]
    fn gather_breaks_fusion_runs() {
        let mut g = Graph::new("t");
        g.push(Op::relu(64, DType::Bf16));
        g.push(Op::Gather {
            count: 10,
            vector_bytes: 256,
        });
        g.push(Op::relu(64, DType::Bf16));
        let c = compile(&g, &CompileOptions::default());
        assert_eq!(only_block(&c).len(), 3);
    }
}
