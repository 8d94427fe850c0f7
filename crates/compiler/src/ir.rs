//! Operator IR: the lowered form of a model that the graph compiler
//! schedules and the device models price.

use dcm_core::DType;
use dcm_mme::GemmShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Element-wise operator kinds (all execute on the vector engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EwKind {
    /// Addition of two tensors (bias add, residual add).
    Add,
    /// Scaling / multiplication.
    Mul,
    /// ReLU activation.
    Relu,
    /// SiLU activation (Llama MLPs).
    Silu,
    /// RMS normalization (fused mean-square + scale).
    RmsNorm,
    /// Generic copy / cast.
    Copy,
}

impl EwKind {
    /// Compute instructions per element (chained on the vector unit).
    #[must_use]
    pub fn computes_per_elem(self) -> usize {
        match self {
            EwKind::Copy => 0,
            EwKind::Add | EwKind::Mul | EwKind::Relu => 1,
            EwKind::Silu => 3,
            EwKind::RmsNorm => 4,
        }
    }

    /// Input arrays streamed from memory.
    #[must_use]
    pub fn inputs(self) -> usize {
        match self {
            EwKind::Add | EwKind::Mul => 2,
            _ => 1,
        }
    }

    /// Kernel name for reports — identical to the `Debug` rendering, but
    /// static so cost evaluation never allocates (lint rule A1).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EwKind::Add => "Add",
            EwKind::Mul => "Mul",
            EwKind::Relu => "Relu",
            EwKind::Silu => "Silu",
            EwKind::RmsNorm => "RmsNorm",
            EwKind::Copy => "Copy",
        }
    }
}

/// One operator in a lowered graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Dense GEMM on the matrix engine.
    Gemm {
        /// Problem shape.
        shape: GemmShape,
        /// Element type.
        dtype: DType,
    },
    /// `batch` independent GEMMs launched together (attention scores,
    /// grouped experts). Launch overhead is amortized across the batch.
    BatchedGemm {
        /// Number of independent GEMMs.
        batch: usize,
        /// Per-GEMM problem shape.
        shape: GemmShape,
        /// Element type.
        dtype: DType,
    },
    /// Element-wise operator over `elems` elements on the vector engine.
    Elementwise {
        /// Operator kind.
        kind: EwKind,
        /// Elements processed.
        elems: usize,
        /// Element type.
        dtype: DType,
    },
    /// Row-wise softmax over a `rows x cols` matrix (attention weights).
    Softmax {
        /// Independent rows.
        rows: usize,
        /// Elements per row.
        cols: usize,
        /// Element type.
        dtype: DType,
    },
    /// Random vector gather of `count` vectors of `vector_bytes` each
    /// (embedding lookups, KV-cache block gathers).
    Gather {
        /// Vectors gathered.
        count: usize,
        /// Useful bytes per vector.
        vector_bytes: usize,
    },
    /// Ring all-reduce of `bytes` over `participants` devices
    /// (tensor-parallel activations).
    AllReduce {
        /// Payload bytes per device.
        bytes: u64,
        /// Participating devices.
        participants: usize,
    },
}

impl Op {
    /// Convenience constructor for a dense GEMM.
    #[must_use]
    pub fn gemm(shape: GemmShape, dtype: DType) -> Self {
        Op::Gemm { shape, dtype }
    }

    /// Convenience constructor for a batched GEMM.
    #[must_use]
    pub fn batched_gemm(batch: usize, shape: GemmShape, dtype: DType) -> Self {
        assert!(batch > 0, "batch must be positive");
        Op::BatchedGemm {
            batch,
            shape,
            dtype,
        }
    }

    /// Convenience constructor for a ReLU.
    #[must_use]
    pub fn relu(elems: usize, dtype: DType) -> Self {
        Op::Elementwise {
            kind: EwKind::Relu,
            elems,
            dtype,
        }
    }

    /// Convenience constructor for an element-wise add.
    #[must_use]
    pub fn add(elems: usize, dtype: DType) -> Self {
        Op::Elementwise {
            kind: EwKind::Add,
            elems,
            dtype,
        }
    }

    /// Whether the op runs on the matrix engine.
    #[must_use]
    pub fn is_matrix(&self) -> bool {
        matches!(self, Op::Gemm { .. } | Op::BatchedGemm { .. })
    }

    /// Whether the op runs on the vector engine.
    #[must_use]
    pub fn is_vector(&self) -> bool {
        matches!(self, Op::Elementwise { .. } | Op::Softmax { .. })
    }

    /// Whether the op is a fusable element-wise op.
    #[must_use]
    pub fn is_elementwise(&self) -> bool {
        matches!(self, Op::Elementwise { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Gemm { shape, dtype } => write!(f, "gemm{shape}:{dtype}"),
            Op::BatchedGemm {
                batch,
                shape,
                dtype,
            } => write!(f, "bgemm[{batch}]{shape}:{dtype}"),
            Op::Elementwise { kind, elems, .. } => write!(f, "ew:{kind:?}[{elems}]"),
            Op::Softmax { rows, cols, .. } => write!(f, "softmax[{rows}x{cols}]"),
            Op::Gather {
                count,
                vector_bytes,
            } => write!(f, "gather[{count}x{vector_bytes}B]"),
            Op::AllReduce {
                bytes,
                participants,
            } => write!(f, "allreduce[{bytes}B@{participants}]"),
        }
    }
}

/// Whether compiling the ops up to `x` and the ops from `y` on apart
/// gives the schedule of compiling them together: fusion cannot merge
/// two element-wise ops across the junction, and pipelining cannot pair
/// a matrix op with the vector op after it. The rule ignores
/// [`CompileOptions`](crate::CompileOptions), so it holds under every one.
fn clean_junction(x: &Op, y: &Op) -> bool {
    let fuse = x.is_elementwise() && y.is_elementwise();
    let pipeline = x.is_matrix() && y.is_vector();
    !(fuse || pipeline)
}

/// A run of items executed `repeat` times in a row: a graph's repeated
/// layer, or the schedule compiled from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block<T> {
    body: Vec<T>,
    repeat: usize,
}

impl<T> Block<T> {
    pub(crate) fn new(body: Vec<T>, repeat: usize) -> Self {
        Block { body, repeat }
    }

    /// One repetition, in execution order.
    #[must_use]
    pub fn body(&self) -> &[T] {
        &self.body
    }

    /// How many times the body runs in a row.
    #[must_use]
    pub fn repeat(&self) -> usize {
        self.repeat
    }

    /// Items in the flat expansion.
    pub(crate) fn len(&self) -> usize {
        self.body.len() * self.repeat
    }

    /// The flat expansion: the body `repeat` times over.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        std::iter::repeat_n(self.body.as_slice(), self.repeat).flatten()
    }
}

/// A lowered model: operators in execution order, held as blocks so that
/// a model's repeated layer is stored, compiled and priced once.
///
/// Every junction between two blocks, and every repeated block's junction
/// with itself, is clean (see [`Graph::push_repeated`]), so compiling the
/// blocks one by one gives the schedule of compiling the flat expansion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    blocks: Vec<Block<Op>>,
}

impl Graph {
    /// Create an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    /// Graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append an operator. After a repeated block whose last op meets
    /// `op` at an unclean junction, that block's last repetition is
    /// peeled off into the block `op` joins.
    pub fn push(&mut self, op: Op) {
        match self.blocks.last_mut() {
            Some(last) if last.repeat == 1 => last.body.push(op),
            Some(last) if last.body.last().is_some_and(|x| !clean_junction(x, &op)) => {
                last.repeat -= 1;
                let mut body = last.body.clone();
                body.push(op);
                self.blocks.push(Block::new(body, 1));
            }
            _ => self.blocks.push(Block::new(vec![op], 1)),
        }
    }

    /// Append `body` `n` times over. It is stored once, as a repeated
    /// block, when its junction with itself and with the preceding op
    /// are both clean; otherwise its flat expansion is appended.
    pub fn push_repeated(&mut self, body: &[Op], n: usize) {
        let (Some(first), Some(last)) = (body.first(), body.last()) else {
            return;
        };
        let after_clean = self
            .blocks
            .last()
            .and_then(|b| b.body.last())
            .is_none_or(|x| clean_junction(x, first));
        if n >= 2 && after_clean && clean_junction(last, first) {
            self.blocks.push(Block::new(body.to_vec(), n));
        } else {
            for _ in 0..n {
                for op in body {
                    self.push(op.clone());
                }
            }
        }
    }

    /// The blocks in execution order.
    #[must_use]
    pub fn blocks(&self) -> &[Block<Op>] {
        &self.blocks
    }

    /// Operators in execution order: the flat expansion of the blocks.
    // dcm-lint: allow(R1) test hook; prop_graph_blocks::random_repeats_match_their_flat_twins
    pub fn ops(&self) -> impl Iterator<Item = &Op> + '_ {
        self.blocks.iter().flat_map(Block::iter)
    }

    /// Number of operators in the flat expansion.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ew_kind_properties() {
        assert_eq!(EwKind::Add.inputs(), 2);
        assert_eq!(EwKind::Relu.inputs(), 1);
        assert_eq!(EwKind::Copy.computes_per_elem(), 0);
        assert!(EwKind::RmsNorm.computes_per_elem() > EwKind::Relu.computes_per_elem());
    }

    #[test]
    fn op_classification() {
        let g = Op::gemm(GemmShape::square(64), DType::Bf16);
        assert!(g.is_matrix() && !g.is_vector());
        let e = Op::relu(100, DType::Bf16);
        assert!(e.is_vector() && e.is_elementwise());
        let s = Op::Softmax {
            rows: 4,
            cols: 4,
            dtype: DType::Bf16,
        };
        assert!(s.is_vector() && !s.is_elementwise());
    }

    #[test]
    fn graph_composition_and_flops() {
        let layer = [
            Op::gemm(GemmShape::new(2, 3, 4), DType::Bf16),
            Op::batched_gemm(10, GemmShape::new(1, 1, 1), DType::Bf16),
        ];
        let mut h = Graph::new("outer");
        h.push_repeated(&layer, 2);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
    }

    fn repeats(g: &Graph) -> Vec<usize> {
        g.blocks().iter().map(Block::repeat).collect()
    }

    #[test]
    fn push_repeated_stores_a_body_once_only_at_clean_junctions() {
        let gemm = || Op::gemm(GemmShape::square(8), DType::Bf16);
        let relu = || Op::relu(64, DType::Bf16);
        // gemm -> relu pipelines inside the body; relu -> gemm is clean.
        let layer = [gemm(), relu()];
        let mut g = Graph::new("clean");
        g.push(relu());
        g.push_repeated(&layer, 3);
        assert_eq!(repeats(&g), [1, 3]);
        // A clean push after the block starts a new one.
        g.push(gemm());
        assert_eq!(repeats(&g), [1, 3, 1]);

        // relu -> relu would fuse across repetitions: stored flat.
        let mut g = Graph::new("self");
        g.push_repeated(&[relu(), gemm(), relu()], 3);
        assert_eq!(repeats(&g), [1]);
        assert_eq!(g.len(), 9);

        // gemm -> relu would pipeline across the junction: stored flat.
        let mut g = Graph::new("after");
        g.push(gemm());
        g.push_repeated(&[relu(), gemm()], 3);
        assert_eq!(repeats(&g), [1]);
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn an_unclean_push_peels_the_last_repetition() {
        let gemm = Op::gemm(GemmShape::square(8), DType::Bf16);
        let relu = Op::relu(64, DType::Bf16);
        let mut g = Graph::new("peel");
        g.push_repeated(&[gemm.clone(), relu.clone()], 3);
        // relu -> relu would fuse across the junction.
        g.push(relu.clone());
        assert_eq!(repeats(&g), [2, 1]);
        assert_eq!(
            g.blocks()[1].body(),
            [gemm.clone(), relu.clone(), relu.clone()]
        );
        let expected = [&gemm, &relu, &gemm, &relu, &gemm, &relu, &relu];
        assert!(g.ops().eq(expected));
        // Nothing to repeat appends nothing.
        g.push_repeated(&[], 5);
        g.push_repeated(&[gemm], 0);
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn display_is_compact() {
        let op = Op::gemm(GemmShape::new(2, 3, 4), DType::Bf16);
        assert_eq!(op.to_string(), "gemm(2x3x4):bf16");
        let ar = Op::AllReduce {
            bytes: 1024,
            participants: 8,
        };
        assert_eq!(ar.to_string(), "allreduce[1024B@8]");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = Op::batched_gemm(0, GemmShape::square(1), DType::Bf16);
    }
}
