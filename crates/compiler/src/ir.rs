//! Operator IR: the lowered form of a model that the graph compiler
//! schedules and the device models price.

use dcm_core::cast::usize_to_f64;
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

/// A lowered model: a linear sequence of operators in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    ops: Vec<Op>,
}

impl Graph {
    /// Create an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append an operator.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Append every operator of `other` (layer composition).
    pub fn extend(&mut self, other: &Graph) {
        self.ops.extend(other.ops.iter().cloned());
    }

    /// Operators in execution order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total FLOPs of all matrix ops (for reporting).
    #[must_use]
    pub fn matrix_flops(&self) -> f64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Gemm { shape, .. } => shape.flops(),
                Op::BatchedGemm { batch, shape, .. } => shape.flops() * usize_to_f64(*batch),
                _ => 0.0,
            })
            .sum()
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
        let mut g = Graph::new("test");
        g.push(Op::gemm(GemmShape::new(2, 3, 4), DType::Bf16));
        g.push(Op::batched_gemm(10, GemmShape::new(1, 1, 1), DType::Bf16));
        let mut h = Graph::new("outer");
        h.extend(&g);
        h.extend(&g);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert_eq!(h.matrix_flops(), 2.0 * (48.0 + 20.0));
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
