//! # dcm-compiler
//!
//! The Gaudi-SDK-equivalent layer: an operator-graph IR, the graph-compiler
//! optimization passes, and a unified [`Device`] that executes compiled
//! graphs on either modeled chip.
//!
//! The paper's §2.2 describes two compiler behaviours this crate
//! reproduces:
//!
//! * **Operator fusion** — "an MLIR-based operation fuser selects arbitrary
//!   subgraphs of element-wise … operations, then JIT-fuses" them, saving
//!   the round trip of intermediate tensors through HBM.
//! * **MME/TPC pipelining** — "when an MME operation is followed by a TPC
//!   operation … the graph compiler breaks them into smaller, independent
//!   sub-operations to enable pipelined execution", using on-chip SRAM as
//!   the intermediate buffer.
//!
//! Crucially, the user "has no control over the graph compiler's
//! optimization process" — [`CompileOptions`] models what the compiler
//! *does*, not what the programmer can request; the vLLM case study
//! (`dcm-vllm`) shows how data-layout choices at the framework level change
//! whether the pipelining pass fires.
//!
//! A [`Graph`] stores a model's repeated layer once, as a block with a
//! repeat count; the device compiles and prices that block once.
//!
//! ```
//! use dcm_compiler::{CompileOptions, Device, Graph, Op};
//! use dcm_core::DType;
//! use dcm_mme::GemmShape;
//!
//! let layer = [
//!     Op::gemm(GemmShape::new(1024, 1024, 1024), DType::Bf16),
//!     Op::relu(1024 * 1024, DType::Bf16),
//! ];
//! let mut g = Graph::new("mlp");
//! g.push_repeated(&layer, 4);
//! assert_eq!((g.len(), g.blocks().len()), (8, 1));
//! let gaudi = Device::gaudi2();
//! let run = gaudi.run_graph(&g, &CompileOptions::default());
//! assert!(run.stats.time_s > 0.0);
//! ```

pub mod device;
pub mod ir;
pub mod passes;

pub use device::{Device, GraphRun};
pub use ir::{Block, EwKind, Graph, Op};
pub use passes::{compile, CompileOptions, CompiledGraph, Scheduled};
