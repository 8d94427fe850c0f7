//! # dcm-embedding
//!
//! The §4.1 programmability case study: embedding-lookup operators for
//! RecSys serving, in three flavors:
//!
//! * [`SingleTableOp`] — one kernel launch per table, the structure of the
//!   stock Gaudi SDK operator (Figure 14(a)). Our optimized variant unrolls
//!   the index loop by 4 for memory-level parallelism and spreads offsets
//!   across TPCs; [`SingleTableOp::sdk`] models the unoptimized SDK
//!   version (~60% slower, footnote 2 of the paper).
//! * [`BatchedTableOp`] — all tables fused into one launch with
//!   offset-based indexing (Figure 14(b)), the FBGEMM `BatchedTable`
//!   design. One launch exposes `tables × batch × pooling` concurrent
//!   gathers to the memory system, which is what lifts bandwidth
//!   utilization at low batch sizes (Figure 15(a)).
//!
//! These two types are the operators' timing model ([`EmbeddingOp`]): the
//! figures price through them, and the same types parameterized with the
//! A100 spec form the FBGEMM-GPU baseline of Figure 15(d). The operators
//! execute as TPC-C kernels ([`single_table_tpc_forward`],
//! [`batched_table_tpc_forward`]): real bag-sum gathers over host tensors,
//! checked against [`reference_forward`]. [`LookupBatch::check`] decides
//! for all three whether a lookup is valid.
//!
//! ```
//! use dcm_core::DeviceSpec;
//! use dcm_embedding::{BatchedTableOp, EmbeddingConfig, EmbeddingOp, SingleTableOp};
//!
//! let cfg = EmbeddingConfig::rm2_like(64); // 64-byte fp32 vectors
//! let gaudi = DeviceSpec::gaudi2();
//! let single = SingleTableOp::optimized(&gaudi);
//! let batched = BatchedTableOp::new(&gaudi);
//! // Figure 15(a): batching tables raises bandwidth utilization at small
//! // batch sizes.
//! let b = batched.utilization(&cfg, 16);
//! let s = single.utilization(&cfg, 16);
//! assert!(b > s);
//! ```

pub mod config;
pub mod ops;
pub mod tpc_kernel;

pub use config::{EmbeddingConfig, LookupBatch};
pub use ops::{reference_forward, BatchedTableOp, EmbeddingOp, SingleTableOp};
pub use tpc_kernel::{
    batched_table_tpc_forward, single_table_tpc_forward, BatchedTableTpcKernel,
    SingleTableTpcKernel,
};
