//! # dcm-tpc
//!
//! Models of the programmable vector engines of both devices, plus an
//! embedded TPC-C-style kernel API.
//!
//! * [`engine`] — the analytic timing model: a single-threaded VLIW core
//!   with a 2048-bit SIMD unit and a 4-cycle architectural instruction
//!   latency (the Gaudi TPC, §2.2), or a SIMT core whose multithreading
//!   hides latency (the A100 SM). Drives all of Figure 8.
//! * [`index_space`] — the Gaudi work-partitioning abstraction: up to five
//!   dimensions of independent work items distributed across TPCs
//!   (Figure 3).
//! * [`program`] — the functional kernel DSL: `ld_tnsr` / `st_tnsr` /
//!   `v_add`-style operations over host tensors with instruction and
//!   memory-access accounting, so custom kernels (Figure 2(c), the §4.1
//!   embedding operators) execute for real *and* get timed.
//!
//! ```
//! use dcm_core::{DType, DeviceSpec};
//! use dcm_tpc::engine::{StreamKernel, VectorEngineModel};
//!
//! let gaudi = VectorEngineModel::new(&DeviceSpec::gaudi2());
//! // Loop unrolling matters on a 4-cycle-latency VLIW core (Figure 8(b)).
//! let k1 = StreamKernel::scale().with_unroll(1);
//! let k8 = StreamKernel::scale().with_unroll(8);
//! let t1 = gaudi.single_core_throughput(&k1, DType::Bf16);
//! let t8 = gaudi.single_core_throughput(&k8, DType::Bf16);
//! assert!(t8 > 1.5 * t1);
//! ```

pub mod engine;
pub mod index_space;
pub mod program;
pub mod vliw;

pub use engine::{StreamKernel, VectorEngineModel};
pub use index_space::{IndexMember, IndexSpace};
pub use program::{TpcContext, TpcExecutor, TpcProgram, VecReg};
