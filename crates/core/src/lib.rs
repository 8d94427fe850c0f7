//! # dcm-core
//!
//! Core building blocks for the `dcm` simulation suite, a from-scratch Rust
//! reproduction of *"Debunking the CUDA Myth Towards GPU-based AI Systems"*
//! (ISCA 2025): a characterization of Intel's Gaudi-2 NPU against NVIDIA's
//! A100 GPU.
//!
//! The real study ran on silicon; this crate provides the substrate for the
//! simulated equivalent:
//!
//! * [`specs`] — the hardware parameters of both devices (the paper's
//!   Table 1), used to parameterize every downstream model.
//! * [`dtype`] — numeric formats and their storage widths.
//! * [`cast`] — checked float↔integer conversions (debug-asserted
//!   exactness; see `dcm-lint` rule `C1`).
//! * [`cost`] — the cost algebra every simulated operator reports into
//!   ([`OpCost`]: compute time, memory time, flops, bytes).
//! * [`timeline`] — schedule composition: the two-stage MME/TPC pipelines
//!   the Gaudi graph compiler builds.
//! * [`energy`] — activity-based power/energy model standing in for
//!   `nvidia-smi` / `hl-smi` sampling.
//! * [`roofline`] — the roofline model used for Figure 4.
//! * [`tensor`] / [`linalg`] — small functional tensors so operator
//!   semantics (gathers, attention) can be verified with real data.
//! * [`metrics`] — statistics and ASCII table/heatmap rendering shared by
//!   the figure-regeneration binaries.
//! * [`sim`] — the monotone simulated clock ([`sim::SimClock`]) each
//!   serving replica runs on, and a total-order event heap
//!   ([`sim::EventQueue`]).
//! * [`par`] — the deterministic parallel sweep harness
//!   ([`par::par_map`]): order-preserving, panic-propagating fan-out of
//!   independent simulation points across OS threads (`DCM_THREADS`).
//! * [`trace`] — structured span tracing ([`trace::TraceRecorder`]) with
//!   Chrome `trace_event` JSON and per-request CSV export.
//!
//! # Example
//!
//! ```
//! use dcm_core::specs::DeviceSpec;
//! use dcm_core::dtype::DType;
//!
//! let gaudi = DeviceSpec::gaudi2();
//! let a100 = DeviceSpec::a100();
//! // Table 1: Gaudi-2 offers ~1.4x the matrix throughput of A100 (BF16).
//! let ratio = gaudi.matrix_peak_flops(DType::Bf16) / a100.matrix_peak_flops(DType::Bf16);
//! assert!((ratio - 1.38).abs() < 0.1);
//! ```

pub mod cast;
pub mod cost;
pub mod dtype;
pub mod energy;
pub mod error;
pub mod linalg;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod roofline;
pub mod sim;
pub mod specs;
pub mod tensor;
pub mod timeline;
pub mod trace;

pub use cost::{Engine, OpCost};
pub use dtype::DType;
pub use error::{DcmError, Result};
pub use specs::DeviceSpec;
pub use tensor::{Shape, Tensor, TensorDesc};
