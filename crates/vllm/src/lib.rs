//! # dcm-vllm
//!
//! The §4.2 programmability case study: PagedAttention-based LLM serving
//! on the modeled devices.
//!
//! * [`block`] — the two KV-cache index layouts: the 2-D zero-padded
//!   `BlockTable` of the baseline Gaudi vLLM fork and the 1-D `BlockList`
//!   of the optimized version (Figure 16), with functional attention over
//!   both proving they are numerically identical.
//! * [`kv_cache`] — the paged block manager (allocation on demand, the
//!   core vLLM idea \[42\]), counting blocks rather than naming them: the
//!   engine charges a block pool from its batch's token counts.
//! * [`attention`] — timing of three PagedAttention implementations:
//!   `GaudiBase` (per-block PyTorch-level gather ops, zero-padded,
//!   unpipelined), `GaudiOpt` (single batched gather, effectual blocks
//!   only, MME/TPC pipelined) and `A100Fused` (the CUDA kernel that reads
//!   blocks in-kernel). Drives Figure 17(a–c).
//! * [`dataset`] — a Dynamic-Sonnet-like synthetic request trace \[13\],
//!   with seeded arrival processes (Poisson, bursty, trace-driven) for
//!   online serving.
//! * [`engine`] — a continuous-batching serving engine with TTFT/TPOT
//!   accounting (mean and p50/p95/p99 tails), driving Figure 17(d,e);
//!   arrival-aware, with the offline experiment as the all-zero-arrival
//!   special case. Its step prices come from per-thread tables shared by
//!   every engine of a (device, model, tp) family, so a thread compiles
//!   each step graph and prices each attention GEMM shape once. Between
//!   two batch changes it advances the whole decode stretch in one pass,
//!   exactly or, with fast-forward, in closed form.
//! * [`cluster`] — a multi-replica router (round-robin /
//!   join-shortest-queue / least-loaded-KV) dispatching an arrival
//!   stream across N engines on one shared simulated clock. Its event
//!   loop is the only one: a single engine's `run` is a one-replica
//!   cluster run.
//! * [`fault`] — deterministic fault injection (seeded crash / recovery /
//!   slowdown plans), admission-control shedding policies and SLO specs;
//!   [`Cluster::run_resilient`](cluster::Cluster::run_resilient) replays
//!   a plan and reports goodput, SLO attainment, retries, shed and
//!   failed counts.
//!
//! ```
//! use dcm_compiler::Device;
//! use dcm_vllm::attention::{PagedAttention, PagedBackend};
//! use dcm_workloads::llama::LlamaConfig;
//!
//! let gaudi = Device::gaudi2();
//! let cfg = LlamaConfig::llama31_8b();
//! let base = PagedAttention::new(&gaudi, PagedBackend::GaudiBase, &cfg, 1);
//! let opt = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &cfg, 1);
//! let lens = vec![4096; 32];
//! // Figure 17(a): the optimized layout is several times faster.
//! let s = base.decode_cost(&lens, 0.0).time() / opt.decode_cost(&lens, 0.0).time();
//! assert!(s > 3.0);
//! ```

pub mod attention;
pub mod block;
pub mod cluster;
pub mod dataset;
pub mod engine;
pub mod fault;
pub mod kv_cache;
pub mod slab;

pub use attention::{BatchStats, PagedAttention, PagedBackend};
pub use block::{BlockList, BlockTable};
pub use cluster::{Cluster, ClusterReport, FabricConfig, ReplicaStats, RoutingPolicy};
pub use dataset::{ArrivalProcess, Request, SyntheticDataset};
pub use engine::{step_table_stats, ServingEngine, ServingReport, StepTableStats};
pub use fault::{FaultEvent, FaultPlan, ResilienceConfig, ShedPolicy, SloSpec};
pub use kv_cache::PagedKvCache;
pub use slab::{SeqSlab, SlotId};
