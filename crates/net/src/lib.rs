//! # dcm-net
//!
//! Collective-communication models for the two server nodes the paper
//! evaluates (§2.1, §3.4):
//!
//! * **HLS-Gaudi-2** — eight devices in a *point-to-point mesh*: every pair
//!   wired with 3×100 GbE RoCE links. A device can only use the links that
//!   point at devices participating in the collective, so usable bandwidth
//!   scales with `(participants − 1) / 7`.
//! * **DGX A100** — eight devices behind an *NVSwitch crossbar*: full
//!   injection bandwidth regardless of participant count.
//!
//! [`collective`] prices the six collectives of Figure 10 with an α–β ring
//! model and the bus-bandwidth metric defined by NCCL-tests; [`functional`]
//! actually moves tensor data so tensor-parallel serving can be verified.
//!
//! ## Layered flow-level transport
//!
//! The closed-form models above are *formulas*; the modules below price
//! the same collectives by deterministic flow-level *simulation*
//! (DESIGN.md §3.9), bottom-up:
//!
//! * [`topology`] — nodes and directed links with capacity/latency, plus
//!   the two node fabrics of §2.1 as constructors;
//! * [`link`] — deterministic max-min fair bandwidth sharing
//!   (progressive filling);
//! * [`flow`] — an event-driven flow simulator where collectives are
//!   dependency DAGs of point-to-point transfers;
//! * [`transport`] — the [`FlowTransport`]/[`MultiNodeFlowTransport`]
//!   facade exposing the same `time(coll, bytes, participants)` shape.
//!
//! The closed-form [`CollectiveModel`]/[`MultiNodeModel`] survive as the
//! executable spec: `tests/tests/prop_fabric_diff.rs` pins uncongested
//! agreement and congestion monotonicity between the two layers.

pub mod collective;
pub mod flow;
pub mod functional;
pub mod link;
pub mod multinode;
pub mod topology;
pub mod transport;

pub use collective::{Collective, CollectiveModel};
pub use flow::{FlowId, FlowSim};
pub use multinode::MultiNodeModel;
pub use topology::{LinkId, LinkSpec, NodeId, Topology};
pub use transport::{FlowTransport, MultiNodeFlowTransport};
