//! # dcm-mem
//!
//! Memory-subsystem models for the `dcm` suite: the HBM timing model with
//! per-device minimum access granularity (§3.3 of the paper) and the
//! vector gather/scatter engine behind Figure 9. The on-chip SRAM is not
//! modelled: its capacity is a Table 1 spec field only.
//!
//! The one parameter doing most of the work in the paper is the minimum
//! access granularity: 256 B on Gaudi-2 versus 32 B sectors on the A100.
//! Every access smaller than the granularity still moves a full chunk, so
//! fine-grained gathers waste most of Gaudi's bandwidth (key takeaway #3).
//!
//! ```
//! use dcm_core::DeviceSpec;
//! use dcm_mem::hbm::{AccessPattern, HbmModel};
//!
//! let gaudi = HbmModel::new(&DeviceSpec::gaudi2());
//! let a100 = HbmModel::new(&DeviceSpec::a100());
//! // 64-byte random gathers: Gaudi-2 wastes 3/4 of each 256 B transfer.
//! let g = gaudi.access(1_000_000, 64, AccessPattern::Random);
//! let a = a100.access(1_000_000, 64, AccessPattern::Random);
//! assert!(g.useful_bandwidth() < a.useful_bandwidth());
//! ```

pub mod gather;
pub mod hbm;

pub use gather::GatherScatterEngine;
pub use hbm::{AccessPattern, HbmModel, MemCost};
