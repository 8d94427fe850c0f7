//! Numeric formats used by the simulated devices.
//!
//! Only the storage width and the peak-throughput class matter for timing:
//! functional simulation always computes in `f32`, mirroring how the paper
//! verifies correctness while measuring BF16 throughput.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Data types supported by both simulated devices.
///
/// The paper evaluates BF16 for everything except end-to-end RecSys, which
/// uses FP32 (§3.1 Methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// Brain floating point, 16 bits. The paper's default.
    Bf16,
    /// IEEE 754 single precision, 32 bits. Used for end-to-end RecSys.
    Fp32,
    /// IEEE 754 half precision, 16 bits.
    Fp16,
    /// 32-bit signed integer (indices for gathers and block tables).
    Int32,
    /// 8-bit signed integer.
    Int8,
}

impl DType {
    /// Storage size of one element in bytes.
    ///
    /// ```
    /// use dcm_core::dtype::DType;
    /// assert_eq!(DType::Bf16.size_bytes(), 2);
    /// assert_eq!(DType::Fp32.size_bytes(), 4);
    /// ```
    #[must_use]
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::Bf16 | DType::Fp16 => 2,
            DType::Fp32 | DType::Int32 => 4,
            DType::Int8 => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Bf16 => "bf16",
            DType::Fp32 => "fp32",
            DType::Fp16 => "fp16",
            DType::Int32 => "int32",
            DType::Int8 => "int8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_correct() {
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::Fp16.size_bytes(), 2);
        assert_eq!(DType::Fp32.size_bytes(), 4);
        assert_eq!(DType::Int32.size_bytes(), 4);
        assert_eq!(DType::Int8.size_bytes(), 1);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(DType::Bf16.to_string(), "bf16");
        assert_eq!(DType::Fp32.to_string(), "fp32");
    }
}
