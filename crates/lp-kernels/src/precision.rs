//! Numeric precision formats supported by the LP kernel backend.
//!
//! The paper selects, per operator and per device, one of three representative
//! precisions: `INT8`, `FP16` and `FP32`. We additionally model `BF16` (used by
//! automated mixed precision on Ampere-class devices) and `INT4` (mentioned as a
//! limitation of existing frameworks); both appear on the wire and in snapshots.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A numeric precision format for operator execution and tensor storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Precision {
    /// 4-bit fixed point (signed).
    Int4,
    /// 8-bit fixed point (signed), the lowest precision evaluated in the paper.
    Int8,
    /// IEEE-754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
    Fp16,
    /// bfloat16 (1 sign, 8 exponent, 7 mantissa bits).
    Bf16,
    /// IEEE-754 binary32, the full precision reference.
    Fp32,
}

impl Precision {
    /// All precisions in ascending bit-width / fidelity order used by the allocator ladder.
    pub const LADDER: [Precision; 5] = [
        Precision::Int4,
        Precision::Int8,
        Precision::Fp16,
        Precision::Bf16,
        Precision::Fp32,
    ];

    /// The three precision candidates used throughout the paper's evaluation.
    pub const PAPER_CANDIDATES: [Precision; 3] = [Precision::Int8, Precision::Fp16, Precision::Fp32];

    /// Number of bits used to store one element.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Int4 => 4,
            Precision::Int8 => 8,
            Precision::Fp16 | Precision::Bf16 => 16,
            Precision::Fp32 => 32,
        }
    }

    /// Number of bytes used to store one element (rounded up).
    pub fn bytes(self) -> usize {
        self.bits().div_ceil(8) as usize
    }

    /// `true` for fixed-point (integer) formats.
    pub fn is_fixed_point(self) -> bool {
        matches!(self, Precision::Int4 | Precision::Int8)
    }

    /// `true` for floating-point formats.
    fn is_floating_point(self) -> bool {
        !self.is_fixed_point()
    }

    /// Number of explicit mantissa bits for floating-point formats, `None` for fixed point.
    fn mantissa_bits(self) -> Option<u32> {
        match self {
            Precision::Fp16 => Some(10),
            Precision::Bf16 => Some(7),
            Precision::Fp32 => Some(23),
            _ => None,
        }
    }

    /// The paper's `k` in `epsilon = 2^-k` for floating-point quantization variance.
    ///
    /// Proposition 2 uses `k = 9` for float16 (10 mantissa bits, stochastic rounding on
    /// the unit-in-last-place interval). We follow the same convention: `k = mantissa - 1`.
    fn effective_k(self) -> Option<u32> {
        self.mantissa_bits().map(|m| m.saturating_sub(1))
    }

    /// `epsilon = 2^-k` used in the floating-point quantization variance bound.
    pub fn epsilon(self) -> Option<f64> {
        self.effective_k().map(|k| 2f64.powi(-(k as i32)))
    }

    /// Promotion rule for binary CUDA ops ("promote the widest input type", footnote 1).
    pub fn promote(self, other: Precision) -> Precision {
        // Fixed point never wins a promotion against floating point of equal/greater width.
        if self.is_fixed_point() && other.is_floating_point() {
            return other;
        }
        if other.is_fixed_point() && self.is_floating_point() {
            return self;
        }
        if self.bits() >= other.bits() {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Int4 => "INT4",
            Precision::Int8 => "INT8",
            Precision::Fp16 => "FP16",
            Precision::Bf16 => "BF16",
            Precision::Fp32 => "FP32",
        };
        f.write_str(s)
    }
}

/// GPU architecture families the templated backend can target.
///
/// Mirrors the `sm70 / sm75 / sm80 / simt` configuration axis of LP-PyTorch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Volta (V100): FP16 tensor cores, no INT8 tensor cores.
    Sm70,
    /// Turing (T4): FP16 + INT8 tensor cores.
    Sm75,
    /// Ampere (A10/A100): FP16/BF16/INT8/INT4 tensor cores.
    Sm80,
    /// Pure SIMT fallback (no tensor cores).
    Simt,
}

impl Arch {
    /// Whether this architecture has hardware acceleration for the given precision.
    pub fn supports_tensor_op(self, p: Precision) -> bool {
        match self {
            Arch::Sm70 => matches!(p, Precision::Fp16 | Precision::Fp32),
            Arch::Sm75 => matches!(p, Precision::Fp16 | Precision::Int8 | Precision::Fp32),
            Arch::Sm80 => true,
            Arch::Simt => matches!(p, Precision::Fp32),
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Arch::Sm70 => "sm70",
            Arch::Sm75 => "sm75",
            Arch::Sm80 => "sm80",
            Arch::Simt => "simt",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_bytes_are_consistent() {
        for p in Precision::LADDER {
            assert_eq!(p.bytes(), p.bits().div_ceil(8) as usize);
        }
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Int4.bytes(), 1);
    }

    #[test]
    fn ladder_is_monotone_in_fidelity() {
        for w in Precision::LADDER.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn promotion_prefers_floating_point_and_width() {
        assert_eq!(Precision::Int8.promote(Precision::Fp16), Precision::Fp16);
        assert_eq!(Precision::Fp16.promote(Precision::Fp32), Precision::Fp32);
        assert_eq!(Precision::Fp32.promote(Precision::Int8), Precision::Fp32);
        assert_eq!(Precision::Fp16.promote(Precision::Fp16), Precision::Fp16);
        assert_eq!(Precision::Int4.promote(Precision::Int8), Precision::Int8);
    }

    #[test]
    fn epsilon_matches_paper_float16_value() {
        // k = 9 for float16 in the paper, so epsilon = 2^-9.
        assert_eq!(Precision::Fp16.effective_k(), Some(9));
        assert!((Precision::Fp16.epsilon().unwrap() - 2f64.powi(-9)).abs() < 1e-12);
        assert_eq!(Precision::Int8.epsilon(), None);
    }

    #[test]
    fn arch_support_matrix_matches_table_one() {
        // V100 has no INT8 tensor path in Table I ("/" entry).
        assert!(!Arch::Sm70.supports_tensor_op(Precision::Int8));
        assert!(Arch::Sm70.supports_tensor_op(Precision::Fp16));
        assert!(Arch::Sm75.supports_tensor_op(Precision::Int8));
        assert!(Arch::Sm80.supports_tensor_op(Precision::Int4));
        assert!(!Arch::Simt.supports_tensor_op(Precision::Fp16));
    }

    #[test]
    fn display_round_trip_strings() {
        assert_eq!(Precision::Int8.to_string(), "INT8");
        assert_eq!(Precision::Fp16.to_string(), "FP16");
        assert_eq!(Precision::Fp32.to_string(), "FP32");
        assert_eq!(Arch::Sm75.to_string(), "sm75");
    }
}
