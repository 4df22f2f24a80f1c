//! Quantization: fixed-point (INT8/INT4) and floating-point (FP16/BF16) quantizers,
//! min/max statistics collection, and dequantization.
//!
//! Terminology follows Section IV of the paper: for a scalar `x`, fixed-point quantization
//! computes `x_bar = (x - z_x) / q_x`, rounds it stochastically to `ceil/floor`, and
//! dequantizes back with `x_hat = round(x_bar) * q_x + z_x`. Floating-point quantization
//! truncates the mantissa and applies stochastic rounding to the dropped bits.

pub mod dequant;
pub mod fixed;
pub mod float;
pub mod minmax;

pub use dequant::{combine_dequant_mode, dequantize_i32_accumulator, DequantMode};
pub use fixed::FixedQuantizer;
pub use float::{effective_exponent, FloatQuantizer};
pub use minmax::{absmax_optimized, absmax_vanilla, minmax_optimized, minmax_vanilla};

use serde::{Deserialize, Serialize};

use crate::precision::Precision;

/// Granularity of the quantization scaling factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantScheme {
    /// A single (scale, zero-point) pair for the whole tensor ("layer-wise" in the paper).
    PerTensor,
    /// One (scale, zero-point) pair per slice along `axis` ("channel-wise" in the paper).
    PerChannel {
        /// The axis along which independent scales are kept (output-channel axis for weights).
        axis: usize,
    },
}

impl QuantScheme {
    /// `true` for the per-channel variant.
    pub fn is_per_channel(self) -> bool {
        matches!(self, QuantScheme::PerChannel { .. })
    }
}

/// Quantization parameters produced when a tensor is quantized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Scaling factor(s): one entry for per-tensor, `C` entries for per-channel.
    pub scales: Vec<f32>,
    /// Zero point(s) in the real domain, aligned with `scales`.
    pub zero_points: Vec<f32>,
    /// Granularity used.
    pub scheme: QuantScheme,
    /// Target fixed-point precision.
    pub precision: Precision,
}

impl QuantParams {
    /// The single scale for per-tensor parameters; panics if per-channel.
    pub fn scalar_scale(&self) -> f32 {
        assert_eq!(self.scales.len(), 1, "scalar_scale() called on per-channel params");
        self.scales[0]
    }
}

/// A quantized tensor: fixed-point payload plus the parameters needed to dequantize it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    /// Quantized values stored as `i8` (INT4 values are stored sign-extended in `i8`).
    pub data: Vec<i8>,
    /// Logical shape of the tensor.
    pub shape: Vec<usize>,
    /// Quantization parameters.
    pub params: QuantParams,
}

impl QuantizedTensor {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes consumed by the quantized payload (excludes parameters).
    pub fn payload_bytes(&self) -> usize {
        // INT4 would pack two values per byte on real hardware; we account for the
        // logical footprint so memory estimation matches the device model.
        (self.len() * self.params.precision.bits() as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_scheme_flags() {
        assert!(!QuantScheme::PerTensor.is_per_channel());
        assert!(QuantScheme::PerChannel { axis: 0 }.is_per_channel());
    }

    #[test]
    fn quantized_tensor_accounting() {
        let qt = QuantizedTensor {
            data: vec![0i8; 12],
            shape: vec![3, 4],
            params: QuantParams {
                scales: vec![0.1],
                zero_points: vec![0.0],
                scheme: QuantScheme::PerTensor,
                precision: Precision::Int8,
            },
        };
        assert_eq!(qt.len(), 12);
        assert!(!qt.is_empty());
        assert_eq!(qt.payload_bytes(), 12);

        let qt4 = QuantizedTensor {
            params: QuantParams { precision: Precision::Int4, ..qt.params.clone() },
            ..qt.clone()
        };
        assert_eq!(qt4.payload_bytes(), 6);
    }

    #[test]
    #[should_panic]
    fn scalar_scale_panics_on_per_channel() {
        let p = QuantParams {
            scales: vec![0.1, 0.3],
            zero_points: vec![0.0, 0.0],
            scheme: QuantScheme::PerChannel { axis: 0 },
            precision: Precision::Int8,
        };
        let _ = p.scalar_scale();
    }
}
