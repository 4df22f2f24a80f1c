//! Fixed-point (INT8 / INT4) quantization with stochastic rounding.
//!
//! For a scalar `x`, the paper defines `x_bar = (x - z_x) / q_x`, the quantized value
//! `round(x_bar)` and the dequantized value `x_hat = round(x_bar) * q_x + z_x`
//! (Section IV-A). With stochastic rounding the quantizer is unbiased and the tensor
//! quantization variance is `q_x^2 * D_x / 6` (Proposition 2).

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::precision::Precision;
use crate::quant::minmax::{minmax_optimized, minmax_per_channel};
use crate::quant::{QuantParams, QuantScheme, QuantizedTensor};
use crate::stochastic::{round_scalar, RoundingMode};

/// Configuration for a fixed-point quantizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedQuantizer {
    /// Target precision; must be a fixed-point format.
    pub precision: Precision,
    /// Symmetric quantization (zero point = 0, scale from the absolute maximum) or
    /// affine quantization (zero point = midpoint of the observed range).
    pub symmetric: bool,
    /// Rounding rule.
    pub rounding: RoundingMode,
    /// Scaling-factor granularity.
    pub scheme: QuantScheme,
}

impl FixedQuantizer {
    /// A symmetric per-tensor INT8 quantizer with stochastic rounding (the paper default
    /// for activations).
    pub fn int8_per_tensor() -> Self {
        FixedQuantizer {
            precision: Precision::Int8,
            symmetric: true,
            rounding: RoundingMode::Stochastic,
            scheme: QuantScheme::PerTensor,
        }
    }

    /// Largest representable magnitude for the target fixed-point format.
    fn qmax(&self) -> f32 {
        match self.precision {
            Precision::Int8 => 127.0,
            Precision::Int4 => 7.0,
            other => panic!("FixedQuantizer does not support {other}"),
        }
    }

    /// Compute (scale, zero_point) for a value range.
    fn range_to_params(&self, mn: f32, mx: f32) -> (f32, f32) {
        let qmax = self.qmax();
        if self.symmetric {
            let amax = mn.abs().max(mx.abs());
            let scale = if amax > 0.0 { amax / qmax } else { 1.0 };
            (scale, 0.0)
        } else {
            let span = (mx - mn).max(f32::EPSILON);
            let scale = span / (2.0 * qmax);
            let zero = (mx + mn) * 0.5;
            (scale, zero)
        }
    }

    /// Quantize a tensor given as a flat slice with its logical shape.
    ///
    /// The RNG drives stochastic rounding; pass a seeded RNG for reproducibility.
    pub fn quantize<R: Rng + ?Sized>(
        &self,
        data: &[f32],
        shape: &[usize],
        rng: &mut R,
    ) -> QuantizedTensor {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, data.len(), "shape {shape:?} does not match data length {}", data.len());
        let qmax = self.qmax();

        let (scales, zero_points, channels, inner) = match self.scheme {
            QuantScheme::PerTensor => {
                let (mn, mx) = minmax_optimized(data, 64);
                let (s, z) = self.range_to_params(mn, mx);
                (vec![s], vec![z], 1usize, data.len())
            }
            QuantScheme::PerChannel { axis } => {
                assert_eq!(axis, 0, "per-channel quantization is supported along axis 0 only");
                let channels = *shape.first().unwrap_or(&1);
                let inner = data.len().checked_div(channels).unwrap_or(0);
                let ranges = minmax_per_channel(data, channels);
                let mut scales = Vec::with_capacity(channels);
                let mut zeros = Vec::with_capacity(channels);
                for (mn, mx) in ranges {
                    let (s, z) = self.range_to_params(mn, mx);
                    scales.push(s);
                    zeros.push(z);
                }
                (scales, zeros, channels, inner)
            }
        };

        let mut out = Vec::with_capacity(data.len());
        for (i, &v) in data.iter().enumerate() {
            let c = if channels <= 1 { 0 } else { (i / inner).min(channels - 1) };
            let scale = scales[c];
            let zero = zero_points[c];
            let scaled = (v - zero) / scale;
            let rounded = round_scalar(scaled, self.rounding, rng);
            let clamped = rounded.max(-qmax).min(qmax);
            out.push(clamped as i8);
        }

        QuantizedTensor {
            data: out,
            shape: shape.to_vec(),
            params: QuantParams {
                scales,
                zero_points,
                scheme: self.scheme,
                precision: self.precision,
            },
        }
    }

    /// Quantize with a deterministic internal RNG derived from `seed`.
    pub fn quantize_seeded(&self, data: &[f32], shape: &[usize], seed: u64) -> QuantizedTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        self.quantize(data, shape, &mut rng)
    }

    /// Dequantize back to `f32` (`x_hat = q * scale + zero`).
    pub fn dequantize(&self, qt: &QuantizedTensor) -> Vec<f32> {
        dequantize(qt)
    }
}

/// Dequantize any fixed-point [`QuantizedTensor`] back to `f32`.
pub fn dequantize(qt: &QuantizedTensor) -> Vec<f32> {
    let channels = qt.params.scales.len();
    let inner = if channels <= 1 {
        qt.data.len()
    } else {
        qt.data.len() / channels
    };
    qt.data
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let c = if channels <= 1 { 0 } else { (i / inner).min(channels - 1) };
            q as f32 * qt.params.scales[c] + qt.params.zero_points[c]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.1).sin() * 3.0).collect()
    }

    #[test]
    fn round_trip_error_is_bounded_by_scale() {
        let q = FixedQuantizer::int8_per_tensor();
        let data = sample(512);
        let qt = q.quantize_seeded(&data, &[512], 1);
        let back = q.dequantize(&qt);
        let scale = qt.params.scalar_scale();
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() <= scale * 1.001, "a={a}, b={b}, scale={scale}");
        }
    }

    #[test]
    fn symmetric_quantization_has_zero_zero_point() {
        let q = FixedQuantizer::int8_per_tensor();
        let data = sample(64);
        let qt = q.quantize_seeded(&data, &[64], 2);
        assert_eq!(qt.params.zero_points, vec![0.0]);
    }

    #[test]
    fn affine_quantization_covers_shifted_ranges() {
        let q = FixedQuantizer {
            symmetric: false,
            ..FixedQuantizer::int8_per_tensor()
        };
        // All-positive data with a large offset: affine handles it with small error.
        let data: Vec<f32> = (0..256).map(|i| 100.0 + i as f32 * 0.01).collect();
        let qt = q.quantize_seeded(&data, &[256], 3);
        let back = q.dequantize(&qt);
        let scale = qt.params.scalar_scale();
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() <= scale * 1.001);
        }
        // Affine scale should be roughly half of the symmetric scale for this data.
        let sym = FixedQuantizer::int8_per_tensor().quantize_seeded(&data, &[256], 3);
        assert!(qt.params.scalar_scale() < sym.params.scalar_scale());
    }

    #[test]
    fn stochastic_quantizer_is_unbiased() {
        // Average of many dequantized draws converges to the input (Unbiased Quantizer).
        let q = FixedQuantizer::int8_per_tensor();
        let data = vec![0.703f32, -1.377, 2.912, 0.004];
        let n = 4000;
        let mut acc = vec![0.0f64; data.len()];
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..n {
            let qt = q.quantize(&data, &[4], &mut rng);
            let back = dequantize(&qt);
            for (a, b) in acc.iter_mut().zip(back.iter()) {
                *a += *b as f64;
            }
        }
        let scale = q
            .quantize_seeded(&data, &[4], 0)
            .params
            .scalar_scale() as f64;
        for (i, a) in acc.iter().enumerate() {
            let mean = a / n as f64;
            let err = (mean - data[i] as f64).abs();
            // Standard error of the mean is about scale / sqrt(6 n).
            assert!(err < 4.0 * scale / (6.0 * n as f64).sqrt() + 1e-4, "i={i}, mean={mean}");
        }
    }

    #[test]
    fn per_channel_uses_independent_scales() {
        let q = FixedQuantizer {
            scheme: QuantScheme::PerChannel { axis: 0 },
            ..FixedQuantizer::int8_per_tensor()
        };
        // Channel 0 is tiny, channel 1 is huge: per-channel keeps both accurate.
        let mut data = vec![0.01f32; 8];
        data.extend(vec![100.0f32; 8]);
        let qt = q.quantize_seeded(&data, &[2, 8], 5);
        assert_eq!(qt.params.scales.len(), 2);
        assert!(qt.params.scales[0] < qt.params.scales[1]);
        let back = dequantize(&qt);
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() / a.abs().max(1e-3) < 0.02, "a={a}, b={b}");
        }
    }

    #[test]
    fn int4_saturates_to_seven() {
        let q = FixedQuantizer {
            precision: Precision::Int4,
            ..FixedQuantizer::int8_per_tensor()
        };
        let data = sample(64);
        let qt = q.quantize_seeded(&data, &[64], 9);
        for &v in &qt.data {
            assert!((-7..=7).contains(&(v as i32)));
        }
    }

    #[test]
    fn constant_zero_tensor_round_trips_exactly() {
        let q = FixedQuantizer::int8_per_tensor();
        let data = vec![0.0f32; 32];
        let qt = q.quantize_seeded(&data, &[32], 11);
        let back = dequantize(&qt);
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let q = FixedQuantizer::int8_per_tensor();
        let data = vec![0.0f32; 10];
        let _ = q.quantize_seeded(&data, &[3, 4], 0);
    }

    #[test]
    #[should_panic]
    fn float_precision_rejected() {
        let q = FixedQuantizer {
            precision: Precision::Fp16,
            ..FixedQuantizer::int8_per_tensor()
        };
        let _ = q.qmax();
    }
}
