//! Floating-point quantization (FP32 -> FP16/BF16) with stochastic rounding, plus the
//! statistics used by the indicator's floating-point variance bound.
//!
//! The paper models a low-precision float as `x = s * 2^e * (1 + m)` where the exponent
//! bits are kept (truncated to the target format's range) and stochastic rounding is
//! applied to the mantissa; Proposition 2 then gives the tensor quantization variance
//! `Var[x_hat] = 2^(2e) * eps^2 * D / 6` with `eps = 2^-k`, which the indicator in
//! `qsync-core` evaluates from [`effective_exponent`].

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::half::{round_to_bf16, round_to_f16, stochastic_round_to_f16};
use crate::precision::Precision;
use crate::stochastic::RoundingMode;

/// Configuration for a floating-point quantizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FloatQuantizer {
    /// Target precision; must be a floating-point format narrower than FP32.
    pub precision: Precision,
    /// Rounding rule for the dropped mantissa bits.
    pub rounding: RoundingMode,
}

impl FloatQuantizer {
    /// The paper-default FP16 quantizer with stochastic rounding.
    pub fn fp16() -> Self {
        FloatQuantizer { precision: Precision::Fp16, rounding: RoundingMode::Stochastic }
    }

    /// Quantize a single value onto the target grid.
    fn quantize_scalar<R: Rng + ?Sized>(&self, v: f32, rng: &mut R) -> f32 {
        match (self.precision, self.rounding) {
            (Precision::Fp16, RoundingMode::Stochastic) => stochastic_round_to_f16(v, rng),
            (Precision::Fp16, _) => round_to_f16(v),
            (Precision::Bf16, _) => round_to_bf16(v),
            (Precision::Fp32, _) => v,
            (p, _) => panic!("FloatQuantizer does not support {p}"),
        }
    }

    /// Quantize a slice, returning values that lie on the target grid (still stored as f32).
    pub fn quantize<R: Rng + ?Sized>(&self, data: &[f32], rng: &mut R) -> Vec<f32> {
        data.iter().map(|&v| self.quantize_scalar(v, rng)).collect()
    }

    /// Quantize with a deterministic internal RNG derived from `seed`.
    pub fn quantize_seeded(&self, data: &[f32], seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        self.quantize(data, &mut rng)
    }
}

/// Effective exponent `e` of a tensor, derived from its magnitude.
///
/// The paper states that the effective bits "can be derived with the data's magnitude
/// (maximum and minimum)"; we use `e = log2(max |x|)` clamped to the representable
/// exponent range of the target format.
pub fn effective_exponent(data: &[f32], target: Precision) -> f64 {
    let amax = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if amax <= 0.0 {
        return 0.0;
    }
    let e = (amax as f64).log2();
    match target {
        Precision::Fp16 => e.clamp(-14.0, 15.0),
        Precision::Bf16 => e.clamp(-126.0, 127.0),
        _ => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_quantization_keeps_values_on_grid() {
        let q = FloatQuantizer::fp16();
        let data: Vec<f32> = (0..100).map(|i| (i as f32) * 0.0173 - 0.9).collect();
        let out = q.quantize_seeded(&data, 1);
        for v in &out {
            assert_eq!(round_to_f16(*v), *v);
        }
    }

    #[test]
    fn stochastic_fp16_is_unbiased_in_expectation() {
        let q = FloatQuantizer::fp16();
        let v = 0.12345f32;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let n = 30_000;
        let mean: f64 =
            (0..n).map(|_| q.quantize_scalar(v, &mut rng) as f64).sum::<f64>() / n as f64;
        assert!(((mean - v as f64) / v as f64).abs() < 5e-4, "mean={mean}");
    }

    #[test]
    fn nearest_mode_is_deterministic() {
        let q = FloatQuantizer { precision: Precision::Fp16, rounding: RoundingMode::Nearest };
        let data = vec![0.1f32, 0.2, 0.3];
        assert_eq!(q.quantize_seeded(&data, 1), q.quantize_seeded(&data, 2));
    }

    #[test]
    fn bf16_quantization_coarser_than_fp16() {
        let data: Vec<f32> = (0..512).map(|i| ((i as f32) * 0.71).sin() * 2.0).collect();
        let f16_out = FloatQuantizer::fp16().quantize_seeded(&data, 3);
        let bf16 = FloatQuantizer { precision: Precision::Bf16, rounding: RoundingMode::Nearest };
        let bf16_out = bf16.quantize_seeded(&data, 3);
        let err = |out: &[f32]| -> f64 {
            out.iter().zip(&data).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>()
        };
        assert!(err(&bf16_out) > err(&f16_out));
    }

    #[test]
    fn effective_exponent_tracks_magnitude() {
        let small = vec![0.01f32, -0.02, 0.005];
        let large = vec![100.0f32, -250.0, 30.0];
        let es = effective_exponent(&small, Precision::Fp16);
        let el = effective_exponent(&large, Precision::Fp16);
        assert!(el > es);
        assert!((el - (250f64).log2()).abs() < 1e-6);
        assert_eq!(effective_exponent(&[0.0, 0.0], Precision::Fp16), 0.0);
    }

    #[test]
    #[should_panic]
    fn int_precision_rejected() {
        let q = FloatQuantizer { precision: Precision::Int8, rounding: RoundingMode::Nearest };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = q.quantize_scalar(1.0, &mut rng);
    }
}
