//! Property-based tests for the low-precision kernel backend.

use proptest::prelude::*;

use qsync_lp_kernels::gemm::{gemm_f16, gemm_f32, gemm_i8, gemm_ref, TileConfig};
use qsync_lp_kernels::half::{round_to_f16, stochastic_round_to_f16};
use qsync_lp_kernels::precision::Precision;
use qsync_lp_kernels::quant::dequant::dequantize_i32_accumulator;
use qsync_lp_kernels::quant::fixed::dequantize;
use qsync_lp_kernels::quant::minmax::{minmax_optimized, minmax_vanilla};
use qsync_lp_kernels::quant::FixedQuantizer;
use qsync_lp_kernels::stochastic::{round_scalar, RoundingMode};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized two-step min/max reduction agrees with the serial scan for every
    /// input and every partitioning.
    #[test]
    fn optimized_minmax_equals_vanilla(data in finite_vec(512), rows in 1usize..64) {
        prop_assert_eq!(minmax_vanilla(&data), minmax_optimized(&data, rows));
    }

    /// Fixed-point quantization round-trip error is bounded by one quantization step.
    #[test]
    fn int8_round_trip_error_bounded_by_scale(data in finite_vec(256), seed in 0u64..1000) {
        let q = FixedQuantizer::int8_per_tensor();
        let qt = q.quantize_seeded(&data, &[data.len()], seed);
        let back = dequantize(&qt);
        let scale = qt.params.scalar_scale();
        for (a, b) in data.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= scale * 1.0001, "a={a}, b={b}, scale={scale}");
        }
    }

    /// Quantized payloads never exceed the representable fixed-point range.
    #[test]
    fn int8_values_stay_in_range(data in finite_vec(256), seed in 0u64..1000) {
        let q = FixedQuantizer::int8_per_tensor();
        let qt = q.quantize_seeded(&data, &[data.len()], seed);
        for &v in &qt.data {
            prop_assert!((-127..=127).contains(&(v as i32)));
        }
    }

    /// Stochastic rounding only ever returns one of the two neighbouring integers.
    #[test]
    fn stochastic_rounding_returns_neighbours(x in -1000.0f32..1000.0, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let r = round_scalar(x, RoundingMode::Stochastic, &mut rng);
        prop_assert!(r == x.floor() || r == x.ceil(), "x={x}, r={r}");
    }

    /// FP16 rounding is idempotent and stochastic FP16 rounding lands on the same grid.
    #[test]
    fn f16_rounding_is_idempotent(x in -60000.0f32..60000.0, seed in 0u64..1000) {
        let r = round_to_f16(x);
        prop_assert_eq!(round_to_f16(r), r);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = stochastic_round_to_f16(x, &mut rng);
        prop_assert_eq!(round_to_f16(s), s);
        // Both roundings stay within one relative ULP-ish bound of the input.
        if x.abs() > 1.0 {
            prop_assert!(((r - x) / x).abs() < 1e-3);
            prop_assert!(((s - x) / x).abs() < 2e-3);
        }
    }

    /// The blocked parallel FP32 GEMM matches the naive reference for arbitrary shapes.
    #[test]
    fn gemm_f32_matches_reference(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..100) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let c = gemm_f32(&a, &b, m, k, n, &TileConfig::fallback());
        let r = gemm_ref(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(r.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// FP16 GEMM stays within the rounding-error envelope of the exact product.
    #[test]
    fn gemm_f16_close_to_reference(m in 1usize..8, k in 1usize..16, n in 1usize..8, seed in 0u64..100) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen::<f32>() - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen::<f32>() - 0.5).collect();
        let c = gemm_f16(&a, &b, m, k, n, &TileConfig::fallback(), Precision::Fp32);
        let r = gemm_ref(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(r.iter()) {
            prop_assert!((x - y).abs() < 1e-3 * (k as f32).sqrt() + 1e-4);
        }
    }

    /// INT8 GEMM with exact integer operands and unit scales is exact.
    #[test]
    fn gemm_i8_exact_for_integer_operands(m in 1usize..6, k in 1usize..10, n in 1usize..6, seed in 0u64..100) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-5i8..=5)).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-5i8..=5)).collect();
        let c = gemm_i8(&a, &b, m, k, n, 1.0, &[1.0], None, &TileConfig::fallback());
        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let r = gemm_ref(&af, &bf, m, k, n);
        prop_assert_eq!(c, r);
    }

    /// Layer-wise dequantization is linear: scaling the input scale scales the output.
    #[test]
    fn dequantization_is_linear_in_scale(acc in prop::collection::vec(-1000i32..1000, 1..64), scale in 0.001f32..10.0) {
        let n = acc.len();
        let base = dequantize_i32_accumulator(&acc, 1, n, 1.0, &[1.0], None);
        let scaled = dequantize_i32_accumulator(&acc, 1, n, scale, &[1.0], None);
        for (b, s) in base.iter().zip(scaled.iter()) {
            prop_assert!((b * scale - s).abs() <= (b * scale).abs() * 1e-6 + 1e-6);
        }
    }
}
