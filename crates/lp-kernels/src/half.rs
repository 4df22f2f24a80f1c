//! Software emulation of 16-bit floating-point formats (binary16 and bfloat16).
//!
//! The training GPUs in the paper execute FP16 kernels natively; on the CPU substrate we
//! emulate the numerics exactly by rounding every value onto the 16-bit grid before the
//! computation proceeds in f32. Both round-to-nearest-even and stochastic rounding (the
//! paper's unbiased quantizer for floating point, Proposition 2) are provided.

use rand::Rng;

/// Largest finite value representable in binary16.
const F16_MAX: f32 = 65504.0;

/// Convert an `f32` to binary16 bits with round-to-nearest-even.
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7C00 | 0x0200 | ((mant >> 13) as u16 & 0x03FF).max(1)
        };
    }

    // Re-bias exponent: f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow -> infinity.
        return sign | 0x7C00;
    }
    if unbiased >= -14 {
        // Normal range.
        let mut m = mant >> 13; // keep 10 bits
        let rem = mant & 0x1FFF;
        let halfway = 0x1000;
        if rem > halfway || (rem == halfway && (m & 1) == 1) {
            m += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if m == 0x400 {
            // Mantissa rounded up and overflowed into the exponent.
            m = 0;
            e += 1;
            if e >= 0x1F {
                return sign | 0x7C00;
            }
        }
        return sign | ((e as u16) << 10) | (m as u16);
    }
    if unbiased >= -24 {
        // Subnormal range.
        let full_mant = mant | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased) as u32 + 13;
        let m = full_mant >> shift;
        let rem = full_mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut m16 = m as u16;
        if rem > halfway || (rem == halfway && (m16 & 1) == 1) {
            m16 += 1;
        }
        return sign | m16;
    }
    // Underflow to signed zero.
    sign
}

/// Convert binary16 bits back to `f32` (exact).
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;

    if exp == 0x1F {
        // Inf / NaN
        let bits = sign | 0x7F80_0000 | (mant << 13);
        return f32::from_bits(bits);
    }
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: value = mant * 2^-24
        let v = (mant as f32) * 2f32.powi(-24);
        return if sign != 0 { -v } else { v };
    }
    let bits = sign | ((exp + 127 - 15) << 23) | (mant << 13);
    f32::from_bits(bits)
}

/// Round an `f32` onto the binary16 grid (round-to-nearest-even) and return it as `f32`.
#[inline]
pub fn round_to_f16(v: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(v))
}

/// Round an `f32` onto the bfloat16 grid (round-to-nearest-even on the low 16 bits)
/// and return it as `f32`.
#[inline]
pub fn round_to_bf16(v: f32) -> f32 {
    let bits = v.to_bits();
    if v.is_nan() {
        return f32::from_bits((bits | 0x0040_0000) & 0xFFFF_0000); // keep a quiet NaN
    }
    // Round to nearest even: add 0x7FFF + lsb of the kept part.
    let lsb = (bits >> 16) & 1;
    f32::from_bits(bits.wrapping_add(0x7FFF + lsb) & 0xFFFF_0000)
}

/// Stochastically round an `f32` onto the binary16 grid.
///
/// This is the floating-point unbiased quantizer of Proposition 2: the exponent is kept
/// and the mantissa is rounded up with probability proportional to the residual, so that
/// `E[SR(x)] = x` for every finite `x` inside the representable range.
pub fn stochastic_round_to_f16<R: Rng + ?Sized>(v: f32, rng: &mut R) -> f32 {
    if !v.is_finite() {
        return round_to_f16(v);
    }
    if v.abs() > F16_MAX {
        return round_to_f16(v);
    }
    let down = f16_floor(v);
    if down == v {
        return v;
    }
    let up = f16_next_up(down, v);
    let span = up - down;
    if span <= 0.0 || !span.is_finite() {
        return down;
    }
    let frac = (v - down) / span;
    if rng.gen::<f32>() < frac {
        up
    } else {
        down
    }
}

/// Largest binary16-representable value `<= v`.
fn f16_floor(v: f32) -> f32 {
    let r = round_to_f16(v);
    if r <= v {
        r
    } else {
        // Step one ULP towards negative infinity.
        let bits = f32_to_f16_bits(r);
        let stepped = step_towards(bits, false);
        f16_bits_to_f32(stepped)
    }
}

/// Smallest binary16-representable value strictly greater than `down` (towards `v`'s side).
fn f16_next_up(down: f32, _v: f32) -> f32 {
    let bits = f32_to_f16_bits(down);
    f16_bits_to_f32(step_towards(bits, true))
}

/// Step a binary16 bit pattern one ULP up (`true`) or down (`false`) in real-value order.
fn step_towards(bits: u16, up: bool) -> u16 {
    let sign = bits & 0x8000;
    let mag = bits & 0x7FFF;
    if up {
        if sign == 0 {
            // positive: increase magnitude
            mag.saturating_add(1)
        } else if mag == 0 {
            // -0 -> smallest positive subnormal
            1
        } else {
            sign | (mag - 1)
        }
    } else if sign == 0 {
        if mag == 0 {
            0x8001 // +0 -> smallest negative subnormal
        } else {
            mag - 1
        }
    } else {
        sign | mag.saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exact_values_round_trip() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25, 65504.0] {
            assert_eq!(round_to_f16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn rounding_error_is_bounded_by_relative_ulp() {
        for &v in &[0.1f32, std::f32::consts::PI, -std::f32::consts::E, 123.456, 0.001, -9876.5] {
            let r = round_to_f16(v);
            let rel = ((r - v) / v).abs();
            assert!(rel < 1e-3, "relative error too large for {v}: {rel}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(round_to_f16(1e6), f32::INFINITY);
        assert_eq!(round_to_f16(-1e6), f32::NEG_INFINITY);
        assert!(round_to_f16(f32::NAN).is_nan());
    }

    #[test]
    fn subnormals_are_handled() {
        let v = 1e-6f32; // below the f16 normal range (min normal ~6.1e-5)
        let r = round_to_f16(v);
        assert!((0.0..6.2e-5).contains(&r));
        // The spacing of subnormals is 2^-24 ~ 5.96e-8.
        assert!((r - v).abs() <= 6e-8 * 1.01, "r={r}");
    }

    #[test]
    fn bf16_round_trip_and_precision() {
        assert_eq!(round_to_bf16(1.0), 1.0);
        assert_eq!(round_to_bf16(-2.0), -2.0);
        let v = std::f32::consts::PI;
        let r = round_to_bf16(v);
        assert!(((r - v) / v).abs() < 1e-2);
        assert!(round_to_bf16(f32::NAN).is_nan());
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let v = 0.1001f32;
        let n = 20000;
        let mean: f64 = (0..n)
            .map(|_| stochastic_round_to_f16(v, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        let rel = ((mean - v as f64) / v as f64).abs();
        assert!(rel < 2e-4, "stochastic rounding biased: mean={mean}, v={v}");
    }

    #[test]
    fn stochastic_rounding_outputs_are_representable() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for i in 0..200 {
            let v = (i as f32) * 0.137 - 10.0;
            let r = stochastic_round_to_f16(v, &mut rng);
            assert_eq!(round_to_f16(r), r, "output {r} not on the f16 grid for input {v}");
        }
    }

    #[test]
    fn step_towards_moves_in_value_order() {
        let one = f32_to_f16_bits(1.0);
        let up = f16_bits_to_f32(step_towards(one, true));
        let down = f16_bits_to_f32(step_towards(one, false));
        assert!(up > 1.0);
        assert!(down < 1.0);
        let neg = f32_to_f16_bits(-1.0);
        assert!(f16_bits_to_f32(step_towards(neg, true)) > -1.0);
        assert!(f16_bits_to_f32(step_towards(neg, false)) < -1.0);
    }
}
