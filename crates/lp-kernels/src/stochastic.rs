//! Stochastic rounding primitives.
//!
//! The paper uses stochastic rounding (SR) as the unbiased rounding rule for both
//! fixed-point and floating-point quantization (Section IV-A). SR rounds a real value to
//! one of its two nearest representable neighbours with probability proportional to the
//! residual, which makes the quantizer unbiased: `E[SR(x)] = x`. Proposition 2's
//! variance of that rounding lives with the indicator that uses it (`qsync-core`).
//!
//! The paper's discussion section also notes that *flooring* can sometimes recover
//! training quality; we expose a [`RoundingMode`] switch so the ablation bench can
//! exercise that claim.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rounding rule applied when mapping a scaled value onto the integer grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[derive(Default)]
pub enum RoundingMode {
    /// Unbiased stochastic rounding (the paper's default).
    #[default]
    Stochastic,
    /// Round to the nearest integer (ties away from zero).
    Nearest,
    /// Always round towards negative infinity (the paper's §VIII ablation).
    Floor,
}


/// Round a single scaled value to an integer according to `mode`.
#[inline]
pub fn round_scalar<R: Rng + ?Sized>(x: f32, mode: RoundingMode, rng: &mut R) -> f32 {
    match mode {
        RoundingMode::Nearest => x.round(),
        RoundingMode::Floor => x.floor(),
        RoundingMode::Stochastic => {
            let floor = x.floor();
            let frac = x - floor;
            if rng.gen::<f32>() < frac {
                floor + 1.0
            } else {
                floor
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn nearest_and_floor_are_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(round_scalar(2.7, RoundingMode::Nearest, &mut rng), 3.0);
        assert_eq!(round_scalar(2.7, RoundingMode::Floor, &mut rng), 2.0);
        assert_eq!(round_scalar(-2.3, RoundingMode::Floor, &mut rng), -3.0);
        assert_eq!(round_scalar(-2.3, RoundingMode::Nearest, &mut rng), -2.0);
    }

    #[test]
    fn stochastic_rounding_is_unbiased_on_scalars() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let x = 3.3f32;
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| round_scalar(x, RoundingMode::Stochastic, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - x as f64).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn stochastic_rounding_only_produces_neighbours() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..1000 {
            let r = round_scalar(5.4, RoundingMode::Stochastic, &mut rng);
            assert!(r == 5.0 || r == 6.0);
        }
        for _ in 0..1000 {
            let r = round_scalar(-5.4, RoundingMode::Stochastic, &mut rng);
            assert!(r == -6.0 || r == -5.0);
        }
    }

    #[test]
    fn integers_are_fixed_points_of_all_modes() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for mode in [RoundingMode::Stochastic, RoundingMode::Nearest, RoundingMode::Floor] {
            for v in [-3.0f32, 0.0, 7.0] {
                assert_eq!(round_scalar(v, mode, &mut rng), v);
            }
        }
    }

    #[test]
    fn sr_variance_formula_matches_empirical_variance() {
        // Empirical check of Proposition 2 on a single element with q = 1.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 200_000usize;
        // Use a residual drawn uniformly each trial so the Uniform(0,1) assumption holds.
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for _ in 0..n {
            let x: f32 = rng.gen::<f32>() + 10.0;
            let r = round_scalar(x, RoundingMode::Stochastic, &mut rng);
            let e = (r - x) as f64;
            sum += e;
            sumsq += e * e;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((var - 1.0 / 6.0).abs() < 0.01, "var={var}");
        assert!(mean.abs() < 0.01, "mean={mean}");
    }
}
