//! Proposition 2: the variance stochastic rounding adds to a tensor.
//!
//! Rounding `D` elements stochastically onto a grid of step `q` adds variance `q²·D/6`.
//! On a fixed-point grid `q` is the quantization scale. On a floating-point grid at
//! effective exponent `e`, `q = 2^e·ε` with `ε = 2^-k`, so the variance is
//! `ε²·2^{2e}·D/6`.
//!
//! Every Ω the indicators compute is such a variance, or a sum of them weighted by
//! squared norms. Ω orders the allocator's recovery, so its bits are part of what a
//! plan is: each [`Term`] constructor and [`variance`] multiply in the one order the
//! indicators have always used. Multiplying by an exact `1.0` keeps every bit;
//! re-associating a product does not.

/// One tensor's share of a Proposition 2 sum, `weight · a · b · numel` multiplied left
/// to right, where `a · b` is the tensor's squared step or the part of it the term
/// carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Term {
    weight: f64,
    step_sq: (f64, f64),
    numel: f64,
}

impl Term {
    /// A fixed-point tensor of `numel` elements at scale `q`: `weight·q·q·numel`.
    pub(crate) fn fixed(weight: f64, q: f64, numel: f64) -> Self {
        Term { weight, step_sq: (q, q), numel }
    }

    /// A floating-point tensor at effective exponent `e` whose `ε²` is applied outside
    /// the term, by [`variance`]'s `eps_sq` or inside `weight`: `weight·2^{2e}·numel`.
    pub(crate) fn float(weight: f64, e: f64, numel: f64) -> Self {
        Term { weight, step_sq: ((2.0 * e).exp2(), 1.0), numel }
    }

    /// A floating-point tensor at effective exponent `e` that carries its own `ε`:
    /// `weight·2^{2e}·ε·ε·numel`.
    pub(crate) fn float_with_eps(weight: f64, e: f64, eps: f64, numel: f64) -> Self {
        Term { weight: weight * (2.0 * e).exp2(), step_sq: (eps, eps), numel }
    }
}

/// `eps_sq · (Σ terms) / 6`: Proposition 2's variance of the tensors in `terms`, with
/// the floating-point `ε²` they share factored out (`1.0` when none is).
pub(crate) fn variance(eps_sq: f64, terms: &[Term]) -> f64 {
    eps_sq * terms.iter().map(|t| t.weight * t.step_sq.0 * t.step_sq.1 * t.numel).sum::<f64>() / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_lp_kernels::precision::Precision;
    use qsync_lp_kernels::quant::{effective_exponent, FixedQuantizer, FloatQuantizer};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empirical_quantizer_variance_matches_proposition_two_within_factor() {
        // Draw values of a fixed magnitude scale, quantize stochastically with each of the
        // executed quantizers and compare the empirical variance of the error against
        // Proposition 2.
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let d = 2000usize;
        let data: Vec<f32> = (0..d).map(|_| 1.0 + rng.gen::<f32>()).collect(); // in [1, 2)
        let eps = Precision::Fp16.epsilon().unwrap();
        let e = effective_exponent(&data, Precision::Fp16);
        let int8 = FixedQuantizer::int8_per_tensor();
        let int8_scale = int8.quantize_seeded(&data, &[d], 0).params.scalar_scale() as f64;
        type Quantize<'a> = Box<dyn Fn(u64) -> Vec<f32> + 'a>;
        let cases: [(&str, f64, Quantize); 2] = [
            (
                "fp16",
                variance(eps * eps, &[Term::float(1.0, e, d as f64)]),
                Box::new(|seed| FloatQuantizer::fp16().quantize_seeded(&data, seed)),
            ),
            (
                "int8",
                variance(1.0, &[Term::fixed(1.0, int8_scale, d as f64)]),
                Box::new(|seed| int8.dequantize(&int8.quantize_seeded(&data, &[d], seed))),
            ),
        ];
        for (name, analytical, quantize) in cases {
            let trials = 50;
            let err_sq: f64 = (0..trials)
                .map(|t| {
                    let out = quantize(t as u64);
                    out.iter().zip(&data).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>()
                })
                .sum();
            let empirical = err_sq / trials as f64;
            // The analytical expression is a bound based on the max exponent (FP16) or
            // the per-tensor scale (INT8); the empirical variance should be the same
            // order of magnitude and not exceed ~2x the bound.
            assert!(empirical <= analytical * 2.0, "{name}: empirical={empirical}, bound={analytical}");
            assert!(empirical >= analytical * 0.05, "{name}: empirical={empirical}, bound={analytical}");
        }
    }
}
