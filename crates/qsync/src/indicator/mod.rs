//! The sensitivity indicator Ω and its baselines.
//!
//! Proposition 3 of the paper: the variance increment of operator `o` at bit precision
//! `b_o` is
//!
//! ```text
//! Ω(b_o) = γ² · d_o · σ̂_fp + (d_L − d_o) · σ̂_bp
//! ```
//!
//! with the forward/backward terms of Equations (4)/(5) built from the tensor
//! quantization variances of Proposition 2. Lower Ω means less gradient-variance
//! increase, hence less accuracy damage (Theorem 1). Two baselines are implemented for
//! Table II: the HAWQ-style Hessian indicator (weight-curvature only) and the random
//! indicator.

mod prop2;
pub mod stats;
pub mod trace;

pub use stats::{ModelStatistics, OpStatistics};
pub use trace::{indicator_rank_trace, IndicatorTrace};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qsync_lp_kernels::precision::Precision;
use qsync_graph::{ModelDag, NodeId};

use prop2::Term;

/// A per-operator, per-precision sensitivity score: larger = more accuracy damage.
pub trait SensitivityIndicator {
    /// Sensitivity of running `node` at `precision`. FP32 must score 0.
    fn omega(&self, dag: &ModelDag, node: NodeId, precision: Precision) -> f64;

    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// Total sensitivity of a per-node precision assignment over the adjustable ops.
    fn total(&self, dag: &ModelDag, assignment: &dyn Fn(NodeId) -> Precision) -> f64 {
        dag.adjustable_ops().iter().map(|&id| self.omega(dag, id, assignment(id))).sum()
    }
}

/// QSync's variance-increment indicator (Proposition 3).
#[derive(Debug, Clone)]
pub struct VarianceIndicator {
    /// Per-operator statistics (profiled or synthetic).
    pub stats: ModelStatistics,
}

impl VarianceIndicator {
    /// Build from statistics.
    pub fn new(stats: ModelStatistics) -> Self {
        VarianceIndicator { stats }
    }

    /// Forward-pass variance term σ̂_fp (Equation 4).
    fn sigma_fp(&self, s: &OpStatistics, precision: Precision) -> f64 {
        let dv = s.activation.numel as f64;
        let dx = s.weight.numel as f64;
        if precision.is_fixed_point() {
            // (‖x‖² q_v² D_v + ‖v‖² q_x² D_x) / 6
            let qv = s.activation.int8_scale;
            let qx = s.weight.int8_scale;
            prop2::variance(1.0, &[Term::fixed(s.weight.sq_norm, qv, dv), Term::fixed(s.activation.sq_norm, qx, dx)])
        } else {
            // ε² (‖x‖² 2^{2e_v} D_v + ‖v‖² 2^{2e_x} D_x) / 6
            let eps = precision.epsilon().unwrap_or(0.0);
            let ev = s.activation.effective_exp_fp16;
            let ex = s.weight.effective_exp_fp16;
            prop2::variance(
                eps * eps,
                &[Term::float(s.weight.sq_norm, ev, dv), Term::float(s.activation.sq_norm, ex, dx)],
            )
        }
    }

    /// Backward-pass variance term σ̂_bp (Equation 5). The fixed-point backward runs in
    /// FP16 (footnote 2), which is why its second term uses the float form.
    fn sigma_bp(&self, s: &OpStatistics, precision: Precision) -> f64 {
        let dv = s.activation.numel as f64;
        let dgrad = s.grad_output.numel as f64;
        let eps16 = Precision::Fp16.epsilon().unwrap_or(0.0);
        if precision.is_fixed_point() {
            // (‖∇v‖² q_v² D_v + ‖v‖² 2^{2e_∇v} ε² D_∇v) / 6
            let qv = s.activation.int8_scale;
            let egrad = s.grad_output.effective_exp_fp16;
            prop2::variance(
                1.0,
                &[
                    Term::fixed(s.grad_output.sq_norm, qv, dv),
                    Term::float_with_eps(s.activation.sq_norm, egrad, eps16, dgrad),
                ],
            )
        } else {
            // ε² (‖∇v‖² 2^{2e_v} D_v + ‖v‖² 2^{2e_∇v} D_∇v) / 6
            let eps = precision.epsilon().unwrap_or(0.0);
            let ev = s.activation.effective_exp_fp16;
            let egrad = s.grad_output.effective_exp_fp16;
            prop2::variance(
                eps * eps,
                &[Term::float(s.grad_output.sq_norm, ev, dv), Term::float(s.activation.sq_norm, egrad, dgrad)],
            )
        }
    }
}

impl SensitivityIndicator for VarianceIndicator {
    fn omega(&self, _dag: &ModelDag, node: NodeId, precision: Precision) -> f64 {
        if precision == Precision::Fp32 {
            return 0.0;
        }
        let Some(s) = self.stats.get(node) else { return 0.0 };
        let d_o = s.depth as f64;
        let d_l = self.stats.max_depth as f64;
        let gamma = self.stats.gamma;
        gamma * gamma * d_o * self.sigma_fp(s, precision) + (d_l - d_o).max(0.0) * self.sigma_bp(s, precision)
    }

    fn name(&self) -> &'static str {
        "qsync"
    }
}

/// The HAWQ-style Hessian indicator baseline.
///
/// "HESS computes the block-wise Hessian for each layer and calculates the top
/// eigenvalue, which is then divided by the parameter size and times the introduced
/// error of the quantization" — it only sees the weight distribution, not the
/// activation/gradient effects, which is the blindness Table II exposes.
#[derive(Debug, Clone)]
pub struct HessianIndicator {
    /// Per-operator statistics (only the weight part is used).
    pub stats: ModelStatistics,
}

impl SensitivityIndicator for HessianIndicator {
    fn omega(&self, _dag: &ModelDag, node: NodeId, precision: Precision) -> f64 {
        if precision == Precision::Fp32 {
            return 0.0;
        }
        let Some(s) = self.stats.get(node) else { return 0.0 };
        let params = s.weight.numel.max(1) as f64;
        // Top-eigenvalue proxy of the weight block: mean squared weight magnitude.
        let top_eig = s.weight.sq_norm / params;
        // Quantization error of the weight at this precision (Proposition 2, weight only).
        let err = if precision.is_fixed_point() {
            prop2::variance(1.0, &[Term::fixed(1.0, s.weight.int8_scale, params)])
        } else {
            // ε² rides in the weight: (ε² 2^{2e} D) / 6 is multiplied in that order.
            let eps = precision.epsilon().unwrap_or(0.0);
            prop2::variance(1.0, &[Term::float(eps * eps, s.weight.effective_exp_fp16, params)])
        };
        top_eig / params * err
    }

    fn name(&self) -> &'static str {
        "hessian"
    }
}

/// The random indicator baseline: "the largest indicator is randomly generated for the
/// lowest precision of each operator and is halved as precision increases".
#[derive(Debug, Clone)]
pub struct RandomIndicator {
    /// Seed for the per-operator random bases.
    pub seed: u64,
}

impl SensitivityIndicator for RandomIndicator {
    fn omega(&self, _dag: &ModelDag, node: NodeId, precision: Precision) -> f64 {
        if precision == Precision::Fp32 {
            return 0.0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(node.0 as u64 * 7919));
        let base: f64 = rng.gen::<f64>();
        // Halve once per step up the ladder from the lowest precision (INT8).
        let halvings = match precision {
            Precision::Int4 => 0,
            Precision::Int8 => 0,
            Precision::Fp16 => 1,
            Precision::Bf16 => 1,
            Precision::Fp32 => unreachable!(),
        };
        base / 2f64.powi(halvings)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_graph::models::{bert_base, small_mlp};

    fn setup() -> (ModelDag, VarianceIndicator) {
        let dag = small_mlp(16, 32, 64, 4);
        let stats = ModelStatistics::synthetic(&dag, 1);
        (dag, VarianceIndicator::new(stats))
    }

    #[test]
    fn fp32_has_zero_sensitivity() {
        let (dag, ind) = setup();
        for id in dag.adjustable_ops() {
            assert_eq!(ind.omega(&dag, id, Precision::Fp32), 0.0);
        }
    }

    #[test]
    fn int8_is_more_sensitive_than_fp16() {
        let (dag, ind) = setup();
        for id in dag.adjustable_ops() {
            let i8v = ind.omega(&dag, id, Precision::Int8);
            let f16v = ind.omega(&dag, id, Precision::Fp16);
            assert!(i8v > f16v, "node {id:?}: int8 {i8v} should exceed fp16 {f16v}");
            assert!(f16v > 0.0);
        }
    }

    #[test]
    fn total_is_monotone_in_the_number_of_quantized_ops() {
        let (dag, ind) = setup();
        let ops = dag.adjustable_ops();
        let all_int8 = ind.total(&dag, &|_| Precision::Int8);
        let first_only = ind.total(&dag, &|id| if id == ops[0] { Precision::Int8 } else { Precision::Fp32 });
        let none = ind.total(&dag, &|_| Precision::Fp32);
        assert!(all_int8 > first_only);
        assert!(first_only > none);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn hessian_ignores_gradient_statistics() {
        // Two nodes with identical weights but very different gradients should tie under
        // HESS but differ under the variance indicator.
        let dag = small_mlp(16, 32, 32, 4);
        let mut stats = ModelStatistics::synthetic(&dag, 2);
        let ops = dag.adjustable_ops();
        let (a, b) = (ops[0], ops[1]);
        // Force identical weight & activation stats, very different gradient norms.
        let mut sa = stats.get(a).unwrap().clone();
        let mut sb = stats.get(b).unwrap().clone();
        sb.weight = sa.weight.clone();
        sb.activation = sa.activation.clone();
        sb.depth = sa.depth;
        sa.grad_output.sq_norm = 1e-6;
        sb.grad_output.sq_norm = 1.0;
        sb.grad_output.numel = sa.grad_output.numel;
        stats.insert(a, sa);
        stats.insert(b, sb);
        let hess = HessianIndicator { stats: stats.clone() };
        let ours = VarianceIndicator::new(stats);
        assert!((hess.omega(&dag, a, Precision::Int8) - hess.omega(&dag, b, Precision::Int8)).abs() < 1e-12);
        assert!(ours.omega(&dag, b, Precision::Int8) > ours.omega(&dag, a, Precision::Int8));
    }

    #[test]
    fn random_indicator_is_reproducible_and_halves_with_precision() {
        let dag = small_mlp(8, 16, 16, 2);
        let r = RandomIndicator { seed: 3 };
        let id = dag.adjustable_ops()[0];
        let a = r.omega(&dag, id, Precision::Int8);
        let b = r.omega(&dag, id, Precision::Int8);
        assert_eq!(a, b);
        assert!((r.omega(&dag, id, Precision::Fp16) - a / 2.0).abs() < 1e-12);
        assert_eq!(r.omega(&dag, id, Precision::Fp32), 0.0);
    }

    #[test]
    fn deeper_layers_weight_the_backward_term_less() {
        // Ω = γ² d σ_fp + (d_L - d) σ_bp: for equal statistics, a shallow layer has a
        // larger backward contribution and a deep layer a larger forward contribution.
        let dag = bert_base(1, 16);
        let stats = ModelStatistics::synthetic(&dag, 4);
        let ind = VarianceIndicator::new(stats);
        // Just verify the indicator runs over the full BERT graph and is finite.
        for id in dag.adjustable_ops() {
            let v = ind.omega(&dag, id, Precision::Fp16);
            assert!(v.is_finite() && v >= 0.0);
        }
    }
}
