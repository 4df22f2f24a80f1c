//! Fig. 4 — cost composition of an operator (cvt / cpt / bp shares) on a T4.
//!
//! The paper profiles the second-to-last convolution of VGG-16 and a regular linear from
//! one of BERT's attention blocks, 100 times each, at INT8 / FP16 / FP32, and reports the
//! share of casting (cvt), pure computation (cpt) and backward-casting (bp) cost.

use std::fmt;

use qsync_cluster::cost::casting::CastingCostCalculator;
use qsync_cluster::device::{Device, GpuModel};
use qsync_cluster::profiler::Profiler;
use qsync_core::replayer::CostMapper;
use qsync_core::{ModelContext, QSyncConfig};
use qsync_lp_kernels::precision::Precision;
use qsync_graph::models::{bert_base, vgg16};
use qsync_graph::PrecisionDag;

/// Cost composition of one (operator, precision) pair.
#[derive(Debug, Clone)]
pub struct CostCompositionRow {
    /// Label, e.g. `linear8` or `conv16`.
    pub kernel: String,
    /// Forward casting share of the total time, in percent.
    pub cvt_pct: f64,
    /// Pure computation share, in percent.
    pub cpt_pct: f64,
    /// Backward casting share, in percent.
    pub bp_pct: f64,
    /// Absolute total time in microseconds.
    pub total_us: f64,
}

/// The full figure: six bars (linear / conv at 32, 16, 8 bits).
#[derive(Debug, Clone)]
pub struct CostComposition {
    /// One row per bar of Fig. 4.
    pub rows: Vec<CostCompositionRow>,
}

/// Regenerate Fig. 4 on the simulated T4.
pub fn cost_composition() -> CostComposition {
    let device = Device::full(0, GpuModel::T4);
    let profiler = Profiler::default();
    let casting = CastingCostCalculator::for_device(&device);

    let mut rows = Vec::new();
    // A regular linear operator from a BERT attention block.
    let bert = bert_base(12, 384);
    let linear = bert
        .nodes()
        .iter()
        .find(|n| n.name == "layer5.attn.q")
        .expect("bert attention linear")
        .id;
    // The second-to-last convolution of VGG-16.
    let vgg = vgg16(64, 224);
    let convs: Vec<_> = vgg.nodes().iter().filter(|n| n.kind.family() == "conv2d").collect();
    let conv = convs[convs.len() - 2].id;

    let config = QSyncConfig::default();
    for (dag, node, label) in [(bert, linear, "linear"), (vgg, conv, "conv")] {
        let model = ModelContext::new(dag, config.n_buckets, config.seed);
        let dag = model.dag();
        let profile = profiler.profile(dag, &device, &Precision::PAPER_CANDIDATES, 1);
        let mapper = CostMapper::new(&model, &profile, &casting, &device);
        for p in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            // The paper measures the operator in isolation: only this operator runs at
            // the low precision, so its inputs arrive in FP32 and must be cast.
            let mut pdag = PrecisionDag::full_precision(dag);
            if p != Precision::Fp32 {
                let _ = pdag.set(dag, node, p);
            }
            let op = profile.get_or_fp32(node, p);
            let cvt = mapper.forward_cast_us(&pdag, node);
            let bp = mapper.backward_cast_us(&pdag, node);
            let cpt = op.fwd_us + op.bwd_us;
            let total = cvt + bp + cpt;
            rows.push(CostCompositionRow {
                kernel: format!("{label}{}", p.bits()),
                cvt_pct: cvt / total * 100.0,
                cpt_pct: cpt / total * 100.0,
                bp_pct: bp / total * 100.0,
                total_us: total,
            });
        }
    }
    CostComposition { rows }
}

impl fmt::Display for CostComposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 4: cost composition of an operator on T4")?;
        writeln!(f, "{:<10} {:>9} {:>9} {:>9} {:>12}", "kernel", "cvt %", "cpt %", "bp %", "total (us)")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>8.1}% {:>8.1}% {:>8.1}% {:>12.1}",
                r.kernel, r.cvt_pct, r.cpt_pct, r.bp_pct, r.total_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_precision_has_no_casting_share() {
        let c = cost_composition();
        for r in c.rows.iter().filter(|r| r.kernel.ends_with("32")) {
            assert_eq!(r.cvt_pct, 0.0);
            assert_eq!(r.bp_pct, 0.0);
            assert!((r.cpt_pct - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn casting_share_is_non_negligible_at_low_precision() {
        // The paper's headline observation: "the casting cost is non-negligible with
        // low-precision operators for all cases".
        let c = cost_composition();
        for r in c.rows.iter().filter(|r| r.kernel.ends_with('8') || r.kernel.ends_with("16")) {
            assert!(r.cvt_pct + r.bp_pct > 2.0, "{}: casting share too small", r.kernel);
            assert!(r.cpt_pct < 100.0);
        }
        // INT8 pays more casting than FP16 for the same operator.
        let l8 = c.rows.iter().find(|r| r.kernel == "linear8").unwrap();
        let l16 = c.rows.iter().find(|r| r.kernel == "linear16").unwrap();
        assert!(l8.cvt_pct + l8.bp_pct > l16.cvt_pct + l16.bp_pct);
    }

    #[test]
    fn all_six_bars_are_present() {
        let c = cost_composition();
        assert_eq!(c.rows.len(), 6);
        assert!(c.to_string().contains("linear8"));
        assert!(c.to_string().contains("conv32"));
    }
}
