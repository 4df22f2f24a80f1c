//! Fig. 7 — system-optimization effects.
//!
//! (a) Quantization (min/max collection) overhead: vanilla vs the optimized two-step
//!     reduction, measured on the real Rust kernels for a `(64·b, 56, 56)` tensor.
//! (b) Extra end-to-end overhead of INT8 training relative to FP16 on T4 and A10, with
//!     and without the LP-PyTorch optimizations (min/max kernel + dequantization fusion).

use std::fmt;
use std::time::Instant;

use qsync_cluster::cost::casting::CastingCostCalculator;
use qsync_cluster::device::{Device, GpuModel};
use qsync_cluster::profiler::Profiler;
use qsync_core::replayer::CostMapper;
use qsync_core::{ModelContext, QSyncConfig};
use qsync_lp_kernels::precision::Precision;
use qsync_lp_kernels::quant::minmax::{minmax_optimized, minmax_vanilla};
use qsync_graph::models::resnet50;
use qsync_graph::PrecisionDag;

/// One bar of Fig. 7(a).
#[derive(Debug, Clone)]
pub struct MinmaxRow {
    /// Batch multiplier (1x..5x).
    pub batch_multiplier: usize,
    /// Vanilla min/max latency (ms), measured on the real kernel.
    pub vanilla_ms: f64,
    /// Optimized two-step latency (ms).
    pub optimized_ms: f64,
}

/// Fig. 7(a) data.
#[derive(Debug, Clone)]
pub struct MinmaxOverhead {
    /// One row per batch multiplier.
    pub rows: Vec<MinmaxRow>,
}

/// Measure the real min/max kernels for the paper's tensor shape `(64·b, 56, 56)`.
pub fn minmax_overhead(repeats: usize) -> MinmaxOverhead {
    let rows = (1..=5)
        .map(|b| {
            let numel = 64 * b * 56 * 56;
            let data: Vec<f32> = (0..numel).map(|i| ((i % 977) as f32) * 0.013 - 5.0).collect();
            let time = |f: &dyn Fn(&[f32])| -> f64 {
                // Warm up once, then time.
                f(&data);
                let start = Instant::now();
                for _ in 0..repeats.max(1) {
                    f(&data);
                }
                start.elapsed().as_secs_f64() * 1000.0 / repeats.max(1) as f64
            };
            MinmaxRow {
                batch_multiplier: b,
                vanilla_ms: time(&|d| {
                    let _ = minmax_vanilla(d);
                }),
                optimized_ms: time(&|d| {
                    let _ = minmax_optimized(d, 64 * b);
                }),
            }
        })
        .collect();
    MinmaxOverhead { rows }
}

impl MinmaxOverhead {
    /// Mean relative saving of the optimized kernel over the vanilla one, in percent.
    pub fn mean_saving_pct(&self) -> f64 {
        let savings: Vec<f64> = self
            .rows
            .iter()
            .map(|r| (r.vanilla_ms - r.optimized_ms) / r.vanilla_ms * 100.0)
            .collect();
        savings.iter().sum::<f64>() / savings.len().max(1) as f64
    }
}

/// One bar of Fig. 7(b).
#[derive(Debug, Clone)]
pub struct Int8OverheadRow {
    /// GPU name.
    pub gpu: &'static str,
    /// Extra INT8-over-FP16 overhead without the optimizations ("BARE"), percent.
    pub bare_pct: f64,
    /// Extra overhead with min/max + fusion optimizations, percent.
    pub optimized_pct: f64,
}

/// Fig. 7(b) data.
#[derive(Debug, Clone)]
pub struct Int8Overhead {
    /// One row per GPU (T4, A10).
    pub rows: Vec<Int8OverheadRow>,
}

/// Compute the extra end-to-end overhead of INT8 vs FP16 for ResNet-50 (batch 256) on the
/// simulated T4 and A10, with and without dequantization fusion.
pub fn int8_overhead(seed: u64) -> Int8Overhead {
    let config = QSyncConfig::default();
    let model = ModelContext::new(resnet50(256, 224), config.n_buckets, config.seed);
    let dag = model.dag();
    let profiler = Profiler::default();
    let rows = [GpuModel::T4, GpuModel::A10]
        .into_iter()
        .map(|gpu| {
            let device = Device::full(0, gpu);
            let profile = profiler.profile(dag, &device, &Precision::PAPER_CANDIDATES, seed);
            let compute_time = |fusion: bool, precision: Precision| -> f64 {
                let mut casting = CastingCostCalculator::for_device_with_fusion(&device, fusion);
                if !fusion {
                    // The bare path also uses the framework-default (vanilla) min/max
                    // collection, which costs roughly an extra pass over the tensor.
                    for (from, to) in [(Precision::Fp32, Precision::Int8), (Precision::Fp16, Precision::Int8)] {
                        if let Some(m) = casting.model(from, to).copied() {
                            casting.set_fitted(
                                from,
                                to,
                                &[
                                    (1_000, m.predict_us(1_000) * 1.45),
                                    (1_000_000, m.predict_us(1_000_000) * 1.45),
                                ],
                            );
                        }
                    }
                }
                let mapper = CostMapper::new(&model, &profile, &casting, &device);
                mapper
                    .build_local_dfg(&PrecisionDag::uniform(dag, precision), 0)
                    .compute_time_us()
            };
            let fp16 = compute_time(true, Precision::Fp16);
            let int8_opt = compute_time(true, Precision::Int8);
            let int8_bare = compute_time(false, Precision::Int8);
            Int8OverheadRow {
                gpu: device.model.spec().name,
                bare_pct: (int8_bare / fp16 - 1.0) * 100.0,
                optimized_pct: (int8_opt / fp16 - 1.0) * 100.0,
            }
        })
        .collect();
    Int8Overhead { rows }
}

impl fmt::Display for MinmaxOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7(a): min/max quantization overhead, vanilla vs optimized")?;
        writeln!(f, "{:<6} {:>14} {:>14} {:>10}", "batch", "vanilla (ms)", "optimized (ms)", "saving")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:>14.3} {:>14.3} {:>9.1}%",
                format!("{}x", r.batch_multiplier),
                r.vanilla_ms,
                r.optimized_ms,
                (r.vanilla_ms - r.optimized_ms) / r.vanilla_ms * 100.0
            )?;
        }
        writeln!(f, "mean saving: {:.1}%", self.mean_saving_pct())
    }
}

impl fmt::Display for Int8Overhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7(b): extra INT8 overhead w.r.t. FP16 (ResNet-50, batch 256)")?;
        writeln!(f, "{:<6} {:>10} {:>12}", "GPU", "BARE", "Optimized")?;
        for r in &self.rows {
            writeln!(f, "{:<6} {:>9.1}% {:>11.1}%", r.gpu, r.bare_pct, r.optimized_pct)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_minmax_is_faster_than_vanilla() {
        let m = minmax_overhead(2);
        assert_eq!(m.rows.len(), 5);
        // The paper reports 16-20% savings on the GPU; the rayon two-step reduction on
        // CPU saves at least that much on every batch size.
        assert!(m.mean_saving_pct() > 10.0, "mean saving {}%", m.mean_saving_pct());
    }

    #[test]
    fn optimizations_shrink_the_int8_overhead() {
        let o = int8_overhead(1);
        assert_eq!(o.rows.len(), 2);
        for r in &o.rows {
            assert!(
                r.optimized_pct < r.bare_pct,
                "{}: optimized {}% should be below bare {}%",
                r.gpu,
                r.optimized_pct,
                r.bare_pct
            );
        }
    }
}
