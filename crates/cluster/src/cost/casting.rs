//! Casting-cost models.
//!
//! Fig. 4 of the paper shows that conversion (casting) costs are a substantial fraction
//! of a low-precision operator's total time (up to 44 % for an INT8 linear). The paper
//! models every casting flavour as a *linear function of tensor size* (Section IV-B):
//! float<->float casts are single element-wise passes; float->fixed quantization adds the
//! two-step min/max collection and the scale computation; fixed->float dequantization is
//! another element-wise pass unless it is fused into the GEMM epilogue.
//!
//! [`CastingCostCalculator`] holds one fitted [`LinearCostModel`] per (from, to) pair and
//! can also fit models from measured `(numel, latency)` samples.

use serde::{Deserialize, Serialize};

use qsync_lp_kernels::precision::Precision;

use crate::device::Device;

/// `latency_us = base_us + per_elem_ns * numel / 1000`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearCostModel {
    /// Fixed overhead (kernel launches, scale computation) in microseconds.
    pub base_us: f64,
    /// Marginal cost per element in nanoseconds.
    pub per_elem_ns: f64,
}

impl LinearCostModel {
    /// Predicted latency for a tensor with `numel` elements.
    pub fn predict_us(&self, numel: usize) -> f64 {
        self.base_us + self.per_elem_ns * numel as f64 / 1000.0
    }

    /// Ordinary-least-squares fit from `(numel, latency_us)` samples.
    pub fn fit(samples: &[(usize, f64)]) -> LinearCostModel {
        assert!(samples.len() >= 2, "need at least two samples to fit a line");
        let n = samples.len() as f64;
        let mean_x = samples.iter().map(|(x, _)| *x as f64).sum::<f64>() / n;
        let mean_y = samples.iter().map(|(_, y)| *y).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, y) in samples {
            let dx = *x as f64 - mean_x;
            num += dx * (*y - mean_y);
            den += dx * dx;
        }
        let slope = if den > 0.0 { num / den } else { 0.0 };
        let intercept = mean_y - slope * mean_x;
        LinearCostModel { base_us: intercept.max(0.0), per_elem_ns: (slope * 1000.0).max(0.0) }
    }
}

/// A collection of linear casting-cost models, one per (source, target) precision pair.
#[derive(Debug, Clone)]
pub struct CastingCostCalculator {
    /// `models[from][to]`, indexed by [`Precision`] declaration order.
    models: [[Option<LinearCostModel>; 5]; 5],
    /// Whether dequantization is fused into the GEMM epilogue (halves the fixed->float cost).
    pub dequant_fusion: bool,
}

impl CastingCostCalculator {
    /// Build analytically calibrated models for a device from its memory bandwidth.
    pub fn for_device(device: &Device) -> Self {
        Self::for_device_with_fusion(device, true)
    }

    /// Same as [`CastingCostCalculator::for_device`] with explicit control over
    /// dequantization fusion (the Fig. 7(b) ablation disables it).
    pub fn for_device_with_fusion(device: &Device, dequant_fusion: bool) -> Self {
        let bw = device.memory_bandwidth_bytes(); // bytes per second
        let launch = 4.0; // us per kernel launch
        let mut models = [[None; 5]; 5];
        let pairs: Vec<(Precision, Precision)> = {
            let ps = [Precision::Int8, Precision::Fp16, Precision::Bf16, Precision::Fp32];
            let mut v = Vec::new();
            for &a in &ps {
                for &b in &ps {
                    if a != b {
                        v.push((a, b));
                    }
                }
            }
            v
        };
        for (from, to) in pairs {
            let read = from.bytes() as f64;
            let write = to.bytes() as f64;
            // Element-wise conversion pass: read + write.
            let mut bytes_per_elem = read + write;
            let mut base = launch;
            if to.is_fixed_point() {
                // Quantization adds the two-step min/max collection (one extra read of the
                // source plus a tiny reduction kernel) and the scale computation.
                bytes_per_elem += read;
                base += 2.0 * launch;
            }
            if from.is_fixed_point() {
                // Dequantization pass; fused epilogue removes the separate pass and keeps
                // only the scale math folded into the GEMM.
                if dequant_fusion {
                    bytes_per_elem = (read + write) * 0.25;
                } else {
                    base += launch;
                }
            }
            let per_elem_ns = bytes_per_elem / bw * 1e9;
            models[from as usize][to as usize] = Some(LinearCostModel { base_us: base, per_elem_ns });
        }
        CastingCostCalculator { models, dequant_fusion }
    }

    /// Predicted casting latency for converting a tensor of `numel` elements.
    ///
    /// Converting a precision to itself is free.
    pub fn predict_us(&self, from: Precision, to: Precision, numel: usize) -> f64 {
        if from == to || numel == 0 {
            return 0.0;
        }
        // INT4 shares the INT8 models.
        let norm = |p: Precision| if p == Precision::Int4 { Precision::Int8 } else { p };
        self.model(norm(from), norm(to)).map(|m| m.predict_us(numel)).unwrap_or(0.0)
    }

    /// Replace the model for one precision pair with one fitted from measurements.
    pub fn set_fitted(&mut self, from: Precision, to: Precision, samples: &[(usize, f64)]) {
        self.models[from as usize][to as usize] = Some(LinearCostModel::fit(samples));
    }

    /// Access the underlying model for a pair (for inspection / reporting).
    pub fn model(&self, from: Precision, to: Precision) -> Option<&LinearCostModel> {
        self.models[from as usize][to as usize].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuModel;

    fn t4() -> Device {
        Device::full(0, GpuModel::T4)
    }

    #[test]
    fn cast_cost_is_linear_in_tensor_size() {
        let c = CastingCostCalculator::for_device(&t4());
        let small = c.predict_us(Precision::Fp32, Precision::Fp16, 1_000);
        let big = c.predict_us(Precision::Fp32, Precision::Fp16, 1_000_000);
        let ratio = (big - c.model(Precision::Fp32, Precision::Fp16).unwrap().base_us)
            / (small - c.model(Precision::Fp32, Precision::Fp16).unwrap().base_us);
        assert!((ratio - 1000.0).abs() < 1.0, "ratio={ratio}");
    }

    #[test]
    fn identity_cast_and_empty_tensors_are_free() {
        let c = CastingCostCalculator::for_device(&t4());
        assert_eq!(c.predict_us(Precision::Fp16, Precision::Fp16, 1_000_000), 0.0);
        assert_eq!(c.predict_us(Precision::Fp32, Precision::Int8, 0), 0.0);
    }

    #[test]
    fn quantization_costs_more_than_a_plain_float_cast() {
        let c = CastingCostCalculator::for_device(&t4());
        let n = 1_000_000;
        let to_fp16 = c.predict_us(Precision::Fp32, Precision::Fp16, n);
        let to_int8 = c.predict_us(Precision::Fp32, Precision::Int8, n);
        assert!(to_int8 > to_fp16, "int8 quantization ({to_int8}) should cost more than fp16 cast ({to_fp16})");
    }

    #[test]
    fn dequant_fusion_reduces_fixed_to_float_cost() {
        let fused = CastingCostCalculator::for_device_with_fusion(&t4(), true);
        let unfused = CastingCostCalculator::for_device_with_fusion(&t4(), false);
        let n = 2_000_000;
        assert!(
            fused.predict_us(Precision::Int8, Precision::Fp32, n)
                < unfused.predict_us(Precision::Int8, Precision::Fp32, n)
        );
    }

    #[test]
    fn faster_memory_means_cheaper_casts() {
        let c_t4 = CastingCostCalculator::for_device(&t4());
        let c_v100 = CastingCostCalculator::for_device(&Device::full(1, GpuModel::V100));
        let n = 4_000_000;
        assert!(
            c_v100.predict_us(Precision::Fp32, Precision::Fp16, n)
                < c_t4.predict_us(Precision::Fp32, Precision::Fp16, n)
        );
    }

    #[test]
    fn linear_fit_recovers_a_known_line() {
        // y = 3 + 0.002 * x (us), i.e. 2 ns per element.
        let samples: Vec<(usize, f64)> =
            (1..=10).map(|i| (i * 10_000, 3.0 + 0.002 * (i * 10_000) as f64)).collect();
        let m = LinearCostModel::fit(&samples);
        assert!((m.base_us - 3.0).abs() < 1e-6);
        assert!((m.per_elem_ns - 2.0).abs() < 1e-6);
        assert!((m.predict_us(50_000) - (3.0 + 100.0)).abs() < 1e-6);
    }

    #[test]
    fn fitted_model_replaces_analytical_model() {
        let mut c = CastingCostCalculator::for_device(&t4());
        let samples = vec![(1000usize, 10.0f64), (2000, 15.0), (4000, 25.0)];
        c.set_fitted(Precision::Fp32, Precision::Int8, &samples);
        let m = c.model(Precision::Fp32, Precision::Int8).unwrap();
        assert!((m.per_elem_ns - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn fit_with_too_few_samples_panics() {
        let _ = LinearCostModel::fit(&[(10, 1.0)]);
    }
}
