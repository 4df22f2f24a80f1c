//! Per-operator execution cost model.
//!
//! The model converts an operator's arithmetic intensity into a latency on a concrete
//! device: compute-bound operators (linear, conv, matmul) are priced against the device's
//! peak throughput at the operator's precision, memory-bound operators (normalisation,
//! activation, pooling, elementwise) against the device's memory bandwidth. The backward
//! pass of a compute operator costs roughly 2x its forward pass (two GEMMs); the backward
//! of a fixed-point operator is executed in FP16 (footnote 2 of the paper).

use serde::{Deserialize, Serialize};

use qsync_lp_kernels::precision::Precision;
use qsync_graph::op::OpKind;
use qsync_graph::OpNode;

use crate::device::Device;

/// Latency of one operator's forward and backward computation (casting excluded).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct OpCost {
    /// Forward latency in microseconds.
    pub fwd_us: f64,
    /// Backward latency in microseconds.
    pub bwd_us: f64,
}

impl OpCost {
    /// Total (forward + backward) latency.
    pub fn total_us(&self) -> f64 {
        self.fwd_us + self.bwd_us
    }
}

/// The analytical compute-cost model for one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComputeCostModel {
    /// Fraction of peak throughput achievable by tensor-core GEMM kernels.
    pub gemm_efficiency: f64,
    /// Fraction of peak memory bandwidth achievable by element-wise kernels.
    pub membound_efficiency: f64,
    /// Fixed launch overhead added to every kernel, in microseconds.
    pub launch_overhead_us: f64,
}

impl Default for ComputeCostModel {
    fn default() -> Self {
        ComputeCostModel { gemm_efficiency: 0.45, membound_efficiency: 0.7, launch_overhead_us: 5.0 }
    }
}

impl ComputeCostModel {
    /// Latency of `node` executed at `precision` on `device`.
    pub fn op_cost(&self, node: &OpNode, precision: Precision, device: &Device) -> OpCost {
        let out_numel = node.output_numel();
        if matches!(node.kind, OpKind::Input | OpKind::Flatten) {
            return OpCost { fwd_us: 0.0, bwd_us: 0.0 };
        }
        if node.kind.is_compute_intensive() {
            let rows = node.output_shape.first().copied().unwrap_or(1);
            let flops = node.kind.forward_flops(out_numel, rows);
            let fwd_peak = device.peak_ops_per_sec(precision) * self.gemm_efficiency;
            let fwd_us = flops / fwd_peak * 1e6 + self.launch_overhead_us;
            // Backward: two GEMMs of the same size. Fixed-point backward runs in FP16.
            let bwd_precision = if precision.is_fixed_point() { Precision::Fp16 } else { precision };
            let bwd_peak = device.peak_ops_per_sec(bwd_precision) * self.gemm_efficiency;
            let bwd_us = 2.0 * flops / bwd_peak * 1e6 + 2.0 * self.launch_overhead_us;
            OpCost { fwd_us, bwd_us }
        } else {
            // Memory-bound: price by bytes moved (read input + write output).
            let elem_bytes = precision.bytes() as f64;
            let bytes = 2.0 * out_numel as f64 * elem_bytes;
            let bw = device.memory_bandwidth_bytes() * self.membound_efficiency;
            let fwd_us = bytes / bw * 1e6 + self.launch_overhead_us;
            // Backward of element-wise ops moves a similar volume; losses and embeddings
            // are cheap but still launch kernels.
            let bwd_factor = match node.kind {
                OpKind::BatchNorm2d { .. } | OpKind::LayerNorm { .. } => 2.0,
                OpKind::CrossEntropyLoss | OpKind::MseLoss | OpKind::Embedding { .. } => 1.0,
                _ => 1.5,
            };
            OpCost { fwd_us, bwd_us: fwd_us * bwd_factor }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuModel;
    use qsync_graph::models::{resnet50, small_mlp};

    fn linear_node() -> OpNode {
        let dag = small_mlp(128, 1024, 1024, 10);
        dag.nodes()
            .iter()
            .find(|n| n.name == "fc2")
            .cloned()
            .unwrap()
    }

    #[test]
    fn lower_precision_is_faster_on_t4() {
        let m = ComputeCostModel::default();
        let t4 = Device::full(0, GpuModel::T4);
        let node = linear_node();
        let c32 = m.op_cost(&node, Precision::Fp32, &t4);
        let c16 = m.op_cost(&node, Precision::Fp16, &t4);
        let c8 = m.op_cost(&node, Precision::Int8, &t4);
        assert!(c16.fwd_us < c32.fwd_us);
        assert!(c8.fwd_us < c16.fwd_us);
        // Backward of INT8 runs at FP16 speed, so it matches the FP16 backward.
        assert!((c8.bwd_us - c16.bwd_us).abs() < 1e-9);
    }

    #[test]
    fn v100_is_faster_than_t4_at_fp32() {
        let m = ComputeCostModel::default();
        let node = linear_node();
        let t4 = m.op_cost(&node, Precision::Fp32, &Device::full(0, GpuModel::T4));
        let v100 = m.op_cost(&node, Precision::Fp32, &Device::full(1, GpuModel::V100));
        assert!(v100.fwd_us < t4.fwd_us);
    }

    #[test]
    fn backward_costs_about_twice_the_forward_for_gemm_ops() {
        let m = ComputeCostModel::default();
        let node = linear_node();
        let c = m.op_cost(&node, Precision::Fp32, &Device::full(0, GpuModel::V100));
        let ratio = c.bwd_us / c.fwd_us;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio={ratio}");
    }

    #[test]
    fn memory_bound_ops_do_not_speed_up_with_compute_throughput() {
        let m = ComputeCostModel::default();
        let dag = resnet50(8, 64);
        let relu = dag
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::ReLU)
            .cloned()
            .unwrap();
        let t4 = Device::full(0, GpuModel::T4);
        let c32 = m.op_cost(&relu, Precision::Fp32, &t4);
        let c16 = m.op_cost(&relu, Precision::Fp16, &t4);
        // FP16 halves the bytes moved, so it is at most ~2x faster — far from the 8x
        // compute ratio; and never slower.
        assert!(c16.fwd_us <= c32.fwd_us);
        assert!(c32.fwd_us / c16.fwd_us < 2.5);
    }

    #[test]
    fn partial_compute_share_slows_the_operator_down() {
        let m = ComputeCostModel::default();
        let node = linear_node();
        let full = m.op_cost(&node, Precision::Fp16, &Device::full(0, GpuModel::T4));
        let partial = m.op_cost(&node, Precision::Fp16, &Device::partial(0, GpuModel::T4, 1.0, 0.5));
        assert!(partial.fwd_us > full.fwd_us);
    }

    #[test]
    fn whole_model_cost_is_positive_and_scales_down_with_precision() {
        let m = ComputeCostModel::default();
        let dag = resnet50(4, 32);
        let t4 = Device::full(0, GpuModel::T4);
        let cost = |p| dag.nodes().iter().map(|n| m.op_cost(n, p, &t4).total_us()).sum::<f64>();
        let (c32, c16) = (cost(Precision::Fp32), cost(Precision::Fp16));
        assert!(c32 > 0.0);
        assert!(c16 < c32);
    }
}
