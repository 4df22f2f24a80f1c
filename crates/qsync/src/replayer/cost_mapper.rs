//! The cost mapper (Algorithm 1): maps a precision assignment onto a timed local DFG.
//!
//! When an operator's precision changes, three things change in the execution timeline
//! (Section IV-B):
//!
//! 1. the operator's own pure execution cost (looked up in the profile, `CC_i[b_io]`),
//! 2. the casting costs around it — converting inputs whose producer emits a different
//!    precision, converting the FP32 master weight, and the extra casts in the backward
//!    pass (footnote 2: fixed-point backward runs in FP16),
//! 3. the precision of downstream *precision-dependent* operators, which can cascade
//!    (handled by [`PrecisionDag::propagate`]) and in turn changes their casting costs.
//!
//! [`CostMapper::build_local_dfg`] constructs the complete timed local DFG for a device;
//! [`CostMapper::cost_mapping`] is the incremental entry point matching Algorithm 1's
//! signature (update one operator, rebuild what changed).

use qsync_cluster::cost::casting::CastingCostCalculator;
use qsync_cluster::device::Device;
use qsync_cluster::profiler::ProfileDb;
use qsync_lp_kernels::precision::Precision;
use qsync_graph::{DfgNode, DfgOp, LocalDfg, NodeId, OpCategory, PrecisionDag};

use crate::context::ModelContext;

/// The four timeline contributions of one operator under a precision assignment: the
/// two cast slots and the two pure-execution slots the cost mapper would emit for it.
///
/// This is the unit of incremental re-evaluation: when an operator's precision changes,
/// only its own `NodeCost` and the `NodeCost` of its direct successors (whose input
/// casts see a different producer precision) can change.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCost {
    /// Forward-pass casting cost ([`CostMapper::forward_cast_us`]).
    pub fwd_cast_us: f64,
    /// Pure forward execution cost (profiled).
    pub fwd_us: f64,
    /// Backward-pass casting cost ([`CostMapper::backward_cast_us`]).
    pub bwd_cast_us: f64,
    /// Pure backward execution cost (profiled).
    pub bwd_us: f64,
}

/// Builds timed local DFGs from a model, a precision assignment, profiled operator costs
/// and a casting-cost calculator.
pub struct CostMapper<'a> {
    /// The model: graph plus the prebuilt local-DFG skeleton (and its bucket count).
    pub model: &'a ModelContext,
    /// Profiled pure operator execution costs for this device.
    pub profile: &'a ProfileDb,
    /// Casting-cost calculator for this device.
    pub casting: &'a CastingCostCalculator,
    /// The device (used for optimizer-step cost).
    pub device: &'a Device,
    /// Multiplier applied to every casting cost (1.0 = normal; 0.0 disables casting
    /// modelling, which is the "w/o cost mapper" / DPro ablation of Table III).
    pub casting_scale: f64,
}

impl<'a> CostMapper<'a> {
    /// Create a cost mapper with casting modelling enabled.
    pub fn new(
        model: &'a ModelContext,
        profile: &'a ProfileDb,
        casting: &'a CastingCostCalculator,
        device: &'a Device,
    ) -> Self {
        CostMapper { model, profile, casting, device, casting_scale: 1.0 }
    }

    /// Disable casting-cost modelling (the DPro-style baseline).
    pub fn without_casting(mut self) -> Self {
        self.casting_scale = 0.0;
        self
    }

    /// Forward-pass casting cost of one node under the current precision DAG:
    /// input casts (lines 6-10 of Algorithm 1) plus the weight cast (lines 11-15).
    pub fn forward_cast_us(&self, pdag: &PrecisionDag, id: NodeId) -> f64 {
        let dag = self.model.dag();
        let node = dag.node(id);
        let p = pdag.get(id);
        let mut cost = 0.0;
        // Input casts: every predecessor whose output precision differs from the
        // precision this operator consumes.
        let consumed = match node.kind.category() {
            OpCategory::PrecisionAdjustable => p,
            OpCategory::PrecisionDependent => p,
            OpCategory::Fixed => Precision::Fp32,
        };
        for pred in &node.inputs {
            let produced = pdag.output_precision(*pred);
            if produced != consumed {
                cost += self.casting.predict_us(produced, consumed, dag.node(*pred).output_numel());
            }
        }
        // Weight cast: the FP32 master weight is converted to the execution precision.
        if node.kind.category() == OpCategory::PrecisionAdjustable && p != Precision::Fp32 {
            cost += self.casting.predict_us(Precision::Fp32, p, node.weight_numel());
        }
        cost * self.casting_scale
    }

    /// Backward-pass casting cost of one node (the `bp_cost` of Fig. 4): casting the
    /// incoming output-gradient to the backward execution precision, and (for
    /// fixed-point operators) dequantizing the weight gradient back to FP32.
    pub fn backward_cast_us(&self, pdag: &PrecisionDag, id: NodeId) -> f64 {
        let node = self.model.dag().node(id);
        if node.kind.category() != OpCategory::PrecisionAdjustable {
            return 0.0;
        }
        let p = pdag.get(id);
        if p == Precision::Fp32 {
            return 0.0;
        }
        let grad_numel = node.output_numel();
        // The backward of FP16 and INT8 kernels consumes an FP16 gradient.
        let mut cost = self.casting.predict_us(Precision::Fp32, Precision::Fp16, grad_numel);
        if p.is_fixed_point() {
            // Re-quantize the saved activation and dequantize the INT32 weight-gradient
            // accumulator to FP32.
            cost += self.casting.predict_us(Precision::Fp16, p, grad_numel.min(node.weight_numel().max(1)));
            cost += self.casting.predict_us(p, Precision::Fp32, node.weight_numel());
        }
        cost * self.casting_scale
    }

    /// Incremental cost hook: the four timeline contributions of one node under `pdag`.
    ///
    /// The values are exactly the durations [`CostMapper::build_local_dfg`] would assign
    /// to the node's cast/forward/backward entries, so an evaluator that caches them per
    /// node and re-sums along the DFG skeleton reproduces the full build bit-for-bit.
    pub fn node_cost(&self, pdag: &PrecisionDag, id: NodeId) -> NodeCost {
        let p = pdag.get(id);
        let op = self.profile.get_or_fp32(id, p);
        NodeCost {
            fwd_cast_us: self.forward_cast_us(pdag, id),
            fwd_us: op.fwd_us,
            bwd_cast_us: self.backward_cast_us(pdag, id),
            bwd_us: op.bwd_us,
        }
    }

    /// Optimizer-step latency: three memory passes over every FP32 parameter.
    pub fn optimizer_us(&self) -> f64 {
        let bytes = self.model.dag().param_count() as f64 * 4.0 * 3.0;
        bytes / self.device.memory_bandwidth_bytes() * 1e6 + 10.0
    }

    /// Build the complete timed local DFG for this device under `pdag`, walking the
    /// model context's prebuilt skeleton.
    pub fn build_local_dfg(&self, pdag: &PrecisionDag, device_rank: usize) -> LocalDfg {
        let template = self.model.template();
        let mut entries = Vec::with_capacity(template.len() * 2);
        for op in template {
            match *op {
                DfgOp::Forward(id) => {
                    let p = pdag.get(id);
                    let cast = self.forward_cast_us(pdag, id);
                    if cast > 0.0 {
                        entries.push(DfgNode { op: DfgOp::CastForward(id), duration_us: cast });
                    }
                    entries.push(DfgNode {
                        op: DfgOp::Forward(id),
                        duration_us: self.profile.get_or_fp32(id, p).fwd_us,
                    });
                }
                DfgOp::Backward(id) => {
                    let p = pdag.get(id);
                    let cast = self.backward_cast_us(pdag, id);
                    if cast > 0.0 {
                        entries.push(DfgNode { op: DfgOp::CastBackward(id), duration_us: cast });
                    }
                    entries.push(DfgNode {
                        op: DfgOp::Backward(id),
                        duration_us: self.profile.get_or_fp32(id, p).bwd_us,
                    });
                }
                DfgOp::Optimizer => {
                    entries.push(DfgNode { op: DfgOp::Optimizer, duration_us: self.optimizer_us() });
                }
                ref other => entries.push(DfgNode { op: other.clone(), duration_us: 0.0 }),
            }
        }
        LocalDfg { device: device_rank, entries }
    }

    /// Algorithm 1 entry point: change `op` to `new_precision` in `pdag` (cascading to
    /// dependent operators) and return the rebuilt local DFG.
    ///
    /// Returns the list of nodes whose precision changed together with the new DFG.
    pub fn cost_mapping(
        &self,
        pdag: &mut PrecisionDag,
        op: NodeId,
        new_precision: Precision,
        device_rank: usize,
    ) -> (Vec<NodeId>, LocalDfg) {
        let changed = pdag.set(self.model.dag(), op, new_precision);
        (changed, self.build_local_dfg(pdag, device_rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_cluster::device::GpuModel;
    use qsync_cluster::profiler::Profiler;
    use qsync_graph::models::small_mlp;

    struct Fixture {
        model: ModelContext,
        profile: ProfileDb,
        casting: CastingCostCalculator,
        device: Device,
    }

    fn fixture() -> Fixture {
        let dag = small_mlp(64, 512, 1024, 16);
        let device = Device::full(0, GpuModel::T4);
        let profile = Profiler::default().profile(&dag, &device, &Precision::PAPER_CANDIDATES, 1);
        let casting = CastingCostCalculator::for_device(&device);
        Fixture { model: ModelContext::new(dag, 2, 42), profile, casting, device }
    }

    #[test]
    fn fp32_plan_has_no_cast_entries() {
        let f = fixture();
        let mapper = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device);
        let pdag = PrecisionDag::full_precision(f.model.dag());
        let dfg = mapper.build_local_dfg(&pdag, 0);
        assert!(dfg
            .entries
            .iter()
            .all(|e| !matches!(e.op, DfgOp::CastForward(_) | DfgOp::CastBackward(_))));
    }

    #[test]
    fn low_precision_plans_insert_cast_entries() {
        let f = fixture();
        let mapper = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device);
        let pdag = PrecisionDag::uniform(f.model.dag(), Precision::Int8);
        let dfg = mapper.build_local_dfg(&pdag, 0);
        let casts = dfg
            .entries
            .iter()
            .filter(|e| matches!(e.op, DfgOp::CastForward(_) | DfgOp::CastBackward(_)))
            .count();
        assert!(casts > 0);
        // Every cast entry has a positive duration.
        for e in &dfg.entries {
            if matches!(e.op, DfgOp::CastForward(_) | DfgOp::CastBackward(_)) {
                assert!(e.duration_us > 0.0);
            }
        }
    }

    #[test]
    fn quantization_speeds_up_compute_despite_casting() {
        // On a T4 the INT8/FP16 kernels are enough faster that the plan's total compute
        // time drops even after paying the casting costs — the premise of the paper.
        let f = fixture();
        let mapper = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device);
        let t32 = mapper.build_local_dfg(&PrecisionDag::full_precision(f.model.dag()), 0).compute_time_us();
        let t16 = mapper
            .build_local_dfg(&PrecisionDag::uniform(f.model.dag(), Precision::Fp16), 0)
            .compute_time_us();
        assert!(t16 < t32, "fp16 {t16} should be faster than fp32 {t32}");
    }

    #[test]
    fn disabling_casting_underestimates_low_precision_time() {
        let f = fixture();
        let with = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device);
        let without = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device).without_casting();
        let pdag = PrecisionDag::uniform(f.model.dag(), Precision::Int8);
        let t_with = with.build_local_dfg(&pdag, 0).compute_time_us();
        let t_without = without.build_local_dfg(&pdag, 0).compute_time_us();
        assert!(t_without < t_with);
    }

    #[test]
    fn cost_mapping_cascades_and_changes_the_timeline() {
        let f = fixture();
        let mapper = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device);
        let mut pdag = PrecisionDag::uniform(f.model.dag(), Precision::Fp16);
        let before = mapper.build_local_dfg(&pdag, 0).compute_time_us();
        let target = f.model.dag().adjustable_ops()[1];
        let (changed, dfg) = mapper.cost_mapping(&mut pdag, target, Precision::Fp32, 0);
        assert!(changed.contains(&target));
        assert!(!changed.is_empty());
        let after = dfg.compute_time_us();
        assert!(after > before, "raising precision should slow this device down");
    }

    #[test]
    fn weight_cast_scales_with_weight_size() {
        let f = fixture();
        let mapper = CostMapper::new(&f.model, &f.profile, &f.casting, &f.device);
        let pdag = PrecisionDag::uniform(f.model.dag(), Precision::Fp16);
        let ops = f.model.dag().adjustable_ops();
        // fc2 (1024x1024) has a much larger weight than fc3 (16x1024).
        let big = mapper.forward_cast_us(&pdag, ops[1]);
        let small = mapper.forward_cast_us(&pdag, ops[2]);
        assert!(big > small);
    }
}
