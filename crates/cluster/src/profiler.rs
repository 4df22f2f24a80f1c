//! Operator profiling.
//!
//! Step 2 of the QSync workflow collects, per operator and per candidate precision, the
//! *pure execution cost* on the target device ("the cost and memory requirements for the
//! operators under different precision are collected through profiling"). On the CPU
//! substrate the hardware is the device simulator: the profiler evaluates the analytic
//! compute-cost model and perturbs it with a deterministic per-(operator, precision)
//! hardware factor — representing the gap between a roofline estimate and a real kernel —
//! plus a small measurement noise. The replayer consumes the resulting [`ProfileDb`]
//! exactly like the paper's replayer consumes profiled kernel latencies.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use qsync_lp_kernels::precision::Precision;
use qsync_graph::{ModelDag, NodeId};

use crate::cost::compute::{ComputeCostModel, OpCost};
use crate::device::Device;

/// Pure execution cost of one operator at one precision (casting not included).
pub type OpProfile = OpCost;

/// Profiled costs for one device: a dense `node × candidate precision` table.
///
/// Every node is profiled at the same candidate set, so the table is one flat
/// row-major array (`node · n_candidates + column`): a lookup is an index
/// computation plus a scan of at most a handful of candidate precisions —
/// the allocator's inner loops hit it once per touched operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ProfileDb {
    /// The profiled precisions; position = column.
    precisions: Vec<Precision>,
    /// Row-major `node × column` costs.
    costs: Vec<OpProfile>,
}

impl ProfileDb {
    /// Tabulate `cost(node, precision)` for nodes `0..n_nodes` at every precision of
    /// `precisions`, calling `cost` in node-major, precision-minor order.
    pub fn tabulate(
        n_nodes: usize,
        precisions: &[Precision],
        mut cost: impl FnMut(NodeId, Precision) -> OpProfile,
    ) -> Self {
        let mut costs = Vec::with_capacity(n_nodes * precisions.len());
        for node in 0..n_nodes {
            for &p in precisions {
                costs.push(cost(NodeId(node), p));
            }
        }
        ProfileDb { precisions: precisions.to_vec(), costs }
    }

    /// Look up the profiled cost of a node at a precision.
    pub fn get(&self, node: NodeId, precision: Precision) -> Option<OpProfile> {
        let column = self.precisions.iter().position(|&p| p == precision)?;
        self.costs.get(node.0 * self.precisions.len() + column).copied()
    }

    /// Look up with a fallback to FP32 (used for precisions that were not profiled).
    pub fn get_or_fp32(&self, node: NodeId, precision: Precision) -> OpProfile {
        self.get(node, precision)
            .or_else(|| self.get(node, Precision::Fp32))
            .unwrap_or_default()
    }

    /// Number of profiled (node, precision) pairs.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// `true` when nothing has been profiled.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Heap bytes the table holds (what a byte-bounded cache charges for it).
    pub fn heap_bytes(&self) -> usize {
        self.costs.capacity() * std::mem::size_of::<OpProfile>()
            + self.precisions.capacity() * std::mem::size_of::<Precision>()
    }
}

/// The profiler configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Profiler {
    /// Analytic compute model evaluated per operator.
    pub compute: ComputeCostModel,
    /// Standard deviation of the deterministic hardware factor (log-space).
    pub hardware_jitter_std: f64,
    /// Standard deviation of the measurement noise (log-space).
    pub measurement_noise_std: f64,
    /// Seed controlling the hardware factor (fixed per "testbed").
    pub hardware_seed: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            compute: ComputeCostModel::default(),
            hardware_jitter_std: 0.06,
            measurement_noise_std: 0.01,
            hardware_seed: 0xC0FFEE,
        }
    }
}

impl Profiler {
    /// The multiplicative "hardware" factor for a (device, node, precision) triple.
    ///
    /// Deterministic: the same triple always maps to the same factor, so the *true*
    /// latency of an operator is stable across profiling runs and ground-truth execution.
    pub fn hardware_factor(&self, device: usize, node: NodeId, precision: Precision) -> f64 {
        let mut seed = self.hardware_seed;
        seed = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(device as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(node.0 as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(precision.bits() as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let z: f64 = box_muller(&mut rng);
        (z * self.hardware_jitter_std).exp()
    }

    /// The *true* per-operator cost on a device (hardware factor applied, no noise).
    pub fn true_cost(&self, dag: &ModelDag, device: &Device, node: NodeId, precision: Precision) -> OpCost {
        let analytic = self.compute.op_cost(dag.node(node), precision, device);
        let f = self.hardware_factor(device.id, node, precision);
        OpCost { fwd_us: analytic.fwd_us * f, bwd_us: analytic.bwd_us * f }
    }

    /// The noise-free table of a device: [`Profiler::true_cost`] of every node at every
    /// precision of `precisions` — what the "hardware" of the ground-truth executor runs.
    pub fn truth(&self, dag: &ModelDag, device: &Device, precisions: &[Precision]) -> ProfileDb {
        ProfileDb::tabulate(dag.len(), precisions, |node, p| self.true_cost(dag, device, node, p))
    }

    /// Profile a model on a device: measure every node at every candidate precision the
    /// device can express, with measurement noise controlled by `measurement_seed`.
    ///
    /// The result depends on the device only through its id (hardware factor), GPU
    /// model and compute fraction — not its memory fraction, and not the other devices
    /// of the cluster — so one table serves every cluster shape that agrees on those.
    pub fn profile(
        &self,
        dag: &ModelDag,
        device: &Device,
        precisions: &[Precision],
        measurement_seed: u64,
    ) -> ProfileDb {
        let mut rng = ChaCha8Rng::seed_from_u64(measurement_seed ^ 0xDEADBEEF);
        ProfileDb::tabulate(dag.len(), precisions, |node, p| {
            let truth = self.true_cost(dag, device, node, p);
            let noise = (box_muller(&mut rng) * self.measurement_noise_std).exp();
            OpCost { fwd_us: truth.fwd_us * noise, bwd_us: truth.bwd_us * noise }
        })
    }
}

fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuModel;
    use qsync_graph::models::small_mlp;

    #[test]
    fn profiling_covers_every_node_and_precision() {
        let dag = small_mlp(16, 64, 64, 8);
        let dev = Device::full(0, GpuModel::T4);
        let db = Profiler::default().profile(&dag, &dev, &Precision::PAPER_CANDIDATES, 1);
        assert_eq!(db.len(), dag.len() * 3);
        for node in dag.nodes() {
            assert!(db.get(node.id, Precision::Fp16).is_some());
        }
    }

    #[test]
    fn hardware_factor_is_deterministic_and_bounded() {
        let p = Profiler::default();
        let a = p.hardware_factor(0, NodeId(3), Precision::Fp16);
        let b = p.hardware_factor(0, NodeId(3), Precision::Fp16);
        assert_eq!(a, b);
        assert!(a > 0.5 && a < 2.0);
        // Different nodes get different factors.
        let c = p.hardware_factor(0, NodeId(4), Precision::Fp16);
        assert_ne!(a, c);
    }

    #[test]
    fn measurement_noise_is_small_relative_to_truth() {
        let dag = small_mlp(32, 256, 256, 8);
        let dev = Device::full(0, GpuModel::T4);
        let p = Profiler::default();
        let db = p.profile(&dag, &dev, &[Precision::Fp32], 7);
        for node in dag.nodes() {
            let truth = p.true_cost(&dag, &dev, node.id, Precision::Fp32);
            let measured = db.get(node.id, Precision::Fp32).unwrap();
            if truth.fwd_us > 0.0 {
                let rel = (measured.fwd_us - truth.fwd_us).abs() / truth.fwd_us;
                assert!(rel < 0.1, "rel={rel}");
            }
        }
    }

    #[test]
    fn different_measurement_seeds_give_different_but_close_profiles() {
        let dag = small_mlp(32, 256, 256, 8);
        let dev = Device::full(0, GpuModel::T4);
        let p = Profiler::default();
        let a = p.profile(&dag, &dev, &[Precision::Fp16], 1);
        let b = p.profile(&dag, &dev, &[Precision::Fp16], 2);
        let node = dag.adjustable_ops()[0];
        let ca = a.get(node, Precision::Fp16).unwrap();
        let cb = b.get(node, Precision::Fp16).unwrap();
        assert_ne!(ca.fwd_us, cb.fwd_us);
        assert!((ca.fwd_us - cb.fwd_us).abs() / ca.fwd_us < 0.1);
    }

    #[test]
    fn fallback_to_fp32_when_precision_missing() {
        let dag = small_mlp(4, 8, 8, 2);
        let dev = Device::full(0, GpuModel::V100);
        let db = Profiler::default().profile(&dag, &dev, &[Precision::Fp32], 1);
        let node = dag.adjustable_ops()[0];
        let c = db.get_or_fp32(node, Precision::Int8);
        assert!(c.fwd_us > 0.0);
        assert_eq!(c.fwd_us, db.get(node, Precision::Fp32).unwrap().fwd_us);
    }
}
