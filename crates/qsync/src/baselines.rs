//! Baselines evaluated against QSync: uniform precision (UP), dynamic batch sizing
//! (DBS) and the non-quantized ORACLE.

use serde::{Deserialize, Serialize};

use qsync_graph::PrecisionDag;
use qsync_train::accuracy::{AccuracyModel, AccuracyOutcome, TaskProfile};

use crate::plan::PrecisionPlan;
use crate::system::QSyncSystem;

/// The uniform-precision baseline: "use a uniform precision for all operators in the
/// inference GPU, continue lowering precision until the memory requirement is met".
///
/// UP is a *quantization* baseline: the ladder starts at the highest low-precision format
/// the device supports (FP16) and keeps lowering (INT8, ...) until the footprint fits.
pub fn uniform_precision_plan(system: &QSyncSystem) -> PrecisionPlan {
    let inference = system.cluster.inference_ranks();
    let Some(&rank) = inference.first() else {
        return PrecisionPlan::oracle(system.dag(), &system.cluster);
    };
    let mut candidates: Vec<_> = system
        .candidates_for(rank)
        .into_iter()
        .filter(|p| *p != qsync_lp_kernels::precision::Precision::Fp32)
        .collect();
    candidates.reverse(); // highest low-precision first (FP16, then INT8, ...)
    for &p in &candidates {
        let pdag = PrecisionDag::uniform(system.dag(), p);
        if system.memory_ok(rank, &pdag) {
            return PrecisionPlan::uniform(system.dag(), &system.cluster, p);
        }
    }
    // Nothing fits: return the most compressed assignment anyway.
    let lowest = system.candidates_for(rank)[0];
    PrecisionPlan::uniform(system.dag(), &system.cluster, lowest)
}

/// Outcome of planning a dynamic-batch-sizing run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbsOutcome {
    /// Per-rank local batch sizes (global batch preserved).
    pub batch_allocation: Vec<usize>,
    /// Predicted iteration latency in microseconds.
    pub iteration_us: f64,
    /// Predicted throughput in iterations per second.
    pub iterations_per_second: f64,
}

/// The dynamic-batch-sizing baseline (Section II-A): keep the global batch size constant
/// but give faster devices larger local batches so every device takes about the same
/// time at FP32. No quantization is used.
pub fn dynamic_batch_sizing(system: &QSyncSystem) -> DbsOutcome {
    let dag = system.dag();
    let cluster = &system.cluster;
    let world = cluster.world_size();
    let base_batch = dag.batch_size.max(1);
    let global_batch = base_batch * world;

    // FP32 per-sample compute rate of each device (batch-linear approximation).
    let oracle = PrecisionPlan::oracle(dag, cluster);
    let sim = system.predict(&oracle);
    let per_device_time: Vec<f64> = (0..world).map(|d| sim.per_device_compute_us[d].max(1.0)).collect();
    let rate: Vec<f64> = per_device_time.iter().map(|t| base_batch as f64 / t).collect();
    let total_rate: f64 = rate.iter().sum();

    // Proportional allocation, rounded, with the remainder going to the fastest device.
    let mut alloc: Vec<usize> =
        rate.iter().map(|r| ((r / total_rate) * global_batch as f64).floor() as usize).collect();
    let assigned: usize = alloc.iter().sum();
    let mut remainder = global_batch - assigned;
    while remainder > 0 {
        let fastest = rate
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        alloc[fastest] += 1;
        remainder -= 1;
    }

    // Iteration time: per-device FP32 time scaled by its batch share, plus the same
    // gradient synchronisation as the oracle run (weights don't change size).
    let compute: f64 = (0..world)
        .map(|d| per_device_time[d] * alloc[d] as f64 / base_batch as f64)
        .fold(0.0, f64::max);
    let comm_us = system.comm().model_sync_us(dag.param_count(), system.config.n_buckets);
    let iteration_us = compute + comm_us;
    DbsOutcome {
        batch_allocation: alloc,
        iteration_us,
        iterations_per_second: 1e6 / iteration_us,
    }
}

/// Accuracy of the DBS baseline for a calibrated task (BatchNorm models pay the
/// batch-size penalty; LayerNorm models do not).
pub fn dbs_accuracy(system: &QSyncSystem, trial_tag: u64) -> Option<AccuracyOutcome> {
    let task = TaskProfile::for_model(&system.dag().name)?;
    let model = AccuracyModel::new(task, system.config.seed);
    Some(model.dynamic_batch_sizing(trial_tag))
}

/// Accuracy of the ORACLE (FP32, no quantization) run for a calibrated task.
pub fn oracle_accuracy(system: &QSyncSystem, trial_tag: u64) -> Option<AccuracyOutcome> {
    let task = TaskProfile::for_model(&system.dag().name)?;
    let model = AccuracyModel::new(task, system.config.seed);
    Some(model.oracle(trial_tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_cluster::topology::ClusterSpec;
    use qsync_lp_kernels::precision::Precision;
    use qsync_graph::models::small_mlp;
    use crate::system::QSyncConfig;

    fn system(cluster: ClusterSpec) -> QSyncSystem {
        QSyncSystem::new(small_mlp(64, 512, 1024, 16), cluster, QSyncConfig::default())
    }

    #[test]
    fn uniform_precision_prefers_the_highest_low_precision_that_fits() {
        // Small model, full 16 GiB T4: FP16 fits, so UP picks FP16 (not FP32 — UP is a
        // quantization baseline, and not INT8 — no need to go lower).
        let sys = system(ClusterSpec::hybrid_small());
        let plan = uniform_precision_plan(&sys);
        let rank = sys.cluster.inference_ranks()[0];
        assert_eq!(
            plan.count_adjustable_at(sys.dag(), rank, Precision::Fp16),
            sys.dag().adjustable_ops().len()
        );
    }

    #[test]
    fn uniform_precision_drops_precision_under_memory_pressure() {
        // A large-batch, wide MLP whose activation footprint no longer fits at FP32 when
        // the T4's memory is restricted to ~6% (ClusterB-style partial sharing).
        let sys = QSyncSystem::new(
            small_mlp(16384, 1024, 4096, 16),
            ClusterSpec::cluster_b(2, 2, 0.06),
            QSyncConfig::default(),
        );
        let plan = uniform_precision_plan(&sys);
        let rank = sys.cluster.inference_ranks()[0];
        let fp32 = plan.count_adjustable_at(sys.dag(), rank, Precision::Fp32);
        assert!(fp32 < sys.dag().adjustable_ops().len(), "UP should have quantized something");
    }

    #[test]
    fn dbs_gives_faster_devices_larger_batches() {
        let sys = system(ClusterSpec::hybrid_small());
        let out = dynamic_batch_sizing(&sys);
        let v100 = sys.cluster.training_ranks()[0];
        let t4 = sys.cluster.inference_ranks()[0];
        assert!(out.batch_allocation[v100] > out.batch_allocation[t4]);
        // Global batch preserved.
        let total: usize = out.batch_allocation.iter().sum();
        assert_eq!(total, sys.dag().batch_size * sys.cluster.world_size());
    }

    #[test]
    fn dbs_is_slower_than_uniform_low_precision() {
        // The paper: UP / QSync achieve >10% higher throughput than DBS because
        // quantization makes the inference GPUs fast enough to keep up at full batch.
        let sys = system(ClusterSpec::hybrid_small());
        let dbs = dynamic_batch_sizing(&sys);
        let up = PrecisionPlan::uniform(sys.dag(), &sys.cluster, Precision::Fp16);
        let up_us = sys.predict_iteration_us(&up);
        assert!(up_us < dbs.iteration_us, "UP {up_us} should beat DBS {}", dbs.iteration_us);
    }

    #[test]
    fn accuracy_hooks_return_none_without_a_task_profile() {
        let sys = system(ClusterSpec::hybrid_small());
        assert!(dbs_accuracy(&sys, 0).is_none());
        assert!(oracle_accuracy(&sys, 0).is_none());
    }
}
