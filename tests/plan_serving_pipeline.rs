//! Cross-crate integration test: the serving subsystem on top of the full
//! planning pipeline, driven through the workspace facade crate.
//!
//! Complements `crates/serve/tests/server_e2e.rs` (which tests the server in
//! isolation) by asserting the serving-layer guarantees against the *paper's*
//! pipeline invariants: served plans respect the allocator's throughput bound
//! and keep training devices at full precision, across cold, cached and
//! warm-replanned paths.

use qsync::cluster::topology::ClusterSpec;
use qsync::core::plan::PrecisionPlan;
use qsync::core::system::{QSyncConfig, QSyncSystem};
use qsync::lp_kernels::precision::Precision;
use qsync::serve::{ClusterDelta, DeltaRequest, ModelSpec, PlanEngine, PlanOutcome, PlanRequest};

fn spec() -> ModelSpec {
    ModelSpec::SmallMlp { batch: 64, in_features: 512, hidden: 1024, classes: 16 }
}

fn system_for(spec: &ModelSpec, cluster: &ClusterSpec) -> QSyncSystem {
    QSyncSystem::new(spec.build(), cluster.clone(), QSyncConfig::default())
}

fn assert_plan_is_valid(plan: &PrecisionPlan, spec: &ModelSpec, cluster: &ClusterSpec, t_min: f64) {
    let system = system_for(spec, cluster);
    // Throughput bound: the served plan never drops below the allocator's T_min.
    let t = system.predict_iteration_us(plan);
    let tol = 1.0 + system.config.throughput_tolerance;
    assert!(t <= t_min * tol + 1e-6, "served plan {t}us exceeds T_min {t_min}us");
    // Training GPUs always stay FP32.
    for rank in cluster.training_ranks() {
        assert_eq!(
            plan.count_adjustable_at(system.dag(), rank, Precision::Fp32),
            system.dag().adjustable_ops().len(),
            "training rank {rank} not at full precision"
        );
    }
}

#[test]
fn served_plans_respect_pipeline_invariants_across_the_lifecycle() {
    let engine = PlanEngine::new();
    let cluster = ClusterSpec::hybrid_small();

    let cold = engine.plan(&PlanRequest::new(1, spec(), cluster.clone())).unwrap();
    assert_eq!(cold.outcome, PlanOutcome::ColdPlanned);
    assert_plan_is_valid(&cold.plan, &spec(), &cluster, cold.t_min_us);

    let hit = engine.plan(&PlanRequest::new(2, spec(), cluster.clone())).unwrap();
    assert_eq!(hit.outcome, PlanOutcome::CacheHit);
    assert_eq!(hit.plan_json(), cold.plan_json());

    // Degrade an inference device and warm re-plan.
    let rank = cluster.inference_ranks()[0];
    let delta = DeltaRequest::new(
        3,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction: 0.3, compute_fraction: 0.8 },
    );
    let outcome = engine.apply_delta(&delta).unwrap();
    assert_eq!(outcome.replanned.len(), 1);
    let warm = &outcome.replanned[0];
    let degraded = delta.delta.apply(&cluster).unwrap();
    assert_plan_is_valid(&warm.plan, &spec(), &degraded, warm.t_min_us);

    // The warm re-plan must fit the shrunk memory.
    let system = system_for(&spec(), &degraded);
    let shrunk_rank = degraded.inference_ranks()[0];
    assert!(
        system.memory_ok(shrunk_rank, warm.plan.device(shrunk_rank)),
        "warm re-plan does not fit the degraded device"
    );
}

#[test]
fn warm_and_cold_replans_agree_on_feasibility() {
    // After a memory squeeze, the warm re-plan and a from-scratch cold plan
    // must both be feasible; warm should not recover *fewer* operators merely
    // because it started from a cached assignment.
    let engine = PlanEngine::new();
    let cluster = ClusterSpec::hybrid_small();
    engine.plan(&PlanRequest::new(1, spec(), cluster.clone())).unwrap();

    let rank = cluster.inference_ranks()[0];
    let delta = DeltaRequest::new(
        2,
        cluster.clone(),
        ClusterDelta::Degraded { rank, memory_fraction: 0.5, compute_fraction: 1.0 },
    );
    let warm = engine.apply_delta(&delta).unwrap().replanned[0].clone();

    let degraded = delta.delta.apply(&cluster).unwrap();
    let cold_engine = PlanEngine::new();
    let cold = cold_engine.plan(&PlanRequest::new(3, spec(), degraded.clone())).unwrap();

    let system = system_for(&spec(), &degraded);
    let r = degraded.inference_ranks()[0];
    let warm_fp32 = warm.plan.count_adjustable_at(system.dag(), r, Precision::Fp32);
    let cold_fp32 = cold.plan.count_adjustable_at(system.dag(), r, Precision::Fp32);
    // Both paths run the same recovery loop to saturation; warm starts at or
    // above cold's starting point, so it cannot end lower.
    assert!(
        warm_fp32 >= cold_fp32,
        "warm recovered {warm_fp32} fp32 ops, cold recovered {cold_fp32}"
    );
}
