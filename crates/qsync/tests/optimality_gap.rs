//! Optimality gap of the allocator on DAGs small enough to enumerate (ROADMAP item 4a).
//!
//! For each (model, cluster, tolerance) case every assignment of the adjustable
//! operators is enumerated; those that fit the inference device's memory and keep the
//! predicted iteration time within `T_min · (1 + tolerance)` are the feasible set, and
//! the best of them by indicator total is what an exhaustive allocator would return.
//! The test asserts the allocator's own plan is feasible and pins how far it is from
//! that optimum, in indicator loss and in predicted iteration time. Run with
//! `--nocapture` to see the measured numbers; work that trades plan quality for
//! planning speed has to move these bounds deliberately.

use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::Allocator;
use qsync_core::plan::PrecisionPlan;
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_graph::models::{small_cnn, small_mlp};
use qsync_graph::{ModelDag, PrecisionDag};

struct Gap {
    /// Feasible assignments / all assignments.
    feasible: (usize, usize),
    /// Indicator loss the allocator leaves over the exhaustive optimum's, as a fraction
    /// of the uniform lowest-precision plan's loss (0 = optimal).
    indicator_excess: f64,
    /// Allocator's predicted iteration time over the optimum's (below 1: the allocator
    /// stopped at a faster, lower-precision plan).
    time_ratio: f64,
}

fn measure(dag: ModelDag, cluster: ClusterSpec, throughput_tolerance: f64) -> Gap {
    let config = QSyncConfig { throughput_tolerance, ..QSyncConfig::default() };
    let sys = QSyncSystem::new(dag, cluster, config);
    let dag = sys.dag();
    let indicator = sys.indicator();
    let (plan, report) = Allocator::new(&sys).allocate(&indicator);
    let rank = sys.cluster.inference_ranks()[0];
    let candidates = sys.candidates_for(rank);
    let ops = dag.adjustable_ops();
    let bound = report.t_min_us * (1.0 + throughput_tolerance);

    // The allocator's plan is itself a member of the feasible set.
    let chosen_t = sys.predict_iteration_us(&plan);
    assert!(sys.memory_ok(rank, plan.device(rank)), "allocator plan exceeds device memory");
    assert!(chosen_t <= bound, "allocator plan {chosen_t} breaks the T_min bound {bound}");
    let chosen_loss = sys.plan_variance(&plan, &indicator);

    let n_assignments = candidates.len().pow(ops.len() as u32);
    let mut feasible = 0;
    let mut best: Option<(f64, f64)> = None;
    for index in 0..n_assignments {
        let mut pdag = PrecisionDag::uniform(dag, candidates[0]);
        let mut digits = index;
        for &op in &ops {
            let _ = pdag.set(dag, op, candidates[digits % candidates.len()]);
            digits /= candidates.len();
        }
        if !sys.memory_ok(rank, &pdag) {
            continue;
        }
        let candidate = PrecisionPlan::from_inference_pdag("enumerated", dag, &sys.cluster, &pdag);
        let t = sys.predict_iteration_us(&candidate);
        if t > bound {
            continue;
        }
        feasible += 1;
        let loss = sys.plan_variance(&candidate, &indicator);
        if best.is_none_or(|(best_loss, best_t)| loss < best_loss || (loss == best_loss && t < best_t)) {
            best = Some((loss, t));
        }
    }
    let (best_loss, best_t) = best.expect("the allocator's own plan is feasible");
    let lowest = PrecisionPlan::uniform(dag, &sys.cluster, candidates[0]);
    Gap {
        feasible: (feasible, n_assignments),
        indicator_excess: (chosen_loss - best_loss) / sys.plan_variance(&lowest, &indicator),
        time_ratio: chosen_t / best_t,
    }
}

#[test]
fn allocator_gap_to_the_exhaustive_optimum_on_enumerable_dags() {
    let models = [("small_mlp", small_mlp(64, 512, 1024, 16)), ("small_cnn", small_cnn(4, 16, 8))];
    let clusters = [ClusterSpec::hybrid_small(), ClusterSpec::cluster_b(2, 2, 0.3)];
    // Pinned (indicator excess, time ratio) per (model, tolerance), the same on both
    // clusters. At the default tolerance the allocator is optimal everywhere. At 5% the
    // one-step-at-a-time recovery stops short on small_mlp: all-FP32 (no loss at all)
    // is feasible, yet recovery ends on a mixed plan that keeps 5.8% of the
    // uniform-INT8 loss — and is 3.8% faster than the optimum.
    let pinned = |model: &str, tolerance: f64| match (model, tolerance > 0.01) {
        ("small_mlp", true) => (0.058073, 0.961529),
        _ => (0.0, 1.0),
    };
    for (name, model) in &models {
        for cluster in &clusters {
            for tolerance in [QSyncConfig::default().throughput_tolerance, 0.05] {
                let gap = measure(model.clone(), cluster.clone(), tolerance);
                println!(
                    "{name} on {} at tolerance {tolerance}: {} of {} assignments feasible; \
                     indicator excess {:.6} of the uniform-lowest loss, predicted iteration \
                     time {:.6}x the optimum's",
                    cluster.name, gap.feasible.0, gap.feasible.1, gap.indicator_excess, gap.time_ratio
                );
                let (excess_bound, time_bound) = pinned(name, tolerance);
                assert!(gap.indicator_excess >= 0.0, "{name}: beat the exhaustive optimum");
                assert!(
                    gap.indicator_excess <= excess_bound,
                    "{name} on {}: indicator excess {} over the pinned {excess_bound}",
                    cluster.name,
                    gap.indicator_excess
                );
                assert!(
                    gap.time_ratio <= time_bound,
                    "{name} on {}: time ratio {} over the pinned {time_bound}",
                    cluster.name,
                    gap.time_ratio
                );
            }
        }
    }
}
