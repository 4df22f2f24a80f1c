//! Cross-crate integration test for the replayer: prediction error against the
//! ground-truth executor stays below the paper's 5 % bound and beats the
//! no-cost-mapper (DPro-style) baseline on quantized configurations.

use qsync_cluster::topology::ClusterSpec;
use qsync_core::plan::PrecisionPlan;
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_lp_kernels::precision::Precision;
use qsync_graph::models::bert_base;
use qsync_graph::PrecisionDag;

fn bert_system() -> QSyncSystem {
    // Two T4s so the quantized devices gate the iteration time.
    QSyncSystem::new(bert_base(4, 128), ClusterSpec::cluster_a(0, 2), QSyncConfig::default())
}

#[test]
fn predictor_error_is_under_five_percent_for_all_table3_configs() {
    let sys = bert_system();
    let dag = sys.dag();

    let mut configs: Vec<(&str, PrecisionDag)> = Vec::new();
    let mut half = PrecisionDag::full_precision(dag);
    let mut int8 = PrecisionDag::full_precision(dag);
    for n in dag.nodes() {
        if n.kind.family() == "linear" {
            let _ = half.set(dag, n.id, Precision::Fp16);
            let _ = int8.set(dag, n.id, Precision::Int8);
        }
    }
    configs.push(("half_linears", half));
    configs.push(("int_linears", int8));
    configs.push(("fp32", PrecisionDag::full_precision(dag)));

    for (name, pdag) in configs {
        let plan = PrecisionPlan::from_inference_pdag(name, dag, &sys.cluster, &pdag);
        let truth = sys.ground_truth_mean_us(&plan, 5);
        let predicted = sys.predict_iteration_us(&plan);
        let err = (predicted - truth).abs() / truth;
        assert!(err < 0.05, "{name}: predictor error {:.2}%", err * 100.0);
    }
}

#[test]
fn dropping_the_cost_mapper_degrades_prediction_for_quantized_plans() {
    let sys = bert_system();
    let plan = PrecisionPlan::uniform(sys.dag(), &sys.cluster, Precision::Int8);
    let truth = sys.ground_truth_mean_us(&plan, 5);
    let with_mapper = (sys.predict_iteration_us(&plan) - truth).abs() / truth;
    let without_mapper = (sys.dpro_iteration_us(&plan) - truth).abs() / truth;
    assert!(without_mapper > with_mapper);
    // The no-cost-mapper estimate misses casting work, so it must underestimate.
    assert!(sys.dpro_iteration_us(&plan) < truth);
}

#[test]
fn ground_truth_is_reproducible_per_iteration_seed() {
    let sys = bert_system();
    let plan = PrecisionPlan::uniform(sys.dag(), &sys.cluster, Precision::Fp16);
    assert_eq!(
        sys.ground_truth_iteration_us(&plan, 3),
        sys.ground_truth_iteration_us(&plan, 3)
    );
    assert_ne!(
        sys.ground_truth_iteration_us(&plan, 3),
        sys.ground_truth_iteration_us(&plan, 4)
    );
}
