//! Cross-crate integration test: the full QSync pipeline (profile -> indicator ->
//! allocate -> predict) on a hybrid cluster, exercising every crate together.

use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::Allocator;
use qsync_core::baselines::{dynamic_batch_sizing, uniform_precision_plan};
use qsync_core::plan::PrecisionPlan;
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_lp_kernels::precision::Precision;
use qsync_graph::models::{small_mlp, vgg16bn};

fn small_system(cluster: ClusterSpec) -> QSyncSystem {
    QSyncSystem::new(small_mlp(64, 512, 1024, 16), cluster, QSyncConfig::default())
}

#[test]
fn qsync_reduces_variance_at_equal_throughput() {
    let sys = small_system(ClusterSpec::hybrid_small());
    let up = uniform_precision_plan(&sys);
    let (qsync, report) = Allocator::new(&sys).allocate(&sys.indicator());

    let up_time = sys.predict_iteration_us(&up);
    let qs_time = sys.predict_iteration_us(&qsync);
    // Throughput preserved (the allocator never drops below its T_min bound).
    assert!(qs_time <= report.t_min_us * 1.01);
    assert!(qs_time <= up_time * 1.01, "QSync {qs_time} vs UP {up_time}");
    // Accuracy-side: strictly less gradient-variance damage than uniform precision.
    assert!(sys.variance_ratio(&qsync) < sys.variance_ratio(&up));
}

#[test]
fn memory_constraint_is_honoured_on_cluster_b() {
    // A model large enough that full precision does not fit a 30%-shared T4 (but whose
    // most-compressed INT8 assignment does).
    let dag = vgg16bn(48, 224);
    let sys = QSyncSystem::new(dag, ClusterSpec::cluster_b(2, 2, 0.3), QSyncConfig::default());
    let t4 = sys.cluster.inference_ranks()[0];
    let cap = sys.cluster.devices[t4].available_memory_bytes();

    // Full precision must exceed the constrained memory (otherwise this test is vacuous).
    let fp32 = PrecisionPlan::oracle(sys.dag(), &sys.cluster);
    assert!(sys.memory_bytes(t4, fp32.device(t4)) > cap);

    let (plan, _) = Allocator::new(&sys).allocate(&sys.indicator());
    assert!(
        sys.memory_bytes(t4, plan.device(t4)) <= cap,
        "allocated plan exceeds the T4's available memory"
    );
    // Some operators must remain at low precision to fit.
    let fp32_ops = plan.count_adjustable_at(sys.dag(), t4, Precision::Fp32);
    assert!(fp32_ops < sys.dag().adjustable_ops().len());
}

#[test]
fn training_gpus_are_never_quantized_by_any_method() {
    let sys = small_system(ClusterSpec::hybrid_small());
    let plans = vec![
        uniform_precision_plan(&sys),
        Allocator::new(&sys).allocate(&sys.indicator()).0,
        PrecisionPlan::oracle(sys.dag(), &sys.cluster),
    ];
    for plan in plans {
        for rank in sys.cluster.training_ranks() {
            assert_eq!(
                plan.count_adjustable_at(sys.dag(), rank, Precision::Fp32),
                sys.dag().adjustable_ops().len(),
                "plan {} quantized a training GPU",
                plan.name
            );
        }
    }
}

#[test]
fn quantized_baselines_outperform_dynamic_batch_sizing_in_throughput() {
    let sys = small_system(ClusterSpec::hybrid_small());
    let dbs = dynamic_batch_sizing(&sys);
    let up = uniform_precision_plan(&sys);
    let (qsync, _) = Allocator::new(&sys).allocate(&sys.indicator());
    let up_tp = sys.predict(&up).iterations_per_second();
    let qs_tp = sys.predict(&qsync).iterations_per_second();
    assert!(up_tp > dbs.iterations_per_second);
    assert!(qs_tp > dbs.iterations_per_second);
}

#[test]
fn plans_survive_serialization_across_crates() {
    let sys = small_system(ClusterSpec::hybrid_small());
    let (plan, _) = Allocator::new(&sys).allocate(&sys.indicator());
    let json = plan.to_json();
    let restored = PrecisionPlan::from_json(&json).unwrap();
    assert_eq!(plan, restored);
    assert_eq!(
        sys.predict_iteration_us(&plan),
        sys.predict_iteration_us(&restored)
    );
}
