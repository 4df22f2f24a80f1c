//! Differential tests: the incremental allocator (DeltaEvaluator-backed) must produce
//! **byte-identical** plans to the reference (clone-and-replay) allocator, and the
//! evaluator itself must agree bit-for-bit with the full predictor and the memory
//! estimator over arbitrary promotion/demotion sequences.

use proptest::prelude::*;

use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::Allocator;
use qsync_core::eval::DeltaEvaluator;
use qsync_core::plan::PrecisionPlan;
use qsync_core::replayer::CostMapper;
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_lp_kernels::precision::Precision;
use qsync_graph::models::{bert_base, resnet50, small_cnn, small_mlp, vgg16bn};
use qsync_graph::{ModelDag, OpKind, PrecisionDag};

fn test_clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::hybrid_small(),
        ClusterSpec::cluster_a(1, 1),
        ClusterSpec::cluster_a(2, 2),
        ClusterSpec::cluster_b(1, 1, 0.3),
        ClusterSpec::cluster_b(1, 2, 0.05),
    ]
}

#[test]
fn cold_allocation_is_byte_identical_to_the_reference_allocator() {
    for cluster in test_clusters() {
        let name = cluster.name.clone();
        let sys = QSyncSystem::new(small_mlp(64, 512, 1024, 16), cluster, QSyncConfig::default());
        let alloc = Allocator::new(&sys);
        let (plan, report) = alloc.allocate(&sys.indicator());
        let (reference, ref_report) = alloc.allocate_reference(&sys.indicator());
        assert_eq!(
            plan.to_json().as_bytes(),
            reference.to_json().as_bytes(),
            "plans diverge on {name}"
        );
        assert_eq!(report.t_min_us.to_bits(), ref_report.t_min_us.to_bits(), "{name}");
        assert_eq!(report.final_us.to_bits(), ref_report.final_us.to_bits(), "{name}");
        assert_eq!(report.promotions_accepted, ref_report.promotions_accepted, "{name}");
        assert_eq!(report.promotions_rejected, ref_report.promotions_rejected, "{name}");
    }
}

#[test]
fn cold_allocation_is_byte_identical_on_a_branchy_model() {
    // small_cnn exercises convolutions, pooling and a deeper dependent-op chain.
    let sys = QSyncSystem::new(small_cnn(4, 16, 8), ClusterSpec::hybrid_small(), QSyncConfig::default());
    let alloc = Allocator::new(&sys);
    let (plan, _) = alloc.allocate(&sys.indicator());
    let (reference, _) = alloc.allocate_reference(&sys.indicator());
    assert_eq!(plan.to_json().as_bytes(), reference.to_json().as_bytes());
}

/// Residual adds (dependents with two precision-carrying inputs) and attention blocks
/// (up to six adjustable operators per instance), at sizes the reference can afford.
fn residual_and_attention_models() -> Vec<ModelDag> {
    vec![resnet50(1, 32), bert_base(1, 8)]
}

#[test]
fn cold_allocation_is_byte_identical_on_residual_and_attention_models() {
    for dag in residual_and_attention_models() {
        for cluster in [ClusterSpec::hybrid_small(), ClusterSpec::cluster_b(1, 2, 0.3)] {
            let name = format!("{} on {}", dag.name, cluster.name);
            let sys = QSyncSystem::new(dag.clone(), cluster, QSyncConfig::default());
            let alloc = Allocator::new(&sys);
            let (plan, report) = alloc.allocate(&sys.indicator());
            let (reference, ref_report) = alloc.allocate_reference(&sys.indicator());
            assert_eq!(plan.to_json(), reference.to_json(), "plans diverge: {name}");
            assert_eq!(report.t_min_us.to_bits(), ref_report.t_min_us.to_bits(), "{name}");
            assert_eq!(report.final_us.to_bits(), ref_report.final_us.to_bits(), "{name}");
            assert_eq!(report.promotions_accepted, ref_report.promotions_accepted, "{name}");
            assert_eq!(report.promotions_rejected, ref_report.promotions_rejected, "{name}");
        }
    }
}

#[test]
fn warm_allocation_is_byte_identical_on_residual_and_attention_models() {
    for dag in residual_and_attention_models() {
        let roomy = QSyncSystem::new(dag.clone(), ClusterSpec::cluster_a(1, 1), QSyncConfig::default());
        let (cached, _) = Allocator::new(&roomy).allocate(&roomy.indicator());
        let warm = cached.device(roomy.cluster.inference_ranks()[0]).clone();
        for fraction in [0.05, 0.3] {
            let name = format!("{} at memory fraction {fraction}", dag.name);
            let shrunk = QSyncSystem::new(
                dag.clone(),
                ClusterSpec::cluster_b(1, 1, fraction),
                QSyncConfig::default(),
            );
            let alloc = Allocator::new(&shrunk);
            let (plan, report) = alloc.plan(&shrunk.indicator(), Some(&warm), None).into();
            let (reference, ref_report) = alloc.allocate_warm_reference(&shrunk.indicator(), &warm);
            assert_eq!(plan.to_json(), reference.to_json(), "warm plans diverge: {name}");
            assert_eq!(report.t_min_us.to_bits(), ref_report.t_min_us.to_bits(), "{name}");
            assert_eq!(report.warm_demotions, ref_report.warm_demotions, "{name}");
            assert_eq!(report.final_us.to_bits(), ref_report.final_us.to_bits(), "{name}");
            assert_eq!(report.promotions_accepted, ref_report.promotions_accepted, "{name}");
        }
    }
}

#[test]
fn warm_allocation_is_byte_identical_to_the_reference_allocator() {
    // Plan on the roomy cluster, then warm re-plan against a shrunk device — the path
    // qsync-serve's elasticity layer exercises.
    let dag = small_mlp(64, 512, 1024, 16);
    let roomy = QSyncSystem::new(dag.clone(), ClusterSpec::cluster_a(1, 1), QSyncConfig::default());
    let (cached, _) = Allocator::new(&roomy).allocate(&roomy.indicator());
    let warm = cached.device(roomy.cluster.inference_ranks()[0]).clone();

    for fraction in [0.05, 0.3, 0.7] {
        let shrunk = QSyncSystem::new(
            dag.clone(),
            ClusterSpec::cluster_b(1, 1, fraction),
            QSyncConfig::default(),
        );
        let alloc = Allocator::new(&shrunk);
        let (plan, report) = alloc.plan(&shrunk.indicator(), Some(&warm), None).into();
        let (reference, ref_report) = alloc.allocate_warm_reference(&shrunk.indicator(), &warm);
        assert_eq!(
            plan.to_json().as_bytes(),
            reference.to_json().as_bytes(),
            "warm plans diverge at memory fraction {fraction}"
        );
        assert_eq!(report.warm_demotions, ref_report.warm_demotions, "{fraction}");
        assert_eq!(report.final_us.to_bits(), ref_report.final_us.to_bits(), "{fraction}");
    }
}

#[test]
fn warm_replan_performs_zero_full_predictions_regardless_of_demotions() {
    // Regression for the warm-start demotion loops: they used to rebuild a full
    // `PrecisionPlan` (and replay the global DFG) once per demotion; on the evaluator
    // they cost **no** full prediction at all — even the `T_min` bound (the
    // brute-force initial setting) is answered incrementally.
    // VGG-16BN's ~550 MB of FP32 weights actually pressure a shrunk T4, unlike the MLP.
    let dag = vgg16bn(2, 32);
    let roomy = QSyncSystem::new(dag.clone(), ClusterSpec::cluster_a(1, 1), QSyncConfig::default());
    let (cached, _) = Allocator::new(&roomy).allocate(&roomy.indicator());
    let warm = cached.device(roomy.cluster.inference_ranks()[0]).clone();

    let mut demotions = Vec::new();
    let mut full_predicts = Vec::new();
    for fraction in [0.7, 0.3, 0.05] {
        let shrunk = QSyncSystem::new(
            dag.clone(),
            ClusterSpec::cluster_b(1, 1, fraction),
            QSyncConfig::default(),
        );
        let (_, report) = Allocator::new(&shrunk).plan(&shrunk.indicator(), Some(&warm), None).into();
        demotions.push(report.warm_demotions);
        full_predicts.push(report.full_predicts);
    }
    assert!(
        demotions.iter().any(|&d| d > 0),
        "expected at least one shrunk cluster to force demotions, got {demotions:?}"
    );
    assert!(
        full_predicts.iter().all(|&f| f == 0),
        "warm re-plan must answer everything (including T_min) incrementally, \
         got {full_predicts:?} full predictions for demotion counts {demotions:?}"
    );
}

#[test]
fn warm_t_min_matches_the_cold_allocators_bound() {
    // ROADMAP "warm-start fidelity": `allocate_warm` used to bound `T_min` by
    // the uniform lowest-precision plan instead of the brute-force fastest
    // plan. It now computes the cold allocator's bound exactly — warm and
    // cold allocations on the same system report bit-identical `T_min` — and
    // this test quantifies the gap the stand-in used to leave.
    let dag = vgg16bn(2, 32);
    let roomy = QSyncSystem::new(dag.clone(), ClusterSpec::cluster_a(1, 1), QSyncConfig::default());
    let (cached, _) = Allocator::new(&roomy).allocate(&roomy.indicator());
    let warm = cached.device(roomy.cluster.inference_ranks()[0]).clone();

    for fraction in [0.3, 0.7] {
        let shrunk = QSyncSystem::new(
            dag.clone(),
            ClusterSpec::cluster_b(1, 1, fraction),
            QSyncConfig::default(),
        );
        let alloc = Allocator::new(&shrunk);
        let (_, cold) = alloc.allocate(&shrunk.indicator());
        let (_, warm_report) = alloc.plan(&shrunk.indicator(), Some(&warm), None).into();
        assert_eq!(
            warm_report.t_min_us.to_bits(),
            cold.t_min_us.to_bits(),
            "warm T_min must equal the cold allocator's bound at fraction {fraction}"
        );
        // The former stand-in, for the record: the uniform lowest-precision
        // plan is never *faster* than the brute-force fastest plan, so the
        // old bound overstated T_min by `gap`.
        let rank = shrunk.cluster.inference_ranks()[0];
        let lowest = shrunk.candidates_for(rank)[0];
        let uniform =
            shrunk.predict_iteration_us(&PrecisionPlan::uniform(shrunk.dag(), &shrunk.cluster, lowest));
        let gap = uniform - warm_report.t_min_us;
        assert!(
            gap >= -1e-9,
            "brute-force fastest plan slower than uniform lowest at fraction {fraction}: gap {gap}"
        );
        eprintln!(
            "fraction {fraction}: T_min {:.1} us (uniform-lowest stand-in {uniform:.1} us, \
             former gap {gap:.1} us)",
            warm_report.t_min_us
        );
    }
}

/// Random layered model with optional ReLU and residual adds, so the differential
/// proptest exercises dependent-precision cascades and stored-bytes min-propagation.
fn random_layered_model(widths: Vec<usize>, relu: Vec<bool>, residual: Vec<bool>) -> ModelDag {
    let batch = 4usize;
    let mut g = ModelDag::new("random_layered", batch);
    let mut prev = g.add_node("input", OpKind::Input, vec![], vec![batch, widths[0]], None, None);
    let mut prev_width = widths[0];
    let mut skip = prev;
    for (i, &w) in widths.iter().enumerate().skip(1) {
        let lin = g.add_node(
            format!("fc{i}"),
            OpKind::Linear { in_features: prev_width, out_features: w },
            vec![prev],
            vec![batch, w],
            Some(vec![w, prev_width]),
            Some(format!("block_{i}")),
        );
        prev = lin;
        if relu.get(i).copied().unwrap_or(false) {
            prev = g.add_node(format!("relu{i}"), OpKind::ReLU, vec![prev], vec![batch, w], None, None);
        }
        if residual.get(i).copied().unwrap_or(false) && g.node(skip).output_shape == vec![batch, w] {
            prev = g.add_node(format!("add{i}"), OpKind::Add, vec![prev, skip], vec![batch, w], None, None);
        }
        skip = prev;
        prev_width = w;
    }
    let _ = g.add_node("loss", OpKind::CrossEntropyLoss, vec![prev], vec![1], None, None);
    g
}

fn model_strategy() -> impl Strategy<Value = ModelDag> {
    (
        prop::collection::vec(2usize..32, 2..7),
        prop::collection::vec(any::<bool>(), 8),
        prop::collection::vec(any::<bool>(), 8),
    )
        .prop_map(|(widths, relu, residual)| random_layered_model(widths, relu, residual))
}

/// `dag` with its tagged (adjustable) nodes regrouped `span` to a block, so phase 1
/// brute-forces multi-operator instances whose costs read each other through ReLUs
/// and residual adds.
fn with_blocks_of(dag: &ModelDag, span: usize) -> ModelDag {
    let mut g = ModelDag::new(dag.name.clone(), dag.batch_size);
    let mut tagged = 0;
    for node in dag.nodes() {
        let block = node.block.as_ref().map(|_| {
            tagged += 1;
            format!("group_{}", (tagged - 1) / span)
        });
        g.add_node(
            node.name.clone(),
            node.kind.clone(),
            node.inputs.clone(),
            node.output_shape.clone(),
            node.weight_shape.clone(),
            block,
        );
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over random residual layered models, grouped into blocks of one to three
    /// layers, every instance's cost tables score every combination exactly as
    /// the brute force's per-node expression does on the staged assignment.
    #[test]
    fn instance_cost_tables_agree_with_staged_combinations(
        dag in model_strategy(),
        span in 1usize..4,
        start in prop::sample::select(vec![Precision::Int8, Precision::Fp16, Precision::Fp32]),
    ) {
        let sys = QSyncSystem::new(with_blocks_of(&dag, span), ClusterSpec::hybrid_small(), QSyncConfig::default());
        let rank = sys.cluster.inference_ranks()[0];
        let candidates = sys.candidates_for(rank);
        let base = PrecisionDag::uniform(sys.dag(), start);
        let mut eval = DeltaEvaluator::new(&sys, rank, base.clone());
        let device = &sys.cluster.devices[rank];
        let mapper = CostMapper::new(sys.model(), sys.profile(rank), sys.casting(rank), device);
        for group in sys.model().subgraphs() {
            for instance in &group.instances {
                let tables = eval.instance_costs(instance, &candidates);
                let mut digits = vec![0usize; instance.len()];
                for combo in 0..candidates.len().pow(instance.len() as u32) {
                    let mut rest = combo;
                    let mut pdag = base.clone();
                    for (id, digit) in instance.iter().zip(digits.iter_mut()) {
                        *digit = rest % candidates.len();
                        rest /= candidates.len();
                        let _ = pdag.set(sys.dag(), *id, candidates[*digit]);
                    }
                    let expected: f64 = instance
                        .iter()
                        .map(|&id| {
                            let op = sys.profile(rank).get_or_fp32(id, pdag.get(id));
                            op.fwd_us + op.bwd_us + mapper.forward_cast_us(&pdag, id) + mapper.backward_cast_us(&pdag, id)
                        })
                        .sum();
                    prop_assert_eq!(tables.cost(&digits).to_bits(), expected.to_bits());
                }
            }
        }
        prop_assert_eq!(eval.pdag(), &base);
    }

    /// Over random residual layered models, grouped into blocks of one to three
    /// layers, a cold plan is byte-identical to the reference allocator's.
    #[test]
    fn cold_plan_matches_the_reference_on_random_models(
        dag in model_strategy(),
        span in 1usize..4,
    ) {
        let sys = QSyncSystem::new(with_blocks_of(&dag, span), ClusterSpec::hybrid_small(), QSyncConfig::default());
        let alloc = Allocator::new(&sys);
        let (plan, report) = alloc.plan(&sys.indicator(), None, None).into();
        let (reference, ref_report) = alloc.allocate_reference(&sys.indicator());
        prop_assert_eq!(plan.to_json(), reference.to_json());
        prop_assert_eq!(report.t_min_us.to_bits(), ref_report.t_min_us.to_bits());
        prop_assert_eq!(report.final_us.to_bits(), ref_report.final_us.to_bits());
        prop_assert_eq!(report.promotions_accepted, ref_report.promotions_accepted);
        prop_assert_eq!(report.promotions_rejected, ref_report.promotions_rejected);
    }

    /// Over random DAGs and random promotion/demotion sequences (with random
    /// commit/rollback decisions), the evaluator's latency answer is bit-identical to
    /// the full predictor and its memory answer equals the memory estimator exactly.
    #[test]
    fn delta_evaluator_agrees_with_full_recomputation(
        dag in model_strategy(),
        moves in prop::collection::vec(
            (
                0usize..64,
                prop::sample::select(vec![Precision::Int8, Precision::Fp16, Precision::Fp32]),
                any::<bool>(),
            ),
            1..24,
        ),
        start in prop::sample::select(vec![Precision::Int8, Precision::Fp16, Precision::Fp32]),
    ) {
        let sys = QSyncSystem::new(dag, ClusterSpec::hybrid_small(), QSyncConfig::default());
        let rank = sys.cluster.inference_ranks()[0];
        let ops = sys.dag().adjustable_ops();
        prop_assert!(!ops.is_empty()); // widths.len() >= 2 guarantees a linear layer

        // Shadow state maintained with the non-incremental primitives.
        let mut shadow = PrecisionDag::uniform(sys.dag(), start);
        let mut eval = DeltaEvaluator::new(&sys, rank, shadow.clone());

        for (pick, precision, keep) in moves {
            let op = ops[pick % ops.len()];
            eval.propose(op, precision);
            if keep {
                eval.commit();
                let _ = shadow.set(sys.dag(), op, precision);
            } else {
                eval.rollback();
            }
            prop_assert_eq!(eval.pdag(), &shadow);
            let full = sys.predict_iteration_us(&PrecisionPlan::from_inference_pdag(
                "diff", sys.dag(), &sys.cluster, &shadow,
            ));
            prop_assert_eq!(eval.iteration_us().to_bits(), full.to_bits());
            prop_assert_eq!(eval.memory_bytes(), sys.memory_bytes(rank, &shadow));
        }
    }
}
