//! Plan-digest corpus: the definition of "same plans".
//!
//! Every case is served through a [`PlanEngine`], so each way the engine can
//! run the allocator is reached: a cold plan that runs the brute-force pass
//! (memo miss), a cold plan that starts from the memoized pass (memo hit, via
//! a second indicator), warm re-plans down a `Degraded` chain with and
//! without the target shape memoized, cold and warm plans again under a
//! `with_plan_budget(Some(7))` engine, and a training-only cluster that has
//! nothing to allocate. The
//! cases are the seven zoo families at batch 1 and 8 × the benchmark's
//! cluster shapes, 518 lines.
//!
//! Each line of `golden/plan_digests.txt` is one case:
//!
//! ```text
//! <case> <fingerprint of plan.to_json()> <t_min_us bits> <final_us bits> \
//!     <accepted> <rejected> <warm_demotions> <candidates_evaluated> <full_predicts>
//! ```
//!
//! The plan, `T_min`, final latency, accepted promotions and warm demotions
//! are the engine's own reply. The other three counts never leave the
//! engine, so they come from the same allocator run on a from-scratch
//! [`QSyncSystem`], which must agree with the reply on everything the reply
//! does carry.
//!
//! A change that moves plans on purpose edits the committed file: on a
//! mismatch this test names the moved cases and prints the whole corpus the
//! build produces.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

use qsync_cluster::topology::ClusterSpec;
use qsync_core::allocator::{AllocationReport, Allocator};
use qsync_core::indicator::{RandomIndicator, SensitivityIndicator};
use qsync_core::plan::PrecisionPlan;
use qsync_core::system::QSyncSystem;
use qsync_graph::{Fingerprint, PrecisionDag};
use qsync_serve::{
    ClusterDelta, DeltaRequest, IndicatorChoice, ModelSpec, PlanEngine, PlanOutcome, PlanRequest,
    PlanResponse,
};

const BUDGET: u64 = 7;

/// The smallest size of each of the benchmark zoo's seven families.
fn zoo_families(batch: usize) -> [(String, ModelSpec); 7] {
    [
        ("mlp", ModelSpec::SmallMlp { batch, in_features: 16, hidden: 32, classes: 8 }),
        ("cnn", ModelSpec::SmallCnn { batch, image: 8, classes: 10 }),
        ("resnet50", ModelSpec::Resnet50 { batch, image: 32 }),
        ("vgg16", ModelSpec::Vgg16 { batch, image: 32 }),
        ("vgg16bn", ModelSpec::Vgg16Bn { batch, image: 32 }),
        ("bert", ModelSpec::BertBase { batch, seq: 8 }),
        ("roberta", ModelSpec::RobertaBase { batch, seq: 8 }),
    ]
    .map(|(family, model)| (format!("{family}_b{batch}"), model))
}

/// The base of the `Degraded` chain and its four steps, as the benchmark's
/// churn stream builds them.
fn degraded_chain() -> (ClusterSpec, Vec<ClusterDelta>) {
    let memory = 0.6;
    let base = ClusterSpec::cluster_b(2, 2, memory);
    let rank = base.inference_ranks()[0];
    let steps = (1..=4)
        .map(|step| ClusterDelta::Degraded {
            rank,
            memory_fraction: memory * (1.0 - 0.1 * step as f64),
            compute_fraction: 1.0 - 0.05 * step as f64,
        })
        .collect();
    (base, steps)
}

/// `cluster_a(2,2)`, three memory fractions of `cluster_b(2,2,m)`, and the
/// four shapes of the `Degraded` chain, each with its case label.
fn shapes() -> Vec<(String, ClusterSpec)> {
    let mut shapes = vec![("a22".to_string(), ClusterSpec::cluster_a(2, 2))];
    for m in [0.25, 0.5, 0.8] {
        shapes.push((format!("b22@{m}"), ClusterSpec::cluster_b(2, 2, m)));
    }
    let (mut current, steps) = degraded_chain();
    for (k, delta) in steps.iter().enumerate() {
        current = delta.apply(&current).expect("generated delta is in range");
        shapes.push((format!("chain{}", k + 1), current.clone()));
    }
    shapes
}

/// The inference assignment a cached `response` hands the next warm re-plan.
fn warm_of(request: &PlanRequest, response: &PlanResponse) -> PrecisionDag {
    response.plan.device(request.cluster.inference_ranks()[0]).clone()
}

/// The corpus lines so far (each with its newline), and one from-scratch
/// system per (model, cluster) for the reference side of every case.
#[derive(Default)]
struct Corpus {
    lines: Vec<String>,
    fresh: HashMap<(u128, u128), QSyncSystem>,
}

impl Corpus {
    /// The allocator run the engine makes for `request`, on a from-scratch
    /// system: warm-started from `warm` when given, phase 1 under `budget`.
    fn reference(
        &mut self,
        request: &PlanRequest,
        warm: Option<&PrecisionDag>,
        budget: Option<u64>,
    ) -> (PrecisionPlan, AllocationReport) {
        let system = self
            .fresh
            .entry((request.model.fingerprint(), request.cluster.fingerprint()))
            .or_insert_with(|| {
                QSyncSystem::new(request.model.build(), request.effective_cluster(), request.config())
            });
        let indicator: Box<dyn SensitivityIndicator> = match request.indicator {
            IndicatorChoice::Variance => Box::new(system.indicator()),
            IndicatorChoice::Random => Box::new(RandomIndicator { seed: system.config.seed }),
            IndicatorChoice::Hessian => unreachable!("no case plans with the Hessian indicator"),
        };
        Allocator::new(system).plan(indicator.as_ref(), None, warm, budget).into()
    }

    /// Add one line: the engine's reply, checked against the reference run
    /// that supplies the counts the reply does not carry.
    fn case(
        &mut self,
        name: &str,
        request: &PlanRequest,
        response: &PlanResponse,
        warm: Option<&PrecisionDag>,
        budget: Option<u64>,
    ) {
        let (plan, report) = self.reference(request, warm, budget);
        let json = response.plan_json();
        assert_eq!(json, plan.to_json(), "{name}: engine plan differs from a fresh system's");
        assert_eq!(
            [response.t_min_us, response.predicted_iteration_us].map(f64::to_bits),
            [report.t_min_us, report.final_us].map(f64::to_bits),
            "{name}: engine T_min / final latency differ from a fresh system's"
        );
        assert_eq!(
            [response.promotions_accepted, response.warm_demotions],
            [report.promotions_accepted, report.warm_demotions],
            "{name}: engine report differs from a fresh system's"
        );
        let mut digest = Fingerprint::new();
        digest.write_str(&json);
        self.lines.push(format!(
            "{name} {} {:016x} {:016x} {} {} {} {} {}\n",
            digest.finish_hex(),
            report.t_min_us.to_bits(),
            report.final_us.to_bits(),
            report.promotions_accepted,
            report.promotions_rejected,
            report.warm_demotions,
            report.candidates_evaluated,
            report.full_predicts,
        ));
    }

    /// Plan the chain's base cold on `engine`, then apply the four
    /// `Degraded` deltas, each re-planning that one entry warm. One line per
    /// step.
    fn warm_chain(
        &mut self,
        engine: &PlanEngine,
        family: &str,
        model: &ModelSpec,
        arm: &str,
        budget: Option<u64>,
    ) {
        let (base, steps) = degraded_chain();
        let mut request = PlanRequest::new(0, model.clone(), base);
        let mut previous = engine.plan(&request).expect("chain base plans");
        for (k, delta) in steps.into_iter().enumerate() {
            let warm = warm_of(&request, &previous);
            let delta = DeltaRequest::new(k as u64 + 1, request.cluster.clone(), delta);
            let mut outcome = engine.apply_delta(&delta).expect("chain delta applies");
            assert_eq!(outcome.replanned.len(), 1, "{family}: one entry per chain step");
            let response = outcome.replanned.pop().expect("one re-plan");
            assert_eq!(response.outcome, PlanOutcome::WarmReplanned);
            request.cluster = delta.delta.apply(&request.cluster).expect("delta is in range");
            let name = format!("{family}/chain{}/{arm}", k + 1);
            self.case(&name, &request, &response, Some(&warm), budget);
            previous = response;
        }
    }
}

fn counter(engine: &PlanEngine, name: &str) -> u64 {
    engine.obs().snapshot().counter(name).expect("registered counter")
}

/// Every case of the zoo at one batch size, in corpus order, and the
/// engines' memo counters as a check that each arm was reached.
fn corpus(batch: usize) -> Vec<String> {
    let mut corpus = Corpus::default();
    let cold = PlanEngine::new();
    let budgeted = PlanEngine::new().with_plan_budget(Some(BUDGET));
    let (warm_miss, warm_hit, budgeted_warm) =
        (PlanEngine::new(), PlanEngine::new(), PlanEngine::new().with_plan_budget(Some(BUDGET)));
    let families = zoo_families(batch);
    for (family, model) in &families {
        for (label, cluster) in shapes() {
            let mut request = PlanRequest::new(0, model.clone(), cluster);
            let response = cold.plan(&request).expect("cold plan");
            assert_eq!(response.outcome, PlanOutcome::ColdPlanned);
            corpus.case(&format!("{family}/{label}/cold"), &request, &response, None, None);

            let response = budgeted.plan(&request).expect("budgeted plan");
            let name = format!("{family}/{label}/budget{BUDGET}");
            corpus.case(&name, &request, &response, None, Some(BUDGET));

            // Same (model, cluster), another indicator: a new cache key whose
            // brute-force pass is already memoized.
            request.indicator = IndicatorChoice::Random;
            let response = cold.plan(&request).expect("memo-hit plan");
            assert_eq!(response.outcome, PlanOutcome::ColdPlanned);
            let name = format!("{family}/{label}/memo_hit");
            corpus.case(&name, &request, &response, None, None);
        }

        let request = PlanRequest::new(0, model.clone(), ClusterSpec::cluster_a(2, 0));
        let response = cold.plan(&request).expect("training-only plan");
        corpus.case(&format!("{family}/a20/cold"), &request, &response, None, None);

        corpus.warm_chain(&warm_miss, family, model, "warm_miss", None);
        // The warm-hit engine starts with every chain shape memoized.
        for ((model_fp, cluster_fp), initial) in cold.memo_entries() {
            warm_hit.memo_insert(model_fp, cluster_fp, initial);
        }
        corpus.warm_chain(&warm_hit, family, model, "warm_hit", None);
        let arm = format!("budget{BUDGET}_warm");
        corpus.warm_chain(&budgeted_warm, family, model, &arm, Some(BUDGET));
    }

    let n = families.len() as u64;
    let n_shapes = shapes().len() as u64;
    let memo = |engine: &PlanEngine| {
        ["qsync_engine_memo_misses_total", "qsync_engine_memo_hits_total"]
            .map(|name| counter(engine, name))
    };
    assert_eq!(memo(&cold), [n * n_shapes, n * n_shapes], "cold: one miss and one hit per shape");
    assert_eq!(memo(&budgeted), [n * n_shapes, 0], "budgeted: every plan misses");
    assert_eq!(memo(&warm_miss), [n * 5, 0], "warm miss: base and four steps miss");
    assert_eq!(memo(&warm_hit), [n, n * 4], "warm hit: only the base misses");
    assert_eq!(memo(&budgeted_warm), [n * 5, 0], "budgeted warm: base and four steps miss");
    assert!(
        counter(&budgeted, "qsync_plan_preemptions_total") > 0,
        "a budget of {BUDGET} preempts some batch-{batch} family's brute-force pass"
    );
    corpus.lines
}

#[test]
fn plan_digests_match_the_committed_corpus() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plan_digests.txt");
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    // The zoo's smallest and largest batch, one thread each. At batch 1 most
    // plans stay FP32; batch 8 is where recovery, the throughput bound and
    // warm demotions do work.
    let produced: String = std::thread::scope(|scope| {
        let batches = [1, 8].map(|batch| scope.spawn(move || corpus(batch)));
        batches.map(|batch| batch.join().expect("corpus thread").concat())
    })
    .concat();
    if committed == produced {
        return;
    }
    let by_case = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter_map(|line| line.split_once(' '))
            .map(|(case, rest)| (case.to_string(), rest.to_string()))
            .collect()
    };
    let (want, got) = (by_case(&committed), by_case(&produced));
    let cases: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    let moved: Vec<String> = cases
        .into_iter()
        .filter_map(|case| {
            let verdict = match (want.get(case), got.get(case)) {
                (Some(_), None) => "gone",
                (None, Some(_)) => "new",
                (a, b) if a != b => "moved",
                _ => return None,
            };
            Some(format!("{verdict}: {case}"))
        })
        .collect();
    panic!(
        "{} plan-digest cases differ from {}:\n{}\n\nthe corpus this build produces:\n{produced}",
        moved.len(),
        path.display(),
        moved.join("\n"),
    );
}
