//! End-to-end QSync system context: the Predictor (profiles + cost mapper + simulator),
//! memory estimation, the variance indicator, the ground-truth executor used to evaluate
//! replay accuracy, and the accuracy-response hook.
//!
//! This corresponds to steps 1-5 of the workflow in Fig. 3: substitution and profiling
//! happen in [`QSyncSystem::new`]; the predictor functions (`E(·)`, `M_i(·)`) are
//! [`QSyncSystem::predict`] and [`QSyncSystem::memory_bytes`]; the allocator
//! (`crate::allocator`) interacts with them to produce the optimized plan.
//!
//! A system is assembled from parts that differ in **what they depend on**, so a caller
//! planning many (model, cluster) pairs profiles once and plans many times:
//!
//! * **per model** — the [`ModelContext`] (graph, topology, DFG skeleton, repeating
//!   subgraphs, synthetic statistics), shared behind an `Arc`;
//! * **per (model, device)** — one profiled [`ProfileDb`] per device
//!   ([`QSyncSystem::profile_device`]), a function of the device's id, GPU model and
//!   compute fraction only — *not* of its memory fraction or of the other devices —
//!   shared behind an `Arc` each;
//! * **per cluster shape** — the casting calculators, the [`CommModel`] and the
//!   configuration, cheap enough to rebuild on every assembly.
//!
//! [`QSyncSystem::from_parts`] is the one assembly path; [`QSyncSystem::new`] builds
//! every part from scratch and hands them to it. The noise-free "hardware truth" tables
//! are needed only by the ground-truth executor and are built lazily on its first use.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use qsync_cluster::comm::CommModel;
use qsync_cluster::cost::casting::CastingCostCalculator;
use qsync_cluster::cost::memory::{MemoryEstimator, OptimizerKind};
use qsync_cluster::device::Device;
use qsync_cluster::profiler::{ProfileDb, Profiler};
use qsync_cluster::topology::ClusterSpec;
use qsync_lp_kernels::precision::Precision;
use qsync_graph::{GlobalDfg, ModelDag, PrecisionDag};
use qsync_train::accuracy::{AccuracyModel, AccuracyOutcome, TaskProfile};

use crate::context::ModelContext;
use crate::indicator::{ModelStatistics, SensitivityIndicator, VarianceIndicator};
use crate::plan::PrecisionPlan;
use crate::replayer::{CostMapper, SimResult, Simulator};

/// Configuration of a QSync run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QSyncConfig {
    /// Number of gradient all-reduce buckets.
    pub n_buckets: usize,
    /// Seed for indicator statistics and accuracy noise.
    pub seed: u64,
    /// Seed for profiling measurement noise.
    pub profile_seed: u64,
    /// Optimizer whose state is included in the memory estimate.
    pub optimizer: OptimizerKind,
    /// Throughput tolerance for the allocator: a precision recovery is accepted if the
    /// predicted iteration time does not grow by more than this relative amount.
    pub throughput_tolerance: f64,
    /// Relative discrepancy between the predictor's casting model and the "hardware"
    /// (used only by the ground-truth executor).
    pub ground_truth_casting_bias: f64,
    /// Per-iteration latency noise of the ground-truth executor (relative std).
    pub ground_truth_noise_std: f64,
}

impl Default for QSyncConfig {
    fn default() -> Self {
        QSyncConfig {
            n_buckets: 4,
            seed: 42,
            profile_seed: 7,
            optimizer: OptimizerKind::SgdMomentum,
            throughput_tolerance: 1e-3,
            ground_truth_casting_bias: 1.08,
            ground_truth_noise_std: 0.01,
        }
    }
}

/// The assembled QSync system for one (model, cluster) pair.
pub struct QSyncSystem {
    /// The hybrid cluster running the job.
    pub cluster: ClusterSpec,
    /// Run configuration.
    pub config: QSyncConfig,
    model: Arc<ModelContext>,
    profiles: Vec<Arc<ProfileDb>>,
    /// The "hardware truth": the profiles' deterministic per-op factors without the
    /// measurement noise. Only the ground-truth executor reads them, so they are built
    /// on its first call.
    truth: OnceLock<Vec<Arc<ProfileDb>>>,
    castings: Vec<CastingCostCalculator>,
    comm: CommModel,
    profiler: Profiler,
    mem_estimator: MemoryEstimator,
}

impl QSyncSystem {
    /// Build the system from scratch: derive the model context, profile every device,
    /// calibrate casting models, and generate indicator statistics (synthetic, seeded by
    /// `config.seed`).
    pub fn new(dag: ModelDag, cluster: ClusterSpec, config: QSyncConfig) -> Self {
        let model = Arc::new(ModelContext::new(dag, config.n_buckets, config.seed));
        let profiles = cluster
            .devices
            .iter()
            .map(|device| Arc::new(Self::profile_device(model.dag(), device, config.profile_seed)))
            .collect();
        Self::from_parts(model, profiles, cluster, config)
    }

    /// Profile one device for a model — the per-(model, device) part of a system.
    pub fn profile_device(dag: &ModelDag, device: &Device, profile_seed: u64) -> ProfileDb {
        Profiler::default().profile(dag, device, &Precision::PAPER_CANDIDATES, profile_seed)
    }

    /// Assemble a system from a shared model context and one shared profile table per
    /// device of `cluster` (in rank order), building only the cheap per-shape parts.
    ///
    /// The parts must have been built for this configuration: `model` with
    /// `config.n_buckets` and `config.seed`, each table by
    /// [`QSyncSystem::profile_device`] for the device at its rank with
    /// `config.profile_seed`. The result is then indistinguishable from
    /// [`QSyncSystem::new`].
    pub fn from_parts(
        model: Arc<ModelContext>,
        profiles: Vec<Arc<ProfileDb>>,
        cluster: ClusterSpec,
        config: QSyncConfig,
    ) -> Self {
        assert_eq!(profiles.len(), cluster.world_size(), "one profile table per device");
        assert_eq!(
            (model.n_buckets(), model.stats_seed()),
            (config.n_buckets, config.seed),
            "model context built for another configuration"
        );
        let castings = cluster.devices.iter().map(CastingCostCalculator::for_device).collect();
        let comm = CommModel::for_cluster(&cluster);
        let mem_estimator = MemoryEstimator::with_optimizer(config.optimizer);
        QSyncSystem {
            cluster,
            config,
            model,
            profiles,
            truth: OnceLock::new(),
            castings,
            comm,
            profiler: Profiler::default(),
            mem_estimator,
        }
    }

    /// The model being trained.
    pub fn dag(&self) -> &ModelDag {
        self.model.dag()
    }

    /// Indicator statistics of the model (synthetic, seeded by `config.seed`).
    pub fn stats(&self) -> &ModelStatistics {
        self.model.stats()
    }

    /// The shared per-model context.
    pub fn model(&self) -> &Arc<ModelContext> {
        &self.model
    }

    /// The precision candidates an inference device can execute, lowest first.
    pub fn candidates_for(&self, rank: usize) -> Vec<Precision> {
        let device = &self.cluster.devices[rank];
        Precision::PAPER_CANDIDATES
            .iter()
            .copied()
            .filter(|&p| p == Precision::Fp32 || device.supports(p))
            .collect()
    }

    /// The QSync variance indicator built from the current statistics.
    pub fn indicator(&self) -> VarianceIndicator {
        VarianceIndicator::new(self.stats().clone())
    }

    /// Predictor `E(·)`: replay the plan and return the full simulation result.
    pub fn predict(&self, plan: &PrecisionPlan) -> SimResult {
        self.simulate_with(plan, &self.profiles, 1.0)
    }

    /// Predicted iteration latency in microseconds.
    pub fn predict_iteration_us(&self, plan: &PrecisionPlan) -> f64 {
        self.predict(plan).iteration_us
    }

    /// Ground truth: what the "hardware" (device simulator with its true per-op factors,
    /// a casting bias the predictor does not know about, and per-iteration noise) would
    /// actually measure for one iteration.
    pub fn ground_truth_iteration_us(&self, plan: &PrecisionPlan, iteration_seed: u64) -> f64 {
        let truth = self.truth.get_or_init(|| {
            let candidates = &Precision::PAPER_CANDIDATES;
            let table = |device| Arc::new(self.profiler.truth(self.dag(), device, candidates));
            self.cluster.devices.iter().map(table).collect()
        });
        let base =
            self.simulate_with(plan, truth, self.config.ground_truth_casting_bias).iteration_us;
        // Deterministic per-iteration jitter.
        let mut h = iteration_seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(self.config.seed);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        let u = (h as f64) / (u64::MAX as f64);
        let z = (u - 0.5) * 2.0 * 1.732; // uniform with unit variance
        base * (1.0 + z * self.config.ground_truth_noise_std)
    }

    /// Mean ground-truth iteration latency over `iterations` simulated iterations.
    pub fn ground_truth_mean_us(&self, plan: &PrecisionPlan, iterations: usize) -> f64 {
        (0..iterations.max(1))
            .map(|i| self.ground_truth_iteration_us(plan, i as u64))
            .sum::<f64>()
            / iterations.max(1) as f64
    }

    /// The DPro-style baseline estimate (Table III "w/o cost mapper"): replays the same
    /// global DFG but without modelling casting costs or precision dependencies.
    pub fn dpro_iteration_us(&self, plan: &PrecisionPlan) -> f64 {
        self.simulate_with(plan, &self.profiles, 0.0).iteration_us
    }

    fn simulate_with(
        &self,
        plan: &PrecisionPlan,
        profiles: &[Arc<ProfileDb>],
        casting_scale: f64,
    ) -> SimResult {
        let locals = self
            .cluster
            .devices
            .iter()
            .map(|device| {
                let mut mapper = CostMapper::new(
                    &self.model,
                    &profiles[device.id],
                    &self.castings[device.id],
                    device,
                );
                mapper.casting_scale = casting_scale;
                mapper.build_local_dfg(plan.device(device.id), device.id)
            })
            .collect();
        Simulator::new(self.comm.clone()).simulate(&GlobalDfg::new(locals))
    }

    /// Memory estimator `M_i(·)` for one rank under a precision DAG.
    pub fn memory_bytes(&self, rank: usize, pdag: &PrecisionDag) -> u64 {
        let _ = rank;
        self.mem_estimator.estimate_bytes(self.dag(), pdag)
    }

    /// Whether the plan fits the device's available memory.
    pub fn memory_ok(&self, rank: usize, pdag: &PrecisionDag) -> bool {
        self.memory_bytes(rank, pdag) <= self.cluster.devices[rank].available_memory_bytes()
    }

    /// Total indicator variance of a plan over all inference devices.
    pub fn plan_variance(&self, plan: &PrecisionPlan, indicator: &dyn SensitivityIndicator) -> f64 {
        self.cluster
            .inference_ranks()
            .iter()
            .map(|&rank| {
                let pdag = plan.device(rank);
                indicator.total(self.dag(), &|id| pdag.get(id))
            })
            .sum()
    }

    /// Variance ratio of a plan relative to the uniform lowest-precision plan (the input
    /// of the accuracy-response model).
    pub fn variance_ratio(&self, plan: &PrecisionPlan) -> f64 {
        let indicator = self.indicator();
        let reference_precision = self
            .cluster
            .inference_ranks()
            .first()
            .map(|&r| self.candidates_for(r)[0])
            .unwrap_or(Precision::Fp16);
        let reference = PrecisionPlan::uniform(self.dag(), &self.cluster, reference_precision);
        let ref_var = self.plan_variance(&reference, &indicator);
        if ref_var <= 0.0 {
            return 0.0;
        }
        self.plan_variance(plan, &indicator) / ref_var
    }

    /// Final-accuracy outcome of training under a plan, using the accuracy-response model
    /// for the task matching this model (if calibrated).
    pub fn accuracy(&self, plan: &PrecisionPlan, trial_tag: u64) -> Option<AccuracyOutcome> {
        let task = TaskProfile::for_model(&self.dag().name)?;
        let model = AccuracyModel::new(task, self.config.seed);
        Some(model.final_accuracy(self.variance_ratio(plan), 0.0, trial_tag))
    }

    /// Underlying profiler (exposed for experiments that need per-op truths).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Profiled costs of one rank.
    pub fn profile(&self, rank: usize) -> &ProfileDb {
        &self.profiles[rank]
    }

    /// Casting-cost calculator of one rank.
    pub fn casting(&self, rank: usize) -> &CastingCostCalculator {
        &self.castings[rank]
    }

    /// The memory estimator `M_i(·)` (exposed for the incremental plan evaluator, which
    /// mirrors its per-operator accounting with exact integer deltas).
    pub fn memory_estimator(&self) -> &MemoryEstimator {
        &self.mem_estimator
    }

    /// The communication model of the job.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_graph::models::small_mlp;

    fn system() -> QSyncSystem {
        QSyncSystem::new(
            small_mlp(64, 512, 1024, 16),
            ClusterSpec::hybrid_small(),
            QSyncConfig::default(),
        )
    }

    #[test]
    fn uniform_fp16_is_faster_than_oracle() {
        let s = system();
        let oracle = s.predict_iteration_us(&PrecisionPlan::oracle(s.dag(), &s.cluster));
        let fp16 = s.predict_iteration_us(&PrecisionPlan::uniform(s.dag(), &s.cluster, Precision::Fp16));
        assert!(fp16 <= oracle, "fp16 {fp16} should not be slower than oracle {oracle}");
    }

    #[test]
    fn predictor_is_close_to_ground_truth() {
        let s = system();
        for plan in [
            PrecisionPlan::uniform(s.dag(), &s.cluster, Precision::Fp16),
            PrecisionPlan::uniform(s.dag(), &s.cluster, Precision::Int8),
            PrecisionPlan::oracle(s.dag(), &s.cluster),
        ] {
            let predicted = s.predict_iteration_us(&plan);
            let truth = s.ground_truth_mean_us(&plan, 5);
            let err = (predicted - truth).abs() / truth;
            assert!(err < 0.05, "{}: error {err}", plan.name);
        }
    }

    #[test]
    fn ground_truth_tables_are_built_on_first_use_only() {
        let s = system();
        let plan = PrecisionPlan::uniform(s.dag(), &s.cluster, Precision::Int8);
        let _ = s.predict(&plan);
        let _ = s.dpro_iteration_us(&plan);
        let _ = crate::allocator::Allocator::new(&s).allocate(&s.indicator());
        assert!(s.truth.get().is_none(), "the predictor and the allocator never need the truth");
        let _ = s.ground_truth_iteration_us(&plan, 0);
        assert_eq!(s.truth.get().map(Vec::len), Some(s.cluster.world_size()));
    }

    #[test]
    fn ground_truth_is_the_same_bits_whenever_it_is_first_asked_for() {
        let plan_of = |s: &QSyncSystem| PrecisionPlan::uniform(s.dag(), &s.cluster, Precision::Int8);
        let truth_first = system();
        let a = truth_first.ground_truth_iteration_us(&plan_of(&truth_first), 3);
        let predict_first = system();
        let _ = predict_first.predict(&plan_of(&predict_first));
        let b = predict_first.ground_truth_iteration_us(&plan_of(&predict_first), 3);
        assert_eq!(a.to_bits(), b.to_bits());

        // And equals a direct reconstruction from `Profiler::true_cost`: the noise-free
        // tables, the biased casting model, the replay, then the per-iteration jitter.
        let s = &truth_first;
        let plan = plan_of(s);
        let tables: Vec<ProfileDb> = s
            .cluster
            .devices
            .iter()
            .map(|device| {
                ProfileDb::tabulate(s.dag().len(), &Precision::PAPER_CANDIDATES, |node, p| {
                    s.profiler().true_cost(s.dag(), device, node, p)
                })
            })
            .collect();
        let locals = s
            .cluster
            .devices
            .iter()
            .map(|device| {
                let mut mapper =
                    CostMapper::new(s.model(), &tables[device.id], s.casting(device.id), device);
                mapper.casting_scale = s.config.ground_truth_casting_bias;
                mapper.build_local_dfg(plan.device(device.id), device.id)
            })
            .collect();
        let base = Simulator::new(s.comm().clone()).simulate(&GlobalDfg::new(locals)).iteration_us;
        let mut h = 3u64.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s.config.seed);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        let z = ((h as f64) / (u64::MAX as f64) - 0.5) * 2.0 * 1.732;
        let expected = base * (1.0 + z * s.config.ground_truth_noise_std);
        assert_eq!(a.to_bits(), expected.to_bits());
    }

    #[test]
    fn dpro_underestimates_quantized_plans_more_than_the_predictor() {
        // Use an all-T4 job so the quantized device's casting costs gate the makespan
        // (in a hybrid job the FP32 training GPU hides them).
        let s = QSyncSystem::new(
            small_mlp(64, 512, 1024, 16),
            ClusterSpec::cluster_a(0, 2),
            QSyncConfig::default(),
        );
        let plan = PrecisionPlan::uniform(s.dag(), &s.cluster, Precision::Int8);
        let truth = s.ground_truth_mean_us(&plan, 5);
        let qsync_err = (s.predict_iteration_us(&plan) - truth).abs() / truth;
        let dpro_err = (s.dpro_iteration_us(&plan) - truth).abs() / truth;
        assert!(dpro_err > qsync_err, "dpro {dpro_err} should be worse than qsync {qsync_err}");
        assert!(s.dpro_iteration_us(&plan) < truth, "dpro should underestimate");
    }

    #[test]
    fn variance_ratio_is_zero_for_oracle_and_one_for_uniform_lowest() {
        let s = system();
        let oracle = PrecisionPlan::oracle(s.dag(), &s.cluster);
        assert_eq!(s.variance_ratio(&oracle), 0.0);
        let lowest = s.candidates_for(s.cluster.inference_ranks()[0])[0];
        let uniform = PrecisionPlan::uniform(s.dag(), &s.cluster, lowest);
        assert!((s.variance_ratio(&uniform) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_check_accepts_small_models_on_full_devices() {
        let s = system();
        let rank = s.cluster.inference_ranks()[0];
        assert!(s.memory_ok(rank, &PrecisionDag::full_precision(s.dag())));
    }

    #[test]
    fn candidates_respect_device_capabilities() {
        let s = system();
        let t4 = s.cluster.inference_ranks()[0];
        let v100 = s.cluster.training_ranks()[0];
        assert_eq!(s.candidates_for(t4), vec![Precision::Int8, Precision::Fp16, Precision::Fp32]);
        assert_eq!(s.candidates_for(v100), vec![Precision::Fp16, Precision::Fp32]);
    }

    #[test]
    fn accuracy_hook_returns_none_for_uncalibrated_models() {
        let s = system();
        let plan = PrecisionPlan::oracle(s.dag(), &s.cluster);
        assert!(s.accuracy(&plan, 0).is_none()); // small_mlp has no task profile
    }
}
