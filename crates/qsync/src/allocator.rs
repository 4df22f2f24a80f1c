//! The precision Allocator (Section V).
//!
//! Two phases, both driven by the Predictor:
//!
//! 1. **Initial setting** — every inference GPU starts from the *fastest available*
//!    precision setup that satisfies its memory constraint. The model is decomposed into
//!    repeating isomorphic subgraphs; each subgraph instance receives a memory budget
//!    proportional to its compression capacity, and a brute-force search over the
//!    per-instance precision combinations picks the latency-minimal assignment that fits
//!    the budget.
//! 2. **Precision recovery** — a max-heap per inference GPU stores, for every operator,
//!    the indicator decrement obtained by raising it one precision step. The allocator
//!    repeatedly pops the largest decrement, accepts the promotion if memory still fits
//!    and the predicted overall throughput does not drop below the initial plan's
//!    throughput (`T_min`), and pushes the operator's next step back onto the heap.
//!
//! [`Allocator::plan`] is the one way in: it chooses the planning rank, runs phase 1,
//! and warm-starts phase 2 from an earlier assignment when given one. Both phases run
//! on **one** incremental [`DeltaEvaluator`] per plan, on the calling thread:
//!
//! * Phase 1 scores a block's combinations without staging them. The evaluator
//!   tabulates each block operator's local cost once per assignment of the operator
//!   and the block operators its inputs derive from
//!   ([`DeltaEvaluator::instance_costs`]), and a combination's score is a sum of table
//!   entries. Only each block's winner is staged and committed, which leaves the
//!   evaluator at the initial assignment.
//! * A warm start stages the clamped warm assignment onto that same evaluator.
//! * Phase 2 stages each candidate as a transaction. Its memory effect comes from
//!   cached per-operator deltas, its latency from re-walking the compute streams past
//!   the earliest changed operator, and the move is committed or rolled back. No
//!   candidate clones the DAG, replicates the plan or rebuilds a DFG.
//!
//! The non-incremental code paths are preserved as `*_reference` methods: the reference
//! the differential suites assert the incremental paths against, plan for plan, byte
//! for byte.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use qsync_lp_kernels::precision::Precision;
use qsync_graph::{find_repeating_subgraphs, NodeId, PrecisionDag};

use crate::eval::DeltaEvaluator;
use crate::indicator::SensitivityIndicator;
use crate::plan::PrecisionPlan;
use crate::replayer::CostMapper;
use crate::system::QSyncSystem;

/// A heap entry: the indicator decrement obtained by promoting `node` to `next`.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    decrement: f64,
    node: NodeId,
    next: Precision,
}

impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.decrement
            .total_cmp(&other.decrement)
            .then_with(|| self.node.0.cmp(&other.node.0))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Statistics about one allocation run (for reporting and the ablation experiments).
#[derive(Debug, Clone, Default)]
pub struct AllocationReport {
    /// Predicted iteration latency (us) of the initial (fastest) plan — the `T_min` bound.
    pub t_min_us: f64,
    /// Predicted iteration latency of the final plan.
    pub final_us: f64,
    /// Number of precision promotions accepted by the recovery loop.
    pub promotions_accepted: usize,
    /// Number of promotions rejected (memory or throughput constraint).
    pub promotions_rejected: usize,
    /// Number of operators demoted while clamping a warm-start plan to the
    /// (possibly shrunk) device memory. Always 0 for cold allocations.
    pub warm_demotions: usize,
    /// Candidate evaluations answered incrementally (recovery promotions plus
    /// warm-start demotions). 0 on the `*_reference` paths.
    pub candidates_evaluated: usize,
    /// Full-plan predictor invocations (`PrecisionPlan` build + global-DFG replay).
    /// The incremental paths keep this O(1) per allocation — the warm re-plan
    /// regression test pins that down — while the `*_reference` paths pay one per
    /// candidate.
    pub full_predicts: usize,
}

/// The product of phase 1 for the planning rank: the brute-force
/// fastest-feasible assignment and its predicted latency (the `T_min` bound
/// phase 2 enforces). Both members are pure deterministic functions of the
/// (model, effective cluster, eval budget) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialSetting {
    /// The phase-1 assignment (consistent: dependent precisions propagated).
    pub pdag: PrecisionDag,
    /// Predicted iteration latency (us) of `pdag` — the recovery bound.
    pub t_min_us: f64,
}

impl InitialSetting {
    /// Phase 1's product, read off the evaluator phase 1 left at its assignment.
    fn at(eval: &mut DeltaEvaluator<'_>) -> Self {
        InitialSetting { pdag: eval.pdag().clone(), t_min_us: eval.iteration_us() }
    }
}

/// Outcome of a budgeted phase-1 run: how much combinatorial work the
/// brute-force pass did and whether a candidate-evaluation budget preempted
/// it. A preempted pass still yields a *valid* initial setting — every
/// committed instance holds the best combination scored so far and the rest
/// stay at uniform lowest — just a possibly suboptimal one. Deterministic for
/// a given (system, budget) pair, which is what lets the simulation oracle
/// replay budgeted plans byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InitialPassReport {
    /// Precision combinations actually scored on the evaluator.
    pub evals: u64,
    /// `true` when the budget ran out before the exhaustive enumeration
    /// finished (the pass checkpointed its best-so-far and yielded).
    pub preempted: bool,
}

/// Everything one [`Allocator::plan`] call produces.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The recovered plan.
    pub plan: PrecisionPlan,
    /// Statistics of the run.
    pub report: AllocationReport,
    /// The inference rank the plan was computed for and replicated from;
    /// `None` only for a cluster with no inference devices.
    pub rank: Option<usize>,
    /// Phase 1's [`InitialSetting`] and how much work the pass did; `None`
    /// only for a cluster with no inference devices.
    pub initial: Option<(InitialSetting, InitialPassReport)>,
}

impl From<Allocation> for (PrecisionPlan, AllocationReport) {
    fn from(allocation: Allocation) -> Self {
        (allocation.plan, allocation.report)
    }
}

/// The QSync allocator.
pub struct Allocator<'a> {
    /// The assembled system (predictor, memory estimator, cluster).
    pub system: &'a QSyncSystem,
}

impl<'a> Allocator<'a> {
    /// Create an allocator over a system.
    pub fn new(system: &'a QSyncSystem) -> Self {
        Allocator { system }
    }

    /// Plan the system's cluster: the one way into the allocator.
    ///
    /// Phase 1 runs under the cooperative `max_evals` budget (`None` =
    /// unbounded), for a warm plan too: `T_min` is always the brute-force
    /// fastest plan's latency on the current cluster, the same bound a cold
    /// plan enforces. [`Allocation::initial`] carries its product.
    ///
    /// `warm` is an earlier inference assignment for the same model,
    /// typically its cached plan before the cluster changed shape. Recovery
    /// then starts from it, clamped to the current device: precisions the
    /// device no longer supports fall to the nearest supported candidate,
    /// and while the assignment exceeds the (possibly shrunk) memory, or is
    /// slower than `T_min` allows, the operator whose demotion costs the
    /// least indicator increase steps down.
    ///
    /// A warm assignment whose node count does not match the model is
    /// ignored: it can cost time, never correctness. A cluster without
    /// inference devices gets the all-FP32 oracle plan.
    pub fn plan(
        &self,
        indicator: &dyn SensitivityIndicator,
        warm: Option<&PrecisionDag>,
        max_evals: Option<u64>,
    ) -> Allocation {
        let sys = self.system;
        let Some(rank) = self.planning_rank() else {
            let plan = PrecisionPlan::oracle(sys.dag(), &sys.cluster);
            let t = sys.predict_iteration_us(&plan);
            let report =
                AllocationReport { t_min_us: t, final_us: t, full_predicts: 1, ..Default::default() };
            return Allocation { plan, report, rank: None, initial: None };
        };
        let (mut eval, pass) = self.initial_pass(rank, max_evals);
        let setting = InitialSetting::at(&mut eval);
        let t_min_us = setting.t_min_us;
        let (plan, report) = match warm.filter(|warm| warm.len() == sys.dag().len()) {
            None => self.recover_cold(indicator, eval, t_min_us),
            Some(warm) => {
                // Move phase 1's evaluator onto the clamped warm assignment.
                let candidates = sys.candidates_for(rank);
                eval.begin();
                for id in sys.dag().adjustable_ops() {
                    eval.stage(id, clamp(&candidates, warm.get(id)));
                }
                eval.commit();
                self.warm_start(indicator, eval, t_min_us)
            }
        };
        Allocation { plan, report, rank: Some(rank), initial: Some((setting, pass)) }
    }

    /// The inference rank a plan is computed for: the first. All inference
    /// devices in the paper's clusters are identical, so the plan is
    /// replicated to the rest.
    fn planning_rank(&self) -> Option<usize> {
        self.system.cluster.inference_ranks().first().copied()
    }

    /// [`Allocator::plan`] cold, with no budget. Kept for the benchmark's
    /// trace (`qsync_benchmark/src/trace.rs`) until a `[benchmark]` change
    /// moves it onto `plan`.
    pub fn allocate(&self, indicator: &dyn SensitivityIndicator) -> (PrecisionPlan, AllocationReport) {
        self.plan(indicator, None, None).into()
    }

    /// Phase 1 alone for inference rank `rank`, unbudgeted. Kept for the
    /// benchmark's trace until a `[benchmark]` change moves it onto
    /// [`Allocator::plan`], whose [`Allocation::initial`] carries the same
    /// setting.
    pub fn initial_setting(&self, rank: usize) -> InitialSetting {
        InitialSetting::at(&mut self.initial_pass(rank, None).0)
    }

    /// Phase 2 of a cold [`Allocator::plan`] alone, from a phase-1 setting
    /// of [`Allocator::initial_setting`]. Kept for the benchmark's trace
    /// until a `[benchmark]` change moves it onto `plan`. Panics on a
    /// cluster without inference devices.
    pub fn allocate_from_initial(
        &self,
        indicator: &dyn SensitivityIndicator,
        initial: &InitialSetting,
    ) -> (PrecisionPlan, AllocationReport) {
        let rank = self.planning_rank().expect("a phase-1 setting needs an inference rank");
        let eval = DeltaEvaluator::new(self.system, rank, initial.pdag.clone());
        self.recover_cold(indicator, eval, initial.t_min_us)
    }

    /// The warm start and phase 2 of a warm [`Allocator::plan`] alone, under
    /// a caller-supplied `T_min`. Kept for the benchmark's trace until a
    /// `[benchmark]` change moves it onto `plan`. Panics on a cluster
    /// without inference devices.
    pub fn allocate_warm_with_tmin(
        &self,
        indicator: &dyn SensitivityIndicator,
        warm: &PrecisionDag,
        t_min_us: f64,
    ) -> (PrecisionPlan, AllocationReport) {
        let rank = self.planning_rank().expect("a warm start needs an inference rank");
        let eval = DeltaEvaluator::new(self.system, rank, clamp_warm(self.system, rank, warm));
        self.warm_start(indicator, eval, t_min_us)
    }

    /// Phase 1 on the incremental evaluator, under a cooperative-preemption
    /// budget: at most `max_evals` precision combinations are scored across
    /// the whole pass (`None` = unbounded). When the budget runs out the
    /// current instance commits its best-so-far at the evaluator's
    /// begin/stage/commit seam and the remaining instances stay uniform
    /// lowest, so a long brute-force pass can never occupy a worker past the
    /// budget while still producing a valid (feasible, consistent) setting.
    /// Returns the evaluator positioned at the initial assignment, so phase
    /// 2 can continue without rebuilding caches.
    fn initial_pass(
        &self,
        rank: usize,
        max_evals: Option<u64>,
    ) -> (DeltaEvaluator<'a>, InitialPassReport) {
        let sys = self.system;
        let dag = sys.dag();
        let device = &sys.cluster.devices[rank];
        let candidates = sys.candidates_for(rank);
        let lowest = candidates[0];
        let mut report = InitialPassReport::default();
        let mut evals_left = max_evals;
        let mut eval = DeltaEvaluator::new(sys, rank, PrecisionDag::uniform(dag, lowest));
        if candidates.len() == 1 {
            return (eval, report);
        }

        // Memory headroom left after the most compressed assignment.
        let base_mem = eval.memory_bytes();
        let capacity = device.available_memory_bytes();
        let slack = capacity.saturating_sub(base_mem);

        let groups = sys.model().subgraphs();
        let total_lowest_bytes: u64 = groups
            .iter()
            .flat_map(|g| g.instances.iter())
            .flat_map(|inst| inst.iter())
            .map(|id| instance_bytes(dag, *id, lowest))
            .sum::<u64>()
            .max(1);

        for group in groups {
            for instance in &group.instances {
                if instance.len() > 6 {
                    continue; // brute force only on small blocks; large ones stay lowest
                }
                let inst_lowest: u64 =
                    instance.iter().map(|id| instance_bytes(dag, *id, lowest)).sum();
                let budget = (slack as u128 * inst_lowest as u128 / total_lowest_bytes as u128) as u64;
                let best = brute_force_instance(
                    &mut eval,
                    instance,
                    &candidates,
                    lowest,
                    budget,
                    &mut evals_left,
                    &mut report,
                );
                eval.begin();
                for (id, p) in instance.iter().zip(best) {
                    eval.stage(*id, p);
                }
                eval.commit();
            }
        }
        // Safety: if the brute force overshot the device memory, fall back to uniform lowest.
        if !eval.memory_ok() {
            eval = DeltaEvaluator::new(sys, rank, PrecisionDag::uniform(dag, lowest));
        }
        (eval, report)
    }

    /// Warm start from the evaluator's assignment, a clamped warm one: demote
    /// until it fits and honours the `t_min` bound, then recover under it.
    fn warm_start(
        &self,
        indicator: &dyn SensitivityIndicator,
        mut eval: DeltaEvaluator<'a>,
        t_min: f64,
    ) -> (PrecisionPlan, AllocationReport) {
        let sys = self.system;
        let dag = sys.dag();
        let candidates = sys.candidates_for(eval.rank());
        let mut report = AllocationReport::default();

        // The cheapest single demotion: smallest indicator increase (the
        // inverse of the recovery heap's order). None when already uniform
        // lowest.
        let cheapest_demotion = |pdag: &PrecisionDag| {
            let mut best: Option<(f64, qsync_graph::NodeId, Precision)> = None;
            for id in dag.adjustable_ops() {
                let current = pdag.get(id);
                let Some(lower) = candidates.iter().copied().rfind(|c| *c < current) else {
                    continue;
                };
                let increase = indicator.omega(dag, id, lower) - indicator.omega(dag, id, current);
                if best.is_none_or(|(b, _, _)| increase < b) {
                    best = Some((increase, id, lower));
                }
            }
            best.map(|(_, id, lower)| (id, lower))
        };

        // Demote until the assignment fits device memory.
        while !eval.memory_ok() {
            let Some((id, lower)) = cheapest_demotion(eval.pdag()) else {
                break; // already uniform lowest; nothing left to demote
            };
            eval.propose(id, lower);
            eval.commit();
            report.warm_demotions += 1;
            report.candidates_evaluated += 1;
        }

        // Demote until the assignment honours the throughput bound the cold
        // allocator enforces. A compute-degraded device can make the cached
        // (mostly recovered) assignment far slower than `T_min * tol`, and
        // recovery can only promote, never repair that. Answered entirely
        // from the incremental evaluator — no full-plan prediction at all.
        let tol = 1.0 + sys.config.throughput_tolerance;
        let mut warm_t = eval.iteration_us();
        while warm_t > t_min * tol {
            let Some((id, lower)) = cheapest_demotion(eval.pdag()) else {
                break;
            };
            eval.propose(id, lower);
            eval.commit();
            report.warm_demotions += 1;
            report.candidates_evaluated += 1;
            warm_t = eval.iteration_us();
        }

        report.t_min_us = t_min;
        report.final_us = warm_t;
        self.recover(indicator, eval, t_min, report)
    }

    /// Phase 2 from the evaluator's assignment, which is the `t_min` plan
    /// itself (phase 1's).
    fn recover_cold(
        &self,
        indicator: &dyn SensitivityIndicator,
        eval: DeltaEvaluator<'a>,
        t_min: f64,
    ) -> (PrecisionPlan, AllocationReport) {
        let report = AllocationReport { t_min_us: t_min, final_us: t_min, ..Default::default() };
        self.recover(indicator, eval, t_min, report)
    }

    /// Phase 2: indicator-guided precision recovery from the evaluator's current
    /// assignment under the `t_min` throughput bound. Shared by cold and warm
    /// allocations.
    fn recover(
        &self,
        indicator: &dyn SensitivityIndicator,
        mut eval: DeltaEvaluator<'a>,
        t_min: f64,
        mut report: AllocationReport,
    ) -> (PrecisionPlan, AllocationReport) {
        let sys = self.system;
        let dag = sys.dag();
        let tol = 1.0 + sys.config.throughput_tolerance;
        let candidates = sys.candidates_for(eval.rank());
        let next_of = |p: Precision| -> Option<Precision> {
            candidates.iter().copied().find(|c| *c > p)
        };

        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for id in dag.adjustable_ops() {
            let current = eval.pdag().get(id);
            if let Some(next) = next_of(current) {
                let dec = indicator.omega(dag, id, current) - indicator.omega(dag, id, next);
                heap.push(Candidate { decrement: dec, node: id, next });
            }
        }

        while let Some(c) = heap.pop() {
            eval.propose(c.node, c.next);
            report.candidates_evaluated += 1;
            if !eval.memory_ok() {
                eval.rollback();
                report.promotions_rejected += 1;
                continue;
            }
            let t = eval.iteration_us();
            if t <= t_min * tol {
                eval.commit();
                report.promotions_accepted += 1;
                report.final_us = t;
                if let Some(next) = next_of(c.next) {
                    let dec = indicator.omega(dag, c.node, c.next) - indicator.omega(dag, c.node, next);
                    heap.push(Candidate { decrement: dec, node: c.node, next });
                }
            } else {
                eval.rollback();
                report.promotions_rejected += 1;
            }
        }

        let plan = PrecisionPlan::from_inference_pdag("qsync", dag, &sys.cluster, eval.pdag());
        (plan, report)
    }
}

/// The precision a device with `candidates` runs a warm operator at: `wanted`, or
/// the nearest supported candidate below it.
fn clamp(candidates: &[Precision], wanted: Precision) -> Precision {
    candidates.iter().copied().rfind(|c| *c <= wanted).unwrap_or(candidates[0])
}

/// Re-derive a warm assignment on the system's DAG, clamped to rank `rank`'s device
/// (see [`clamp`]).
fn clamp_warm(sys: &QSyncSystem, rank: usize, warm: &PrecisionDag) -> PrecisionDag {
    let (dag, topology) = (sys.dag(), sys.model().topology());
    let candidates = sys.candidates_for(rank);
    let mut pdag = PrecisionDag::uniform(dag, candidates[0]);
    for id in dag.adjustable_ops() {
        pdag.set_incremental(dag, topology, id, clamp(&candidates, warm.get(id)));
    }
    pdag
}

/// Decode combination `combo_idx` into base-`n_candidates` digits (one digit
/// = one instance node's candidate index).
fn decode_combo(combo_idx: usize, n_candidates: usize, digits: &mut [usize]) {
    let mut idx = combo_idx;
    for digit in digits.iter_mut() {
        *digit = idx % n_candidates;
        idx /= n_candidates;
    }
}

/// Enumerate the precision combinations of one subgraph instance and return the
/// latency-minimal one whose extra memory (relative to all-lowest) fits `budget`.
///
/// Per-node byte costs are tabulated once per (instance, candidate set) before the
/// enumeration, so the feasibility check is pure arithmetic. A feasible combination
/// is scored from the instance's per-node cost tables
/// ([`DeltaEvaluator::instance_costs`], filled on the first scored combination):
/// the same per-node term, summed in the same order, as staging the combination
/// and reading the evaluator's cached node costs would give, without staging
/// anything. `eval` ends the scan as it started. Combinations are visited in index
/// order and only a strictly cheaper one replaces the best, so the earliest fastest
/// combination wins.
///
/// `evals_left` is the cooperative-preemption budget shared across the whole
/// initial pass: each scored combination spends one (infeasible ones spend
/// nothing); at zero the enumeration stops and the best combination found so far
/// is returned (the caller commits it — the checkpoint). `report` accumulates the
/// spend.
fn brute_force_instance(
    eval: &mut DeltaEvaluator<'_>,
    instance: &[NodeId],
    candidates: &[Precision],
    lowest: Precision,
    budget: u64,
    evals_left: &mut Option<u64>,
    report: &mut InitialPassReport,
) -> Vec<Precision> {
    let k = instance.len();
    let n_comb = candidates.len().pow(k as u32);
    // Byte tables: bytes of each instance node at each candidate precision, and the
    // extra over the all-lowest assignment (the only quantity the budget check needs).
    let extra_bytes: Vec<Vec<u64>> = {
        let dag = eval.system().dag();
        instance
            .iter()
            .map(|id| {
                let lowest_b = instance_bytes(dag, *id, lowest);
                candidates
                    .iter()
                    .map(|&p| instance_bytes(dag, *id, p).saturating_sub(lowest_b))
                    .collect()
            })
            .collect()
    };

    let mut digits = vec![0usize; k];
    let mut costs = None;
    let mut best_cost = f64::INFINITY;
    let mut best_idx: Option<usize> = None;
    for combo_idx in 0..n_comb {
        decode_combo(combo_idx, candidates.len(), &mut digits);
        // Extra memory over the all-lowest assignment, served from the byte tables.
        let extra: u64 =
            digits.iter().enumerate().map(|(node_i, &ci)| extra_bytes[node_i][ci]).sum();
        if extra > budget {
            continue;
        }
        if let Some(left) = evals_left {
            if *left == 0 {
                report.preempted = true;
                break;
            }
            *left -= 1;
        }
        report.evals += 1;
        // Local latency of the instance under this combo (op cost + casting).
        let cost = costs
            .get_or_insert_with(|| eval.instance_costs(instance, candidates))
            .cost(&digits);
        if cost < best_cost {
            best_cost = cost;
            best_idx = Some(combo_idx);
        }
    }
    match best_idx {
        Some(combo_idx) => {
            decode_combo(combo_idx, candidates.len(), &mut digits);
            digits.iter().map(|&ci| candidates[ci]).collect()
        }
        None => vec![lowest; k],
    }
}

/// Bytes attributable to one operator at one precision (saved activation + weight copy),
/// used for the per-subgraph memory budgeting.
fn instance_bytes(dag: &qsync_graph::ModelDag, id: NodeId, p: Precision) -> u64 {
    let node = dag.node(id);
    (node.output_numel() as u64 + node.weight_numel() as u64) * p.bytes() as u64
}

// ---------------------------------------------------------------------------
// Reference (non-incremental) implementations.
//
// These are the pre-DeltaEvaluator code paths, kept verbatim as the differential
// suites' reference: they assert that the incremental allocator produces
// byte-identical plans. They clone the precision DAG, replicate it into a full
// `PrecisionPlan` and replay the global DFG for every candidate — do not use them
// outside tests.
// ---------------------------------------------------------------------------

impl<'a> Allocator<'a> {
    /// Reference phase 1: the non-incremental `initial_pass`.
    fn initial_for_device_reference(&self, rank: usize) -> PrecisionDag {
        let sys = self.system;
        let dag = sys.dag();
        let device = &sys.cluster.devices[rank];
        let candidates = sys.candidates_for(rank);
        let lowest = candidates[0];
        let mut pdag = PrecisionDag::uniform(dag, lowest);
        if candidates.len() == 1 {
            return pdag;
        }

        let base_mem = sys.memory_bytes(rank, &pdag);
        let capacity = device.available_memory_bytes();
        let slack = capacity.saturating_sub(base_mem);

        let mapper = CostMapper::new(sys.model(), sys.profile(rank), sys.casting(rank), device);
        let groups = find_repeating_subgraphs(dag);
        let total_lowest_bytes: u64 = groups
            .iter()
            .flat_map(|g| g.instances.iter())
            .flat_map(|inst| inst.iter())
            .map(|id| instance_bytes(dag, *id, lowest))
            .sum::<u64>()
            .max(1);

        for group in &groups {
            for instance in &group.instances {
                if instance.len() > 6 {
                    continue;
                }
                let inst_lowest: u64 = instance.iter().map(|id| instance_bytes(dag, *id, lowest)).sum();
                let budget = (slack as u128 * inst_lowest as u128 / total_lowest_bytes as u128) as u64;
                let best =
                    self.brute_force_instance_reference(&mapper, &mut pdag, instance, &candidates, lowest, budget);
                for (id, p) in instance.iter().zip(best) {
                    if pdag.get(*id) != p {
                        let _ = pdag.set(dag, *id, p);
                    }
                }
            }
        }
        if !sys.memory_ok(rank, &pdag) {
            pdag = PrecisionDag::uniform(dag, lowest);
        }
        pdag
    }

    /// Reference brute force: recomputes `instance_bytes` per combination and applies
    /// combos through full `PrecisionDag::set` propagation.
    fn brute_force_instance_reference(
        &self,
        mapper: &CostMapper<'_>,
        pdag: &mut PrecisionDag,
        instance: &[NodeId],
        candidates: &[Precision],
        lowest: Precision,
        budget: u64,
    ) -> Vec<Precision> {
        let dag = self.system.dag();
        let k = instance.len();
        let n_comb = candidates.len().pow(k as u32);
        let mut best_combo = vec![lowest; k];
        let mut best_cost = f64::INFINITY;
        let saved: Vec<Precision> = instance.iter().map(|id| pdag.get(*id)).collect();
        for combo_idx in 0..n_comb {
            let mut idx = combo_idx;
            let combo: Vec<Precision> = (0..k)
                .map(|_| {
                    let c = candidates[idx % candidates.len()];
                    idx /= candidates.len();
                    c
                })
                .collect();
            let extra: u64 = instance
                .iter()
                .zip(&combo)
                .map(|(id, &p)| instance_bytes(dag, *id, p).saturating_sub(instance_bytes(dag, *id, lowest)))
                .sum();
            if extra > budget {
                continue;
            }
            for (id, &p) in instance.iter().zip(&combo) {
                let _ = pdag.set(dag, *id, p);
            }
            let cost: f64 = instance
                .iter()
                .map(|&id| {
                    let p = pdag.get(id);
                    let op = self.system.profile(mapper.device.id).get_or_fp32(id, p);
                    op.fwd_us + op.bwd_us + mapper.forward_cast_us(pdag, id) + mapper.backward_cast_us(pdag, id)
                })
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_combo = combo;
            }
        }
        for (id, &p) in instance.iter().zip(&saved) {
            if pdag.get(*id) != p {
                let _ = pdag.set(dag, *id, p);
            }
        }
        best_combo
    }

    /// Reference cold allocation: the non-incremental [`Allocator::plan`] with no
    /// warm start and no budget.
    pub fn allocate_reference(
        &self,
        indicator: &dyn SensitivityIndicator,
    ) -> (PrecisionPlan, AllocationReport) {
        let sys = self.system;
        let inference = sys.cluster.inference_ranks();
        if inference.is_empty() {
            let plan = PrecisionPlan::oracle(sys.dag(), &sys.cluster);
            let t = sys.predict_iteration_us(&plan);
            return (
                plan,
                AllocationReport { t_min_us: t, final_us: t, full_predicts: 1, ..Default::default() },
            );
        }
        let rank = inference[0];
        let pdag = self.initial_for_device_reference(rank);
        let initial_plan =
            PrecisionPlan::from_inference_pdag("qsync_initial", sys.dag(), &sys.cluster, &pdag);
        let t_min = sys.predict_iteration_us(&initial_plan);
        let report =
            AllocationReport { t_min_us: t_min, final_us: t_min, full_predicts: 1, ..Default::default() };
        self.recover_reference(indicator, pdag, rank, t_min, report)
    }

    /// Reference warm allocation: the non-incremental warm start of
    /// [`Allocator::plan`] (no budget), rebuilding a full
    /// `PrecisionPlan` per demotion.
    pub fn allocate_warm_reference(
        &self,
        indicator: &dyn SensitivityIndicator,
        warm: &PrecisionDag,
    ) -> (PrecisionPlan, AllocationReport) {
        let sys = self.system;
        let dag = sys.dag();
        let inference = sys.cluster.inference_ranks();
        if inference.is_empty() {
            return self.allocate_reference(indicator);
        }
        if warm.len() != dag.len() {
            return self.allocate_reference(indicator);
        }
        let rank = inference[0];
        let candidates = sys.candidates_for(rank);
        let mut pdag = PrecisionDag::uniform(dag, candidates[0]);
        for id in dag.adjustable_ops() {
            let _ = pdag.set(dag, id, clamp(&candidates, warm.get(id)));
        }

        let cheapest_demotion = |pdag: &PrecisionDag| {
            let mut best: Option<(f64, qsync_graph::NodeId, Precision)> = None;
            for id in dag.adjustable_ops() {
                let current = pdag.get(id);
                let Some(lower) = candidates.iter().copied().rfind(|c| *c < current) else {
                    continue;
                };
                let increase = indicator.omega(dag, id, lower) - indicator.omega(dag, id, current);
                if best.is_none_or(|(b, _, _)| increase < b) {
                    best = Some((increase, id, lower));
                }
            }
            best.map(|(_, id, lower)| (id, lower))
        };

        let mut report = AllocationReport::default();
        while !sys.memory_ok(rank, &pdag) {
            let Some((id, lower)) = cheapest_demotion(&pdag) else {
                break;
            };
            let _ = pdag.set(dag, id, lower);
            report.warm_demotions += 1;
        }

        // Mirror of the incremental path's bound: the brute-force fastest
        // plan's latency on the current cluster (the cold allocator's
        // `T_min`), not the uniform lowest-precision stand-in.
        let initial = self.initial_for_device_reference(rank);
        let t_min = sys.predict_iteration_us(&PrecisionPlan::from_inference_pdag(
            "qsync_initial",
            dag,
            &sys.cluster,
            &initial,
        ));
        report.full_predicts += 1;
        let tol = 1.0 + sys.config.throughput_tolerance;
        let mut warm_t = sys.predict_iteration_us(&PrecisionPlan::from_inference_pdag(
            "qsync_warm",
            dag,
            &sys.cluster,
            &pdag,
        ));
        report.full_predicts += 1;
        while warm_t > t_min * tol {
            let Some((id, lower)) = cheapest_demotion(&pdag) else {
                break;
            };
            let _ = pdag.set(dag, id, lower);
            report.warm_demotions += 1;
            warm_t = sys.predict_iteration_us(&PrecisionPlan::from_inference_pdag(
                "qsync_warm",
                dag,
                &sys.cluster,
                &pdag,
            ));
            report.full_predicts += 1;
        }

        report.t_min_us = t_min;
        report.final_us = warm_t;
        self.recover_reference(indicator, pdag, rank, t_min, report)
    }

    /// Reference phase 2: clones the DAG and replays a freshly built plan per
    /// candidate.
    fn recover_reference(
        &self,
        indicator: &dyn SensitivityIndicator,
        mut pdag: PrecisionDag,
        rank: usize,
        t_min: f64,
        mut report: AllocationReport,
    ) -> (PrecisionPlan, AllocationReport) {
        let sys = self.system;
        let dag = sys.dag();
        let tol = 1.0 + sys.config.throughput_tolerance;
        let candidates = sys.candidates_for(rank);
        let next_of = |p: Precision| -> Option<Precision> {
            candidates.iter().copied().find(|c| *c > p)
        };

        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for id in dag.adjustable_ops() {
            let current = pdag.get(id);
            if let Some(next) = next_of(current) {
                let dec = indicator.omega(dag, id, current) - indicator.omega(dag, id, next);
                heap.push(Candidate { decrement: dec, node: id, next });
            }
        }

        while let Some(c) = heap.pop() {
            let mut tentative = pdag.clone();
            let _ = tentative.set(dag, c.node, c.next);
            if !sys.memory_ok(rank, &tentative) {
                report.promotions_rejected += 1;
                continue;
            }
            let plan = PrecisionPlan::from_inference_pdag("qsync_tentative", dag, &sys.cluster, &tentative);
            let t = sys.predict_iteration_us(&plan);
            report.full_predicts += 1;
            if t <= t_min * tol {
                pdag = tentative;
                report.promotions_accepted += 1;
                report.final_us = t;
                if let Some(next) = next_of(c.next) {
                    let dec = indicator.omega(dag, c.node, c.next) - indicator.omega(dag, c.node, next);
                    heap.push(Candidate { decrement: dec, node: c.node, next });
                }
            } else {
                report.promotions_rejected += 1;
            }
        }

        let plan = PrecisionPlan::from_inference_pdag("qsync", dag, &sys.cluster, &pdag);
        (plan, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_cluster::topology::ClusterSpec;
    use qsync_graph::models::small_mlp;
    use crate::system::QSyncConfig;

    fn system(cluster: ClusterSpec) -> QSyncSystem {
        QSyncSystem::new(small_mlp(64, 512, 1024, 16), cluster, QSyncConfig::default())
    }

    /// Phase 1 alone under `budget`, as `plan` runs it.
    fn budgeted(
        alloc: &Allocator<'_>,
        rank: usize,
        budget: Option<u64>,
    ) -> (InitialSetting, InitialPassReport) {
        let (mut eval, pass) = alloc.initial_pass(rank, budget);
        (InitialSetting::at(&mut eval), pass)
    }

    #[test]
    fn allocation_does_not_reduce_throughput() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let (plan, report) = alloc.allocate(&sys.indicator());
        let t = sys.predict_iteration_us(&plan);
        assert!(t <= report.t_min_us * (1.0 + sys.config.throughput_tolerance) + 1e-6);
        assert!(report.promotions_accepted + report.promotions_rejected > 0);
    }

    #[test]
    fn allocation_recovers_precision_relative_to_the_initial_plan() {
        // On ClusterA-like memory there is slack: QSync should recover at least some
        // operators to a higher precision than the uniform lowest-precision plan.
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let (plan, _) = alloc.allocate(&sys.indicator());
        let rank = sys.cluster.inference_ranks()[0];
        let lowest = sys.candidates_for(rank)[0];
        let n_lowest = plan.count_adjustable_at(sys.dag(), rank, lowest);
        assert!(
            n_lowest < sys.dag().adjustable_ops().len(),
            "no operator was recovered above {lowest}"
        );
    }

    #[test]
    fn qsync_plan_has_lower_variance_than_uniform() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let (plan, _) = alloc.allocate(&sys.indicator());
        let rank = sys.cluster.inference_ranks()[0];
        let lowest = sys.candidates_for(rank)[0];
        let uniform = PrecisionPlan::uniform(sys.dag(), &sys.cluster, lowest);
        assert!(sys.variance_ratio(&plan) < sys.variance_ratio(&uniform));
    }

    #[test]
    fn training_devices_stay_at_full_precision() {
        let sys = system(ClusterSpec::hybrid_small());
        let (plan, _) = Allocator::new(&sys).allocate(&sys.indicator());
        for rank in sys.cluster.training_ranks() {
            assert_eq!(
                plan.count_adjustable_at(sys.dag(), rank, Precision::Fp32),
                sys.dag().adjustable_ops().len()
            );
        }
    }

    #[test]
    fn memory_constrained_devices_keep_more_low_precision_operators() {
        let roomy = system(ClusterSpec::cluster_a(1, 1));
        let tight = system(ClusterSpec::cluster_b(1, 1, 0.05));
        let (plan_roomy, _) = Allocator::new(&roomy).allocate(&roomy.indicator());
        let (plan_tight, _) = Allocator::new(&tight).allocate(&tight.indicator());
        let rank_roomy = roomy.cluster.inference_ranks()[0];
        let rank_tight = tight.cluster.inference_ranks()[0];
        let fp32_roomy = plan_roomy.count_adjustable_at(roomy.dag(), rank_roomy, Precision::Fp32);
        let fp32_tight = plan_tight.count_adjustable_at(tight.dag(), rank_tight, Precision::Fp32);
        assert!(
            fp32_tight <= fp32_roomy,
            "tight memory ({fp32_tight} fp32 ops) should not recover more than roomy memory ({fp32_roomy})"
        );
    }

    #[test]
    fn initial_plan_fits_memory() {
        let sys = system(ClusterSpec::cluster_b(1, 1, 0.3));
        let alloc = Allocator::new(&sys);
        let rank = sys.cluster.inference_ranks()[0];
        let pdag = alloc.initial_setting(rank).pdag;
        // The initial plan is either memory-feasible or the most compressed possible.
        let lowest = sys.candidates_for(rank)[0];
        let most_compressed = PrecisionDag::uniform(sys.dag(), lowest);
        assert!(
            sys.memory_ok(rank, &pdag)
                || sys.memory_bytes(rank, &pdag) <= sys.memory_bytes(rank, &most_compressed)
        );
    }

    #[test]
    fn allocate_from_initial_is_byte_identical_to_cold() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let rank = sys.cluster.inference_ranks()[0];
        let cold = alloc.plan(&sys.indicator(), None, None);
        let (initial, _) = cold.initial.expect("a plan on an inference rank runs phase 1");
        assert_eq!(initial, alloc.initial_setting(rank));
        let (plan, report) = alloc.allocate_from_initial(&sys.indicator(), &initial);
        assert_eq!(cold.plan.to_json(), plan.to_json());
        assert_eq!(cold.report.t_min_us.to_bits(), report.t_min_us.to_bits());
        assert_eq!(cold.report.final_us.to_bits(), report.final_us.to_bits());
        assert_eq!(cold.report.promotions_accepted, report.promotions_accepted);
    }

    #[test]
    fn allocate_warm_with_tmin_is_byte_identical_to_warm() {
        // Plan on the full cluster, then warm-replan onto a shrunk one both
        // ways: through `plan`, and from phase 1's T_min through the wrapper.
        let sys_full = system(ClusterSpec::hybrid_small());
        let (plan, _) = Allocator::new(&sys_full).allocate(&sys_full.indicator());
        let rank_full = sys_full.cluster.inference_ranks()[0];
        let warm = plan.device(rank_full).clone();

        let sys_shrunk = system(ClusterSpec::cluster_b(1, 1, 0.5));
        let alloc = Allocator::new(&sys_shrunk);
        let rank = sys_shrunk.cluster.inference_ranks()[0];
        let initial = alloc.initial_setting(rank);
        let planned = alloc.plan(&sys_shrunk.indicator(), Some(&warm), None);
        assert_eq!(planned.initial.map(|(setting, _)| setting), Some(initial.clone()));
        let (warm_plan, warm_report) = (planned.plan, planned.report);
        let (plan, report) =
            alloc.allocate_warm_with_tmin(&sys_shrunk.indicator(), &warm, initial.t_min_us);
        assert_eq!(warm_plan.to_json(), plan.to_json());
        assert_eq!(warm_report.t_min_us.to_bits(), report.t_min_us.to_bits());
        assert_eq!(warm_report.warm_demotions, report.warm_demotions);
        assert_eq!(warm_report.promotions_accepted, report.promotions_accepted);
    }

    #[test]
    fn unbounded_budget_matches_the_plain_initial_setting() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let rank = sys.cluster.inference_ranks()[0];
        let plain = alloc.initial_setting(rank);
        let (budgeted, report) = budgeted(&alloc, rank, Some(u64::MAX));
        assert_eq!(plain, budgeted);
        assert!(!report.preempted);
        assert!(report.evals > 0, "the exhaustive pass scored combinations");
    }

    #[test]
    fn eval_budget_preempts_deterministically_and_stays_feasible() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let rank = sys.cluster.inference_ranks()[0];
        let (_, full_report) = budgeted(&alloc, rank, None);
        let budget = full_report.evals / 2;
        let (a, report_a) = budgeted(&alloc, rank, Some(budget));
        let (b, report_b) = budgeted(&alloc, rank, Some(budget));
        // Preempted, spent exactly the budget, and byte-reproducible.
        assert!(report_a.preempted);
        assert_eq!(report_a.evals, budget);
        assert_eq!(report_a, report_b);
        assert_eq!(a, b, "a budgeted pass is deterministic for its budget");
        // The checkpointed setting is still valid: feasible (or maximally
        // compressed) and consistent enough to drive recovery.
        let lowest = sys.candidates_for(rank)[0];
        let most_compressed = PrecisionDag::uniform(sys.dag(), lowest);
        assert!(
            sys.memory_ok(rank, &a.pdag)
                || sys.memory_bytes(rank, &a.pdag) <= sys.memory_bytes(rank, &most_compressed)
        );
        // A budgeted plan runs exactly the budgeted pass and recovers from it.
        let cold = alloc.plan(&sys.indicator(), None, Some(budget));
        assert_eq!(cold.plan.device(rank).len(), sys.dag().len());
        assert_eq!(cold.initial, Some((a.clone(), report_a)));
        let replay = alloc.allocate_from_initial(&sys.indicator(), &a).0;
        assert_eq!(cold.plan.to_json(), replay.to_json());
        // A zero budget degenerates to uniform lowest — the ultimate
        // checkpoint — and still plans.
        let (zero, zero_report) = budgeted(&alloc, rank, Some(0));
        assert!(zero_report.preempted);
        assert_eq!(zero_report.evals, 0);
        assert_eq!(zero.pdag, most_compressed);

        // Budgets straddling every regime on a pass long enough to have
        // them: zero, mid-pass preemption (where the checkpointed
        // best-so-far matters), exactly exhausted, unbounded.
        let vgg = QSyncSystem::new(
            qsync_graph::models::vgg16bn(2, 32),
            ClusterSpec::hybrid_small(),
            QSyncConfig::default(),
        );
        let alloc = Allocator::new(&vgg);
        let rank = vgg.cluster.inference_ranks()[0];
        let unbounded = budgeted(&alloc, rank, None).1.evals;
        assert!(unbounded > 8, "budget sweep needs a non-trivial eval count, got {unbounded}");
        for budget in [0, 1, 2, 7, unbounded / 2, unbounded - 1, unbounded, unbounded + 1] {
            let (_, report) = budgeted(&alloc, rank, Some(budget));
            assert_eq!(
                report.preempted,
                budget < unbounded,
                "budget {budget} of {unbounded}: preemption flag"
            );
            assert_eq!(report.evals, budget.min(unbounded), "budget {budget}: evals spent");
        }
    }

    #[test]
    fn stale_initial_setting_falls_back_to_cold_allocation() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        // A warm assignment for a *different* model (wrong node count) must
        // be ignored: the plan is cold.
        let other = QSyncSystem::new(
            qsync_graph::models::small_cnn(4, 16, 4),
            ClusterSpec::hybrid_small(),
            QSyncConfig::default(),
        );
        let stale = Allocator::new(&other).initial_setting(other.cluster.inference_ranks()[0]);
        let (cold_plan, _) = alloc.allocate(&sys.indicator());
        let warm = alloc.plan(&sys.indicator(), Some(&stale.pdag), None);
        assert_eq!(warm.report.warm_demotions, 0);
        assert_eq!(cold_plan.to_json(), warm.plan.to_json());
    }

    #[test]
    fn a_cluster_without_inference_devices_gets_the_oracle_plan() {
        let sys = system(ClusterSpec::cluster_a(2, 0));
        let alloc = Allocator::new(&sys);
        let int8 = PrecisionDag::uniform(sys.dag(), Precision::Int8);
        let oracle = PrecisionPlan::oracle(sys.dag(), &sys.cluster).to_json();
        for warm in [None, Some(&int8)] {
            let allocation = alloc.plan(&sys.indicator(), warm, Some(0));
            assert_eq!(allocation.plan.to_json(), oracle);
            assert_eq!((allocation.rank, allocation.initial), (None, None));
            assert_eq!(allocation.report.t_min_us.to_bits(), allocation.report.final_us.to_bits());
            assert_eq!(allocation.report.full_predicts, 1);
        }
    }

    #[test]
    fn incremental_allocation_avoids_per_candidate_full_predictions() {
        let sys = system(ClusterSpec::hybrid_small());
        let alloc = Allocator::new(&sys);
        let (_, report) = alloc.allocate(&sys.indicator());
        assert!(report.candidates_evaluated > 0);
        assert_eq!(report.full_predicts, 0, "cold allocation should never replay a full plan");
        let (_, reference) = alloc.allocate_reference(&sys.indicator());
        assert!(
            reference.full_predicts > report.full_predicts,
            "the reference path pays one full replay per candidate"
        );
    }
}
