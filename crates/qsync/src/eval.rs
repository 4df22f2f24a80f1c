//! Incremental plan evaluation for the allocator hot loop.
//!
//! The allocator's precision-recovery phase pops one candidate per operator-step and
//! must answer two questions for each: *does the plan still fit device memory?* and
//! *what is the predicted iteration latency now?* Answering them from scratch means
//! cloning the [`PrecisionDag`], replicating it into a full [`PrecisionPlan`], building
//! a timed local DFG for every device and replaying the global DFG — `O(promotions ×
//! |DAG| × devices)` over the whole recovery loop.
//!
//! [`DeltaEvaluator`] instead keeps, per inference rank, the four timeline
//! contributions of every operator ([`NodeCost`]: forward/backward cast and pure
//! execution cost) plus running per-node memory contributions, and updates only the
//! operators a precision change actually touches: the changed set reported by
//! [`PrecisionDag::set_incremental`] and its direct successors (whose input casts see a
//! different producer precision). Memory is maintained as an exact running `u64` total,
//! so the memory constraint is answered in `O(changed · degree)`.
//!
//! Latency is re-derived by summing the *cached* per-node costs along the fixed DFG
//! skeleton in the exact entry order [`Simulator::simulate`] walks — deliberately not by
//! floating-point delta updates: re-summing in canonical order makes the result
//! **bit-identical** to the full predictor (`f64` addition is not associative, and the
//! allocator's accept/reject decisions sit behind `t <= t_min · tol` comparisons), while
//! the expensive per-candidate work (profile lookups, casting-model evaluation, DFG and
//! plan construction, trace materialisation) is all eliminated. The remaining
//! per-candidate cost is a branch-light fused sum over two flat arrays.
//!
//! What an evaluator owns follows what it depends on. The graph-shaped parts — the
//! topology and the op sequence of the local-DFG skeleton — are **per model** and
//! borrowed from the system's [`ModelContext`]; the profile table behind each cost
//! mapper is **per (model, device)** and borrowed from the system; only the working
//! state is the evaluator's own: the assignment, the cached node costs, the memory
//! tables and the small per-rank timelines (**per cluster shape**). Building one costs
//! a node-cost pass per inference rank and a skeleton walk per training rank.
//!
//! Changes are transactional: [`DeltaEvaluator::begin`] opens a transaction,
//! [`DeltaEvaluator::stage`] applies any number of operator moves, and
//! [`DeltaEvaluator::commit`] / [`DeltaEvaluator::rollback`] keep or undo them — which
//! is exactly the shape of the recovery loop (tentatively promote, test, keep or
//! revert), the warm-start demotion loops, and the initial-setting brute force
//! (apply a combination, score it, restore).
//!
//! [`Simulator::simulate`]: crate::replayer::Simulator::simulate
//! [`PrecisionPlan`]: crate::plan::PrecisionPlan

use std::collections::BTreeSet;

use qsync_lp_kernels::precision::Precision;
use qsync_graph::{DfgOp, LocalDfg, NodeId, OpCategory, PrecisionDag};

use crate::context::ModelContext;
use crate::replayer::cost_mapper::NodeCost;
use crate::replayer::CostMapper;
use crate::system::QSyncSystem;

/// Whether a device's timeline is constant (training ranks pinned to FP32) or tracks
/// the shared inference precision DAG.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Training rank: timeline precomputed once. Payload indexes `fixed_*`.
    Fixed(usize),
    /// Inference rank: timeline re-derived from cached node costs. Payload indexes
    /// `mappers` / `costs` / `inf_*`.
    Inference(usize),
}

/// Undo log of one open transaction.
#[derive(Debug)]
struct Undo {
    /// `(node, previous precision)` pairs in change order
    /// ([`PrecisionDag::set_incremental_logged`]'s log).
    bits: Vec<(NodeId, Precision)>,
    /// `(inference index, node, previous cost)` in touch order.
    costs: Vec<(usize, usize, NodeCost)>,
    /// `(node, previous stored activation bytes-per-element)` in touch order.
    stored: Vec<(usize, u64)>,
    /// `(node, previous memory contribution)` in touch order.
    contrib: Vec<(usize, u64)>,
    /// Memory total as of `begin()`.
    total: u64,
}

/// Incremental evaluator of one inference precision DAG against a [`QSyncSystem`].
///
/// Holds the working [`PrecisionDag`] (shared by every inference rank, as
/// [`PrecisionPlan::from_inference_pdag`] replicates it), running per-node memory
/// contributions for the allocator's constraint rank, and cached per-node timeline
/// costs for every inference rank. See the module docs for the evaluation strategy.
///
/// The graph-shaped parts — topology and the DFG skeleton — are *borrowed* from the
/// system's [`ModelContext`], so building an evaluator derives neither.
///
/// [`PrecisionPlan::from_inference_pdag`]: crate::plan::PrecisionPlan::from_inference_pdag
pub struct DeltaEvaluator<'a> {
    sys: &'a QSyncSystem,
    /// The system's per-model context: graph, topology and the op sequence of the
    /// (precision-independent) local-DFG skeleton.
    model: &'a ModelContext,
    /// The inference rank whose memory constraint the allocator enforces.
    rank: usize,
    pdag: PrecisionDag,
    /// All-reduce duration per communication slot (payloads are FP32 gradients and do
    /// not depend on the precision assignment).
    slot_durs: Vec<f64>,
    /// Per-rank role, indexed by device rank.
    roles: Vec<Role>,
    /// Constant timelines of training ranks: per-slot ready times, compute end,
    /// optimizer time.
    fixed_ready: Vec<Vec<f64>>,
    fixed_compute_end: Vec<f64>,
    fixed_optimizer: Vec<f64>,
    /// Cost mappers of the inference ranks (profile + casting model per device).
    mappers: Vec<CostMapper<'a>>,
    /// Cached per-node costs, `costs[inference index][node id]`.
    costs: Vec<Vec<NodeCost>>,
    /// Constant optimizer-step time per inference rank.
    inf_optimizer: Vec<f64>,
    /// Bytes-per-element of each node's saved backward activation (the memory
    /// estimator's `stored_bytes` table, maintained incrementally).
    stored_bytes: Vec<u64>,
    /// Per-node contribution to the memory estimate, in bytes.
    mem_contrib: Vec<u64>,
    /// Running memory total (per-node contributions + workspace allowance).
    mem_total: u64,
    undo: Option<Undo>,
}

impl<'a> DeltaEvaluator<'a> {
    /// Build the evaluator for `pdag` on the system's cluster, enforcing the memory
    /// constraint of inference rank `rank`.
    pub fn new(sys: &'a QSyncSystem, rank: usize, pdag: PrecisionDag) -> Self {
        let model: &ModelContext = sys.model();
        let (dag, topology) = (model.dag(), model.topology());
        assert_eq!(pdag.len(), dag.len(), "precision DAG does not match the model");
        let slot_durs: Vec<f64> = model
            .template()
            .iter()
            .filter_map(|op| match op {
                DfgOp::AllReduce { bytes, .. } => Some(sys.comm().allreduce_us(*bytes)),
                _ => None,
            })
            .collect();

        let full = PrecisionDag::full_precision(dag);
        let mut roles = Vec::with_capacity(sys.cluster.world_size());
        let mut fixed_ready = Vec::new();
        let mut fixed_compute_end = Vec::new();
        let mut fixed_optimizer = Vec::new();
        let mut mappers = Vec::new();
        let mut costs = Vec::new();
        let mut inf_optimizer = Vec::new();
        for device in &sys.cluster.devices {
            let mapper =
                CostMapper::new(model, sys.profile(device.id), sys.casting(device.id), device);
            if device.is_inference() {
                roles.push(Role::Inference(mappers.len()));
                costs.push(topology.topo().iter().fold(
                    vec![NodeCost::default(); dag.len()],
                    |mut acc, &id| {
                        acc[id.0] = mapper.node_cost(&pdag, id);
                        acc
                    },
                ));
                inf_optimizer.push(mapper.optimizer_us());
                mappers.push(mapper);
            } else {
                roles.push(Role::Fixed(fixed_ready.len()));
                let local = mapper.build_local_dfg(&full, device.id);
                let (ready, compute_end, optimizer) = timeline(&local, slot_durs.len());
                fixed_ready.push(ready);
                fixed_compute_end.push(compute_end);
                fixed_optimizer.push(optimizer);
            }
        }

        // Memory accounting for the constraint rank, mirroring
        // `MemoryEstimator::estimate` term by term (all integer arithmetic, so the
        // running total stays exactly equal to a fresh estimate).
        let estimator = sys.memory_estimator();
        let mut stored_bytes = vec![4u64; dag.len()];
        for &id in topology.topo() {
            stored_bytes[id.0] = stored_bytes_of(sys, &pdag, &stored_bytes, id);
        }
        let mut mem_contrib = vec![0u64; dag.len()];
        let mut mem_total = estimator.workspace_bytes;
        for node in dag.nodes() {
            let c = mem_contrib_of(sys, &pdag, &stored_bytes, node.id);
            mem_contrib[node.id.0] = c;
            mem_total += c;
        }

        DeltaEvaluator {
            sys,
            model,
            rank,
            pdag,
            slot_durs,
            roles,
            fixed_ready,
            fixed_compute_end,
            fixed_optimizer,
            mappers,
            costs,
            inf_optimizer,
            stored_bytes,
            mem_contrib,
            mem_total,
            undo: None,
        }
    }

    /// The system this evaluator answers against.
    pub fn system(&self) -> &'a QSyncSystem {
        self.sys
    }

    /// The current precision assignment.
    pub fn pdag(&self) -> &PrecisionDag {
        &self.pdag
    }

    /// Consume the evaluator, returning the current assignment.
    pub fn into_pdag(self) -> PrecisionDag {
        self.pdag
    }

    /// The inference rank whose memory constraint is enforced.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Running memory estimate in bytes — exactly equal to
    /// [`QSyncSystem::memory_bytes`] of the current assignment.
    pub fn memory_bytes(&self) -> u64 {
        self.mem_total
    }

    /// Whether the current assignment fits the constraint rank's available memory.
    pub fn memory_ok(&self) -> bool {
        self.mem_total <= self.sys.cluster.devices[self.rank].available_memory_bytes()
    }

    /// Open a transaction. Panics if one is already open.
    pub fn begin(&mut self) {
        assert!(self.undo.is_none(), "a transaction is already open");
        self.undo = Some(Undo {
            bits: Vec::new(),
            costs: Vec::new(),
            stored: Vec::new(),
            contrib: Vec::new(),
            total: self.mem_total,
        });
    }

    /// Move one adjustable operator to `precision` inside the open transaction,
    /// updating the cached costs and the running memory total incrementally.
    ///
    /// Returns the number of nodes whose precision changed (0 when the operator is
    /// already at `precision`).
    pub fn stage(&mut self, id: NodeId, precision: Precision) -> usize {
        let undo = self.undo.as_mut().expect("no open transaction");
        let topology = self.model.topology();
        let log_start = undo.bits.len();
        let n_changed = self.pdag.set_incremental_logged(
            self.model.dag(),
            topology,
            id,
            precision,
            &mut undo.bits,
        );
        if n_changed == 0 {
            return 0;
        }
        let changed: Vec<NodeId> = undo.bits[log_start..].iter().map(|&(n, _)| n).collect();

        // Timeline costs: the changed nodes and their direct successors (whose input
        // casts see a different producer precision).
        let mut affected: BTreeSet<NodeId> = BTreeSet::new();
        for &n in &changed {
            affected.insert(n);
            for &s in topology.succs(n) {
                affected.insert(s);
            }
        }
        for &n in &affected {
            for (i, mapper) in self.mappers.iter().enumerate() {
                undo.costs.push((i, n.0, self.costs[i][n.0]));
                self.costs[i][n.0] = mapper.node_cost(&self.pdag, n);
            }
        }

        // Memory: re-derive the stored-activation bytes through the affected region
        // (worklist in topological order), then refresh the per-node contributions of
        // every node whose precision or stored bytes changed.
        let mut dirty: BTreeSet<NodeId> = changed.iter().copied().collect();
        let mut work: BTreeSet<(usize, NodeId)> =
            changed.iter().map(|&n| (topology.position(n), n)).collect();
        while let Some((_, n)) = work.pop_first() {
            let nb = stored_bytes_of(self.sys, &self.pdag, &self.stored_bytes, n);
            if nb != self.stored_bytes[n.0] {
                undo.stored.push((n.0, self.stored_bytes[n.0]));
                self.stored_bytes[n.0] = nb;
                dirty.insert(n);
                for &s in topology.succs(n) {
                    work.insert((topology.position(s), s));
                }
            }
        }
        for &n in &dirty {
            let c = mem_contrib_of(self.sys, &self.pdag, &self.stored_bytes, n);
            if c != self.mem_contrib[n.0] {
                undo.contrib.push((n.0, self.mem_contrib[n.0]));
                self.mem_total = self.mem_total - self.mem_contrib[n.0] + c;
                self.mem_contrib[n.0] = c;
            }
        }
        n_changed
    }

    /// Keep the staged changes and close the transaction.
    pub fn commit(&mut self) {
        assert!(self.undo.take().is_some(), "no open transaction");
    }

    /// Revert every staged change and close the transaction.
    pub fn rollback(&mut self) {
        let undo = self.undo.take().expect("no open transaction");
        self.pdag.revert(&undo.bits);
        for &(i, n, c) in undo.costs.iter().rev() {
            self.costs[i][n] = c;
        }
        for &(n, b) in undo.stored.iter().rev() {
            self.stored_bytes[n] = b;
        }
        for &(n, c) in undo.contrib.iter().rev() {
            self.mem_contrib[n] = c;
        }
        self.mem_total = undo.total;
    }

    /// Convenience: open a transaction and stage a single move (the recovery loop's
    /// shape — follow with [`DeltaEvaluator::commit`] or
    /// [`DeltaEvaluator::rollback`]).
    pub fn propose(&mut self, id: NodeId, precision: Precision) -> usize {
        self.begin();
        self.stage(id, precision)
    }

    /// Predicted iteration latency of the current assignment — bit-identical to
    /// [`QSyncSystem::predict_iteration_us`] of the plan
    /// [`PrecisionPlan::from_inference_pdag`] would build from it.
    ///
    /// [`PrecisionPlan::from_inference_pdag`]: crate::plan::PrecisionPlan::from_inference_pdag
    pub fn iteration_us(&self) -> f64 {
        let n_slots = self.slot_durs.len();
        // Pass 1 (inference ranks only; training timelines are cached): accumulate the
        // compute stream in skeleton order, recording per-slot readiness.
        let mut inf_ready: Vec<Vec<f64>> = Vec::with_capacity(self.mappers.len());
        let mut inf_compute_end: Vec<f64> = Vec::with_capacity(self.mappers.len());
        for costs in &self.costs {
            let mut ready = vec![0.0f64; n_slots];
            let mut t = 0.0f64;
            let mut slot = 0usize;
            for op in self.model.template() {
                match op {
                    DfgOp::Forward(id) => {
                        let c = &costs[id.0];
                        t += c.fwd_cast_us;
                        t += c.fwd_us;
                    }
                    DfgOp::Backward(id) => {
                        let c = &costs[id.0];
                        t += c.bwd_cast_us;
                        t += c.bwd_us;
                    }
                    DfgOp::AllReduce { .. } => {
                        ready[slot] = t;
                        slot += 1;
                    }
                    _ => {}
                }
            }
            inf_ready.push(ready);
            inf_compute_end.push(t);
        }

        // Pass 2: Equation (6) over the communication slots.
        let mut comm_end_prev = 0.0f64;
        let mut last_comm_end = 0.0f64;
        for (n, dur) in self.slot_durs.iter().enumerate() {
            let ready_all = self
                .roles
                .iter()
                .map(|role| match role {
                    Role::Fixed(i) => self.fixed_ready[*i][n],
                    Role::Inference(i) => inf_ready[*i][n],
                })
                .fold(0.0f64, f64::max);
            let start = ready_all.max(comm_end_prev);
            let end = start + dur;
            comm_end_prev = end;
            last_comm_end = end;
        }

        // Pass 3: the optimizer runs after both local compute and the last all-reduce.
        self.roles
            .iter()
            .map(|role| match role {
                Role::Fixed(i) => {
                    self.fixed_compute_end[*i].max(last_comm_end) + self.fixed_optimizer[*i]
                }
                Role::Inference(i) => {
                    inf_compute_end[*i].max(last_comm_end) + self.inf_optimizer[*i]
                }
            })
            .fold(0.0f64, f64::max)
    }

    /// Local cost of a subgraph instance on one inference rank under the current
    /// assignment: per operator, pure execution plus both cast slots — the quantity the
    /// initial-setting brute force minimises, served from the cached node costs.
    pub fn instance_cost(&self, rank: usize, instance: &[NodeId]) -> f64 {
        let idx = match self.roles[rank] {
            Role::Inference(i) => i,
            Role::Fixed(_) => panic!("rank {rank} is not an inference device"),
        };
        let costs = &self.costs[idx];
        let mut total = 0.0f64;
        for id in instance {
            let c = &costs[id.0];
            total += ((c.fwd_us + c.bwd_us) + c.fwd_cast_us) + c.bwd_cast_us;
        }
        total
    }
}

/// Replicate `Simulator::simulate`'s pass 1 over one timed local DFG: per-slot ready
/// times, compute-stream end, and accumulated optimizer time.
fn timeline(local: &LocalDfg, n_slots: usize) -> (Vec<f64>, f64, f64) {
    let mut ready = vec![0.0f64; n_slots];
    let mut t = 0.0f64;
    let mut optimizer = 0.0f64;
    let mut slot = 0usize;
    for e in &local.entries {
        match e.op {
            DfgOp::AllReduce { .. } => {
                ready[slot] = t;
                slot += 1;
            }
            DfgOp::Optimizer => {
                optimizer += e.duration_us;
            }
            _ => {
                t += e.duration_us;
            }
        }
    }
    (ready, t, optimizer)
}

/// Bytes per element of the activation node `id` stores for its backward pass —
/// `MemoryEstimator::estimate`'s `stored_bytes` rule.
fn stored_bytes_of(sys: &QSyncSystem, pdag: &PrecisionDag, stored: &[u64], id: NodeId) -> u64 {
    let node = sys.dag().node(id);
    match node.kind.category() {
        OpCategory::PrecisionAdjustable => pdag.get(id).bytes() as u64,
        _ => node.inputs.iter().map(|p| stored[p.0]).min().unwrap_or(4),
    }
}

/// One node's contribution to the memory estimate: master weights, gradients,
/// optimizer state, the low-precision weight copy and the saved activation — the exact
/// per-node terms `MemoryEstimator::estimate` accumulates.
fn mem_contrib_of(sys: &QSyncSystem, pdag: &PrecisionDag, stored: &[u64], id: NodeId) -> u64 {
    let node = sys.dag().node(id);
    let estimator = sys.memory_estimator();
    let params = node.kind.param_count() as u64;
    let mut c = params * 4 + params * 4 + params * estimator.optimizer.state_bytes_per_param() as u64;
    let p = pdag.get(id);
    if params > 0 && p != Precision::Fp32 {
        c += params * p.bytes() as u64;
    }
    let full = node.output_numel() as u64 * stored[id.0];
    c += match node.kind.category() {
        OpCategory::PrecisionAdjustable => full,
        _ => full / 8,
    };
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_cluster::topology::ClusterSpec;
    use qsync_graph::models::small_mlp;
    use crate::plan::PrecisionPlan;
    use crate::system::QSyncConfig;

    fn system() -> QSyncSystem {
        QSyncSystem::new(
            small_mlp(16, 32, 64, 8),
            ClusterSpec::hybrid_small(),
            QSyncConfig::default(),
        )
    }

    fn full_latency(sys: &QSyncSystem, pdag: &PrecisionDag) -> f64 {
        let plan = PrecisionPlan::from_inference_pdag("ref", sys.dag(), &sys.cluster, pdag);
        sys.predict_iteration_us(&plan)
    }

    #[test]
    fn fresh_evaluator_matches_the_full_predictor_bitwise() {
        let sys = system();
        let rank = sys.cluster.inference_ranks()[0];
        for p in [Precision::Int8, Precision::Fp16, Precision::Fp32] {
            let pdag = PrecisionDag::uniform(sys.dag(), p);
            let eval = DeltaEvaluator::new(&sys, rank, pdag.clone());
            assert_eq!(eval.iteration_us().to_bits(), full_latency(&sys, &pdag).to_bits());
            assert_eq!(eval.memory_bytes(), sys.memory_bytes(rank, &pdag));
        }
    }

    #[test]
    fn staged_moves_track_the_full_predictor_bitwise() {
        let sys = system();
        let rank = sys.cluster.inference_ranks()[0];
        let mut shadow = PrecisionDag::uniform(sys.dag(), Precision::Int8);
        let mut eval = DeltaEvaluator::new(&sys, rank, shadow.clone());
        let ops = sys.dag().adjustable_ops();
        let steps =
            [(0usize, Precision::Fp16), (1, Precision::Fp32), (0, Precision::Fp32), (2, Precision::Fp16)];
        for (i, p) in steps {
            eval.propose(ops[i], p);
            eval.commit();
            let _ = shadow.set(sys.dag(), ops[i], p);
            assert_eq!(eval.pdag(), &shadow);
            assert_eq!(eval.iteration_us().to_bits(), full_latency(&sys, &shadow).to_bits());
            assert_eq!(eval.memory_bytes(), sys.memory_bytes(rank, &shadow));
        }
    }

    #[test]
    fn rollback_restores_every_observable() {
        let sys = system();
        let rank = sys.cluster.inference_ranks()[0];
        let pdag = PrecisionDag::uniform(sys.dag(), Precision::Int8);
        let mut eval = DeltaEvaluator::new(&sys, rank, pdag.clone());
        let before_t = eval.iteration_us().to_bits();
        let before_m = eval.memory_bytes();
        let ops = sys.dag().adjustable_ops();
        eval.begin();
        eval.stage(ops[0], Precision::Fp32);
        eval.stage(ops[1], Precision::Fp16);
        eval.stage(ops[0], Precision::Fp16); // touch the same node twice
        assert_ne!(eval.iteration_us().to_bits(), before_t);
        eval.rollback();
        assert_eq!(eval.pdag(), &pdag);
        assert_eq!(eval.iteration_us().to_bits(), before_t);
        assert_eq!(eval.memory_bytes(), before_m);
    }

    #[test]
    fn staging_a_no_op_changes_nothing() {
        let sys = system();
        let rank = sys.cluster.inference_ranks()[0];
        let mut eval =
            DeltaEvaluator::new(&sys, rank, PrecisionDag::uniform(sys.dag(), Precision::Fp16));
        let op = sys.dag().adjustable_ops()[0];
        assert_eq!(eval.propose(op, Precision::Fp16), 0);
        eval.commit();
    }

    #[test]
    fn instance_cost_matches_the_brute_force_expression() {
        let sys = system();
        let rank = sys.cluster.inference_ranks()[0];
        let pdag = PrecisionDag::uniform(sys.dag(), Precision::Fp16);
        let eval = DeltaEvaluator::new(&sys, rank, pdag.clone());
        let mapper = CostMapper::new(
            sys.model(),
            sys.profile(rank),
            sys.casting(rank),
            &sys.cluster.devices[rank],
        );
        let instance = sys.dag().adjustable_ops();
        let expected: f64 = instance
            .iter()
            .map(|&id| {
                let op = sys.profile(rank).get_or_fp32(id, pdag.get(id));
                op.fwd_us
                    + op.bwd_us
                    + mapper.forward_cast_us(&pdag, id)
                    + mapper.backward_cast_us(&pdag, id)
            })
            .sum();
        assert_eq!(eval.instance_cost(rank, &instance).to_bits(), expected.to_bits());
    }
}
