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
//! [`PrecisionDag::set_incremental_logged`] and its direct successors (whose input
//! casts see a different producer precision). Memory is maintained as an exact running
//! `u64` total, so the memory constraint is answered in `O(changed · degree)`. Staging
//! reuses buffers the evaluator owns, so it does not allocate once they have grown.
//!
//! Latency is re-derived by summing the *cached* per-node costs along the fixed DFG
//! skeleton in the exact entry order [`Simulator::simulate`] walks — deliberately not by
//! floating-point delta updates: re-summing in canonical order makes the result
//! **bit-identical** to the full predictor (`f64` addition is not associative, and the
//! allocator's accept/reject decisions sit behind `t <= t_min · tol` comparisons), while
//! the expensive per-candidate work (profile lookups, casting-model evaluation, DFG and
//! plan construction, trace materialisation) is all eliminated. Two things keep the
//! re-sum short:
//!
//! * **Checkpoints.** For the committed assignment the evaluator keeps each inference
//!   rank's running time before every forward step. A candidate re-walks only from the
//!   forward step of its earliest changed operator, into staging buffers; a commit
//!   adopts them and a rollback drops them.
//! * **One pass for all ranks.** The walk advances up to four inference ranks per pass
//!   over the skeleton, each rank its own chain of additions in today's order.
//!
//! The allocator's brute-force initial pass needs neither: it scores a block's
//! combinations from [`InstanceCosts`] tables, without staging them.
//!
//! What an evaluator owns follows what it depends on. The graph-shaped parts — the
//! topology and the op sequence of the local-DFG skeleton — are **per model** and
//! borrowed from the system's [`ModelContext`]; the profile table behind each cost
//! mapper is **per (model, device)** and borrowed from the system; only the working
//! state is the evaluator's own: the assignment, the cached node costs, the memory
//! tables, the checkpoints and the small per-rank timelines (**per cluster shape**).
//! Building one costs a node-cost pass per inference rank and a skeleton walk per
//! training rank.
//!
//! Changes are transactional: [`DeltaEvaluator::begin`] opens a transaction,
//! [`DeltaEvaluator::stage`] applies any number of operator moves, and
//! [`DeltaEvaluator::commit`] / [`DeltaEvaluator::rollback`] keep or undo them — which
//! is exactly the shape of the recovery loop (tentatively promote, test, keep or
//! revert), the warm-start demotion loops, and the initial setting's winners.
//!
//! [`Simulator::simulate`]: crate::replayer::Simulator::simulate
//! [`PrecisionPlan`]: crate::plan::PrecisionPlan

use qsync_lp_kernels::precision::Precision;
use qsync_graph::{DfgOp, LocalDfg, NodeId, OpCategory, PrecisionDag, TopoWorklist};

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
    /// Inference rank: timeline re-derived from cached node costs. Payload is the
    /// rank's inference index (its lane in `costs`, `ckpt`, `ready` and `end`).
    Inference(usize),
}

/// One timed entry of an inference rank's compute stream, in skeleton order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Forward cast, then forward execution, of a node.
    Fwd(usize),
    /// Backward cast, then backward execution, of a node.
    Bwd(usize),
    /// Communication slot `n` becomes ready at the stream's current time.
    Slot(usize),
}

/// The open transaction's undo log and timeline bookkeeping. The buffers outlive the
/// transaction, so opening the next one allocates nothing.
#[derive(Debug, Default)]
struct Txn {
    open: bool,
    /// `(node, previous precision)` pairs in change order
    /// ([`PrecisionDag::set_incremental_logged`]'s log).
    bits: Vec<(NodeId, Precision)>,
    /// `(index into costs, previous cost)` in touch order.
    costs: Vec<(usize, NodeCost)>,
    /// `(node, previous stored activation bytes-per-element)` in touch order.
    stored: Vec<(usize, u64)>,
    /// `(node, previous memory contribution)` in touch order.
    contrib: Vec<(usize, u64)>,
    /// Memory total as of `begin()`.
    total: u64,
    /// The earliest forward step whose node cost changed (`n_fwd` when none did).
    from: usize,
    /// `Some((start, us))` when the staged checkpoints reflect every staged change:
    /// the walk that wrote them started at forward step `start` and predicted `us`.
    walked: Option<(usize, f64)>,
}

/// Incremental evaluator of one inference precision DAG against a [`QSyncSystem`].
///
/// Holds the working [`PrecisionDag`] (shared by every inference rank, as
/// [`PrecisionPlan::from_inference_pdag`] replicates it), running per-node memory
/// contributions for the allocator's constraint rank, cached per-node timeline
/// costs and compute-stream checkpoints for every inference rank. See the module
/// docs for the evaluation strategy.
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
    /// Cached per-node costs, one lane per inference rank:
    /// `costs[node id * mappers.len() + inference index]`.
    costs: Vec<NodeCost>,
    /// Constant optimizer-step time per inference rank.
    inf_optimizer: Vec<f64>,
    /// The skeleton's timed entries: every `Fwd` step, in topological order, comes
    /// before every `Bwd` and `Slot` step.
    steps: Vec<Step>,
    /// Index of each node's `Fwd` step, by node id.
    fwd_step: Vec<usize>,
    /// Number of `Fwd` steps: the checkpointed prefix of `steps`.
    n_fwd: usize,
    /// Compute-stream checkpoints of the committed assignment: `ckpt[s * lanes + i]`
    /// is inference rank `i`'s time before forward step `s`. Valid for every
    /// `s <= clean`.
    ckpt: Vec<f64>,
    clean: usize,
    /// The committed assignment's iteration time: `Some` exactly when `clean` is
    /// `n_fwd` (every checkpoint valid).
    committed_us: Option<f64>,
    /// What a walk writes: staged checkpoints (the layout of `ckpt`), each slot's
    /// ready time per rank (`ready[slot * lanes + i]`) and each rank's compute end.
    walk_ckpt: Vec<f64>,
    ready: Vec<f64>,
    end: Vec<f64>,
    /// Bytes-per-element of each node's saved backward activation (the memory
    /// estimator's `stored_bytes` table, maintained incrementally).
    stored_bytes: Vec<u64>,
    /// Per-node contribution to the memory estimate, in bytes.
    mem_contrib: Vec<u64>,
    /// Running memory total (per-node contributions + workspace allowance).
    mem_total: u64,
    txn: Txn,
    /// Reused working buffers: a per-node mark, the nodes it marks, and the memory
    /// worklist.
    mark: Vec<bool>,
    marked: Vec<NodeId>,
    work: TopoWorklist,
}

impl<'a> DeltaEvaluator<'a> {
    /// Build the evaluator for `pdag` on the system's cluster, enforcing the memory
    /// constraint of inference rank `rank`.
    pub fn new(sys: &'a QSyncSystem, rank: usize, pdag: PrecisionDag) -> Self {
        let model: &ModelContext = sys.model();
        let (dag, topology) = (model.dag(), model.topology());
        assert_eq!(pdag.len(), dag.len(), "precision DAG does not match the model");
        let mut fwd_step = vec![0usize; dag.len()];
        let mut steps = Vec::with_capacity(model.template().len());
        let mut slot_durs = Vec::new();
        for op in model.template() {
            match op {
                DfgOp::Forward(id) => {
                    fwd_step[id.0] = steps.len();
                    steps.push(Step::Fwd(id.0));
                }
                DfgOp::Backward(id) => steps.push(Step::Bwd(id.0)),
                DfgOp::AllReduce { bytes, .. } => {
                    steps.push(Step::Slot(slot_durs.len()));
                    slot_durs.push(sys.comm().allreduce_us(*bytes));
                }
                _ => {}
            }
        }
        let n_fwd = steps.iter().take_while(|s| matches!(s, Step::Fwd(_))).count();
        assert!(
            steps[n_fwd..].iter().all(|s| !matches!(s, Step::Fwd(_))),
            "the DFG skeleton runs every forward before the first backward"
        );

        let full = PrecisionDag::full_precision(dag);
        let mut roles = Vec::with_capacity(sys.cluster.world_size());
        let mut fixed_ready = Vec::new();
        let mut fixed_compute_end = Vec::new();
        let mut fixed_optimizer = Vec::new();
        let mut mappers = Vec::new();
        let mut inf_optimizer = Vec::new();
        for device in &sys.cluster.devices {
            let mapper =
                CostMapper::new(model, sys.profile(device.id), sys.casting(device.id), device);
            if device.is_inference() {
                roles.push(Role::Inference(mappers.len()));
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
        let lanes = mappers.len();
        let mut costs = vec![NodeCost::default(); dag.len() * lanes];
        for &id in topology.topo() {
            for (i, mapper) in mappers.iter().enumerate() {
                costs[id.0 * lanes + i] = mapper.node_cost(&pdag, id);
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

        let mut eval = DeltaEvaluator {
            sys,
            model,
            rank,
            pdag,
            roles,
            fixed_ready,
            fixed_compute_end,
            fixed_optimizer,
            mappers,
            costs,
            inf_optimizer,
            ckpt: vec![0.0; n_fwd * lanes],
            clean: 0,
            committed_us: None,
            walk_ckpt: vec![0.0; n_fwd * lanes],
            ready: vec![0.0; slot_durs.len() * lanes],
            end: vec![0.0; lanes],
            slot_durs,
            steps,
            fwd_step,
            n_fwd,
            stored_bytes,
            mem_contrib,
            mem_total,
            txn: Txn::default(),
            mark: vec![false; dag.len()],
            marked: Vec::new(),
            work: TopoWorklist::default(),
        };
        eval.iteration_us();
        eval
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
        assert!(!self.txn.open, "a transaction is already open");
        self.txn.open = true;
        self.txn.total = self.mem_total;
        self.txn.from = self.n_fwd;
        self.txn.walked = None;
    }

    /// Move one adjustable operator to `precision` inside the open transaction,
    /// updating the cached costs and the running memory total incrementally.
    ///
    /// Returns the number of nodes whose precision changed (0 when the operator is
    /// already at `precision`).
    pub fn stage(&mut self, id: NodeId, precision: Precision) -> usize {
        let DeltaEvaluator {
            sys, model, pdag, mappers, costs, fwd_step, stored_bytes, mem_contrib, mem_total,
            txn, mark, marked, work, ..
        } = self;
        assert!(txn.open, "no open transaction");
        let topology = model.topology();
        let log_start = txn.bits.len();
        let n_changed =
            pdag.set_incremental_logged(model.dag(), topology, id, precision, &mut txn.bits, work);
        if n_changed == 0 {
            return 0;
        }
        let changed = &txn.bits[log_start..];

        // Timeline costs: the changed nodes and their direct successors (whose input
        // casts see a different producer precision), each once.
        for &(n, _) in changed {
            for m in std::iter::once(n).chain(topology.succs(n).iter().copied()) {
                if !mark[m.0] {
                    mark[m.0] = true;
                    marked.push(m);
                }
            }
        }
        let lanes = mappers.len();
        for m in marked.drain(..) {
            mark[m.0] = false;
            txn.from = txn.from.min(fwd_step[m.0]);
            for (i, mapper) in mappers.iter().enumerate() {
                let at = m.0 * lanes + i;
                txn.costs.push((at, costs[at]));
                costs[at] = mapper.node_cost(pdag, m);
            }
        }
        txn.walked = None;

        // Memory: re-derive the stored-activation bytes through the affected region
        // (worklist in topological order), then refresh the per-node contributions of
        // every node whose precision or stored bytes changed.
        for &(n, _) in changed {
            mark[n.0] = true;
            marked.push(n);
            work.push(topology, n);
        }
        while let Some(n) = work.pop(topology) {
            let nb = stored_bytes_of(sys, pdag, stored_bytes, n);
            if nb != stored_bytes[n.0] {
                txn.stored.push((n.0, stored_bytes[n.0]));
                stored_bytes[n.0] = nb;
                if !mark[n.0] {
                    mark[n.0] = true;
                    marked.push(n);
                }
                for &s in topology.succs(n) {
                    work.push(topology, s);
                }
            }
        }
        for n in marked.drain(..) {
            mark[n.0] = false;
            let c = mem_contrib_of(sys, pdag, stored_bytes, n);
            if c != mem_contrib[n.0] {
                txn.contrib.push((n.0, mem_contrib[n.0]));
                *mem_total = *mem_total - mem_contrib[n.0] + c;
                mem_contrib[n.0] = c;
            }
        }
        n_changed
    }

    /// Keep the staged changes and close the transaction.
    pub fn commit(&mut self) {
        assert!(self.txn.open, "no open transaction");
        if self.txn.from < self.n_fwd {
            match self.txn.walked {
                // The walk already timed this assignment: adopt its checkpoints.
                Some((start, us)) => {
                    let lanes = self.mappers.len();
                    self.ckpt[start * lanes..].copy_from_slice(&self.walk_ckpt[start * lanes..]);
                    self.clean = self.n_fwd;
                    self.committed_us = Some(us);
                }
                None => {
                    self.clean = self.clean.min(self.txn.from);
                    self.committed_us = None;
                }
            }
        }
        self.close();
    }

    /// Revert every staged change and close the transaction.
    pub fn rollback(&mut self) {
        assert!(self.txn.open, "no open transaction");
        let txn = &self.txn;
        self.pdag.revert(&txn.bits);
        for &(at, c) in txn.costs.iter().rev() {
            self.costs[at] = c;
        }
        for &(n, b) in txn.stored.iter().rev() {
            self.stored_bytes[n] = b;
        }
        for &(n, c) in txn.contrib.iter().rev() {
            self.mem_contrib[n] = c;
        }
        self.mem_total = txn.total;
        self.close();
    }

    fn close(&mut self) {
        let txn = &mut self.txn;
        txn.open = false;
        txn.bits.clear();
        txn.costs.clear();
        txn.stored.clear();
        txn.contrib.clear();
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
    /// Re-walks the compute streams only from the earliest forward step whose cost
    /// changed since the committed checkpoints were taken; inside a transaction the
    /// walk goes to staging buffers that a commit adopts and a rollback drops.
    ///
    /// [`PrecisionPlan::from_inference_pdag`]: crate::plan::PrecisionPlan::from_inference_pdag
    pub fn iteration_us(&mut self) -> f64 {
        if self.txn.open && self.txn.from < self.n_fwd {
            if let Some((_, us)) = self.txn.walked {
                return us;
            }
            let start = self.clean.min(self.txn.from);
            let lanes = self.mappers.len();
            let at = start * lanes..(start + 1) * lanes;
            self.walk_ckpt[at.clone()].copy_from_slice(&self.ckpt[at]);
            let us = self.walk(start, true);
            self.txn.walked = Some((start, us));
            return us;
        }
        // No staged cost change: this is the committed assignment.
        if let Some(us) = self.committed_us {
            return us;
        }
        let us = self.walk(self.clean, false);
        self.clean = self.n_fwd;
        self.committed_us = Some(us);
        us
    }

    /// Walk every inference rank's compute stream from forward step `start` (whose
    /// checkpoint must already hold the starting times), recording checkpoints into
    /// the staging buffer (`staged`) or the committed one, then finish Equation (6).
    /// Ranks are walked four lanes at a time, each lane its own chain of additions in
    /// skeleton order.
    fn walk(&mut self, start: usize, staged: bool) -> f64 {
        let lanes = self.mappers.len();
        let ckpt = if staged { &mut self.walk_ckpt } else { &mut self.ckpt };
        let mut lane = 0;
        while lane < lanes {
            let width = (lanes - lane).min(4);
            let out = Lanes {
                steps: &self.steps,
                costs: &self.costs,
                lanes,
                lane,
                start,
            };
            match width {
                1 => out.walk::<1>(ckpt, &mut self.ready, &mut self.end),
                2 => out.walk::<2>(ckpt, &mut self.ready, &mut self.end),
                3 => out.walk::<3>(ckpt, &mut self.ready, &mut self.end),
                _ => out.walk::<4>(ckpt, &mut self.ready, &mut self.end),
            }
            lane += width;
        }

        // Equation (6) over the communication slots.
        let mut comm_end_prev = 0.0f64;
        let mut last_comm_end = 0.0f64;
        for (n, dur) in self.slot_durs.iter().enumerate() {
            let ready_all = self
                .roles
                .iter()
                .map(|role| match *role {
                    Role::Fixed(i) => self.fixed_ready[i][n],
                    Role::Inference(i) => self.ready[n * lanes + i],
                })
                .fold(0.0f64, f64::max);
            let start = ready_all.max(comm_end_prev);
            let end = start + dur;
            comm_end_prev = end;
            last_comm_end = end;
        }

        // The optimizer runs after both local compute and the last all-reduce.
        self.roles
            .iter()
            .map(|role| match *role {
                Role::Fixed(i) => {
                    self.fixed_compute_end[i].max(last_comm_end) + self.fixed_optimizer[i]
                }
                Role::Inference(i) => self.end[i].max(last_comm_end) + self.inf_optimizer[i],
            })
            .fold(0.0f64, f64::max)
    }

    /// Local-cost tables of one subgraph instance on the constraint rank, for
    /// scoring combinations of `candidates` without staging them (see
    /// [`InstanceCosts`]). The evaluator ends as it started; no transaction may be
    /// open.
    pub fn instance_costs(&mut self, instance: &[NodeId], candidates: &[Precision]) -> InstanceCosts {
        assert!(!self.txn.open, "a transaction is open");
        let Role::Inference(lane) = self.roles[self.rank] else {
            panic!("rank {} is not an inference device", self.rank);
        };
        let DeltaEvaluator { model, pdag, mappers, txn, mark, marked, work, .. } = self;
        let (dag, topology) = (model.dag(), model.topology());
        let mapper = &mappers[lane];
        let nodes = (0..instance.len())
            .map(|i| {
                // The instance nodes whose precision reaches node i's inputs through
                // precision-dependent nodes only; node i itself is digit 0.
                let mut reads = vec![i];
                let mut stack: Vec<NodeId> = dag.node(instance[i]).inputs.clone();
                while let Some(n) = stack.pop() {
                    if mark[n.0] {
                        continue;
                    }
                    mark[n.0] = true;
                    marked.push(n);
                    if let Some(pos) = instance.iter().position(|&m| m == n) {
                        reads.push(pos);
                    } else if dag.node(n).kind.category() == OpCategory::PrecisionDependent {
                        stack.extend_from_slice(&dag.node(n).inputs);
                    }
                }
                for n in marked.drain(..) {
                    mark[n.0] = false;
                }
                let entries = candidates.len().pow(reads.len() as u32);
                let table = (0..entries)
                    .map(|at| {
                        let mut rest = at;
                        for &pos in &reads {
                            let p = candidates[rest % candidates.len()];
                            rest /= candidates.len();
                            pdag.set_incremental_logged(dag, topology, instance[pos], p, &mut txn.bits, work);
                        }
                        let c = mapper.node_cost(pdag, instance[i]);
                        pdag.revert(&txn.bits);
                        txn.bits.clear();
                        // The per-node term of an instance's local cost: pure
                        // execution, then both cast slots, in this order.
                        ((c.fwd_us + c.bwd_us) + c.fwd_cast_us) + c.bwd_cast_us
                    })
                    .collect();
                (reads, table)
            })
            .collect();
        InstanceCosts { n_candidates: candidates.len(), nodes }
    }
}

/// Per-node local-cost tables of one subgraph instance.
///
/// An instance node's cost reads its own precision and its inputs' output
/// precisions. Those inputs are fixed outside the instance, or derived through
/// precision-dependent nodes from a few instance nodes (the previous convolution
/// through BN/ReLU, either branch of a residual add). So each node gets one table
/// entry per assignment of itself and those nodes, at most
/// `candidates^(1 + reads)` `f64`s, and a combination is scored by summing entries.
#[derive(Debug, Clone)]
pub struct InstanceCosts {
    n_candidates: usize,
    /// Per instance node, in instance order: the instance positions its cost reads
    /// (itself first, least significant digit) and its table.
    nodes: Vec<(Vec<usize>, Vec<f64>)>,
}

impl InstanceCosts {
    /// The instance's local cost under a combination (`digits[i]` = candidate index
    /// of instance node `i`) on the constraint rank: the nodes' entries summed in
    /// instance order from `0.0`. Bit-identical to staging the combination and
    /// summing the same per-node term off the evaluator's cached node costs.
    pub fn cost(&self, digits: &[usize]) -> f64 {
        let mut total = 0.0f64;
        for (reads, table) in &self.nodes {
            let at = reads.iter().rev().fold(0, |at, &pos| at * self.n_candidates + digits[pos]);
            total += table[at];
        }
        total
    }
}

/// One walk of a group of up to four inference ranks (lanes) over the skeleton.
struct Lanes<'e> {
    steps: &'e [Step],
    costs: &'e [NodeCost],
    lanes: usize,
    lane: usize,
    start: usize,
}

impl Lanes<'_> {
    fn walk<const N: usize>(&self, ckpt: &mut [f64], ready: &mut [f64], end: &mut [f64]) {
        let (lanes, lane) = (self.lanes, self.lane);
        let mut t = [0.0f64; N];
        t.copy_from_slice(&ckpt[self.start * lanes + lane..][..N]);
        for (s, step) in self.steps.iter().enumerate().skip(self.start) {
            match *step {
                Step::Fwd(id) => {
                    ckpt[s * lanes + lane..][..N].copy_from_slice(&t);
                    let c = &self.costs[id * lanes + lane..][..N];
                    for j in 0..N {
                        t[j] += c[j].fwd_cast_us;
                        t[j] += c[j].fwd_us;
                    }
                }
                Step::Bwd(id) => {
                    let c = &self.costs[id * lanes + lane..][..N];
                    for j in 0..N {
                        t[j] += c[j].bwd_cast_us;
                        t[j] += c[j].bwd_us;
                    }
                }
                Step::Slot(n) => ready[n * lanes + lane..][..N].copy_from_slice(&t),
            }
        }
        end[lane..][..N].copy_from_slice(&t);
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
    use qsync_graph::{ModelDag, OpKind};
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
            let mut eval = DeltaEvaluator::new(&sys, rank, pdag.clone());
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
    fn instance_cost_tables_match_the_brute_force_expression() {
        // One block whose last linear reads a residual add of the first two, so its
        // cost depends on both through precision-dependent nodes.
        let mut g = ModelDag::new("residual_block", 4);
        let linear = |g: &mut ModelDag, name: &str, input| {
            g.add_node(
                name,
                OpKind::Linear { in_features: 32, out_features: 32 },
                vec![input],
                vec![4, 32],
                Some(vec![32, 32]),
                Some("block".to_string()),
            )
        };
        let input = g.add_node("input", OpKind::Input, vec![], vec![4, 32], None, None);
        let l0 = linear(&mut g, "l0", input);
        let relu = g.add_node("relu", OpKind::ReLU, vec![l0], vec![4, 32], None, None);
        let l1 = linear(&mut g, "l1", relu);
        let add = g.add_node("add", OpKind::Add, vec![relu, l1], vec![4, 32], None, None);
        let l2 = linear(&mut g, "l2", add);
        let _ = g.add_node("loss", OpKind::MseLoss, vec![l2], vec![1], None, None);
        let sys = QSyncSystem::new(g, ClusterSpec::hybrid_small(), QSyncConfig::default());
        let rank = sys.cluster.inference_ranks()[0];
        let candidates = sys.candidates_for(rank);
        let start = PrecisionDag::uniform(sys.dag(), candidates[0]);
        let mut eval = DeltaEvaluator::new(&sys, rank, start.clone());
        let before = eval.iteration_us().to_bits();
        let instance = [l0, l1, l2];
        let tables = eval.instance_costs(&instance, &candidates);
        assert_eq!(eval.pdag(), &start, "filling the tables leaves the evaluator as it was");
        assert_eq!(eval.iteration_us().to_bits(), before);

        let mapper = CostMapper::new(
            sys.model(),
            sys.profile(rank),
            sys.casting(rank),
            &sys.cluster.devices[rank],
        );
        let n = candidates.len();
        for combo in 0..n.pow(3) {
            let digits = [combo % n, combo / n % n, combo / (n * n)];
            let mut pdag = start.clone();
            for (id, &d) in instance.iter().zip(&digits) {
                let _ = pdag.set(sys.dag(), *id, candidates[d]);
            }
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
            assert_eq!(tables.cost(&digits).to_bits(), expected.to_bits(), "combination {digits:?}");
        }
    }

    #[test]
    fn timing_inside_a_transaction_matches_the_full_predictor_bitwise() {
        let sys = system();
        let rank = sys.cluster.inference_ranks()[0];
        let mut shadow = PrecisionDag::uniform(sys.dag(), Precision::Fp16);
        let mut eval = DeltaEvaluator::new(&sys, rank, shadow.clone());
        let ops = sys.dag().adjustable_ops();
        let last = *ops.last().unwrap();
        // Timed and committed, timed and rolled back, committed untimed (so the next
        // walk must start before the next move's own first step), then staged twice
        // in one transaction with a timing between the stages.
        for (first, p, keep, time) in [
            (last, Precision::Int8, true, true),
            (ops[0], Precision::Fp32, false, true),
            (ops[0], Precision::Int8, true, false),
            (last, Precision::Fp32, true, true),
        ] {
            let mut staged = shadow.clone();
            let _ = staged.set(sys.dag(), first, p);
            eval.propose(first, p);
            if time {
                assert_eq!(eval.iteration_us().to_bits(), full_latency(&sys, &staged).to_bits());
            }
            if keep {
                eval.commit();
                shadow = staged;
            } else {
                eval.rollback();
            }
            if time {
                assert_eq!(eval.iteration_us().to_bits(), full_latency(&sys, &shadow).to_bits());
            }
        }
        eval.begin();
        for (id, p) in [(last, Precision::Fp16), (ops[0], Precision::Fp16)] {
            eval.stage(id, p);
            let _ = shadow.set(sys.dag(), id, p);
            assert_eq!(eval.iteration_us().to_bits(), full_latency(&sys, &shadow).to_bits());
        }
        eval.commit();
        assert_eq!(eval.iteration_us().to_bits(), full_latency(&sys, &shadow).to_bits());
    }
}
