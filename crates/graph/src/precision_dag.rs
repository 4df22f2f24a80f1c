//! Per-device precision assignment over a model DAG.
//!
//! QSync maintains, for every GPU, a *precision DAG* that keeps the training model with
//! each operator's precision and its dependencies (Section IV-B). Precision-adjustable
//! operators carry the precision the allocator assigned; precision-dependent operators
//! derive theirs from their inputs via the promotion rule; fixed operators stay FP32.

use serde::{Deserialize, Serialize};

use qsync_lp_kernels::precision::Precision;

use crate::dag::{DagTopology, ModelDag, NodeId, TopoWorklist};
use crate::op::OpCategory;

/// The precision assignment of one device's copy of the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionDag {
    /// Assigned (or derived) precision per node, indexed by `NodeId.0`.
    bits: Vec<Precision>,
}

impl PrecisionDag {
    /// Create a precision DAG with every operator at the given uniform precision for
    /// adjustable operators; dependent/fixed operators are derived immediately.
    pub fn uniform(dag: &ModelDag, precision: Precision) -> Self {
        let mut pd = PrecisionDag { bits: vec![Precision::Fp32; dag.len()] };
        for node in dag.nodes() {
            if node.kind.category() == OpCategory::PrecisionAdjustable {
                pd.bits[node.id.0] = precision;
            }
        }
        pd.propagate(dag);
        pd
    }

    /// Full precision everywhere (the training-GPU configuration).
    pub fn full_precision(dag: &ModelDag) -> Self {
        Self::uniform(dag, Precision::Fp32)
    }

    /// Current precision of a node.
    pub fn get(&self, id: NodeId) -> Precision {
        self.bits[id.0]
    }

    /// Number of nodes this assignment covers.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Set the precision of an adjustable node and re-derive dependent precisions.
    ///
    /// Returns the list of nodes whose precision changed (including `id` itself), which
    /// is exactly the set the cost mapper needs to revisit.
    pub fn set(&mut self, dag: &ModelDag, id: NodeId, precision: Precision) -> Vec<NodeId> {
        assert_eq!(
            dag.node(id).kind.category(),
            OpCategory::PrecisionAdjustable,
            "only precision-adjustable operators can be assigned directly"
        );
        let before = self.bits.clone();
        self.bits[id.0] = precision;
        self.propagate(dag);
        (0..self.bits.len())
            .filter(|&i| self.bits[i] != before[i])
            .map(NodeId)
            .collect()
    }

    /// Incremental variant of [`PrecisionDag::set`]: assign an adjustable node and
    /// re-derive only the dependent operators reachable from it, using a worklist in
    /// topological order instead of re-propagating over the whole graph.
    ///
    /// Starting from any consistent assignment (one where [`PrecisionDag::propagate`]
    /// is a fixed point — every constructor and every `set` leaves the DAG in that
    /// state), this computes exactly the same result as `set` and returns the same
    /// changed-node list (ascending by id), in `O(|changed| · degree)` instead of
    /// `O(|V| · degree)` plus an `O(|V|)` clone.
    pub fn set_incremental(
        &mut self,
        dag: &ModelDag,
        topology: &DagTopology,
        id: NodeId,
        precision: Precision,
    ) -> Vec<NodeId> {
        let mut log = Vec::new();
        self.set_incremental_logged(dag, topology, id, precision, &mut log, &mut TopoWorklist::default());
        let mut changed: Vec<NodeId> = log.into_iter().map(|(n, _)| n).collect();
        changed.sort_unstable();
        changed
    }

    /// [`PrecisionDag::set_incremental`] with an undo log: appends a
    /// `(node, previous precision)` pair for every node that changes, so the caller can
    /// revert the whole change with [`PrecisionDag::revert`] without snapshotting the
    /// assignment. Returns the number of pairs appended.
    ///
    /// `work` is the caller's (empty) worklist, handed back empty: a caller that keeps
    /// one, and reserves the log, sets without allocating.
    pub fn set_incremental_logged(
        &mut self,
        dag: &ModelDag,
        topology: &DagTopology,
        id: NodeId,
        precision: Precision,
        undo: &mut Vec<(NodeId, Precision)>,
        work: &mut TopoWorklist,
    ) -> usize {
        assert_eq!(
            dag.node(id).kind.category(),
            OpCategory::PrecisionAdjustable,
            "only precision-adjustable operators can be assigned directly"
        );
        if self.bits[id.0] == precision {
            return 0;
        }
        let before = undo.len();
        undo.push((id, self.bits[id.0]));
        self.bits[id.0] = precision;
        // Dependent nodes to re-derive, in topological order.
        for &s in topology.succs(id) {
            work.push(topology, s);
        }
        while let Some(n) = work.pop(topology) {
            let node = dag.node(n);
            if node.kind.category() != OpCategory::PrecisionDependent {
                // Adjustable nodes keep their assigned value; fixed nodes stay FP32.
                continue;
            }
            let derived = node
                .inputs
                .iter()
                .map(|p| self.output_precision(*p))
                .fold(None::<Precision>, |acc, p| {
                    Some(match acc {
                        None => p,
                        Some(a) => a.promote(p),
                    })
                })
                .unwrap_or(Precision::Fp32);
            if self.bits[n.0] != derived {
                undo.push((n, self.bits[n.0]));
                self.bits[n.0] = derived;
                for &s in topology.succs(n) {
                    work.push(topology, s);
                }
            }
        }
        undo.len() - before
    }

    /// Undo changes recorded by [`PrecisionDag::set_incremental_logged`]: restores the
    /// logged previous precisions in reverse order. The log must describe changes made
    /// from this assignment's current state (possibly across several `..._logged`
    /// calls — the whole log is reverted at once).
    pub fn revert(&mut self, undo: &[(NodeId, Precision)]) {
        for &(n, p) in undo.iter().rev() {
            self.bits[n.0] = p;
        }
    }

    /// Re-derive precision of dependent operators from their inputs, in topological order.
    ///
    /// The derivation follows the CUDA promotion rule of footnote 1: a dependent operator
    /// runs at the widest precision among its inputs. INT8 adjustable operators produce a
    /// floating-point output (footnote 3), so their contribution to successors is FP32.
    pub fn propagate(&mut self, dag: &ModelDag) {
        for id in dag.topo_order() {
            let node = dag.node(id);
            match node.kind.category() {
                OpCategory::PrecisionAdjustable => { /* keep assigned value */ }
                OpCategory::Fixed => {
                    self.bits[id.0] = Precision::Fp32;
                }
                OpCategory::PrecisionDependent => {
                    let derived = node
                        .inputs
                        .iter()
                        .map(|p| self.output_precision(*p))
                        .fold(None::<Precision>, |acc, p| {
                            Some(match acc {
                                None => p,
                                Some(a) => a.promote(p),
                            })
                        })
                        .unwrap_or(Precision::Fp32);
                    self.bits[id.0] = derived;
                }
            }
        }
    }

    /// The precision of a node's *output* tensor.
    ///
    /// Per footnote 3 the output of an INT8 kernel is FP32; floating-point kernels emit
    /// their own precision; fixed operators emit FP32.
    pub fn output_precision(&self, id: NodeId) -> Precision {
        match self.bits[id.0] {
            Precision::Int8 | Precision::Int4 => Precision::Fp32,
            p => p,
        }
    }

    /// Histogram: how many nodes run at each precision.
    pub fn histogram(&self) -> Vec<(Precision, usize)> {
        Precision::LADDER
            .iter()
            .map(|&p| (p, self.bits.iter().filter(|&&b| b == p).count()))
            .filter(|(_, c)| *c > 0)
            .collect()
    }

    /// Count of adjustable operators at a given precision.
    pub fn count_adjustable_at(&self, dag: &ModelDag, precision: Precision) -> usize {
        dag.adjustable_ops().iter().filter(|id| self.get(**id) == precision).count()
    }

    /// All precisions, indexed by node id (useful for serialization into plans).
    pub fn as_slice(&self) -> &[Precision] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn chain() -> ModelDag {
        // input -> linear0 -> relu -> linear1 -> add(relu_out, linear1) -> loss
        let mut g = ModelDag::new("chain", 2);
        let input = g.add_node("input", OpKind::Input, vec![], vec![2, 4], None, None);
        let l0 = g.add_node(
            "l0",
            OpKind::Linear { in_features: 4, out_features: 4 },
            vec![input],
            vec![2, 4],
            Some(vec![4, 4]),
            None,
        );
        let r = g.add_node("relu", OpKind::ReLU, vec![l0], vec![2, 4], None, None);
        let l1 = g.add_node(
            "l1",
            OpKind::Linear { in_features: 4, out_features: 4 },
            vec![r],
            vec![2, 4],
            Some(vec![4, 4]),
            None,
        );
        let add = g.add_node("add", OpKind::Add, vec![r, l1], vec![2, 4], None, None);
        let _ = g.add_node("loss", OpKind::MseLoss, vec![add], vec![1], None, None);
        g
    }

    #[test]
    fn uniform_fp16_sets_adjustable_and_derives_dependent() {
        let g = chain();
        let pd = PrecisionDag::uniform(&g, Precision::Fp16);
        assert_eq!(pd.get(NodeId(1)), Precision::Fp16); // linear0
        assert_eq!(pd.get(NodeId(3)), Precision::Fp16); // linear1
        assert_eq!(pd.get(NodeId(2)), Precision::Fp16); // relu follows its input
        assert_eq!(pd.get(NodeId(4)), Precision::Fp16); // add of two fp16 outputs
        assert_eq!(pd.get(NodeId(5)), Precision::Fp32); // loss fixed
    }

    #[test]
    fn int8_operators_emit_fp32_outputs() {
        let g = chain();
        let pd = PrecisionDag::uniform(&g, Precision::Int8);
        // relu follows the *output* precision of the int8 linear, which is fp32.
        assert_eq!(pd.get(NodeId(1)), Precision::Int8);
        assert_eq!(pd.get(NodeId(2)), Precision::Fp32);
    }

    #[test]
    fn set_cascades_to_dependent_successors() {
        let g = chain();
        let mut pd = PrecisionDag::uniform(&g, Precision::Fp32);
        let changed = pd.set(&g, NodeId(1), Precision::Fp16);
        // linear0 changed; relu derives fp16; add promotes fp16 with fp32 (linear1) -> fp32.
        assert!(changed.contains(&NodeId(1)));
        assert!(changed.contains(&NodeId(2)));
        assert_eq!(pd.get(NodeId(2)), Precision::Fp16);
        assert_eq!(pd.get(NodeId(4)), Precision::Fp32);

        // Now lower linear1 too: the add becomes fp16 as both inputs are fp16.
        let changed2 = pd.set(&g, NodeId(3), Precision::Fp16);
        assert!(changed2.contains(&NodeId(4)));
        assert_eq!(pd.get(NodeId(4)), Precision::Fp16);
    }

    #[test]
    fn histogram_counts_every_node() {
        let g = chain();
        let pd = PrecisionDag::uniform(&g, Precision::Fp16);
        let total: usize = pd.histogram().iter().map(|(_, c)| c).sum();
        assert_eq!(total, g.len());
        assert_eq!(pd.count_adjustable_at(&g, Precision::Fp16), 2);
    }

    #[test]
    fn set_incremental_matches_full_set() {
        let g = chain();
        let topology = DagTopology::new(&g);
        for start in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            for target in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
                for &op in &g.adjustable_ops() {
                    let mut full = PrecisionDag::uniform(&g, start);
                    let mut incr = full.clone();
                    let changed_full = full.set(&g, op, target);
                    let changed_incr = incr.set_incremental(&g, &topology, op, target);
                    assert_eq!(full, incr, "{start}->{target} at {op:?}");
                    assert_eq!(changed_full, changed_incr, "{start}->{target} at {op:?}");
                }
            }
        }
    }

    #[test]
    fn set_incremental_cascades_through_dependent_chains() {
        let g = chain();
        let topology = DagTopology::new(&g);
        let mut pd = PrecisionDag::uniform(&g, Precision::Fp16);
        // Lowering linear0 to int8 flips relu (via the fp32 int8-output) and the add.
        let changed = pd.set_incremental(&g, &topology, NodeId(1), Precision::Int8);
        let mut reference = PrecisionDag::uniform(&g, Precision::Fp16);
        let expected = reference.set(&g, NodeId(1), Precision::Int8);
        assert_eq!(pd, reference);
        assert_eq!(changed, expected);
    }

    #[test]
    #[should_panic]
    fn setting_a_dependent_operator_panics() {
        let g = chain();
        let mut pd = PrecisionDag::full_precision(&g);
        let _ = pd.set(&g, NodeId(2), Precision::Fp16); // relu is dependent
    }
}
