//! The model DAG: operator nodes, dependencies, topological order and depths.
//!
//! The depth of an operator (its distance from the input node) appears directly in the
//! indicator formula (Proposition 3: `Ω = γ² d_o σ_fp + (d_L − d_o) σ_bp`), and the
//! topological order drives both the replayer and the training engine.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::op::{OpCategory, OpKind};

/// Identifier of a node inside one [`ModelDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// One operator instance in the model graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpNode {
    /// Node identifier (index into the DAG's node vector).
    pub id: NodeId,
    /// Unique human-readable name (e.g. `layer3.conv2`).
    pub name: String,
    /// Operator type and hyperparameters.
    pub kind: OpKind,
    /// Producer nodes whose outputs feed this operator.
    pub inputs: Vec<NodeId>,
    /// Shape of the output activation (includes the batch dimension).
    pub output_shape: Vec<usize>,
    /// Shape of the learnable weight, if any.
    pub weight_shape: Option<Vec<usize>>,
    /// Label of the repeating building block this node belongs to (e.g. `bert_layer`),
    /// used by the allocator's subgraph decomposition.
    pub block: Option<String>,
}

impl OpNode {
    /// Number of elements in the output activation.
    pub fn output_numel(&self) -> usize {
        self.output_shape.iter().product()
    }

    /// Number of elements in the weight tensor (0 when the operator has no weight).
    pub fn weight_numel(&self) -> usize {
        self.weight_shape.as_ref().map(|s| s.iter().product()).unwrap_or(0)
    }
}

/// A directed acyclic graph of operators describing one DNN model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelDag {
    /// Model name (e.g. `resnet50`).
    pub name: String,
    /// Local (per-device) batch size the graph was built for.
    pub batch_size: usize,
    nodes: Vec<OpNode>,
}

impl ModelDag {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>, batch_size: usize) -> Self {
        ModelDag { name: name.into(), batch_size, nodes: Vec::new() }
    }

    /// Add a node and return its id. Inputs must already exist.
    #[allow(clippy::too_many_arguments)]
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: Vec<NodeId>,
        output_shape: Vec<usize>,
        weight_shape: Option<Vec<usize>>,
        block: Option<String>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        for inp in &inputs {
            assert!(inp.0 < self.nodes.len(), "input {inp:?} does not exist yet");
        }
        self.nodes.push(OpNode { id, name: name.into(), kind, inputs, output_shape, weight_shape, block });
        id
    }

    /// All nodes in insertion order (which is a valid topological order by construction).
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id.0]
    }

    /// Predecessors (inputs) of a node.
    pub fn preds(&self, id: NodeId) -> Vec<NodeId> {
        self.node(id).inputs.clone()
    }

    /// Successors (consumers) of a node.
    pub fn succs(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// A topological order of the node ids (Kahn's algorithm; ties broken by id).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for node in &self.nodes {
            for inp in &node.inputs {
                succs[inp.0].push(node.id.0);
                indeg[node.id.0] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for &s in &succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        assert_eq!(order.len(), n, "graph contains a cycle");
        order
    }

    /// Depth of every node: the longest path length from any root (input) node.
    ///
    /// This is the `d_o` of Proposition 3; the model depth `d_L` is the maximum entry.
    pub fn depths(&self) -> Vec<usize> {
        let order = self.topo_order();
        let mut depth = vec![0usize; self.nodes.len()];
        for id in order {
            let node = self.node(id);
            let d = node
                .inputs
                .iter()
                .map(|p| depth[p.0] + 1)
                .max()
                .unwrap_or(0);
            depth[id.0] = d;
        }
        depth
    }

    /// Maximum depth `d_L` of the model.
    pub fn max_depth(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.kind.param_count()).sum()
    }

    /// Ids of all precision-adjustable operators (the allocator's search space).
    pub fn adjustable_ops(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.category() == OpCategory::PrecisionAdjustable)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all compute-intensive operators (linear / conv / matmul).
    pub fn compute_ops(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_compute_intensive())
            .map(|n| n.id)
            .collect()
    }

    /// Count nodes of a given family name (e.g. `"linear"`).
    pub fn count_family(&self, family: &str) -> usize {
        self.nodes.iter().filter(|n| n.kind.family() == family).count()
    }

    /// Sum of forward FLOPs over all operators for one iteration's forward pass.
    pub fn total_forward_flops(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| {
                let rows = n.output_shape.first().copied().unwrap_or(1);
                n.kind.forward_flops(n.output_numel(), rows)
            })
            .sum()
    }

    /// `true` if any operator's semantics depend on the local batch size (BatchNorm).
    pub fn is_batch_size_sensitive(&self) -> bool {
        self.nodes.iter().any(|n| n.kind.is_batch_size_sensitive())
    }

    /// A stable structural fingerprint of the graph, used as part of the
    /// `qsync-serve` plan-cache key.
    ///
    /// The fingerprint covers everything the allocator's decisions depend on:
    /// the batch size and, per node in insertion order, the operator kind with
    /// its hyperparameters, the input edges, the output shape, the weight shape
    /// and the repeating-block tag (which drives subgraph decomposition).
    /// Display names (`ModelDag::name`, `OpNode::name`) are deliberately
    /// excluded: two structurally identical graphs plan identically whatever
    /// they are called.
    pub fn fingerprint(&self) -> u128 {
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.write_str("qsync_graph::ModelDag/v1");
        fp.write_u64(self.batch_size as u64);
        fp.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            fp.write_serialize(&node.kind);
            fp.write_u64(node.inputs.len() as u64);
            for inp in &node.inputs {
                fp.write_u64(inp.0 as u64);
            }
            fp.write_serialize(&node.output_shape);
            fp.write_serialize(&node.weight_shape);
            fp.write_serialize(&node.block);
        }
        fp.finish()
    }
}

/// Precomputed traversal context over one [`ModelDag`]: the topological order, each
/// node's position in it, and the successor adjacency.
///
/// [`ModelDag::topo_order`] and [`ModelDag::succs`] recompute their answers on every
/// call; hot loops (the allocator's precision-recovery heap, the incremental plan
/// evaluator) instead build a `DagTopology` once and reuse it for every candidate.
#[derive(Debug, Clone)]
pub struct DagTopology {
    topo: Vec<NodeId>,
    position: Vec<usize>,
    succs: Vec<Vec<NodeId>>,
}

impl DagTopology {
    /// Precompute the traversal context of a graph.
    pub fn new(dag: &ModelDag) -> Self {
        let topo = dag.topo_order();
        let mut position = vec![0usize; dag.len()];
        for (i, id) in topo.iter().enumerate() {
            position[id.0] = i;
        }
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); dag.len()];
        for node in dag.nodes() {
            for inp in &node.inputs {
                succs[inp.0].push(node.id);
            }
        }
        DagTopology { topo, position, succs }
    }

    /// The cached topological order (identical to [`ModelDag::topo_order`]).
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of a node within the topological order.
    pub fn position(&self, id: NodeId) -> usize {
        self.position[id.0]
    }

    /// Successors (consumers) of a node, without the per-call scan of
    /// [`ModelDag::succs`].
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.0]
    }
}

/// A worklist that hands nodes out in topological order, each at most once while
/// it is queued: the order a propagation needs so that every node sees its inputs'
/// final values.
///
/// It keeps its buffers between uses, so a hot loop that owns one pushes and pops
/// without allocating. A node popped is never pushed again by its successors, since
/// they come later in the order.
#[derive(Debug, Clone, Default)]
pub struct TopoWorklist {
    heap: BinaryHeap<Reverse<usize>>,
    queued: Vec<bool>,
}

impl TopoWorklist {
    /// Queue `id` unless it is already queued.
    pub fn push(&mut self, topology: &DagTopology, id: NodeId) {
        let at = topology.position(id);
        if self.queued.len() <= at {
            self.queued.resize(topology.topo.len(), false);
        }
        if !self.queued[at] {
            self.queued[at] = true;
            self.heap.push(Reverse(at));
        }
    }

    /// Take the queued node that comes first in topological order.
    pub fn pop(&mut self, topology: &DagTopology) -> Option<NodeId> {
        let Reverse(at) = self.heap.pop()?;
        self.queued[at] = false;
        Some(topology.topo[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> ModelDag {
        // input -> a -> (b, c) -> add -> loss
        let mut g = ModelDag::new("diamond", 4);
        let input = g.add_node("input", OpKind::Input, vec![], vec![4, 8], None, None);
        let a = g.add_node(
            "a",
            OpKind::Linear { in_features: 8, out_features: 8 },
            vec![input],
            vec![4, 8],
            Some(vec![8, 8]),
            None,
        );
        let b = g.add_node("b", OpKind::ReLU, vec![a], vec![4, 8], None, None);
        let c = g.add_node(
            "c",
            OpKind::Linear { in_features: 8, out_features: 8 },
            vec![a],
            vec![4, 8],
            Some(vec![8, 8]),
            None,
        );
        let add = g.add_node("add", OpKind::Add, vec![b, c], vec![4, 8], None, None);
        let _ = g.add_node("loss", OpKind::CrossEntropyLoss, vec![add], vec![1], None, None);
        g
    }

    #[test]
    fn preds_and_succs_are_consistent() {
        let g = diamond();
        let a = NodeId(1);
        assert_eq!(g.preds(a), vec![NodeId(0)]);
        let succs = g.succs(a);
        assert!(succs.contains(&NodeId(2)) && succs.contains(&NodeId(3)));
        assert_eq!(g.succs(NodeId(5)), vec![]);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> = (0..g.len())
            .map(|i| order.iter().position(|n| n.0 == i).unwrap())
            .collect();
        for node in g.nodes() {
            for inp in &node.inputs {
                assert!(pos[inp.0] < pos[node.id.0]);
            }
        }
    }

    #[test]
    fn depths_follow_longest_path() {
        let g = diamond();
        let d = g.depths();
        assert_eq!(d[0], 0); // input
        assert_eq!(d[1], 1); // a
        assert_eq!(d[2], 2); // b
        assert_eq!(d[3], 2); // c
        assert_eq!(d[4], 3); // add
        assert_eq!(d[5], 4); // loss
        assert_eq!(g.max_depth(), 4);
    }

    #[test]
    fn adjustable_ops_exclude_dependent_and_fixed() {
        let g = diamond();
        let adj = g.adjustable_ops();
        assert_eq!(adj, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn param_count_sums_all_layers() {
        let g = diamond();
        assert_eq!(g.param_count(), 2 * (8 * 8 + 8));
    }

    #[test]
    fn family_counting_and_flops() {
        let g = diamond();
        assert_eq!(g.count_family("linear"), 2);
        assert_eq!(g.count_family("relu"), 1);
        assert!(g.total_forward_flops() > 0.0);
        assert!(!g.is_batch_size_sensitive());
    }

    #[test]
    #[should_panic]
    fn adding_node_with_missing_input_panics() {
        let mut g = ModelDag::new("bad", 1);
        let _ = g.add_node("x", OpKind::ReLU, vec![NodeId(3)], vec![1], None, None);
    }
}
