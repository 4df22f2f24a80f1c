//! The per-model part of a QSync system.
//!
//! Everything here is a function of the model graph (plus the bucket count and the
//! statistics seed) and of nothing else — not the cluster, not a device, not a memory
//! limit. It is built **once per model** and shared behind an `Arc` by every
//! [`QSyncSystem`](crate::system::QSyncSystem) assembled for that model, and *borrowed*
//! by the [`CostMapper`](crate::replayer::CostMapper) and the
//! [`DeltaEvaluator`](crate::eval::DeltaEvaluator), which used to rebuild the topology
//! and the DFG skeleton per evaluator and per training rank.

use std::mem::size_of;

use qsync_graph::{
    find_repeating_subgraphs, DagTopology, DfgOp, LocalDfg, ModelDag, NodeId, OpNode, SubgraphGroup,
};

use crate::indicator::stats::OpStatistics;
use crate::indicator::ModelStatistics;

/// A model graph with everything derived from it alone.
#[derive(Debug)]
pub struct ModelContext {
    dag: ModelDag,
    topology: DagTopology,
    /// Op sequence of the precision-independent local-DFG skeleton
    /// ([`LocalDfg::from_model`] with `n_buckets` buckets).
    template: Vec<DfgOp>,
    subgraphs: Vec<SubgraphGroup>,
    stats: ModelStatistics,
    n_buckets: usize,
    stats_seed: u64,
}

impl ModelContext {
    /// Derive the context of `dag`: traversal order, the local-DFG skeleton for
    /// `n_buckets` all-reduce buckets, the repeating-subgraph decomposition and synthetic
    /// indicator statistics seeded by `stats_seed`.
    pub fn new(dag: ModelDag, n_buckets: usize, stats_seed: u64) -> Self {
        let topology = DagTopology::new(&dag);
        let template =
            LocalDfg::from_model(&dag, 0, n_buckets).entries.into_iter().map(|e| e.op).collect();
        let subgraphs = find_repeating_subgraphs(&dag);
        let stats = ModelStatistics::synthetic(&dag, stats_seed);
        ModelContext { dag, topology, template, subgraphs, stats, n_buckets, stats_seed }
    }

    /// The model graph.
    pub fn dag(&self) -> &ModelDag {
        &self.dag
    }

    /// Topological order, positions and successor lists of the graph.
    pub fn topology(&self) -> &DagTopology {
        &self.topology
    }

    /// The op sequence of the local-DFG skeleton, in execution order.
    pub fn template(&self) -> &[DfgOp] {
        &self.template
    }

    /// The repeating-subgraph decomposition the allocator's initial pass enumerates.
    pub fn subgraphs(&self) -> &[SubgraphGroup] {
        &self.subgraphs
    }

    /// Synthetic indicator statistics of the model.
    pub fn stats(&self) -> &ModelStatistics {
        &self.stats
    }

    /// Number of gradient all-reduce buckets the skeleton was built for.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Seed of the synthetic statistics.
    pub fn stats_seed(&self) -> u64 {
        self.stats_seed
    }

    /// Estimated heap footprint in bytes (what a byte-bounded cache charges for one
    /// context): node records with their strings and shape vectors, the topology
    /// tables, the skeleton, the statistics and the subgraph index lists.
    pub fn approx_bytes(&self) -> usize {
        let word = size_of::<usize>();
        let n = self.dag.len();
        let mut edges = 0;
        let nodes: usize = self
            .dag
            .nodes()
            .iter()
            .map(|node| {
                edges += node.inputs.len();
                size_of::<OpNode>()
                    + node.name.len()
                    + node.block.as_ref().map_or(0, String::len)
                    + word
                        * (node.inputs.len()
                            + node.output_shape.len()
                            + node.weight_shape.as_ref().map_or(0, Vec::len))
            })
            .sum();
        let topology = n * (2 * word + size_of::<Vec<NodeId>>()) + edges * word;
        let template = self.template.len() * size_of::<DfgOp>();
        let stats = self.stats.len() * (size_of::<OpStatistics>() + 2 * word);
        let subgraphs: usize = self
            .subgraphs
            .iter()
            .map(|g| {
                g.signature.len()
                    + g.instances.iter().map(|i| size_of::<Vec<NodeId>>() + i.len() * word).sum::<usize>()
            })
            .sum();
        size_of::<Self>() + nodes + topology + template + stats + subgraphs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsync_graph::models::{bert_base, small_mlp};

    #[test]
    fn context_parts_equal_their_from_scratch_builds() {
        let dag = bert_base(2, 16);
        let ctx = ModelContext::new(dag.clone(), 4, 42);
        assert_eq!(ctx.topology().topo(), dag.topo_order().as_slice());
        let skeleton = LocalDfg::from_model(&dag, 0, 4);
        assert_eq!(ctx.template().len(), skeleton.entries.len());
        assert!(ctx.template().iter().zip(&skeleton.entries).all(|(op, e)| *op == e.op));
        assert_eq!(ctx.subgraphs(), find_repeating_subgraphs(&dag).as_slice());
        assert_eq!(ctx.stats().len(), dag.adjustable_ops().len());
        assert_eq!((ctx.n_buckets(), ctx.stats_seed()), (4, 42));
    }

    #[test]
    fn approx_bytes_grows_with_the_model() {
        let small = ModelContext::new(small_mlp(4, 8, 16, 4), 4, 42).approx_bytes();
        let large = ModelContext::new(bert_base(2, 16), 4, 42).approx_bytes();
        assert!(small > 0 && large > 10 * small, "small {small}, large {large}");
    }
}
