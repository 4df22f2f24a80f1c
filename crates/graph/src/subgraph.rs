//! Repeating isomorphic subgraph detection.
//!
//! Section V: "many DNN models contain repeating isomorphic building subgraphs which have
//! much fewer precision-adjustable operators available compared with the entire graph
//! (e.g. BERT's attention has only 5 such operators)". The allocator decomposes the model
//! into such blocks, gives each a memory budget, and brute-forces the initial precision
//! setting inside a block instead of over the whole graph.
//!
//! Model builders tag every node with the building block instance it belongs to; here we
//! group instances whose *structural signature* (the ordered list of adjustable operator
//! families and their parameter sizes) is identical.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::dag::{ModelDag, NodeId};
use crate::op::OpCategory;

/// One group of isomorphic block instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubgraphGroup {
    /// Structural signature shared by every instance in the group.
    pub signature: String,
    /// Each instance: the precision-adjustable node ids it contains, in topological order.
    pub instances: Vec<Vec<NodeId>>,
}

/// Decompose the model into groups of repeating blocks.
///
/// Nodes without a block tag form singleton groups (one instance per node), so every
/// adjustable operator is covered exactly once across all groups.
pub fn find_repeating_subgraphs(dag: &ModelDag) -> Vec<SubgraphGroup> {
    // Collect adjustable ops per block instance, preserving topological order.
    let mut per_block: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    let mut untagged: Vec<NodeId> = Vec::new();
    for id in dag.topo_order() {
        let node = dag.node(id);
        if node.kind.category() != OpCategory::PrecisionAdjustable {
            continue;
        }
        match &node.block {
            Some(b) => per_block.entry(b.clone()).or_default().push(id),
            None => untagged.push(id),
        }
    }

    // Signature of an instance: ordered (family, param_count) pairs.
    let signature_of = |ids: &[NodeId]| -> String {
        ids.iter()
            .map(|id| {
                let n = dag.node(*id);
                format!("{}:{}", n.kind.family(), n.kind.param_count())
            })
            .collect::<Vec<_>>()
            .join("|")
    };

    let mut groups: BTreeMap<String, Vec<Vec<NodeId>>> = BTreeMap::new();
    for (_block, ids) in per_block {
        if ids.is_empty() {
            continue;
        }
        groups.entry(signature_of(&ids)).or_default().push(ids);
    }
    for id in untagged {
        let ids = vec![id];
        groups.entry(signature_of(&ids)).or_default().push(ids);
    }

    groups
        .into_iter()
        .map(|(signature, instances)| SubgraphGroup { signature, instances })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{bert_base, resnet50, small_mlp};

    #[test]
    fn every_adjustable_op_is_covered_exactly_once() {
        for dag in [small_mlp(4, 8, 16, 4), resnet50(2, 32), bert_base(2, 32)] {
            let groups = find_repeating_subgraphs(&dag);
            let covered: usize = groups.iter().flat_map(|g| &g.instances).map(Vec::len).sum();
            assert_eq!(covered, dag.adjustable_ops().len(), "model {}", dag.name);
        }
    }

    #[test]
    fn bert_layers_form_one_large_repeating_group() {
        let dag = bert_base(2, 32);
        let groups = find_repeating_subgraphs(&dag);
        // The 12 encoder layers must collapse into a single group with 12 instances.
        let max_instances = groups.iter().map(|g| g.instances.len()).max().unwrap();
        assert!(max_instances >= 12, "expected >= 12 repeated instances, got {max_instances}");
    }

    #[test]
    fn resnet_bottlenecks_repeat() {
        let dag = resnet50(2, 32);
        let groups = find_repeating_subgraphs(&dag);
        let max_instances = groups.iter().map(|g| g.instances.len()).max().unwrap();
        // layer1..layer4 contain 3+4+6+3 = 16 bottlenecks; identical-signature ones repeat
        // within each stage (channel widths differ across stages).
        assert!(max_instances >= 2);
        // Instances in one group all have the same op count.
        for g in &groups {
            let k = g.instances[0].len();
            assert!(g.instances.iter().all(|i| i.len() == k));
        }
    }

    #[test]
    fn subgraphs_shrink_the_search_space() {
        let dag = bert_base(2, 32);
        let groups = find_repeating_subgraphs(&dag);
        let total_adjustable = dag.adjustable_ops().len();
        let largest_block = groups.iter().map(|g| g.instances[0].len()).max().unwrap();
        // Brute-forcing inside a block must be exponentially cheaper than the whole model.
        assert!(largest_block * 4 < total_adjustable);
    }
}
