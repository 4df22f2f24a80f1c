//! Shared experiment setup: the paper's clusters, models and training configurations.
//!
//! The paper's testbed has 16 V100 + 16 T4 GPUs; the simulated clusters here default to
//! 8 + 8 to keep the full `reproduce all` run under a few minutes — the ratio of training
//! to inference GPUs (and therefore every relative comparison) is unchanged. Adjust
//! [`N_V100`] / [`N_T4`] to reproduce the exact scale.

use qsync_cluster::topology::ClusterSpec;
use qsync_core::system::{QSyncConfig, QSyncSystem};
use qsync_graph::models::{bert_base, resnet50, roberta_base, vgg16, vgg16bn};
use qsync_graph::ModelDag;

/// Number of V100 training GPUs in the simulated clusters.
pub const N_V100: usize = 8;
/// Number of T4 inference GPUs in the simulated clusters.
pub const N_T4: usize = 8;
/// ClusterB's available-memory fraction on the T4s (the paper's default).
pub const CLUSTER_B_MEM_FRACTION: f64 = 0.30;

/// The paper's ClusterA.
pub fn cluster_a() -> ClusterSpec {
    ClusterSpec::cluster_a(N_V100, N_T4)
}

/// The paper's ClusterB (ClusterA with T4 memory limited to 30 %).
pub fn cluster_b() -> ClusterSpec {
    ClusterSpec::cluster_b(N_V100, N_T4, CLUSTER_B_MEM_FRACTION)
}

/// Build a paper model by name, at the paper's training configuration.
///
/// * ResNet/VGG: local batch 128, 224x224 ImageNet inputs.
/// * BERT: local batch 12, sequence length 384 (SQuAD).
/// * RoBERTa: local batch 16, sequence length 128 (SWAG).
pub fn paper_model(name: &str) -> ModelDag {
    match name {
        "resnet50" => resnet50(128, 224),
        "vgg16" => vgg16(128, 224),
        "vgg16bn" => vgg16bn(128, 224),
        "bert" | "bert_base" => bert_base(12, 384),
        "roberta" | "roberta_base" => roberta_base(16, 128),
        other => panic!("unknown paper model {other}"),
    }
}

/// Assemble a [`QSyncSystem`] for a paper model on a cluster.
pub fn system(model: &str, cluster: ClusterSpec, seed: u64) -> QSyncSystem {
    let config = QSyncConfig { seed, ..QSyncConfig::default() };
    QSyncSystem::new(paper_model(model), cluster, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_have_the_configured_composition() {
        assert_eq!(cluster_a().training_ranks().len(), N_V100);
        assert_eq!(cluster_a().inference_ranks().len(), N_T4);
        assert!(cluster_b().devices[N_V100].available_memory_bytes() < cluster_a().devices[N_V100].available_memory_bytes());
    }

    #[test]
    fn all_paper_models_build() {
        for m in ["resnet50", "vgg16", "vgg16bn", "bert", "roberta"] {
            let dag = paper_model(m);
            assert!(dag.len() > 10, "{m}");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_model_panics() {
        let _ = paper_model("alexnet");
    }
}
