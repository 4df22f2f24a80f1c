//! Model specifications: the request-facing handle into the `qsync_graph`
//! model zoo.
//!
//! Requests name a model *constructively* (zoo entry + hyperparameters) rather
//! than shipping a serialized DAG, which keeps request payloads small and
//! guarantees the server plans against exactly the graphs the evaluation uses.

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex};

use serde::{Deserialize, Serialize};

use qsync_graph::models;
use qsync_graph::ModelDag;

/// Cap on memoized [`ModelSpec::fingerprint`]s. Specs arrive off the wire, so
/// the table must be bounded; an entry is ~64 bytes. On overflow the memo is
/// cleared (a fingerprint is a pure function of the spec, so this only costs
/// the rebuilds).
pub(crate) const MODEL_FINGERPRINT_MEMO_CAP: usize = 4096;

static MODEL_FINGERPRINT_MEMO: LazyLock<Mutex<HashMap<ModelSpec, u128>>> =
    LazyLock::new(Mutex::default);

/// Entries resident in the fingerprint memo.
#[cfg(test)]
pub(crate) fn fingerprint_memo_len() -> usize {
    MODEL_FINGERPRINT_MEMO.lock().expect("model fingerprint memo poisoned").len()
}

/// A buildable model from the zoo, with the hyperparameters that shape its DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelSpec {
    /// The small executable MLP used by tests and the training engine.
    SmallMlp {
        /// Per-device batch size.
        batch: usize,
        /// Input feature dimension.
        in_features: usize,
        /// Hidden width.
        hidden: usize,
        /// Number of classes.
        classes: usize,
    },
    /// The small executable CNN (contains BatchNorm).
    SmallCnn {
        /// Per-device batch size.
        batch: usize,
        /// Input image side length.
        image: usize,
        /// Number of classes.
        classes: usize,
    },
    /// ResNet-50 at a given batch size and image resolution.
    Resnet50 {
        /// Per-device batch size.
        batch: usize,
        /// Input image side length.
        image: usize,
    },
    /// VGG-16.
    Vgg16 {
        /// Per-device batch size.
        batch: usize,
        /// Input image side length.
        image: usize,
    },
    /// VGG-16 with BatchNorm.
    Vgg16Bn {
        /// Per-device batch size.
        batch: usize,
        /// Input image side length.
        image: usize,
    },
    /// BERT-base.
    BertBase {
        /// Per-device batch size.
        batch: usize,
        /// Sequence length.
        seq: usize,
    },
    /// RoBERTa-base.
    RobertaBase {
        /// Per-device batch size.
        batch: usize,
        /// Sequence length.
        seq: usize,
    },
}

impl ModelSpec {
    /// Build the model DAG this spec describes.
    pub fn build(&self) -> ModelDag {
        match *self {
            ModelSpec::SmallMlp { batch, in_features, hidden, classes } => {
                models::small_mlp(batch, in_features, hidden, classes)
            }
            ModelSpec::SmallCnn { batch, image, classes } => models::small_cnn(batch, image, classes),
            ModelSpec::Resnet50 { batch, image } => models::resnet50(batch, image),
            ModelSpec::Vgg16 { batch, image } => models::vgg16(batch, image),
            ModelSpec::Vgg16Bn { batch, image } => models::vgg16bn(batch, image),
            ModelSpec::BertBase { batch, seq } => models::bert_base(batch, seq),
            ModelSpec::RobertaBase { batch, seq } => models::roberta_base(batch, seq),
        }
    }

    /// Structural fingerprint of the DAG this spec builds: exactly
    /// `self.build().fingerprint()`, memoized process-wide so that naming a
    /// model (every [`cache_key`](crate::PlanRequest::cache_key), i.e. every
    /// cache hit) costs a hash and a map read instead of a DAG build.
    pub fn fingerprint(&self) -> u128 {
        if let Some(&fp) =
            MODEL_FINGERPRINT_MEMO.lock().expect("model fingerprint memo poisoned").get(self)
        {
            return fp;
        }
        // Built outside the lock; concurrent misses compute the same value.
        let fp = self.build().fingerprint();
        let mut memo = MODEL_FINGERPRINT_MEMO.lock().expect("model fingerprint memo poisoned");
        if memo.len() >= MODEL_FINGERPRINT_MEMO_CAP {
            memo.clear();
        }
        memo.insert(self.clone(), fp);
        fp
    }

    /// Short display name of the zoo entry.
    pub fn family(&self) -> &'static str {
        match self {
            ModelSpec::SmallMlp { .. } => "small_mlp",
            ModelSpec::SmallCnn { .. } => "small_cnn",
            ModelSpec::Resnet50 { .. } => "resnet50",
            ModelSpec::Vgg16 { .. } => "vgg16",
            ModelSpec::Vgg16Bn { .. } => "vgg16bn",
            ModelSpec::BertBase { .. } => "bert",
            ModelSpec::RobertaBase { .. } => "roberta",
        }
    }

    /// Parse a CLI-style spec: `family[:batch[,extra]]` where `extra` is the
    /// image side for vision models / sequence length for transformers.
    ///
    /// Examples: `bert`, `bert:4,64`, `resnet50:2,32`, `small_mlp:64`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (family, args) = match s.split_once(':') {
            Some((f, a)) => (f, a),
            None => (s, ""),
        };
        let nums: Vec<usize> = if args.is_empty() {
            Vec::new()
        } else {
            args.split(',')
                .map(|p| p.trim().parse::<usize>().map_err(|e| format!("bad number {p:?}: {e}")))
                .collect::<Result<_, _>>()?
        };
        let get = |i: usize, default: usize| nums.get(i).copied().unwrap_or(default);
        match family {
            "small_mlp" => Ok(ModelSpec::SmallMlp {
                batch: get(0, 64),
                in_features: get(1, 512),
                hidden: get(2, 1024),
                classes: get(3, 16),
            }),
            "small_cnn" => {
                Ok(ModelSpec::SmallCnn { batch: get(0, 16), image: get(1, 16), classes: get(2, 10) })
            }
            "resnet50" => Ok(ModelSpec::Resnet50 { batch: get(0, 2), image: get(1, 32) }),
            "vgg16" => Ok(ModelSpec::Vgg16 { batch: get(0, 2), image: get(1, 32) }),
            "vgg16bn" => Ok(ModelSpec::Vgg16Bn { batch: get(0, 2), image: get(1, 32) }),
            "bert" => Ok(ModelSpec::BertBase { batch: get(0, 2), seq: get(1, 16) }),
            "roberta" => Ok(ModelSpec::RobertaBase { batch: get(0, 2), seq: get(1, 16) }),
            other => Err(format!(
                "unknown model family {other:?} (expected one of small_mlp, small_cnn, resnet50, vgg16, vgg16bn, bert, roberta)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_a_valid_dag() {
        let specs = [
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ModelSpec::SmallCnn { batch: 4, image: 16, classes: 10 },
            ModelSpec::Resnet50 { batch: 2, image: 32 },
            ModelSpec::Vgg16 { batch: 2, image: 32 },
            ModelSpec::Vgg16Bn { batch: 2, image: 32 },
            ModelSpec::BertBase { batch: 2, seq: 16 },
            ModelSpec::RobertaBase { batch: 2, seq: 16 },
        ];
        for spec in specs {
            let dag = spec.build();
            assert!(!dag.is_empty(), "{spec:?} built an empty dag");
            assert_eq!(dag.topo_order().len(), dag.len());
        }
    }

    #[test]
    fn parse_accepts_defaults_and_overrides() {
        assert_eq!(ModelSpec::parse("bert").unwrap(), ModelSpec::BertBase { batch: 2, seq: 16 });
        assert_eq!(
            ModelSpec::parse("resnet50:4,64").unwrap(),
            ModelSpec::Resnet50 { batch: 4, image: 64 }
        );
        assert!(ModelSpec::parse("alexnet").is_err());
        assert!(ModelSpec::parse("bert:x").is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ModelSpec::BertBase { batch: 4, seq: 32 };
        let text = serde_json::to_string(&spec).unwrap();
        let back: ModelSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }
}
