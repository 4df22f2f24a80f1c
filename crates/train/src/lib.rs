//! # qsync-train — executable mixed-precision training engine
//!
//! Real (CPU-scale) hybrid mixed-precision data-parallel training plus the
//! accuracy-response model used for paper-scale tasks:
//!
//! * [`layers`] — linear / ReLU / softmax-cross-entropy layers that run the actual
//!   low-precision kernels and collect indicator statistics.
//! * [`optim`] — SGD (momentum) and Adam.
//! * [`data`] — deterministic synthetic classification datasets.
//! * [`dp`] — synchronous data-parallel training with per-worker precision
//!   configurations and a real gradient all-reduce.
//! * [`metrics`] — top-1 accuracy and macro F1.
//! * [`mod@accuracy`] — the calibrated accuracy-response model mapping a precision plan's
//!   gradient-variance increment to a final accuracy for the paper-scale tasks.

#![warn(missing_docs)]

pub mod accuracy;
pub mod data;
pub mod dp;
pub mod layers;
pub mod metrics;
pub mod optim;

pub use accuracy::{AccuracyModel, AccuracyOutcome, TaskProfile};
pub use data::SyntheticClassification;
pub use dp::{DataParallelTrainer, MlpModel, TrainReport};
pub use layers::{LayerObservation, LinearLayer, ReluLayer, SoftmaxCrossEntropy};
pub use metrics::{accuracy, f1_macro};
pub use optim::{Optimizer, OptimizerConfig};
