//! # qsync-core — the QSync system
//!
//! The paper's primary contribution: quantization-minimized synchronous distributed
//! training across hybrid devices.
//!
//! * [`indicator`] — the sensitivity indicator Ω (Propositions 2/3) plus the Hessian and
//!   random baselines, statistics collection and the Fig. 8 rank traces.
//! * [`replayer`] — the cost mapper (Algorithm 1) and the global-DFG simulator
//!   (Equation 6).
//! * [`context`] — the per-model part of a system (graph, topology, DFG skeleton,
//!   repeating subgraphs, statistics), built once per model and shared.
//! * [`system`] — the assembled Predictor (`E(·)`, `M_i(·)`), ground-truth executor and
//!   accuracy hook for one (model, cluster) pair.
//! * [`allocator`] — the precision allocator: fastest-feasible initial plan per
//!   repeating subgraph, then max-heap precision recovery under memory and throughput
//!   constraints.
//! * [`eval`] — the incremental plan evaluator backing the allocator's hot loops:
//!   per-candidate memory and latency answers from cached per-operator deltas, with
//!   commit/rollback transactions.
//! * [`baselines`] — uniform precision, dynamic batch sizing and the ORACLE.
//! * [`plan`] — serializable per-device precision plans.

#![warn(missing_docs)]

pub mod allocator;
pub mod baselines;
pub mod context;
pub mod eval;
pub mod indicator;
pub mod plan;
pub mod replayer;
pub mod system;

pub use allocator::{AllocationReport, Allocator};
pub use context::ModelContext;
pub use eval::DeltaEvaluator;
pub use baselines::{dbs_accuracy, dynamic_batch_sizing, oracle_accuracy, uniform_precision_plan, DbsOutcome};
pub use indicator::{
    HessianIndicator, ModelStatistics, RandomIndicator, SensitivityIndicator, VarianceIndicator,
};
pub use plan::PrecisionPlan;
pub use replayer::{CostMapper, SimResult, Simulator};
pub use system::{QSyncConfig, QSyncSystem};
