//! # qsync-graph — operator DAGs, precision DAGs, data-flow graphs and the model zoo
//!
//! This crate provides the graph substrate the QSync system operates on:
//!
//! * [`op`] — operator taxonomy (precision-adjustable vs precision-dependent vs fixed).
//! * [`dag`] — the model DAG with topological order, operator depths and parameter counts.
//! * [`precision_dag`] — per-device precision assignment with dependent-precision
//!   derivation (the cascading behaviour the cost mapper must handle).
//! * [`dfg`] — local and global data-flow graphs (forward/backward/cast/comm/optimizer
//!   execution entries) consumed by the replayer.
//! * [`subgraph`] — repeating isomorphic building-block detection used by the allocator.
//! * [`models`] — ResNet-50, VGG-16, VGG-16BN, BERT-base, RoBERTa-base and small
//!   executable test models.

#![warn(missing_docs)]

pub mod dag;
pub mod dfg;
pub mod fingerprint;
pub mod models;
pub mod op;
pub mod precision_dag;
pub mod subgraph;

pub use dag::{DagTopology, ModelDag, NodeId, OpNode, TopoWorklist};
pub use fingerprint::Fingerprint;
pub use dfg::{gradient_buckets, DfgNode, DfgOp, GlobalDfg, GradientBucket, LocalDfg};
pub use op::{OpCategory, OpKind};
pub use precision_dag::PrecisionDag;
pub use subgraph::{find_repeating_subgraphs, SubgraphGroup};
