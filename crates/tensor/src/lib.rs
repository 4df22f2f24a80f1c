//! # qsync-tensor — dense tensor substrate
//!
//! A small, deterministic, pool-parallel FP32 tensor library used by the training
//! engine, the profiler and the model zoo of the QSync reproduction.
//!
//! * [`shape`] — shapes, strides and index arithmetic.
//! * [`tensor`] — the dense [`Tensor`] type with elementwise ops, reductions, norms,
//!   matmul and deterministic random initialisation.
//! * [`layout`] — NCHW/NHWC conversions (channels-last is required by sub-16-bit kernels).
//! * [`stats`] — per-tensor statistics consumed by the QSync indicator.

#![warn(missing_docs)]

pub mod layout;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use layout::{nchw_to_nhwc, nhwc_to_nchw, MemoryLayout};
pub use shape::Shape;
pub use stats::{RunningStats, TensorStats};
pub use tensor::Tensor;
