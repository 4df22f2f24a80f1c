//! # qsync-lp-kernels — the LP-PyTorch analogue
//!
//! Low-precision kernel backend for the QSync reproduction. LP-PyTorch, the paper's
//! customized backend, bridges PyTorch's computation graph to templated CUTLASS/cuDNN
//! kernels; this crate provides, as portable Rust, the kernels the reproduction executes:
//! the linear layers that `qsync-train` trains with, and what they are built from.
//!
//! * [`precision`] — precision formats (INT4/INT8/FP16/BF16/FP32) and GPU architecture
//!   families (sm70/sm75/sm80/simt) with their hardware-support matrix.
//! * [`half`] — software binary16/bfloat16 with round-to-nearest and stochastic rounding.
//! * [`stochastic`] — the stochastic rounding rule.
//! * [`quant`] — fixed-point and floating-point quantizers, per-tensor/per-channel
//!   scaling, the optimized two-step min/max reduction, and dequantization (fused and
//!   unfused).
//! * [`gemm`] — FP32 / FP16 / INT8 GEMM kernels, cache-blocked by a [`TileConfig`]
//!   (the analogue of CUTLASS's ThreadblockShape).
//! * [`linear`] — linear-layer forward/backward at each precision.
//!
//! Convolutions are not executed: the planner costs the zoo's conv operators with the
//! analytic models in `qsync-cluster`.
//!
//! All randomized components take explicit RNGs (or seeds) so every experiment in the
//! benchmark harness is reproducible.

#![warn(missing_docs)]

pub mod gemm;
pub mod half;
pub mod linear;
pub mod precision;
pub mod quant;
pub mod stochastic;

pub use gemm::{gemm_f16, gemm_f32, gemm_i8, TileConfig};
pub use linear::{linear_backward, linear_forward, LinearGrads};
pub use precision::{Arch, Precision};
pub use quant::{FixedQuantizer, FloatQuantizer, QuantScheme, QuantizedTensor};
pub use stochastic::RoundingMode;
