//! The GEMM kernels' cache-blocking tile.
//!
//! LP-PyTorch templates every kernel on a CUTLASS ThreadblockShape. On the CPU the
//! same knob is the cache-blocking tile: the kernels block the output's rows by
//! `threadblock.0` and the reduction dimension by `threadblock.2`. Every caller
//! passes [`TileConfig::fallback`].

/// The outermost `(M, N, K)` blocking of a GEMM, CUTLASS's ThreadblockShape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Blocking (rows, cols, depth). The kernels read the rows and the depth.
    pub threadblock: (usize, usize, usize),
}

impl TileConfig {
    /// The `(32, 32, 32)` tile every caller uses. The rows set the pool's unit of
    /// work; every output element is still summed over K in ascending order.
    pub fn fallback() -> Self {
        TileConfig { threadblock: (32, 32, 32) }
    }
}
