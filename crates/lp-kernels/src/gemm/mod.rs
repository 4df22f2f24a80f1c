//! General matrix multiplication at FP32 / FP16 / INT8.
//!
//! All kernels compute `C = A * B (+ bias)` for row-major `A: [m, k]`, `B: [k, n]`,
//! `C: [m, n]`. The FP32 kernel is the full-precision reference used by training GPUs;
//! the FP16 kernel emulates tensor-core numerics (operands on the binary16 grid, FP32
//! accumulation); the INT8 kernel consumes already-quantized operands, accumulates in
//! INT32 and fuses dequantization into its epilogue (Section VI).

pub mod f16;
pub mod f32_kernel;
pub mod i8_kernel;
pub mod tiling;

pub use f16::gemm_f16;
pub use f32_kernel::gemm_f32;
pub use i8_kernel::gemm_i8;
pub use tiling::TileConfig;

/// Naive triple-loop reference GEMM used for correctness testing only.
pub fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j];
            }
        }
    }
    c
}

/// Add a row-broadcast bias to a row-major `[m, n]` matrix in place.
pub fn add_bias(c: &mut [f32], n: usize, bias: &[f32]) {
    assert_eq!(bias.len(), n, "bias length must equal the number of output columns");
    for row in c.chunks_mut(n) {
        for (v, b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

/// Transpose a row-major `[rows, cols]` matrix.
pub fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(a.len(), rows * cols);
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = a[i * cols + j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_gemm_identity() {
        // 2x2 identity times arbitrary matrix.
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, -1.0, 2.0, 5.0];
        assert_eq!(gemm_ref(&a, &b, 2, 2, 2), b);
    }

    #[test]
    fn reference_gemm_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(gemm_ref(&a, &b, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn bias_broadcasts_over_rows() {
        let mut c = vec![0.0f32; 6];
        add_bias(&mut c, 3, &[1.0, 2.0, 3.0]);
        assert_eq!(c, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let t = transpose(&a, 3, 4);
        let back = transpose(&t, 4, 3);
        assert_eq!(a, back);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 4.0); // element (1, 0) of the original
    }

    #[test]
    #[should_panic]
    fn bias_length_mismatch_panics() {
        let mut c = vec![0.0f32; 6];
        add_bias(&mut c, 3, &[1.0, 2.0]);
    }
}
