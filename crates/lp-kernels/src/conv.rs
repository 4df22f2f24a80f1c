//! 2-D convolution via im2col + GEMM, at FP32 / FP16 / INT8.
//!
//! Convolutions are the second computation-intensive operator family the paper quantizes
//! (alongside linear layers). We lower them onto the GEMM kernels so the same
//! low-precision paths (and the same casting / min-max / dequantization costs) are
//! exercised. Input layout is NCHW; the paper trains convolution models in channels-last
//! (NHWC) for sub-16-bit kernels — the layout difference only affects constant factors in
//! the cost model, which the device simulator accounts for separately.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gemm::{gemm_f16, gemm_f32, gemm_i8, transpose, TileConfig};
use crate::precision::Precision;
use crate::quant::FixedQuantizer;

/// Static shape/stride configuration of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dParams {
    /// Output spatial size for an input spatial size.
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of columns in the unrolled weight matrix (`C * KH * KW`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Unroll an NCHW input into im2col patches.
///
/// Returns a row-major matrix of shape `[batch * out_h * out_w, in_channels * k * k]`.
pub fn im2col(input: &[f32], batch: usize, height: usize, width: usize, p: &Conv2dParams) -> Vec<f32> {
    assert_eq!(input.len(), batch * p.in_channels * height * width, "input shape mismatch");
    let oh = p.out_size(height);
    let ow = p.out_size(width);
    let patch = p.patch_len();
    let mut cols = vec![0.0f32; batch * oh * ow * patch];
    for b in 0..batch {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * patch;
                for c in 0..p.in_channels {
                    for ky in 0..p.kernel {
                        for kx in 0..p.kernel {
                            let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                            let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                            let dst = row + (c * p.kernel + ky) * p.kernel + kx;
                            if iy >= 0 && (iy as usize) < height && ix >= 0 && (ix as usize) < width {
                                let src = ((b * p.in_channels + c) * height + iy as usize) * width
                                    + ix as usize;
                                cols[dst] = input[src];
                            }
                        }
                    }
                }
            }
        }
    }
    cols
}

/// Fold im2col-space gradients back into an NCHW input-gradient tensor (the adjoint of
/// [`im2col`]).
pub fn col2im(
    cols: &[f32],
    batch: usize,
    height: usize,
    width: usize,
    p: &Conv2dParams,
) -> Vec<f32> {
    let oh = p.out_size(height);
    let ow = p.out_size(width);
    let patch = p.patch_len();
    assert_eq!(cols.len(), batch * oh * ow * patch, "cols shape mismatch");
    let mut out = vec![0.0f32; batch * p.in_channels * height * width];
    for b in 0..batch {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((b * oh + oy) * ow + ox) * patch;
                for c in 0..p.in_channels {
                    for ky in 0..p.kernel {
                        for kx in 0..p.kernel {
                            let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                            let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                            if iy >= 0 && (iy as usize) < height && ix >= 0 && (ix as usize) < width {
                                let dst = ((b * p.in_channels + c) * height + iy as usize) * width
                                    + ix as usize;
                                let src = row + (c * p.kernel + ky) * p.kernel + kx;
                                out[dst] += cols[src];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Forward 2-D convolution at the requested precision.
///
/// * `input` — NCHW `[batch, in_channels, h, w]`.
/// * `weight` — `[out_channels, in_channels * k * k]` (already unrolled).
/// * Returns NCHW output `[batch, out_channels, oh, ow]` in FP32 (the inter-layer data
///   flow is floating point, Section IV / appendix).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward<R: Rng + ?Sized>(
    input: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    batch: usize,
    height: usize,
    width: usize,
    p: &Conv2dParams,
    precision: Precision,
    tile: &TileConfig,
    rng: &mut R,
) -> Vec<f32> {
    assert_eq!(weight.len(), p.out_channels * p.patch_len(), "weight shape mismatch");
    let oh = p.out_size(height);
    let ow = p.out_size(width);
    let cols = im2col(input, batch, height, width, p);
    let m = batch * oh * ow;
    let k = p.patch_len();
    let n = p.out_channels;
    // GEMM expects B as [k, n]: transpose the [n, k] weight once.
    let wt = transpose(weight, n, k);

    let out_mat = match precision {
        Precision::Fp32 => {
            let mut c = gemm_f32(&cols, &wt, m, k, n, tile);
            if let Some(b) = bias {
                crate::gemm::add_bias(&mut c, n, b);
            }
            c
        }
        Precision::Fp16 | Precision::Bf16 => {
            let mut c = gemm_f16(&cols, &wt, m, k, n, tile, Precision::Fp32);
            if let Some(b) = bias {
                crate::gemm::add_bias(&mut c, n, b);
            }
            c
        }
        Precision::Int8 | Precision::Int4 => {
            let aq = FixedQuantizer {
                precision,
                ..FixedQuantizer::int8_per_tensor()
            }
            .quantize(&cols, &[m, k], rng);
            // Per-tensor, not per-channel: axis 0 of the transposed [k, n] weight is the
            // K axis, which is not what the epilogue's column scales expect.
            let wq_pt = FixedQuantizer {
                precision,
                ..FixedQuantizer::int8_per_tensor()
            }
            .quantize(&wt, &[k, n], rng);
            gemm_i8(
                &aq.data,
                &wq_pt.data,
                m,
                k,
                n,
                aq.params.scalar_scale(),
                &wq_pt.params.scales,
                bias,
                tile,
            )
        }
    };

    // Rearrange [m, n] = [batch*oh*ow, oc] into NCHW [batch, oc, oh, ow].
    let mut out = vec![0.0f32; batch * n * oh * ow];
    for b in 0..batch {
        for y in 0..oh {
            for x in 0..ow {
                let row = ((b * oh + y) * ow + x) * n;
                for c in 0..n {
                    out[((b * n + c) * oh + y) * ow + x] = out_mat[row + c];
                }
            }
        }
    }
    out
}

/// Gradients of a 2-D convolution (FP32 path; the paper performs fixed-point backward in
/// FP16/FP32 because integer backward "incurs low efficiency", footnote 2).
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, NCHW.
    pub grad_input: Vec<f32>,
    /// Gradient w.r.t. the unrolled weight `[out_channels, patch_len]`.
    pub grad_weight: Vec<f32>,
    /// Gradient w.r.t. the bias `[out_channels]`.
    pub grad_bias: Vec<f32>,
}

/// Backward 2-D convolution: computes input, weight and bias gradients in FP32.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    input: &[f32],
    weight: &[f32],
    grad_output: &[f32],
    batch: usize,
    height: usize,
    width: usize,
    p: &Conv2dParams,
    tile: &TileConfig,
) -> Conv2dGrads {
    let oh = p.out_size(height);
    let ow = p.out_size(width);
    let m = batch * oh * ow;
    let k = p.patch_len();
    let n = p.out_channels;
    assert_eq!(grad_output.len(), batch * n * oh * ow, "grad_output shape mismatch");

    // Rearrange grad_output from NCHW to [m, n].
    let mut go_mat = vec![0.0f32; m * n];
    for b in 0..batch {
        for c in 0..n {
            for y in 0..oh {
                for x in 0..ow {
                    go_mat[((b * oh + y) * ow + x) * n + c] =
                        grad_output[((b * n + c) * oh + y) * ow + x];
                }
            }
        }
    }

    let cols = im2col(input, batch, height, width, p);

    // grad_weight[n, k] = go_mat^T [n, m] * cols [m, k]
    let go_t = transpose(&go_mat, m, n);
    let grad_weight = gemm_f32(&go_t, &cols, n, m, k, tile);

    // grad_cols[m, k] = go_mat [m, n] * weight [n, k]
    let grad_cols = gemm_f32(&go_mat, weight, m, n, k, tile);
    let grad_input = col2im(&grad_cols, batch, height, width, p);

    // grad_bias[n] = sum over rows of go_mat.
    let mut grad_bias = vec![0.0f32; n];
    for row in go_mat.chunks(n) {
        for (g, &v) in grad_bias.iter_mut().zip(row.iter()) {
            *g += v;
        }
    }

    Conv2dGrads { grad_input, grad_weight, grad_bias }
}

/// Direct (naive) convolution used as a correctness reference in tests.
pub fn conv2d_reference(
    input: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    batch: usize,
    height: usize,
    width: usize,
    p: &Conv2dParams,
) -> Vec<f32> {
    let oh = p.out_size(height);
    let ow = p.out_size(width);
    let mut out = vec![0.0f32; batch * p.out_channels * oh * ow];
    for b in 0..batch {
        for oc in 0..p.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map(|bb| bb[oc]).unwrap_or(0.0);
                    for c in 0..p.in_channels {
                        for ky in 0..p.kernel {
                            for kx in 0..p.kernel {
                                let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                                let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                                if iy >= 0
                                    && (iy as usize) < height
                                    && ix >= 0
                                    && (ix as usize) < width
                                {
                                    let iv = input
                                        [((b * p.in_channels + c) * height + iy as usize) * width
                                            + ix as usize];
                                    let wv = weight
                                        [oc * p.patch_len() + (c * p.kernel + ky) * p.kernel + kx];
                                    acc += iv * wv;
                                }
                            }
                        }
                    }
                    out[((b * p.out_channels + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
    }

    fn small_params() -> Conv2dParams {
        Conv2dParams { in_channels: 3, out_channels: 4, kernel: 3, stride: 1, padding: 1 }
    }

    #[test]
    fn output_size_formula() {
        let p = small_params();
        assert_eq!(p.out_size(8), 8); // same-padding with stride 1
        let p2 = Conv2dParams { stride: 2, padding: 0, ..p };
        assert_eq!(p2.out_size(9), 4);
    }

    #[test]
    fn fp32_conv_matches_direct_reference() {
        let p = small_params();
        let (b, h, w) = (2usize, 6usize, 5usize);
        let input = rand_vec(b * p.in_channels * h * w, 1);
        let weight = rand_vec(p.out_channels * p.patch_len(), 2);
        let bias = rand_vec(p.out_channels, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let got = conv2d_forward(
            &input, &weight, Some(&bias), b, h, w, &p, Precision::Fp32, &TileConfig::fallback(), &mut rng,
        );
        let want = conv2d_reference(&input, &weight, Some(&bias), b, h, w, &p);
        for (x, y) in got.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn fp16_conv_is_close_to_fp32() {
        let p = small_params();
        let (b, h, w) = (1usize, 5usize, 5usize);
        let input = rand_vec(b * p.in_channels * h * w, 5);
        let weight = rand_vec(p.out_channels * p.patch_len(), 6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let f32_out = conv2d_forward(
            &input, &weight, None, b, h, w, &p, Precision::Fp32, &TileConfig::fallback(), &mut rng,
        );
        let f16_out = conv2d_forward(
            &input, &weight, None, b, h, w, &p, Precision::Fp16, &TileConfig::fallback(), &mut rng,
        );
        for (x, y) in f16_out.iter().zip(f32_out.iter()) {
            assert!((x - y).abs() < 0.02 * (y.abs() + 1.0));
        }
    }

    #[test]
    fn int8_conv_is_a_reasonable_approximation() {
        let p = small_params();
        let (b, h, w) = (1usize, 6usize, 6usize);
        let input = rand_vec(b * p.in_channels * h * w, 7);
        let weight = rand_vec(p.out_channels * p.patch_len(), 8);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let f32_out = conv2d_forward(
            &input, &weight, None, b, h, w, &p, Precision::Fp32, &TileConfig::fallback(), &mut rng,
        );
        let i8_out = conv2d_forward(
            &input, &weight, None, b, h, w, &p, Precision::Int8, &TileConfig::fallback(), &mut rng,
        );
        let mut err = 0.0f64;
        let mut norm = 0.0f64;
        for (x, y) in i8_out.iter().zip(f32_out.iter()) {
            err += ((x - y) as f64).powi(2);
            norm += (*y as f64).powi(2);
        }
        let rel = (err / norm.max(1e-12)).sqrt();
        assert!(rel < 0.1, "relative INT8 error too large: {rel}");
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let p = small_params();
        let (b, h, w) = (1usize, 5usize, 4usize);
        let x = rand_vec(b * p.in_channels * h * w, 11);
        let cols_len = b * p.out_size(h) * p.out_size(w) * p.patch_len();
        let y = rand_vec(cols_len, 12);
        let ix = im2col(&x, b, h, w, &p);
        let cy = col2im(&y, b, h, w, &p);
        let lhs: f64 = ix.iter().zip(&y).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = x.iter().zip(&cy).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn backward_weight_gradient_matches_finite_differences() {
        let p = Conv2dParams { in_channels: 2, out_channels: 2, kernel: 2, stride: 1, padding: 0 };
        let (b, h, w) = (1usize, 4usize, 4usize);
        let input = rand_vec(b * p.in_channels * h * w, 21);
        let mut weight = rand_vec(p.out_channels * p.patch_len(), 22);
        let tile = TileConfig::fallback();
        let mut rng = ChaCha8Rng::seed_from_u64(0);

        // Loss = sum of outputs; grad_output = ones.
        let oh = p.out_size(h);
        let ow = p.out_size(w);
        let go = vec![1.0f32; b * p.out_channels * oh * ow];
        let grads = conv2d_backward(&input, &weight, &go, b, h, w, &p, &tile);

        let loss = |weight: &[f32], rng: &mut ChaCha8Rng| -> f64 {
            conv2d_forward(&input, weight, None, b, h, w, &p, Precision::Fp32, &tile, rng)
                .iter()
                .map(|&v| v as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 3, 7, weight.len() - 1] {
            let orig = weight[idx];
            weight[idx] = orig + eps;
            let up = loss(&weight, &mut rng);
            weight[idx] = orig - eps;
            let down = loss(&weight, &mut rng);
            weight[idx] = orig;
            let fd = (up - down) / (2.0 * eps as f64);
            let an = grads.grad_weight[idx] as f64;
            assert!((fd - an).abs() < 1e-2 * an.abs().max(1.0), "idx={idx}: fd={fd}, an={an}");
        }
    }

    #[test]
    fn backward_bias_gradient_is_row_sum() {
        let p = small_params();
        let (b, h, w) = (2usize, 4usize, 4usize);
        let input = rand_vec(b * p.in_channels * h * w, 31);
        let weight = rand_vec(p.out_channels * p.patch_len(), 32);
        let go = vec![1.0f32; b * p.out_channels * p.out_size(h) * p.out_size(w)];
        let grads = conv2d_backward(&input, &weight, &go, b, h, w, &p, &TileConfig::fallback());
        let per_channel = (b * p.out_size(h) * p.out_size(w)) as f32;
        for &g in &grads.grad_bias {
            assert!((g - per_channel).abs() < 1e-3);
        }
    }
}
