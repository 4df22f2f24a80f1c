//! INT8 GEMM with INT32 accumulation and a fused dequantization epilogue.
//!
//! The fixed-point execution path of LP-PyTorch: operands arrive already quantized
//! (activations per-tensor, weights per-tensor or per-channel), products accumulate in
//! INT32, and the epilogue multiplies by the combined scaling factors before the result
//! leaves the kernel ("Dequantization Fusion", Section VI). Per footnote 3, the output of
//! the INT8 kernel is produced in FP32.

use super::tiling::TileConfig;
use crate::quant::dequant::dequantize_into;

/// Row-major INT8 GEMM producing an FP32 output with fused dequantization.
///
/// * `a` — quantized activations `[m, k]` with a single `a_scale`.
/// * `b` — quantized weights `[k, n]`; `b_scales` has one entry (layer-wise) or `n`
///   entries (channel-wise, one per output column).
/// * `bias` — optional FP32 bias of length `n`, added in the epilogue.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    a_scale: f32,
    b_scales: &[f32],
    bias: Option<&[f32]>,
    tile: &TileConfig,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    gemm_i8_into(a, b, m, k, n, a_scale, b_scales, bias, tile, &mut out);
    out
}

/// Same as [`gemm_i8`] but writes into a caller-provided buffer.
#[allow(clippy::too_many_arguments)]
fn gemm_i8_into(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    a_scale: f32,
    b_scales: &[f32],
    bias: Option<&[f32]>,
    tile: &TileConfig,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(out.len(), m * n, "output has wrong length");
    assert!(
        b_scales.len() == 1 || b_scales.len() == n,
        "weight scales must be layer-wise (1) or channel-wise (n = {n}), got {}",
        b_scales.len()
    );
    if let Some(bb) = bias {
        assert_eq!(bb.len(), n, "bias length must equal n");
    }
    if m == 0 || n == 0 {
        return;
    }

    let (tb_m, _tb_n, tb_k) = tile.threadblock;
    let tb_m = tb_m.max(1);
    let tb_k = tb_k.max(1);

    qsync_pool::for_each_chunk_mut(out, tb_m * n, 1, |first, blocks| {
        for (bi, out_block) in (first..).zip(blocks.chunks_mut(tb_m * n)) {
            let row0 = bi * tb_m;
            let rows = out_block.len() / n;
            // Per-block INT32 accumulator (the "shared memory" tile).
            let mut acc = vec![0i32; rows * n];
            if k > 0 {
                let mut p0 = 0;
                while p0 < k {
                    let pk = (p0 + tb_k).min(k);
                    for r in 0..rows {
                        let i = row0 + r;
                        let a_row = &a[i * k..(i + 1) * k];
                        let acc_row = &mut acc[r * n..(r + 1) * n];
                        for p in p0..pk {
                            let av = a_row[p] as i32;
                            if av == 0 {
                                continue;
                            }
                            let b_row = &b[p * n..(p + 1) * n];
                            for j in 0..n {
                                acc_row[j] += av * b_row[j] as i32;
                            }
                        }
                    }
                    p0 = pk;
                }
            }
            // Fused epilogue: dequantize (and add bias) while the accumulator is still local.
            dequantize_into(&acc, out_block, n, a_scale, b_scales, bias);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;
    use crate::quant::FixedQuantizer;

    fn rand_mat(len: usize, seed: u64, scale: f32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xD1B54A32D192ED03);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xD1B54A32D192ED03);
                (((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0) * scale
            })
            .collect()
    }

    #[test]
    fn exact_for_small_integer_operands() {
        // Values representable exactly with scale 1.0.
        let a: Vec<i8> = vec![1, 2, 3, 4, 5, 6];
        let b: Vec<i8> = vec![1, 0, 0, 1, 1, 1];
        // A: 2x3, B: 3x2
        let c = gemm_i8(&a, &b, 2, 3, 2, 1.0, &[1.0], None, &TileConfig::fallback());
        // Row 0: [1*1+2*0+3*1, 1*0+2*1+3*1] = [4, 5]; Row 1: [4+0+6, 0+5+6] = [10, 11]
        assert_eq!(c, vec![4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn quantized_gemm_approximates_fp32_gemm() {
        let (m, k, n) = (16usize, 48usize, 24usize);
        let a = rand_mat(m * k, 1, 2.0);
        let b = rand_mat(k * n, 2, 0.5);
        let qa = FixedQuantizer::int8_per_tensor().quantize_seeded(&a, &[m, k], 10);
        let qb = FixedQuantizer::int8_per_tensor().quantize_seeded(&b, &[k, n], 11);
        let c = gemm_i8(
            &qa.data,
            &qb.data,
            m,
            k,
            n,
            qa.params.scalar_scale(),
            &qb.params.scales,
            None,
            &TileConfig::fallback(),
        );
        let exact = gemm_ref(&a, &b, m, k, n);
        // Error per output element is roughly sqrt(k) * (scale_a*|b| + scale_b*|a|).
        let tol = 0.25f32;
        let mut worst = 0.0f32;
        for (x, y) in c.iter().zip(exact.iter()) {
            worst = worst.max((x - y).abs());
        }
        assert!(worst < tol, "worst abs error {worst}");
    }

    #[test]
    fn channel_wise_weight_scales_are_applied_per_column() {
        // B column 1 is stored with a different scale than column 0.
        let a: Vec<i8> = vec![2, 2]; // 1x2
        let b: Vec<i8> = vec![1, 1, 1, 1]; // 2x2
        let c = gemm_i8(&a, &b, 1, 2, 2, 1.0, &[1.0, 10.0], None, &TileConfig::fallback());
        assert_eq!(c, vec![4.0, 40.0]);
    }

    #[test]
    fn bias_is_fused_into_epilogue() {
        let a: Vec<i8> = vec![1, 1];
        let b: Vec<i8> = vec![1, 2, 3, 4];
        let c = gemm_i8(&a, &b, 1, 2, 2, 1.0, &[1.0], Some(&[10.0, -10.0]), &TileConfig::fallback());
        assert_eq!(c, vec![14.0, -4.0]);
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let (m, k, n) = (5usize, 7usize, 3usize);
        let a: Vec<i8> = (0..m * k).map(|i| (i as i32 % 11 - 5) as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|i| (i as i32 % 7 - 3) as i8).collect();
        let c1 = gemm_i8(&a, &b, m, k, n, 0.3, &[0.7], None, &TileConfig::fallback());
        let mut c2 = vec![0.0f32; m * n];
        gemm_i8_into(&a, &b, m, k, n, 0.3, &[0.7], None, &TileConfig::fallback(), &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn accumulation_does_not_overflow_for_worst_case_int8() {
        // 127 * 127 * k with k = 4096 fits comfortably in i32; verify no wrap.
        let k = 4096usize;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        let c = gemm_i8(&a, &b, 1, k, 1, 1.0, &[1.0], None, &TileConfig::fallback());
        assert_eq!(c[0], (127i64 * 127 * k as i64) as f32);
    }

    #[test]
    #[should_panic]
    fn wrong_scale_count_panics() {
        let _ = gemm_i8(&[1, 1], &[1, 1, 1, 1], 1, 2, 2, 1.0, &[1.0, 1.0, 1.0], None, &TileConfig::fallback());
    }
}
