//! FP16 GEMM with tensor-core numerics: binary16 operands, FP32 accumulation.
//!
//! The output precision is configurable (footnote 3 of the paper: "an FP16 kernel can
//! have an output precision of FP32 or FP16"); the cast of operands onto the 16-bit grid
//! is the floating-point quantization whose variance the indicator models.

use super::tiling::TileConfig;
use crate::half::round_to_f16;
use crate::precision::Precision;

/// Row-major FP16 GEMM: operands are rounded onto the binary16 grid, products are
/// accumulated in FP32, and the output is cast to `output_precision` (FP16 or FP32).
pub fn gemm_f16(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    tile: &TileConfig,
    output_precision: Precision,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert!(
        matches!(output_precision, Precision::Fp16 | Precision::Fp32),
        "FP16 kernel can only output FP16 or FP32"
    );
    // Cast operands to the f16 grid once (this is the cvt_cost of Fig. 4).
    let a16 = to_f16_grid(a);
    let b16 = to_f16_grid(b);

    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let (tb_m, _tb_n, tb_k) = tile.threadblock;
    let tb_m = tb_m.max(1);
    let tb_k = tb_k.max(1);

    qsync_pool::for_each_chunk_mut(&mut c, tb_m * n, 1, |first, blocks| {
        for (bi, c_block) in (first..).zip(blocks.chunks_mut(tb_m * n)) {
            let row0 = bi * tb_m;
            let rows = c_block.len() / n;
            let mut p0 = 0;
            while p0 < k {
                let pk = (p0 + tb_k).min(k);
                for r in 0..rows {
                    let i = row0 + r;
                    let a_row = &a16[i * k..(i + 1) * k];
                    let c_row = &mut c_block[r * n..(r + 1) * n];
                    for p in p0..pk {
                        let av = a_row[p];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b16[p * n..(p + 1) * n];
                        for j in 0..n {
                            // FP32 accumulation, as on tensor cores.
                            c_row[j] += av * b_row[j];
                        }
                    }
                }
                p0 = pk;
            }
        }
    });

    if output_precision == Precision::Fp16 {
        qsync_pool::for_each_chunk_mut(&mut c, 1, qsync_pool::ELEMENT_MIN_LEN, |_, chunk| {
            chunk.iter_mut().for_each(|v| *v = round_to_f16(*v));
        });
    }
    c
}

/// `values` rounded onto the binary16 grid, elementwise across the pool.
fn to_f16_grid(values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; values.len()];
    qsync_pool::for_each_chunk_mut(&mut out, 1, qsync_pool::ELEMENT_MIN_LEN, |start, chunk| {
        for (o, &v) in chunk.iter_mut().zip(&values[start..]) {
            *o = round_to_f16(v);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;

    fn rand_mat(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn close_to_fp32_reference_for_small_values() {
        let (m, k, n) = (17usize, 31usize, 13usize);
        let a = rand_mat(m * k, 1);
        let b = rand_mat(k * n, 2);
        let tile = TileConfig::fallback();
        let c16 = gemm_f16(&a, &b, m, k, n, &tile, Precision::Fp32);
        let c32 = gemm_ref(&a, &b, m, k, n);
        for (x, y) in c16.iter().zip(c32.iter()) {
            // Relative error dominated by operand rounding (~2^-11 per element, sqrt(k) growth).
            assert!((x - y).abs() < 0.02 * (y.abs() + 1.0), "x={x}, y={y}");
        }
    }

    #[test]
    fn fp16_output_lies_on_the_f16_grid() {
        let (m, k, n) = (8usize, 8usize, 8usize);
        let a = rand_mat(m * k, 3);
        let b = rand_mat(k * n, 4);
        let c = gemm_f16(&a, &b, m, k, n, &TileConfig::fallback(), Precision::Fp16);
        for v in &c {
            assert_eq!(round_to_f16(*v), *v);
        }
    }

    #[test]
    fn fp32_output_is_at_least_as_accurate_as_fp16_output() {
        let (m, k, n) = (12usize, 64usize, 12usize);
        let a = rand_mat(m * k, 5);
        let b = rand_mat(k * n, 6);
        let tile = TileConfig::fallback();
        let exact = gemm_ref(&a, &b, m, k, n);
        let c32 = gemm_f16(&a, &b, m, k, n, &tile, Precision::Fp32);
        let c16 = gemm_f16(&a, &b, m, k, n, &tile, Precision::Fp16);
        let err = |c: &[f32]| -> f64 {
            c.iter().zip(&exact).map(|(x, y)| ((x - y) as f64).powi(2)).sum()
        };
        assert!(err(&c32) <= err(&c16) + 1e-12);
    }

    #[test]
    fn exactly_representable_inputs_give_exact_results() {
        // Powers of two and small integers are exact in binary16.
        let a = vec![1.0f32, 2.0, 0.5, 4.0];
        let b = vec![2.0f32, 0.25, 8.0, 1.0];
        let c = gemm_f16(&a, &b, 2, 2, 2, &TileConfig::fallback(), Precision::Fp32);
        let r = gemm_ref(&a, &b, 2, 2, 2);
        assert_eq!(c, r);
    }

    #[test]
    #[should_panic]
    fn int8_output_precision_is_rejected() {
        let _ = gemm_f16(&[1.0], &[1.0], 1, 1, 1, &TileConfig::fallback(), Precision::Int8);
    }
}
