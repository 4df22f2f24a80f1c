//! Blocked, data-parallel FP32 GEMM.
//!
//! The full-precision kernel used by training GPUs in the paper. Cache blocking follows
//! the selected [`TileConfig`]; row tiles of the output are distributed across `qsync-pool`.

use super::tiling::TileConfig;

/// Row-major FP32 GEMM: `C[m,n] = A[m,k] * B[k,n]`.
pub fn gemm_f32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, tile: &TileConfig) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let (tb_m, _tb_n, tb_k) = tile.threadblock;
    let tb_m = tb_m.max(1);
    let tb_k = tb_k.max(1);

    // Parallelise over row blocks: each block owns a disjoint slice of C.
    qsync_pool::for_each_chunk_mut(&mut c, tb_m * n, 1, |first, blocks| {
        for (bi, c_block) in (first..).zip(blocks.chunks_mut(tb_m * n)) {
            let row0 = bi * tb_m;
            let rows = c_block.len() / n;
            // Blocked over K to keep the B panel in cache.
            let mut p0 = 0;
            while p0 < k {
                let pk = (p0 + tb_k).min(k);
                for r in 0..rows {
                    let i = row0 + r;
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c_block[r * n..(r + 1) * n];
                    for p in p0..pk {
                        let av = a_row[p];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n..(p + 1) * n];
                        for j in 0..n {
                            c_row[j] += av * b_row[j];
                        }
                    }
                }
                p0 = pk;
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ref;

    fn rand_mat(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_various_shapes() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (16, 16, 16), (33, 70, 17), (128, 64, 96)] {
            let a = rand_mat(m * k, 1);
            let b = rand_mat(k * n, 2);
            let tile = TileConfig::fallback();
            let c = gemm_f32(&a, &b, m, k, n, &tile);
            let r = gemm_ref(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(r.iter()) {
                assert!((x - y).abs() < 1e-4, "mismatch {x} vs {y}");
            }
        }
    }

    #[test]
    fn tile_choice_does_not_change_result() {
        let (m, k, n) = (40usize, 60usize, 24usize);
        let a = rand_mat(m * k, 7);
        let b = rand_mat(k * n, 8);
        let tiles = [
            TileConfig::fallback(),
            TileConfig { threadblock: (8, 8, 8) },
            TileConfig { threadblock: (128, 128, 128) },
        ];
        let base = gemm_f32(&a, &b, m, k, n, &tiles[0]);
        for t in &tiles[1..] {
            let c = gemm_f32(&a, &b, m, k, n, t);
            for (x, y) in c.iter().zip(base.iter()) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn degenerate_shapes_yield_zero_matrices() {
        let tile = TileConfig::fallback();
        assert!(gemm_f32(&[], &[], 0, 0, 0, &tile).is_empty());
        let c = gemm_f32(&[], &[], 0, 5, 0, &tile);
        assert!(c.is_empty());
        let c = gemm_f32(&[0.0; 0], &[0.0; 0], 2, 0, 3, &tile);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    #[should_panic]
    fn wrong_operand_length_panics() {
        let tile = TileConfig::fallback();
        let _ = gemm_f32(&[1.0; 5], &[1.0; 6], 2, 3, 2, &tile);
    }
}
