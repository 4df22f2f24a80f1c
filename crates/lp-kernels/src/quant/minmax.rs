//! Min/max (and absolute-max) statistics collection for fixed-point scaling factors.
//!
//! Section VI ("Minmax Optimization") describes the two-step reduction that LP-PyTorch
//! uses on the GPU: first collect row-wise statistics with a fixed number of threads per
//! block, then launch a second, smaller reduction over the row-wise partial results. On
//! the CPU substrate we reproduce the same structure: [`minmax_optimized`] splits the
//! tensor into row blocks reduced in parallel on `qsync-pool`, then reduces the partials,
//! whereas [`minmax_vanilla`] mimics the framework-default single-threaded scan
//! (PyTorch's `aminmax` launched twice plus intermediate materialisation).

/// Serial, framework-default style min/max scan.
///
/// Deliberately performs two separate passes (one for min, one for max) plus a defensive
/// copy, matching the cost structure of the "vanilla implementation of quantization in
/// PyTorch" that Fig. 7(a) compares against.
pub fn minmax_vanilla(data: &[f32]) -> (f32, f32) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    // Pass 1: materialise a scratch copy (the vanilla path quantizes out of place).
    let scratch: Vec<f32> = data.to_vec();
    // Pass 2: min.
    let mut mn = f32::INFINITY;
    for &v in &scratch {
        if v < mn {
            mn = v;
        }
    }
    // Pass 3: max.
    let mut mx = f32::NEG_INFINITY;
    for &v in &scratch {
        if v > mx {
            mx = v;
        }
    }
    (mn, mx)
}

/// Serial absolute-maximum scan in the vanilla style.
pub fn absmax_vanilla(data: &[f32]) -> f32 {
    let (mn, mx) = minmax_vanilla(data);
    mn.abs().max(mx.abs())
}

/// Optimized two-step parallel min/max reduction.
///
/// `rows` controls the first-step partitioning (the analogue of "a constant number of
/// threads per block" over the second-to-last dimension). The data is split into `rows`
/// contiguous blocks, each reduced independently (in parallel), and the per-block results
/// are then reduced in a second, much smaller step.
pub fn minmax_optimized(data: &[f32], rows: usize) -> (f32, f32) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let rows = rows.max(1).min(data.len());
    let chunk = data.len().div_ceil(rows);
    // Step 1: row-wise partial statistics, computed in parallel, single pass per block.
    let partials = block_minmax(data, chunk);
    // Step 2: reduce the partials (the "smaller kernel" of the paper).
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for (bmn, bmx) in partials {
        if bmn < mn {
            mn = bmn;
        }
        if bmx > mx {
            mx = bmx;
        }
    }
    (mn, mx)
}

/// Optimized two-step absolute-maximum reduction ("absolute tensor-wise scalar value").
pub fn absmax_optimized(data: &[f32], rows: usize) -> f32 {
    let (mn, mx) = minmax_optimized(data, rows);
    mn.abs().max(mx.abs())
}

/// Per-channel min/max along the leading axis of a `[channels, inner]`-shaped buffer.
///
/// Used for channel-wise weight quantization: each output channel gets its own range.
pub fn minmax_per_channel(data: &[f32], channels: usize) -> Vec<(f32, f32)> {
    if channels == 0 || data.is_empty() {
        return Vec::new();
    }
    assert_eq!(
        data.len() % channels,
        0,
        "data length {} not divisible by channel count {channels}",
        data.len()
    );
    block_minmax(data, data.len() / channels)
}

/// `(min, max)` of every `block`-element block of `data` (the last may be
/// short), in block order, with the blocks spread across the pool.
fn block_minmax(data: &[f32], block: usize) -> Vec<(f32, f32)> {
    let n_blocks = data.len().div_ceil(block);
    let mut out = vec![(0.0, 0.0); n_blocks];
    qsync_pool::for_each_chunk_mut(&mut out, 1, 1, |first, stats| {
        for (stat, bi) in stats.iter_mut().zip(first..) {
            let mut mn = f32::INFINITY;
            let mut mx = f32::NEG_INFINITY;
            for &v in &data[bi * block..data.len().min((bi + 1) * block)] {
                if v < mn {
                    mn = v;
                }
                if v > mx {
                    mx = v;
                }
            }
            *stat = (mn, mx);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37).sin() * 5.0 - 1.0).collect()
    }

    #[test]
    fn vanilla_and_optimized_agree() {
        for n in [1usize, 7, 64, 1000, 4096] {
            let data = sample(n);
            let v = minmax_vanilla(&data);
            for rows in [1usize, 2, 8, 33, 256] {
                let o = minmax_optimized(&data, rows);
                assert_eq!(v, o, "n={n}, rows={rows}");
            }
        }
    }

    #[test]
    fn empty_input_yields_zeroes() {
        assert_eq!(minmax_vanilla(&[]), (0.0, 0.0));
        assert_eq!(minmax_optimized(&[], 8), (0.0, 0.0));
        assert!(minmax_per_channel(&[], 0).is_empty());
    }

    #[test]
    fn absmax_matches_manual() {
        let data = vec![-3.0f32, 1.0, 2.5, -0.5];
        assert_eq!(absmax_vanilla(&data), 3.0);
        assert_eq!(absmax_optimized(&data, 2), 3.0);
        let data = vec![0.5f32, 4.0, -1.0];
        assert_eq!(absmax_optimized(&data, 2), 4.0);
    }

    #[test]
    fn per_channel_ranges_are_independent() {
        // 2 channels x 3 elements
        let data = vec![1.0f32, 2.0, 3.0, -10.0, 0.0, 10.0];
        let ranges = minmax_per_channel(&data, 2);
        assert_eq!(ranges, vec![(1.0, 3.0), (-10.0, 10.0)]);
    }

    #[test]
    fn single_element_tensor() {
        let data = vec![42.0f32];
        assert_eq!(minmax_vanilla(&data), (42.0, 42.0));
        assert_eq!(minmax_optimized(&data, 16), (42.0, 42.0));
        assert_eq!(absmax_optimized(&data, 16), 42.0);
    }

    #[test]
    #[should_panic]
    fn per_channel_rejects_ragged_shapes() {
        let data = vec![1.0f32; 7];
        let _ = minmax_per_channel(&data, 2);
    }
}
