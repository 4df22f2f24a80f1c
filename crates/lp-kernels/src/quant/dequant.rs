//! Dequantization of fixed-point accumulator results.
//!
//! An INT8 GEMM accumulates in INT32; before the result can feed a floating-point
//! successor it must be scaled back by the input and weight scaling factors. The paper
//! (Section IV-B and VI) notes two things we reproduce here:
//!
//! * The *mode* of the dequantizer depends on the combination of input/weight schemes:
//!   a layer-wise input with a channel-wise weight needs a channel-wise dequantizer,
//!   layer-wise + layer-wise needs only a layer-wise one.
//! * Dequantization can be *fused* into the kernel epilogue (before the accumulator is
//!   copied out), which removes a separate element-wise pass. Both paths are provided so
//!   the cost model and Fig. 7(b) can compare them.

use serde::{Deserialize, Serialize};

use crate::quant::QuantScheme;

/// Granularity of the dequantization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DequantMode {
    /// A single combined scale for the whole output ("layer-wise dequantizer").
    LayerWise,
    /// A per-output-channel scale ("channel-wise dequantizer").
    ChannelWise,
}

/// Decide which dequantizer is required for a given (input, weight) scheme combination.
///
/// Any channel-wise participant forces a channel-wise dequantizer; two layer-wise
/// participants only need a layer-wise one (Section IV-B).
pub fn combine_dequant_mode(input: QuantScheme, weight: QuantScheme) -> DequantMode {
    if input.is_per_channel() || weight.is_per_channel() {
        DequantMode::ChannelWise
    } else {
        DequantMode::LayerWise
    }
}

/// Dequantize an `m x n` INT32 accumulator into `f32`.
///
/// * `acc` — row-major accumulator of shape `[m, n]`.
/// * `input_scale` — the (single) input scale.
/// * `weight_scales` — either one scale (layer-wise) or `n` scales (channel-wise, one per
///   output column).
pub fn dequantize_i32_accumulator(
    acc: &[i32],
    m: usize,
    n: usize,
    input_scale: f32,
    weight_scales: &[f32],
    bias: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(acc.len(), m * n, "accumulator shape mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length must equal output columns");
    }
    let channel_wise = weight_scales.len() > 1;
    if channel_wise {
        assert_eq!(weight_scales.len(), n, "need one weight scale per output column");
    }
    let mut out = vec![0.0f32; m * n];
    qsync_pool::for_each_chunk_mut(&mut out, n, 1, |row0, rows| {
        for (orow, arow) in rows.chunks_mut(n).zip(acc[row0 * n..].chunks(n)) {
            for j in 0..n {
                let ws = if channel_wise { weight_scales[j] } else { weight_scales[0] };
                let mut v = arow[j] as f32 * input_scale * ws;
                if let Some(b) = bias {
                    v += b[j];
                }
                orow[j] = v;
            }
        }
    });
    out
}

/// Dequantize in place into a caller-provided buffer (the "fused epilogue" path: the
/// caller is the GEMM kernel and `out` is its output tile, so no extra pass is needed).
pub fn dequantize_into(
    acc: &[i32],
    out: &mut [f32],
    n: usize,
    input_scale: f32,
    weight_scales: &[f32],
    bias: Option<&[f32]>,
) {
    assert_eq!(acc.len(), out.len());
    let channel_wise = weight_scales.len() > 1;
    for (i, (&a, o)) in acc.iter().zip(out.iter_mut()).enumerate() {
        let j = i % n;
        let ws = if channel_wise { weight_scales[j] } else { weight_scales[0] };
        let mut v = a as f32 * input_scale * ws;
        if let Some(b) = bias {
            v += b[j];
        }
        *o = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_rule_matches_paper() {
        use QuantScheme::*;
        assert_eq!(combine_dequant_mode(PerTensor, PerTensor), DequantMode::LayerWise);
        assert_eq!(
            combine_dequant_mode(PerTensor, PerChannel { axis: 0 }),
            DequantMode::ChannelWise
        );
        assert_eq!(
            combine_dequant_mode(PerChannel { axis: 0 }, PerTensor),
            DequantMode::ChannelWise
        );
        assert_eq!(
            combine_dequant_mode(PerChannel { axis: 0 }, PerChannel { axis: 0 }),
            DequantMode::ChannelWise
        );
    }

    #[test]
    fn layer_wise_dequantization_scales_uniformly() {
        let acc = vec![10i32, 20, 30, 40];
        let out = dequantize_i32_accumulator(&acc, 2, 2, 0.5, &[0.1], None);
        assert_eq!(out, vec![0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn channel_wise_dequantization_uses_per_column_scales() {
        let acc = vec![10i32, 10, 10, 10];
        let out = dequantize_i32_accumulator(&acc, 2, 2, 1.0, &[0.1, 0.2], None);
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn bias_is_added_after_scaling() {
        let acc = vec![10i32, 10];
        let out = dequantize_i32_accumulator(&acc, 1, 2, 1.0, &[0.1], Some(&[1.0, -1.0]));
        assert_eq!(out, vec![2.0, 0.0]);
    }

    #[test]
    fn fused_path_matches_unfused_path() {
        let acc: Vec<i32> = (0..12).map(|i| i * 3 - 5).collect();
        let scales = vec![0.07f32, 0.13, 0.02, 0.4];
        let unfused = dequantize_i32_accumulator(&acc, 3, 4, 0.3, &scales, Some(&[0.5; 4]));
        let mut fused = vec![0.0f32; 12];
        dequantize_into(&acc, &mut fused, 4, 0.3, &scales, Some(&[0.5; 4]));
        assert_eq!(unfused, fused);
    }

    #[test]
    #[should_panic]
    fn accumulator_shape_mismatch_panics() {
        let _ = dequantize_i32_accumulator(&[1, 2, 3], 2, 2, 1.0, &[1.0], None);
    }

    #[test]
    #[should_panic]
    fn channel_scale_count_mismatch_panics() {
        let _ = dequantize_i32_accumulator(&[1, 2, 3, 4], 2, 2, 1.0, &[1.0, 2.0, 3.0], None);
    }
}
