//! Committed bit patterns for a short hybrid mixed-precision run and for the
//! tensor reductions training leans on, at compute-pool sizes 1 and 2.
//!
//! Every kernel and tensor op splits its work into chunks whose layout is a
//! function of input length only, and combines per-chunk partials in chunk
//! order. The reduction literals pin that layout, since an f64 sum of these
//! inputs rounds differently under another split. The training literals pin
//! the kernels' values end to end.

use qsync_lp_kernels::precision::Precision;
use qsync_pool::Pool;
use qsync_tensor::Tensor;
use qsync_train::{DataParallelTrainer, OptimizerConfig, SyntheticClassification};

/// Layer widths. Every weight (`[out, in]`) holds more than 1,024 elements,
/// the elementwise chunk floor, so each weight sum splits into several chunks.
const DIMS: [usize; 5] = [40, 64, 64, 96, 16];

/// Per-step mean loss bits of [`train`].
const LOSS_BITS: [u64; 3] = [4614741640745310646, 4613796610826086858, 4613171133446325695];

/// Bits of worker 0's `weight_fingerprint` after [`train`].
const FINGERPRINT_BITS: u64 = 13853821298354232832;

/// `(len, sum, sq_norm, absmax)` bits of [`reduction_input`]`(len)`. At
/// 65,536 elements the 32-chunk target sets the layout; at 20,000 the
/// 1,024-element floor does. A sequential f64 sum of either input gives
/// different `sum` bits (asserted below).
const REDUCTION_BITS: [(usize, u64, u64, u32); 2] = [
    (65_536, 13905254126694230424, 4771968063262056295, 1167867904),
    (20_000, 4660788435766312412, 4764542888670509337, 1167867904),
];

/// Three synchronous steps of a two-worker hybrid run: worker 0 in FP32,
/// worker 1 mixing INT8, FP16 and FP32 layers. Returns each step's loss bits
/// and worker 0's weight-fingerprint bits.
fn train() -> (Vec<u64>, u64) {
    let data = SyntheticClassification::generate(128, DIMS[0], DIMS[4], 5);
    let precisions = [
        vec![Precision::Fp32; 4],
        vec![Precision::Int8, Precision::Fp16, Precision::Int8, Precision::Fp32],
    ];
    let optimizer = OptimizerConfig::Sgd { lr: 0.1, momentum: 0.9, weight_decay: 1e-4 };
    let mut trainer =
        DataParallelTrainer::new(&DIMS, &data, &precisions, optimizer, 17).with_batch_size(16);
    let losses = (0..LOSS_BITS.len()).map(|_| trainer.step().to_bits()).collect();
    (losses, trainer.weight_fingerprint(0).to_bits())
}

/// `len` values spanning seven decades, so an f64 sum rounds differently
/// under a different summation order. Arithmetic only: no libm calls.
fn reduction_input(len: usize) -> Tensor {
    const SCALES: [f32; 5] = [1e-3, 1e-1, 1.0, 1e2, 1e4];
    let data = (0..len)
        .map(|i| ((i as f32 * 0.618_034).fract() - 0.5) * SCALES[i % SCALES.len()])
        .collect();
    Tensor::from_vec(data, vec![len])
}

#[test]
fn hybrid_training_bits_are_pinned_at_pool_sizes_1_and_2() {
    for threads in [1, 2] {
        let (losses, fingerprint) = Pool::with_threads(threads).install(train);
        assert_eq!(losses, LOSS_BITS, "loss bits at {threads} pool threads");
        assert_eq!(fingerprint, FINGERPRINT_BITS, "fingerprint bits at {threads} pool threads");
    }
}

#[test]
fn tensor_reduction_bits_are_pinned_at_pool_sizes_1_and_2() {
    for (len, sum, sq_norm, absmax) in REDUCTION_BITS {
        let t = reduction_input(len);
        for threads in [1, 2] {
            let bits = Pool::with_threads(threads)
                .install(|| (t.sum().to_bits(), t.sq_norm().to_bits(), t.absmax().to_bits()));
            assert_eq!(bits, (sum, sq_norm, absmax), "{len} elements at {threads} pool threads");
        }
        let sequential = t.data().iter().map(|&v| v as f64).sum::<f64>();
        assert_ne!(sequential.to_bits(), sum, "{len} elements: the pin must be order-sensitive");
    }
}

