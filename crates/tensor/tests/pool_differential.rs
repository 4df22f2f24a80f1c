//! Pool-size differential for the tensor ops that run on the compute pool.
//! `map`, `map_inplace`, `zip_with`, `axpy_inplace`, `sum`, `sq_norm` and
//! `absmax` must be byte-identical at pool sizes 1, 2, 4 and 8, and the
//! elementwise ones must match a plain sequential loop, element for element.
//!
//! Larger sizes run when the host has ≥ 2 cores, as in the workspace-level
//! kernel differential.

use qsync_pool::Pool;
use qsync_tensor::Tensor;

fn comparison_sizes() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores >= 2 {
        vec![2, 4, 8]
    } else {
        Vec::new()
    }
}

/// `len` values spanning seven decades, so f64 sums are order-sensitive.
fn input(len: usize, seed: usize) -> Tensor {
    const SCALES: [f32; 5] = [1e-3, 1e-1, 1.0, 1e2, 1e4];
    let data = (0..len)
        .map(|i| ((i as f32 * 0.618_034 + seed as f32 * 0.1).fract() - 0.5) * SCALES[(i + seed) % 5])
        .collect();
    Tensor::from_vec(data, vec![len])
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The output bits of every op on inputs of length `len`: the four
/// elementwise results, then `(sum, sq_norm, absmax)`.
fn run_ops(len: usize) -> (Vec<Vec<u32>>, (u64, u64, u32)) {
    let (a, b) = (input(len, 1), input(len, 2));
    let mut scaled = a.clone();
    scaled.map_inplace(|v| v * 1.5 - 0.25);
    let mut axpy = a.clone();
    axpy.axpy_inplace(-0.75, &b);
    let elementwise = vec![
        bits(a.map(|v| v * v + 1.0).data()),
        bits(scaled.data()),
        bits(a.zip_with(&b, |x, y| x * y - x).data()),
        bits(axpy.data()),
    ];
    (elementwise, (a.sum().to_bits(), a.sq_norm().to_bits(), a.absmax().to_bits()))
}

/// One chunk, a few uneven chunks, and the full 32-chunk layout.
const LENGTHS: [usize; 3] = [1000, 4097, 65_537];

#[test]
fn elementwise_ops_match_a_sequential_loop() {
    for len in LENGTHS {
        let (a, b) = (input(len, 1), input(len, 2));
        let expected = [
            a.data().iter().map(|&v| v * v + 1.0).collect::<Vec<_>>(),
            a.data().iter().map(|&v| v * 1.5 - 0.25).collect(),
            a.data().iter().zip(b.data()).map(|(&x, &y)| x * y - x).collect(),
            a.data().iter().zip(b.data()).map(|(&x, &y)| x + -0.75 * y).collect(),
        ];
        let expected: Vec<Vec<u32>> = expected.iter().map(|v| bits(v)).collect();
        for threads in std::iter::once(1).chain(comparison_sizes()) {
            let (elementwise, _) = Pool::with_threads(threads).install(|| run_ops(len));
            assert_eq!(elementwise, expected, "len {len} at {threads} pool threads");
        }
    }
}

#[test]
fn tensor_ops_are_byte_identical_across_pool_sizes() {
    for len in LENGTHS {
        let baseline = Pool::with_threads(1).install(|| run_ops(len));
        for threads in comparison_sizes() {
            let got = Pool::with_threads(threads).install(|| run_ops(len));
            assert_eq!(got, baseline, "len {len} at {threads} pool threads");
        }
    }
}

#[test]
fn reductions_of_an_empty_tensor_are_their_identities() {
    let empty = Tensor::from_vec(Vec::new(), vec![0]);
    assert_eq!(empty.sum(), 0.0);
    assert_eq!(empty.sq_norm(), 0.0);
    assert_eq!(empty.absmax(), 0.0);
}
