//! A dense FP32 tensor whose elementwise operations and reductions run on `qsync-pool`.
//!
//! Storage is always FP32; lower-precision *execution* is expressed by routing operations
//! through the `qsync-lp-kernels` quantized kernels (the same convention the paper uses:
//! the inter-operator dataflow stays floating point).

use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use qsync_lp_kernels::gemm::{gemm_f32, TileConfig};
use qsync_pool::{for_each_chunk_mut, map_chunks, ELEMENT_MIN_LEN};

use crate::shape::Shape;

/// A dense, row-major FP32 tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Create a tensor from raw data and a shape.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(data.len(), shape.numel(), "data length does not match shape {shape}");
        Tensor { data, shape }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { data: vec![value; shape.numel()], shape }
    }

    /// Standard-normal random tensor with a deterministic seed.
    pub fn randn(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let normal = rand::distributions::Uniform::new(0.0f32, 1.0f32);
        let data = (0..shape.numel())
            .map(|_| {
                // Box-Muller transform for a standard normal sample.
                let u1: f32 = normal.sample(&mut rng).max(1e-7);
                let u2: f32 = normal.sample(&mut rng);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        Tensor { data, shape }
    }

    /// Uniform random tensor in `[lo, hi)` with a deterministic seed.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = (0..shape.numel()).map(|_| rng.gen::<f32>() * (hi - lo) + lo).collect();
        Tensor { data, shape }
    }

    /// Kaiming-style initialisation for a weight of shape `[fan_out, fan_in]`.
    pub fn kaiming(fan_out: usize, fan_in: usize, seed: u64) -> Self {
        let std = (2.0 / fan_in as f32).sqrt();
        let mut t = Tensor::randn(vec![fan_out, fan_in], seed);
        t.map_inplace(|v| v * std);
        t
    }

    /// Underlying data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Reshape (must preserve the element count).
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(self.shape.reshape_compatible(&shape), "cannot reshape {} into {shape}", self.shape);
        self.shape = shape;
        self
    }

    /// Element at a multi-dimensional coordinate.
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[self.shape.flat_index(coords)]
    }

    /// Apply a function to every element in place (parallel).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync + Send) {
        for_each_chunk_mut(&mut self.data, 1, ELEMENT_MIN_LEN, |_, chunk| {
            chunk.iter_mut().for_each(|v| *v = f(*v));
        });
    }

    /// A new tensor with a function applied to every element (parallel).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync + Send) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise binary operation with another tensor of identical shape (parallel).
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Send) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in elementwise op");
        let mut data = vec![0.0f32; self.data.len()];
        for_each_chunk_mut(&mut data, 1, ELEMENT_MIN_LEN, |start, chunk| {
            for ((o, &a), &b) in chunk.iter_mut().zip(&self.data[start..]).zip(&other.data[start..]) {
                *o = f(a, b);
            }
        });
        Tensor { data, shape: self.shape.clone() }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Scale by a scalar in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }

    /// `self += alpha * other`, in place (the SGD update primitive).
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for_each_chunk_mut(&mut self.data, 1, ELEMENT_MIN_LEN, |start, chunk| {
            for (a, &b) in chunk.iter_mut().zip(&other.data[start..]) {
                *a += alpha * b;
            }
        });
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.chunked_sum(|v| v as f64)
    }

    /// `Σ term(v)` in f64: sequential per-chunk sums, added in chunk order.
    fn chunked_sum(&self, term: impl Fn(f32) -> f64 + Sync) -> f64 {
        map_chunks(self.data.len(), ELEMENT_MIN_LEN, |r| self.data[r].iter().map(|&v| term(v)).sum::<f64>())
            .into_iter()
            .sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f64 {
        self.chunked_sum(|v| (v as f64) * (v as f64))
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f64 {
        self.sq_norm().sqrt()
    }

    /// Maximum absolute value.
    pub fn absmax(&self) -> f32 {
        map_chunks(self.data.len(), ELEMENT_MIN_LEN, |r| {
            self.data[r].iter().map(|v| v.abs()).fold(0.0f32, f32::max)
        })
        .into_iter()
        .fold(0.0f32, f32::max)
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul expects rank-2 tensors");
        assert_eq!(other.shape.rank(), 2, "matmul expects rank-2 tensors");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "inner dimensions must agree");
        let out = gemm_f32(&self.data, &other.data, m, k, n, &TileConfig::fallback());
        Tensor::from_vec(out, vec![m, n])
    }

    /// Transpose of a rank-2 tensor.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "t() expects a rank-2 tensor");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let data = qsync_lp_kernels::gemm::transpose(&self.data, r, c);
        Tensor::from_vec(data, vec![c, r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_values() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(vec![4]);
        assert!(o.data().iter().all(|&v| v == 1.0));
        let f = Tensor::full(vec![2], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5]);
    }

    #[test]
    fn randn_is_deterministic_and_roughly_standard() {
        let a = Tensor::randn(vec![10_000], 42);
        let b = Tensor::randn(vec![10_000], 42);
        assert_eq!(a, b);
        let mean = a.mean();
        let var = a.sq_norm() / a.numel() as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], vec![3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], vec![2]);
        let g = Tensor::from_vec(vec![2.0, -2.0], vec![2]);
        a.axpy_inplace(-0.5, &g);
        assert_eq!(a.data(), &[0.0, 2.0]);
    }

    #[test]
    fn reductions_and_norms() {
        let a = Tensor::from_vec(vec![3.0, -4.0], vec![2]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.l2_norm(), 5.0);
        assert_eq!(a.absmax(), 4.0);
    }

    #[test]
    fn matmul_matches_manual_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
        assert_eq!(c.shape().dims(), &[2, 2]);
    }

    #[test]
    fn transpose_swaps_dims() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), vec![2, 3]);
        let t = a.t();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), vec![2, 3]);
        let r = a.clone().reshape(vec![3, 2]);
        assert_eq!(r.data(), a.data());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    #[should_panic]
    fn mismatched_elementwise_shapes_panic() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic]
    fn bad_reshape_panics() {
        let a = Tensor::zeros(vec![4]);
        let _ = a.reshape(vec![3]);
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let small = Tensor::kaiming(8, 4, 1);
        let large = Tensor::kaiming(8, 4096, 1);
        assert!(small.sq_norm() / small.numel() as f64 > large.sq_norm() / large.numel() as f64);
    }
}
