//! Dense row-major `f32` tensor used throughout the workspace.
//!
//! The tensor is deliberately minimal: NILM models only need rank-1..3
//! tensors with a handful of elementwise and matrix operations. Layers in
//! this crate operate directly on the backing slice for speed; the methods
//! here cover construction, shape bookkeeping and the generic math shared by
//! several layers.

use std::fmt;

/// A dense row-major tensor of `f32` values.
///
/// Shape conventions used across the workspace:
/// - rank 1: `[n]` vectors (biases, per-timestep series)
/// - rank 2: `[rows, cols]` matrices (linear weights, batched features)
/// - rank 3: `[batch, channels, time]` feature maps (all sequence models)
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor { data: vec![0.0; n], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor { data: vec![value; n], shape: shape.to_vec() }
    }

    /// Wraps an existing buffer. Panics if `data.len()` does not match `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length {} != shape product {}", data.len(), n);
        Tensor { data, shape: shape.to_vec() }
    }

    /// A rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The shape slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Read-only view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Dimensions of a rank-2 tensor as `(rows, cols)`.
    #[inline]
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "expected rank-2 tensor, got shape {:?}", self.shape);
        (self.shape[0], self.shape[1])
    }

    /// Dimensions of a rank-3 tensor as `(batch, channels, time)`.
    #[inline]
    pub fn dims3(&self) -> (usize, usize, usize) {
        assert_eq!(self.rank(), 3, "expected rank-3 tensor, got shape {:?}", self.shape);
        (self.shape[0], self.shape[1], self.shape[2])
    }

    /// Element access for rank-3 tensors.
    #[inline]
    pub fn at3(&self, b: usize, c: usize, t: usize) -> f32 {
        let (_, ch, tt) = self.dims3();
        self.data[(b * ch + c) * tt + t]
    }

    /// Mutable element access for rank-3 tensors.
    #[inline]
    pub fn at3_mut(&mut self, b: usize, c: usize, t: usize) -> &mut f32 {
        let (_, ch, tt) = self.dims3();
        &mut self.data[(b * ch + c) * tt + t]
    }

    /// Element access for rank-2 tensors.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        let (_, cols) = self.dims2();
        self.data[r * cols + c]
    }

    /// Mutable element access for rank-2 tensors.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let (_, cols) = self.dims2();
        &mut self.data[r * cols + c]
    }

    /// The contiguous `[channels, time]` slab for one batch item of a rank-3 tensor.
    #[inline]
    pub fn batch_slice(&self, b: usize) -> &[f32] {
        let (_, c, t) = self.dims3();
        &self.data[b * c * t..(b + 1) * c * t]
    }

    /// The contiguous time row for `(batch, channel)` of a rank-3 tensor.
    #[inline]
    pub fn row(&self, b: usize, c: usize) -> &[f32] {
        let (_, ch, t) = self.dims3();
        let start = (b * ch + c) * t;
        &self.data[start..start + t]
    }

    /// Mutable time row for `(batch, channel)` of a rank-3 tensor.
    #[inline]
    pub fn row_mut(&mut self, b: usize, c: usize) -> &mut [f32] {
        let (_, ch, t) = self.dims3();
        let start = (b * ch + c) * t;
        &mut self.data[start..start + t]
    }

    /// Returns a reshaped copy sharing no storage. Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.len(), "cannot reshape {:?} into {:?}", self.shape, shape);
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Resizes the tensor to `shape`, reusing the existing allocation when
    /// capacity allows. Contents are unspecified afterwards — this is the
    /// primitive behind reusable batch scratch buffers.
    pub fn resize(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        if self.data.capacity() < n {
            // Growing: a fresh allocation avoids realloc copying the stale
            // contents we are about to overwrite anyway.
            self.data = Vec::with_capacity(n);
        }
        self.data.resize(n, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Elementwise addition, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
    }

    /// Elementwise subtraction, returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in sub");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Elementwise (Hadamard) product, returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in mul");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Scalar multiplication, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// In-place scalar multiplication.
    pub fn scale_inplace(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|a| *a *= alpha);
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Matrix multiplication of rank-2 tensors: `[m,k] x [k,n] -> [m,n]`,
    /// dispatched to the blocked, packed kernel in [`crate::gemm`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2();
        let (k2, n) = other.dims2();
        assert_eq!(k, k2, "matmul inner dims mismatch: {} vs {}", k, k2);
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm(
            m,
            n,
            k,
            &self.data,
            crate::gemm::Layout::Normal,
            &other.data,
            crate::gemm::Layout::Normal,
            &mut out,
            false,
        );
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = self.dims2();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { data: out, shape: vec![n, m] }
    }

    /// Frobenius/L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ... {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.at2(0, 1), 2.0);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn rank3_indexing_is_row_major() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at3(0, 0, 0), 0.0);
        assert_eq!(t.at3(0, 1, 0), 4.0);
        assert_eq!(t.at3(1, 0, 0), 12.0);
        assert_eq!(t.at3(1, 2, 3), 23.0);
        assert_eq!(t.row(1, 2), &[20.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose2_is_involution() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let tt = a.transpose2().transpose2();
        assert_eq!(tt, a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[3.0, 4.5, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(a.sum(), 2.0);
        assert!((a.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert!((a.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_wrong_size() {
        let a = Tensor::zeros(&[2, 3]);
        let _ = a.reshape(&[4, 2]);
    }
}
