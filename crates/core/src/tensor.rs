//! Minimal functional tensors.
//!
//! Timing simulation works on shapes alone, but the programmability case
//! studies (§4) need *functional* execution: embedding gathers, paged
//! KV-cache assembly and attention math are verified on real data. These
//! tensors are deliberately simple — dense, row-major, `f32` storage — with
//! the logical [`DType`] kept only for bytes accounting, mirroring how the
//! paper validates BF16 kernels against FP32 references.

use crate::dtype::DType;
use crate::error::{DcmError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A tensor shape: a list of dimension extents, outermost first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension extents.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    /// Panics if `i >= rank()`.
    #[must_use]
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Shape plus logical data type: everything the timing layer needs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorDesc {
    /// Tensor shape.
    pub shape: Shape,
    /// Logical element type.
    pub dtype: DType,
}

impl TensorDesc {
    /// Create a descriptor.
    #[must_use]
    pub fn new(shape: impl Into<Shape>, dtype: DType) -> Self {
        TensorDesc {
            shape: shape.into(),
            dtype,
        }
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Storage footprint in bytes at the logical dtype.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }
}

impl fmt::Display for TensorDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dtype, self.shape)
    }
}

/// Dense row-major tensor with `f32` storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    desc: TensorDesc,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    #[must_use]
    pub fn zeros(shape: impl Into<Shape>, dtype: DType) -> Self {
        let desc = TensorDesc::new(shape, dtype);
        let n = desc.numel();
        Tensor {
            desc,
            data: vec![0.0; n],
        }
    }

    /// All-ones tensor.
    #[must_use]
    pub fn ones(shape: impl Into<Shape>, dtype: DType) -> Self {
        let desc = TensorDesc::new(shape, dtype);
        let n = desc.numel();
        Tensor {
            desc,
            data: vec![1.0; n],
        }
    }

    /// Tensor with elements drawn uniformly from `[-1, 1)`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(shape: impl Into<Shape>, dtype: DType, rng: &mut R) -> Self {
        let desc = TensorDesc::new(shape, dtype);
        let n = desc.numel();
        let data = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor { desc, data }
    }

    /// Build a tensor from existing data.
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if `data.len()` does not match the
    /// shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, dtype: DType, data: Vec<f32>) -> Result<Self> {
        let desc = TensorDesc::new(shape, dtype);
        if desc.numel() != data.len() {
            return Err(DcmError::ShapeMismatch(format!(
                "shape {} expects {} elements, got {}",
                desc.shape,
                desc.numel(),
                data.len()
            )));
        }
        Ok(Tensor { desc, data })
    }

    /// Descriptor (shape + dtype).
    #[must_use]
    pub fn desc(&self) -> &TensorDesc {
        &self.desc
    }

    /// Shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.desc.shape
    }

    /// Logical dtype.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.desc.dtype
    }

    /// Flat element view.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat element view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape().rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape().dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.shape().rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape().dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Element at 2-D index `(r, c)`.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    #[must_use]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.row(r)[c]
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    /// Returns [`DcmError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(DcmError::ShapeMismatch(format!(
                "cannot compare {} with {}",
                self.shape(),
                other.shape()
            )));
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn shape_basics() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dim(1), 3);
        assert_eq!(s.to_string(), "[2x3x4]");
    }

    #[test]
    fn desc_bytes_respect_dtype() {
        let d16 = TensorDesc::new([4, 4], DType::Bf16);
        let d32 = TensorDesc::new([4, 4], DType::Fp32);
        assert_eq!(d16.size_bytes(), 32);
        assert_eq!(d32.size_bytes(), 64);
        assert_eq!(d32.to_string(), "fp32[4x4]");
    }

    #[test]
    fn construction_and_rows() {
        let t = Tensor::from_vec([2, 3], DType::Fp32, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.row(1), &[4., 5., 6.]);
        assert_eq!(t.at(1, 2), 6.0);
    }

    #[test]
    fn from_vec_validates_length() {
        let r = Tensor::from_vec([2, 2], DType::Fp32, vec![1.0; 3]);
        assert!(r.is_err());
    }

    #[test]
    fn zeros_ones_random() {
        let z = Tensor::zeros([3, 3], DType::Bf16);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([3, 3], DType::Bf16);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let mut rng = rng::seeded(7);
        let r = Tensor::random([16, 16], DType::Bf16, &mut rng);
        assert!(r.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
        // Deterministic per seed.
        let mut rng2 = rng::seeded(7);
        let r2 = Tensor::random([16, 16], DType::Bf16, &mut rng2);
        assert_eq!(r, r2);
    }

    #[test]
    fn max_abs_diff_checks_shape() {
        let a = Tensor::ones([2, 2], DType::Fp32);
        let b = Tensor::zeros([2, 2], DType::Fp32);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        let c = Tensor::zeros([2, 3], DType::Fp32);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn row_mut_writes_through() {
        let mut t = Tensor::zeros([2, 2], DType::Fp32);
        t.row_mut(1)[0] = 42.0;
        assert_eq!(t.at(1, 0), 42.0);
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn row_requires_rank_2() {
        let t = Tensor::zeros([2, 2, 2], DType::Fp32);
        let _ = t.row(0);
    }
}
