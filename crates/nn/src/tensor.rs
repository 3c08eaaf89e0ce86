//! A minimal dense tensor for the quantized DNN stack.
//!
//! The evaluation workloads of the paper (LeNet on MNIST-scale inputs, VGG9
//! on CIFAR-scale inputs) are small enough that a straightforward row-major
//! `Vec<f32>` tensor with explicit loops is sufficient, keeps the
//! dependencies at zero and makes the photonic mapping code easy to audit.

use crate::error::{NnError, Result};
use serde::{Deserialize, Serialize};

/// A dense row-major tensor of `f32` values.
///
/// ```
/// use lightator_nn::tensor::Tensor;
///
/// # fn main() -> Result<(), lightator_nn::NnError> {
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// let u = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])?;
/// assert_eq!(u.get(&[1])?, 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with a constant.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if the data length does not
    /// match the shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The tensor shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a wrong number of indices or
    /// [`NnError::IndexOutOfBounds`] for an out-of-range index.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} indices", self.shape.len()),
                actual: index.to_vec(),
            });
        }
        let mut flat = 0;
        for (dim, (&i, &extent)) in index.iter().zip(&self.shape).enumerate() {
            if i >= extent {
                return Err(NnError::IndexOutOfBounds {
                    index: i,
                    len: self.shape[dim],
                });
            }
            flat = flat * extent + i;
        }
        Ok(flat)
    }

    /// Reads the value at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Writes the value at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let offset = self.offset(index)?;
        self.data[offset] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if the element count differs.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Applies a function to every element, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every element by a constant.
    #[must_use]
    pub fn scaled(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.sum() / self.data.len() as f32
    }

    /// Maximum absolute value (0 for an empty tensor).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the largest element (ties resolved to the first), or `None`
    /// for an empty tensor.
    #[must_use]
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", self.shape),
                actual: other.shape.clone(),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", self.shape),
                actual: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full_have_expected_contents() {
        let z = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(z.len(), 24);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2, 2], 1.5);
        assert!(f.data().iter().all(|&x| x == 1.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.0).expect("ok");
        assert_eq!(t.get(&[1, 2, 3]).expect("ok"), 7.0);
        assert_eq!(t.get(&[0, 0, 0]).expect("ok"), 0.0);
        // Row-major layout: last index varies fastest.
        assert_eq!(t.offset(&[1, 2, 3]).expect("ok"), 23);
    }

    #[test]
    fn indexing_errors() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
        assert!(t.get(&[0, 0, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).expect("ok");
        let r = t.reshaped(&[4]).expect("ok");
        assert_eq!(r.data(), t.data());
        assert!(t.reshaped(&[3]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).expect("ok");
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).expect("ok");
        assert_eq!(a.add(&b).expect("ok").data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).expect("ok").data(), &[2.0, 3.0]);
        assert_eq!(a.dot(&b).expect("ok"), 13.0);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0], &[3]).expect("ok");
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(Tensor::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn map_and_scale() {
        let t = Tensor::from_vec(vec![1.0, -2.0], &[2]).expect("ok");
        assert_eq!(t.map(f32::abs).data(), &[1.0, 2.0]);
        assert_eq!(t.scaled(2.0).data(), &[2.0, -4.0]);
    }
}
