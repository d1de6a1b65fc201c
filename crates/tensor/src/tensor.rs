//! Core tensor storage and shape handling.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error type for all fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl TensorError {
    pub(crate) fn new(message: impl Into<String>) -> TensorError {
        TensorError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor error: {}", self.message)
    }
}

impl Error for TensorError {}

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// Storage is shared and copy-on-write: `clone` shares the elements in
/// O(1), and the first write through `data_mut` or `set` to a shared
/// tensor copies them for the writer alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Tensor filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Vec<usize>, value: f32) -> Tensor {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: Arc::new(vec![value; n]),
        }
    }

    /// Tensor from explicit data.
    ///
    /// # Errors
    /// Fails if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(TensorError::new(format!(
                "shape {:?} needs {} elements, got {}",
                shape,
                n,
                data.len()
            )));
        }
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// Rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Tensor {
        Tensor {
            shape: vec![data.len()],
            data: Arc::new(data.to_vec()),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat row-major data, copying it first if the
    /// storage is shared with another tensor.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Whether `self` and `other` read the same storage (a clone that
    /// neither side has written since).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Flat offset of a multi-dimensional index.
    ///
    /// # Errors
    /// Fails on rank mismatch or out-of-bounds coordinates.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.shape.len() {
            return Err(TensorError::new(format!(
                "index rank {} != tensor rank {}",
                index.len(),
                self.shape.len()
            )));
        }
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            if ix >= dim {
                return Err(TensorError::new(format!(
                    "index {ix} out of bounds for dim {i} (size {dim})"
                )));
            }
            off = off * dim + ix;
        }
        Ok(off)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    /// Fails on rank mismatch or out-of-bounds coordinates.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.offset(index)?])
    }

    /// Store an element at a multi-dimensional index.
    ///
    /// # Errors
    /// Fails on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.offset(index)?;
        self.data_mut()[off] = value;
        Ok(())
    }

    /// Reinterpret with a new shape of identical element count.
    ///
    /// # Errors
    /// Fails if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::new(format!(
                "cannot reshape {} elements into {:?}",
                self.data.len(),
                shape
            )));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Borrow row `r` of a rank-2 tensor.
    ///
    /// # Errors
    /// Fails if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> Result<&[f32], TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::new("row() requires a rank-2 tensor"));
        }
        let cols = self.shape[1];
        if r >= self.shape[0] {
            return Err(TensorError::new(format!(
                "row {r} out of bounds (rows = {})",
                self.shape[0]
            )));
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.rank(), 2);
        assert_eq!(t.len(), 6);
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 6.0);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0]).is_err());
        assert!(Tensor::from_vec(vec![0], vec![]).is_ok());
    }

    #[test]
    fn set_and_reshape() {
        let mut t = Tensor::zeros(vec![2, 2]);
        t.set(&[1, 1], 5.0).unwrap();
        assert_eq!(t.get(&[1, 1]).unwrap(), 5.0);
        let r = t.reshape(vec![4]).unwrap();
        assert_eq!(r.get(&[3]).unwrap(), 5.0);
        assert!(r.clone().reshape(vec![3]).is_err());
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(1).unwrap(), &[4., 5., 6.]);
        assert!(t.row(2).is_err());
        let v = Tensor::from_slice(&[1., 2.]);
        assert!(v.row(0).is_err());
    }

    #[test]
    fn clones_share_storage_until_written() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        let mut b = a.clone();
        assert!(b.shares_storage(&a));
        b.data_mut()[0] = 9.0;
        assert!(!b.shares_storage(&a));
        assert_eq!(a.data(), &[1., 2., 3., 4.]);
        assert_eq!(b.data(), &[9., 2., 3., 4.]);
        let mut c = a.clone();
        c.set(&[1, 1], 0.0).unwrap();
        assert!(!c.shares_storage(&a));
        assert_eq!(a.get(&[1, 1]).unwrap(), 4.0);
    }

    #[test]
    fn full_fills_constant() {
        let t = Tensor::full(vec![3], 2.5);
        assert_eq!(t.data(), &[2.5, 2.5, 2.5]);
        assert!(!t.is_empty());
    }
}
