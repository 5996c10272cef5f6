use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A row-major tensor shape.
///
/// `Shape` owns its dimension list and provides the stride / linear-offset
/// arithmetic used by [`crate::Tensor`].
///
/// ```
/// use upaq_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    ///
    /// A zero-length dimension list denotes a scalar; zero-sized dimensions
    /// are allowed and give a volume of 0.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Shorthand for a rank-1 shape.
    pub fn vector(len: usize) -> Self {
        Shape::new(vec![len])
    }

    /// Shorthand for a rank-2 shape (rows, cols).
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::new(vec![rows, cols])
    }

    /// Shorthand for the NCHW layout used by the conv kernels.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape::new(vec![n, c, h, w])
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a linear row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any component exceeds its dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() || index.iter().zip(&self.dims).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.dims.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(i, s)| i * s).sum())
    }

    /// Converts a linear row-major offset back to a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `offset >= volume()`.
    pub fn unravel(&self, offset: usize) -> Result<Vec<usize>> {
        if offset >= self.volume() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![offset],
                dims: self.dims.clone(),
            });
        }
        let mut rem = offset;
        let mut index = Vec::with_capacity(self.dims.len());
        for stride in self.strides() {
            index.push(rem / stride);
            rem %= stride;
        }
        Ok(index)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn zero_sized_dim() {
        let s = Shape::new(vec![3, 0, 2]);
        assert_eq!(s.volume(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(vec![3, 4, 5]);
        for off in 0..s.volume() {
            let idx = s.unravel(off).unwrap();
            assert_eq!(s.offset(&idx).unwrap(), off);
        }
    }

    #[test]
    fn offset_out_of_bounds() {
        let s = Shape::new(vec![2, 2]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.unravel(4).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2×3)");
    }

    #[test]
    fn from_conversions() {
        let s: Shape = vec![1, 2].into();
        assert_eq!(s.dims(), &[1, 2]);
        let s2: Shape = (&[3usize, 4][..]).into();
        assert_eq!(s2.dims(), &[3, 4]);
    }
}
