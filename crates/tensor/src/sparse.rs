//! Kernel masks for semi-structured pruning.
//!
//! Pattern-based pruning (paper §III-A, Fig. 2(d)) keeps a fixed set of
//! positions inside each k×k kernel and zeroes the rest. [`KernelMask`]
//! represents that position set; applying it to a kernel produces the
//! pruned kernel, whose surviving taps [`crate::packed::PackedConv`] stores
//! for the conv kernel.

use crate::{Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// A boolean keep/drop mask over a `d × d` kernel.
///
/// `true` entries are *kept* (non-zero positions of the pattern).
///
/// ```
/// use upaq_tensor::sparse::KernelMask;
///
/// let mask = KernelMask::from_positions(3, &[(0, 0), (1, 1), (2, 2)]);
/// assert_eq!(mask.kept(), 3);
/// assert!(mask.is_kept(1, 1));
/// assert!(!mask.is_kept(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelMask {
    dim: usize,
    keep: Vec<bool>,
}

impl KernelMask {
    /// An all-kept (dense) mask.
    pub fn dense(dim: usize) -> Self {
        KernelMask {
            dim,
            keep: vec![true; dim * dim],
        }
    }

    /// An all-dropped mask (the connectivity-pruning "remove this kernel
    /// entirely" case).
    pub fn empty(dim: usize) -> Self {
        KernelMask {
            dim,
            keep: vec![false; dim * dim],
        }
    }

    /// Builds a mask keeping exactly the listed `(row, col)` positions.
    ///
    /// Out-of-range positions are ignored, mirroring how the paper's pattern
    /// generator clamps pattern length with `min(n, d)`.
    pub fn from_positions(dim: usize, positions: &[(usize, usize)]) -> Self {
        let mut keep = vec![false; dim * dim];
        for &(r, c) in positions {
            if r < dim && c < dim {
                keep[r * dim + c] = true;
            }
        }
        KernelMask { dim, keep }
    }

    /// Kernel side length `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of kept positions.
    pub fn kept(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Fraction of dropped positions, in `[0, 1]`.
    pub fn sparsity(&self) -> f32 {
        if self.keep.is_empty() {
            0.0
        } else {
            1.0 - self.kept() as f32 / self.keep.len() as f32
        }
    }

    /// Whether position `(row, col)` is kept.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `col` is `>= dim`.
    pub fn is_kept(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.dim && col < self.dim,
            "mask position out of range"
        );
        self.keep[row * self.dim + col]
    }

    /// The kept `(row, col)` positions in row-major order.
    pub fn positions(&self) -> Vec<(usize, usize)> {
        (0..self.dim)
            .flat_map(|r| (0..self.dim).map(move |c| (r, c)))
            .filter(|&(r, c)| self.keep[r * self.dim + c])
            .collect()
    }

    /// Applies the mask to a `d × d` kernel tensor, zeroing dropped
    /// positions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the tensor is not a
    /// `d × d` matrix matching the mask.
    pub fn apply(&self, kernel: &Tensor) -> Result<Tensor> {
        if kernel.shape().dims() != [self.dim, self.dim] {
            return Err(TensorError::ShapeMismatch {
                left: kernel.shape().dims().to_vec(),
                right: vec![self.dim, self.dim],
            });
        }
        let mut out = kernel.clone();
        for r in 0..self.dim {
            for c in 0..self.dim {
                if !self.keep[r * self.dim + c] {
                    out.set(&[r, c], 0.0).expect("index in range");
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn kernel3() -> Tensor {
        Tensor::from_vec(
            Shape::matrix(3, 3),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap()
    }

    #[test]
    fn dense_and_empty_masks() {
        assert_eq!(KernelMask::dense(3).kept(), 9);
        assert_eq!(KernelMask::empty(3).kept(), 0);
        assert_eq!(KernelMask::dense(3).sparsity(), 0.0);
        assert_eq!(KernelMask::empty(3).sparsity(), 1.0);
    }

    #[test]
    fn from_positions_ignores_out_of_range() {
        let m = KernelMask::from_positions(3, &[(0, 0), (5, 5), (2, 2)]);
        assert_eq!(m.kept(), 2);
    }

    #[test]
    fn apply_zeroes_dropped() {
        let m = KernelMask::from_positions(3, &[(0, 0), (1, 1), (2, 2)]);
        let pruned = m.apply(&kernel3()).unwrap();
        assert_eq!(pruned.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(pruned.get(&[0, 1]).unwrap(), 0.0);
        assert_eq!(pruned.get(&[2, 2]).unwrap(), 9.0);
        assert_eq!(pruned.count_nonzero(), 3);
    }

    #[test]
    fn apply_rejects_wrong_shape() {
        let m = KernelMask::dense(3);
        let k = Tensor::zeros(Shape::matrix(2, 2));
        assert!(m.apply(&k).is_err());
    }

    #[test]
    fn positions_row_major() {
        let m = KernelMask::from_positions(2, &[(1, 0), (0, 1)]);
        assert_eq!(m.positions(), vec![(0, 1), (1, 0)]);
    }
}
