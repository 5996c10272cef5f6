use crate::{Result, Shape, TensorError};
use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is deliberately simple: a shape plus a flat `Vec<f32>`. All the
/// heavy lifting (convolutions, pooling, …) lives in [`crate::ops`]; this
/// type provides construction, indexing, elementwise arithmetic, reductions
/// and reshaping.
///
/// ```
/// use upaq_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), upaq_tensor::TensorError> {
/// let t = Tensor::zeros(Shape::matrix(2, 3));
/// assert_eq!(t.shape().volume(), 6);
/// assert_eq!(t.get(&[1, 2])?, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; volume],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![value; volume],
        }
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every linear offset.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize) -> f32) -> Self {
        let data = (0..shape.volume()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform(shape: Shape, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let dist = rand::distributions::Uniform::new(lo, hi);
        let data = (0..shape.volume()).map(|_| dist.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary operation against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
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

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Population variance of all elements (0 for an empty tensor).
    ///
    /// This is the `var(x)` used by the SQNR computation in the paper's
    /// Algorithm 6.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.data
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / self.data.len() as f32
    }

    /// Minimum element (`+∞` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-∞` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum absolute value — the `α_x` of the paper's Algorithm 6.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Number of exactly-zero elements.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Number of non-zero elements — `W_n` in the paper's computational-cost
    /// model (Eq. 1).
    pub fn count_nonzero(&self) -> usize {
        self.len() - self.count_zeros()
    }

    /// Fraction of elements that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.count_zeros() as f32 / self.data.len() as f32
        }
    }

    /// Flattens to a rank-1 tensor. Used by the 1×1 kernel transformation
    /// (paper Algorithm 5, line 1).
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::vector(self.data.len()),
            data: self.data.clone(),
        }
    }

    /// Matrix multiplication for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        if other.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.shape.rank(),
            });
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue; // sparsity-aware inner loop skip
                }
                let row = &other.data[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(row) {
                    *o += a * b;
                }
            }
        }
        Ok(Tensor {
            shape: Shape::matrix(m, n),
            data: out,
        })
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::matrix(2, 2));
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(Shape::matrix(2, 2), 3.0);
        assert_eq!(f.sum(), 12.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0]).is_err());
        assert!(Tensor::from_vec(Shape::vector(2), vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(Shape::new(vec![2, 3]));
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(Shape::vector(3), vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(Shape::vector(3));
        let b = Tensor::zeros(Shape::vector(4));
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(Shape::vector(4), vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.min(), -4.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.abs_max(), 4.0);
        assert!(approx_eq(t.variance(), 7.25, 1e-6));
    }

    #[test]
    fn sparsity_counts() {
        let t = Tensor::from_vec(Shape::vector(4), vec![0.0, 1.0, 0.0, 2.0]).unwrap();
        assert_eq!(t.count_zeros(), 2);
        assert_eq!(t.count_nonzero(), 2);
        assert_eq!(t.sparsity(), 0.5);
    }

    #[test]
    fn flatten_rank() {
        let t = Tensor::zeros(Shape::new(vec![2, 2, 2]));
        assert_eq!(t.flatten().shape().rank(), 1);
        assert_eq!(t.flatten().len(), 8);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(Shape::matrix(2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = Tensor::from_vec(Shape::matrix(2, 2), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b =
            Tensor::from_vec(Shape::matrix(3, 2), vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(2, 3));
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(Shape::vector(3));
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::uniform(Shape::vector(1000), -0.5, 0.5, &mut rng);
        assert!(t.min() >= -0.5 && t.max() < 0.5);
    }

    #[test]
    fn display_preview() {
        let t = Tensor::zeros(Shape::vector(20));
        let s = t.to_string();
        assert!(s.contains('…'));
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(Shape::vector(2), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::vector(2), vec![1.5, 2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
    }
}
