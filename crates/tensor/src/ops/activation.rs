//! Pointwise activation functions.

use crate::{Result, Tensor, TensorError};

/// Rectified linear unit: `max(0, x)` elementwise.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|x| x.max(0.0))
}

/// [`relu`] into a caller-provided same-shaped tensor — the
/// zero-allocation steady-state path.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `out` differs in shape.
pub fn relu_into(input: &Tensor, out: &mut Tensor) -> Result<()> {
    if out.shape() != input.shape() {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().dims().to_vec(),
            right: out.shape().dims().to_vec(),
        });
    }
    for (d, s) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
        *d = s.max(0.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(Shape::vector(3), vec![-1.0, 0.0, 2.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_into_matches_and_checks_shape() {
        let t = Tensor::from_vec(Shape::vector(3), vec![-1.0, 0.0, 2.0]).unwrap();
        let mut out = Tensor::full(Shape::vector(3), 9.0);
        relu_into(&t, &mut out).unwrap();
        assert_eq!(out.as_slice(), relu(&t).as_slice());
        let mut bad = Tensor::zeros(Shape::vector(4));
        assert!(relu_into(&t, &mut bad).is_err());
    }
}
