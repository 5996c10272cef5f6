//! Spatial pooling over NCHW activations.

use crate::{Result, Shape, Tensor, TensorError};

/// Validates pooling operands and returns `(c, h, w, oh, ow)`.
fn pool2d_dims(
    input: &Tensor,
    k: usize,
    stride: usize,
) -> Result<(usize, usize, usize, usize, usize)> {
    let shape = input.shape();
    if shape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: shape.rank(),
        });
    }
    if shape.dim(0) != 1 {
        return Err(TensorError::Invalid(
            "pooling supports batch size 1 only".into(),
        ));
    }
    if k == 0 || stride == 0 {
        return Err(TensorError::Invalid(
            "pool kernel and stride must be non-zero".into(),
        ));
    }
    let (c, h, w) = (shape.dim(1), shape.dim(2), shape.dim(3));
    if h < k || w < k {
        return Err(TensorError::Invalid(format!(
            "pool window {k} does not fit input {h}×{w}"
        )));
    }
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    Ok((c, h, w, oh, ow))
}

/// Max-pooling with a `k × k` window and the given stride.
///
/// # Errors
///
/// Returns an error for non-NCHW inputs, zero kernel/stride, or windows
/// larger than the input.
pub fn max_pool2d(input: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    let (c, _, _, oh, ow) = pool2d_dims(input, k, stride)?;
    let mut out = Tensor::zeros(Shape::nchw(1, c, oh, ow));
    max_pool2d_into(input, k, stride, &mut out)?;
    Ok(out)
}

/// [`max_pool2d`] into a caller-provided output tensor — the
/// zero-allocation steady-state path.
///
/// # Errors
///
/// All [`max_pool2d`] error conditions, plus
/// [`TensorError::ShapeMismatch`] when `out` has the wrong shape.
pub fn max_pool2d_into(input: &Tensor, k: usize, stride: usize, out: &mut Tensor) -> Result<()> {
    let (c, h, w, oh, ow) = pool2d_dims(input, k, stride)?;
    let expected = [1, c, oh, ow];
    if out.shape().dims() != expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.to_vec(),
            right: out.shape().dims().to_vec(),
        });
    }
    let idata = input.as_slice();
    let odata = out.as_mut_slice();
    for ch in 0..c {
        let ibase = ch * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = f32::NEG_INFINITY;
                for r in 0..k {
                    for col in 0..k {
                        let iy = oy * stride + r;
                        let ix = ox * stride + col;
                        acc = acc.max(idata[ibase + iy * w + ix]);
                    }
                }
                odata[(ch * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input4() -> Tensor {
        Tensor::from_vec(Shape::nchw(1, 1, 4, 4), (0..16).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn max_pool_picks_window_max() {
        let out = max_pool2d(&input4(), 2, 2).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn overlapping_stride() {
        let out = max_pool2d(&input4(), 2, 1).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 3, 3]);
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 5.0);
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(max_pool2d(&input4(), 0, 1).is_err());
        assert!(max_pool2d(&input4(), 2, 0).is_err());
        assert!(max_pool2d(&input4(), 5, 1).is_err());
        let bad = Tensor::zeros(Shape::matrix(4, 4));
        assert!(max_pool2d(&bad, 2, 2).is_err());
    }

    #[test]
    fn multi_channel_pools_independently() {
        let t = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0],
        )
        .unwrap();
        let out = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(out.as_slice(), &[4.0, 40.0]);
    }
}
