//! Int-domain execution of quantized layers.
//!
//! The compression pipeline stores pruned-and-quantized kernels as
//! [`QuantizedTensor`] codes; these kernels execute them **without
//! dequantizing the weights**: activations are quantized with a per-tensor
//! symmetric scale, the convolution/matmul accumulates in `i64` over the
//! integer codes (skipping pruned zero codes), and a single rescale
//! `acc * (scale_w * scale_x)` returns to the real domain — the INT8-style
//! path TensorRT deployments of the paper's targets use. Bias stays in
//! f32 and is added after the rescale.

use crate::ops::conv::Conv2dParams;
use crate::quant::QuantizedTensor;
use crate::{Result, Tensor};

/// Int-domain 2-D convolution: f32 input `[1, in_c, h, w]`, quantized
/// weights `[out_c, in_c, kh, kw]`, optional f32 bias.
///
/// The input is quantized to `act_bits` with a per-tensor symmetric scale,
/// the accumulation runs over the integer codes (zero codes — pruned
/// weights — are skipped), and each output element is rescaled once.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`]/[`TensorError::ShapeMismatch`]/
/// [`TensorError::Invalid`] for the same operand problems as
/// [`conv2d_into`][crate::ops::conv2d_into], and
/// [`TensorError::UnsupportedBitwidth`] for a bad `act_bits`.
pub fn quantized_conv2d(
    input: &Tensor,
    weights: &QuantizedTensor,
    bias: Option<&Tensor>,
    act_bits: u8,
    params: Conv2dParams,
) -> Result<Tensor> {
    let batched = crate::ops::quantized_conv2d_batch(&[input], weights, bias, act_bits, params)?;
    Ok(batched.into_iter().next().expect("one frame in, one out"))
}

/// Int-domain fully-connected layer: f32 rank-1 input, quantized weights
/// `[out_f, in_f]`, optional f32 bias. Same integer path as
/// [`quantized_conv2d`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`]/[`TensorError::ShapeMismatch`]
/// for operand problems and [`TensorError::UnsupportedBitwidth`] for a bad
/// `act_bits`.
pub fn quantized_linear(
    input: &Tensor,
    weights: &QuantizedTensor,
    bias: Option<&Tensor>,
    act_bits: u8,
) -> Result<Tensor> {
    let batched = crate::ops::quantized_linear_batch(&[input], weights, bias, act_bits)?;
    Ok(batched.into_iter().next().expect("one frame in, one out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn int_domain_conv_tracks_fake_quantized_reference() {
        // The int path must agree with "dequantize everything, run f32"
        // up to activation-quantization noise.
        let mut rng = StdRng::seed_from_u64(41);
        let x = Tensor::uniform(Shape::nchw(1, 2, 5, 5), -1.0, 1.0, &mut rng);
        let wf = Tensor::uniform(Shape::nchw(3, 2, 3, 3), -0.5, 0.5, &mut rng);
        let bias = Tensor::uniform(Shape::vector(3), -0.2, 0.2, &mut rng);
        let q = QuantizedTensor::quantize(&wf, 8).unwrap();
        let p = Conv2dParams::same(3);
        let out = quantized_conv2d(&x, &q, Some(&bias), 16, p).unwrap();
        let reference = crate::ops::conv::conv2d(&x, &q.dequantize(), Some(&bias), p).unwrap();
        assert!(out.max_abs_diff(&reference).unwrap() < 1e-3);
    }

    #[test]
    fn int_domain_linear_tracks_fake_quantized_reference() {
        let mut rng = StdRng::seed_from_u64(43);
        let x = Tensor::uniform(Shape::vector(8), -2.0, 2.0, &mut rng);
        let wf = Tensor::uniform(Shape::matrix(4, 8), -1.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize(&wf, 8).unwrap();
        let out = quantized_linear(&x, &q, None, 16).unwrap();
        let reference = crate::ops::linear(&x, &q.dequantize(), None).unwrap();
        assert!(out.max_abs_diff(&reference).unwrap() < 1e-3);
    }

    #[test]
    fn pruned_codes_do_no_work_but_change_nothing() {
        // Zeroing codes (pruning) must equal running with those codes kept
        // as explicit zeros — the skip is an optimization, not a semantic.
        let mut rng = StdRng::seed_from_u64(47);
        let x = Tensor::uniform(Shape::nchw(1, 1, 4, 4), -1.0, 1.0, &mut rng);
        let wf = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| {
            if i % 2 == 0 {
                (i as f32 + 1.0) * 0.1
            } else {
                0.0
            }
        });
        let q = QuantizedTensor::quantize(&wf, 8).unwrap();
        let p = Conv2dParams::same(3);
        let out = quantized_conv2d(&x, &q, None, 12, p).unwrap();
        let reference = crate::ops::conv::conv2d(&x, &q.dequantize(), None, p).unwrap();
        assert!(out.max_abs_diff(&reference).unwrap() < 1e-3);
    }

    #[test]
    fn rejects_bad_act_bits_and_shapes() {
        let x = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        let q = QuantizedTensor::quantize(&Tensor::zeros(Shape::nchw(1, 1, 3, 3)), 8).unwrap();
        assert!(quantized_conv2d(&x, &q, None, 1, Conv2dParams::default()).is_err());
        let bad = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(quantized_conv2d(&bad, &q, None, 8, Conv2dParams::default()).is_err());
        let qv = QuantizedTensor::quantize(&Tensor::zeros(Shape::matrix(2, 3)), 8).unwrap();
        assert!(quantized_linear(&Tensor::zeros(Shape::vector(4)), &qv, None, 8).is_err());
    }
}
