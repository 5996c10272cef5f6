//! Batched execution of the linear, pooling and int-domain kernels.
//!
//! Every kernel here runs a *batch* of same-shaped frames through the
//! corresponding single-frame op while amortizing the per-call fixed work
//! (integer weight-tap extraction for quantized convolutions, row walks
//! for linear layers) across the batch. The per-frame arithmetic — tap
//! order, accumulation order, bias add — is exactly the single-frame
//! kernel's, so batched and serial execution are **bit-identical** frame
//! by frame; the property tests assert it.
//!
//! There is no batched f32 convolution: the forward executor runs a batch
//! layer by layer, each frame through the one f32 conv entry point,
//! [`conv2d_into`][crate::ops::conv2d_into].
//!
//! Batches are slices of per-frame tensors rather than one `[N, C, H, W]`
//! tensor, so a server that admits frames individually and decodes them
//! individually needs no gather/scatter copy on either end.

use crate::ops::conv::Conv2dParams;
use crate::ops::parallel::{parallel_for_chunks, SendPtr};
use crate::packed::{PackedQuantConv, PackedTaps};
use crate::quant::QuantizedTensor;
use crate::{Result, Shape, Tensor, TensorError};

/// Validates one conv2d operand set and returns `(out_c, oh, ow)`.
/// Mirrors the single-frame validation in `ops::conv`.
fn conv_dims(
    input: &Tensor,
    wdims: &[usize],
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<(usize, usize, usize)> {
    let ishape = input.shape();
    if ishape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: ishape.rank(),
        });
    }
    if ishape.dim(0) != 1 {
        return Err(TensorError::Invalid(
            "batched conv2d takes per-frame [1, C, H, W] tensors".into(),
        ));
    }
    let (out_c, w_in_c, kh, kw) = (wdims[0], wdims[1], wdims[2], wdims[3]);
    if ishape.dim(1) != w_in_c {
        return Err(TensorError::ShapeMismatch {
            left: ishape.dims().to_vec(),
            right: wdims.to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::Invalid(format!(
                "bias length {} does not match {out_c} output channels",
                b.len()
            )));
        }
    }
    Ok((
        out_c,
        params.out_size(ishape.dim(2), kh),
        params.out_size(ishape.dim(3), kw),
    ))
}

/// Checks a batch of inputs share one shape and returns that shape's dims.
fn uniform_batch_dims(inputs: &[&Tensor]) -> Result<Vec<usize>> {
    let first = inputs
        .first()
        .ok_or_else(|| TensorError::Invalid("batched op needs at least one frame".into()))?;
    for t in &inputs[1..] {
        if t.shape() != first.shape() {
            return Err(TensorError::ShapeMismatch {
                left: first.shape().dims().to_vec(),
                right: t.shape().dims().to_vec(),
            });
        }
    }
    Ok(first.shape().dims().to_vec())
}

/// Batched [`linear`][crate::ops::linear]: every frame (rank-1, same
/// length) through one weight matrix, walking each weight row once per
/// batch instead of once per frame. Bit-identical per frame to the serial
/// kernel.
///
/// # Errors
///
/// All single-frame `linear` error conditions, plus
/// [`TensorError::ShapeMismatch`] when the frames disagree in shape and
/// [`TensorError::Invalid`] on an empty batch.
pub fn linear_batch(
    inputs: &[&Tensor],
    weights: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Vec<Tensor>> {
    let dims = uniform_batch_dims(inputs)?;
    if dims.len() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: dims.len(),
        });
    }
    if weights.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: weights.shape().rank(),
        });
    }
    let in_f = dims[0];
    let (out_f, w_in) = (weights.shape().dim(0), weights.shape().dim(1));
    if w_in != in_f {
        return Err(TensorError::ShapeMismatch {
            left: weights.shape().dims().to_vec(),
            right: vec![out_f, in_f],
        });
    }
    if let Some(b) = bias {
        if b.len() != out_f {
            return Err(TensorError::ShapeMismatch {
                left: b.shape().dims().to_vec(),
                right: vec![out_f],
            });
        }
    }
    let w = weights.as_slice();
    let mut outs = vec![vec![0.0f32; out_f]; inputs.len()];
    for o in 0..out_f {
        let row = &w[o * in_f..(o + 1) * in_f];
        let bias_v = bias.map_or(0.0, |b| b.as_slice()[o]);
        for (input, out) in inputs.iter().zip(outs.iter_mut()) {
            let x = input.as_slice();
            let mut acc = 0.0;
            for (wv, xv) in row.iter().zip(x) {
                if *wv != 0.0 {
                    acc += wv * xv;
                }
            }
            out[o] = acc + bias_v;
        }
    }
    outs.into_iter()
        .map(|o| Tensor::from_vec(Shape::vector(out_f), o))
        .collect()
}

/// Batched [`max_pool2d`][crate::ops::max_pool2d] over same-shaped frames.
///
/// # Errors
///
/// Single-frame pooling errors plus batch-uniformity/empty-batch errors.
pub fn max_pool2d_batch(inputs: &[&Tensor], k: usize, stride: usize) -> Result<Vec<Tensor>> {
    uniform_batch_dims(inputs)?;
    inputs
        .iter()
        .map(|t| crate::ops::max_pool2d(t, k, stride))
        .collect()
}

/// Batched [`avg_pool2d`][crate::ops::avg_pool2d] over same-shaped frames.
///
/// # Errors
///
/// Single-frame pooling errors plus batch-uniformity/empty-batch errors.
pub fn avg_pool2d_batch(inputs: &[&Tensor], k: usize, stride: usize) -> Result<Vec<Tensor>> {
    uniform_batch_dims(inputs)?;
    inputs
        .iter()
        .map(|t| crate::ops::avg_pool2d(t, k, stride))
        .collect()
}

/// Batched [`quantized_conv2d`][crate::ops::quantized_conv2d]: each frame
/// is quantized with its own per-tensor activation scale (exactly as the
/// serial kernel does), while the integer weight taps are extracted once
/// per batch. Bit-identical per frame to the serial int-domain kernel.
///
/// # Errors
///
/// All serial `quantized_conv2d` error conditions plus
/// batch-uniformity/empty-batch errors.
pub fn quantized_conv2d_batch(
    inputs: &[&Tensor],
    weights: &QuantizedTensor,
    bias: Option<&Tensor>,
    act_bits: u8,
    params: Conv2dParams,
) -> Result<Vec<Tensor>> {
    let wdims = weights.shape().dims().to_vec();
    if wdims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: wdims.len(),
        });
    }
    uniform_batch_dims(inputs)?;
    let (out_c, oh, ow) = conv_dims(inputs[0], &wdims, bias, params)?;
    let ishape = inputs[0].shape();
    let space = (ishape.dim(2), ishape.dim(3), oh, ow);

    // Integer weight taps packed once per call instead of re-scanned per
    // (oc, ic) pair; per-frame activation quantization keeps each frame's
    // own symmetric scale, matching the serial kernel's behaviour exactly.
    let packed = PackedQuantConv::pack(weights)?;
    let quantized: Vec<QuantizedTensor> = inputs
        .iter()
        .map(|t| QuantizedTensor::quantize(t, act_bits))
        .collect::<Result<_>>()?;

    let mut outs: Vec<Tensor> = (0..inputs.len())
        .map(|_| Tensor::zeros(Shape::nchw(1, out_c, oh, ow)))
        .collect();
    let chan = oh * ow;
    if chan == 0 {
        return Ok(outs);
    }
    let packed = &packed;
    let quantized = &quantized;
    let base = SendPtr(outs.as_mut_ptr());
    parallel_for_chunks(inputs.len(), move |f| {
        // SAFETY: frame `f` exclusively owns `outs[f]`; the vector outlives
        // the call because `parallel_for_chunks` blocks until done.
        let out = unsafe { &mut *base.get().add(f) };
        let qin = &quantized[f];
        let scale = packed.scale() * qin.scale();
        let icodes = qin.codes();
        let odata = out.as_mut_slice();
        for oc in 0..out_c {
            let ochan = &mut odata[oc * chan..(oc + 1) * chan];
            quantized_conv2d_channel(oc, icodes, packed, scale, bias, params, space, ochan);
        }
    });
    Ok(outs)
}

/// One output channel of the int-domain convolution: `i64` accumulation
/// over packed integer taps, one rescale per output element, bias after —
/// exactly the serial kernel's per-element arithmetic.
#[allow(clippy::too_many_arguments)]
fn quantized_conv2d_channel(
    oc: usize,
    icodes: &[i32],
    packed: &PackedTaps<i64>,
    scale: f32,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    space: (usize, usize, usize, usize),
    ochan: &mut [f32],
) {
    let (h, w, oh, ow) = space;
    let bias_v = bias.map_or(0.0, |b| b.as_slice()[oc]);
    for ic in 0..packed.in_c() {
        let taps = packed.group(oc, ic);
        if taps.is_empty() {
            continue;
        }
        let ibase = ic * h * w;
        for oy in 0..oh {
            let iy0 = oy * params.stride;
            for ox in 0..ow {
                let ix0 = ox * params.stride;
                let mut acc = 0i64;
                for t in taps {
                    let iy = iy0 + t.r as usize;
                    let ix = ix0 + t.c as usize;
                    if iy < params.padding || ix < params.padding {
                        continue;
                    }
                    let iy = iy - params.padding;
                    let ix = ix - params.padding;
                    if iy >= h || ix >= w {
                        continue;
                    }
                    acc += t.v * i64::from(icodes[ibase + iy * w + ix]);
                }
                // Integer accumulation, one rescale into the real
                // domain — the TensorRT-style int path.
                ochan[oy * ow + ox] += acc as f32 * scale;
            }
        }
    }
    if bias_v != 0.0 {
        for v in ochan {
            *v += bias_v;
        }
    }
}

/// Batched [`quantized_linear`][crate::ops::quantized_linear]: per-frame
/// activation scales, one integer row walk per batch. Bit-identical per
/// frame to the serial int-domain kernel.
///
/// # Errors
///
/// All serial `quantized_linear` error conditions plus
/// batch-uniformity/empty-batch errors.
pub fn quantized_linear_batch(
    inputs: &[&Tensor],
    weights: &QuantizedTensor,
    bias: Option<&Tensor>,
    act_bits: u8,
) -> Result<Vec<Tensor>> {
    let dims = uniform_batch_dims(inputs)?;
    if dims.len() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: dims.len(),
        });
    }
    let wdims = weights.shape().dims();
    if wdims.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: wdims.len(),
        });
    }
    let in_f = dims[0];
    let (out_f, w_in) = (wdims[0], wdims[1]);
    if w_in != in_f {
        return Err(TensorError::ShapeMismatch {
            left: wdims.to_vec(),
            right: vec![out_f, in_f],
        });
    }
    if let Some(b) = bias {
        if b.len() != out_f {
            return Err(TensorError::ShapeMismatch {
                left: b.shape().dims().to_vec(),
                right: vec![out_f],
            });
        }
    }
    let quantized: Vec<QuantizedTensor> = inputs
        .iter()
        .map(|t| QuantizedTensor::quantize(t, act_bits))
        .collect::<Result<_>>()?;
    let wcodes = weights.codes();
    let mut outs = vec![vec![0.0f32; out_f]; inputs.len()];
    for o in 0..out_f {
        let row = &wcodes[o * in_f..(o + 1) * in_f];
        let bias_v = bias.map_or(0.0, |b| b.as_slice()[o]);
        for (qin, out) in quantized.iter().zip(outs.iter_mut()) {
            let scale = weights.scale() * qin.scale();
            let mut acc = 0i64;
            for (qw, qx) in row.iter().zip(qin.codes()) {
                if *qw != 0 {
                    acc += i64::from(*qw) * i64::from(*qx);
                }
            }
            out[o] = acc as f32 * scale + bias_v;
        }
    }
    outs.into_iter()
        .map(|o| Tensor::from_vec(Shape::vector(out_f), o))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{avg_pool2d, linear, max_pool2d, quantized_conv2d, quantized_linear};
    use rand::{rngs::StdRng, SeedableRng};

    fn frames(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::uniform(Shape::nchw(1, c, h, w), -1.0, 1.0, &mut rng))
            .collect()
    }

    #[test]
    fn batched_linear_matches_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let weights = Tensor::uniform(Shape::matrix(4, 6), -1.0, 1.0, &mut rng);
        let bias = Tensor::uniform(Shape::vector(4), -0.3, 0.3, &mut rng);
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(Shape::vector(6), -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let batched = linear_batch(&refs, &weights, Some(&bias)).unwrap();
        for (b, x) in batched.iter().zip(&inputs) {
            assert_eq!(
                b.as_slice(),
                linear(x, &weights, Some(&bias)).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn batched_pools_match_serial_bitwise() {
        let inputs = frames(3, 2, 6, 6, 17);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        for (b, x) in max_pool2d_batch(&refs, 2, 2).unwrap().iter().zip(&inputs) {
            assert_eq!(b.as_slice(), max_pool2d(x, 2, 2).unwrap().as_slice());
        }
        for (b, x) in avg_pool2d_batch(&refs, 2, 2).unwrap().iter().zip(&inputs) {
            assert_eq!(b.as_slice(), avg_pool2d(x, 2, 2).unwrap().as_slice());
        }
    }

    #[test]
    fn batched_quantized_conv_matches_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let wf = Tensor::uniform(Shape::nchw(2, 2, 3, 3), -0.5, 0.5, &mut rng);
        let weights = QuantizedTensor::quantize(&wf, 8).unwrap();
        let bias = Tensor::uniform(Shape::vector(2), -0.1, 0.1, &mut rng);
        let inputs = frames(4, 2, 5, 5, 29);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let p = Conv2dParams::same(3);
        let batched = quantized_conv2d_batch(&refs, &weights, Some(&bias), 8, p).unwrap();
        for (b, x) in batched.iter().zip(&inputs) {
            let serial = quantized_conv2d(x, &weights, Some(&bias), 8, p).unwrap();
            assert_eq!(b.as_slice(), serial.as_slice());
        }
    }

    #[test]
    fn batched_quantized_linear_matches_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let wf = Tensor::uniform(Shape::matrix(3, 5), -1.0, 1.0, &mut rng);
        let weights = QuantizedTensor::quantize(&wf, 6).unwrap();
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(Shape::vector(5), -2.0, 2.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let batched = quantized_linear_batch(&refs, &weights, None, 6).unwrap();
        for (b, x) in batched.iter().zip(&inputs) {
            let serial = quantized_linear(x, &weights, None, 6).unwrap();
            assert_eq!(b.as_slice(), serial.as_slice());
        }
    }
}
