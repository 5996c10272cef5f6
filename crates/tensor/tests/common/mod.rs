//! Helpers shared by the tensor integration suites.

use upaq_tensor::ops::{conv2d_into, Conv2dParams};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::{Result, Shape, Tensor};

/// Allocating convolution over unpacked weights: packs `weights` and runs
/// the one f32 conv entry point, [`conv2d_into`], into a fresh output.
pub fn conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let packed = PackedConv::pack(weights)?;
    let s = input.shape();
    let oh = params.out_size(s.dim(2), packed.kh());
    let ow = params.out_size(s.dim(3), packed.kw());
    let mut out = Tensor::zeros(Shape::nchw(1, packed.out_c(), oh, ow));
    conv2d_into(input, &packed, bias, params, &mut out)?;
    Ok(out)
}
