//! Neural-network compute kernels over [`crate::Tensor`].
//!
//! Each operation takes NCHW activations (batch 1 per frame — single-frame
//! AV inference) and reports enough cost metadata for the hardware model:
//! multiply-accumulate counts that honour weight sparsity, mirroring how a
//! structured-sparsity runtime skips zero weights. The one f32
//! convolution, [`conv2d_into`], runs over weights packed once into
//! non-zero taps and writes a caller-owned output. The `*_batch` variants
//! run a slice of same-shaped frames through one kernel invocation,
//! amortizing per-call fixed work while staying bit-identical per frame;
//! the `quantized_*` variants execute pruned-and-quantized kernels in the
//! integer domain.

mod activation;
mod batch;
mod conv;
mod linear;
mod norm;
mod parallel;
mod pool;
mod quantized;

pub use activation::{leaky_relu, relu, relu_into, sigmoid};
pub use batch::{
    avg_pool2d_batch, linear_batch, max_pool2d_batch, quantized_conv2d_batch,
    quantized_linear_batch,
};
pub use conv::{conv2d_into, Conv2dParams};
pub use linear::{linear, linear_into};
pub use norm::{batch_norm, batch_norm_into, BatchNormParams};
pub use parallel::{parallel_for_chunks, ChunkPanic, TensorParallel};
pub use pool::{avg_pool2d, max_pool2d, max_pool2d_into};
pub use quantized::{quantized_conv2d, quantized_linear};
