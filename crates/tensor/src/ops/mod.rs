//! Neural-network compute kernels over [`crate::Tensor`].
//!
//! Each operation takes NCHW activations (batch 1 per frame — single-frame
//! AV inference) and reports enough cost metadata for the hardware model:
//! multiply-accumulate counts that honour weight sparsity, mirroring how a
//! structured-sparsity runtime skips zero weights. The one convolution,
//! [`conv2d_into`], runs over f32 weights packed once into non-zero taps
//! and writes a caller-owned output; quantized layers reach it as
//! fake-quantized f32 weights. There are no batched kernels: the executor
//! runs a batch layer by layer, each frame through these per-frame ops.

mod activation;
mod conv;
mod linear;
mod norm;
mod parallel;
mod pool;

pub use activation::{relu, relu_into};
pub use conv::{conv2d_into, Conv2dParams};
pub use linear::{linear, linear_into};
pub use norm::{batch_norm, batch_norm_into, BatchNormParams};
pub use parallel::{parallel_for_chunks, ChunkPanic, TensorParallel};
pub use pool::{max_pool2d, max_pool2d_into};
