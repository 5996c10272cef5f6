//! Neural-network compute kernels over [`crate::Tensor`].
//!
//! Each operation takes NCHW activations (batch 1 per frame — single-frame
//! AV inference) and reports enough cost metadata for the hardware model:
//! multiply-accumulate counts that honour weight sparsity, mirroring how a
//! structured-sparsity runtime skips zero weights. The `*_batch` variants
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
mod sparse_conv;

pub use activation::{leaky_relu, relu, relu_into, sigmoid};
pub use batch::{
    avg_pool2d_batch, conv2d_batch, conv2d_batch_into, conv2d_packed_batch_into, linear_batch,
    max_pool2d_batch, quantized_conv2d_batch, quantized_linear_batch,
};
pub use conv::{conv2d, conv2d_into, conv2d_packed_into, Conv2dParams};
pub use linear::{linear, linear_into};
pub use norm::{batch_norm, batch_norm_into, BatchNormParams};
pub use parallel::{parallel_for_chunks, ChunkPanic, ExecMode, TensorParallel};
pub use pool::{avg_pool2d, max_pool2d, max_pool2d_into};
pub use quantized::{quantized_conv2d, quantized_linear};
pub use sparse_conv::{conv2d_sparse_act, dilate_active};
