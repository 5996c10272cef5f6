//! Dense, quantized, and sparsity-aware tensors for the UPAQ reproduction.
//!
//! This crate is the numeric substrate underneath every other crate in the
//! workspace. It provides:
//!
//! * [`Shape`] — row-major shapes with stride arithmetic;
//! * [`Tensor`] — a dense `f32` tensor with the elementwise / linear-algebra
//!   operations the detector models need;
//! * [`quant`] — symmetric integer quantization (Algorithm 6 of the
//!   paper): the one grid rule ([`quant::Grid`]), applied to a slice by
//!   [`quant::quantize`] and [`quant::fake_quantize`], plus the
//!   signal-to-quantization-noise ratio (SQNR);
//! * [`sparse`] — kernel masks ([`sparse::KernelMask`]) used by
//!   semi-structured pattern pruning;
//! * [`packed`] — non-zero tap lists ([`packed::PackedConv`]), stored once
//!   per block of four output channels that keep the same taps and per
//!   kernel otherwise, built once from the pruned weights so steady-state
//!   kernels stop re-scanning for zeros;
//! * [`ops`] — convolution, linear, pooling, normalization and activation
//!   kernels, plus the worker pool they share ([`ops::TensorParallel`]);
//!   the one convolution runs over packed non-zero taps, and quantized
//!   layers reach it as fake-quantized f32 weights.
//!
//! # Example
//!
//! ```
//! use upaq_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), upaq_tensor::TensorError> {
//! let a = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = a.map(|x| x * 2.0);
//! assert_eq!(b.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
//! # Ok(())
//! # }
//! ```

mod error;
mod shape;
mod tensor;

pub mod ops;
pub mod packed;
pub mod quant;
pub mod sparse;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Returns `true` when two floats are within `tol` of each other,
/// relative to their magnitude.
///
/// Used pervasively by the test suites of downstream crates; exposed here so
/// every crate compares floats the same way.
///
/// ```
/// assert!(upaq_tensor::approx_eq(1.0, 1.0 + 1e-9, 1e-6));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}
