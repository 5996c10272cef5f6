//! **UPAQ** — semi-structured pattern pruning with mixed-precision
//! quantization for 3D object detectors.
//!
//! This crate is the paper's primary contribution
//! (*UPAQ: A Framework for Real-Time and Energy-Efficient 3D Object
//! Detection in Autonomous Vehicles*, DATE 2025), implemented over the
//! workspace substrates:
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 (preprocessing: DFS root/leaf groups) | [`upaq_nn::group`] (re-exported as [`preprocess`]) |
//! | Algorithm 2 (pattern generator) | [`pattern`] |
//! | Algorithm 3 (compression stage) | [`compress`] |
//! | Algorithm 4 (k×k kernel compression; the search for both kernel families) | [`kxk`] |
//! | Algorithm 5 (1×1 kernel transform) | [`one_by_one`] |
//! | Algorithm 6 (symmetric quantization + SQNR, applied per kernel by [`kxk`]) | [`upaq_tensor::quant`] |
//! | Eq. 2 (efficiency score `E_s`) | [`score`] |
//! | HCK / LCK variants (§V-A) | [`config::UpaqConfig::hck`] / [`config::UpaqConfig::lck`] |
//!
//! # Example
//!
//! ```
//! use upaq::config::UpaqConfig;
//! use upaq::compress::{CompressionContext, Compressor, Upaq};
//! use upaq_hwmodel::DeviceProfile;
//! use upaq_nn::{Layer, Model};
//!
//! # fn main() -> Result<(), upaq::UpaqError> {
//! let mut model = Model::new("demo");
//! let input = model.add_input("in", 4);
//! let c1 = model.add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])?;
//! model.add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 2), &[c1])?;
//!
//! let ctx = CompressionContext::new(
//!     DeviceProfile::jetson_orin_nano(),
//!     [("in".to_string(), upaq_tensor::Shape::nchw(1, 4, 8, 8))].into(),
//!     42,
//! );
//! let outcome = Upaq::new(UpaqConfig::hck()).compress(&model, &ctx)?;
//! assert!(outcome.report.compression_ratio > 2.0);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod compress;
pub mod config;
pub mod error;
pub mod kxk;
pub mod one_by_one;
pub mod pattern;
pub mod score;
pub mod sensitivity;

pub use compress::{CompressionContext, CompressionOutcome, CompressionReport, Compressor, Upaq};
pub use config::UpaqConfig;
pub use error::UpaqError;
pub use pattern::{Pattern, PatternKind};
/// Re-export of the preprocessing stage (paper Algorithm 1).
pub use upaq_nn::group::preprocess;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, UpaqError>;
