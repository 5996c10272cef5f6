//! Model intermediate representation for the UPAQ reproduction.
//!
//! The paper's framework operates on a *pretrained model's computational
//! graph*: Algorithm 1 walks that graph with depth-first search to group
//! layers under shared **root layers**, and Algorithm 3 then compresses only
//! the roots, replicating each root's best pattern onto its leaf layers.
//!
//! This crate provides that substrate:
//!
//! * [`Layer`] / [`LayerKind`] — typed layers (convolutions carry their
//!   `[out_c, in_c, kh, kw]` weight tensors);
//! * [`Model`] — a named DAG of layers with deep-copy semantics, parameter
//!   accounting and shape inference;
//! * [`Graph`] — the derived computation graph (edges, topological order);
//! * [`group`] — **Algorithm 1**: `find_root` + root→leaf grouping;
//! * [`exec`] — a forward executor producing activation maps;
//! * [`stats`] — MAC/parameter/sparsity accounting consumed by the hardware
//!   model.
//!
//! # Example
//!
//! ```
//! use upaq_nn::{Layer, LayerKind, Model};
//!
//! # fn main() -> Result<(), upaq_nn::NnError> {
//! let mut model = Model::new("tiny");
//! let input = model.add_input("in", 1);
//! let conv = model.add_layer(
//!     Layer::conv2d("conv1", 1, 4, 3, 1, 1, 0xBEEF),
//!     &[input],
//! )?;
//! model.add_layer(Layer::relu("act1"), &[conv])?;
//! assert_eq!(model.param_count(), 4 * 1 * 3 * 3 + 4);
//! # Ok(())
//! # }
//! ```

mod error;
mod graph;
mod layer;
mod model;

pub mod exec;
pub mod group;
pub mod init;
pub mod stats;

pub use error::NnError;
pub use graph::Graph;
pub use layer::{Layer, LayerId, LayerKind};
pub use model::Model;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;
