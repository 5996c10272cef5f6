use std::fmt;
use upaq_nn::NnError;
use upaq_tensor::{Tensor, TensorError};

/// Errors produced by the UPAQ compression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum UpaqError {
    /// A configuration value was invalid (message explains which).
    BadConfig(String),
    /// An underlying model/graph operation failed.
    Nn(NnError),
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// The model has no compressible (weighted) layers.
    NothingToCompress,
}

impl fmt::Display for UpaqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpaqError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            UpaqError::Nn(e) => write!(f, "model error: {e}"),
            UpaqError::Tensor(e) => write!(f, "tensor error: {e}"),
            UpaqError::NothingToCompress => write!(f, "model has no weighted layers"),
        }
    }
}

impl std::error::Error for UpaqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpaqError::Nn(e) => Some(e),
            UpaqError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for UpaqError {
    fn from(e: NnError) -> Self {
        UpaqError::Nn(e)
    }
}

impl From<TensorError> for UpaqError {
    fn from(e: TensorError) -> Self {
        UpaqError::Tensor(e)
    }
}

/// Refuses weights holding a NaN or an infinity, naming the first:
/// quantization cannot place one on a grid (an infinite scale turns the
/// rest of its kernel into NaN), and [`crate::artifact::unpack`] refuses
/// one on the way back.
pub(crate) fn ensure_finite(weights: &Tensor) -> crate::Result<()> {
    let data = weights.as_slice();
    match data.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(TensorError::NonFiniteWeight {
            index,
            value: data[index],
        }
        .into()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        use std::error::Error;
        let e: UpaqError = NnError::CyclicGraph.into();
        assert!(e.to_string().contains("model error"));
        assert!(e.source().is_some());
        let t: UpaqError = TensorError::UnsupportedBitwidth(1).into();
        assert!(t.to_string().contains("tensor error"));
        assert!(UpaqError::NothingToCompress.source().is_none());
    }
}
