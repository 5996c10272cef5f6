use std::fmt;

/// Errors produced by tensor construction and tensor operations.
///
/// Every fallible public function in this crate returns
/// [`crate::Result`], whose error type is `TensorError`.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// The provided data length does not match the number of elements the
    /// shape requires.
    LengthMismatch {
        /// Elements the shape requires.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// Two shapes that must agree (e.g. for elementwise ops) differ.
    ShapeMismatch {
        /// Left-hand operand shape.
        left: Vec<usize>,
        /// Right-hand operand shape.
        right: Vec<usize>,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's dimensions.
        dims: Vec<usize>,
    },
    /// The operation requires a tensor of a particular rank.
    RankMismatch {
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the given tensor.
        actual: usize,
    },
    /// The requested quantization bitwidth is outside the supported 2..=16
    /// range.
    UnsupportedBitwidth(u8),
    /// A weight is NaN or infinite, which the packed conv kernels cannot
    /// execute exactly (see [`crate::packed::PackedConv::pack`]) and no
    /// quantization grid holds.
    NonFiniteWeight {
        /// Flat index of the first offending weight.
        index: usize,
        /// Its value.
        value: f32,
    },
    /// An operation-specific invariant was violated (message explains which).
    Invalid(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index:?} out of bounds for dims {dims:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, got rank {actual}")
            }
            TensorError::UnsupportedBitwidth(bits) => {
                write!(
                    f,
                    "unsupported quantization bitwidth {bits} (supported: 2..=16)"
                )
            }
            TensorError::NonFiniteWeight { index, value } => {
                write!(f, "weight {index} is {value}, not finite")
            }
            TensorError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::LengthMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
