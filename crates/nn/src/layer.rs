use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use upaq_tensor::ops::BatchNormParams;
use upaq_tensor::packed::PackedConv;
use upaq_tensor::{Shape, Tensor};

/// Identifier of a layer inside one [`crate::Model`] — an index into the
/// model's layer list.
pub type LayerId = usize;

/// The operator a [`Layer`] applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerKind {
    /// A named external input with the given channel count.
    Input {
        /// Channels the input provides.
        channels: usize,
    },
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Spatial kernel size (square kernels only).
        kernel: usize,
        /// Stride in both axes.
        stride: usize,
        /// Zero padding on all sides.
        padding: usize,
    },
    /// Fully connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Frozen batch normalization.
    BatchNorm {
        /// Channels normalized.
        channels: usize,
    },
    /// Rectified linear activation.
    ReLU,
    /// Max pooling.
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Nearest-neighbour spatial upsampling.
    Upsample {
        /// Integer scale factor.
        factor: usize,
    },
    /// Elementwise addition of exactly two inputs (residual join).
    Add,
    /// Channel-wise concatenation of two or more inputs.
    Concat,
}

impl LayerKind {
    /// Human-readable operator name.
    pub fn op_name(&self) -> &'static str {
        match self {
            LayerKind::Input { .. } => "input",
            LayerKind::Conv2d { .. } => "conv2d",
            LayerKind::Linear { .. } => "linear",
            LayerKind::BatchNorm { .. } => "batch_norm",
            LayerKind::ReLU => "relu",
            LayerKind::MaxPool { .. } => "max_pool",
            LayerKind::Upsample { .. } => "upsample",
            LayerKind::Add => "add",
            LayerKind::Concat => "concat",
        }
    }

    /// Whether this operator carries trainable weights the compression
    /// frameworks can prune/quantize.
    pub fn is_weighted(&self) -> bool {
        matches!(self, LayerKind::Conv2d { .. } | LayerKind::Linear { .. })
    }
}

/// One layer of a [`crate::Model`]: a name, an operator, and (for weighted
/// operators) parameter tensors.
///
/// Convolution weights use the `[out_c, in_c, kh, kw]` layout; linear
/// weights use `[out_f, in_f]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    weights: Option<Tensor>,
    bias: Option<Tensor>,
    bn: Option<BatchNormParams>,
    /// Cached sparse-tap form of `weights` for convolution layers, built by
    /// [`Layer::pack`] and invalidated by every mutable weight access. An
    /// `Arc` so cloned models (ladder rungs share the base) reuse one copy.
    packed: Option<Arc<PackedConv>>,
}

/// `packed` is a derived cache, not part of the layer's identity — two
/// layers with equal parameters are equal whether or not either has been
/// packed.
impl PartialEq for Layer {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.weights == other.weights
            && self.bias == other.bias
            && self.bn == other.bn
    }
}

impl Layer {
    /// Creates a convolution layer with He-style random init from `seed`.
    ///
    /// The deterministic seed keeps "pretrained" models reproducible across
    /// runs — a requirement for regenerating the paper's tables.
    pub fn conv2d(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = (2.0 / fan_in).sqrt();
        let weights = Tensor::uniform(
            Shape::nchw(out_channels, in_channels, kernel, kernel),
            -bound,
            bound,
            &mut rng,
        );
        let bias = Tensor::zeros(Shape::vector(out_channels));
        Layer {
            name: name.into(),
            kind: LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            },
            weights: Some(weights),
            bias: Some(bias),
            bn: None,
            packed: None,
        }
    }

    /// Creates a convolution layer with explicit weights and bias.
    ///
    /// # Panics
    ///
    /// Panics when the weight shape disagrees with the declared geometry —
    /// this is a construction-time programming error, not a runtime
    /// condition.
    pub fn conv2d_with_weights(
        name: impl Into<String>,
        stride: usize,
        padding: usize,
        weights: Tensor,
        bias: Tensor,
    ) -> Self {
        let dims = weights.shape().dims().to_vec();
        assert_eq!(dims.len(), 4, "conv weights must be [oc, ic, kh, kw]");
        assert_eq!(dims[2], dims[3], "conv kernels must be square");
        assert_eq!(bias.len(), dims[0], "bias length must equal out channels");
        Layer {
            name: name.into(),
            kind: LayerKind::Conv2d {
                in_channels: dims[1],
                out_channels: dims[0],
                kernel: dims[2],
                stride,
                padding,
            },
            weights: Some(weights),
            bias: Some(bias),
            bn: None,
            packed: None,
        }
    }

    /// Creates a linear layer with Xavier-style random init from `seed`.
    pub fn linear(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (1.0 / in_features as f32).sqrt();
        let weights = Tensor::uniform(
            Shape::matrix(out_features, in_features),
            -bound,
            bound,
            &mut rng,
        );
        let bias = Tensor::zeros(Shape::vector(out_features));
        Layer {
            name: name.into(),
            kind: LayerKind::Linear {
                in_features,
                out_features,
            },
            weights: Some(weights),
            bias: Some(bias),
            bn: None,
            packed: None,
        }
    }

    /// Creates a frozen batch-norm layer initialized to the identity map.
    pub fn batch_norm(name: impl Into<String>, channels: usize) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::BatchNorm { channels },
            weights: None,
            bias: None,
            bn: Some(BatchNormParams::identity(channels)),
            packed: None,
        }
    }

    /// Creates a ReLU layer.
    pub fn relu(name: impl Into<String>) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::ReLU,
            weights: None,
            bias: None,
            bn: None,
            packed: None,
        }
    }

    /// Creates a max-pool layer.
    pub fn max_pool(name: impl Into<String>, kernel: usize, stride: usize) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::MaxPool { kernel, stride },
            weights: None,
            bias: None,
            bn: None,
            packed: None,
        }
    }

    /// Creates a nearest-neighbour upsample layer.
    pub fn upsample(name: impl Into<String>, factor: usize) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Upsample { factor },
            weights: None,
            bias: None,
            bn: None,
            packed: None,
        }
    }

    /// Creates a residual-add join.
    pub fn add(name: impl Into<String>) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Add,
            weights: None,
            bias: None,
            bn: None,
            packed: None,
        }
    }

    /// Creates a channel-concat join.
    pub fn concat(name: impl Into<String>) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Concat,
            weights: None,
            bias: None,
            bn: None,
            packed: None,
        }
    }

    pub(crate) fn input(name: impl Into<String>, channels: usize) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Input { channels },
            weights: None,
            bias: None,
            bn: None,
            packed: None,
        }
    }

    /// The layer's unique (per-model) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer's operator.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// The weight tensor, when the operator is weighted.
    pub fn weights(&self) -> Option<&Tensor> {
        self.weights.as_ref()
    }

    /// Mutable access to the weight tensor — the hook every compression
    /// framework uses to write pruned/quantized kernels back. Invalidates
    /// the packed-tap cache: the caller may change any weight.
    pub fn weights_mut(&mut self) -> Option<&mut Tensor> {
        self.packed = None;
        self.weights.as_mut()
    }

    /// Replaces the weight tensor.
    ///
    /// # Panics
    ///
    /// Panics when the new tensor's shape differs from the current weights —
    /// compression must never change a layer's geometry.
    pub fn set_weights(&mut self, weights: Tensor) {
        let current = self
            .weights
            .as_ref()
            .expect("layer has no weights to replace");
        assert_eq!(
            current.shape(),
            weights.shape(),
            "replacement weights must preserve shape"
        );
        self.weights = Some(weights);
        self.packed = None;
    }

    /// Builds (or rebuilds) the packed sparse-tap form of a convolution
    /// layer's weights. A no-op for every other operator. Execution packs
    /// an unpacked layer's weights afresh on every call, so calling this is
    /// purely a steady-state performance lever. Weights that cannot pack (a
    /// NaN or infinite weight) stay unpacked, and the forward pass reports
    /// the packing error.
    pub fn pack(&mut self) {
        if matches!(self.kind, LayerKind::Conv2d { .. }) {
            if let Some(w) = &self.weights {
                self.packed = PackedConv::pack(w).ok().map(Arc::new);
            }
        }
    }

    /// The packed sparse-tap weights, when [`Layer::pack`] has run since the
    /// last weight mutation.
    pub fn packed(&self) -> Option<&PackedConv> {
        self.packed.as_deref()
    }

    /// The bias vector, when present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> Option<&mut Tensor> {
        self.bias.as_mut()
    }

    /// Batch-norm parameters, when the operator is batch norm.
    pub fn batch_norm_params(&self) -> Option<&BatchNormParams> {
        self.bn.as_ref()
    }

    /// Number of parameters (weights + bias) this layer stores.
    pub fn param_count(&self) -> usize {
        self.weights.as_ref().map_or(0, Tensor::len) + self.bias.as_ref().map_or(0, Tensor::len)
    }

    /// Number of non-zero weight parameters — `W_n` in the paper's Eq. 1.
    pub fn nonzero_params(&self) -> usize {
        self.weights.as_ref().map_or(0, Tensor::count_nonzero)
            + self.bias.as_ref().map_or(0, Tensor::len)
    }

    /// Spatial kernel size for convolutions (`None` otherwise).
    pub fn kernel_size(&self) -> Option<usize> {
        match self.kind {
            LayerKind::Conv2d { kernel, .. } => Some(kernel),
            _ => None,
        }
    }

    /// Whether this is a 1×1 ("pointwise") convolution — the kernels routed
    /// to the paper's Algorithm 5.
    pub fn is_pointwise_conv(&self) -> bool {
        self.kernel_size() == Some(1)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.kind.op_name())?;
        if let Some(w) = &self.weights {
            write!(f, " {}", w.shape())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_layer_geometry() {
        let l = Layer::conv2d("c", 3, 8, 3, 1, 1, 1);
        assert_eq!(l.param_count(), 8 * 3 * 3 * 3 + 8);
        assert_eq!(l.kernel_size(), Some(3));
        assert!(!l.is_pointwise_conv());
        assert!(l.kind().is_weighted());
        assert_eq!(l.kind().op_name(), "conv2d");
    }

    #[test]
    fn pointwise_detection() {
        let l = Layer::conv2d("p", 9, 64, 1, 1, 0, 2);
        assert!(l.is_pointwise_conv());
    }

    #[test]
    fn deterministic_init() {
        let a = Layer::conv2d("a", 2, 2, 3, 1, 1, 42);
        let b = Layer::conv2d("b", 2, 2, 3, 1, 1, 42);
        assert_eq!(a.weights(), b.weights());
        let c = Layer::conv2d("c", 2, 2, 3, 1, 1, 43);
        assert_ne!(a.weights(), c.weights());
    }

    #[test]
    fn set_weights_preserves_shape() {
        let mut l = Layer::conv2d("c", 1, 1, 3, 1, 1, 0);
        let w = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        l.set_weights(w);
        assert_eq!(l.nonzero_params(), 1); // just the bias slot count (zeros counted) — bias len 1
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn set_weights_rejects_shape_change() {
        let mut l = Layer::conv2d("c", 1, 1, 3, 1, 1, 0);
        l.set_weights(Tensor::zeros(Shape::nchw(1, 1, 5, 5)));
    }

    #[test]
    fn pack_builds_taps_and_mutation_invalidates() {
        let mut l = Layer::conv2d("c", 2, 2, 3, 1, 1, 5);
        assert!(l.packed().is_none());
        l.pack();
        let packed = l.packed().expect("conv layer packs");
        assert_eq!(packed.nonzeros(), l.weights().unwrap().count_nonzero());

        let shape = l.weights().unwrap().shape().clone();
        l.set_weights(Tensor::zeros(shape));
        assert!(l.packed().is_none(), "set_weights must invalidate");
        l.pack();
        assert!(l.packed().is_some());
        let _ = l.weights_mut();
        assert!(l.packed().is_none(), "weights_mut must invalidate");

        let mut r = Layer::relu("r");
        r.pack();
        assert!(r.packed().is_none(), "pack is a conv-only operation");
    }

    #[test]
    fn equality_ignores_packed_cache() {
        let a = Layer::conv2d("c", 1, 1, 3, 1, 1, 9);
        let mut b = a.clone();
        b.pack();
        assert_eq!(a, b);
    }

    #[test]
    fn unweighted_layers_have_no_params() {
        assert_eq!(Layer::relu("r").param_count(), 0);
        assert_eq!(Layer::max_pool("m", 2, 2).param_count(), 0);
        assert!(!Layer::add("a").kind().is_weighted());
    }

    #[test]
    fn linear_param_count() {
        let l = Layer::linear("fc", 10, 5, 0);
        assert_eq!(l.param_count(), 55);
    }

    #[test]
    fn display_contains_name_and_op() {
        let l = Layer::conv2d("backbone.0", 1, 2, 3, 1, 1, 0);
        let s = l.to_string();
        assert!(s.contains("backbone.0"));
        assert!(s.contains("conv2d"));
    }
}
