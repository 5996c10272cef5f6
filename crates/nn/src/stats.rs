//! Shape inference and compute-cost accounting.
//!
//! The paper's efficiency score (Eq. 2) needs on-device latency and energy
//! of every candidate compressed model. The hardware model derives those
//! from per-layer multiply-accumulate counts and memory traffic, which this
//! module computes via static shape inference over the model DAG. Costs
//! honour weight sparsity — the paper's Eq. 1, `C = L_n × K_n × W_n`, with
//! `W_n` the *non-zero* weights.

use crate::{LayerId, LayerKind, Model, NnError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq_tensor::Shape;

/// Per-layer cost report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Layer id inside the model.
    pub id: LayerId,
    /// Layer name.
    pub name: String,
    /// Inferred output shape.
    pub output_shape: Shape,
    /// Dense multiply-accumulates (all weights counted).
    pub dense_macs: u64,
    /// Effective MACs after skipping zero weights.
    pub effective_macs: u64,
    /// Total parameters.
    pub params: usize,
    /// Non-zero parameters.
    pub nonzero_params: usize,
    /// Activation elements read + written (memory traffic proxy).
    pub activation_elems: u64,
}

/// Whole-model cost report: per-layer costs in topological order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelCosts {
    /// Per-layer entries, topologically ordered.
    pub layers: Vec<LayerCost>,
}

impl ModelCosts {
    /// Sum of dense MACs across layers.
    pub fn total_dense_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.dense_macs).sum()
    }

    /// Cost entry for a layer id, if present.
    pub fn layer(&self, id: LayerId) -> Option<&LayerCost> {
        self.layers.iter().find(|l| l.id == id)
    }
}

/// Infers every layer's output shape and compute cost for the given named
/// input shapes (NCHW).
///
/// # Errors
///
/// Returns [`NnError::ShapeInference`] when an input shape is missing or a
/// layer cannot accept its inferred input, and [`NnError::CyclicGraph`] for
/// cyclic models.
pub fn model_costs(model: &Model, input_shapes: &HashMap<String, Shape>) -> Result<ModelCosts> {
    let graph = model.compute_graph();
    let order = graph.topo_order()?;
    let mut shapes: HashMap<LayerId, Shape> = HashMap::new();
    let mut layers = Vec::with_capacity(order.len());

    for id in order {
        let layer = model.layer(id)?;
        let in_ids = graph.inputs_of(id);
        let in_shape = |i: usize| -> Result<&Shape> {
            shapes.get(&in_ids[i]).ok_or_else(|| {
                NnError::ShapeInference(format!("no shape for input of `{}`", layer.name()))
            })
        };

        let (out_shape, dense_macs): (Shape, u64) = match layer.kind() {
            LayerKind::Input { channels } => {
                let s = input_shapes.get(layer.name()).ok_or_else(|| {
                    NnError::ShapeInference(format!("missing input shape `{}`", layer.name()))
                })?;
                if s.rank() != 4 || s.dim(1) != *channels {
                    return Err(NnError::ShapeInference(format!(
                        "input `{}` must be NCHW with {channels} channels, got {s}",
                        layer.name()
                    )));
                }
                (s.clone(), 0)
            }
            LayerKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let s = in_shape(0)?;
                if s.rank() != 4 || s.dim(1) != *in_channels {
                    return Err(NnError::ShapeInference(format!(
                        "conv `{}` expects {in_channels} channels, got {s}",
                        layer.name()
                    )));
                }
                let oh = out_dim(s.dim(2), *kernel, *stride, *padding, layer.name())?;
                let ow = out_dim(s.dim(3), *kernel, *stride, *padding, layer.name())?;
                let macs = (oh * ow * out_channels * in_channels * kernel * kernel) as u64;
                (Shape::nchw(1, *out_channels, oh, ow), macs)
            }
            LayerKind::Linear {
                in_features,
                out_features,
            } => {
                let s = in_shape(0)?;
                if s.volume() != *in_features {
                    return Err(NnError::ShapeInference(format!(
                        "linear `{}` expects {in_features} features, got {} ({s})",
                        layer.name(),
                        s.volume()
                    )));
                }
                (
                    Shape::vector(*out_features),
                    (*in_features * *out_features) as u64,
                )
            }
            LayerKind::BatchNorm { channels } => {
                let s = in_shape(0)?.clone();
                if s.rank() != 4 || s.dim(1) != *channels {
                    return Err(NnError::ShapeInference(format!(
                        "batch_norm `{}` expects {channels} channels, got {s}",
                        layer.name()
                    )));
                }
                let macs = s.volume() as u64; // one multiply-add per element
                (s, macs)
            }
            LayerKind::ReLU => (in_shape(0)?.clone(), 0),
            LayerKind::MaxPool { kernel, stride } => {
                let s = in_shape(0)?;
                if s.rank() != 4 {
                    return Err(NnError::ShapeInference(format!(
                        "max_pool `{}` expects NCHW, got {s}",
                        layer.name()
                    )));
                }
                let oh = out_dim(s.dim(2), *kernel, *stride, 0, layer.name())?;
                let ow = out_dim(s.dim(3), *kernel, *stride, 0, layer.name())?;
                (Shape::nchw(1, s.dim(1), oh, ow), 0)
            }
            LayerKind::Upsample { factor } => {
                let s = in_shape(0)?;
                (
                    Shape::nchw(1, s.dim(1), s.dim(2) * factor, s.dim(3) * factor),
                    0,
                )
            }
            LayerKind::Add => {
                let a = in_shape(0)?.clone();
                let b = in_shape(1)?;
                if a != *b {
                    return Err(NnError::ShapeInference(format!(
                        "add `{}` shape mismatch: {a} vs {b}",
                        layer.name()
                    )));
                }
                let macs = a.volume() as u64;
                (a, macs)
            }
            LayerKind::Concat => {
                let first = in_shape(0)?.clone();
                let (h, w) = (first.dim(2), first.dim(3));
                let mut total_c = 0;
                for i in 0..in_ids.len() {
                    let s = in_shape(i)?;
                    if s.dim(2) != h || s.dim(3) != w {
                        return Err(NnError::ShapeInference(format!(
                            "concat `{}` spatial mismatch",
                            layer.name()
                        )));
                    }
                    total_c += s.dim(1);
                }
                (Shape::nchw(1, total_c, h, w), 0)
            }
        };

        let params = layer.param_count();
        let nonzero = layer.nonzero_params();
        // Weighted ops scale compute with surviving weights; others don't.
        let effective_macs = if layer.kind().is_weighted() && params > 0 {
            let weight_total = layer.weights().map_or(0, upaq_tensor::Tensor::len);
            let weight_nnz = layer
                .weights()
                .map_or(0, upaq_tensor::Tensor::count_nonzero);
            if weight_total == 0 {
                dense_macs
            } else {
                (dense_macs as f64 * weight_nnz as f64 / weight_total as f64).round() as u64
            }
        } else {
            dense_macs
        };

        let in_elems: u64 = in_ids.iter().map(|i| shapes[i].volume() as u64).sum();
        let activation_elems = in_elems + out_shape.volume() as u64;

        layers.push(LayerCost {
            id,
            name: layer.name().to_string(),
            output_shape: out_shape.clone(),
            dense_macs,
            effective_macs,
            params,
            nonzero_params: nonzero,
            activation_elems,
        });
        shapes.insert(id, out_shape);
    }

    Ok(ModelCosts { layers })
}

fn out_dim(i: usize, k: usize, stride: usize, padding: usize, name: &str) -> Result<usize> {
    let padded = i + 2 * padding;
    if padded < k || stride == 0 {
        return Err(NnError::ShapeInference(format!(
            "layer `{name}`: window {k} (stride {stride}) does not fit input {i} (+{padding} pad)"
        )));
    }
    Ok((padded - k) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use upaq_tensor::Tensor;

    fn shapes_for(name: &str, shape: Shape) -> HashMap<String, Shape> {
        let mut m = HashMap::new();
        m.insert(name.to_string(), shape);
        m
    }

    fn conv_model() -> Model {
        let mut m = Model::new("m");
        let input = m.add_input("in", 2);
        let c = m
            .add_layer(Layer::conv2d("c", 2, 4, 3, 1, 1, 0), &[input])
            .unwrap();
        m.add_layer(Layer::relu("r"), &[c]).unwrap();
        m
    }

    #[test]
    fn conv_macs_formula() {
        let m = conv_model();
        let costs = model_costs(&m, &shapes_for("in", Shape::nchw(1, 2, 8, 8))).unwrap();
        let conv = costs.layer(1).unwrap();
        assert_eq!(conv.output_shape.dims(), &[1, 4, 8, 8]);
        assert_eq!(conv.dense_macs, (8 * 8 * 4 * 2 * 3 * 3) as u64);
        assert_eq!(conv.dense_macs, conv.effective_macs); // dense weights
    }

    #[test]
    fn sparsity_reduces_effective_macs() {
        let mut m = conv_model();
        // Zero out half the conv weights.
        let layer = m.layer_mut(1).unwrap();
        let mut w = layer.weights().unwrap().clone();
        let half = w.len() / 2;
        for v in w.as_mut_slice().iter_mut().take(half) {
            *v = 0.0;
        }
        layer.set_weights(w);
        let costs = model_costs(&m, &shapes_for("in", Shape::nchw(1, 2, 8, 8))).unwrap();
        let conv = costs.layer(1).unwrap();
        assert!(conv.effective_macs < conv.dense_macs);
        let ratio = conv.effective_macs as f64 / conv.dense_macs as f64;
        assert!((ratio - 0.5).abs() < 0.02);
    }

    #[test]
    fn missing_input_shape_is_error() {
        let m = conv_model();
        assert!(model_costs(&m, &HashMap::new()).is_err());
    }

    #[test]
    fn channel_mismatch_is_error() {
        let m = conv_model();
        assert!(model_costs(&m, &shapes_for("in", Shape::nchw(1, 3, 8, 8))).is_err());
    }

    #[test]
    fn stride_and_pool_shapes() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        let c = m
            .add_layer(Layer::conv2d("c", 1, 1, 3, 2, 1, 0), &[input])
            .unwrap();
        m.add_layer(Layer::max_pool("p", 2, 2), &[c]).unwrap();
        let costs = model_costs(&m, &shapes_for("in", Shape::nchw(1, 1, 16, 16))).unwrap();
        assert_eq!(costs.layer(1).unwrap().output_shape.dims(), &[1, 1, 8, 8]);
        assert_eq!(costs.layer(2).unwrap().output_shape.dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn linear_features_checked() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        m.add_layer(Layer::linear("fc", 16, 2, 0), &[input])
            .unwrap();
        // 4 channels × 2 × 2 = 16 features: OK.
        assert!(model_costs(&m, &shapes_for("in", Shape::nchw(1, 4, 2, 2))).is_ok());
        // 4 channels × 3 × 3 = 36 features: mismatch.
        assert!(model_costs(&m, &shapes_for("in", Shape::nchw(1, 4, 3, 3))).is_err());
    }

    #[test]
    fn totals_aggregate() {
        let m = conv_model();
        let costs = model_costs(&m, &shapes_for("in", Shape::nchw(1, 2, 4, 4))).unwrap();
        assert_eq!(
            costs.total_dense_macs(),
            costs.layers.iter().map(|l| l.dense_macs).sum::<u64>()
        );
    }

    #[test]
    fn forward_shapes_match_inferred_shapes() {
        // Shape inference must agree with actual execution.
        let m = conv_model();
        let costs = model_costs(&m, &shapes_for("in", Shape::nchw(1, 2, 5, 7))).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 2, 5, 7));
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), x);
        let acts = crate::exec::forward(&m, &inputs).unwrap();
        for cost in &costs.layers {
            assert_eq!(
                acts[&cost.id].shape(),
                &cost.output_shape,
                "layer {}",
                cost.name
            );
        }
    }
}
