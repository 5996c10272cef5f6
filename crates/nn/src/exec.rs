//! Forward execution of a [`Model`] over its computation graph.
//!
//! One executor runs every frame: [`forward_batch_into`] walks the plan
//! layer by layer — each layer in topological order, over every frame of
//! the batch — through the one per-frame layer evaluator. A single frame
//! is a batch of one ([`forward_into`]), and [`forward`] is
//! [`forward_into`] on a fresh [`Workspace`], so serial and batched
//! outputs are bit-identical frame by frame by construction.

use crate::{Graph, Layer, LayerId, LayerKind, Model, NnError, Result};
use std::collections::HashMap;
use std::slice;
use std::time::{Duration, Instant};
use upaq_tensor::ops::{
    batch_norm_into, conv2d_into, linear_into, max_pool2d, max_pool2d_into, relu_into, Conv2dParams,
};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::{Shape, Tensor, TensorError};

/// The cached execution order for one model wiring: the derived graph and
/// its topological order, keyed by [`Model::wiring_fingerprint`].
#[derive(Debug)]
struct Plan {
    fingerprint: u64,
    graph: Graph,
    order: Vec<LayerId>,
}

impl Plan {
    fn build(model: &Model, fingerprint: u64) -> Result<Plan> {
        let graph = model.compute_graph();
        let order = graph.topo_order()?;
        Ok(Plan {
            fingerprint,
            graph,
            order,
        })
    }
}

/// Reusable per-frame activation storage.
///
/// A streaming runtime calls [`forward_into`] (or [`forward_batch_into`],
/// one workspace per frame slot) with the same workspaces for every
/// frame. Every layer's output is then written into the previous frame's
/// buffer instead of a freshly allocated tensor, and the graph's
/// topological order is computed once and cached — so the steady state
/// performs no allocation at all (the first frame warms the buffers up).
/// Results are bit-identical to [`forward`]: the buffers are fully
/// overwritten and the arithmetic path is shared.
///
/// Every call also records the wall time each layer took on this
/// workspace's frame ([`Workspace::layer_times`]), into a buffer sized
/// once with the plan.
#[derive(Debug, Default)]
pub struct Workspace {
    acts: HashMap<LayerId, Tensor>,
    plan: Option<Plan>,
    last_fp: Option<u64>,
    times: Vec<(LayerId, Duration)>,
}

impl Workspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// The activations of the most recent forward call.
    pub fn activations(&self) -> &HashMap<LayerId, Tensor> {
        &self.acts
    }

    /// Moves the activations out, leaving the workspace empty (the next
    /// frame reallocates).
    pub fn take(&mut self) -> HashMap<LayerId, Tensor> {
        std::mem::take(&mut self.acts)
    }

    /// Each layer's wall time on this workspace's frame in the most recent
    /// forward call, in execution (topological) order; after a failed
    /// call, the layers it did not reach keep their earlier times. A
    /// layer's time runs from the end of the previous evaluation to the
    /// end of its own, so it includes the executor's bookkeeping for it;
    /// in a batched call the other frames' evaluations are not counted.
    pub fn layer_times(&self) -> &[(LayerId, Duration)] {
        &self.times
    }

    /// Drops buffers recycled from a different wiring — layer ids would
    /// otherwise alias across models and stale entries would linger in
    /// [`Workspace::activations`] and [`Workspace::layer_times`].
    fn reset_if_rewired(&mut self, fingerprint: u64) {
        if self.last_fp != Some(fingerprint) {
            self.acts.clear();
            self.times.clear();
            self.last_fp = Some(fingerprint);
        }
    }

    /// The cached plan for `fingerprint`, moved out of the workspace so the
    /// caller can hold it while mutating `acts`. Put it back when done.
    fn plan_for(&mut self, model: &Model, fingerprint: u64) -> Result<Plan> {
        match self.plan.take() {
            Some(p) if p.fingerprint == fingerprint => Ok(p),
            _ => Plan::build(model, fingerprint),
        }
    }
}

fn missing(layer: &Layer, what: &'static str) -> NnError {
    NnError::MissingParams {
        layer: layer.name().to_string(),
        what,
    }
}

/// Runs the model forward from named inputs and returns every layer's
/// activation.
///
/// `inputs` maps input-layer *names* to NCHW activation tensors (batch 1).
/// The returned map contains the activation of every executed layer keyed by
/// layer id; model sinks are the detection-head outputs downstream crates
/// decode.
///
/// # Errors
///
/// Returns [`NnError::BadWiring`] when a named input is missing or an
/// activation shape does not suit a layer, [`NnError::MissingParams`] when
/// a layer lacks the parameters its kind requires, and propagates
/// tensor-kernel errors (a layer fed an activation of the wrong rank
/// reports [`TensorError::RankMismatch`]).
pub fn forward(
    model: &Model,
    inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<LayerId, Tensor>> {
    let mut ws = Workspace::new();
    forward_into(model, inputs, &mut ws)?;
    Ok(ws.take())
}

/// [`forward`] into a reusable [`Workspace`]: [`forward_batch_into`]'s
/// executor on a batch of one.
///
/// On return `ws.activations()` holds every layer's activation for this
/// frame. Layer outputs reuse the workspace's buffers from the previous
/// call when shapes line up, so steady-state streaming does not
/// reallocate the large intermediate tensors.
///
/// # Errors
///
/// All [`forward`] error conditions.
pub fn forward_into(
    model: &Model,
    inputs: &HashMap<String, Tensor>,
    ws: &mut Workspace,
) -> Result<()> {
    run_plan(model, slice::from_ref(inputs), slice::from_mut(ws))
}

/// Runs a batch of frames through the model into reusable per-frame
/// [`Workspace`]s.
///
/// `wss` is grown to at least `inputs.len()` workspaces; on return
/// `wss[i].activations()` holds frame `i`'s activations. The plan is
/// walked once, layer-major: each layer in topological order runs over
/// every frame before the next layer starts, through the same per-frame
/// arithmetic as [`forward`], so outputs are bit-identical frame by frame
/// to serial calls — frames may even differ in spatial size. Layer
/// outputs reuse each workspace's buffers from the previous call exactly
/// as [`forward_into`] does.
///
/// # Errors
///
/// All [`forward`] error conditions, applied per frame; a failure
/// anywhere fails the whole batch.
pub fn forward_batch_into(
    model: &Model,
    inputs: &[HashMap<String, Tensor>],
    wss: &mut Vec<Workspace>,
) -> Result<()> {
    let n = inputs.len();
    if wss.len() < n {
        wss.resize_with(n, Workspace::new);
    }
    run_plan(model, inputs, &mut wss[..n])
}

/// The executor: one pass over the plan for `inputs.len() ==
/// wss.len()` frames. The plan cache lives in the first workspace.
fn run_plan(
    model: &Model,
    inputs: &[HashMap<String, Tensor>],
    wss: &mut [Workspace],
) -> Result<()> {
    if inputs.is_empty() {
        return Ok(());
    }
    let fp = model.wiring_fingerprint();
    for ws in wss.iter_mut() {
        ws.reset_if_rewired(fp);
    }
    let plan = wss[0].plan_for(model, fp)?;
    for ws in wss.iter_mut() {
        if ws.times.len() != plan.order.len() {
            ws.times.clear();
            ws.times
                .extend(plan.order.iter().map(|&id| (id, Duration::ZERO)));
        }
    }
    // Evaluate in place: each layer's previous-frame buffer is removed,
    // overwritten, and re-inserted. Topological order guarantees every
    // predecessor read sees this frame's value. One clock read per layer
    // and frame: each evaluation's end is the next one's start.
    let result = (|| {
        let mut clock = Instant::now();
        for (pos, &id) in plan.order.iter().enumerate() {
            let layer = model.layer(id)?;
            let in_ids = plan.graph.inputs_of(id);
            for (ws, frame) in wss.iter_mut().zip(inputs) {
                let recycled = ws.acts.remove(&id);
                let value = eval_layer(layer, in_ids, &ws.acts, frame, recycled)?;
                ws.acts.insert(id, value);
                let now = Instant::now();
                ws.times[pos].1 = now - clock;
                clock = now;
            }
        }
        Ok(())
    })();
    wss[0].plan = Some(plan);
    result
}

/// Reuses `recycled` when its shape matches, otherwise allocates zeros.
/// Only the reuse arm is exercised in the steady state; every caller fully
/// overwrites the returned buffer.
fn reuse_or_zeros(recycled: Option<Tensor>, shape: &Shape) -> Tensor {
    match recycled {
        Some(buf) if buf.shape() == shape => buf,
        _ => Tensor::zeros(shape.clone()),
    }
}

/// Evaluates one layer for one frame. `recycled` is an optional buffer
/// from a previous frame that the layer's output reuses when shapes line
/// up — in the steady state every branch runs allocation-free, save the
/// per-call packing of a conv layer [`Layer::pack`] has not packed.
fn eval_layer(
    layer: &Layer,
    in_ids: &[LayerId],
    acts: &HashMap<LayerId, Tensor>,
    inputs: &HashMap<String, Tensor>,
    recycled: Option<Tensor>,
) -> Result<Tensor> {
    Ok(match layer.kind() {
        LayerKind::Input { channels } => {
            let t = inputs.get(layer.name()).ok_or_else(|| {
                NnError::BadWiring(format!("missing input tensor `{}`", layer.name()))
            })?;
            if t.shape().rank() != 4 || t.shape().dim(1) != *channels {
                return Err(NnError::BadWiring(format!(
                    "input `{}` expects NCHW with {channels} channels, got {}",
                    layer.name(),
                    t.shape()
                )));
            }
            match recycled {
                Some(mut buf) if buf.shape() == t.shape() => {
                    buf.as_mut_slice().copy_from_slice(t.as_slice());
                    buf
                }
                _ => t.clone(),
            }
        }
        LayerKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            ..
        } => {
            let x = &acts[&in_ids[0]];
            let s = x.shape();
            if s.rank() != 4 {
                return Err(TensorError::RankMismatch {
                    expected: 4,
                    actual: s.rank(),
                }
                .into());
            }
            if *stride == 0 {
                return Err(TensorError::Invalid("conv stride must be non-zero".into()).into());
            }
            let params = Conv2dParams {
                stride: *stride,
                padding: *padding,
            };
            let oh = params.out_size(s.dim(2), *kernel);
            let ow = params.out_size(s.dim(3), *kernel);
            let expected = [1, *out_channels, oh, ow];
            let mut out = match recycled {
                Some(buf) if buf.shape().dims() == expected => buf,
                _ => Tensor::zeros(Shape::nchw(1, *out_channels, oh, ow)),
            };
            let unpacked;
            let packed = match layer.packed() {
                Some(packed) => packed,
                None => {
                    let weights = layer
                        .weights()
                        .ok_or_else(|| missing(layer, "convolution weights"))?;
                    unpacked = PackedConv::pack(weights)?;
                    &unpacked
                }
            };
            conv2d_into(x, packed, layer.bias(), params, &mut out)?;
            out
        }
        LayerKind::Linear { out_features, .. } => {
            let x = &acts[&in_ids[0]];
            let weights = layer
                .weights()
                .ok_or_else(|| missing(layer, "linear weights"))?;
            let mut out = match recycled {
                Some(buf) if buf.shape().rank() == 1 && buf.len() == *out_features => buf,
                _ => Tensor::zeros(Shape::vector(*out_features)),
            };
            // The flat activation slice is what `flatten()` would produce;
            // feeding it directly skips that copy.
            linear_into(x.as_slice(), weights, layer.bias(), &mut out)?;
            out
        }
        LayerKind::BatchNorm { .. } => {
            let x = &acts[&in_ids[0]];
            let params = layer
                .batch_norm_params()
                .ok_or_else(|| missing(layer, "batch-norm parameters"))?;
            let mut out = reuse_or_zeros(recycled, x.shape());
            batch_norm_into(x, params, &mut out)?;
            out
        }
        LayerKind::ReLU => {
            let x = &acts[&in_ids[0]];
            let mut out = reuse_or_zeros(recycled, x.shape());
            relu_into(x, &mut out)?;
            out
        }
        LayerKind::MaxPool { kernel, stride } => {
            let x = &acts[&in_ids[0]];
            let s = x.shape();
            let well_formed = *kernel > 0
                && *stride > 0
                && s.rank() == 4
                && s.dim(2) >= *kernel
                && s.dim(3) >= *kernel;
            if well_formed {
                let oh = (s.dim(2) - *kernel) / *stride + 1;
                let ow = (s.dim(3) - *kernel) / *stride + 1;
                let expected = [1, s.dim(1), oh, ow];
                let mut out = match recycled {
                    Some(buf) if buf.shape().dims() == expected => buf,
                    _ => Tensor::zeros(Shape::nchw(1, s.dim(1), oh, ow)),
                };
                max_pool2d_into(x, *kernel, *stride, &mut out)?;
                out
            } else {
                // Let the allocating kernel produce its canonical error.
                max_pool2d(x, *kernel, *stride)?
            }
        }
        LayerKind::Upsample { factor } => {
            let factor = *factor;
            if factor == 0 {
                return Err(NnError::BadWiring(
                    "upsample factor must be non-zero".into(),
                ));
            }
            let x = &acts[&in_ids[0]];
            let s = x.shape();
            if s.rank() != 4 {
                return Err(NnError::BadWiring(format!(
                    "upsample expects NCHW, got {s}"
                )));
            }
            let (c, h, w) = (s.dim(1), s.dim(2), s.dim(3));
            let (oh, ow) = (h * factor, w * factor);
            let expected = [1, c, oh, ow];
            let mut out = match recycled {
                Some(buf) if buf.shape().dims() == expected => buf,
                _ => Tensor::zeros(Shape::nchw(1, c, oh, ow)),
            };
            let (idata, odata) = (x.as_slice(), out.as_mut_slice());
            for ch in 0..c {
                for y in 0..oh {
                    for xo in 0..ow {
                        odata[(ch * oh + y) * ow + xo] =
                            idata[(ch * h + y / factor) * w + xo / factor];
                    }
                }
            }
            out
        }
        LayerKind::Add => {
            let a = &acts[&in_ids[0]];
            let b = &acts[&in_ids[1]];
            if a.shape() == b.shape() {
                let mut out = reuse_or_zeros(recycled, a.shape());
                let (ad, bd) = (a.as_slice(), b.as_slice());
                for (o, (x, y)) in out.as_mut_slice().iter_mut().zip(ad.iter().zip(bd)) {
                    *o = x + y;
                }
                out
            } else {
                a.add(b)?
            }
        }
        LayerKind::Concat => {
            let first = &acts[&in_ids[0]];
            if first.shape().rank() != 4 {
                return Err(NnError::BadWiring(format!(
                    "concat expects NCHW, got {}",
                    first.shape()
                )));
            }
            let (h, w) = (first.shape().dim(2), first.shape().dim(3));
            let mut total_c = 0;
            for i in in_ids {
                let s = acts[i].shape();
                if s.rank() != 4 || s.dim(2) != h || s.dim(3) != w {
                    return Err(NnError::BadWiring(format!(
                        "concat spatial mismatch: {} vs {}×{}",
                        s, h, w
                    )));
                }
                total_c += s.dim(1);
            }
            let expected = [1, total_c, h, w];
            let mut out = match recycled {
                Some(buf) if buf.shape().dims() == expected => buf,
                _ => Tensor::zeros(Shape::nchw(1, total_c, h, w)),
            };
            let odata = out.as_mut_slice();
            let mut offset = 0;
            for i in in_ids {
                let src = acts[i].as_slice();
                odata[offset..offset + src.len()].copy_from_slice(src);
                offset += src.len();
            }
            out
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use rand::{rngs::StdRng, SeedableRng};

    fn make_inputs(name: &str, t: Tensor) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert(name.to_string(), t);
        m
    }

    /// Runs `m` on `x` fed to input `in` and returns the activation of its
    /// unique sink.
    fn sink_output(m: &Model, x: Tensor) -> Result<Tensor> {
        let mut acts = forward(m, &make_inputs("in", x))?;
        let sinks = m.compute_graph().sinks();
        assert_eq!(sinks.len(), 1, "test models have one sink");
        Ok(acts.remove(&sinks[0]).expect("sink executed"))
    }

    /// One input through every streaming layer kind the detectors use:
    /// conv, batch norm, ReLU, max-pool, upsample, residual add, channel
    /// concat, and a 1×1 head. Takes any even H×W.
    fn all_kinds_model() -> Model {
        let mut m = Model::new("all-kinds");
        let x = m.add_input("in", 3);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 3, 6, 3, 1, 1, 21), &[x])
            .unwrap();
        let bn = m.add_layer(Layer::batch_norm("bn", 6), &[c1]).unwrap();
        let r = m.add_layer(Layer::relu("r"), &[bn]).unwrap();
        let mp = m.add_layer(Layer::max_pool("mp", 2, 2), &[r]).unwrap();
        let up = m.add_layer(Layer::upsample("up", 2), &[mp]).unwrap();
        let c2 = m
            .add_layer(Layer::conv2d("c2", 6, 6, 3, 1, 1, 22), &[r])
            .unwrap();
        let add = m.add_layer(Layer::add("add"), &[up, c2]).unwrap();
        let cat = m.add_layer(Layer::concat("cat"), &[add, r]).unwrap();
        m.add_layer(Layer::conv2d("head", 12, 2, 1, 1, 0, 23), &[cat])
            .unwrap();
        m
    }

    #[test]
    fn forward_through_conv_relu() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        // Identity 1×1 conv then ReLU.
        let w = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![1.0]).unwrap();
        let b = Tensor::from_vec(Shape::vector(1), vec![0.0]).unwrap();
        let c = m
            .add_layer(Layer::conv2d_with_weights("c", 1, 0, w, b), &[input])
            .unwrap();
        m.add_layer(Layer::relu("r"), &[c]).unwrap();

        let x = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![-3.0, 5.0]).unwrap();
        let out = sink_output(&m, x).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn non_finite_conv_weights_fail_forward() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut m = Model::new("m");
            let input = m.add_input("in", 2);
            let w = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![1.0, bad]).unwrap();
            let b = Tensor::zeros(Shape::vector(1));
            m.add_layer(Layer::conv2d_with_weights("c", 1, 0, w, b), &[input])
                .unwrap();
            m.pack_weights();
            let x = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
            let inputs = make_inputs("in", x);
            assert!(forward(&m, &inputs).is_err(), "{bad} forward");
            let batch = [inputs.clone(), inputs];
            let mut wss = Vec::new();
            assert!(
                forward_batch_into(&m, &batch, &mut wss).is_err(),
                "{bad} forward_batch_into"
            );
        }
    }

    #[test]
    fn zero_stride_conv_fails_forward() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        let w = Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0);
        let b = Tensor::zeros(Shape::vector(1));
        m.add_layer(Layer::conv2d_with_weights("c", 0, 0, w, b), &[input])
            .unwrap();
        m.pack_weights();
        let x = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(matches!(
            forward(&m, &make_inputs("in", x)),
            Err(NnError::Tensor(TensorError::Invalid(_)))
        ));
    }

    #[test]
    fn missing_input_is_error() {
        let mut m = Model::new("m");
        m.add_input("in", 1);
        let acts = forward(&m, &HashMap::new());
        assert!(acts.is_err());
    }

    #[test]
    fn input_channel_mismatch_is_error() {
        let mut m = Model::new("m");
        m.add_input("in", 3);
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(forward(&m, &make_inputs("in", x)).is_err());
    }

    #[test]
    fn conv_fed_a_flat_activation_is_a_rank_error() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 2);
        let fc = m.add_layer(Layer::linear("fc", 8, 4, 1), &[input]).unwrap();
        m.add_layer(Layer::conv2d("c", 4, 4, 3, 1, 1, 2), &[fc])
            .unwrap();
        m.pack_weights();
        let x = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        assert_eq!(
            forward(&m, &make_inputs("in", x)).unwrap_err(),
            NnError::Tensor(TensorError::RankMismatch {
                expected: 4,
                actual: 1
            })
        );
    }

    #[test]
    fn residual_add_executes() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        let r1 = m.add_layer(Layer::relu("r1"), &[input]).unwrap();
        let r2 = m.add_layer(Layer::relu("r2"), &[input]).unwrap();
        m.add_layer(Layer::add("sum"), &[r1, r2]).unwrap();
        let x = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![2.0]).unwrap();
        let out = sink_output(&m, x).unwrap();
        assert_eq!(out.as_slice(), &[4.0]);
    }

    /// Two inputs, `a` (1 channel) and `b` (2 channels), joined by concat.
    fn concat_model() -> Model {
        let mut m = Model::new("m");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 2);
        m.add_layer(Layer::concat("cat"), &[a, b]).unwrap();
        m
    }

    fn concat_inputs(a: Tensor, b: Tensor) -> HashMap<String, Tensor> {
        let mut inputs = make_inputs("a", a);
        inputs.insert("b".to_string(), b);
        inputs
    }

    #[test]
    fn concat_stacks_channels() {
        let m = concat_model();
        let a = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::nchw(1, 2, 1, 2), vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let acts = forward(&m, &concat_inputs(a, b)).unwrap();
        let (cat, _) = m.layer_by_name("cat").unwrap();
        let out = &acts[&cat];
        assert_eq!(out.shape().dims(), &[1, 3, 1, 2]);
        assert_eq!(out.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let m = concat_model();
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
        assert!(forward(&m, &concat_inputs(a, b)).is_err());
        let mut one = Model::new("one");
        let a = one.add_input("a", 1);
        assert!(one.add_layer(Layer::concat("cat"), &[a]).is_err());
    }

    #[test]
    fn upsample_doubles_pixels() {
        let upsampler = |factor| {
            let mut m = Model::new("m");
            let input = m.add_input("in", 1);
            m.add_layer(Layer::upsample("up", factor), &[input])
                .unwrap();
            m
        };
        let t = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let out = sink_output(&upsampler(2), t.clone()).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 4]);
        assert_eq!(out.as_slice(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
        assert!(sink_output(&upsampler(0), t).is_err());
    }

    #[test]
    fn linear_flattens_input() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 2);
        let mut fc = Layer::linear("fc", 2, 1, 0);
        fc.set_weights(Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]).unwrap());
        m.add_layer(fc, &[input]).unwrap();
        let x = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![3.0, 4.0]).unwrap();
        let out = sink_output(&m, x).unwrap();
        assert_eq!(out.as_slice(), &[7.0]);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_forward() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 2);
        let c = m
            .add_layer(Layer::conv2d("c", 2, 4, 3, 1, 1, 77), &[input])
            .unwrap();
        m.add_layer(Layer::relu("r"), &[c]).unwrap();

        let mut ws = Workspace::new();
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::uniform(Shape::nchw(1, 2, 6, 6), -1.0, 1.0, &mut rng);
            let inputs = make_inputs("in", x);
            forward_into(&m, &inputs, &mut ws).unwrap();
            let fresh = forward(&m, &inputs).unwrap();
            for (id, t) in &fresh {
                assert_eq!(ws.activations()[id].as_slice(), t.as_slice(), "seed {seed}");
            }
        }
    }

    #[test]
    fn mixed_size_batch_matches_serial_forward_bitwise() {
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        for packed in [false, true] {
            let mut m = all_kinds_model();
            if packed {
                m.pack_weights();
            }
            let mut rng = StdRng::seed_from_u64(5);
            let batch: Vec<HashMap<String, Tensor>> = [(4, 6), (8, 8), (4, 6), (2, 10)]
                .iter()
                .map(|&(h, w)| {
                    let x = Tensor::uniform(Shape::nchw(1, 3, h, w), -1.0, 1.0, &mut rng);
                    make_inputs("in", x)
                })
                .collect();
            let mut wss = Vec::new();
            // Twice: the second pass recycles every buffer of the first.
            for pass in 0..2 {
                forward_batch_into(&m, &batch, &mut wss).unwrap();
                assert_eq!(wss.len(), batch.len());
                for (i, (inputs, ws)) in batch.iter().zip(&wss).enumerate() {
                    let mut serial = Workspace::new();
                    forward_into(&m, inputs, &mut serial).unwrap();
                    assert_eq!(ws.activations().len(), serial.activations().len());
                    for (id, t) in serial.activations() {
                        assert_eq!(
                            bits(&ws.activations()[id]),
                            bits(t),
                            "packed {packed} pass {pass} frame {i} layer {id}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn layer_times_follow_the_plan_for_every_frame() {
        let m = all_kinds_model();
        let mut rng = StdRng::seed_from_u64(9);
        let batch: Vec<HashMap<String, Tensor>> = (0..2)
            .map(|_| {
                make_inputs(
                    "in",
                    Tensor::uniform(Shape::nchw(1, 3, 4, 6), -1.0, 1.0, &mut rng),
                )
            })
            .collect();
        let order = m.compute_graph().topo_order().unwrap();
        let mut wss = Vec::new();
        forward_batch_into(&m, &batch, &mut wss).unwrap();
        for ws in &wss {
            let ids: Vec<LayerId> = ws.layer_times().iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, order);
        }
        // A different wiring through the same workspace re-sizes the times.
        let mut small = Model::new("small");
        let x = small.add_input("in", 3);
        small.add_layer(Layer::relu("r"), &[x]).unwrap();
        forward_into(&small, &batch[0], &mut wss[0]).unwrap();
        assert_eq!(wss[0].layer_times().len(), 2);
    }

    #[test]
    fn all_layer_activations_returned() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        let r = m.add_layer(Layer::relu("r"), &[input]).unwrap();
        m.add_layer(Layer::max_pool("p", 2, 2), &[r]).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        let acts = forward(&m, &make_inputs("in", x)).unwrap();
        assert_eq!(acts.len(), 3);
    }
}
