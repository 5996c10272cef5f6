//! Forward execution of a [`Model`] over its computation graph.

use crate::{Graph, Layer, LayerId, LayerKind, Model, NnError, Result};
use std::collections::HashMap;
use upaq_tensor::ops::{
    batch_norm_into, conv2d_batch_into, conv2d_into, conv2d_packed_batch_into, conv2d_packed_into,
    linear_into, max_pool2d, max_pool2d_into, relu_into, Conv2dParams,
};
use upaq_tensor::{Shape, Tensor};

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

/// Reusable per-stream activation storage.
///
/// A streaming runtime calls [`forward_into`] with the same workspace for
/// every frame. Every layer's output is then written into the previous
/// frame's buffer instead of a freshly allocated tensor, and the graph's
/// topological order is computed once and cached — so the steady state
/// performs no allocation at all (the first frame warms the buffers up).
/// Results are bit-identical to [`forward`]: the buffers are fully
/// overwritten and the arithmetic path is shared.
#[derive(Debug, Default)]
pub struct Workspace {
    acts: HashMap<LayerId, Tensor>,
    plan: Option<Plan>,
    last_fp: Option<u64>,
}

impl Workspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// The activations of the most recent [`forward_into`] call.
    pub fn activations(&self) -> &HashMap<LayerId, Tensor> {
        &self.acts
    }

    /// Moves the activations out, leaving the workspace empty (the next
    /// frame reallocates).
    pub fn take(&mut self) -> HashMap<LayerId, Tensor> {
        std::mem::take(&mut self.acts)
    }

    /// Drops buffers recycled from a different wiring — layer ids would
    /// otherwise alias across models and stale entries would linger in
    /// [`Workspace::activations`].
    fn reset_if_rewired(&mut self, fingerprint: u64) {
        if self.last_fp != Some(fingerprint) {
            self.acts.clear();
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
/// activation shape does not suit a layer, and propagates tensor-kernel
/// errors.
pub fn forward(
    model: &Model,
    inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<LayerId, Tensor>> {
    let mut ws = Workspace::new();
    forward_into(model, inputs, &mut ws)?;
    Ok(ws.take())
}

/// [`forward`] into a reusable [`Workspace`].
///
/// On return `ws.activations()` holds every layer's activation for this
/// frame. Convolution outputs reuse the workspace's buffers from the
/// previous call when shapes line up, so steady-state streaming does not
/// reallocate the large intermediate tensors.
///
/// # Errors
///
/// Returns [`NnError::BadWiring`] when a named input is missing or an
/// activation shape does not suit a layer, [`NnError::MissingParams`] when
/// a layer lacks the parameters its kind requires, and propagates
/// tensor-kernel errors.
pub fn forward_into(
    model: &Model,
    inputs: &HashMap<String, Tensor>,
    ws: &mut Workspace,
) -> Result<()> {
    let fp = model.wiring_fingerprint();
    ws.reset_if_rewired(fp);
    let plan = ws.plan_for(model, fp)?;
    // Evaluate in place: each layer's previous-frame buffer is removed,
    // overwritten, and re-inserted. Topological order guarantees every
    // predecessor read sees this frame's value.
    let result = (|| {
        for &id in &plan.order {
            let layer = model.layer(id)?;
            let in_ids = plan.graph.inputs_of(id);
            let recycled = ws.acts.remove(&id);
            let value = eval_layer(layer, in_ids, &ws.acts, inputs, recycled)?;
            ws.acts.insert(id, value);
        }
        Ok(())
    })();
    ws.plan = Some(plan);
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
/// up — in the steady state every branch runs allocation-free. This is
/// the single arithmetic path shared by [`forward_into`] and
/// [`forward_batch_into`], which is what makes serial and batched
/// execution bit-identical per frame.
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
            let params = Conv2dParams {
                stride: *stride,
                padding: *padding,
            };
            let oh = params.out_size(x.shape().dim(2), *kernel);
            let ow = params.out_size(x.shape().dim(3), *kernel);
            let expected = [1, *out_channels, oh, ow];
            let mut out = match recycled {
                Some(buf) if buf.shape().dims() == expected => buf,
                _ => Tensor::zeros(Shape::nchw(1, *out_channels, oh, ow)),
            };
            if let Some(packed) = layer.packed() {
                conv2d_packed_into(x, packed, layer.bias(), params, &mut out)?;
            } else {
                let weights = layer
                    .weights()
                    .ok_or_else(|| missing(layer, "convolution weights"))?;
                conv2d_into(x, weights, layer.bias(), params, &mut out)?;
            }
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
            upsample_nearest_eval(&acts[&in_ids[0]], *factor, recycled)?
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

/// Runs a batch of frames through the model in one graph traversal and
/// returns every layer's activation per frame.
///
/// Convolutions — the dominant cost — execute through the batched kernel
/// (weight taps extracted once per batch) when the frames' activations
/// share a shape, and fall back to the per-frame path otherwise. All other
/// layers evaluate per frame through the same code as [`forward`]. Either
/// way the per-frame arithmetic is identical to a serial [`forward`] call,
/// so outputs are bit-identical frame by frame.
///
/// # Errors
///
/// All [`forward`] error conditions, applied per frame.
pub fn forward_batch(
    model: &Model,
    inputs: &[HashMap<String, Tensor>],
) -> Result<Vec<HashMap<LayerId, Tensor>>> {
    let mut wss = Vec::new();
    forward_batch_into(model, inputs, &mut wss)?;
    Ok(wss.iter_mut().map(Workspace::take).collect())
}

/// [`forward_batch`] into reusable per-frame [`Workspace`]s.
///
/// `wss` is grown to at least `inputs.len()` workspaces; on return
/// `wss[i].activations()` holds frame `i`'s activations. Convolution
/// outputs reuse each workspace's buffers from the previous call exactly
/// as [`forward_into`] does.
///
/// # Errors
///
/// All [`forward`] error conditions, applied per frame.
pub fn forward_batch_into(
    model: &Model,
    inputs: &[HashMap<String, Tensor>],
    wss: &mut Vec<Workspace>,
) -> Result<()> {
    let n = inputs.len();
    if n == 0 {
        return Ok(());
    }
    while wss.len() < n {
        wss.push(Workspace::new());
    }
    let fp = model.wiring_fingerprint();
    for ws in wss[..n].iter_mut() {
        ws.reset_if_rewired(fp);
    }
    // The plan cache lives in the first workspace; the frames share one
    // graph traversal.
    let plan = wss[0].plan_for(model, fp)?;

    let result = (|| {
        for &id in &plan.order {
            let layer = model.layer(id)?;
            let in_ids = plan.graph.inputs_of(id);
            let mut batched = false;
            if n > 1 {
                if let LayerKind::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    ..
                } = layer.kind()
                {
                    let s0 = wss[0].acts[&in_ids[0]].shape();
                    if wss[1..n].iter().all(|w| w.acts[&in_ids[0]].shape() == s0) {
                        let params = Conv2dParams {
                            stride: *stride,
                            padding: *padding,
                        };
                        let oh = params.out_size(s0.dim(2), *kernel);
                        let ow = params.out_size(s0.dim(3), *kernel);
                        let expected = [1, *out_channels, oh, ow];
                        let mut outs: Vec<Tensor> = wss[..n]
                            .iter_mut()
                            .map(|w| match w.acts.remove(&id) {
                                Some(buf) if buf.shape().dims() == expected => buf,
                                _ => Tensor::zeros(Shape::nchw(1, *out_channels, oh, ow)),
                            })
                            .collect();
                        let xs: Vec<&Tensor> =
                            wss[..n].iter().map(|w| &w.acts[&in_ids[0]]).collect();
                        if let Some(packed) = layer.packed() {
                            conv2d_packed_batch_into(&xs, packed, layer.bias(), params, &mut outs)?;
                        } else {
                            let weights = layer
                                .weights()
                                .ok_or_else(|| missing(layer, "convolution weights"))?;
                            conv2d_batch_into(&xs, weights, layer.bias(), params, &mut outs)?;
                        }
                        drop(xs);
                        for (w, out) in wss[..n].iter_mut().zip(outs) {
                            w.acts.insert(id, out);
                        }
                        batched = true;
                    }
                }
            }
            if !batched {
                for (i, w) in wss[..n].iter_mut().enumerate() {
                    let recycled = w.acts.remove(&id);
                    let value = eval_layer(layer, in_ids, &w.acts, &inputs[i], recycled)?;
                    w.acts.insert(id, value);
                }
            }
        }
        Ok(())
    })();
    wss[0].plan = Some(plan);
    result
}

/// Convenience wrapper for single-input models: runs [`forward`] and returns
/// the activation of the unique sink layer.
///
/// # Errors
///
/// Returns [`NnError::BadWiring`] when the model does not have exactly one
/// sink, plus all [`forward`] error conditions.
pub fn forward_single(model: &Model, input_name: &str, input: &Tensor) -> Result<Tensor> {
    let mut inputs = HashMap::new();
    inputs.insert(input_name.to_string(), input.clone());
    let acts = forward(model, &inputs)?;
    let sinks = model.compute_graph().sinks();
    if sinks.len() != 1 {
        return Err(NnError::BadWiring(format!(
            "expected exactly one sink, found {}",
            sinks.len()
        )));
    }
    Ok(acts[&sinks[0]].clone())
}

/// Nearest-neighbour upsampling of an NCHW tensor by an integer factor.
///
/// # Errors
///
/// Returns [`NnError::BadWiring`] for zero factors or non-NCHW input.
pub fn upsample_nearest(input: &Tensor, factor: usize) -> Result<Tensor> {
    upsample_nearest_eval(input, factor, None)
}

/// [`upsample_nearest`] with an optional recycled output buffer (reused
/// when its shape matches).
fn upsample_nearest_eval(
    input: &Tensor,
    factor: usize,
    recycled: Option<Tensor>,
) -> Result<Tensor> {
    if factor == 0 {
        return Err(NnError::BadWiring(
            "upsample factor must be non-zero".into(),
        ));
    }
    let s = input.shape();
    if s.rank() != 4 {
        return Err(NnError::BadWiring(format!(
            "upsample expects NCHW, got {s}"
        )));
    }
    let (c, h, w) = (s.dim(1), s.dim(2), s.dim(3));
    let (oh, ow) = (h * factor, w * factor);
    let expected = [1, c, oh, ow];
    let idata = input.as_slice();
    let mut out = match recycled {
        Some(buf) if buf.shape().dims() == expected => buf,
        _ => Tensor::zeros(Shape::nchw(1, c, oh, ow)),
    };
    let odata = out.as_mut_slice();
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                odata[(ch * oh + y) * ow + x] = idata[(ch * h + y / factor) * w + x / factor];
            }
        }
    }
    Ok(out)
}

/// Concatenates NCHW tensors along the channel axis.
///
/// # Errors
///
/// Returns [`NnError::BadWiring`] when fewer than two tensors are given or
/// their spatial sizes differ.
pub fn concat_channels(tensors: &[&Tensor]) -> Result<Tensor> {
    if tensors.len() < 2 {
        return Err(NnError::BadWiring(
            "concat needs at least two inputs".into(),
        ));
    }
    let first = tensors[0].shape();
    let (h, w) = (first.dim(2), first.dim(3));
    let mut total_c = 0;
    for t in tensors {
        let s = t.shape();
        if s.rank() != 4 || s.dim(2) != h || s.dim(3) != w {
            return Err(NnError::BadWiring(format!(
                "concat spatial mismatch: {} vs {}×{}",
                s, h, w
            )));
        }
        total_c += s.dim(1);
    }
    let mut data = Vec::with_capacity(total_c * h * w);
    for t in tensors {
        data.extend_from_slice(t.as_slice());
    }
    Ok(Tensor::from_vec(Shape::nchw(1, total_c, h, w), data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    fn make_inputs(name: &str, t: Tensor) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert(name.to_string(), t);
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
        let out = forward_single(&m, "in", &x).unwrap();
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
            assert!(forward_batch(&m, &batch).is_err(), "{bad} forward_batch");
        }
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
    fn residual_add_executes() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        let r1 = m.add_layer(Layer::relu("r1"), &[input]).unwrap();
        let r2 = m.add_layer(Layer::relu("r2"), &[input]).unwrap();
        m.add_layer(Layer::add("sum"), &[r1, r2]).unwrap();
        let x = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![2.0]).unwrap();
        let out = forward_single(&m, "in", &x).unwrap();
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::nchw(1, 2, 1, 2), vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let out = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(out.shape().dims(), &[1, 3, 1, 2]);
        assert_eq!(out.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(concat_channels(&[&a, &b]).is_err());
        assert!(concat_channels(&[&a]).is_err());
    }

    #[test]
    fn upsample_doubles_pixels() {
        let t = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let out = upsample_nearest(&t, 2).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 4]);
        assert_eq!(out.as_slice(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
        assert!(upsample_nearest(&t, 0).is_err());
    }

    #[test]
    fn linear_flattens_input() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 2);
        let mut fc = Layer::linear("fc", 2, 1, 0);
        fc.set_weights(Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]).unwrap());
        m.add_layer(fc, &[input]).unwrap();
        let x = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![3.0, 4.0]).unwrap();
        let out = forward_single(&m, "in", &x).unwrap();
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
            use rand::{rngs::StdRng, SeedableRng};
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
