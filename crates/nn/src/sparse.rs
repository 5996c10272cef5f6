//! Sparse-activation forward execution over the layer DAG.
//!
//! [`forward_sparse_into`] mirrors [`crate::exec::forward_into`] but
//! threads an *active-site* list (the pillarizer's occupied-cell
//! coordinates) through the graph: convolutions whose input carries a
//! sparse representation run the gather/scatter kernel over the dilated
//! active set, and every other layer kind propagates the sparsity
//! metadata (sites + per-channel background) alongside the ordinary dense
//! evaluation. The workspace always holds the full *dense* activation of
//! every layer — the sparse kernels write background-filled dense outputs
//! — so head extraction, batching and the dense fallback are free.
//!
//! # Density-threshold fallback
//!
//! Stride-2 and padded layers dilate the active set fast; past a point a
//! gather kernel does more bookkeeping than a dense sweep saves. Before
//! each convolution the plan computes the dilated output's active
//! fraction, and above [`SparseExecConfig::dense_threshold`] it simply
//! runs the existing dense kernel (the input's dense form is already in
//! the workspace) and drops the sparse representation from that point on.
//! Worst case is therefore bounded by the dense path plus a cheap
//! dilation scan.
//!
//! # Bit-identity
//!
//! Per-site conv arithmetic, background propagation, batch-norm folding,
//! ReLU, Add, Concat and Upsample all reuse the dense kernels' exact
//! operation order (see `upaq_tensor::ops::sparse_conv`), so
//! `ws.activations()` after [`forward_sparse_into`] is raw-bits identical
//! to [`crate::exec::forward_into`] at any threshold, thread count,
//! [`ExecMode`](upaq_tensor::ops::ExecMode) or batch size — pinned by the
//! proptests in `crates/nn/tests` and the serving suite
//! `crates/serve/tests/sparse.rs`.

use crate::exec::{eval_layer, missing, Workspace};
use crate::{LayerId, LayerKind, Model, NnError, Result};
use std::collections::HashMap;
use upaq_tensor::ops::{conv2d_sparse_act_gather_into, dilate_active, Conv2dParams};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::{Shape, Tensor};

/// Configuration of the sparse-activation execution path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseExecConfig {
    /// Active-fraction threshold above which a layer abandons the sparse
    /// representation and runs the dense kernels. `0.0` forces dense
    /// everywhere (useful as a control); `1.0` never falls back.
    pub dense_threshold: f64,
}

impl Default for SparseExecConfig {
    fn default() -> Self {
        SparseExecConfig {
            // Dilated active sets are unions of horizontal runs, and the
            // gather kernel gives interior runs the dense kernel's
            // register-blocked loop — so a sparse layer costs roughly
            // `active_frac × dense` plus a small fill/walk overhead, and
            // the break-even fraction sits just under 1. Nine tenths
            // keeps a margin for fragmented (run-poor) active sets while
            // letting moderately sparse layers keep their win.
            dense_threshold: 0.9,
        }
    }
}

/// Per-layer sparsity outcome of one sparse forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSparsity {
    /// Layer name.
    pub layer: String,
    /// Active fraction of the layer's output map (1.0 when the layer ran
    /// without sparsity metadata).
    pub active_frac: f64,
    /// Whether a sparse representation was retained after this layer
    /// (false once the density threshold forced the dense fallback).
    pub sparse: bool,
}

/// Sparsity telemetry for one frame, in topological layer order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseStats {
    /// One entry per executed layer.
    pub layers: Vec<LayerSparsity>,
}

impl SparseStats {
    /// Number of layers that retained a sparse representation.
    pub fn sparse_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.sparse).count()
    }

    /// Mean active fraction across all executed layers.
    pub fn mean_active_frac(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.active_frac).sum::<f64>() / self.layers.len() as f64
    }
}

/// Sparse representation carried alongside a layer's dense activation:
/// the sorted active sites and the per-channel background every other
/// site holds. Values live in the workspace's dense tensor.
struct Rep {
    sites: Vec<u32>,
    background: Vec<f32>,
}

impl Rep {
    fn frac(&self, cells: usize) -> f64 {
        if cells == 0 {
            1.0
        } else {
            self.sites.len() as f64 / cells as f64
        }
    }

    fn background_nonzero(&self) -> bool {
        self.background.iter().any(|&v| v != 0.0)
    }
}

/// [`forward_sparse_into`] with a fresh workspace, returning the
/// activations (for tests and one-off callers).
///
/// # Errors
///
/// All [`forward_sparse_into`] error conditions.
pub fn forward_sparse(
    model: &Model,
    inputs: &HashMap<String, Tensor>,
    active: &HashMap<String, Vec<u32>>,
    cfg: &SparseExecConfig,
) -> Result<(HashMap<LayerId, Tensor>, SparseStats)> {
    let mut ws = Workspace::new();
    let stats = forward_sparse_into(model, inputs, active, &mut ws, cfg)?;
    Ok((ws.take(), stats))
}

/// Sparse-activation variant of [`crate::exec::forward_into`]: `active`
/// maps input-layer names to their sorted active-site lists (row-major
/// `y * w + x`); inputs without an entry run dense. On return
/// `ws.activations()` holds every layer's dense activation, raw-bits
/// identical to the dense executor.
///
/// # Errors
///
/// All [`crate::exec::forward_into`] error conditions, plus
/// [`NnError::BadWiring`] for malformed active-site lists.
pub fn forward_sparse_into(
    model: &Model,
    inputs: &HashMap<String, Tensor>,
    active: &HashMap<String, Vec<u32>>,
    ws: &mut Workspace,
    cfg: &SparseExecConfig,
) -> Result<SparseStats> {
    let fp = model.wiring_fingerprint();
    ws.reset_if_rewired(fp);
    let plan = ws.plan_for(model, fp)?;
    let mut reps: HashMap<LayerId, Rep> = HashMap::new();
    let mut stats = SparseStats::default();
    let result = (|| {
        for &id in &plan.order {
            let layer = model.layer(id)?;
            let in_ids = plan.graph.inputs_of(id);
            let recycled = ws.acts.remove(&id);
            let mut rep_out: Option<Rep> = None;
            let mut conv_sparse = false;
            let mut conv_frac: Option<f64> = None;

            let value = match layer.kind() {
                LayerKind::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    ..
                } if reps.contains_key(&in_ids[0]) => {
                    let rep = &reps[&in_ids[0]];
                    let x = &ws.acts[&in_ids[0]];
                    let params = Conv2dParams {
                        stride: *stride,
                        padding: *padding,
                    };
                    let (h, w) = (x.shape().dim(2), x.shape().dim(3));
                    let (out_sites, (oh, ow)) = dilate_active(
                        &rep.sites,
                        (h, w),
                        (*kernel, *kernel),
                        params,
                        rep.background_nonzero(),
                    );
                    let cells = oh * ow;
                    let frac = if cells == 0 {
                        1.0
                    } else {
                        out_sites.len() as f64 / cells as f64
                    };
                    conv_frac = Some(frac);
                    if frac > cfg.dense_threshold {
                        // Densify: the input's dense form is already in the
                        // workspace, so the existing kernels take over and
                        // worst-case cost matches the dense plan.
                        eval_layer(layer, in_ids, &ws.acts, inputs, recycled)?
                    } else {
                        conv_sparse = true;
                        let expected = [1, *out_channels, oh, ow];
                        let mut out = match recycled {
                            Some(buf) if buf.shape().dims() == expected => buf,
                            _ => Tensor::zeros(Shape::nchw(1, *out_channels, oh, ow)),
                        };
                        let owned_pack;
                        let packed: &PackedConv = match layer.packed() {
                            Some(p) => p,
                            None => {
                                let weights = layer
                                    .weights()
                                    .ok_or_else(|| missing(layer, "convolution weights"))?;
                                owned_pack = PackedConv::pack(weights)?;
                                &owned_pack
                            }
                        };
                        let bg_out = conv2d_sparse_act_gather_into(
                            x,
                            &rep.background,
                            packed,
                            layer.bias(),
                            params,
                            &out_sites,
                            &mut out,
                        )?;
                        rep_out = Some(Rep {
                            sites: out_sites,
                            background: bg_out,
                        });
                        out
                    }
                }
                _ => eval_layer(layer, in_ids, &ws.acts, inputs, recycled)?,
            };

            // Propagate sparsity metadata through the non-conv layer kinds
            // (their dense evaluation above already produced exact values;
            // the metadata just records which sites still sit on the
            // background, using the same arithmetic per channel).
            if rep_out.is_none() && !matches!(layer.kind(), LayerKind::Conv2d { .. }) {
                rep_out = propagate_metadata(layer.kind(), layer, in_ids, &reps, active, &value)?;
            }

            // Threshold applies to every retained representation, so a
            // densified map stops paying metadata upkeep downstream.
            let cells = if value.shape().rank() == 4 {
                value.shape().dim(2) * value.shape().dim(3)
            } else {
                0
            };
            if let Some(rep) = &rep_out {
                if rep.frac(cells) > cfg.dense_threshold {
                    rep_out = None;
                }
            }
            let frac = conv_frac.unwrap_or_else(|| rep_out.as_ref().map_or(1.0, |r| r.frac(cells)));
            stats.layers.push(LayerSparsity {
                layer: layer.name().to_string(),
                active_frac: frac,
                sparse: conv_sparse
                    || (!matches!(layer.kind(), LayerKind::Conv2d { .. }) && rep_out.is_some()),
            });
            if let Some(rep) = rep_out {
                reps.insert(id, rep);
            }
            ws.acts.insert(id, value);
        }
        Ok(())
    })();
    ws.plan = Some(plan);
    result.map(|()| stats)
}

/// Per-frame sparse execution of a batch: each frame runs
/// [`forward_sparse_into`] with its own workspace. Per-frame arithmetic
/// is identical to the serial call (and therefore to the dense batched
/// executor, which is itself bit-identical per frame).
///
/// # Errors
///
/// All [`forward_sparse_into`] error conditions, applied per frame.
pub fn forward_sparse_batch_into(
    model: &Model,
    inputs: &[HashMap<String, Tensor>],
    active: &[HashMap<String, Vec<u32>>],
    wss: &mut Vec<Workspace>,
    cfg: &SparseExecConfig,
) -> Result<Vec<SparseStats>> {
    let n = inputs.len();
    if active.len() != n {
        return Err(NnError::BadWiring(format!(
            "{} active-site maps for {n} frames",
            active.len()
        )));
    }
    while wss.len() < n {
        wss.push(Workspace::new());
    }
    let mut all = Vec::with_capacity(n);
    for i in 0..n {
        all.push(forward_sparse_into(
            model,
            &inputs[i],
            &active[i],
            &mut wss[i],
            cfg,
        )?);
    }
    Ok(all)
}

/// Computes the output sparse representation for non-conv layer kinds, or
/// `None` when an input lacks one (or the kind cannot carry sparsity).
fn propagate_metadata(
    kind: &LayerKind,
    layer: &crate::Layer,
    in_ids: &[LayerId],
    reps: &HashMap<LayerId, Rep>,
    active: &HashMap<String, Vec<u32>>,
    value: &Tensor,
) -> Result<Option<Rep>> {
    Ok(match kind {
        LayerKind::Input { channels } => match active.get(layer.name()) {
            Some(sites) => {
                let cells = value.shape().dim(2) * value.shape().dim(3);
                let sorted = sites.windows(2).all(|p| p[0] < p[1]);
                if !sorted || sites.last().is_some_and(|&s| s as usize >= cells) {
                    return Err(NnError::BadWiring(format!(
                        "active sites for input `{}` must be sorted, unique and < {cells}",
                        layer.name()
                    )));
                }
                Some(Rep {
                    sites: sites.clone(),
                    background: vec![0.0; *channels],
                })
            }
            None => None,
        },
        LayerKind::BatchNorm { .. } => reps.get(&in_ids[0]).map(|rep| {
            let folded = layer
                .batch_norm_params()
                .map(|p| p.folded())
                .unwrap_or_default();
            Rep {
                sites: rep.sites.clone(),
                background: rep
                    .background
                    .iter()
                    .zip(&folded)
                    .map(|(&bg, &(scale, shift))| scale * bg + shift)
                    .collect(),
            }
        }),
        LayerKind::ReLU => reps.get(&in_ids[0]).map(|rep| Rep {
            sites: rep.sites.clone(),
            background: rep.background.iter().map(|&bg| bg.max(0.0)).collect(),
        }),
        LayerKind::Upsample { factor } => reps.get(&in_ids[0]).map(|rep| {
            let f = *factor;
            let w_in = value.shape().dim(3) / f.max(1);
            let ow = value.shape().dim(3);
            let mut sites = Vec::with_capacity(rep.sites.len() * f * f);
            for &site in &rep.sites {
                let (y, x) = (site as usize / w_in, site as usize % w_in);
                for dy in 0..f {
                    for dx in 0..f {
                        sites.push(((y * f + dy) * ow + x * f + dx) as u32);
                    }
                }
            }
            sites.sort_unstable();
            Rep {
                sites,
                background: rep.background.clone(),
            }
        }),
        LayerKind::Add => match (reps.get(&in_ids[0]), reps.get(&in_ids[1])) {
            (Some(a), Some(b)) => Some(Rep {
                sites: union_sorted(&a.sites, &b.sites),
                background: a
                    .background
                    .iter()
                    .zip(&b.background)
                    .map(|(&x, &y)| x + y)
                    .collect(),
            }),
            _ => None,
        },
        LayerKind::Concat => {
            if in_ids.iter().all(|i| reps.contains_key(i)) {
                let mut sites: Vec<u32> = Vec::new();
                let mut background = Vec::new();
                for i in in_ids {
                    let rep = &reps[i];
                    sites = union_sorted(&sites, &rep.sites);
                    background.extend_from_slice(&rep.background);
                }
                Some(Rep { sites, background })
            } else {
                None
            }
        }
        // Pooling and Linear densify (pooling's max over a window has no
        // cheap background algebra; Linear leaves the spatial domain).
        LayerKind::Conv2d { .. } | LayerKind::MaxPool { .. } | LayerKind::Linear { .. } => None,
    })
}

/// Union of two sorted, deduplicated site lists.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{forward, forward_into};
    use crate::Layer;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A miniature PointPillars-shaped DAG: 1×1 PFN, 3×3 s1, 3×3 s2,
    /// upsample, concat, residual add, batch norm, head.
    fn toy_model() -> Model {
        let mut m = Model::new("toy");
        let input = m.add_input("in", 3);
        let pfn = m
            .add_layer(Layer::conv2d("pfn", 3, 4, 1, 1, 0, 11), &[input])
            .unwrap();
        let bn = {
            let mut l = Layer::batch_norm("bn", 4);
            let p = l.batch_norm_params_mut().unwrap();
            p.gamma = vec![1.1, 0.9, 1.3, 0.8];
            p.beta = vec![0.1, -0.2, 0.0, 0.3];
            p.mean = vec![0.05, 0.0, -0.1, 0.2];
            p.var = vec![1.0, 0.5, 2.0, 0.25];
            m.add_layer(l, &[pfn]).unwrap()
        };
        let r1 = m.add_layer(Layer::relu("r1"), &[bn]).unwrap();
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 4, 3, 1, 1, 22), &[r1])
            .unwrap();
        let sum = m.add_layer(Layer::add("sum"), &[r1, c1]).unwrap();
        let c2 = m
            .add_layer(Layer::conv2d("c2", 4, 6, 3, 2, 1, 33), &[sum])
            .unwrap();
        let up = m.add_layer(Layer::upsample("up", 2), &[c2]).unwrap();
        let cat = m.add_layer(Layer::concat("cat"), &[sum, up]).unwrap();
        m.add_layer(Layer::conv2d("head", 10, 5, 1, 1, 0, 44), &[cat])
            .unwrap();
        m
    }

    fn sparse_frame(
        h: usize,
        w: usize,
        sites: &[u32],
    ) -> (HashMap<String, Tensor>, HashMap<String, Vec<u32>>) {
        let mut x = Tensor::zeros(Shape::nchw(1, 3, h, w));
        let data = x.as_mut_slice();
        for (k, &site) in sites.iter().enumerate() {
            for ch in 0..3 {
                data[ch * h * w + site as usize] = 0.3 + 0.17 * (k as f32) + 0.05 * ch as f32;
            }
        }
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), x);
        let mut active = HashMap::new();
        active.insert("in".to_string(), sites.to_vec());
        (inputs, active)
    }

    #[test]
    fn sparse_matches_dense_bit_exact_across_thresholds() {
        let m = toy_model();
        let (inputs, active) = sparse_frame(12, 12, &[0, 5, 30, 31, 77, 100]);
        let dense = forward(&m, &inputs).unwrap();
        for threshold in [0.0, 0.3, 0.5, 1.0] {
            let cfg = SparseExecConfig {
                dense_threshold: threshold,
            };
            let (acts, stats) = forward_sparse(&m, &inputs, &active, &cfg).unwrap();
            assert_eq!(acts.len(), dense.len());
            for (id, t) in &dense {
                assert_eq!(bits(&acts[id]), bits(t), "threshold {threshold}");
            }
            if threshold == 0.0 {
                assert_eq!(stats.sparse_layers(), 0, "0.0 must force dense");
            }
            if threshold == 1.0 {
                assert!(stats.sparse_layers() > 0, "1.0 must stay sparse");
            }
        }
    }

    #[test]
    fn workspace_reuse_stays_identical() {
        let m = toy_model();
        let cfg = SparseExecConfig::default();
        let mut ws = Workspace::new();
        for round in 0..3u32 {
            let sites = [round, 10 + round, 50, 90 + round];
            let (inputs, active) = sparse_frame(12, 12, &sites);
            forward_sparse_into(&m, &inputs, &active, &mut ws, &cfg).unwrap();
            let dense = forward(&m, &inputs).unwrap();
            for (id, t) in &dense {
                assert_eq!(bits(&ws.activations()[id]), bits(t), "round {round}");
            }
        }
    }

    #[test]
    fn missing_active_entry_runs_dense() {
        let m = toy_model();
        let (inputs, _) = sparse_frame(12, 12, &[3, 40]);
        let dense = forward(&m, &inputs).unwrap();
        let (acts, stats) =
            forward_sparse(&m, &inputs, &HashMap::new(), &SparseExecConfig::default()).unwrap();
        assert_eq!(stats.sparse_layers(), 0);
        for (id, t) in &dense {
            assert_eq!(bits(&acts[id]), bits(t));
        }
    }

    #[test]
    fn empty_scene_runs_sparse_without_panicking() {
        let m = toy_model();
        let (inputs, active) = sparse_frame(12, 12, &[]);
        let dense = forward(&m, &inputs).unwrap();
        let (acts, stats) =
            forward_sparse(&m, &inputs, &active, &SparseExecConfig::default()).unwrap();
        assert!(stats.sparse_layers() > 0);
        for l in &stats.layers {
            assert!(l.active_frac <= 1.0);
        }
        for (id, t) in &dense {
            assert_eq!(bits(&acts[id]), bits(t));
        }
    }

    #[test]
    fn malformed_active_sites_rejected() {
        let m = toy_model();
        let (inputs, _) = sparse_frame(12, 12, &[3]);
        let cfg = SparseExecConfig::default();
        let mut bad = HashMap::new();
        bad.insert("in".to_string(), vec![5u32, 5]);
        assert!(forward_sparse(&m, &inputs, &bad, &cfg).is_err());
        let mut oob = HashMap::new();
        oob.insert("in".to_string(), vec![144u32]);
        assert!(forward_sparse(&m, &inputs, &oob, &cfg).is_err());
    }

    #[test]
    fn batch_matches_dense_batch_per_frame() {
        use crate::exec::forward_batch_into;
        let m = toy_model();
        let frames: Vec<_> = (0..3u32)
            .map(|i| sparse_frame(12, 12, &[i, 20 + i, 70]))
            .collect();
        let inputs: Vec<_> = frames.iter().map(|(i, _)| i.clone()).collect();
        let active: Vec<_> = frames.iter().map(|(_, a)| a.clone()).collect();
        let mut dense_wss = Vec::new();
        forward_batch_into(&m, &inputs, &mut dense_wss).unwrap();
        let mut sparse_wss = Vec::new();
        forward_sparse_batch_into(
            &m,
            &inputs,
            &active,
            &mut sparse_wss,
            &SparseExecConfig::default(),
        )
        .unwrap();
        for (d, s) in dense_wss.iter().zip(&sparse_wss) {
            for (id, t) in d.activations() {
                assert_eq!(bits(&s.activations()[id]), bits(t));
            }
        }
    }

    #[test]
    fn union_sorted_merges() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 9]), vec![1, 2, 3, 5, 9]);
        assert_eq!(union_sorted(&[], &[4]), vec![4]);
        assert_eq!(union_sorted(&[4], &[]), vec![4]);
    }

    #[test]
    fn forward_into_unchanged_by_sparse_module() {
        // Guard: the dense executor's public behaviour is untouched.
        let m = toy_model();
        let (inputs, _) = sparse_frame(12, 12, &[8, 9]);
        let mut ws = Workspace::new();
        forward_into(&m, &inputs, &mut ws).unwrap();
        let fresh = forward(&m, &inputs).unwrap();
        for (id, t) in &fresh {
            assert_eq!(bits(&ws.activations()[id]), bits(t));
        }
    }
}
