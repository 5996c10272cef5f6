//! Efficiency score `E_s` — **Eq. 2** of the paper.
//!
//! `E_s = α·sqnr + β·(1/latency) + γ·(1/energy)` with α, β, γ ∈ [0, 1].
//! The three terms carry wildly different units, so (as any implementation
//! must) we evaluate them on commensurate scales:
//!
//! * SQNR enters in decibels normalized by 40 dB (the ~7-bit quantization
//!   regime), capped at 2 so a lossless candidate cannot drown the other
//!   terms;
//! * the latency and energy terms are the *improvement factors* over the
//!   uncompressed baseline (`base/candidate`), which is exactly
//!   `1/latency` with latency measured in units of the base model.
//!
//! Latency and energy come from the analytic on-device model
//! ([`upaq_hwmodel`]) — the paper's "model of on-device efficiency of the
//! compressed model". A search prices the model once ([`Pricing`]) and
//! re-prices only the rows its candidate changes.

use crate::Result;
use std::collections::HashMap;
use upaq_hwmodel::exec::{model_executions, BitAllocation, LayerExecution, SparsityKind};
use upaq_hwmodel::latency::{estimate, Estimate};
use upaq_hwmodel::DeviceProfile;
use upaq_nn::{LayerId, Model};
use upaq_tensor::quant::sqnr_db;
use upaq_tensor::Shape;

/// SQNR normalization constant (dB) — see the module docs.
pub const SQNR_NORM_DB: f64 = 40.0;
/// Cap on the normalized SQNR term. Chosen just above the ≈8-bit operating
/// point (40 dB → 1.0) so "more fidelity than the task needs" cannot drown
/// the latency/energy terms — past ~50 dB extra weight bits stop changing
/// detection outputs, and the score must notice their cost instead.
pub const SQNR_TERM_CAP: f64 = 1.25;

/// Everything needed to score candidate compressed models.
#[derive(Debug, Clone)]
pub struct ScoreContext {
    device: DeviceProfile,
    input_shapes: HashMap<String, Shape>,
    base: Estimate,
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl ScoreContext {
    /// Builds a context by measuring the uncompressed `baseline` model on
    /// `device` (dense fp32).
    ///
    /// # Errors
    ///
    /// Propagates shape-inference errors.
    pub fn new(
        device: DeviceProfile,
        input_shapes: HashMap<String, Shape>,
        baseline: &Model,
        alpha: f64,
        beta: f64,
        gamma: f64,
    ) -> Result<Self> {
        let costs = upaq_nn::stats::model_costs(baseline, &input_shapes)?;
        let execs = model_executions(baseline, &costs, &BitAllocation::new(), &HashMap::new());
        let base = estimate(&device, &execs);
        Ok(ScoreContext {
            device,
            input_shapes,
            base,
            alpha,
            beta,
            gamma,
        })
    }

    /// The baseline (dense fp32) estimate.
    pub fn base(&self) -> &Estimate {
        &self.base
    }

    /// The device being modelled.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Prices `model` under the given bit/sparsity allocations, one row per
    /// layer, for candidates to overwrite with [`Pricing::set`].
    ///
    /// # Errors
    ///
    /// Propagates shape-inference errors.
    pub(crate) fn price(
        &self,
        model: &Model,
        bits: &BitAllocation,
        kinds: &HashMap<LayerId, SparsityKind>,
    ) -> Result<Pricing> {
        let costs = upaq_nn::stats::model_costs(model, &self.input_shapes)?;
        Ok(Pricing {
            ids: costs.layers.iter().map(|cost| cost.id).collect(),
            rows: model_executions(model, &costs, bits, kinds),
        })
    }

    /// The estimate of a priced model, rows summed in layer order.
    pub(crate) fn estimate(&self, pricing: &Pricing) -> Estimate {
        estimate(&self.device, &pricing.rows)
    }

    /// Estimates a whole candidate model under the given bit/sparsity
    /// allocations — the search's reference: [`Self::price`] then
    /// [`Self::estimate`] after [`Pricing::set`] on the changed layers must
    /// equal it raw bit for raw bit.
    #[cfg(test)]
    pub(crate) fn estimate_candidate(
        &self,
        model: &Model,
        bits: &BitAllocation,
        kinds: &HashMap<LayerId, SparsityKind>,
    ) -> Result<Estimate> {
        let costs = upaq_nn::stats::model_costs(model, &self.input_shapes)?;
        let execs = model_executions(model, &costs, bits, kinds);
        Ok(estimate(&self.device, &execs))
    }

    /// Eq. 2: combines a candidate's SQNR with its estimated latency/energy
    /// improvement factors.
    pub fn efficiency_score(&self, sqnr: f32, candidate: &Estimate) -> f64 {
        let sqnr_term = (f64::from(sqnr_db(sqnr)) / SQNR_NORM_DB).clamp(0.0, SQNR_TERM_CAP);
        let latency_term = if candidate.latency_s > 0.0 {
            self.base.latency_s / candidate.latency_s
        } else {
            0.0
        };
        let energy_term = if candidate.energy_j > 0.0 {
            self.base.energy_j / candidate.energy_j
        } else {
            0.0
        };
        self.alpha * sqnr_term + self.beta * latency_term + self.gamma * energy_term
    }
}

/// A model priced once, one [`LayerExecution`] row per layer in
/// topological order. [`estimate`] is the device overhead plus a per-row
/// sum, and a row depends only on its own layer's weights, bit width and
/// sparsity kind, so a candidate that changes a few layers re-prices by
/// overwriting their rows.
#[derive(Debug)]
pub(crate) struct Pricing {
    ids: Vec<LayerId>,
    rows: Vec<LayerExecution>,
}

impl Pricing {
    /// The row of layer `id`, if the model has that layer.
    pub(crate) fn row(&self, id: LayerId) -> Option<usize> {
        self.ids.iter().position(|&l| l == id)
    }

    /// Overwrites a weighted layer's row as [`model_executions`] would build
    /// it with `nonzeros` non-zero weights at `bits` bits under `kind`.
    pub(crate) fn set(&mut self, row: usize, bits: u8, kind: SparsityKind, nonzeros: usize) {
        let exec = &mut self.rows[row];
        exec.weight_bits = bits;
        exec.sparsity_kind = kind;
        exec.weight_sparsity = if exec.weight_count == 0 {
            0.0
        } else {
            1.0 - nonzeros as f64 / exec.weight_count as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_nn::Layer;

    fn model() -> (Model, HashMap<String, Shape>) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 2), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 4, 16, 16));
        (m, shapes)
    }

    fn ctx() -> (ScoreContext, Model) {
        let (m, shapes) = model();
        let ctx = ScoreContext::new(DeviceProfile::jetson_orin_nano(), shapes, &m, 0.3, 0.4, 0.3)
            .unwrap();
        (ctx, m)
    }

    #[test]
    fn baseline_scores_about_one() {
        let (ctx, m) = ctx();
        let est = ctx
            .estimate_candidate(&m, &BitAllocation::new(), &HashMap::new())
            .unwrap();
        // Latency/energy terms are exactly 1; SQNR term is capped ≤ 2.
        let score = ctx.efficiency_score(f32::INFINITY, &est);
        assert!((score - (0.3 * SQNR_TERM_CAP + 0.4 + 0.3)).abs() < 1e-9);
    }

    #[test]
    fn quantized_candidate_scores_higher_at_equal_sqnr() {
        // Hold the SQNR term fixed: the latency/energy improvement from
        // 8-bit weights must push the score up on a compute-heavy model.
        let mut m = Model::new("big");
        let input = m.add_input("in", 16);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 16, 32, 3, 1, 1, 1), &[input])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 32, 32, 3, 1, 1, 2), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 16, 64, 64));
        let ctx = ScoreContext::new(DeviceProfile::jetson_orin_nano(), shapes, &m, 0.3, 0.4, 0.3)
            .unwrap();
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        for id in m.weighted_layers() {
            bits.insert(id, 8);
            kinds.insert(id, SparsityKind::SemiStructured);
        }
        let q_est = ctx.estimate_candidate(&m, &bits, &kinds).unwrap();
        let base_est = ctx
            .estimate_candidate(&m, &BitAllocation::new(), &HashMap::new())
            .unwrap();
        let sqnr = 10_000.0;
        let q_score = ctx.efficiency_score(sqnr, &q_est);
        let base_score = ctx.efficiency_score(sqnr, &base_est);
        assert!(q_score > base_score, "{q_score} !> {base_score}");
    }

    #[test]
    fn weights_scale_terms() {
        let (ctx0, m) = ctx();
        let est = ctx0
            .estimate_candidate(&m, &BitAllocation::new(), &HashMap::new())
            .unwrap();
        // β=1-only context weights the latency factor fully.
        let (model_m, shapes) = model();
        let ctx_latency = ScoreContext::new(
            DeviceProfile::jetson_orin_nano(),
            shapes,
            &model_m,
            0.0,
            1.0,
            0.0,
        )
        .unwrap();
        let s = ctx_latency.efficiency_score(1.0, &est);
        assert!((s - 1.0).abs() < 1e-9, "latency-only score {s}");
    }

    #[test]
    fn sqnr_term_capped() {
        let (ctx, m) = ctx();
        let est = ctx
            .estimate_candidate(&m, &BitAllocation::new(), &HashMap::new())
            .unwrap();
        let inf = ctx.efficiency_score(f32::INFINITY, &est);
        let huge = ctx.efficiency_score(1e30, &est);
        assert!((inf - huge).abs() < 1e-9);
    }
}
