//! Compression stage — **Algorithm 3** of the paper — plus the
//! framework-agnostic [`Compressor`] interface the baselines share.

use crate::config::UpaqConfig;
use crate::error::ensure_finite;
use crate::kxk::compress_group;
use crate::score::ScoreContext;
use crate::{Result, UpaqError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq_hwmodel::exec::{model_executions, BitAllocation, SparsityKind};
use upaq_hwmodel::latency::estimate;
use upaq_hwmodel::size::compression_ratio;
use upaq_hwmodel::DeviceProfile;
use upaq_nn::group::preprocess;
use upaq_nn::{LayerId, Model};
use upaq_tensor::Shape;

/// Inputs every compression framework receives: the target device (for
/// efficiency modelling), the model's input geometry, and a seed.
#[derive(Debug, Clone)]
pub struct CompressionContext {
    /// Device the compressed model will deploy to.
    pub device: DeviceProfile,
    /// Named input shapes of the model.
    pub input_shapes: HashMap<String, Shape>,
    /// Run seed (mixed into the framework's own seed).
    pub seed: u64,
    /// Layers every framework must leave untouched (e.g. a detection head
    /// that is re-calibrated after compression — the standard
    /// keep-boundary-layers-dense policy).
    pub skip_layers: Vec<LayerId>,
}

impl CompressionContext {
    /// Creates a context with no skipped layers.
    pub fn new(device: DeviceProfile, input_shapes: HashMap<String, Shape>, seed: u64) -> Self {
        CompressionContext {
            device,
            input_shapes,
            seed,
            skip_layers: Vec::new(),
        }
    }

    /// Builder-style: marks layers as off-limits for compression.
    pub fn with_skip_layers(mut self, skip: Vec<LayerId>) -> Self {
        self.skip_layers = skip;
        self
    }

    /// Whether a layer must be left untouched.
    pub fn is_skipped(&self, id: LayerId) -> bool {
        self.skip_layers.contains(&id)
    }
}

/// Summary statistics of one compression run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Framework label (e.g. `"UPAQ (HCK)"`).
    pub framework: String,
    /// Stored-size ratio against the dense fp32 original.
    pub compression_ratio: f64,
    /// Overall weight sparsity of the compressed model.
    pub sparsity: f32,
    /// Predicted inference latency on the context device, milliseconds.
    pub latency_ms: f64,
    /// Predicted inference energy on the context device, joules.
    pub energy_j: f64,
    /// Mean selected bitwidth over weighted layers.
    pub mean_bits: f64,
}

/// A compressed model plus everything needed to deploy and evaluate it.
#[derive(Debug, Clone)]
pub struct CompressionOutcome {
    /// The compressed model (same architecture, modified weights).
    pub model: Model,
    /// Per-layer selected bitwidths.
    pub bits: BitAllocation,
    /// Per-layer sparsity structure.
    pub kinds: HashMap<LayerId, SparsityKind>,
    /// Summary statistics.
    pub report: CompressionReport,
}

/// The interface every compression framework in this workspace implements —
/// UPAQ here, and the four baselines in `upaq-baselines`.
pub trait Compressor {
    /// Framework display name (matches the paper's table headers).
    fn name(&self) -> &str;

    /// Compresses `model` for the context device.
    ///
    /// # Errors
    ///
    /// Implementations return [`UpaqError`] for invalid configurations or
    /// models with nothing to compress.
    fn compress(&self, model: &Model, ctx: &CompressionContext) -> Result<CompressionOutcome>;
}

/// Builds the summary report shared by all frameworks.
///
/// # Errors
///
/// Propagates shape-inference errors.
pub fn build_report(
    framework: &str,
    original: &Model,
    compressed: &Model,
    bits: &BitAllocation,
    kinds: &HashMap<LayerId, SparsityKind>,
    ctx: &CompressionContext,
) -> Result<CompressionReport> {
    let base_costs = upaq_nn::stats::model_costs(original, &ctx.input_shapes)?;
    let base_execs = model_executions(
        original,
        &base_costs,
        &BitAllocation::new(),
        &HashMap::new(),
    );
    let comp_costs = upaq_nn::stats::model_costs(compressed, &ctx.input_shapes)?;
    let comp_execs = model_executions(compressed, &comp_costs, bits, kinds);
    let est = estimate(&ctx.device, &comp_execs);
    let weighted = compressed.weighted_layers();
    let mean_bits = if weighted.is_empty() {
        32.0
    } else {
        weighted
            .iter()
            .map(|id| f64::from(bits.get(id).copied().unwrap_or(32)))
            .sum::<f64>()
            / weighted.len() as f64
    };
    Ok(CompressionReport {
        framework: framework.to_string(),
        compression_ratio: compression_ratio(&base_execs, &comp_execs),
        sparsity: compressed.sparsity(),
        latency_ms: est.latency_ms(),
        energy_j: est.energy_j,
        mean_bits,
    })
}

/// The UPAQ framework: Algorithm 3 orchestrating Algorithms 1/2/4/5/6 under
/// the efficiency score.
#[derive(Debug, Clone)]
pub struct Upaq {
    config: UpaqConfig,
}

impl Upaq {
    /// Creates the framework with a configuration (see
    /// [`UpaqConfig::hck`] / [`UpaqConfig::lck`]).
    pub fn new(config: UpaqConfig) -> Self {
        Upaq { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &UpaqConfig {
        &self.config
    }
}

impl Compressor for Upaq {
    fn name(&self) -> &str {
        &self.config.label
    }

    /// Algorithm 3: deep-copy the model, group layers under roots
    /// (Algorithm 1), route each root through k×k (Algorithm 4) or 1×1
    /// (Algorithm 5) compression, and replicate each root's winning pattern
    /// onto its leaves.
    ///
    /// # Errors
    ///
    /// Besides configuration and model errors, returns
    /// [`UpaqError::Tensor`] with [`TensorError::NonFiniteWeight`] before
    /// any search when a layer it would compress holds a NaN or an
    /// infinity.
    ///
    /// [`TensorError::NonFiniteWeight`]: upaq_tensor::TensorError::NonFiniteWeight
    fn compress(&self, model: &Model, ctx: &CompressionContext) -> Result<CompressionOutcome> {
        self.config.validate()?;
        let mut mc = model.deep_copy(); // Algorithm 3, line 1
        let groups = preprocess(&mc); // Algorithm 1
        if groups.is_empty() {
            return Err(UpaqError::NothingToCompress);
        }

        let mut searches = Vec::new();
        for root in groups.roots() {
            let members: Vec<LayerId> = groups
                .members(root)
                .expect("root exists")
                .iter()
                .copied()
                .filter(|&id| !ctx.is_skipped(id))
                .collect();
            if members.is_empty() {
                continue;
            }
            // Algorithm 3, line 7: k×k kernels go to Algorithm 4 as they
            // are, 1×1 kernels through Algorithm 5's virtual k×k kernels.
            let dim = match mc.layer(members[0])?.kernel_size() {
                Some(k) if k > 1 => k,
                _ if self.config.compress_pointwise => self.config.virtual_kernel,
                _ => continue,
            };
            for &id in &members {
                if let Some(weights) = mc.layer(id)?.weights() {
                    ensure_finite(weights)?;
                }
            }
            searches.push((members, dim));
        }

        let score_ctx = ScoreContext::new(
            ctx.device.clone(),
            ctx.input_shapes.clone(),
            model,
            self.config.alpha,
            self.config.beta,
            self.config.gamma,
        )?;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ ctx.seed);
        let mut bits = BitAllocation::new();
        let mut kinds: HashMap<LayerId, SparsityKind> = HashMap::new();
        for (members, dim) in &searches {
            compress_group(
                &mut mc,
                members,
                *dim,
                &self.config,
                &score_ctx,
                &mut bits,
                &mut kinds,
                &mut rng,
            )?;
        }

        let report = build_report(self.name(), model, &mc, &bits, &kinds, ctx)?;
        Ok(CompressionOutcome {
            model: mc,
            bits,
            kinds,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_nn::Layer;

    fn test_model() -> (Model, CompressionContext) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 9);
        // PFN-style 1×1 pair then a 3×3 stack — exercises both algorithms.
        let p0 = m
            .add_layer(Layer::conv2d("pfn0", 9, 8, 1, 1, 0, 1), &[input])
            .unwrap();
        let p1 = m
            .add_layer(Layer::conv2d("pfn1", 8, 8, 1, 1, 0, 2), &[p0])
            .unwrap();
        let c1 = m
            .add_layer(Layer::conv2d("c1", 8, 8, 3, 1, 1, 3), &[p1])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 4), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 9, 8, 8));
        let ctx = CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 7);
        (m, ctx)
    }

    #[test]
    fn upaq_compresses_both_kernel_families() {
        let (m, ctx) = test_model();
        let outcome = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        // Every weighted layer got an allocation.
        for id in outcome.model.weighted_layers() {
            assert!(outcome.bits.contains_key(&id), "layer {id} missing bits");
            assert_eq!(outcome.kinds[&id], SparsityKind::SemiStructured);
        }
        // Original untouched.
        assert_eq!(m.sparsity(), 0.0);
        assert!(outcome.model.sparsity() > 0.5);
    }

    #[test]
    fn hck_compresses_more_than_lck() {
        let (m, ctx) = test_model();
        let hck = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        let lck = Upaq::new(UpaqConfig::lck()).compress(&m, &ctx).unwrap();
        assert!(
            hck.report.compression_ratio > lck.report.compression_ratio,
            "HCK {} vs LCK {}",
            hck.report.compression_ratio,
            lck.report.compression_ratio
        );
        assert!(hck.report.latency_ms <= lck.report.latency_ms + 1e-9);
    }

    #[test]
    fn compression_ratio_in_paper_ballpark() {
        // HCK: 2/9 weights at ≤8 bits → ratio far above 4×.
        let (m, ctx) = test_model();
        let outcome = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        assert!(
            outcome.report.compression_ratio > 4.0,
            "ratio {}",
            outcome.report.compression_ratio
        );
    }

    #[test]
    fn predicted_latency_improves() {
        let (m, ctx) = test_model();
        let base =
            build_report("base", &m, &m, &BitAllocation::new(), &HashMap::new(), &ctx).unwrap();
        let outcome = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        assert!(outcome.report.latency_ms < base.latency_ms);
        assert!(outcome.report.energy_j < base.energy_j);
    }

    #[test]
    fn deterministic_given_seed() {
        let (m, ctx) = test_model();
        let a = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        let b = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn empty_model_rejected() {
        let m = Model::new("empty");
        let ctx = CompressionContext::new(DeviceProfile::jetson_orin_nano(), HashMap::new(), 0);
        assert!(matches!(
            Upaq::new(UpaqConfig::hck()).compress(&m, &ctx),
            Err(UpaqError::NothingToCompress)
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let (m, ctx) = test_model();
        let mut cfg = UpaqConfig::hck();
        cfg.quant_bits.clear();
        assert!(Upaq::new(cfg).compress(&m, &ctx).is_err());
    }

    #[test]
    fn non_finite_weight_is_an_error() {
        // An infinite weight would give its kernel an infinite scale, which
        // turns the kernel's zeros into NaN; a NaN would be silently zeroed.
        let (mut m, ctx) = test_model();
        let c1 = 3;
        for value in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut w = m.layer(c1).unwrap().weights().unwrap().clone();
            let index = 9 * 5 + 4;
            w.as_mut_slice()[index] = value;
            let mut bad = m.deep_copy();
            bad.layer_mut(c1).unwrap().set_weights(w);
            match Upaq::new(UpaqConfig::hck()).compress(&bad, &ctx) {
                Err(UpaqError::Tensor(upaq_tensor::TensorError::NonFiniteWeight {
                    index: i,
                    value: v,
                })) => {
                    assert_eq!(i, index);
                    assert_eq!(v.to_bits(), value.to_bits());
                }
                other => panic!("{value}: expected NonFiniteWeight, got {other:?}"),
            }
        }
        // A skipped layer is not compressed, so it is not checked either.
        let mut w = m.layer(c1).unwrap().weights().unwrap().clone();
        w.as_mut_slice()[0] = f32::NAN;
        m.layer_mut(c1).unwrap().set_weights(w);
        let skip = ctx.clone().with_skip_layers(vec![c1]);
        assert!(Upaq::new(UpaqConfig::hck()).compress(&m, &skip).is_ok());
    }

    #[test]
    fn mean_bits_within_config_range() {
        let (m, ctx) = test_model();
        let outcome = Upaq::new(UpaqConfig::lck()).compress(&m, &ctx).unwrap();
        assert!(outcome.report.mean_bits >= 8.0 && outcome.report.mean_bits <= 16.0);
    }
}
