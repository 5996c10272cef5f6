//! LiDAR-PTQ: post-training quantization for point-cloud 3D detectors
//! (Zhou et al., 2024).
//!
//! Per the paper's description: PTQ "with max-min calibration and adaptive
//! rounding for weight quantization", converting fp32 weights to 8-bit
//! integers with no pruning. Adaptive rounding is implemented as greedy
//! per-output-channel error compensation (an AdaRound-style sequential
//! rounding that keeps the running quantization error near zero — the
//! measurable benefit of adaptive over nearest rounding). Sensitive
//! boundary layers (first/last weighted) stay at 16 bits, which is why the
//! framework's compression ratio sits near the paper's ≈3.3× rather than a
//! flat 4×.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq::compress::{build_report, CompressionContext, CompressionOutcome, Compressor};
use upaq::{Result, UpaqError};
use upaq_hwmodel::exec::{BitAllocation, SparsityKind};
use upaq_nn::Model;
use upaq_tensor::quant::Grid;
use upaq_tensor::Tensor;

/// The LiDAR-PTQ baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LidarPtq {
    /// Bitwidth for interior layers.
    pub bits: u8,
    /// Bitwidth for the sensitive first/last weighted layers.
    pub boundary_bits: u8,
}

impl Default for LidarPtq {
    fn default() -> Self {
        LidarPtq {
            bits: 8,
            boundary_bits: 16,
        }
    }
}

/// Quantizes with max-min (absolute-maximum) calibration and adaptive
/// rounding: weights are visited in order and each is rounded toward the
/// direction that cancels the accumulated rounding error.
///
/// Returns the restored (fake-quantized) tensor.
///
/// # Errors
///
/// Returns the quantizer's error for bitwidths outside 2..=16.
pub fn adaptive_round_quantize(weights: &Tensor, bits: u8) -> Result<Tensor> {
    // The symmetric grid is the shared quantizer's; only the rounding
    // rule is LiDAR-PTQ's own.
    let Grid { scale, max_code } = Grid::of(weights.as_slice(), bits)?;
    let max_value = max_code as f32;
    let mut out = weights.clone();
    let data = out.as_mut_slice();
    let mut running_err = 0.0f32;
    for v in data.iter_mut() {
        let exact = *v / scale;
        let floor = exact.floor();
        let ceil = exact.ceil();
        // Pick the rounding that keeps the cumulative error smallest —
        // AdaRound's objective collapsed to a greedy sequential rule.
        let err_floor = (floor - exact) + running_err;
        let err_ceil = (ceil - exact) + running_err;
        let q = if err_floor.abs() <= err_ceil.abs() {
            floor
        } else {
            ceil
        };
        let q = q.clamp(-max_value, max_value);
        running_err += q - exact;
        *v = q * scale;
    }
    Ok(out)
}

impl Compressor for LidarPtq {
    fn name(&self) -> &str {
        "LIDAR-PTQ"
    }

    fn compress(&self, model: &Model, ctx: &CompressionContext) -> Result<CompressionOutcome> {
        let mut mc = model.deep_copy();
        let weighted = mc.weighted_layers();
        if weighted.is_empty() {
            return Err(UpaqError::NothingToCompress);
        }
        let first = *weighted.first().expect("non-empty");
        let last = *weighted.last().expect("non-empty");
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        for &id in &weighted {
            if ctx.is_skipped(id) {
                continue;
            }
            let layer_bits = if id == first || id == last {
                self.boundary_bits
            } else {
                self.bits
            };
            let w = mc.layer(id)?.weights().expect("weighted").clone();
            let quantized = adaptive_round_quantize(&w, layer_bits)?;
            mc.layer_mut(id)?.set_weights(quantized);
            bits.insert(id, layer_bits);
            kinds.insert(id, SparsityKind::Dense);
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upaq_hwmodel::DeviceProfile;
    use upaq_nn::Layer;
    use upaq_tensor::quant::fake_quantize;
    use upaq_tensor::Shape;

    fn setup() -> (Model, CompressionContext) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        let c2 = m
            .add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 2), &[c1])
            .unwrap();
        m.add_layer(Layer::conv2d("c3", 8, 4, 3, 1, 1, 3), &[c2])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 4, 8, 8));
        (
            m,
            CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 1),
        )
    }

    #[test]
    fn boundary_layers_get_higher_precision() {
        let (m, ctx) = setup();
        let outcome = LidarPtq::default().compress(&m, &ctx).unwrap();
        let weighted = outcome.model.weighted_layers();
        assert_eq!(outcome.bits[&weighted[0]], 16);
        assert_eq!(outcome.bits[weighted.last().unwrap()], 16);
        assert_eq!(outcome.bits[&weighted[1]], 8);
    }

    #[test]
    fn no_pruning_applied() {
        let (m, ctx) = setup();
        let outcome = LidarPtq::default().compress(&m, &ctx).unwrap();
        // Sparsity stays essentially zero (only exact-zero rounding).
        assert!(outcome.model.sparsity() < 0.05);
        for id in outcome.model.weighted_layers() {
            assert_eq!(outcome.kinds[&id], SparsityKind::Dense);
        }
    }

    #[test]
    fn ratio_near_paper_value() {
        let (m, ctx) = setup();
        let outcome = LidarPtq::default().compress(&m, &ctx).unwrap();
        let r = outcome.report.compression_ratio;
        // Paper Table 2: 3.25× (PointPillars) / 3.57× (SMOKE).
        assert!(r > 2.2 && r < 4.1, "ratio {r}");
    }

    #[test]
    fn adaptive_rounding_beats_nearest_on_sum_error() {
        // Adaptive rounding minimizes accumulated error; compare the total
        // weight-sum drift against nearest rounding over random tensors.
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::uniform(Shape::vector(512), -1.0, 1.0, &mut rng);
        let adaptive = adaptive_round_quantize(&t, 4).unwrap();
        let mut nearest = t.clone();
        fake_quantize(nearest.as_mut_slice(), 4).unwrap();
        let drift = |q: &Tensor| (q.sum() - t.sum()).abs();
        assert!(
            drift(&adaptive) <= drift(&nearest) + 1e-3,
            "adaptive drift {} vs nearest {}",
            drift(&adaptive),
            drift(&nearest)
        );
    }

    #[test]
    fn zero_tensor_unchanged() {
        let t = Tensor::zeros(Shape::vector(8));
        assert_eq!(adaptive_round_quantize(&t, 8).unwrap(), t);
    }

    #[test]
    fn quantized_values_on_grid() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::uniform(Shape::vector(64), -2.0, 2.0, &mut rng);
        let q = adaptive_round_quantize(&t, 8).unwrap();
        let scale = t.abs_max() / 127.0;
        for &v in q.as_slice() {
            let code = v / scale;
            assert!((code - code.round()).abs() < 1e-3);
            assert!(code.abs() <= 127.5);
        }
    }
}
