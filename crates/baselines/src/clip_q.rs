//! Clip-Q: in-parallel pruning-quantization by clipping (Tung & Mori, 2018).
//!
//! The paper describes Clip-Q as "clipping, partitioning, and quantization
//! — clipped weights are pruned, and non-clipped weights are quantized",
//! and criticizes its per-partition focus ("parts of the model without
//! considering overall performance"). We reproduce that: each layer is
//! split into channel partitions, each partition independently picks a clip
//! threshold at a fixed magnitude quantile, prunes below it, and quantizes
//! the survivors.
//!
//! Knobs (`clip_quantile = 0.45`, `bits = 16`) land on the ≈1.84×
//! compression Table 2 reports.

use crate::util::{magnitude_quantile, prune_below};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq::compress::{build_report, CompressionContext, CompressionOutcome, Compressor};
use upaq::{Result, UpaqError};
use upaq_hwmodel::exec::{BitAllocation, SparsityKind};
use upaq_nn::Model;
use upaq_tensor::quant::fake_quantize;

/// The Clip-Q baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClipQ {
    /// Magnitude quantile below which weights are clipped (pruned).
    pub clip_quantile: f32,
    /// Bitwidth for the surviving weights.
    pub bits: u8,
    /// Output-channel partitions treated independently per layer.
    pub partitions: usize,
}

impl Default for ClipQ {
    fn default() -> Self {
        ClipQ {
            clip_quantile: 0.45,
            bits: 16,
            partitions: 4,
        }
    }
}

impl Compressor for ClipQ {
    fn name(&self) -> &str {
        "CLIP-Q"
    }

    fn compress(&self, model: &Model, ctx: &CompressionContext) -> Result<CompressionOutcome> {
        if !(0.0..1.0).contains(&self.clip_quantile) {
            return Err(UpaqError::BadConfig(format!(
                "clip_quantile {} out of [0,1)",
                self.clip_quantile
            )));
        }
        if self.partitions == 0 {
            return Err(UpaqError::BadConfig("partitions must be ≥ 1".into()));
        }
        let mut mc = model.deep_copy();
        let weighted = mc.weighted_layers();
        if weighted.is_empty() {
            return Err(UpaqError::NothingToCompress);
        }
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        for &id in &weighted {
            if ctx.is_skipped(id) {
                continue;
            }
            let mut w = mc.layer(id)?.weights().expect("weighted").clone();
            // Partition by leading (output-channel) blocks.
            let part_len = (w.len() / self.partitions).max(1);
            for part in w.as_mut_slice().chunks_mut(part_len) {
                let thr = magnitude_quantile(part, self.clip_quantile);
                prune_below(part, thr);
                fake_quantize(part, self.bits)?;
            }
            mc.layer_mut(id)?.set_weights(w);
            bits.insert(id, self.bits);
            kinds.insert(id, SparsityKind::Unstructured);
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
    use upaq_hwmodel::DeviceProfile;
    use upaq_nn::Layer;
    use upaq_tensor::{Shape, Tensor};

    fn setup() -> (Model, CompressionContext) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        m.add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 4, 8, 8));
        (
            m,
            CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 1),
        )
    }

    #[test]
    fn clips_to_quantile_sparsity() {
        let (m, ctx) = setup();
        let outcome = ClipQ::default().compress(&m, &ctx).unwrap();
        let s = outcome.model.sparsity();
        assert!((s - 0.45).abs() < 0.1, "sparsity {s}");
    }

    #[test]
    fn ratio_near_paper_value() {
        let (m, ctx) = setup();
        let outcome = ClipQ::default().compress(&m, &ctx).unwrap();
        let r = outcome.report.compression_ratio;
        // Paper Table 2: 1.84×.
        assert!(r > 1.4 && r < 2.4, "ratio {r}");
    }

    #[test]
    fn partitions_clip_independently() {
        // A layer whose first half is tiny and second half large: global
        // clipping would erase the entire first half; partitioned clipping
        // keeps the largest weights of each partition.
        let mut m = Model::new("m");
        let input = m.add_input("in", 1);
        let data: Vec<f32> = (0..18)
            .map(|i| {
                if i < 9 {
                    0.001 * (i + 1) as f32
                } else {
                    1.0 + i as f32
                }
            })
            .collect();
        let w = Tensor::from_vec(Shape::nchw(2, 1, 3, 3), data).unwrap();
        let b = Tensor::zeros(Shape::vector(2));
        m.add_layer(Layer::conv2d_with_weights("c", 1, 1, w, b), &[input])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 1, 4, 4));
        let ctx = CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 0);
        let cq = ClipQ {
            partitions: 2,
            clip_quantile: 0.5,
            bits: 16,
        };
        let outcome = cq.compress(&m, &ctx).unwrap();
        let w = outcome.model.layer(1).unwrap().weights().unwrap();
        // Both halves keep survivors.
        let first_nnz = w.as_slice()[..9].iter().filter(|&&v| v != 0.0).count();
        let second_nnz = w.as_slice()[9..].iter().filter(|&&v| v != 0.0).count();
        assert!(first_nnz > 0, "first partition fully clipped");
        assert!(second_nnz > 0);
    }

    #[test]
    fn rejects_bad_config() {
        let (m, ctx) = setup();
        assert!(ClipQ {
            clip_quantile: 1.0,
            ..Default::default()
        }
        .compress(&m, &ctx)
        .is_err());
        assert!(ClipQ {
            partitions: 0,
            ..Default::default()
        }
        .compress(&m, &ctx)
        .is_err());
    }
}
