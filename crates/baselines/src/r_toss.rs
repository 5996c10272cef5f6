//! R-TOSS: real-time object detection with semi-structured pruning
//! (Balasubramaniam, Sunny & Pasricha, DAC 2023) — the authors' own prior
//! work and UPAQ's closest comparator.
//!
//! Per the paper's description: *entry patterns* (a fixed dictionary of
//! k×k masks), per-kernel mask selection by **L2 norm** of the retained
//! weights, and *connectivity pruning* that removes entire low-energy
//! kernels. No quantization — weights stay fp32 — which is exactly the
//! deficiency UPAQ's Table 2 exposes (good sparsity, weaker compression
//! than pruning+quantization, and "the L2-norm … does not adequately
//! account for quantization noise").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq::compress::{build_report, CompressionContext, CompressionOutcome, Compressor};
use upaq::{Result, UpaqError};
use upaq_hwmodel::exec::{BitAllocation, SparsityKind};
use upaq_nn::Model;
use upaq_tensor::sparse::KernelMask;
use upaq_tensor::Tensor;

/// The fixed entry-pattern dictionary (3×3, 3 non-zeros each): the four
/// diagonal/cross shapes R-TOSS's predecessor PatDNN popularized.
fn entry_patterns() -> Vec<KernelMask> {
    vec![
        KernelMask::from_positions(3, &[(0, 0), (1, 1), (2, 2)]), // main diagonal
        KernelMask::from_positions(3, &[(0, 2), (1, 1), (2, 0)]), // anti diagonal
        KernelMask::from_positions(3, &[(1, 0), (1, 1), (1, 2)]), // centre row
        KernelMask::from_positions(3, &[(0, 1), (1, 1), (2, 1)]), // centre column
        KernelMask::from_positions(3, &[(0, 0), (1, 1), (0, 2)]), // top vee
        KernelMask::from_positions(3, &[(2, 0), (1, 1), (2, 2)]), // bottom vee
    ]
}

/// The R-TOSS baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RToss {
    /// Fraction of kernels (lowest L2 norm) removed by connectivity pruning.
    pub connectivity_quantile: f32,
}

impl Default for RToss {
    fn default() -> Self {
        RToss {
            connectivity_quantile: 0.30,
        }
    }
}

/// [`entry_patterns`] as row-major keep flags, built once per compression.
fn entry_flags() -> Vec<[bool; 9]> {
    entry_patterns()
        .iter()
        .map(|mask| std::array::from_fn(|j| mask.is_kept(j / 3, j % 3)))
        .collect()
}

/// L2 norm of a kernel, summed as [`Tensor::l2_norm`] sums it.
fn l2(kernel: &[f32]) -> f32 {
    kernel.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

impl RToss {
    /// Writes into `out` the pattern-pruned form of one `kernel` (`kh ×
    /// kw`, row-major): for a 3×3 kernel, the dictionary mask (`flags`,
    /// from [`entry_flags`]) that retains the most L2 energy, the first
    /// one winning a tie (the paper's per-kernel criterion). Other kernel
    /// sizes fall back to keeping their top-|w| 3 weights (the dictionary
    /// is defined for 3×3, as the paper notes pattern pruning "often
    /// targets kernels of size 3×3 and larger").
    fn best_mask_l2(
        kernel: &[f32],
        (kh, kw): (usize, usize),
        flags: &[[bool; 9]],
        out: &mut [f32],
    ) {
        if (kh, kw) == (3, 3) {
            let mut best: Option<(f32, [f32; 9])> = None;
            for keep in flags {
                let masked: [f32; 9] =
                    std::array::from_fn(|j| if keep[j] { kernel[j] } else { 0.0 });
                let norm = l2(&masked);
                if best.as_ref().is_none_or(|(b, _)| norm > *b) {
                    best = Some((norm, masked));
                }
            }
            out.copy_from_slice(&best.expect("dictionary non-empty").1);
        } else {
            // Keep the 3 largest-magnitude weights.
            let mut mags: Vec<(usize, f32)> = kernel.iter().map(|w| w.abs()).enumerate().collect();
            mags.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            out.fill(0.0);
            for &(i, _) in mags.iter().take(3) {
                out[i] = kernel[i];
            }
        }
    }
}

impl Compressor for RToss {
    fn name(&self) -> &str {
        "R-TOSS"
    }

    fn compress(&self, model: &Model, ctx: &CompressionContext) -> Result<CompressionOutcome> {
        if !(0.0..1.0).contains(&self.connectivity_quantile) {
            return Err(UpaqError::BadConfig(format!(
                "connectivity_quantile {} out of [0,1)",
                self.connectivity_quantile
            )));
        }
        let mut mc = model.deep_copy();
        let weighted = mc.weighted_layers();
        if weighted.is_empty() {
            return Err(UpaqError::NothingToCompress);
        }
        let flags = entry_flags();
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        for &id in &weighted {
            if ctx.is_skipped(id) {
                continue;
            }
            let w = mc.layer(id)?.weights().expect("weighted").clone();
            let dims = w.shape().dims().to_vec();
            let new_w = if dims.len() == 4 && dims[2] > 1 {
                let (kh, kw) = (dims[2], dims[3]);
                let data = w.as_slice();
                // Pattern-prune every kernel by best-L2 dictionary mask.
                let mut out = vec![0.0; data.len()];
                let mut norms: Vec<f32> = Vec::with_capacity(data.len() / (kh * kw));
                for (kernel, pruned) in data
                    .chunks_exact(kh * kw)
                    .zip(out.chunks_exact_mut(kh * kw))
                {
                    Self::best_mask_l2(kernel, (kh, kw), &flags, pruned);
                    norms.push(l2(pruned));
                }
                // Connectivity pruning: drop the lowest-norm kernels wholesale.
                let mut sorted = norms.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let cut_idx = ((sorted.len() as f32 * self.connectivity_quantile) as usize)
                    .min(sorted.len().saturating_sub(1));
                let cut = sorted[cut_idx];
                for (pruned, norm) in out.chunks_exact_mut(kh * kw).zip(&norms) {
                    if *norm < cut {
                        pruned.fill(0.0);
                    }
                }
                Tensor::from_vec(w.shape().clone(), out)?
            } else {
                // 1×1 / linear layers: R-TOSS predates the 1×1 transform UPAQ
                // introduces, so these stay dense — one of the gaps the paper
                // calls out.
                w.clone()
            };
            mc.layer_mut(id)?.set_weights(new_w);
            bits.insert(id, 32);
            kinds.insert(id, SparsityKind::SemiStructured);
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
    use upaq_tensor::Shape;

    fn setup() -> (Model, CompressionContext) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 2), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 4, 8, 8));
        (
            m,
            CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 1),
        )
    }

    #[test]
    fn kernels_follow_dictionary_patterns() {
        let (m, ctx) = setup();
        let outcome = RToss::default().compress(&m, &ctx).unwrap();
        let w = outcome.model.layer(1).unwrap().weights().unwrap();
        // Every kernel has ≤3 non-zeros (pattern) or exactly 0 (connectivity).
        let data = w.as_slice();
        for k in 0..w.len() / 9 {
            let nnz = data[k * 9..(k + 1) * 9]
                .iter()
                .filter(|&&v| v != 0.0)
                .count();
            assert!(nnz == 0 || nnz <= 3, "kernel {k} has {nnz} nonzeros");
        }
    }

    #[test]
    fn connectivity_pruning_removes_kernels() {
        let (m, ctx) = setup();
        let outcome = RToss::default().compress(&m, &ctx).unwrap();
        let w = outcome.model.layer(1).unwrap().weights().unwrap();
        let data = w.as_slice();
        let empty = (0..w.len() / 9)
            .filter(|&k| data[k * 9..(k + 1) * 9].iter().all(|&v| v == 0.0))
            .count();
        let total = w.len() / 9;
        let frac = empty as f32 / total as f32;
        assert!((frac - 0.30).abs() < 0.15, "connectivity-pruned {frac}");
    }

    #[test]
    fn l2_selection_keeps_energy() {
        // Kernel with a dominant anti-diagonal: the anti-diagonal mask wins.
        let mut data = vec![0.01f32; 9];
        data[2] = 1.0; // (0,2)
        data[4] = 1.0; // (1,1)
        data[6] = 1.0; // (2,0)
        let mut out = vec![0.0; 9];
        RToss::best_mask_l2(&data, (3, 3), &entry_flags(), &mut out);
        let pruned = Tensor::from_vec(Shape::matrix(3, 3), out).unwrap();
        assert_eq!(pruned.count_nonzero(), 3);
        assert_eq!(pruned.get(&[0, 2]).unwrap(), 1.0);
        assert_eq!(pruned.get(&[1, 1]).unwrap(), 1.0);
        assert_eq!(pruned.get(&[2, 0]).unwrap(), 1.0);
    }

    #[test]
    fn no_quantization_applied() {
        // fp32 everywhere (compression comes from sparsity alone).
        let (m, ctx) = setup();
        let outcome = RToss::default().compress(&m, &ctx).unwrap();
        for id in outcome.model.weighted_layers() {
            assert_eq!(outcome.bits[&id], 32);
        }
        // Ratio near the paper's ≈4× for the 3×3-heavy model.
        let r = outcome.report.compression_ratio;
        assert!(r > 2.5 && r < 5.5, "ratio {r}");
    }

    #[test]
    fn one_by_one_layers_left_dense() {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        m.add_layer(Layer::conv2d("pfn", 4, 8, 1, 1, 0, 1), &[input])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 4, 8, 8));
        let ctx = CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 0);
        let outcome = RToss::default().compress(&m, &ctx).unwrap();
        assert_eq!(
            outcome
                .model
                .layer(1)
                .unwrap()
                .weights()
                .unwrap()
                .count_zeros(),
            0
        );
    }
}
