//! Per-layer compression-sensitivity analysis.
//!
//! Mixed-precision quantization works because "for many models there is a
//! distinct difference in sensitivity to quantization from layer to layer"
//! (paper §III-B). This module measures that difference directly: for every
//! weighted layer it reports the SQNR of per-kernel symmetric quantization
//! at each candidate bitwidth, plus the L2 mass a pattern of `n` non-zeros
//! would retain — the two signals the efficiency-score search trades
//! against latency/energy.

use crate::Result;
use serde::{Deserialize, Serialize};
use upaq_nn::{LayerId, Model};
use upaq_tensor::quant::{fake_quantize, sqnr, sqnr_db};

/// Sensitivity record for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSensitivity {
    /// Layer id.
    pub layer: LayerId,
    /// Layer name.
    pub name: String,
    /// Total weights.
    pub weights: usize,
    /// `(bits, SQNR dB)` of per-kernel quantization at each probed width.
    pub quantization: Vec<(u8, f32)>,
    /// `(nonzeros, retained L2 fraction)` of the best-case pattern keeping
    /// the top-`n` magnitudes per 9-weight kernel.
    pub pruning: Vec<(usize, f32)>,
}

/// Probes every weighted layer of `model` at the given bitwidths and
/// pattern sizes.
///
/// # Errors
///
/// Propagates quantization errors (unsupported bitwidths).
pub fn analyze(
    model: &Model,
    bit_widths: &[u8],
    nonzeros: &[usize],
) -> Result<Vec<LayerSensitivity>> {
    let mut out = Vec::new();
    for id in model.weighted_layers() {
        let layer = model.layer(id)?;
        let weights = layer.weights().expect("weighted");
        let data = weights.as_slice();

        let mut quantization = Vec::with_capacity(bit_widths.len());
        for &bits in bit_widths {
            let mut restored = weights.clone();
            for kernel in restored.as_mut_slice().chunks_mut(9) {
                fake_quantize(kernel, bits)?;
            }
            let ratio = sqnr(weights, &restored)?;
            quantization.push((bits, sqnr_db(ratio)));
        }

        let total_l2: f32 = data.iter().map(|v| v * v).sum();
        let mut pruning = Vec::with_capacity(nonzeros.len());
        for &n in nonzeros {
            let mut kept_l2 = 0.0f32;
            for kernel in data.chunks(9) {
                let mut mags: Vec<f32> = kernel.iter().map(|v| v * v).collect();
                mags.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
                kept_l2 += mags.iter().take(n).sum::<f32>();
            }
            let frac = if total_l2 > 0.0 {
                kept_l2 / total_l2
            } else {
                1.0
            };
            pruning.push((n, frac));
        }

        out.push(LayerSensitivity {
            layer: id,
            name: layer.name().to_string(),
            weights: weights.len(),
            quantization,
            pruning,
        });
    }
    Ok(out)
}

/// The most quantization-sensitive layers: those with the lowest SQNR at
/// the narrowest probed width, ascending.
pub fn most_sensitive(records: &[LayerSensitivity], top: usize) -> Vec<&LayerSensitivity> {
    let mut refs: Vec<&LayerSensitivity> = records.iter().collect();
    refs.sort_by(|a, b| {
        let sa = a.quantization.first().map(|q| q.1).unwrap_or(f32::INFINITY);
        let sb = b.quantization.first().map(|q| q.1).unwrap_or(f32::INFINITY);
        sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
    });
    refs.truncate(top);
    refs
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_nn::Layer;

    fn model() -> Model {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 8, 8, 1, 1, 0, 2), &[c1])
            .unwrap();
        m
    }

    #[test]
    fn covers_all_weighted_layers() {
        let records = analyze(&model(), &[4, 8], &[2, 3]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].quantization.len(), 2);
        assert_eq!(records[0].pruning.len(), 2);
    }

    #[test]
    fn sqnr_improves_with_bits() {
        let records = analyze(&model(), &[4, 8, 16], &[3]).unwrap();
        for r in &records {
            assert!(r.quantization[0].1 < r.quantization[1].1, "{}", r.name);
            assert!(r.quantization[1].1 < r.quantization[2].1, "{}", r.name);
        }
    }

    #[test]
    fn retained_l2_grows_with_nonzeros() {
        let records = analyze(&model(), &[8], &[1, 2, 3, 9]).unwrap();
        for r in &records {
            let fracs: Vec<f32> = r.pruning.iter().map(|p| p.1).collect();
            assert!(fracs.windows(2).all(|w| w[0] <= w[1] + 1e-6), "{:?}", fracs);
            // Keeping all 9 retains everything.
            assert!((fracs.last().unwrap() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn most_sensitive_sorted_ascending() {
        let records = analyze(&model(), &[4], &[2]).unwrap();
        let top = most_sensitive(&records, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].quantization[0].1 <= top[1].quantization[0].1);
    }
}
