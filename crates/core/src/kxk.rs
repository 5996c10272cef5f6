//! The per-group search — **Algorithm 4** of the paper, for both kernel
//! families.
//!
//! For one root group: draw candidate patterns (Algorithm 2), apply each to
//! every kernel of the group, quantize each kernel with each bitwidth from
//! the `quant_bit` array (Algorithm 6), score the resulting model with
//! `E_s` (Eq. 2), and keep the best `(pattern, bits)` pair — the
//! `bestfit_kernel` the paper replicates onto the group's leaf layers. A
//! k×k group searches `k × k` patterns over its kernels; a 1×1 group
//! (Algorithm 5) searches the configured virtual kernel size over the
//! runs [`apply_virtual_pattern`] regroups its weights into. On a k×k
//! layer those runs of `k²` weights are exactly its kernels, so one
//! search serves both.

use crate::config::UpaqConfig;
use crate::one_by_one::apply_virtual_pattern;
use crate::pattern::{generate_candidates_from, Pattern};
use crate::score::ScoreContext;
use crate::{Result, UpaqError};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq_hwmodel::exec::{BitAllocation, SparsityKind};
use upaq_nn::{LayerId, Model};
use upaq_tensor::quant::{fake_quantize, sqnr};
use upaq_tensor::Tensor;

/// The winning `(pattern, bits)` pair for one root group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelChoice {
    /// The selected pattern.
    pub pattern: Pattern,
    /// The selected quantization bitwidth.
    pub bits: u8,
    /// Efficiency score of the winning candidate.
    pub score: f64,
    /// Root-kernel SQNR of the winning candidate.
    pub sqnr: f32,
}

/// Applies a pattern to every `dim × dim` kernel of `weights`, rescales
/// each kernel's survivors, then quantizes **per kernel**, returning the
/// pruned-and-rescaled weights and their restored quantization — the pair
/// Algorithm 6's SQNR compares.
///
/// Granularity matters: the paper's Algorithms 4 and 5 quantize individual
/// (virtual) kernels, so every kernel gets its own symmetric scale. A
/// single per-tensor scale would zero out low-magnitude kernels wholesale
/// and inflate sparsity artificially.
fn mask_and_quantize(weights: &Tensor, pattern: &Pattern, bits: u8) -> Result<(Tensor, Tensor)> {
    let k2 = pattern.dim() * pattern.dim();
    let mut pruned = apply_virtual_pattern(weights, pattern);
    let mut restored = weights.clone();
    for ((kernel, original), out) in pruned
        .as_mut_slice()
        .chunks_mut(k2)
        .zip(weights.as_slice().chunks(k2))
        .zip(restored.as_mut_slice().chunks_mut(k2))
    {
        rescale_chunk(kernel, original);
        out.copy_from_slice(kernel);
        fake_quantize(out, bits)?;
    }
    Ok((pruned, restored))
}

/// Rescales the surviving weights of one kernel so its L1 mass matches the
/// unpruned kernel (bounded to avoid blowing up nearly-empty kernels).
///
/// This is UPAQ's accuracy-retention mechanism ("dynamically adjusting the
/// kernel weights … preserving accuracy during the detection phase"):
/// without it, pattern pruning attenuates every activation by roughly the
/// pruned mass fraction, and the error compounds through deep ReLU stacks.
/// The baselines deliberately do not do this — the paper's critique of
/// R-TOSS is precisely that its L2-selected masks do not preserve critical
/// feature magnitudes.
fn rescale_chunk(kept: &mut [f32], original: &[f32]) {
    let orig_l1: f32 = original.iter().map(|w| w.abs()).sum();
    let kept_l1: f32 = kept.iter().map(|w| w.abs()).sum();
    if kept_l1 <= 1e-12 || orig_l1 <= 1e-12 {
        return;
    }
    let gain = (orig_l1 / kept_l1).min(2.5);
    for w in kept {
        *w *= gain;
    }
}

/// Algorithm 4 over a root group whose kernels are `dim × dim` (the conv's
/// kernel size, or the virtual kernel size of a 1×1 group): mutates
/// `model`'s group weights to the best candidate and records the chosen
/// bitwidth/sparsity kind for every member.
///
/// # Errors
///
/// Returns [`UpaqError::BadConfig`] when no candidate could be scored, and
/// propagates tensor/model errors.
#[allow(clippy::too_many_arguments)]
pub fn compress_group(
    model: &mut Model,
    members: &[LayerId],
    dim: usize,
    config: &UpaqConfig,
    ctx: &ScoreContext,
    bits_alloc: &mut BitAllocation,
    kinds: &mut HashMap<LayerId, SparsityKind>,
    rng: &mut StdRng,
) -> Result<KernelChoice> {
    let root = members[0];
    let originals: HashMap<LayerId, Tensor> = members
        .iter()
        .map(|&id| {
            let w = model
                .layer(id)
                .expect("valid id")
                .weights()
                .expect("weighted")
                .clone();
            (id, w)
        })
        .collect();

    let candidates = generate_candidates_from(
        &config.pattern_kinds,
        config.nonzeros,
        dim,
        config.patterns_per_group,
        rng,
    );
    let mut best: Option<KernelChoice> = None;

    for pattern in &candidates {
        for &bits in &config.quant_bits {
            // Apply the candidate to the whole group (the paper replicates
            // the root's pattern onto the leaf kernels); the score weighs
            // the root's SQNR.
            let mut root_sqnr = f32::INFINITY;
            for &id in members {
                let (pruned, restored) = mask_and_quantize(&originals[&id], pattern, bits)?;
                if id == root {
                    root_sqnr = sqnr(&pruned, &restored)?;
                }
                model.layer_mut(id)?.set_weights(restored);
            }
            let mut cand_bits = bits_alloc.clone();
            let mut cand_kinds = kinds.clone();
            for &id in members {
                cand_bits.insert(id, bits);
                cand_kinds.insert(id, SparsityKind::SemiStructured);
            }
            let est = ctx.estimate_candidate(model, &cand_bits, &cand_kinds)?;
            let score = ctx.efficiency_score(root_sqnr, &est);
            if best.as_ref().is_none_or(|b| score > b.score) {
                best = Some(KernelChoice {
                    pattern: pattern.clone(),
                    bits,
                    score,
                    sqnr: root_sqnr,
                });
            }
        }
    }

    let choice = best.ok_or_else(|| UpaqError::BadConfig("no candidates scored".into()))?;
    // Re-apply the winner (the model currently holds the last candidate).
    for &id in members {
        let (_, restored) = mask_and_quantize(&originals[&id], &choice.pattern, choice.bits)?;
        model.layer_mut(id)?.set_weights(restored);
        bits_alloc.insert(id, choice.bits);
        kinds.insert(id, SparsityKind::SemiStructured);
    }
    Ok(choice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use upaq_hwmodel::DeviceProfile;
    use upaq_nn::group::preprocess;
    use upaq_nn::Layer;
    use upaq_tensor::Shape;

    fn setup() -> (Model, ScoreContext, StdRng) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 4);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 2), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 4, 12, 12));
        let ctx = ScoreContext::new(DeviceProfile::jetson_orin_nano(), shapes, &m, 0.3, 0.4, 0.3)
            .unwrap();
        (m, ctx, StdRng::seed_from_u64(5))
    }

    #[test]
    fn group_gets_common_pattern_and_bits() {
        let (mut m, ctx, mut rng) = setup();
        let groups = preprocess(&m);
        let root = groups.roots()[0];
        let members = groups.members(root).unwrap().to_vec();
        assert_eq!(members.len(), 2, "c1 and c2 share a root");
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        let cfg = UpaqConfig::hck();
        let choice = compress_group(
            &mut m, &members, 3, &cfg, &ctx, &mut bits, &mut kinds, &mut rng,
        )
        .unwrap();
        assert_eq!(choice.pattern.nonzeros(), 2);
        assert!(cfg.quant_bits.contains(&choice.bits));
        for &id in &members {
            assert_eq!(bits[&id], choice.bits);
            assert_eq!(kinds[&id], SparsityKind::SemiStructured);
            // Every kernel of every member carries the 2-of-9 pattern.
            let w = m.layer(id).unwrap().weights().unwrap();
            let expected_nnz_max = w.len() / 9 * 2;
            assert!(w.count_nonzero() <= expected_nnz_max);
        }
    }

    #[test]
    fn hck_sparser_than_lck() {
        let (mut m_h, ctx_h, mut rng_h) = setup();
        let groups = preprocess(&m_h);
        let members = groups.members(groups.roots()[0]).unwrap().to_vec();
        let mut b = BitAllocation::new();
        let mut k = HashMap::new();
        compress_group(
            &mut m_h,
            &members,
            3,
            &UpaqConfig::hck(),
            &ctx_h,
            &mut b,
            &mut k,
            &mut rng_h,
        )
        .unwrap();
        let hck_sparsity = m_h.sparsity();

        let (mut m_l, ctx_l, mut rng_l) = setup();
        let mut b = BitAllocation::new();
        let mut k = HashMap::new();
        compress_group(
            &mut m_l,
            &members,
            3,
            &UpaqConfig::lck(),
            &ctx_l,
            &mut b,
            &mut k,
            &mut rng_l,
        )
        .unwrap();
        assert!(hck_sparsity > m_l.sparsity());
    }

    #[test]
    fn weights_are_quantized_to_grid() {
        let (mut m, ctx, mut rng) = setup();
        let groups = preprocess(&m);
        let members = groups.members(groups.roots()[0]).unwrap().to_vec();
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        let cfg = UpaqConfig::hck();
        let choice = compress_group(
            &mut m, &members, 3, &cfg, &ctx, &mut bits, &mut kinds, &mut rng,
        )
        .unwrap();
        // Surviving weights must sit on each kernel's quantization grid
        // (scales are per-kernel — Algorithm 4 quantizes kernel by kernel).
        let w = m.layer(members[0]).unwrap().weights().unwrap();
        let levels = f64::from((1i32 << (choice.bits - 1)) - 1);
        for kernel in w.as_slice().chunks(9) {
            let max_abs = kernel.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            if max_abs == 0.0 {
                continue;
            }
            let scale = f64::from(max_abs) / levels;
            for &v in kernel {
                if v != 0.0 {
                    let q = f64::from(v) / scale;
                    assert!((q - q.round()).abs() < 1e-3, "weight {v} off-grid");
                }
            }
        }
    }
}
