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
//!
//! Each candidate pays only for what it changes. Every member is masked and
//! L1-rescaled once per pattern, keeping only the weights the pattern keeps
//! in each full kernel: pruned taps and the ragged tail are `+0.0` and stay
//! `+0.0` through the rescale and through any finite kernel grid, so each
//! bitwidth quantizes the kept weights alone. The model is priced once per
//! group, and a candidate re-prices only its members' rows from the
//! non-zero counts its quantization leaves. Dense tensors are built only
//! for the root's SQNR and, once, for the winner's weights. The result is
//! raw-bit identical to quantizing and pricing whole tensors per candidate,
//! which the oracle test checks.
//!
//! [`apply_virtual_pattern`]: crate::one_by_one::apply_virtual_pattern

use crate::config::UpaqConfig;
use crate::pattern::{generate_candidates_from, Pattern};
use crate::score::ScoreContext;
use crate::{Result, UpaqError};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use upaq_hwmodel::exec::{BitAllocation, SparsityKind};
use upaq_nn::{LayerId, Model};
use upaq_tensor::quant::{fake_quantize, sqnr, Grid};
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

/// L1 mass of one kernel.
fn l1(kernel: &[f32]) -> f32 {
    kernel.iter().map(|w| w.abs()).sum()
}

/// Rescales the surviving weights of one kernel so their L1 mass matches
/// `orig_l1`, the unpruned kernel's (bounded to avoid blowing up
/// nearly-empty kernels).
///
/// This is UPAQ's accuracy-retention mechanism ("dynamically adjusting the
/// kernel weights … preserving accuracy during the detection phase"):
/// without it, pattern pruning attenuates every activation by roughly the
/// pruned mass fraction, and the error compounds through deep ReLU stacks.
/// The baselines deliberately do not do this — the paper's critique of
/// R-TOSS is precisely that its L2-selected masks do not preserve critical
/// feature magnitudes.
///
/// Pruned taps may be passed as `+0.0` or left out: they add nothing to a
/// sum of magnitudes, and the gain (at least 1, since a kernel's survivors
/// never outweigh it) keeps them `+0.0`.
fn rescale(kept: &mut [f32], orig_l1: f32) {
    let kept_l1 = l1(kept);
    if kept_l1 <= 1e-12 || orig_l1 <= 1e-12 {
        return;
    }
    let gain = (orig_l1 / kept_l1).min(2.5);
    for w in kept {
        *w *= gain;
    }
}

/// The row-major in-kernel indices `pattern` keeps, ascending.
fn kept_taps(pattern: &Pattern) -> Vec<usize> {
    let k = pattern.dim();
    let mask = pattern.mask();
    (0..k * k).filter(|&j| mask.is_kept(j / k, j % k)).collect()
}

/// Masks every full `k2`-weight kernel of `weights` with `taps` and
/// rescales its survivors to `kernel_l1`, the kernels' unpruned L1 masses.
/// Returns the kept weights, `taps.len()` per kernel, kernel after kernel;
/// the ragged tail, which Algorithm 5 zeroes, keeps none.
fn mask_and_rescale(weights: &[f32], kernel_l1: &[f32], taps: &[usize], k2: usize) -> Vec<f32> {
    let mut kept = Vec::with_capacity(kernel_l1.len() * taps.len());
    for (kernel, &orig_l1) in weights.chunks_exact(k2).zip(kernel_l1) {
        let start = kept.len();
        kept.extend(taps.iter().map(|&j| kernel[j]));
        rescale(&mut kept[start..], orig_l1);
    }
    kept
}

/// The dense `len`-weight layout of a member's kept weights: each full
/// kernel's survivors at their taps, every other weight `+0.0`.
fn scatter(kept: &[f32], taps: &[usize], k2: usize, len: usize) -> Vec<f32> {
    let mut dense = vec![0.0; len];
    for (kernel, values) in dense
        .chunks_exact_mut(k2)
        .zip(kept.chunks_exact(taps.len()))
    {
        for (&j, &x) in taps.iter().zip(values) {
            kernel[j] = x;
        }
    }
    dense
}

/// [`scatter`], fake-quantized **per kernel**: every full `k2`-weight
/// kernel on its own `bits`-bit symmetric grid.
///
/// Granularity matters: the paper's Algorithms 4 and 5 quantize individual
/// (virtual) kernels, so every kernel gets its own symmetric scale. A
/// single per-tensor scale would zero out low-magnitude kernels wholesale
/// and inflate sparsity artificially.
///
/// Pruned taps do not move a kernel's grid (`α = max|x|` over `+0.0`s is
/// the kept weights' α) and, on a finite non-zero grid, restore to `+0.0`,
/// so only the kept weights are quantized there. A zero scale (the
/// kernel's largest weight is subnormal) or an infinite one (its rescale
/// overflowed) is applied to the whole kernel, pruned taps included. The
/// ragged tail stays `+0.0`, as an all-zero run's unit grid leaves it.
fn quantize_scattered(
    kept: &[f32],
    taps: &[usize],
    k2: usize,
    len: usize,
    bits: u8,
) -> Result<Vec<f32>> {
    let mut dense = scatter(kept, taps, k2, len);
    for (kernel, values) in dense
        .chunks_exact_mut(k2)
        .zip(kept.chunks_exact(taps.len()))
    {
        let grid = Grid::of(values, bits)?;
        if grid.scale > 0.0 && grid.scale.is_finite() {
            for &j in taps {
                kernel[j] = grid.code(kernel[j]) as f32 * grid.scale;
            }
        } else {
            fake_quantize(kernel, bits)?;
        }
    }
    Ok(dense)
}

/// The non-zero count of a member's weights after
/// [`quantize_scattered`], from its kept weights alone (`per_kernel` per
/// `k2`-weight kernel).
fn survivors(kept: &[f32], per_kernel: usize, k2: usize, bits: u8) -> Result<usize> {
    let mut count = 0;
    for values in kept.chunks_exact(per_kernel) {
        let grid = Grid::of(values, bits)?;
        count += if grid.scale > 0.0 && grid.scale.is_finite() {
            // Pruned taps restore to +0.0. A kept weight keeps a non-zero
            // code iff |x / scale| rounds away from 0 (`round` breaks ties
            // away from zero), and a non-zero code restores to at least one
            // scale; so this needs no rounding call. A NaN quotient codes
            // to 0 and fails the test too.
            values
                .iter()
                .filter(|&&x| (x / grid.scale).abs() >= 0.5)
                .count()
        } else {
            // A zero scale (the kernel's largest weight is subnormal) or an
            // infinite one (its rescale overflowed): apply the grid as is,
            // to the pruned taps too.
            let nonzero = |x: f32| grid.code(x) as f32 * grid.scale != 0.0;
            values.iter().filter(|&&x| nonzero(x)).count()
                + usize::from(nonzero(0.0)) * (k2 - per_kernel)
        };
    }
    Ok(count)
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
    let k2 = dim * dim;
    let originals = members
        .iter()
        .map(|&id| {
            Ok(model
                .layer(id)?
                .weights()
                .expect("group members are weighted"))
        })
        .collect::<Result<Vec<&Tensor>>>()?;
    let kernel_l1s: Vec<Vec<f32>> = originals
        .iter()
        .map(|w| w.as_slice().chunks_exact(k2).map(l1).collect())
        .collect();

    // Price the model as it stands; a candidate changes only the members'
    // weights, bitwidths and sparsity kinds, so it overwrites only their
    // rows.
    let mut pricing = ctx.price(model, bits_alloc, kinds)?;
    let rows: Vec<usize> = members
        .iter()
        .map(|&id| pricing.row(id).expect("every layer is priced"))
        .collect();

    let candidates = generate_candidates_from(
        &config.pattern_kinds,
        config.nonzeros,
        dim,
        config.patterns_per_group,
        rng,
    );
    let root = originals[0];
    let mut best: Option<KernelChoice> = None;

    for pattern in &candidates {
        // Apply the candidate to the whole group (the paper replicates the
        // root's pattern onto the leaf kernels); the score weighs the
        // root's SQNR.
        let taps = kept_taps(pattern);
        let kept: Vec<Vec<f32>> = originals
            .iter()
            .zip(&kernel_l1s)
            .map(|(w, l1s)| mask_and_rescale(w.as_slice(), l1s, &taps, k2))
            .collect();
        let root_pruned = Tensor::from_vec(
            root.shape().clone(),
            scatter(&kept[0], &taps, k2, root.len()),
        )?;
        for &bits in &config.quant_bits {
            let root_restored = Tensor::from_vec(
                root.shape().clone(),
                quantize_scattered(&kept[0], &taps, k2, root.len(), bits)?,
            )?;
            let root_sqnr = sqnr(&root_pruned, &root_restored)?;
            for (&row, member) in rows.iter().zip(&kept) {
                let nonzeros = survivors(member, taps.len(), k2, bits)?;
                pricing.set(row, bits, SparsityKind::SemiStructured, nonzeros);
            }
            let score = ctx.efficiency_score(root_sqnr, &ctx.estimate(&pricing));
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
    let taps = kept_taps(&choice.pattern);
    let winners = originals
        .iter()
        .zip(&kernel_l1s)
        .map(|(w, l1s)| {
            let kept = mask_and_rescale(w.as_slice(), l1s, &taps, k2);
            let dense = quantize_scattered(&kept, &taps, k2, w.len(), choice.bits)?;
            Ok(Tensor::from_vec(w.shape().clone(), dense)?)
        })
        .collect::<Result<Vec<Tensor>>>()?;
    for (&id, weights) in members.iter().zip(winners) {
        model.layer_mut(id)?.set_weights(weights);
        bits_alloc.insert(id, choice.bits);
        kinds.insert(id, SparsityKind::SemiStructured);
    }
    Ok(choice)
}

/// The reference the oracle test holds [`compress_group`] to: per
/// candidate, mask, rescale and quantize every member's whole tensor, write
/// it into the model and price the whole model.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::one_by_one::apply_virtual_pattern;

    /// Applies a pattern to every `dim × dim` kernel of `weights`, rescales
    /// each kernel's survivors, then quantizes per kernel, returning the
    /// pruned-and-rescaled weights and their restored quantization — the
    /// pair Algorithm 6's SQNR compares.
    fn mask_and_quantize(
        weights: &Tensor,
        pattern: &Pattern,
        bits: u8,
    ) -> Result<(Tensor, Tensor)> {
        let k2 = pattern.dim() * pattern.dim();
        let mut pruned = apply_virtual_pattern(weights, pattern);
        let mut restored = weights.clone();
        for ((kernel, original), out) in pruned
            .as_mut_slice()
            .chunks_mut(k2)
            .zip(weights.as_slice().chunks(k2))
            .zip(restored.as_mut_slice().chunks_mut(k2))
        {
            rescale(kernel, l1(original));
            out.copy_from_slice(kernel);
            fake_quantize(out, bits)?;
        }
        Ok((pruned, restored))
    }

    /// [`compress_group`] candidate by candidate on whole tensors.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn compress_group(
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
            .map(|&id| (id, model.layer(id).unwrap().weights().unwrap().clone()))
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
        for &id in members {
            let (_, restored) = mask_and_quantize(&originals[&id], &choice.pattern, choice.bits)?;
            model.layer_mut(id)?.set_weights(restored);
            bits_alloc.insert(id, choice.bits);
            kinds.insert(id, SparsityKind::SemiStructured);
        }
        Ok(choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
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

    /// A weight for the oracle test from one of five per-kernel regimes:
    /// ordinary weights; subnormals, whose kernel's scale can underflow to
    /// zero; one large weight beside ones that quantize to zero; powers of
    /// two too small to be rescaled, where half the kernel's largest weight
    /// sits exactly on a rounding tie at 2 bits; and weights near
    /// `f32::MAX`, whose rescale can overflow. Every regime also draws ±0.0.
    fn edge_weight(regime: u32, rng: &mut StdRng) -> f32 {
        let sign = if rng.gen_range(0u32..2) == 0 {
            1.0
        } else {
            -1.0
        };
        let magnitude = match (regime, rng.gen_range(0u32..8)) {
            (_, 0) => 0.0,
            (0, _) => rng.gen_range(0.0f32..1.0),
            (1, _) => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            (2, 1) => rng.gen_range(0.5f32..1.0),
            (2, _) => rng.gen_range(0.0f32..1e-4),
            (3, _) => 2f32.powi(-rng.gen_range(42i32..=45)),
            _ => rng.gen_range(1e38f32..f32::MAX),
        };
        sign * magnitude
    }

    /// A chain of `members` convs (kernel `kernel`) and one more conv
    /// outside the group, with edge-case weights drawn per `dim × dim`
    /// (virtual) kernel; returns the model, the member ids, the outside
    /// layer's id and the input shapes.
    fn oracle_model(
        members: usize,
        kernel: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> (Model, Vec<LayerId>, LayerId, HashMap<String, Shape>) {
        let mut m = Model::new("oracle");
        let mut channels = rng.gen_range(1usize..=4);
        let mut prev = m.add_input("in", channels);
        let mut ids = Vec::new();
        for i in 0..=members {
            let out = rng.gen_range(1usize..=5);
            let layer = Layer::conv2d(format!("c{i}"), channels, out, kernel, 1, kernel / 2, 0);
            prev = m.add_layer(layer, &[prev]).unwrap();
            ids.push(prev);
            channels = out;
        }
        for &id in &ids {
            let shape = m.layer(id).unwrap().weights().unwrap().shape().clone();
            let k2 = dim * dim;
            let regimes: Vec<u32> = (0..shape.volume().div_ceil(k2))
                .map(|_| [0, 0, 1, 1, 2, 2, 3, 3, 4][rng.gen_range(0usize..9)])
                .collect();
            let data = (0..shape.volume())
                .map(|i| edge_weight(regimes[i / k2], rng))
                .collect();
            let weights = Tensor::from_vec(shape, data).unwrap();
            m.layer_mut(id).unwrap().set_weights(weights);
        }
        let outside = ids.pop().unwrap();
        let input_channels = m.layer(ids[0]).unwrap().weights().unwrap().shape().dim(1);
        let shapes = HashMap::from([("in".to_string(), Shape::nchw(1, input_channels, 6, 6))]);
        (m, ids, outside, shapes)
    }

    fn raw_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn estimate_bits(e: &upaq_hwmodel::latency::Estimate) -> Vec<u64> {
        let mut bits = vec![e.latency_s.to_bits(), e.energy_j.to_bits()];
        bits.extend(e.per_layer_s.iter().map(|t| t.to_bits()));
        bits
    }

    proptest! {
        /// The search equals its whole-tensor, whole-model reference raw
        /// bit for raw bit, on k×k groups at 2, 3 and 5 and on 1×1 groups
        /// at virtual kernel 2 and 3 (whose runs leave ragged tails).
        #[test]
        fn search_matches_whole_tensor_reference(
            members in 1usize..=3,
            // Half the widths are 2 bits, where the tie regime's ties fall.
            quant_bits in prop::collection::vec(prop_oneof![Just(2u8), 2u8..=16], 1..=3),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // (conv kernel, search dim)
            for (kernel, dim) in [(2, 2), (3, 3), (5, 5), (1, 2), (1, 3)] {
                let (model, ids, outside, shapes) = oracle_model(members, kernel, dim, &mut rng);
                let ctx = ScoreContext::new(
                    DeviceProfile::jetson_orin_nano(),
                    shapes,
                    &model,
                    rng.gen_range(0.0..=1.0),
                    rng.gen_range(0.0..=1.0),
                    rng.gen_range(0.0..=1.0),
                )
                .unwrap();
                let config = UpaqConfig {
                    nonzeros: rng.gen_range(1..=dim),
                    quant_bits: quant_bits.clone(),
                    patterns_per_group: rng.gen_range(1usize..=4),
                    virtual_kernel: dim,
                    ..UpaqConfig::hck()
                };
                // A layer compressed earlier, outside the group.
                let mut bits = BitAllocation::from([(outside, rng.gen_range(2u8..=16))]);
                let mut kinds = HashMap::from([(outside, SparsityKind::Unstructured)]);
                let (pre_bits, pre_kinds) = (bits.clone(), kinds.clone());
                let mut ref_model = model.deep_copy();
                let (mut ref_bits, mut ref_kinds) = (bits.clone(), kinds.clone());
                let search_seed = rng.gen_range(0u64..u64::MAX);

                let mut fast_model = model.deep_copy();
                let fast = compress_group(
                    &mut fast_model, &ids, dim, &config, &ctx, &mut bits, &mut kinds,
                    &mut StdRng::seed_from_u64(search_seed),
                )
                .unwrap();
                let want = reference::compress_group(
                    &mut ref_model, &ids, dim, &config, &ctx, &mut ref_bits, &mut ref_kinds,
                    &mut StdRng::seed_from_u64(search_seed),
                )
                .unwrap();

                let case = format!("kernel {kernel}, dim {dim}, seed {seed}");
                prop_assert_eq!(&fast.pattern, &want.pattern, "{}", case);
                prop_assert_eq!(fast.bits, want.bits, "{}", case);
                prop_assert_eq!(fast.score.to_bits(), want.score.to_bits(), "{}", case);
                prop_assert_eq!(fast.sqnr.to_bits(), want.sqnr.to_bits(), "{}", case);
                for id in model.weighted_layers() {
                    let got = fast_model.layer(id).unwrap().weights().unwrap();
                    let exp = ref_model.layer(id).unwrap().weights().unwrap();
                    prop_assert_eq!(raw_bits(got), raw_bits(exp), "{}: layer {}", case, id);
                }
                prop_assert_eq!(&bits, &ref_bits, "{}", case);
                prop_assert_eq!(&kinds, &ref_kinds, "{}", case);

                // Re-pricing the members' rows of the model as it was equals
                // pricing the whole compressed model.
                let mut pricing = ctx.price(&model, &pre_bits, &pre_kinds).unwrap();
                for &id in &ids {
                    let nonzeros = fast_model.layer(id).unwrap().weights().unwrap().count_nonzero();
                    let row = pricing.row(id).unwrap();
                    pricing.set(row, fast.bits, SparsityKind::SemiStructured, nonzeros);
                }
                let whole = ctx.estimate_candidate(&fast_model, &bits, &kinds).unwrap();
                prop_assert_eq!(
                    estimate_bits(&ctx.estimate(&pricing)),
                    estimate_bits(&whole),
                    "{}",
                    case
                );
            }
        }
    }
}
