//! The 1×1 kernel transformation of **Algorithm 5** of the paper.
//!
//! 1×1 convolutions are abundant in pointcloud detectors (the Pillar
//! Feature Network is built from them) yet have no spatial structure for a
//! pattern to grip. Algorithm 5 therefore *transforms* them: flatten the
//! layer's 1×1 weights, regroup consecutive runs of `k²` values into
//! virtual `k × k` kernels, prune those with a generated pattern, quantize,
//! and flatten back. A ragged tail shorter than `k²` is zeroed, exactly as
//! the paper's pseudocode does (`temp_array.append(t1=0)`). The pruning
//! and quantization are the k×k search's: [`crate::kxk::compress_group`]
//! runs a 1×1 group at the virtual kernel size.

use crate::pattern::Pattern;
use upaq_tensor::Tensor;

/// Applies a virtual-kernel pattern to a flattened weight tensor: each
/// consecutive run of `dim²` weights is treated as a row-major `dim × dim`
/// kernel and masked by `pattern`; any ragged tail is zeroed. On the
/// `[out_c, in_c, dim, dim]` weights of a `dim × dim` convolution the runs
/// are exactly its kernels, so this masks k×k groups too.
///
/// This is the dense form of the masking: the search itself keeps only
/// each kernel's surviving weights, and holds itself to a whole-tensor
/// reference built on this function.
///
/// Returns a tensor with the original shape.
pub fn apply_virtual_pattern(weights: &Tensor, pattern: &Pattern) -> Tensor {
    let k = pattern.dim();
    let k2 = k * k;
    let mask = pattern.mask();
    let mut out = weights.clone();
    let data = out.as_mut_slice();
    let full_chunks = data.len() / k2;
    for chunk in 0..full_chunks {
        let base = chunk * k2;
        for j in 0..k2 {
            if !mask.is_kept(j / k, j % k) {
                data[base + j] = 0.0;
            }
        }
    }
    // Ragged tail: Algorithm 5 line 12 zeroes incomplete groups.
    for v in data.iter_mut().skip(full_chunks * k2) {
        *v = 0.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpaqConfig;
    use crate::kxk::compress_group;
    use crate::pattern::pattern_of_kind;
    use crate::pattern::PatternKind;
    use crate::score::ScoreContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use upaq_hwmodel::exec::BitAllocation;
    use upaq_hwmodel::DeviceProfile;
    use upaq_nn::{Layer, Model};
    use upaq_tensor::Shape;

    #[test]
    fn virtual_pattern_masks_chunks() {
        // 18 weights = two full 3×3 virtual kernels.
        let w = Tensor::from_vec(
            Shape::nchw(18, 1, 1, 1),
            (1..=18).map(|i| i as f32).collect(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = pattern_of_kind(PatternKind::MainDiagonal, 3, 3, &mut rng);
        let out = apply_virtual_pattern(&w, &p);
        // Diagonal of a row-major 3×3 keeps flat indices 0, 4, 8 per chunk.
        let kept: Vec<usize> = out
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(kept, vec![0, 4, 8, 9, 13, 17]);
    }

    #[test]
    fn ragged_tail_zeroed() {
        // 11 weights: one full 3×3 chunk + 2-weight tail (zeroed).
        let w = Tensor::from_vec(Shape::nchw(11, 1, 1, 1), vec![1.0; 11]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let p = pattern_of_kind(PatternKind::MainDiagonal, 3, 3, &mut rng);
        let out = apply_virtual_pattern(&w, &p);
        assert_eq!(out.as_slice()[9], 0.0);
        assert_eq!(out.as_slice()[10], 0.0);
        assert_eq!(out.count_nonzero(), 3);
    }

    #[test]
    fn compresses_pfn_style_group() {
        let mut m = Model::new("pfn");
        let input = m.add_input("in", 9);
        let c1 = m
            .add_layer(Layer::conv2d("pfn0", 9, 16, 1, 1, 0, 1), &[input])
            .unwrap();
        m.add_layer(Layer::conv2d("pfn1", 16, 16, 1, 1, 0, 2), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 9, 8, 8));
        let ctx = ScoreContext::new(DeviceProfile::jetson_orin_nano(), shapes, &m, 0.3, 0.4, 0.3)
            .unwrap();
        let groups = upaq_nn::group::preprocess(&m);
        let members = groups.members(groups.roots()[0]).unwrap().to_vec();
        assert_eq!(members.len(), 2);
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = UpaqConfig::lck();
        let choice = compress_group(
            &mut m,
            &members,
            cfg.virtual_kernel,
            &cfg,
            &ctx,
            &mut bits,
            &mut kinds,
            &mut rng,
        )
        .unwrap();
        assert!(cfg.quant_bits.contains(&choice.bits));
        // Sparsity near 1 − n/k² (up to the ragged tail).
        for &id in &members {
            let w = m.layer(id).unwrap().weights().unwrap();
            let sparsity = w.sparsity();
            let expected = 1.0 - cfg.nonzeros as f32 / 9.0;
            assert!(
                (sparsity - expected).abs() < 0.1,
                "sparsity {sparsity} far from {expected}"
            );
        }
    }

    #[test]
    fn dynamic_adjustment_beats_naive_fixed_quantization() {
        // The paper's motivation for Algorithm 5: naively quantizing 1×1
        // layers at the most aggressive bitwidth hurts; the E_s search keeps
        // more fidelity when SQNR matters. With α=1 (pure SQNR weighting)
        // the search must pick the highest bitwidth.
        let mut m = Model::new("pfn");
        let input = m.add_input("in", 9);
        m.add_layer(Layer::conv2d("pfn0", 9, 16, 1, 1, 0, 1), &[input])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 9, 8, 8));
        let ctx = ScoreContext::new(DeviceProfile::jetson_orin_nano(), shapes, &m, 1.0, 0.0, 0.0)
            .unwrap();
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = UpaqConfig {
            quant_bits: vec![4, 16],
            ..UpaqConfig::lck()
        };
        let choice = compress_group(
            &mut m,
            &[1],
            cfg.virtual_kernel,
            &cfg,
            &ctx,
            &mut bits,
            &mut kinds,
            &mut rng,
        )
        .unwrap();
        assert_eq!(choice.bits, 16, "pure-SQNR weighting must choose 16-bit");
    }
}
