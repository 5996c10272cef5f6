//! Property-based tests for the UPAQ compression invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use upaq::one_by_one::apply_virtual_pattern;
use upaq::pattern::{generate_pattern, pattern_of_kind, PatternKind};
use upaq_tensor::quant::{fake_quantize, sqnr};
use upaq_tensor::{Shape, Tensor};

/// A kernel and its fake-quantized restoration at `bits` bits.
fn fake_quantized(data: Vec<f32>, bits: u8) -> (Tensor, Tensor) {
    let t = Tensor::from_vec(Shape::vector(data.len()), data).unwrap();
    let mut q = t.clone();
    fake_quantize(q.as_mut_slice(), bits).unwrap();
    (t, q)
}

proptest! {
    #[test]
    fn pattern_always_n_positions_in_bounds(n in 1usize..6, d in 2usize..6, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate_pattern(n, d, &mut rng);
        prop_assert_eq!(p.nonzeros(), n.min(d));
        for &(r, c) in p.positions() {
            prop_assert!(r < d && c < d);
        }
    }

    #[test]
    fn quantizer_never_increases_abs_max(data in prop::collection::vec(-5.0f32..5.0, 9..64), bits in 4u8..=16) {
        let (t, q) = fake_quantized(data, bits);
        prop_assert!(q.abs_max() <= t.abs_max() * 1.001);
    }

    #[test]
    fn quantizer_preserves_zeros(data in prop::collection::vec(-1.0f32..1.0, 9..32), bits in 4u8..=16) {
        let mut data = data;
        data[0] = 0.0;
        data[3] = 0.0;
        let (_, q) = fake_quantized(data, bits);
        prop_assert_eq!(q.as_slice()[0], 0.0);
        prop_assert_eq!(q.as_slice()[3], 0.0);
    }

    #[test]
    fn virtual_pattern_sparsity_matches(n in 1usize..4, len in 9usize..100, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = pattern_of_kind(PatternKind::MainDiagonal, n, 3, &mut rng);
        let weights = Tensor::full(Shape::nchw(len, 1, 1, 1), 1.0);
        let masked = apply_virtual_pattern(&weights, &pattern);
        // Full chunks keep exactly n weights each; the ragged tail is zeroed.
        let full_chunks = len / 9;
        prop_assert_eq!(masked.count_nonzero(), full_chunks * n.min(3));
    }

    #[test]
    fn sqnr_positive_for_nondegenerate_kernels(data in prop::collection::vec(0.1f32..1.0, 9..=9), bits in 4u8..=8) {
        let (t, q) = fake_quantized(data, bits);
        prop_assert!(sqnr(&t, &q).unwrap() > 0.0);
    }
}
