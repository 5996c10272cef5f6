//! Property-based tests for the tensor substrate.

mod common;
#[path = "common/conv_cases.rs"]
mod conv_cases;

use common::conv2d;
use conv_cases::{
    bits, canonical_bits, every_group_length_cases, long_run_cases, poisoned, random_frames,
    rung_shaped_cases, Case,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use upaq_tensor::ops::{conv2d_into, Conv2dParams, TensorParallel};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::quant::{fake_quantize, quantize, sqnr};
use upaq_tensor::sparse::KernelMask;
use upaq_tensor::{Shape, Tensor};

/// Thread count for the multi-threaded bit-identity legs. CI's
/// thread-sanity matrix sets `UPAQ_TEST_THREADS` to 1 and 4; locally the
/// default exercises the pool.
fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// The written-for-the-test serial oracle, following the documented
/// accumulation contract: per-`(oc, ic)` local sums over taps in kernel
/// row-major order (zeros skipped), summed in `ic` order, bias joining
/// last (and skipped entirely when zero). The one production f32 conv
/// kernel must reproduce its output bit for bit, serial or pooled.
fn naive_conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Tensor {
    let (ishape, wshape) = (input.shape(), weights.shape());
    let (in_c, h, w) = (ishape.dim(1), ishape.dim(2), ishape.dim(3));
    let (oc_n, kh, kw) = (wshape.dim(0), wshape.dim(2), wshape.dim(3));
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    let (idata, wdata) = (input.as_slice(), weights.as_slice());
    let mut out = Tensor::zeros(Shape::nchw(1, oc_n, oh, ow));
    let odata = out.as_mut_slice();
    for oc in 0..oc_n {
        let bias_v = bias.map_or(0.0, |b| b.as_slice()[oc]);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut total = 0.0f32;
                for ic in 0..in_c {
                    let mut acc = 0.0f32;
                    for r in 0..kh {
                        for c in 0..kw {
                            let wv = wdata[((oc * in_c + ic) * kh + r) * kw + c];
                            if wv == 0.0 {
                                continue;
                            }
                            let (iy, ix) = (oy * params.stride + r, ox * params.stride + c);
                            if iy < params.padding || ix < params.padding {
                                continue;
                            }
                            let (iy, ix) = (iy - params.padding, ix - params.padding);
                            if iy >= h || ix >= w {
                                continue;
                            }
                            acc += wv * idata[(ic * h + iy) * w + ix];
                        }
                    }
                    total += acc;
                }
                odata[(oc * oh + oy) * ow + ox] =
                    if bias_v != 0.0 { total + bias_v } else { total };
            }
        }
    }
    out
}

/// Kernel sizes the identity tests draw: the 1×1 pfn, neck and head
/// convs, the 3×3 backbone and a 5×5 that puts taps two cells deep into
/// the padding.
fn kernel_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(3), Just(5)]
}

fn small_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..64)
}

/// Random `[oc, ic, k, k]` weights pruned by one seeded mask that every
/// kernel shares: tap `t = r·k + c` is kept when bit `t mod 61` of `seed`
/// is set and, for each of the `seed >> 62` further draws `d` (0–3), so
/// is bit `(t + 17·d) mod 61`. A case keeps about ½, ¼, ⅛ or 1/16 of its
/// taps, so groups of 1–3 taps occur at k = 3 and 5, not only at k = 1.
fn masked_weights(oc: usize, ic: usize, k: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let dense = Tensor::uniform(Shape::nchw(oc, ic, k, k), -0.8, 0.8, &mut rng);
    let bit = |t: usize| (seed >> (t % 61)) & 1 == 1;
    let keep: Vec<bool> = (0..k * k)
        .map(|t| (0..=(seed >> 62) as usize).all(|d| bit(t + 17 * d)))
        .collect();
    let data = dense.as_slice();
    Tensor::from_fn(dense.shape().clone(), |i| {
        if keep[i % (k * k)] {
            data[i]
        } else {
            0.0
        }
    })
}

proptest! {
    #[test]
    fn shape_offset_unravel_roundtrip(dims in prop::collection::vec(1usize..6, 1..4)) {
        let shape = Shape::new(dims);
        for off in 0..shape.volume() {
            let idx = shape.unravel(off).unwrap();
            prop_assert_eq!(shape.offset(&idx).unwrap(), off);
        }
    }

    #[test]
    fn add_is_commutative(data in small_vec()) {
        let n = data.len();
        let a = Tensor::from_vec(Shape::vector(n), data.clone()).unwrap();
        let b = Tensor::from_vec(Shape::vector(n), data.iter().rev().copied().collect()).unwrap();
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn quantize_dequantize_error_bounded(data in small_vec(), bits in 4u8..=16) {
        let (scale, codes) = quantize(&data, bits).unwrap();
        let err = data
            .iter()
            .zip(&codes)
            .map(|(&x, &c)| (x - c as f32 * scale).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(err <= scale * 0.5 + 1e-4);
    }

    #[test]
    fn quantization_preserves_sign(data in small_vec()) {
        let mut recon = data.clone();
        fake_quantize(&mut recon, 8).unwrap();
        for (orig, rec) in data.iter().zip(&recon) {
            // Sign may only flip through rounding to zero.
            if *rec != 0.0 {
                prop_assert!(orig.signum() == rec.signum());
            }
        }
    }

    #[test]
    fn sqnr_monotone_in_bits(data in prop::collection::vec(-5.0f32..5.0, 32..256)) {
        let t = Tensor::from_vec(Shape::vector(data.len()), data).unwrap();
        // Skip degenerate all-equal inputs where variance is ~0.
        prop_assume!(t.variance() > 1e-3);
        let fake_sqnr = |bits| {
            let mut q = t.clone();
            fake_quantize(q.as_mut_slice(), bits).unwrap();
            sqnr(&t, &q).unwrap()
        };
        let (s4, s12) = (fake_sqnr(4), fake_sqnr(12));
        prop_assert!(s12 >= s4);
    }

    #[test]
    fn mask_apply_never_increases_nonzeros(
        data in prop::collection::vec(-1.0f32..1.0, 9..=9),
        keep in prop::collection::vec(any::<bool>(), 9..=9),
    ) {
        let kernel = Tensor::from_vec(Shape::matrix(3, 3), data).unwrap();
        let positions: Vec<(usize, usize)> = keep
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| (i / 3, i % 3))
            .collect();
        let mask = KernelMask::from_positions(3, &positions);
        let pruned = mask.apply(&kernel).unwrap();
        prop_assert!(pruned.count_nonzero() <= kernel.count_nonzero());
        prop_assert!(pruned.count_nonzero() <= mask.kept());
    }

    #[test]
    fn sparsity_in_unit_interval(data in small_vec()) {
        let t = Tensor::from_vec(Shape::vector(data.len()), data).unwrap();
        let s = t.sparsity();
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in prop::collection::vec(-2.0f32..2.0, 4..=4),
        b in prop::collection::vec(-2.0f32..2.0, 4..=4),
        c in prop::collection::vec(-2.0f32..2.0, 4..=4),
    ) {
        let ma = Tensor::from_vec(Shape::matrix(2, 2), a).unwrap();
        let mb = Tensor::from_vec(Shape::matrix(2, 2), b).unwrap();
        let mc = Tensor::from_vec(Shape::matrix(2, 2), c).unwrap();
        let lhs = ma.matmul(&mb.add(&mc).unwrap()).unwrap();
        let rhs = ma.matmul(&mb).unwrap().add(&ma.matmul(&mc).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
    }
}

// ---------------------------------------------------------------------------
// Bit-identity regression suite: the f32 conv kernel — on freshly packed
// weights and on weights packed once into a reused output, serial and
// on the persistent pool — must reproduce the serial naive oracle bit for
// bit.
//
// These tests mutate the process-wide `TensorParallel` thread count. That
// is safe even under cargo's parallel test threads because the property
// under test *is* thread-count independence: whatever setting another
// test leaves behind mid-leg, the output bits may not change. CI runs the
// whole binary under `UPAQ_TEST_THREADS` 1 and 4 to pin both regimes.
// ---------------------------------------------------------------------------

/// Runs the f32 conv on one operand set at 1 and [`test_threads`] threads
/// — through the allocating helper, and through [`conv2d_into`] over
/// weights packed once into a poisoned reused output — and checks each
/// output against `oracle` through `key` (raw bits, or NaN-canonical bits
/// for poisoned inputs).
fn assert_every_conv_path(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    oracle: &Tensor,
    key: fn(&Tensor) -> Vec<u32>,
) {
    let want = key(oracle);
    let packed = PackedConv::pack(weights).unwrap();
    let geometry = format!(
        "in {:?} w {:?} {params:?}",
        input.shape().dims(),
        weights.shape().dims()
    );
    for t in [1usize, test_threads()] {
        TensorParallel::set_threads(t);

        let got = conv2d(input, weights, bias, params).unwrap();
        assert_eq!(key(&got), want, "conv2d t={t} {geometry}");

        let mut out = Tensor::full(got.shape().clone(), f32::NAN);
        conv2d_into(input, &packed, bias, params, &mut out).unwrap();
        assert_eq!(key(&out), want, "conv2d_into t={t} {geometry}");
    }
    TensorParallel::set_threads(1);
}

proptest! {
    #[test]
    fn conv2d_bit_identical_across_modes_packing_and_threads(
        ic in 1usize..4,
        oc in 1usize..10,
        k in kernel_size(),
        h in 1usize..9,
        w in 1usize..9,
        pad in 0usize..4,
        stride in 1usize..4,
        with_bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let input = random_frames(1, ic, h, w, seed).pop().unwrap();
        let weights = masked_weights(oc, ic, k, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        let bias = with_bias.then(|| Tensor::uniform(Shape::vector(oc), -0.5, 0.5, &mut rng));
        let params = Conv2dParams { stride, padding: pad };
        let oracle = naive_conv2d(&input, &weights, bias.as_ref(), params);
        assert_every_conv_path(&input, &weights, bias.as_ref(), params, &oracle, bits);
    }

    #[test]
    fn conv2d_on_poisoned_inputs_matches_oracle_up_to_nan_payloads(
        ic in 1usize..4,
        oc in 1usize..10,
        k in kernel_size(),
        h in 1usize..9,
        w in 1usize..9,
        pad in 0usize..4,
        stride in 1usize..4,
        with_bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let input = poisoned(&random_frames(1, ic, h, w, seed).pop().unwrap(), seed);
        // Subnormal and negative-zero weights are finite, so they pack.
        let weights = poisoned(&masked_weights(oc, ic, k, seed), seed ^ 0x2545_f491)
            .map(|v| if v.is_finite() { v } else { f32::MIN_POSITIVE / 2.0 });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        let bias = with_bias.then(|| Tensor::uniform(Shape::vector(oc), -0.5, 0.5, &mut rng));
        let params = Conv2dParams { stride, padding: pad };
        let oracle = naive_conv2d(&input, &weights, bias.as_ref(), params);
        assert_every_conv_path(&input, &weights, bias.as_ref(), params, &oracle, canonical_bits);
    }
}

/// Runs `case` through every conv path (see [`assert_every_conv_path`])
/// against [`naive_conv2d`].
fn assert_case_matches_oracle(case: &Case) {
    let bias = case.bias.as_ref();
    let oracle = naive_conv2d(&case.input, &case.weights, bias, case.params);
    assert_every_conv_path(
        &case.input,
        &case.weights,
        bias,
        case.params,
        &oracle,
        case.key,
    );
}

/// One layer with `(oc, ic)` groups of every length from 0 to `k²`, for
/// k ∈ {1, 3, 5}, over strides 1–3 and paddings 0–2, on clean and
/// poisoned inputs, through every conv path at 1 and
/// [`test_threads`] threads (see [`every_group_length_cases`]).
#[test]
fn conv2d_matches_oracle_on_every_group_length() {
    for case in every_group_length_cases() {
        assert_case_matches_oracle(&case);
    }
}

/// Layers shaped like a UPAQ rung: 9 output channels, so two blocks of
/// four whose kernels mostly share one tap set and a ragged tail of one,
/// for k ∈ {1, 3, 5} and tap sets of every size the pass rule branches
/// on, over strides 1–3 and paddings 0–2, through every conv path at 1
/// and [`test_threads`] threads. The poisoned inputs put ±inf exactly
/// where a lacking kernel's missing tap would read: a kernel that
/// multiplied the missing tap's zero weight there would produce
/// `0·inf = NaN` where the oracle skips the tap (see
/// [`rung_shaped_cases`]).
#[test]
fn conv2d_matches_oracle_on_rung_shaped_layers() {
    for case in rung_shaped_cases() {
        assert_case_matches_oracle(&case);
    }
}

/// Output runs longer than one 1,024-position stripe, which the other
/// conv tests never reach: 40×40 inputs, rung-shaped and dense weights,
/// through every conv path at 1 and [`test_threads`] threads (see
/// [`long_run_cases`]).
#[test]
fn conv2d_matches_oracle_on_runs_longer_than_a_stripe() {
    for case in long_run_cases() {
        assert_case_matches_oracle(&case);
    }
}

/// Every geometry the property tests draw from, swept exhaustively on
/// one seeded operand set each: k ∈ {1, 3, 5}, stride 1–3, padding 0–3
/// and inputs from 1×1 to 7×7 (many with an empty output), clean and
/// poisoned.
#[test]
fn conv2d_matches_oracle_on_every_small_geometry() {
    let mut seed = 0u64;
    for k in [1usize, 3, 5] {
        for stride in 1..=3 {
            for padding in 0..=3 {
                for h in 1..=7 {
                    for w in 1..=7 {
                        seed += 1;
                        let params = Conv2dParams { stride, padding };
                        let input = random_frames(1, 2, h, w, seed).pop().unwrap();
                        let weights = masked_weights(2, 2, k, seed.wrapping_mul(0x9e37_79b9));
                        let mut rng = StdRng::seed_from_u64(seed);
                        let bias = Tensor::uniform(Shape::vector(2), -0.5, 0.5, &mut rng);
                        let oracle = naive_conv2d(&input, &weights, Some(&bias), params);
                        let got = conv2d(&input, &weights, Some(&bias), params).unwrap();
                        assert_eq!(bits(&got), bits(&oracle), "k {k} {params:?} {h}x{w}");

                        let input = poisoned(&input, seed);
                        let oracle = naive_conv2d(&input, &weights, None, params);
                        let got = conv2d(&input, &weights, None, params).unwrap();
                        assert_eq!(
                            canonical_bits(&got),
                            canonical_bits(&oracle),
                            "poisoned k {k} {params:?} {h}x{w}"
                        );
                    }
                }
            }
        }
    }
}
