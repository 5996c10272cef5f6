//! Parallel conv2d must be bit-identical to serial execution: the channel
//! split changes scheduling only, never per-element arithmetic order.

mod common;

use common::conv2d;
use rand::rngs::StdRng;
use rand::SeedableRng;
use upaq_tensor::ops::{conv2d_into, Conv2dParams, TensorParallel};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::{Shape, Tensor};

fn case(in_c: usize, out_c: usize, h: usize, w: usize, k: usize, params: Conv2dParams, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor::uniform(Shape::nchw(1, in_c, h, w), -1.0, 1.0, &mut rng);
    let mut weights = Tensor::uniform(Shape::nchw(out_c, in_c, k, k), -0.5, 0.5, &mut rng);
    // Prune some taps so the sparsity-skipping path is exercised too.
    for (i, v) in weights.as_mut_slice().iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        }
    }
    let bias = Tensor::uniform(Shape::vector(out_c), -0.1, 0.1, &mut rng);

    TensorParallel::set_threads(1);
    let serial = conv2d(&input, &weights, Some(&bias), params).unwrap();
    for threads in [2, 3, 8, 64] {
        TensorParallel::set_threads(threads);
        let parallel = conv2d(&input, &weights, Some(&bias), params).unwrap();
        assert_eq!(
            serial.as_slice(),
            parallel.as_slice(),
            "bitwise mismatch at {threads} threads (in_c={in_c}, out_c={out_c})"
        );
    }
    TensorParallel::set_threads(1);
}

#[test]
fn parallel_conv_bitwise_matches_serial() {
    case(1, 1, 5, 5, 3, Conv2dParams::same(3), 1);
    case(3, 7, 9, 11, 3, Conv2dParams::same(3), 2);
    case(
        4,
        16,
        8,
        8,
        3,
        Conv2dParams {
            stride: 2,
            padding: 1,
        },
        3,
    );
    case(2, 5, 6, 6, 1, Conv2dParams::default(), 4);
}

#[test]
fn conv2d_into_reuses_buffer_across_calls() {
    TensorParallel::set_threads(2);
    let mut rng = StdRng::seed_from_u64(9);
    let weights = Tensor::uniform(Shape::nchw(4, 2, 3, 3), -0.5, 0.5, &mut rng);
    let packed = PackedConv::pack(&weights).unwrap();
    let mut out = Tensor::zeros(Shape::nchw(1, 4, 6, 6));
    for frame in 0..3 {
        let input = Tensor::uniform(Shape::nchw(1, 2, 6, 6), -1.0, 1.0, &mut rng);
        conv2d_into(&input, &packed, None, Conv2dParams::same(3), &mut out).unwrap();
        let fresh = conv2d(&input, &weights, None, Conv2dParams::same(3)).unwrap();
        assert_eq!(out.as_slice(), fresh.as_slice(), "frame {frame} diverged");
    }
    TensorParallel::set_threads(1);
}

#[test]
fn conv2d_into_rejects_wrong_output_shape() {
    let input = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
    let packed = PackedConv::pack(&Tensor::zeros(Shape::nchw(2, 1, 3, 3))).unwrap();
    let mut wrong = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
    assert!(conv2d_into(&input, &packed, None, Conv2dParams::default(), &mut wrong).is_err());
}
