//! Criterion micro-benchmarks for the compression primitives: pattern
//! generation (Algorithm 2), symmetric fake-quantization (Algorithm 6) and
//! sparse vs dense convolution — the mechanisms behind the paper's speedup
//! claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use upaq::pattern::{generate_candidates, generate_pattern};
use upaq_tensor::ops::{conv2d_into, Conv2dParams};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::quant::fake_quantize;
use upaq_tensor::{Shape, Tensor};

fn bench_pattern_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pattern_generation");
    group.bench_function("single_pattern", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(generate_pattern(3, 3, &mut rng)));
    });
    group.bench_function("candidate_set_of_8", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(generate_candidates(3, 3, 8, &mut rng)));
    });
    group.finish();
}

fn bench_quantizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("fake_quantize");
    for size in [9usize, 576, 36_864] {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::uniform(Shape::vector(size), -1.0, 1.0, &mut rng);
        let mut buf = t.as_slice().to_vec();
        for bits in [4u8, 8, 16] {
            group.bench_with_input(
                BenchmarkId::new(format!("{size}w"), bits),
                &bits,
                |b, &bits| {
                    b.iter(|| {
                        buf.copy_from_slice(t.as_slice());
                        fake_quantize(&mut buf, bits).unwrap();
                        black_box(&buf);
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_sparse_conv_speedup(c: &mut Criterion) {
    // The mechanism behind Fig. 4: pattern-pruned kernels genuinely do less
    // work in the conv inner loop. Weights are packed once, as a deployed
    // model's are, so each iteration times the kernel alone.
    let mut rng = StdRng::seed_from_u64(5);
    let input = Tensor::uniform(Shape::nchw(1, 32, 32, 32), -1.0, 1.0, &mut rng);
    let dense = Tensor::uniform(Shape::nchw(32, 32, 3, 3), -0.1, 0.1, &mut rng);
    // Every kernel keeps taps (0, 0) and (1, 1), indices 0 and 4.
    let pruned = Tensor::from_fn(dense.shape().clone(), |i| {
        if i % 9 == 0 || i % 9 == 4 {
            dense.as_slice()[i]
        } else {
            0.0
        }
    });
    let params = Conv2dParams::same(3);
    let mut out = Tensor::zeros(Shape::nchw(1, 32, 32, 32));

    let mut group = c.benchmark_group("conv2d_32ch_32x32");
    group.sample_size(20);
    for (name, weights) in [("dense", &dense), ("pattern_pruned_2of9", &pruned)] {
        let packed = PackedConv::pack(weights).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                conv2d_into(&input, &packed, None, params, &mut out).unwrap();
                black_box(&out);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pattern_generation,
    bench_quantizer,
    bench_sparse_conv_speedup
);
criterion_main!(benches);
