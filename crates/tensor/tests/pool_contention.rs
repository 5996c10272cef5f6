//! Concurrent pool submitters must stay bit-identical to serial.
//!
//! Serving worker threads race each other into `run_on_pool`; the
//! single-submitter guard reroutes every loser's chunks inline on its own
//! thread. Chunks are self-contained, so whichever path a submission
//! takes — fanned out on the pool or executed inline — the output bits
//! must match the serial oracle exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use upaq_tensor::ops::{conv2d, Conv2dParams, ExecMode, TensorParallel};
use upaq_tensor::{Shape, Tensor};

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

#[test]
fn concurrent_submitters_bitwise_match_serial() {
    let mut rng = StdRng::seed_from_u64(77);
    let cases: Vec<(Tensor, Tensor)> = (0..6)
        .map(|_| {
            (
                Tensor::uniform(Shape::nchw(1, 4, 12, 12), -1.0, 1.0, &mut rng),
                Tensor::uniform(Shape::nchw(8, 4, 3, 3), -0.5, 0.5, &mut rng),
            )
        })
        .collect();

    TensorParallel::set_threads(1);
    let serial: Vec<Tensor> = cases
        .iter()
        .map(|(input, weights)| conv2d(input, weights, None, Conv2dParams::same(3)).unwrap())
        .collect();

    TensorParallel::set_exec_mode(ExecMode::Pool);
    TensorParallel::set_threads(test_threads().max(2));
    // Many rounds of simultaneous submissions: some fan out on the pool,
    // the rest hit the inline fallback, in nondeterministic interleavings.
    for round in 0..16 {
        std::thread::scope(|scope| {
            for (case, want) in cases.iter().zip(&serial) {
                scope.spawn(move || {
                    let got = conv2d(&case.0, &case.1, None, Conv2dParams::same(3)).unwrap();
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "concurrent submission diverged from serial (round {round})"
                    );
                });
            }
        });
    }
    TensorParallel::set_threads(1);
}
