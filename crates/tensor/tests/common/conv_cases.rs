// The deterministic conv operand sets: the oracle suite
// (`tests/proptests.rs`) checks each against `naive_conv2d`, and a unit
// test in `ops::conv` checks that both compiled copies of the kernel
// agree on each. The enclosing module provides `Conv2dParams`,
// `PackedConv`, `Shape`, `Tensor`, `StdRng` and `SeedableRng`. (Plain
// comments, since `ops::conv` takes this file in through `include!`.)

use super::{Conv2dParams, PackedConv, SeedableRng, Shape, StdRng, Tensor};

/// One conv operand set, and the key its outputs are compared by.
pub struct Case {
    pub input: Tensor,
    pub weights: Tensor,
    pub bias: Option<Tensor>,
    pub params: Conv2dParams,
    pub key: fn(&Tensor) -> Vec<u32>,
}

/// Raw IEEE-754 bits — the comparison currency of the identity tests
/// (`==` on floats would let `-0.0` and `0.0` slip through).
pub fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one canonical pattern: Rust leaves
/// the sign and payload of a NaN an operation produces unspecified, so
/// poisoned-input comparisons pin everything else raw bit for raw bit.
pub fn canonical_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// Values that stress the exactness argument of the packed kernel: NaN,
/// both infinities, negative zero and subnormals of both signs.
const POISON: [f32; 6] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    f32::MIN_POSITIVE / 8.0,
    -f32::MIN_POSITIVE / 3.0,
];

/// `input` with roughly one value in four replaced by a [`POISON`] value,
/// chosen by `seed`.
pub fn poisoned(input: &Tensor, seed: u64) -> Tensor {
    let mut state = seed | 1;
    let data = input.as_slice();
    Tensor::from_fn(input.shape().clone(), |i| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if state.is_multiple_of(4) {
            POISON[(state >> 8) as usize % POISON.len()]
        } else {
            data[i]
        }
    })
}

/// A batch of `n` random same-shaped frames drawn from a seeded generator —
/// dependent shapes are awkward to express as strategies, so the strategy
/// supplies dimensions plus a seed and the data comes from `StdRng`.
pub fn random_frames(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor::uniform(Shape::nchw(1, c, h, w), -1.0, 1.0, &mut rng))
        .collect()
}

/// `[oc, ic, k, k]` weights whose `(oc, ic)` groups keep every tap count
/// from 0 to `k²` within the one layer: group `g = oc·ic_n + ic` keeps
/// `g mod (k² + 1)` taps at seeded positions. The kernel branches on a
/// group's tap count (1–3 taps in one pass; longer groups three taps per
/// pass and a 1-, 2- or 3-tap join), so every branch meets every other
/// within one output channel's `ic` order.
fn every_group_length(oc: usize, ic: usize, k: usize, seed: u64) -> Tensor {
    let k2 = k * k;
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = Tensor::uniform(Shape::nchw(oc, ic, k, k), -0.8, 0.8, &mut rng);
    let mut state = seed | 1;
    let mut keep = vec![false; dense.len()];
    for (g, kernel) in keep.chunks_exact_mut(k2).enumerate() {
        // A seeded Fisher–Yates shuffle of the taps; keep the first n.
        let mut order: Vec<usize> = (0..k2).collect();
        for i in (1..k2).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for &j in &order[..g % (k2 + 1)] {
            kernel[j] = true;
        }
    }
    let data = dense.as_slice();
    Tensor::from_fn(
        dense.shape().clone(),
        |i| if keep[i] { data[i] } else { 0.0 },
    )
}

/// One layer with `(oc, ic)` groups of every length from 0 to `k²`, for
/// k ∈ {1, 3, 5}, over strides 1–3 and paddings 0–2, on clean inputs
/// (with a bias) and poisoned ones.
pub fn every_group_length_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut seed = 0u64;
    for k in [1usize, 3, 5] {
        let groups = k * k + 1;
        let ic = 2;
        // One channel more than the lengths need, so they wrap mid-channel.
        let oc = groups.div_ceil(ic) + 1;
        for stride in 1..=3 {
            for padding in 0..=2 {
                seed += 1;
                let params = Conv2dParams { stride, padding };
                let weights = every_group_length(oc, ic, k, seed);
                let packed = PackedConv::pack(&weights).unwrap();
                let mut lengths: Vec<usize> = (0..oc * ic)
                    .map(|g| packed.group(g / ic, g % ic).len())
                    .collect();
                lengths.sort_unstable();
                lengths.dedup();
                assert_eq!(lengths.len(), groups, "k {k}: a tap count is missing");

                let input = random_frames(1, ic, 7, 6, seed).pop().unwrap();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
                let bias = Tensor::uniform(Shape::vector(oc), -0.5, 0.5, &mut rng);
                cases.push(Case {
                    input: input.clone(),
                    weights: weights.clone(),
                    bias: Some(bias),
                    params,
                    key: bits,
                });
                cases.push(Case {
                    input: poisoned(&input, seed),
                    weights,
                    bias: None,
                    params,
                    key: canonical_bits,
                });
            }
        }
    }
    cases
}

/// One xorshift64 step of `state`.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `[oc, ic, k, k]` weights shaped like a UPAQ rung: every kernel keeps
/// one seeded tap set of `n` taps, except a seeded tenth of the kernels,
/// which each lack one of its taps, as where a 2-bit grid rounds a kept
/// weight to zero. Returns the weights and each lacking kernel's
/// `(oc, ic, missing tap index)`, after checking that some full block
/// shares its taps and that no lacking kernel's block does.
fn rung_weights(
    oc: usize,
    ic: usize,
    k: usize,
    n: usize,
    seed: u64,
) -> (Tensor, Vec<(usize, usize, usize)>) {
    let (k2, kernels) = (k * k, oc * ic);
    let mut state = seed | 1;
    let mut order: Vec<usize> = (0..k2).collect();
    for i in (1..k2).rev() {
        order.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
    }
    let taps = &order[..n];
    let mut picks: Vec<usize> = (0..kernels).collect();
    for i in (1..kernels).rev() {
        picks.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
    }
    let lacking: Vec<(usize, usize, usize)> = picks[..kernels.div_ceil(10)]
        .iter()
        .map(|&g| {
            (
                g / ic,
                g % ic,
                taps[(xorshift(&mut state) % n as u64) as usize],
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = Tensor::uniform(Shape::nchw(oc, ic, k, k), -0.8, 0.8, &mut rng);
    let data = dense.as_slice();
    let weights = Tensor::from_fn(dense.shape().clone(), |i| {
        let (g, t) = (i / k2, i % k2);
        let dropped = lacking.contains(&(g / ic, g % ic, t));
        if taps.contains(&t) && !dropped {
            data[i]
        } else {
            0.0
        }
    });

    // Output channels below `last` form full blocks of four.
    let packed = PackedConv::pack(&weights).unwrap();
    let last = oc - oc % 4;
    let kernel = |g: usize| &weights.as_slice()[g * k2..][..k2];
    let shared = (0..last * ic).filter(|&g| {
        packed.group(g / ic, g % ic).is_empty() && kernel(g).iter().any(|&v| v != 0.0)
    });
    assert!(shared.count() > 0, "k {k} n {n}: no block shares its taps");
    assert!(
        lacking
            .iter()
            .all(|&(o, i, _)| o >= last || n == 1 || !packed.group(o, i).is_empty()),
        "k {k} n {n}: a lacking kernel's block runs as shared"
    );
    (weights, lacking)
}

/// `input` with ±inf exactly where each lacking kernel's missing tap
/// would read under `params`: a kernel that multiplied the missing tap's
/// zero weight there would produce `0·inf = NaN` where the oracle skips
/// the tap.
fn poison_missing_taps(
    input: &Tensor,
    lacking: &[(usize, usize, usize)],
    k: usize,
    params: Conv2dParams,
) -> Tensor {
    let (h, w) = (input.shape().dim(2), input.shape().dim(3));
    let Conv2dParams { stride, padding } = params;
    let (oh, ow) = (params.out_size(h, k), params.out_size(w, k));
    let mut poisoned = input.clone();
    for (j, &(_, i, t)) in lacking.iter().enumerate() {
        let inf = if j % 2 == 0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
        for oy in 0..oh {
            for ox in 0..ow {
                let (y, x) = (oy * stride + t / k, ox * stride + t % k);
                let inside =
                    (padding..h + padding).contains(&y) && (padding..w + padding).contains(&x);
                if inside {
                    poisoned
                        .set(&[0, i, y - padding, x - padding], inf)
                        .unwrap();
                }
            }
        }
    }
    poisoned
}

/// Layers shaped like a UPAQ rung (see [`rung_weights`]): 9 output
/// channels, so two blocks of four whose kernels mostly share one tap
/// set and a ragged tail of one, for k ∈ {1, 3, 5} and tap sets of every
/// size the pass rule branches on, over strides 1–3 and paddings 0–2,
/// on clean inputs (with a bias) and with ±inf where a missing tap
/// would read (see [`poison_missing_taps`]).
pub fn rung_shaped_cases() -> Vec<Case> {
    let (oc, ic, h, w) = (9, 3, 7, 6);
    let mut cases = Vec::new();
    let mut seed = 0u64;
    for k in [1usize, 3, 5] {
        for stride in 1..=3 {
            for padding in 0..=2 {
                seed += 1;
                let n = 1 + (seed as usize * 7) % (k * k);
                let params = Conv2dParams { stride, padding };
                let (weights, lacking) = rung_weights(oc, ic, k, n, seed);
                let input = random_frames(1, ic, h, w, seed).pop().unwrap();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
                let bias = Tensor::uniform(Shape::vector(oc), -0.5, 0.5, &mut rng);
                cases.push(Case {
                    input: input.clone(),
                    weights: weights.clone(),
                    bias: Some(bias),
                    params,
                    key: bits,
                });
                cases.push(Case {
                    input: poison_missing_taps(&input, &lacking, k, params),
                    weights,
                    bias: None,
                    params,
                    key: canonical_bits,
                });
            }
        }
    }
    cases
}

/// Layers whose output run is longer than one 1,024-position stripe: a
/// 40×40 input (a 3×3 "same" run is 1,678 positions, two stripes) into
/// 9 output channels, rung-shaped (see [`rung_weights`]) and dense, for
/// k ∈ {1, 3, 5} over strides 1–2 and paddings 0–2, clean (with a bias)
/// and poisoned. The stripes hold many full vectors and end on remainders
/// of several lengths.
pub fn long_run_cases() -> Vec<Case> {
    let (oc, ic, h, w) = (9, 2, 40, 40);
    let mut cases = Vec::new();
    let mut seed = 100u64;
    for k in [1usize, 3, 5] {
        for stride in 1..=2 {
            for padding in 0..=2 {
                seed += 1;
                let n = 1 + (seed as usize * 7) % (k * k);
                let params = Conv2dParams { stride, padding };
                let (rung, lacking) = rung_weights(oc, ic, k, n, seed);
                let input = random_frames(1, ic, h, w, seed).pop().unwrap();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
                let dense = Tensor::uniform(Shape::nchw(oc, ic, k, k), -0.8, 0.8, &mut rng);
                let bias = Tensor::uniform(Shape::vector(oc), -0.5, 0.5, &mut rng);
                cases.push(Case {
                    input: input.clone(),
                    weights: rung.clone(),
                    bias: Some(bias.clone()),
                    params,
                    key: bits,
                });
                cases.push(Case {
                    input: poison_missing_taps(&input, &lacking, k, params),
                    weights: rung,
                    bias: None,
                    params,
                    key: canonical_bits,
                });
                cases.push(Case {
                    input: input.clone(),
                    weights: dense.clone(),
                    bias: Some(bias),
                    params,
                    key: bits,
                });
                cases.push(Case {
                    input: poisoned(&input, seed),
                    weights: dense,
                    bias: None,
                    params,
                    key: canonical_bits,
                });
            }
        }
    }
    cases
}
