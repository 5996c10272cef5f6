//! 2-D convolution: one tap-run kernel over packed sparse weights.

use super::parallel::{parallel_for_chunks, SendPtr};
use crate::packed::{PackedConv, Tap};
use crate::{Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::thread::LocalKey;

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Spatial stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// Stride-1 "same" convolution for odd kernel size `k`.
    pub fn same(k: usize) -> Self {
        Conv2dParams {
            stride: 1,
            padding: k / 2,
        }
    }

    /// Output spatial size for an input of size `i` and kernel size `k`.
    ///
    /// Returns 0 when the kernel does not fit.
    pub fn out_size(&self, i: usize, k: usize) -> usize {
        let padded = i + 2 * self.padding;
        if padded < k {
            0
        } else {
            (padded - k) / self.stride + 1
        }
    }
}

thread_local! {
    /// This thread's zero-guarded input grid (see [`TapGrid`]).
    static GRID: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// This thread's run accumulators (see [`conv2d_channel`]).
    static RUNS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's buffer in `key`. The buffer is taken out for
/// the call and put back after it, so it grows once per thread and every
/// later call reuses it; a nested call would find it empty and grow its
/// own rather than alias it.
fn with_buffer<R>(key: &'static LocalKey<Cell<Vec<f32>>>, f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = key.take();
    let out = f(&mut buf);
    key.set(buf);
    out
}

/// A conv input laid out so that every packed tap reads one contiguous
/// run.
///
/// Padded row `y`, column `x` of input channel `ic` sits in phase plane
/// `(y % s, x % s)` of that channel at `(y / s, x / s)`; each plane is
/// `rows × pitch` and zero wherever the padded input is padding. Output
/// `(oy, ox)` of tap `(r, c)` reads padded `(oy·s + r, ox·s + c)`, which
/// is plane `(r % s, c % s)` at `(oy + r / s, ox + c / s)` — so over the
/// flattened output grid `q = oy·pitch + ox` each tap reads the run of
/// the plane that starts at its own offset. Columns `ow..pitch` of the
/// flattened grid are scratch the kernel never writes out.
struct TapGrid<'a> {
    data: &'a [f32],
    stride: usize,
    rows: usize,
    pitch: usize,
}

impl TapGrid<'_> {
    /// The `len` values tap `(r, c)` of input channel `ic` multiplies,
    /// one per flattened output position.
    fn run(&self, ic: usize, r: u16, c: u16, len: usize) -> &[f32] {
        let (s, r, c) = (self.stride, r as usize, c as usize);
        let plane = (ic * s + r % s) * s + c % s;
        let start = (plane * self.rows + r / s) * self.pitch + c / s;
        &self.data[start..start + len]
    }
}

/// Lays `idata` (`in_c × h × w`) out as a [`TapGrid`] for `params` and
/// hands it to `f`. An unpadded stride-1 conv reads `idata` in place;
/// any other copies it once into this thread's grid buffer.
fn with_tap_grid<R>(
    idata: &[f32],
    in_c: usize,
    hw: (usize, usize),
    params: Conv2dParams,
    f: impl FnOnce(&TapGrid) -> R,
) -> R {
    let (h, w) = hw;
    let (s, p) = (params.stride, params.padding);
    if s == 1 && p == 0 {
        return f(&TapGrid {
            data: idata,
            stride: 1,
            rows: h,
            pitch: w,
        });
    }
    let (rows, pitch) = ((h + 2 * p).div_ceil(s), (w + 2 * p).div_ceil(s));
    with_buffer(&GRID, |buf| {
        buf.clear();
        buf.resize(in_c * s * s * rows * pitch, 0.0);
        for ic in 0..in_c {
            for iy in 0..h {
                let src = &idata[(ic * h + iy) * w..][..w];
                let y = iy + p;
                for cp in 0..s {
                    // Input columns `ix ≡ cp - p (mod s)` land in phase
                    // column `cp`, at consecutive plane columns.
                    let ix0 = (cp + s - p % s) % s;
                    let plane = (ic * s + y % s) * s + cp;
                    let row = (plane * rows + y / s) * pitch;
                    let dst = &mut buf[row + (ix0 + p) / s..row + pitch];
                    for (d, &v) in dst.iter_mut().zip(src.iter().skip(ix0).step_by(s)) {
                        *d = v;
                    }
                }
            }
        }
        f(&TapGrid {
            data: buf,
            stride: s,
            rows,
            pitch,
        })
    })
}

/// Up to three taps of one `(oc, ic)` group: each tap's weight and the
/// run of inputs it multiplies, every run as long as the output run.
struct Taps<'a, const N: usize> {
    v: [f32; N],
    x: [&'a [f32]; N],
}

impl<'a, const N: usize> Taps<'a, N> {
    /// The first `N` taps of `group` over runs of `len` outputs.
    fn of(grid: &'a TapGrid, ic: usize, group: &[Tap], len: usize) -> Self {
        Taps {
            v: std::array::from_fn(|i| group[i].v),
            x: std::array::from_fn(|i| grid.run(ic, group[i].r, group[i].c, len)),
        }
    }

    /// The same taps with every run cut to `len`, so that a pass over
    /// `q < len` indexes them without bounds checks.
    fn cut(&self, len: usize) -> Self {
        Taps {
            v: self.v,
            x: self.x.map(|x| &x[..len]),
        }
    }

    /// `start + v0·x0[q] + v1·x1[q] + …`, added left to right.
    #[inline(always)]
    fn add_onto(&self, start: f32, q: usize) -> f32 {
        let mut s = start;
        for (v, x) in self.v.iter().zip(&self.x) {
            s += v * x[q];
        }
        s
    }

    /// `v0·x0[q] + v1·x1[q] + …`, added left to right: a local sum that
    /// starts from its first product instead of the oracle's `+0.0`,
    /// which changes it at most in the sign of a zero.
    #[inline(always)]
    fn sum(&self, q: usize) -> f32 {
        let first = self.v[0] * self.x[0][q];
        self.v[1..]
            .iter()
            .zip(&self.x[1..])
            .fold(first, |s, (v, x)| s + v * x[q])
    }
}

/// `total[q] += v0·x0[q] + …`: a whole group of 1–3 taps joins the total
/// in one pass.
fn join_group<const N: usize>(total: &mut [f32], taps: &Taps<N>) {
    let taps = taps.cut(total.len());
    for (q, t) in total.iter_mut().enumerate() {
        *t += taps.sum(q);
    }
}

/// `acc[q] = (v0·x0[q] + v1·x1[q]) + v2·x2[q]`: the first three taps of a
/// longer group start its local sum.
fn start_sum(acc: &mut [f32], taps: &Taps<3>) {
    let taps = taps.cut(acc.len());
    for (q, a) in acc.iter_mut().enumerate() {
        *a = taps.sum(q);
    }
}

/// `acc[q] = ((acc[q] + v0·x0[q]) + v1·x1[q]) + v2·x2[q]`: three more taps
/// of a local sum in one pass.
fn extend_sum(acc: &mut [f32], taps: &Taps<3>) {
    let taps = taps.cut(acc.len());
    for (q, a) in acc.iter_mut().enumerate() {
        *a = taps.add_onto(*a, q);
    }
}

/// `total[q] += (acc[q] + v0·x0[q]) + …`: the last 1–3 taps of a local
/// sum, and the local sum joining the total, in one pass.
fn join_sum<const N: usize>(total: &mut [f32], acc: &[f32], taps: &Taps<N>) {
    let (acc, taps) = (&acc[..total.len()], taps.cut(total.len()));
    for (q, t) in total.iter_mut().enumerate() {
        *t += taps.add_onto(acc[q], q);
    }
}

/// Accumulates output channel `oc` over the flattened output grid:
/// `total` (zeroed here) receives, in `ic` order, each input channel's
/// local sum of its packed taps in row-major order. A group of 1–3 taps
/// joins `total` in one pass; a longer one builds its local sum in `acc`
/// three taps per pass, and its last pass of 1–3 taps joins it.
fn accumulate_runs(
    oc: usize,
    grid: &TapGrid,
    packed: &PackedConv,
    acc: &mut [f32],
    total: &mut [f32],
) {
    let len = total.len();
    total.fill(0.0);
    for ic in 0..packed.in_c() {
        let group = packed.group(oc, ic);
        match group.len() {
            0 => {}
            1 => join_group(total, &Taps::<1>::of(grid, ic, group, len)),
            2 => join_group(total, &Taps::<2>::of(grid, ic, group, len)),
            3 => join_group(total, &Taps::<3>::of(grid, ic, group, len)),
            n => {
                start_sum(acc, &Taps::of(grid, ic, group, len));
                let (mid, last) = group[3..].split_at((n - 4) / 3 * 3);
                for three in mid.chunks_exact(3) {
                    extend_sum(acc, &Taps::of(grid, ic, three, len));
                }
                match last.len() {
                    1 => join_sum(total, acc, &Taps::<1>::of(grid, ic, last, len)),
                    2 => join_sum(total, acc, &Taps::<2>::of(grid, ic, last, len)),
                    _ => join_sum(total, acc, &Taps::<3>::of(grid, ic, last, len)),
                }
            }
        }
    }
}

/// One output channel of the convolution, written into its `oh*ow`
/// slice: every packed tap of `(oc, ic)` is one contiguous run over the
/// flattened output grid of `grid` (see [`TapGrid`]).
///
/// Per output element the arithmetic is the oracle's — per-`ic` local
/// sums over the taps in row-major order, joined in `ic` order, bias last
/// — with one difference: a tap that lands in the zero guard adds
/// `v · 0 = ±0` where the oracle skips it. The total starts at `+0.0`
/// and so is never `−0.0`, which makes adding a `±0` (or a local sum
/// that differs from the oracle's only in the sign of a zero) leave it
/// unchanged; finite weights (an invariant of [`PackedConv::pack`]) keep
/// `v · 0` a zero. Channels are independent, so serial and pooled
/// execution are bit-identical at any thread count.
fn conv2d_channel(
    oc: usize,
    grid: &TapGrid,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    out_hw: (usize, usize),
    ochan: &mut [f32],
) {
    let (oh, ow) = out_hw;
    let pitch = grid.pitch;
    let len = (oh - 1) * pitch + ow;
    let bias_v = bias.map_or(0.0, |b| b.as_slice()[oc]);
    with_buffer(&RUNS, |buf| {
        if buf.len() < 2 * len {
            buf.resize(2 * len, 0.0);
        }
        let (acc, total) = buf[..2 * len].split_at_mut(len);
        accumulate_runs(oc, grid, packed, acc, total);
        for (orow, trow) in ochan.chunks_exact_mut(ow).zip(total.chunks(pitch)) {
            for (o, &t) in orow.iter_mut().zip(trow) {
                *o = finish_bias(t, bias_v);
            }
        }
    });
}

/// Bias joins the sum last, and a zero bias performs no add at all —
/// the oracle's order exactly.
fn finish_bias(total: f32, bias_v: f32) -> f32 {
    if bias_v != 0.0 {
        total + bias_v
    } else {
        total
    }
}

/// Direct 2-D convolution of input `[1, in_c, h, w]` with weights packed
/// once via [`PackedConv::pack`] and an optional per-output-channel bias,
/// written into a caller-provided `[1, out_c, oh, ow]` output so a
/// streaming runtime reuses its activation buffers across frames.
///
/// Packed weights hold only the non-zero taps, so pruned kernels
/// genuinely do less floating-point work — the same effect the paper
/// relies on from hardware weight-compression support (§III-A) — and the
/// steady state scans no weights and allocates nothing. The input is laid
/// out once as a zero-guarded tap grid, then output channels are
/// distributed over the worker pool when
/// [`TensorParallel`][crate::ops::TensorParallel] has more than one
/// thread. Each channel's slice is disjoint and its arithmetic order
/// unchanged, so results are bit-identical to serial execution.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-rank-4 input,
/// [`TensorError::ShapeMismatch`] when the input's channels disagree with
/// the weights' or `out` does not have the expected output shape, and
/// [`TensorError::Invalid`] when the batch dimension is not 1 or the bias
/// length is wrong.
pub fn conv2d_into(
    input: &Tensor,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut Tensor,
) -> Result<()> {
    let ishape = input.shape();
    if ishape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: ishape.rank(),
        });
    }
    if ishape.dim(0) != 1 {
        return Err(TensorError::Invalid(
            "conv2d supports batch size 1 only".into(),
        ));
    }
    if ishape.dim(1) != packed.in_c() {
        return Err(TensorError::ShapeMismatch {
            left: ishape.dims().to_vec(),
            right: vec![packed.out_c(), packed.in_c(), packed.kh(), packed.kw()],
        });
    }
    if let Some(b) = bias {
        if b.len() != packed.out_c() {
            return Err(TensorError::Invalid(format!(
                "bias length {} does not match {} output channels",
                b.len(),
                packed.out_c()
            )));
        }
    }
    let (h, w) = (ishape.dim(2), ishape.dim(3));
    let oh = params.out_size(h, packed.kh());
    let ow = params.out_size(w, packed.kw());
    let expected = [1, packed.out_c(), oh, ow];
    if out.shape().dims() != expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.to_vec(),
            right: out.shape().dims().to_vec(),
        });
    }
    let chan = oh * ow;
    if chan == 0 {
        return Ok(());
    }
    // No pre-zeroing: `conv2d_channel` writes every output element.
    let odata = out.as_mut_slice();
    with_tap_grid(input.as_slice(), packed.in_c(), (h, w), params, |grid| {
        let base = SendPtr(odata.as_mut_ptr());
        parallel_for_chunks(packed.out_c(), move |oc| {
            // SAFETY: chunk `oc` derives the disjoint per-channel slice
            // `odata[oc*chan .. (oc+1)*chan]`; the buffer outlives the call
            // because `parallel_for_chunks` blocks until all chunks finish.
            let ochan = unsafe { std::slice::from_raw_parts_mut(base.get().add(oc * chan), chan) };
            conv2d_channel(oc, grid, packed, bias, (oh, ow), ochan);
        });
    });
    Ok(())
}

/// Allocating convolution over unpacked weights, for tests: packs
/// `weights` and runs [`conv2d_into`] into a fresh output.
#[cfg(test)]
pub(super) fn conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Tensor> {
    let packed = PackedConv::pack(weights)?;
    let s = input.shape();
    let oh = params.out_size(s.dim(2), packed.kh());
    let ow = params.out_size(s.dim(3), packed.kw());
    let mut out = Tensor::zeros(crate::Shape::nchw(1, packed.out_c(), oh, ow));
    conv2d_into(input, &packed, bias, params, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, Shape};

    fn input_1ch(h: usize, w: usize, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::nchw(1, 1, h, w), data).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = input_1ch(3, 3, (1..=9).map(|i| i as f32).collect());
        let mut weights = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        weights.set(&[0, 0, 1, 1], 1.0).unwrap();
        let out = conv2d(&input, &weights, None, Conv2dParams::same(3)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 3, 3]);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_sums_neighbourhood() {
        let input = input_1ch(3, 3, vec![1.0; 9]);
        let weights = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(&input, &weights, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice()[0], 9.0);
    }

    #[test]
    fn stride_reduces_output() {
        let input = input_1ch(5, 5, vec![1.0; 25]);
        let weights = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(
            &input,
            &weights,
            None,
            Conv2dParams {
                stride: 2,
                padding: 0,
            },
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn padding_grows_output() {
        let input = input_1ch(3, 3, vec![1.0; 9]);
        let weights = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let out = conv2d(
            &input,
            &weights,
            None,
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
        )
        .unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 3, 3]);
        // Corner sees only a 2×2 patch of ones.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 4.0);
        // Centre sees the full 3×3 patch.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn bias_added_per_channel() {
        let input = input_1ch(2, 2, vec![0.0; 4]);
        let weights = Tensor::zeros(Shape::nchw(2, 1, 1, 1));
        let bias = Tensor::from_vec(Shape::vector(2), vec![1.5, -2.5]).unwrap();
        let out = conv2d(&input, &weights, Some(&bias), Conv2dParams::default()).unwrap();
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 1.5);
        assert_eq!(out.get(&[0, 1, 0, 0]).unwrap(), -2.5);
    }

    #[test]
    fn multi_channel_accumulates() {
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![2.0, 3.0]).unwrap();
        let weights = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![10.0, 100.0]).unwrap();
        let out = conv2d(&input, &weights, None, Conv2dParams::default()).unwrap();
        assert_eq!(out.as_slice(), &[320.0]);
    }

    #[test]
    fn pruned_weights_match_dense_with_zeros() {
        // A conv with explicitly-zeroed taps must equal the dense computation.
        let input = input_1ch(4, 4, (0..16).map(|i| i as f32 * 0.3).collect());
        let dense = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| {
            if i % 2 == 0 {
                (i as f32) * 0.1
            } else {
                0.0
            }
        });
        let out = conv2d(&input, &dense, None, Conv2dParams::same(3)).unwrap();
        // Recompute naively.
        let mut naive = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        for oy in 0..4i64 {
            for ox in 0..4i64 {
                let mut acc = 0.0;
                for r in 0..3i64 {
                    for c in 0..3i64 {
                        let iy = oy + r - 1;
                        let ix = ox + c - 1;
                        if (0..4).contains(&iy) && (0..4).contains(&ix) {
                            let wv = dense.get(&[0, 0, r as usize, c as usize]).unwrap();
                            let iv = input.get(&[0, 0, iy as usize, ix as usize]).unwrap();
                            acc += wv * iv;
                        }
                    }
                }
                naive.set(&[0, 0, oy as usize, ox as usize], acc).unwrap();
            }
        }
        assert!(out.max_abs_diff(&naive).unwrap() < 1e-5);
    }

    #[test]
    fn rejects_bad_shapes() {
        let input = Tensor::zeros(Shape::nchw(2, 1, 3, 3));
        let weights = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(conv2d(&input, &weights, None, Conv2dParams::default()).is_err());

        let input = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
        assert!(conv2d(&input, &weights, None, Conv2dParams::default()).is_err());

        let input = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let bad_bias = Tensor::zeros(Shape::vector(5));
        assert!(conv2d(&input, &weights, Some(&bad_bias), Conv2dParams::default()).is_err());
    }

    #[test]
    fn out_size_handles_non_fitting_kernel() {
        let p = Conv2dParams::default();
        assert_eq!(p.out_size(2, 3), 0);
        assert_eq!(p.out_size(3, 3), 1);
        assert_eq!(Conv2dParams::same(3).out_size(7, 3), 7);
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        // 1×1 convolution = per-pixel linear map over channels (the PFN case).
        let input = Tensor::from_vec(Shape::nchw(1, 2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weights = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![0.5, 0.25]).unwrap();
        let out = conv2d(&input, &weights, None, Conv2dParams::default()).unwrap();
        assert!(approx_eq(
            out.get(&[0, 0, 0, 0]).unwrap(),
            0.5 * 1.0 + 0.25 * 3.0,
            1e-6
        ));
        assert!(approx_eq(
            out.get(&[0, 0, 0, 1]).unwrap(),
            0.5 * 2.0 + 0.25 * 4.0,
            1e-6
        ));
    }
}
