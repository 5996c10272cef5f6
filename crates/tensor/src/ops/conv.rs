//! 2-D convolution: one tap-run kernel over packed sparse weights,
//! compiled for the target's baseline and, on x86-64, again with AVX2.

use super::parallel::{parallel_for_chunks, SendPtr};
use crate::packed::{PackedConv, SharedTaps, Tap, BLOCK};
use crate::{Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
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
    /// This thread's per-call run offsets (see [`TapGrid`]).
    static OFFSETS: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
    /// This thread's per-lane totals (see [`conv2d_block`]).
    static TOTALS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// This thread's per-lane local sums of one stripe (see
    /// [`accumulate_block`]).
    static SUMS: Cell<Vec<[f32; STRIPE]>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's buffer in `key`. The buffer is taken out for
/// the call and put back after it, so it grows once per thread and every
/// later call reuses it; a nested call would find it empty and grow its
/// own rather than alias it.
fn with_buffer<T, R>(key: &'static LocalKey<Cell<Vec<T>>>, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
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
/// the plane that starts at its own offset. That offset depends only on
/// the tap index `r·kw + c` within a channel, so each call computes it
/// once per tap index into `offsets`. Columns `ow..pitch` of the
/// flattened grid are scratch the kernel never writes out.
struct TapGrid<'a> {
    data: &'a [f32],
    /// Length of one input channel's phase planes in `data`.
    chan: usize,
    /// Run start of tap index `r·kw + c` within its channel's planes.
    offsets: &'a [usize],
    kw: usize,
    pitch: usize,
}

impl TapGrid<'_> {
    /// The values tap index `t` of input channel `ic` multiplies at
    /// flattened output positions `q`.
    #[inline(always)]
    fn run(&self, ic: usize, t: usize, q: &Range<usize>) -> &[f32] {
        let start = ic * self.chan + self.offsets[t];
        &self.data[start + q.start..start + q.end]
    }

    /// The run of per-kernel tap `tap`.
    #[inline(always)]
    fn tap_run(&self, ic: usize, tap: Tap, q: &Range<usize>) -> &[f32] {
        self.run(ic, tap.r as usize * self.kw + tap.c as usize, q)
    }
}

/// Lays `idata` (`in_c × h × w`) out as a [`TapGrid`] for `params` and
/// `kh × kw` kernels and hands it to `f`. An unpadded stride-1 conv reads
/// `idata` in place; any other copies it once into this thread's grid
/// buffer.
fn with_tap_grid<R>(
    idata: &[f32],
    in_c: usize,
    hw: (usize, usize),
    khw: (usize, usize),
    params: Conv2dParams,
    f: impl FnOnce(&TapGrid) -> R,
) -> R {
    let ((h, w), (kh, kw)) = (hw, khw);
    let (s, p) = (params.stride, params.padding);
    let (rows, pitch) = ((h + 2 * p).div_ceil(s), (w + 2 * p).div_ceil(s));
    with_buffer(&OFFSETS, |offsets| {
        offsets.clear();
        offsets.extend((0..kh * kw).map(|t| {
            let (r, c) = (t / kw, t % kw);
            (((r % s) * s + c % s) * rows + r / s) * pitch + c / s
        }));
        if s == 1 && p == 0 {
            return f(&TapGrid {
                data: idata,
                chan: h * w,
                offsets,
                kw,
                pitch,
            });
        }
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
                chan: s * s * rows * pitch,
                offsets,
                kw,
                pitch,
            })
        })
    })
}

/// Most outputs per stripe. A block accumulates its output run one
/// stripe at a time, each over every input channel, so that its four
/// totals and local sums stay in the L1 cache.
const STRIPE: usize = 1024;

/// Up to three taps of one kernel: each tap's weight and the run of
/// inputs it multiplies.
#[derive(Clone, Copy)]
struct Taps<'a, const N: usize> {
    v: [f32; N],
    x: [&'a [f32]; N],
}

impl<const N: usize> Taps<'_, N> {
    /// The same taps with every run cut to `len`, so that a pass over
    /// `q < len` indexes them without bounds checks.
    #[inline(always)]
    fn cut(&self, len: usize) -> Self {
        let mut taps = *self;
        for x in &mut taps.x {
            *x = &x[..len];
        }
        taps
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

/// `total += (v0·x0 + v1·x1) + v2·x2`: a whole group of 1–3 taps joins
/// the total.
#[inline(always)]
fn join_local<const N: usize>(taps: &Taps<N>, _: &mut f32, total: &mut f32, q: usize) {
    *total += taps.sum(q);
}

/// `acc = (v0·x0 + v1·x1) + v2·x2`: the first three taps of a longer
/// group start its local sum.
#[inline(always)]
fn start_local(taps: &Taps<3>, acc: &mut f32, _: &mut f32, q: usize) {
    *acc = taps.sum(q);
}

/// `acc = ((acc + v0·x0) + v1·x1) + v2·x2`: three more taps of a local
/// sum.
#[inline(always)]
fn extend_local(taps: &Taps<3>, acc: &mut f32, _: &mut f32, q: usize) {
    *acc = taps.add_onto(*acc, q);
}

/// `total += (acc + v0·x0) + …`: the last 1–3 taps of a local sum, and
/// the local sum joining the total.
#[inline(always)]
fn join_acc<const N: usize>(taps: &Taps<N>, acc: &mut f32, total: &mut f32, q: usize) {
    *total += taps.add_onto(*acc, q);
}

/// One pass of a tap group over a stripe: taps `from .. from + N`, each
/// output position through `step(taps, acc, total, q)`.
trait Pass {
    fn pass<const N: usize>(
        &mut self,
        from: usize,
        step: impl Fn(&Taps<N>, &mut f32, &mut f32, usize),
    );
}

/// Adds a group of `n` taps into the total over a stripe: a group of
/// 1–3 taps joins it in one pass; a longer one builds its local sum in
/// `acc` three taps per pass, and its last pass of 1–3 taps joins it.
#[inline(always)]
fn run_group(n: usize, p: &mut impl Pass) {
    match n {
        0 => {}
        1 => p.pass::<1>(0, join_local),
        2 => p.pass::<2>(0, join_local),
        3 => p.pass::<3>(0, join_local),
        n => {
            p.pass(0, start_local);
            let last = 3 + (n - 4) / 3 * 3;
            for from in (3..last).step_by(3) {
                p.pass(from, extend_local);
            }
            match n - last {
                1 => p.pass::<1>(last, join_acc),
                2 => p.pass::<2>(last, join_acc),
                _ => p.pass::<3>(last, join_acc),
            }
        }
    }
}

/// The per-kernel taps `group` of one `(oc, ic)` kernel over stripe
/// `q`, into the stripe of its lane's `total`, in compiled copy `C`.
struct KernelPass<'a, C> {
    grid: &'a TapGrid<'a>,
    ic: usize,
    group: &'a [Tap],
    q: Range<usize>,
    acc: &'a mut [f32; STRIPE],
    total: &'a mut [f32],
    copy: PhantomData<C>,
}

impl<C> Pass for KernelPass<'_, C> {
    #[inline(always)]
    fn pass<const N: usize>(
        &mut self,
        from: usize,
        step: impl Fn(&Taps<N>, &mut f32, &mut f32, usize),
    ) {
        let mut taps = Taps {
            v: [0.0; N],
            x: [&[]; N],
        };
        let group = &self.group[from..from + N];
        for ((v, x), &tap) in taps.v.iter_mut().zip(&mut taps.x).zip(group) {
            *v = tap.v;
            *x = self.grid.tap_run(self.ic, tap, &self.q);
        }
        Self::one_lane(self.total, self.acc, &taps, step);
    }
}

impl<C> KernelPass<'_, C> {
    /// One pass of a kernel's taps over its stripe of `total`. The stripe
    /// and `acc` arrive as separate `&mut` arguments, which tells the
    /// compiler they overlap no input run, so the loop vectorizes over
    /// `q`. That needs this to reach the code generator as a function of
    /// its own: `#[inline(always)]` would paste it into its caller before
    /// then and drop what its `&mut` arguments promise. As an associated
    /// function of `KernelPass<C>`, it has one instance per compiled copy
    /// `C` (see [`BlockKernel`]).
    fn one_lane<const N: usize>(
        total: &mut [f32],
        acc: &mut [f32; STRIPE],
        taps: &Taps<N>,
        step: impl Fn(&Taps<N>, &mut f32, &mut f32, usize),
    ) {
        let len = total.len();
        let (acc, taps) = (&mut acc[..len], taps.cut(len));
        for q in 0..len {
            step(&taps, &mut acc[q], &mut total[q], q);
        }
    }
}

/// The taps a full block's kernels share for one input channel over
/// stripe `q`, into the stripes of the block's four totals, in compiled
/// copy `C`.
struct BlockPass<'a, C> {
    grid: &'a TapGrid<'a>,
    ic: usize,
    shared: SharedTaps<'a>,
    q: Range<usize>,
    acc: &'a mut [[f32; STRIPE]; BLOCK],
    totals: [&'a mut [f32]; BLOCK],
    copy: PhantomData<C>,
}

impl<C> Pass for BlockPass<'_, C> {
    #[inline(always)]
    fn pass<const N: usize>(
        &mut self,
        from: usize,
        step: impl Fn(&Taps<N>, &mut f32, &mut f32, usize),
    ) {
        let mut x: [&[f32]; N] = [&[]; N];
        for (x, &t) in x.iter_mut().zip(&self.shared.index[from..from + N]) {
            *x = self.grid.run(self.ic, t as usize, &self.q);
        }
        let mut taps = [Taps { v: [0.0; N], x }; BLOCK];
        for (i, weights) in self.shared.weights[from..from + N].iter().enumerate() {
            for (lane, &v) in taps.iter_mut().zip(weights) {
                lane.v[i] = v;
            }
        }
        let [t0, t1, t2, t3] = &mut self.totals;
        Self::four_lanes(t0, t1, t2, t3, self.acc, &taps, step);
    }
}

impl<C> BlockPass<'_, C> {
    /// One pass of shared taps over a block's four lanes: at each `q`,
    /// `step` on every lane in turn, so each input run is read once for
    /// all four. As in [`KernelPass::one_lane`], each lane's stripe is
    /// its own `&mut` argument so that the loop vectorizes over `q`, and
    /// there is one instance per compiled copy `C`.
    fn four_lanes<const N: usize>(
        t0: &mut [f32],
        t1: &mut [f32],
        t2: &mut [f32],
        t3: &mut [f32],
        acc: &mut [[f32; STRIPE]; BLOCK],
        taps: &[Taps<N>; BLOCK],
        step: impl Fn(&Taps<N>, &mut f32, &mut f32, usize),
    ) {
        let len = t0.len();
        let (t1, t2, t3) = (&mut t1[..len], &mut t2[..len], &mut t3[..len]);
        let [a0, a1, a2, a3] = acc;
        let (a0, a1, a2, a3) = (
            &mut a0[..len],
            &mut a1[..len],
            &mut a2[..len],
            &mut a3[..len],
        );
        let mut taps = *taps;
        for lane in &mut taps {
            *lane = lane.cut(len);
        }
        for q in 0..len {
            step(&taps[0], &mut a0[q], &mut t0[q], q);
            step(&taps[1], &mut a1[q], &mut t1[q], q);
            step(&taps[2], &mut a2[q], &mut t2[q], q);
            step(&taps[3], &mut a3[q], &mut t3[q], q);
        }
    }
}

/// Stripe `q` of each of a block's four totals, which lie `len` apart
/// in `totals`.
#[inline(always)]
fn stripes<'a>(totals: &'a mut [f32], len: usize, q: &Range<usize>) -> [&'a mut [f32]; BLOCK] {
    let (t0, rest) = totals.split_at_mut(len);
    let (t1, rest) = rest.split_at_mut(len);
    let (t2, t3) = rest.split_at_mut(len);
    let q = q.clone();
    [
        &mut t0[q.clone()],
        &mut t1[q.clone()],
        &mut t2[q.clone()],
        &mut t3[q],
    ]
}

/// Accumulates block `b`'s `lanes` output channels over the flattened
/// output grid: lane `j`'s total (`totals[j·len ..]`, zeroed here)
/// receives, in `ic` order, each input channel's local sum of that
/// kernel's taps in row-major order, one stripe of the run at a time,
/// with `acc` holding a longer group's local sums over the stripe. A
/// pair the block's kernels share runs as passes over all four lanes;
/// any other pair, and every pair of a ragged last block, runs kernel by
/// kernel, so no pass multiplies a weight the oracle skips.
#[inline(always)]
fn accumulate_block<C>(
    b: usize,
    lanes: usize,
    grid: &TapGrid,
    packed: &PackedConv,
    totals: &mut [f32],
    acc: &mut [[f32; STRIPE]; BLOCK],
) {
    let len = totals.len() / BLOCK;
    totals.fill(0.0);
    let width = len.div_ceil(len.div_ceil(STRIPE));
    for q0 in (0..len).step_by(width) {
        let q = q0..len.min(q0 + width);
        for ic in 0..packed.in_c() {
            let shared = packed.shared(b, ic);
            let stripes = stripes(totals, len, &q);
            if !shared.index.is_empty() {
                let mut p = BlockPass {
                    grid,
                    ic,
                    shared,
                    q: q.clone(),
                    acc,
                    totals: stripes,
                    copy: PhantomData::<C>,
                };
                run_group(shared.index.len(), &mut p);
                continue;
            }
            for (j, total) in stripes.into_iter().take(lanes).enumerate() {
                let group = packed.group(BLOCK * b + j, ic);
                let mut p = KernelPass {
                    grid,
                    ic,
                    group,
                    q: q.clone(),
                    acc: &mut acc[0],
                    total,
                    copy: PhantomData::<C>,
                };
                run_group(group.len(), &mut p);
            }
        }
    }
}

/// Block `b` of the convolution — output channels `BLOCK·b ..`, as many
/// as `oblock` holds `oh*ow` slices for — written into `oblock`: every
/// packed tap of `(oc, ic)` is one contiguous run over the flattened
/// output grid of `grid` (see [`TapGrid`]).
///
/// Per output element the arithmetic is the oracle's — per-`ic` local
/// sums over the taps in row-major order, joined in `ic` order, bias last
/// — with one difference: a tap that lands in the zero guard adds
/// `v · 0 = ±0` where the oracle skips it. The total starts at `+0.0`
/// and so is never `−0.0`, which makes adding a `±0` (or a local sum
/// that differs from the oracle's only in the sign of a zero) leave it
/// unchanged; finite weights (an invariant of [`PackedConv::pack`]) keep
/// `v · 0` a zero. A shared pass applies each lane's steps of the
/// per-kernel rule in the same order. Blocks are independent, so serial
/// and pooled execution are bit-identical at any thread count.
///
/// `C` is the compiled copy (see [`BlockKernel`]). The thread's buffers
/// are taken and put back without a closure, so that the whole kernel
/// inlines into that copy.
#[inline(always)]
fn conv2d_block<C>(
    b: usize,
    grid: &TapGrid,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    out_hw: (usize, usize),
    oblock: &mut [f32],
) {
    let (oh, ow) = out_hw;
    let pitch = grid.pitch;
    let len = (oh - 1) * pitch + ow;
    let lanes = oblock.len() / (oh * ow);
    let (mut buf, mut sums) = (TOTALS.take(), SUMS.take());
    if buf.len() < BLOCK * len {
        buf.resize(BLOCK * len, 0.0);
    }
    let totals = &mut buf[..BLOCK * len];
    sums.resize(BLOCK, [0.0; STRIPE]);
    let acc = (&mut sums[..]).try_into().expect("one stripe per lane");
    accumulate_block::<C>(b, lanes, grid, packed, totals, acc);
    let outputs = oblock.chunks_exact_mut(oh * ow);
    for (j, (ochan, total)) in outputs.zip(totals.chunks_exact(len)).enumerate() {
        let bias_v = bias.map_or(0.0, |bias| bias.as_slice()[BLOCK * b + j]);
        for (orow, trow) in ochan.chunks_exact_mut(ow).zip(total.chunks(pitch)) {
            for (o, &t) in orow.iter_mut().zip(trow) {
                *o = finish_bias(t, bias_v);
            }
        }
    }
    TOTALS.set(buf);
    SUMS.set(sums);
}

/// Type tag of the portable copy (see [`BlockKernel`]).
enum Portable {}

/// Type tag of the AVX2 copy (see [`BlockKernel`]).
#[cfg(target_arch = "x86_64")]
enum Avx2 {}

/// One compiled copy of [`conv2d_block`]: the same source, built for one
/// set of target features; [`conv2d_into`] picks the copy per call.
///
/// Code is built for the target features of the function it is inlined
/// into, so each copy must inline the whole kernel: a function it calls
/// instead runs baseline code. Below [`conv2d_block`], the functions both
/// copies call are `#[inline(always)]`. The two loops must not be (see
/// [`KernelPass::one_lane`]), so they are associated functions of the
/// passes, and the passes and everything above them take the copy's type
/// tag as a parameter that changes no code: each copy then has its own
/// instance of each loop, with one caller, which the compiler inlines. A
/// loop both copies shared would be built once, for the baseline.
type BlockKernel = fn(usize, &TapGrid, &PackedConv, Option<&Tensor>, (usize, usize), &mut [f32]);

/// [`conv2d_block`] built for the target's baseline features, which every
/// CPU of the target runs.
fn conv2d_block_portable(
    b: usize,
    grid: &TapGrid,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    out_hw: (usize, usize),
    oblock: &mut [f32],
) {
    conv2d_block::<Portable>(b, grid, packed, bias, out_hw, oblock);
}

/// [`conv2d_block`] built with AVX2, so that every pass vectorizes eight
/// lanes wide. Per lane it performs the portable copy's operations in
/// the same order, with the same rounding: `fma` stays disabled, and
/// Rust never fuses `a * b + c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv2d_block_avx2(
    b: usize,
    grid: &TapGrid,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    out_hw: (usize, usize),
    oblock: &mut [f32],
) {
    conv2d_block::<Avx2>(b, grid, packed, bias, out_hw, oblock);
}

/// The AVX2 copy of the block kernel, where this CPU has AVX2.
fn avx2_kernel() -> Option<BlockKernel> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(|b, grid, packed, bias, out_hw, oblock| {
            // SAFETY: `avx2_kernel` hands this function out only after
            // `is_x86_feature_detected!("avx2")` found AVX2 on this CPU.
            unsafe { conv2d_block_avx2(b, grid, packed, bias, out_hw, oblock) }
        });
    }
    None
}

/// Bias joins the sum last, and a zero bias performs no add at all —
/// the oracle's order exactly.
#[inline(always)]
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
/// out once as a zero-guarded tap grid, then blocks of [`BLOCK`] output
/// channels are distributed over the worker pool when
/// [`TensorParallel`][crate::ops::TensorParallel] has more than one
/// thread. Each block's slice is disjoint and its arithmetic order
/// unchanged, so results are bit-identical to serial execution. The
/// blocks run the AVX2 copy of the kernel where the CPU has AVX2 (`std`
/// caches the detection, so the choice costs an atomic load per call) and
/// the portable copy elsewhere, with the same bits.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-rank-4 input,
/// [`TensorError::ShapeMismatch`] when the input's channels disagree with
/// the weights' or `out` does not have the expected output shape, and
/// [`TensorError::Invalid`] for a zero stride, a batch dimension other
/// than 1 or a wrong bias length.
pub fn conv2d_into(
    input: &Tensor,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut Tensor,
) -> Result<()> {
    let kernel = avx2_kernel().unwrap_or(conv2d_block_portable);
    conv2d_with(kernel, input, packed, bias, params, out)
}

/// [`conv2d_into`] through the given copy of the block kernel.
fn conv2d_with(
    kernel: BlockKernel,
    input: &Tensor,
    packed: &PackedConv,
    bias: Option<&Tensor>,
    params: Conv2dParams,
    out: &mut Tensor,
) -> Result<()> {
    if params.stride == 0 {
        return Err(TensorError::Invalid("conv stride must be non-zero".into()));
    }
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
    // No pre-zeroing: `conv2d_block` writes every output element.
    let odata = out.as_mut_slice();
    let out_c = packed.out_c();
    let khw = (packed.kh(), packed.kw());
    with_tap_grid(
        input.as_slice(),
        packed.in_c(),
        (h, w),
        khw,
        params,
        |grid| {
            let base = SendPtr(odata.as_mut_ptr());
            parallel_for_chunks(out_c.div_ceil(BLOCK), move |b| {
                let channels = BLOCK * b..(BLOCK * (b + 1)).min(out_c);
                // SAFETY: chunk `b` derives the disjoint per-block slice
                // `odata[channels.start*chan .. channels.end*chan]`; the buffer
                // outlives the call because `parallel_for_chunks` blocks until
                // all chunks finish.
                let oblock = unsafe {
                    std::slice::from_raw_parts_mut(
                        base.get().add(channels.start * chan),
                        channels.len() * chan,
                    )
                };
                kernel(b, grid, packed, bias, (oh, ow), oblock);
            });
        },
    );
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The oracle suite's deterministic operand sets. A `#[path]` from
    /// this inline module would resolve below `src/ops/conv/`, which does
    /// not exist, so the file comes in through `include!`.
    mod conv_cases {
        include!("../../tests/common/conv_cases.rs");
    }
    use conv_cases::{every_group_length_cases, long_run_cases, rung_shaped_cases};

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
    fn zero_stride_is_an_error() {
        let input = input_1ch(3, 3, vec![1.0; 9]);
        let packed = PackedConv::pack(&Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0)).unwrap();
        let params = Conv2dParams {
            stride: 0,
            padding: 0,
        };
        let mut out = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(matches!(
            conv2d_into(&input, &packed, None, params, &mut out),
            Err(TensorError::Invalid(_))
        ));
    }

    #[test]
    fn out_size_handles_non_fitting_kernel() {
        let p = Conv2dParams::default();
        assert_eq!(p.out_size(2, 3), 0);
        assert_eq!(p.out_size(3, 3), 1);
        assert_eq!(Conv2dParams::same(3).out_size(7, 3), 7);
    }

    /// The portable copy of the block kernel against the AVX2 copy, on
    /// the oracle suite's deterministic operand sets, raw bit for raw bit
    /// (NaN-canonical on poisoned inputs). Where the CPU has AVX2,
    /// `conv2d_into` runs only the AVX2 copy, so the oracle suites pin
    /// that one and this ties the portable copy to it; elsewhere there is
    /// no second copy, and the oracle suites pin the portable one.
    #[test]
    fn portable_copy_matches_avx2_copy() {
        let Some(avx2) = avx2_kernel() else {
            return;
        };
        let cases = every_group_length_cases()
            .into_iter()
            .chain(rung_shaped_cases())
            .chain(long_run_cases());
        for case in cases {
            let packed = PackedConv::pack(&case.weights).unwrap();
            let (h, w) = (case.input.shape().dim(2), case.input.shape().dim(3));
            let oh = case.params.out_size(h, packed.kh());
            let ow = case.params.out_size(w, packed.kw());
            let run = |kernel: BlockKernel| {
                let mut out = Tensor::full(Shape::nchw(1, packed.out_c(), oh, ow), f32::NAN);
                let bias = case.bias.as_ref();
                conv2d_with(kernel, &case.input, &packed, bias, case.params, &mut out).unwrap();
                (case.key)(&out)
            };
            assert_eq!(
                run(conv2d_block_portable),
                run(avx2),
                "in {:?} w {:?} {:?}",
                case.input.shape().dims(),
                case.weights.shape().dims(),
                case.params
            );
        }
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
