//! Packed sparse convolution weights.
//!
//! The pattern pruner fixes each kernel's zero structure at compression
//! time, yet a conv kernel over dense weights would re-scan the tensor for
//! non-zero taps on **every** invocation. Packing hoists that scan out of
//! the per-frame loop: [`PackedConv`] stores each `(out_c, in_c)` kernel's
//! surviving taps in the exact row-major order the dense scan visits them,
//! so a kernel consuming the packed form performs bit-identical arithmetic
//! to one scanning the dense tensor, while touching only the non-zero
//! weights.
//!
//! Output channels are packed in blocks of [`BLOCK`]. UPAQ copies one
//! pattern onto every kernel of a root group, so a block's four kernels of
//! input channel `ic` usually keep the same taps; such a *shared*
//! `(block, ic)` pair stores its tap list once — tap indices `r·kw + c`,
//! four weights per tap, 4.5 bytes per weight against a [`Tap`]'s 8 — and
//! the conv kernel runs it as one pass that reads each input run once for
//! all four output channels. The other pairs (where a kept weight
//! quantized to zero in some of the four kernels), and every pair of a
//! ragged last block, keep one [`Tap`] list per kernel.
//!
//! Packing is built once (when a model variant is constructed) and shared
//! immutably afterwards; mutating a layer's weights must invalidate its
//! pack.

use crate::{Result, Shape, Tensor, TensorError};

/// Output channels per block: the lanes of a shared pass.
pub const BLOCK: usize = 4;

/// One surviving weight tap of a per-kernel list: kernel row, kernel
/// column, value.
///
/// Rows/columns are `u16` (alignment makes this free next to the value) —
/// packing rejects kernels of more than 65536 taps, far beyond anything
/// representable in memory anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Kernel row.
    pub r: u16,
    /// Kernel column.
    pub c: u16,
    /// Weight value.
    pub v: f32,
}

/// The taps a full block's four kernels of one input channel share: tap
/// index `r·kw + c` and the four lane weights of each, in row-major order.
/// Lane `j` is output channel `BLOCK·b + j`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedTaps<'a> {
    pub(crate) index: &'a [u16],
    pub(crate) weights: &'a [[f32; BLOCK]],
}

/// Packed non-zero taps of a rank-4 f32 conv weight tensor, output
/// channels in blocks of [`BLOCK`] (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConv {
    out_c: usize,
    in_c: usize,
    kh: usize,
    kw: usize,
    /// `shared[p] .. shared[p + 1]` indexes the shared taps of pair
    /// `p = b · in_c + ic` of full block `b`; the range is empty where the
    /// block's kernels of `ic` keep different taps, or none. Length
    /// `(out_c / BLOCK) · in_c + 1`.
    shared: Vec<u32>,
    shared_index: Vec<u16>,
    shared_weights: Vec<[f32; BLOCK]>,
    /// `offsets[oc · in_c + ic] .. offsets[oc · in_c + ic + 1]` indexes
    /// the per-kernel taps of `(oc, ic)`; the range is empty where a
    /// shared pair holds them. Length `out_c · in_c + 1`.
    offsets: Vec<u32>,
    taps: Vec<Tap>,
}

impl PackedConv {
    /// Packs the non-zero taps of rank-4 weights `[out_c, in_c, kh, kw]`.
    ///
    /// Every packed weight is finite: the conv kernels multiply a tap that
    /// lands in the zero padding by `0.0` rather than skipping it, which
    /// adds nothing only while `v · 0` is a zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 weights,
    /// [`TensorError::Invalid`] for kernels of more than 65536 taps or
    /// tensors of 2³² weights or more, and [`TensorError::NonFiniteWeight`]
    /// for a NaN or infinite weight.
    pub fn pack(weights: &Tensor) -> Result<PackedConv> {
        let data = weights.as_slice();
        if let Some(index) = data.iter().position(|v| !v.is_finite()) {
            return Err(TensorError::NonFiniteWeight {
                index,
                value: data[index],
            });
        }
        let shape = weights.shape();
        if shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: shape.rank(),
            });
        }
        let (out_c, in_c, kh, kw) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        if kh.checked_mul(kw).is_none_or(|taps| taps > 1 << 16) {
            return Err(TensorError::Invalid(format!(
                "cannot pack {kh}x{kw} kernels (max 65536 taps)"
            )));
        }
        if u32::try_from(data.len()).is_err() {
            return Err(TensorError::Invalid(format!(
                "cannot pack {} weights (max 2^32 - 1)",
                data.len()
            )));
        }
        let k2 = kh * kw;
        let kernel = |oc: usize, ic: usize| &data[(oc * in_c + ic) * k2..][..k2];
        let same_taps =
            |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| (*x != 0.0) == (*y != 0.0));
        let full = out_c / BLOCK;
        let mut shared = Vec::with_capacity(full * in_c + 1);
        let (mut shared_index, mut shared_weights) = (Vec::new(), Vec::new());
        shared.push(0);
        for b in 0..full {
            for ic in 0..in_c {
                let lanes: [&[f32]; BLOCK] = std::array::from_fn(|j| kernel(BLOCK * b + j, ic));
                let keep = lanes[1..].iter().all(|lane| same_taps(lanes[0], lane));
                if keep {
                    for (t, &v) in lanes[0].iter().enumerate() {
                        if v != 0.0 {
                            shared_index.push(t as u16);
                            shared_weights.push(lanes.map(|lane| lane[t]));
                        }
                    }
                }
                shared.push(shared_index.len() as u32);
            }
        }
        let mut offsets = Vec::with_capacity(out_c * in_c + 1);
        let mut taps = Vec::new();
        offsets.push(0);
        for oc in 0..out_c {
            for ic in 0..in_c {
                // A pair whose kernels keep no taps at all has nothing
                // to store either way.
                let p = oc / BLOCK * in_c + ic;
                if oc / BLOCK >= full || shared[p] == shared[p + 1] {
                    for (t, &v) in kernel(oc, ic).iter().enumerate() {
                        if v != 0.0 {
                            taps.push(Tap {
                                r: (t / kw) as u16,
                                c: (t % kw) as u16,
                                v,
                            });
                        }
                    }
                }
                offsets.push(taps.len() as u32);
            }
        }
        Ok(PackedConv {
            out_c,
            in_c,
            kh,
            kw,
            shared,
            shared_index,
            shared_weights,
            offsets,
            taps,
        })
    }

    /// Output-channel count of the packed weights.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// Input-channel count of the packed weights.
    pub fn in_c(&self) -> usize {
        self.in_c
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Total surviving (non-zero) weights, shared or per kernel.
    pub fn nonzeros(&self) -> usize {
        BLOCK * self.shared_index.len() + self.taps.len()
    }

    /// The per-kernel taps of `(oc, ic)`, in the row-major order the dense
    /// scan would visit them; empty where `oc`'s block shares its taps of
    /// `ic` (see the module docs).
    pub fn group(&self, oc: usize, ic: usize) -> &[Tap] {
        let g = oc * self.in_c + ic;
        &self.taps[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// The taps block `b`'s kernels share for input channel `ic`; empty
    /// for a pair that runs kernel by kernel and for a ragged last block.
    pub(crate) fn shared(&self, b: usize, ic: usize) -> SharedTaps<'_> {
        let p = b * self.in_c + ic;
        let range = match self.shared.get(p + 1) {
            Some(&end) => self.shared[p] as usize..end as usize,
            None => 0..0,
        };
        SharedTaps {
            index: &self.shared_index[range.clone()],
            weights: &self.shared_weights[range],
        }
    }

    /// Whether these packed weights were built from a tensor of `shape`.
    pub fn matches(&self, shape: &Shape) -> bool {
        shape.dims() == [self.out_c, self.in_c, self.kh, self.kw]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_nonzero_taps_in_row_major_order() {
        // 2 out, 1 in, 2x2 kernels; second kernel fully pruned.
        let w = Tensor::from_vec(
            Shape::nchw(2, 1, 2, 2),
            vec![1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
        )
        .unwrap();
        let p = PackedConv::pack(&w).unwrap();
        assert_eq!((p.out_c(), p.in_c(), p.kh(), p.kw()), (2, 1, 2, 2));
        assert_eq!(p.nonzeros(), 2);
        let g = p.group(0, 0);
        assert_eq!(g.len(), 2);
        assert_eq!((g[0].r, g[0].c, g[0].v), (0, 0, 1.0));
        assert_eq!((g[1].r, g[1].c, g[1].v), (1, 1, 2.0));
        assert!(p.group(1, 0).is_empty());
        assert!(p.matches(w.shape()));
        assert!(!p.matches(&Shape::nchw(1, 1, 2, 2)));
    }

    #[test]
    fn blocks_that_keep_the_same_taps_store_them_once() {
        // 9 out (two full blocks and a tail of one), 2 in, 2x2 kernels.
        // Every kernel keeps taps 0 and 3, except (5, 1), which drops tap 3:
        // block 1's pair for ic 1 runs kernel by kernel.
        let w = Tensor::from_fn(Shape::nchw(9, 2, 2, 2), |i| {
            let (g, t) = (i / 4, i % 4);
            let dropped = g == 5 * 2 + 1 && t == 3;
            if (t == 0 || t == 3) && !dropped {
                (i + 1) as f32
            } else {
                0.0
            }
        });
        let p = PackedConv::pack(&w).unwrap();
        assert_eq!(p.nonzeros(), w.count_nonzero());
        for (b, ic) in [(0, 0), (0, 1), (1, 0)] {
            let s = p.shared(b, ic);
            assert_eq!(s.index, [0, 3], "pair ({b}, {ic})");
            for (t, lanes) in s.index.iter().zip(s.weights) {
                for (j, &v) in lanes.iter().enumerate() {
                    let oc = BLOCK * b + j;
                    assert_eq!(
                        v,
                        w.get(&[oc, ic, *t as usize / 2, *t as usize % 2]).unwrap()
                    );
                    assert!(p.group(oc, ic).is_empty());
                }
            }
        }
        assert!(p.shared(1, 1).index.is_empty());
        assert_eq!(p.group(4, 1).len(), 2);
        assert_eq!(p.group(5, 1).len(), 1);
        assert!(p.shared(2, 0).index.is_empty(), "the ragged tail");
        let tail = p.group(8, 0);
        assert_eq!((tail[1].r, tail[1].c, tail[1].v), (1, 1, 68.0));
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(PackedConv::pack(&Tensor::zeros(Shape::matrix(2, 2))).is_err());
    }

    #[test]
    fn rejects_non_finite_weights() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let w = Tensor::from_vec(Shape::nchw(1, 1, 1, 3), vec![0.5, 0.0, bad]).unwrap();
            match PackedConv::pack(&w) {
                Err(TensorError::NonFiniteWeight { index, value }) => {
                    assert_eq!(index, 2);
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("{bad} packed as {other:?}"),
            }
        }
    }
}
