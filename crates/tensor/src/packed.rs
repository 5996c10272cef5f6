//! Packed sparse convolution weights.
//!
//! The pattern pruner fixes each kernel's zero structure at compression
//! time, yet a conv kernel over dense weights would re-scan the tensor for
//! non-zero taps on **every** invocation. Packing hoists that scan out of
//! the per-frame loop: [`PackedConv`] stores, per `(out_c, in_c)` kernel,
//! the list of surviving taps `(row, col, value)` in the exact row-major
//! order the dense scan produced — so a kernel consuming the packed form
//! performs bit-identical arithmetic to one scanning the dense tensor,
//! while touching only the non-zero weights.
//!
//! Packing is built once (when a model variant is constructed) and shared
//! immutably afterwards; mutating a layer's weights must invalidate its
//! pack.

use crate::{Result, Shape, Tensor, TensorError};

/// One surviving weight tap: kernel row, kernel column, value.
///
/// Rows/columns are `u16` (alignment makes this free next to the value) —
/// packing rejects kernels over 65535 per spatial axis, far beyond
/// anything representable in memory anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Kernel row.
    pub r: u16,
    /// Kernel column.
    pub c: u16,
    /// Weight value.
    pub v: f32,
}

/// Packed non-zero taps of a rank-4 f32 conv weight tensor, grouped per
/// `(out_c, in_c)` kernel in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConv {
    out_c: usize,
    in_c: usize,
    kh: usize,
    kw: usize,
    /// `offsets[oc * in_c + ic] .. offsets[oc * in_c + ic + 1]` indexes
    /// the taps of kernel `(oc, ic)`; length `out_c * in_c + 1`.
    offsets: Vec<usize>,
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
    /// [`TensorError::Invalid`] for kernels over 65535 per spatial axis and
    /// [`TensorError::NonFiniteWeight`] for a NaN or infinite weight.
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
        if kh > u16::MAX as usize || kw > u16::MAX as usize {
            return Err(TensorError::Invalid(format!(
                "cannot pack {kh}x{kw} kernels (max 65535 per axis)"
            )));
        }
        let mut offsets = Vec::with_capacity(out_c * in_c + 1);
        let mut taps = Vec::new();
        offsets.push(0);
        for oc in 0..out_c {
            for ic in 0..in_c {
                let kbase = (oc * in_c + ic) * kh * kw;
                for r in 0..kh {
                    for c in 0..kw {
                        let v = data[kbase + r * kw + c];
                        if v != 0.0 {
                            taps.push(Tap {
                                r: r as u16,
                                c: c as u16,
                                v,
                            });
                        }
                    }
                }
                offsets.push(taps.len());
            }
        }
        Ok(PackedConv {
            out_c,
            in_c,
            kh,
            kw,
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

    /// Total surviving (non-zero) taps.
    pub fn nonzeros(&self) -> usize {
        self.taps.len()
    }

    /// The taps of kernel `(oc, ic)`, in the row-major order the dense
    /// scan would visit them.
    pub fn group(&self, oc: usize, ic: usize) -> &[Tap] {
        let g = oc * self.in_c + ic;
        &self.taps[self.offsets[g]..self.offsets[g + 1]]
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
