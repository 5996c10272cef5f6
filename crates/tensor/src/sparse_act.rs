//! Sparse activations: an active-site coordinate list over a
//! mostly-constant feature map.
//!
//! The BEV pseudo-image PointPillars consumes is overwhelmingly empty —
//! only cells that received at least one LiDAR return carry information.
//! [`SparseActivation`] represents such a map as the list of active
//! spatial sites (sorted row-major linear indices `y * w + x`), a
//! site-major matrix of per-site channel vectors, and a per-channel
//! *background* value that every inactive site holds. The background is
//! per-channel (not just zero) because convolution biases and batch-norm
//! shifts turn the all-zero empty region into a nonzero constant; carrying
//! it explicitly is what lets the gather conv
//! ([`crate::ops::conv2d_sparse_act`]) stay raw-bits identical to the
//! dense kernel. No forward executor uses either (DESIGN.md, "Sparse
//! activation path").
//!
//! `from_dense`/`to_dense` round-trip exactly: site values and the
//! background are stored verbatim, and activity is decided by *bit*
//! comparison against the background (so `-0.0` vs `+0.0` and NaN payloads
//! are preserved, the same discipline as the rest of the bit-identity
//! firewall).

use crate::{Result, Shape, Tensor, TensorError};

/// A rank-4 `[1, c, h, w]` activation stored as active sites over a
/// per-channel constant background. See the module docs for the
/// representation contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseActivation {
    shape: Shape,
    /// Sorted row-major linear spatial indices (`y * w + x`) of active sites.
    sites: Vec<u32>,
    /// Site-major channel vectors: `values[s * c + ch]` is channel `ch` of
    /// the `s`-th active site.
    values: Vec<f32>,
    /// Per-channel value held by every inactive site, length `c`.
    background: Vec<f32>,
}

impl SparseActivation {
    /// Builds a sparse activation from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when the shape is not rank-4 with
    /// batch 1, the sites are unsorted/duplicated/out of range, or the
    /// value/background lengths disagree with the shape.
    pub fn from_parts(
        shape: Shape,
        sites: Vec<u32>,
        values: Vec<f32>,
        background: Vec<f32>,
    ) -> Result<Self> {
        let (c, h, w) = check_shape(&shape)?;
        let n_cells = h * w;
        if background.len() != c {
            return Err(TensorError::Invalid(format!(
                "background length {} does not match {c} channels",
                background.len()
            )));
        }
        if values.len() != sites.len() * c {
            return Err(TensorError::Invalid(format!(
                "values length {} does not match {} sites × {c} channels",
                values.len(),
                sites.len()
            )));
        }
        let mut prev: Option<u32> = None;
        for &s in &sites {
            if (s as usize) >= n_cells {
                return Err(TensorError::Invalid(format!(
                    "site {s} out of range for {h}×{w} map"
                )));
            }
            if prev.is_some_and(|p| p >= s) {
                return Err(TensorError::Invalid(
                    "sites must be strictly increasing".into(),
                ));
            }
            prev = Some(s);
        }
        Ok(SparseActivation {
            shape,
            sites,
            values,
            background,
        })
    }

    /// Converts a dense `[1, c, h, w]` tensor, deriving the active set by
    /// bit-comparing every site's channel vector against `background` — a
    /// site is active iff any channel's bits differ.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] for non-`[1, c, h, w]` tensors or
    /// a background of the wrong length.
    pub fn from_dense(dense: &Tensor, background: Vec<f32>) -> Result<Self> {
        let (c, h, w) = check_shape(dense.shape())?;
        if background.len() != c {
            return Err(TensorError::Invalid(format!(
                "background length {} does not match {c} channels",
                background.len()
            )));
        }
        let n_cells = h * w;
        let data = dense.as_slice();
        let mut sites = Vec::new();
        for site in 0..n_cells {
            if (0..c).any(|ch| data[ch * n_cells + site].to_bits() != background[ch].to_bits()) {
                sites.push(site as u32);
            }
        }
        let values = gather(data, &sites, c, n_cells);
        Ok(SparseActivation {
            shape: dense.shape().clone(),
            sites,
            values,
            background,
        })
    }

    /// Converts a dense tensor whose active set is already known (e.g. the
    /// dilated site list a sparse conv computed), gathering the listed
    /// sites' channel vectors verbatim. Sites not listed must actually
    /// hold `background` for the round-trip to be exact; this is the
    /// caller's contract (debug-asserted).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] under the same conditions as
    /// [`SparseActivation::from_parts`].
    pub fn from_dense_sites(dense: &Tensor, sites: Vec<u32>, background: Vec<f32>) -> Result<Self> {
        let (c, h, w) = check_shape(dense.shape())?;
        let n_cells = h * w;
        let data = dense.as_slice();
        let values = gather(data, &sites, c, n_cells);
        let out = Self::from_parts(dense.shape().clone(), sites, values, background)?;
        #[cfg(debug_assertions)]
        {
            let mut next = 0usize;
            for site in 0..n_cells {
                if next < out.sites.len() && out.sites[next] as usize == site {
                    next += 1;
                    continue;
                }
                for ch in 0..c {
                    debug_assert_eq!(
                        data[ch * n_cells + site].to_bits(),
                        out.background[ch].to_bits(),
                        "unlisted site {site} channel {ch} differs from background"
                    );
                }
            }
        }
        Ok(out)
    }

    /// Materializes the dense `[1, c, h, w]` tensor: background fill plus
    /// scattered site values. Exact inverse of [`SparseActivation::from_dense`].
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.shape.clone());
        self.scatter_into(&mut out)
            .expect("self-derived shape matches");
        out
    }

    /// Writes the dense form into a caller-provided tensor (background
    /// fill, then active-site scatter), reusing its buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `out` has a different
    /// shape.
    pub fn scatter_into(&self, out: &mut Tensor) -> Result<()> {
        if out.shape() != &self.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: out.shape().dims().to_vec(),
            });
        }
        let (c, h, w) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        let n_cells = h * w;
        let data = out.as_mut_slice();
        for ch in 0..c {
            data[ch * n_cells..(ch + 1) * n_cells].fill(self.background[ch]);
        }
        for (s, &site) in self.sites.iter().enumerate() {
            for ch in 0..c {
                data[ch * n_cells + site as usize] = self.values[s * c + ch];
            }
        }
        Ok(())
    }

    /// The dense shape `[1, c, h, w]`.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Sorted row-major linear indices of active sites.
    pub fn sites(&self) -> &[u32] {
        &self.sites
    }

    /// Per-channel background value at inactive sites.
    pub fn background(&self) -> &[f32] {
        &self.background
    }

    /// Number of active sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site is active (an empty scene).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Active fraction: active sites over total spatial sites (0.0 for a
    /// degenerate zero-area map).
    pub fn density(&self) -> f64 {
        let cells = self.shape.dim(2) * self.shape.dim(3);
        if cells == 0 {
            0.0
        } else {
            self.sites.len() as f64 / cells as f64
        }
    }

    /// Whether any background channel is nonzero — the condition under
    /// which padded-border conv sites see a different tap sum than the
    /// interior and must be treated as active.
    pub fn background_nonzero(&self) -> bool {
        self.background.iter().any(|&v| v != 0.0)
    }
}

fn check_shape(shape: &Shape) -> Result<(usize, usize, usize)> {
    if shape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: shape.rank(),
        });
    }
    if shape.dim(0) != 1 {
        return Err(TensorError::Invalid(
            "sparse activations support batch size 1 only".into(),
        ));
    }
    Ok((shape.dim(1), shape.dim(2), shape.dim(3)))
}

fn gather(data: &[f32], sites: &[u32], c: usize, n_cells: usize) -> Vec<f32> {
    let mut values = Vec::with_capacity(sites.len() * c);
    for &site in sites {
        for ch in 0..c {
            values.push(data[ch * n_cells + site as usize]);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip_is_bit_exact() {
        let shape = Shape::nchw(1, 3, 4, 5);
        let dense = Tensor::from_fn(shape.clone(), |i| {
            if i % 7 == 0 {
                (i as f32 * 0.37).sin()
            } else {
                0.25
            }
        });
        let sp = SparseActivation::from_dense(&dense, vec![0.25; 3]).unwrap();
        assert!(sp.len() < 20);
        let back = sp.to_dense();
        let a: Vec<u32> = dense.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn signed_zero_counts_as_active() {
        let mut dense = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        dense.as_mut_slice()[3] = -0.0;
        let sp = SparseActivation::from_dense(&dense, vec![0.0]).unwrap();
        assert_eq!(sp.sites(), &[3]);
        assert_eq!(sp.to_dense().as_slice()[3].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn from_parts_validates() {
        let shape = Shape::nchw(1, 2, 2, 2);
        // Unsorted sites.
        assert!(SparseActivation::from_parts(
            shape.clone(),
            vec![2, 1],
            vec![0.0; 4],
            vec![0.0; 2]
        )
        .is_err());
        // Out-of-range site.
        assert!(
            SparseActivation::from_parts(shape.clone(), vec![4], vec![0.0; 2], vec![0.0; 2])
                .is_err()
        );
        // Wrong value length.
        assert!(
            SparseActivation::from_parts(shape.clone(), vec![0], vec![0.0; 3], vec![0.0; 2])
                .is_err()
        );
        // Wrong background length.
        assert!(
            SparseActivation::from_parts(shape.clone(), vec![0], vec![0.0; 2], vec![0.0]).is_err()
        );
        assert!(
            SparseActivation::from_parts(shape, vec![0, 3], vec![0.5; 4], vec![0.0; 2]).is_ok()
        );
    }

    #[test]
    fn empty_scene_roundtrip() {
        let dense = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
        let sp = SparseActivation::from_dense(&dense, vec![0.0; 2]).unwrap();
        assert!(sp.is_empty());
        assert_eq!(sp.density(), 0.0);
        assert_eq!(sp.to_dense().as_slice(), dense.as_slice());
    }

    #[test]
    fn scatter_into_respects_background() {
        let shape = Shape::nchw(1, 2, 2, 2);
        let sp =
            SparseActivation::from_parts(shape.clone(), vec![1], vec![7.0, -3.0], vec![0.5, 1.5])
                .unwrap();
        let mut out = Tensor::zeros(shape);
        sp.scatter_into(&mut out).unwrap();
        assert_eq!(out.as_slice(), &[0.5, 7.0, 0.5, 0.5, 1.5, -3.0, 1.5, 1.5]);
    }
}
