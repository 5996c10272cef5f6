//! Gather convolution over sparse activations.
//!
//! [`conv2d_sparse_act`] computes only the output sites *reachable* from
//! active input sites (the active set dilated by the kernel footprint,
//! exactly as strided/padded dense conv would spread them —
//! [`dilate_active`]) and fills the rest with a per-channel background
//! propagated through the same arithmetic. No forward executor runs it:
//! dilation makes a PointPillars backbone's maps dense within a stage or
//! two, and the tap-run dense kernel outruns the gather on every catalog
//! profile (DESIGN.md, "Sparse activation path"). It is kept as a tested
//! library op, one site at a time on the calling thread.
//!
//! # Bit-identity argument
//!
//! Each computed site runs the dense oracle's arithmetic — per-`ic` local
//! sums over the in-bounds taps in row-major order, joined in `ic` order,
//! bias last — so active sites match [`super::conv2d`] for finite weights.
//! Inactive sites hold the propagated background
//! `bg_out[oc] = Σ_ic Σ_taps w·bg_in[ic] (+ bias)`, accumulated in the
//! identical order. That equals the dense value at every non-dilated site
//! because:
//!
//! * an **interior** site's receptive field is entirely in-bounds, so its
//!   dense value over an all-background neighbourhood is exactly the
//!   full-tap sum `bg_out[oc]`;
//! * a padded **border** site drops taps. When `bg_in` is all zero bits
//!   (`±0.0`), every tap contributes `w · ±0.0 = ±0.0` and IEEE-754
//!   round-to-nearest sums of zeros starting from `+0.0` stay `+0.0`
//!   regardless of which taps participate — border and interior agree
//!   bit-for-bit. When any `bg_in` channel is nonzero, border sites *are*
//!   different, so [`dilate_active`] force-activates the whole border ring
//!   and they are computed explicitly.

use super::conv::{conv2d_packed_dims, finish_bias};
use super::Conv2dParams;
use crate::packed::PackedConv;
use crate::sparse_act::SparseActivation;
use crate::{Result, Shape, Tensor};

/// Dilates an active input set through a conv: returns the sorted output
/// sites whose receptive field overlaps at least one active input site,
/// plus the output spatial size `(oh, ow)`.
///
/// Input site `(iy, ix)` reaches output `(oy, ox)` iff some kernel tap
/// `(r, c)` satisfies `oy·stride + r - pad == iy` (and likewise for x),
/// i.e. `oy ∈ [⌈(iy + pad + 1 - kh) / stride⌉, ⌊(iy + pad) / stride⌋]`
/// clamped to `[0, oh)`.
///
/// When `background_nonzero`, every non-interior (border) output site is
/// additionally marked active: with a nonzero background, border sites sum
/// fewer taps than the interior and hold a different value, so they must
/// be computed rather than background-filled (see the module docs).
pub fn dilate_active(
    sites: &[u32],
    in_hw: (usize, usize),
    kernel: (usize, usize),
    params: Conv2dParams,
    background_nonzero: bool,
) -> (Vec<u32>, (usize, usize)) {
    let (h, w) = in_hw;
    let (kh, kw) = kernel;
    let (stride, pad) = (params.stride, params.padding);
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    if oh == 0 || ow == 0 {
        return (Vec::new(), (oh, ow));
    }
    let mut mask = vec![false; oh * ow];
    let span = |i: usize, k: usize, out: usize| -> (usize, usize) {
        let lo = (i + pad + 1).saturating_sub(k).div_ceil(stride);
        let hi = ((i + pad) / stride).min(out - 1);
        (lo, hi)
    };
    for &site in sites {
        let (iy, ix) = (site as usize / w, site as usize % w);
        let (y_lo, y_hi) = span(iy, kh, oh);
        let (x_lo, x_hi) = span(ix, kw, ow);
        if y_lo > y_hi || x_lo > x_hi {
            continue;
        }
        for oy in y_lo..=y_hi {
            mask[oy * ow + x_lo..=oy * ow + x_hi].fill(true);
        }
    }
    if background_nonzero {
        // Output `o` is interior along an axis of input size `n` when its
        // whole receptive field `[o·stride − pad, o·stride − pad + k)`
        // lies inside `[0, n)`.
        let interior =
            |o: usize, n: usize, k: usize| o * stride >= pad && o * stride + k <= n + pad;
        for oy in 0..oh {
            for ox in 0..ow {
                if !(interior(oy, h, kh) && interior(ox, w, kw)) {
                    mask[oy * ow + ox] = true;
                }
            }
        }
    }
    let out_sites = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i as u32))
        .collect();
    (out_sites, (oh, ow))
}

/// Propagates a per-channel background through packed conv weights:
/// `bg_out[oc] = Σ_ic Σ_taps w·bg_in[ic] (+ bias)`, accumulated in the
/// exact tap/channel/bias order of the dense kernels.
fn conv_background(packed: &PackedConv, bias: Option<&Tensor>, background: &[f32]) -> Vec<f32> {
    (0..packed.out_c())
        .map(|oc| {
            let bias_v = bias.map_or(0.0, |b| b.as_slice()[oc]);
            let mut total = 0.0f32;
            for (ic, &bg) in background.iter().enumerate().take(packed.in_c()) {
                let taps = packed.group(oc, ic);
                if taps.is_empty() {
                    continue;
                }
                let mut acc = 0.0f32;
                for t in taps {
                    acc += t.v * bg;
                }
                total += acc;
            }
            finish_bias(total, bias_v)
        })
        .collect()
}

/// Output site `(oy, ox)` of channel `oc` before bias, in the dense
/// oracle's order: per-`ic` local sums over the in-bounds taps in
/// row-major order, joined in `ic` order.
fn site_sum(
    oc: usize,
    idata: &[f32],
    packed: &PackedConv,
    params: Conv2dParams,
    hw: (usize, usize),
    (oy, ox): (usize, usize),
) -> f32 {
    let (h, w) = hw;
    let (stride, pad) = (params.stride, params.padding);
    let mut total = 0.0f32;
    for ic in 0..packed.in_c() {
        let taps = packed.group(oc, ic);
        if taps.is_empty() {
            continue;
        }
        let mut acc = 0.0f32;
        for t in taps {
            // Padded coordinates, translated to the unpadded input.
            let (iy, ix) = (oy * stride + t.r as usize, ox * stride + t.c as usize);
            if iy < pad || ix < pad || iy - pad >= h || ix - pad >= w {
                continue;
            }
            acc += t.v * idata[(ic * h + iy - pad) * w + ix - pad];
        }
        total += acc;
    }
    total
}

/// Sparse-activation convolution: packs `weights`, computes the sites
/// [`dilate_active`] reaches and background-fills the rest. Returns the
/// output as a [`SparseActivation`] whose active set is the dilation of
/// the input's; its dense form is raw-bits identical to [`super::conv2d`]
/// over `input.to_dense()`.
///
/// # Errors
///
/// Packing errors for malformed or non-finite weights, and all `conv2d`
/// validation errors.
pub fn conv2d_sparse_act(
    input: &SparseActivation,
    weights: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<SparseActivation> {
    let packed = PackedConv::pack(weights)?;
    let dense_in = input.to_dense();
    let (oh, ow) = conv2d_packed_dims(&dense_in, &packed, bias, params)?;
    let hw = (input.shape().dim(2), input.shape().dim(3));
    let (out_sites, _) = dilate_active(
        input.sites(),
        hw,
        (packed.kh(), packed.kw()),
        params,
        input.background_nonzero(),
    );
    let bg_out = conv_background(&packed, bias, input.background());
    let mut out = Tensor::zeros(Shape::nchw(1, packed.out_c(), oh, ow));
    let chan = oh * ow;
    if chan > 0 {
        let idata = dense_in.as_slice();
        for (oc, ochan) in out.as_mut_slice().chunks_exact_mut(chan).enumerate() {
            ochan.fill(bg_out[oc]);
            let bias_v = bias.map_or(0.0, |b| b.as_slice()[oc]);
            for &site in &out_sites {
                let (oy, ox) = (site as usize / ow, site as usize % ow);
                let total = site_sum(oc, idata, &packed, params, hw, (oy, ox));
                ochan[site as usize] = finish_bias(total, bias_v);
            }
        }
    }
    SparseActivation::from_dense_sites(&out, out_sites, bg_out)
}

#[cfg(test)]
mod tests {
    use super::super::conv2d;
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn sparse_input(c: usize, h: usize, w: usize, sites: &[u32], seed: u32) -> SparseActivation {
        let mut dense = Tensor::zeros(Shape::nchw(1, c, h, w));
        let data = dense.as_mut_slice();
        for (k, &site) in sites.iter().enumerate() {
            for ch in 0..c {
                let v = ((seed as f32 + k as f32 * 1.7 + ch as f32 * 0.31).sin()) * 2.0;
                data[ch * h * w + site as usize] = if v == 0.0 { 1.0 } else { v };
            }
        }
        SparseActivation::from_dense(&dense, vec![0.0; c]).unwrap()
    }

    fn weights(out_c: usize, in_c: usize, k: usize, seed: f32) -> Tensor {
        Tensor::from_fn(Shape::nchw(out_c, in_c, k, k), |i| {
            // Mix of zero (pruned) and nonzero taps.
            if i % 3 == 0 {
                0.0
            } else {
                (i as f32 * 0.13 + seed).cos()
            }
        })
    }

    /// Dense-oracle identity for one geometry: raw bits everywhere, and
    /// the active set covers every site where dense differs from bg.
    fn check_geometry(k: usize, stride: usize, padding: usize, bias: Option<Tensor>) {
        let (c_in, c_out, h, w) = (3, 4, 9, 11);
        let params = Conv2dParams { stride, padding };
        let sites = [0u32, 5, 37, 38, 39, 60, 97];
        let sp = sparse_input(c_in, h, w, &sites, 3);
        let wts = weights(c_out, c_in, k, 0.4);
        let dense_out = conv2d(&sp.to_dense(), &wts, bias.as_ref(), params).unwrap();
        let sparse_out = conv2d_sparse_act(&sp, &wts, bias.as_ref(), params).unwrap();
        assert_eq!(
            bits(&sparse_out.to_dense()),
            bits(&dense_out),
            "k{k} s{stride} p{padding}"
        );
        // Dilation correctness: superset allowed, never subset.
        let (oh, ow) = (dense_out.shape().dim(2), dense_out.shape().dim(3));
        let odata = dense_out.as_slice();
        let bg = sparse_out.background();
        for site in 0..oh * ow {
            let differs =
                (0..c_out).any(|oc| odata[oc * oh * ow + site].to_bits() != bg[oc].to_bits());
            if differs {
                assert!(
                    sparse_out.sites().binary_search(&(site as u32)).is_ok(),
                    "k{k} s{stride} p{padding}: site {site} differs from bg but is inactive"
                );
            }
        }
    }

    #[test]
    fn backbone_geometry_3x3_s1_identity_and_dilation() {
        check_geometry(3, 1, 1, None);
    }

    #[test]
    fn backbone_geometry_3x3_s2_identity_and_dilation() {
        check_geometry(3, 2, 1, None);
    }

    #[test]
    fn backbone_geometry_1x1_identity_and_dilation() {
        check_geometry(1, 1, 0, None);
    }

    #[test]
    fn nonzero_bias_activates_border_and_matches_dense() {
        // A nonzero bias makes the background nonzero downstream; with a
        // nonzero *input* background the border ring must be computed.
        let bias = Tensor::from_vec(Shape::vector(4), vec![0.5, -1.25, 0.0, 2.0]).unwrap();
        check_geometry(3, 1, 1, Some(bias));

        // Now feed a nonzero-background input directly.
        let params = Conv2dParams::same(3);
        let (c, h, w) = (2, 7, 7);
        let mut dense = Tensor::full(Shape::nchw(1, c, h, w), 0.75);
        dense.as_mut_slice()[3 * w + 4] = 2.5;
        let sp = SparseActivation::from_dense(&dense, vec![0.75; c]).unwrap();
        assert_eq!(sp.len(), 1);
        assert!(sp.background_nonzero());
        let wts = weights(3, c, 3, 1.1);
        let dense_out = conv2d(&dense, &wts, None, params).unwrap();
        let sparse_out = conv2d_sparse_act(&sp, &wts, None, params).unwrap();
        assert_eq!(bits(&sparse_out.to_dense()), bits(&dense_out));
    }

    #[test]
    fn empty_active_set_yields_background_map() {
        let sp =
            SparseActivation::from_dense(&Tensor::zeros(Shape::nchw(1, 2, 6, 6)), vec![0.0; 2])
                .unwrap();
        let wts = weights(3, 2, 3, 0.9);
        let out = conv2d_sparse_act(&sp, &wts, None, Conv2dParams::same(3)).unwrap();
        assert!(out.is_empty());
        let dense = conv2d(&sp.to_dense(), &wts, None, Conv2dParams::same(3)).unwrap();
        assert_eq!(bits(&out.to_dense()), bits(&dense));
    }

    #[test]
    fn dilation_spans_match_brute_force() {
        // Every (kernel, stride, pad) small case: dilate_active must equal
        // the brute-force receptive-field scan.
        for &(k, s, p) in &[
            (3usize, 1usize, 1usize),
            (3, 2, 1),
            (1, 1, 0),
            (5, 2, 2),
            (3, 1, 0),
        ] {
            let (h, w) = (8, 6);
            let params = Conv2dParams {
                stride: s,
                padding: p,
            };
            let sites: Vec<u32> = vec![0, 7, 23, 41, 47];
            let (got, (oh, ow)) = dilate_active(&sites, (h, w), (k, k), params, false);
            let mut expect = Vec::new();
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut hit = false;
                    for r in 0..k {
                        for c in 0..k {
                            let (iy, ix) = (oy * s + r, ox * s + c);
                            if iy < p || ix < p {
                                continue;
                            }
                            let (iy, ix) = (iy - p, ix - p);
                            if iy < h && ix < w && sites.contains(&((iy * w + ix) as u32)) {
                                hit = true;
                            }
                        }
                    }
                    if hit {
                        expect.push((oy * ow + ox) as u32);
                    }
                }
            }
            assert_eq!(got, expect, "k{k} s{s} p{p}");
        }
    }
}
