//! Shared candidate-scan machinery for head decoders.
//!
//! Both detection heads (the BEV LiDAR head and the camera keypoint head)
//! scan a dense `cells × classes` score map for above-threshold candidates
//! before any geometry work. This module owns the two tricks that make
//! that scan the fast path:
//!
//! * **Logit-domain thresholding** — `sigmoid` is strictly increasing, so
//!   `sigmoid(x) ≥ t` can be prefiltered as `x ≥ logit(t)` on the raw head
//!   output. The prefilter uses a slightly *lowered* logit bound and
//!   survivors still run the exact sigmoid comparison, so the emitted set
//!   (and every emitted score bit) is identical to the sigmoid-domain
//!   scan while below-threshold cells skip the transcendentals entirely.
//! * **Parallel chunked scan** — cells are split into fixed-size chunks
//!   farmed over the persistent tensor worker pool
//!   ([`parallel_for_chunks`]); each chunk fills its own candidate buffer
//!   and the buffers are concatenated in chunk order, so the candidate
//!   list is byte-identical to the serial scan at any thread count.

use crate::box3d::Box3d;
use std::sync::Mutex;
use upaq_tensor::ops::{parallel_for_chunks, TensorParallel};

/// Cells per parallel scan chunk. A grid that fits in one chunk scans
/// serially — pool dispatch would cost more than the scan itself.
const CHUNK_CELLS: usize = 512;

/// The logistic function. Shared by both heads so the decode fast path
/// and the reference oracle agree bit for bit.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Inverse of [`sigmoid`] over `(0, 1)`.
pub(crate) fn logit(p: f32) -> f32 {
    (p / (1.0 - p)).ln()
}

/// A raw-logit lower bound implied by sigmoid threshold `t`: cells below
/// the bound cannot reach `t` after the sigmoid, and cells at or above it
/// still run the exact sigmoid comparison. The bound is lowered by a
/// safety margin (and clamped finite) so float rounding can never reject
/// a cell the exact comparison would keep.
pub(crate) fn prefilter_logit(t: f32) -> f32 {
    let lo = logit(t) - 1e-3;
    if lo.is_nan() {
        // `t` outside [0, 1]: no useful prefilter; pass every cell to the
        // exact comparison.
        f32::NEG_INFINITY
    } else {
        // f32 sigmoid saturates to exactly 1.0 only past x ≈ 16.6; keep
        // the bound below that so score-1.0 cells are still scanned even
        // when `t` is 1.0 (logit = +∞).
        lo.min(16.0)
    }
}

/// NaN-rejecting threshold check: true iff `score` is a real number at or
/// above `t`. `NaN >= t` is false, so a poisoned logit whose sigmoid is
/// NaN can never emit a candidate — unlike `score < t`, which lets NaN
/// through into NMS.
pub(crate) fn meets_threshold(score: f32, t: f32) -> bool {
    score >= t
}

/// Runs `per_cell(idx, &mut out)` for every `idx` in `0..n_cells` and
/// returns the concatenated emissions in ascending-`idx` order.
///
/// When the configured [`TensorParallel::threads`] count is above one and
/// the grid spans more than one chunk, chunks are claimed by the
/// persistent worker pool; per-chunk buffers concatenated in fixed chunk
/// order make the result byte-identical to the serial loop.
pub(crate) fn scan_cells<F>(n_cells: usize, per_cell: F) -> Vec<Box3d>
where
    F: Fn(usize, &mut Vec<Box3d>) + Sync,
{
    let chunks = n_cells.div_ceil(CHUNK_CELLS);
    if TensorParallel::threads() <= 1 || chunks <= 1 {
        let mut out = Vec::new();
        for idx in 0..n_cells {
            per_cell(idx, &mut out);
        }
        return out;
    }
    let buffers: Vec<Mutex<Vec<Box3d>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
    parallel_for_chunks(chunks, |c| {
        // Uncontended by construction: chunk `c` is claimed exactly once.
        let mut local = buffers[c].lock().unwrap();
        let lo = c * CHUNK_CELLS;
        let hi = (lo + CHUNK_CELLS).min(n_cells);
        for idx in lo..hi {
            per_cell(idx, &mut local);
        }
    });
    let mut out = Vec::new();
    for buf in buffers {
        out.append(&mut buf.into_inner().unwrap());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_kitti::ObjectClass;

    fn marker(idx: usize) -> Box3d {
        Box3d::axis_aligned(
            ObjectClass::Car,
            [idx as f32, 0.0, 0.8],
            [4.0, 2.0, 1.6],
            0.9,
        )
    }

    #[test]
    fn serial_scan_preserves_cell_order() {
        let out = scan_cells(10, |idx, out| {
            if idx % 2 == 0 {
                out.push(marker(idx));
            }
        });
        let xs: Vec<f32> = out.iter().map(|b| b.center[0]).collect();
        assert_eq!(xs, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn empty_grid_scans_to_nothing() {
        assert!(scan_cells(0, |_, out| out.push(marker(0))).is_empty());
    }

    #[test]
    fn prefilter_never_tighter_than_exact_threshold() {
        for t in [0.01f32, 0.1, 0.3, 0.45, 0.5, 0.9, 0.99, 0.999] {
            let floor = prefilter_logit(t);
            // Any logit whose sigmoid meets the threshold must survive the
            // prefilter.
            for x in (-200..=200).map(|i| i as f32 / 10.0) {
                if sigmoid(x) >= t {
                    assert!(x >= floor, "prefilter rejected x={x} at t={t}");
                }
            }
        }
    }

    #[test]
    fn prefilter_degenerate_thresholds() {
        // t = 0 keeps everything; t = 1 must still admit saturated cells;
        // out-of-range t falls back to no prefilter.
        assert_eq!(prefilter_logit(0.0), f32::NEG_INFINITY);
        assert!(prefilter_logit(1.0) <= 16.0);
        assert!(sigmoid(17.0) >= 1.0 && 17.0 >= prefilter_logit(1.0));
        assert_eq!(prefilter_logit(1.5), f32::NEG_INFINITY);
        assert_eq!(prefilter_logit(-0.5), f32::NEG_INFINITY);
    }
}
