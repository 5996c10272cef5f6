//! Detection-head output encoding and decoding.
//!
//! The detector networks end in a dense BEV map with, per cell, one score
//! logit per class plus eight shared regression channels
//! `(dx, dy, z, log l, log w, log h, sin yaw, cos yaw)`. Offsets are in cell
//! units; sizes are log-ratios against per-class anchor dimensions, the
//! standard SSD-style parameterization PointPillars uses.

use crate::box3d::Box3d;
use crate::nms::nms_top_k;
use crate::pillars::BevGrid;
use crate::scan::{logit, meets_threshold, prefilter_logit, scan_cells, sigmoid};
use serde::{Deserialize, Serialize};
use upaq_kitti::ObjectClass;
use upaq_tensor::{Shape, Tensor};

/// Number of shared box-regression channels.
pub const REGRESSION_CHANNELS: usize = 8;

/// Decoding parameters of a detection head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadSpec {
    /// BEV grid the head's output map covers.
    pub grid: BevGrid,
    /// Number of classes (score channels).
    pub num_classes: usize,
    /// Minimum sigmoid score to emit a detection.
    pub score_threshold: f32,
    /// NMS BEV-IoU threshold.
    pub nms_iou: f32,
    /// Maximum detections kept per frame.
    pub max_detections: usize,
}

impl HeadSpec {
    /// Standard three-class head over a grid.
    pub fn kitti(grid: BevGrid) -> Self {
        HeadSpec {
            grid,
            num_classes: ObjectClass::ALL.len(),
            score_threshold: 0.45,
            nms_iou: 0.25,
            max_detections: 30,
        }
    }

    /// Total output channels: one score per class plus the regression block.
    pub fn channels(&self) -> usize {
        self.num_classes + REGRESSION_CHANNELS
    }

    /// Expected head-output shape.
    pub fn output_shape(&self) -> Shape {
        Shape::nchw(1, self.channels(), self.grid.cells_x, self.grid.cells_y)
    }
}

/// Builds the decoded box for one above-threshold `(cell, class)` site.
/// One shared body keeps the fast path and the reference oracle
/// bit-identical by construction.
#[inline]
fn decode_site(
    spec: &HeadSpec,
    data: &[f32],
    n_cells: usize,
    idx: usize,
    class: ObjectClass,
    score: f32,
) -> Box3d {
    let w = spec.grid.cells_y;
    let (cell_dx, cell_dy) = spec.grid.cell_size();
    let reg_base = spec.num_classes * n_cells;
    let (cx, cy) = (idx / w, idx % w);
    let (ccx, ccy) = spec.grid.cell_center(cx, cy);
    let reg = |k: usize| data[reg_base + k * n_cells + idx];
    let (al, aw, ah) = class.mean_dims();
    let x = ccx + reg(0).clamp(-2.0, 2.0) * cell_dx;
    let y = ccy + reg(1).clamp(-2.0, 2.0) * cell_dy;
    let z = reg(2);
    let l = al * reg(3).clamp(-1.5, 1.5).exp();
    let wd = aw * reg(4).clamp(-1.5, 1.5).exp();
    let ht = ah * reg(5).clamp(-1.5, 1.5).exp();
    let yaw = reg(6).atan2(reg(7));
    Box3d {
        class,
        center: [x, y, z],
        dims: [l, wd, ht],
        yaw,
        score,
    }
}

/// Decodes a head-output tensor into final detections (threshold → box
/// decode → class-bucketed NMS → top-k).
///
/// # Panics
///
/// Panics when `output` does not have the shape [`HeadSpec::output_shape`].
pub fn decode(output: &Tensor, spec: &HeadSpec) -> Vec<Box3d> {
    let candidates = decode_candidates(output, spec);
    nms_top_k(candidates, spec.nms_iou, spec.max_detections)
}

/// The pre-NMS candidate scan of [`decode`]: every `(cell, class)` site
/// whose sigmoid score meets `score_threshold`, in ascending cell order
/// (classes inner). Non-finite scores (NaN logits) are rejected — they
/// used to slip through the threshold and poison the NMS sort.
///
/// The scan compares raw logits against a precomputed conservative
/// `logit(score_threshold)` bound first, so below-threshold cells skip
/// the `sigmoid`/`exp`/`atan2` transcendentals entirely, and it runs
/// chunked over the persistent worker pool when kernel parallelism is
/// enabled. Both shortcuts are bit-identical to
/// [`decode_candidates_reference`], which the decode-identity proptests
/// assert as raw bits.
///
/// # Panics
///
/// Panics when `output` does not have the shape [`HeadSpec::output_shape`].
pub fn decode_candidates(output: &Tensor, spec: &HeadSpec) -> Vec<Box3d> {
    assert_eq!(
        output.shape(),
        &spec.output_shape(),
        "head output shape mismatch"
    );
    let n_cells = spec.grid.cells_x * spec.grid.cells_y;
    let data = output.as_slice();
    let raw_floor = prefilter_logit(spec.score_threshold);

    scan_cells(n_cells, |idx, out| {
        for ci in 0..spec.num_classes {
            // Class check first: an out-of-range channel must not pay the
            // transcendentals on every cell it covers.
            let class = match ObjectClass::from_index(ci) {
                Some(c) => c,
                None => continue,
            };
            let raw = data[ci * n_cells + idx];
            if raw < raw_floor {
                continue;
            }
            let score = sigmoid(raw);
            if !meets_threshold(score, spec.score_threshold) {
                continue;
            }
            out.push(decode_site(spec, data, n_cells, idx, class, score));
        }
    })
}

/// The naive serial sigmoid-domain scan — the oracle the optimized
/// [`decode_candidates`] is tested against, as the tensor kernels are
/// tested against naive oracles. Semantics are identical
/// (same candidate set, same NaN rejection); only the shortcuts differ:
/// no logit prefilter, no chunked parallelism.
pub fn decode_candidates_reference(output: &Tensor, spec: &HeadSpec) -> Vec<Box3d> {
    assert_eq!(
        output.shape(),
        &spec.output_shape(),
        "head output shape mismatch"
    );
    let n_cells = spec.grid.cells_x * spec.grid.cells_y;
    let data = output.as_slice();
    let mut out = Vec::new();
    for idx in 0..n_cells {
        for ci in 0..spec.num_classes {
            let class = match ObjectClass::from_index(ci) {
                Some(c) => c,
                None => continue,
            };
            let score = sigmoid(data[ci * n_cells + idx]);
            if !meets_threshold(score, spec.score_threshold) {
                continue;
            }
            out.push(decode_site(spec, data, n_cells, idx, class, score));
        }
    }
    out
}

/// Encodes ground-truth boxes into the ideal head output — the inverse of
/// [`decode`] (up to the regression clamps).
///
/// Assignment follows the centre-point convention: the cell containing the
/// box centre gets the full score logit, and *every* cell whose centre lies
/// inside the BEV footprint gets a slightly lower positive logit with
/// regression targets pointing back at the true centre. Real objects span
/// several cells, and supervising all of them is what lets a per-cell
/// regressor recover sub-cell-accurate centres (near-duplicate decodes
/// collapse in NMS). All other cells get a strongly negative logit.
pub fn encode_targets(boxes: &[Box3d], spec: &HeadSpec) -> Tensor {
    let (h, w) = (spec.grid.cells_x, spec.grid.cells_y);
    let n_cells = h * w;
    let mut data = vec![0.0f32; spec.channels() * n_cells];
    // Background logit → score ≈ 0.0025.
    let background = -6.0;
    for v in data.iter_mut().take(spec.num_classes * n_cells) {
        *v = background;
    }
    let (cell_dx, cell_dy) = spec.grid.cell_size();
    let reg_base = spec.num_classes * n_cells;

    let mut write_cell = |b: &Box3d, cx: usize, cy: usize, score: f32| {
        let idx = cx * w + cy;
        let ci = b.class.index();
        let slot = &mut data[ci * n_cells + idx];
        if *slot >= logit(score) {
            return; // already assigned a stronger (closer) object
        }
        *slot = logit(score);
        let (ccx, ccy) = spec.grid.cell_center(cx, cy);
        let (al, aw, ah) = b.class.mean_dims();
        let reg = [
            (b.center[0] - ccx) / cell_dx,
            (b.center[1] - ccy) / cell_dy,
            b.center[2],
            (b.dims[0] / al).ln(),
            (b.dims[1] / aw).ln(),
            (b.dims[2] / ah).ln(),
            b.yaw.sin(),
            b.yaw.cos(),
        ];
        for (k, v) in reg.iter().enumerate() {
            data[reg_base + k * n_cells + idx] = *v;
        }
    };

    for b in boxes {
        let centre_cell = spec.grid.cell_of(b.center[0], b.center[1]);
        // Sweep the cells the footprint can touch.
        let radius = (b.dims[0].max(b.dims[1])) / 2.0;
        let x0 = b.center[0] - radius;
        let x1 = b.center[0] + radius;
        let y0 = b.center[1] - radius;
        let y1 = b.center[1] + radius;
        let corners = b.bev_corners();
        let inside = |x: f32, y: f32| -> bool {
            // Point-in-convex-quad via cross products (corners are CCW).
            (0..4).all(|i| {
                let [ax, ay] = corners[i];
                let [bx, by] = corners[(i + 1) % 4];
                (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0
            })
        };
        if let (Some(lo), Some(hi)) = (
            spec.grid
                .cell_of(x0.max(spec.grid.x_min), y0.max(spec.grid.y_min)),
            spec.grid.cell_of(
                x1.min(spec.grid.x_max - 1e-3),
                y1.min(spec.grid.y_max - 1e-3),
            ),
        ) {
            for cx in lo.0..=hi.0 {
                for cy in lo.1..=hi.1 {
                    if Some((cx, cy)) == centre_cell {
                        continue; // written below with the full score
                    }
                    let (ccx, ccy) = spec.grid.cell_center(cx, cy);
                    if inside(ccx, ccy) {
                        write_cell(b, cx, cy, 0.75);
                    }
                }
            }
        }
        if let Some((cx, cy)) = centre_cell {
            write_cell(b, cx, cy, 0.95_f32.min(b.score.max(0.5)));
        }
    }
    Tensor::from_vec(spec.output_shape(), data).expect("target buffer matches shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iou::bev_iou;

    fn spec() -> HeadSpec {
        HeadSpec::kitti(BevGrid::kitti(32, 32))
    }

    fn car(x: f32, y: f32, yaw: f32) -> Box3d {
        Box3d {
            class: ObjectClass::Car,
            center: [x, y, 0.8],
            dims: [4.0, 1.7, 1.5],
            yaw,
            score: 1.0,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let spec = spec();
        let gt = vec![car(20.0, 5.0, 0.4), car(40.0, -10.0, -1.2)];
        let encoded = encode_targets(&gt, &spec);
        let decoded = decode(&encoded, &spec);
        assert_eq!(decoded.len(), 2);
        for g in &gt {
            let best = decoded.iter().map(|d| bev_iou(d, g)).fold(0.0f32, f32::max);
            assert!(best > 0.9, "roundtrip IoU {best} too low");
        }
    }

    #[test]
    fn yaw_recovered_through_sin_cos() {
        let spec = spec();
        for yaw in [-2.5f32, -0.7, 0.0, 1.1, 3.0] {
            let gt = vec![car(30.0, 0.0, yaw)];
            let decoded = decode(&encode_targets(&gt, &spec), &spec);
            assert_eq!(decoded.len(), 1);
            let dy = decoded[0].yaw;
            let diff = (dy - yaw).sin().abs(); // angle-wrap tolerant
            assert!(diff < 1e-3, "yaw {yaw} decoded as {dy}");
        }
    }

    #[test]
    fn empty_map_decodes_to_nothing() {
        let spec = spec();
        let encoded = encode_targets(&[], &spec);
        assert!(decode(&encoded, &spec).is_empty());
    }

    #[test]
    fn out_of_range_boxes_skipped() {
        let spec = spec();
        let gt = vec![car(200.0, 0.0, 0.0)];
        let encoded = encode_targets(&gt, &spec);
        assert!(decode(&encoded, &spec).is_empty());
    }

    #[test]
    fn class_channel_respected() {
        let spec = spec();
        let mut ped = car(15.0, 3.0, 0.0);
        ped.class = ObjectClass::Pedestrian;
        ped.dims = [0.8, 0.6, 1.7];
        let decoded = decode(&encode_targets(&[ped], &spec), &spec);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].class, ObjectClass::Pedestrian);
    }

    #[test]
    fn score_threshold_filters() {
        let mut s = spec();
        let gt = vec![car(20.0, 0.0, 0.0)];
        let encoded = encode_targets(&gt, &s);
        s.score_threshold = 0.99; // above the encoded 0.95
        assert!(decode(&encoded, &s).is_empty());
    }

    #[test]
    fn max_detections_truncates() {
        let mut s = spec();
        s.max_detections = 1;
        let gt = vec![car(20.0, 5.0, 0.0), car(40.0, -10.0, 0.0)];
        let decoded = decode(&encode_targets(&gt, &s), &s);
        assert_eq!(decoded.len(), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_panics() {
        let s = spec();
        let bad = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
        let _ = decode(&bad, &s);
    }

    /// Regression: a NaN score logit used to pass `score < threshold`
    /// (false for NaN) and emit a NaN-score box that poisoned the NMS
    /// sort. Non-finite scores must never be emitted; ±∞ logits saturate
    /// to legitimate 1.0 / 0.0 scores instead.
    #[test]
    fn nan_logits_never_emit_and_inf_saturates() {
        let spec = spec();
        let gt = vec![car(20.0, 5.0, 0.4)];
        let mut poisoned = encode_targets(&gt, &spec);
        {
            let data = poisoned.as_mut_slice();
            data[0] = f32::NAN; // would emit a NaN-score box before the fix
            data[1] = f32::INFINITY; // sigmoid → exactly 1.0: a real hit
            data[2] = f32::NEG_INFINITY; // sigmoid → 0.0: below threshold
        }
        let decoded = decode(&poisoned, &spec);
        assert!(
            decoded.iter().all(|b| b.score.is_finite()),
            "non-finite score emitted: {decoded:?}"
        );
        assert!(
            decoded.iter().any(|b| b.score == 1.0),
            "+inf logit must saturate to a score-1.0 detection"
        );
        // The candidate scan agrees with the serial sigmoid-domain oracle
        // even on the poisoned map, bit for bit.
        let fast = decode_candidates(&poisoned, &spec);
        let reference = decode_candidates_reference(&poisoned, &spec);
        assert_eq!(fast, reference);
    }

    #[test]
    fn channels_accessor() {
        assert_eq!(spec().channels(), 11);
        assert_eq!(spec().output_shape().dims(), &[1, 11, 32, 32]);
    }
}
