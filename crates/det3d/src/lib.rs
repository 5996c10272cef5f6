//! 3D object-detection substrate: boxes, IoU, NMS, mAP, pillar encoding and
//! detection-head decoding.
//!
//! This crate supplies everything between raw sensor tensors and evaluation
//! numbers:
//!
//! * [`box3d`] — 9-degree-of-freedom boxes (3 position, 3 dimension, yaw —
//!   the paper counts 3 rotational parameters; KITTI constrains pitch/roll
//!   to zero, so yaw is the free one) and BEV footprints;
//! * [`iou`] — exact rotated BEV IoU via polygon clipping, plus 3D IoU;
//! * [`mod@nms`] — greedy non-maximum suppression;
//! * [`map`] — average precision (40-point interpolation) and class-mean
//!   mAP, following the KITTI protocol;
//! * [`pillars`] — the pillar encoder turning LiDAR sweeps into the
//!   pseudo-image consumed by PointPillars-style networks;
//! * [`head`] — detection-head output encoding/decoding (per-class score
//!   maps plus box regression channels);
//! * [`eval`] — the end-to-end "detections vs ground truth → mAP" harness
//!   every experiment uses.
//!
//! # Example
//!
//! ```
//! use upaq_det3d::box3d::Box3d;
//! use upaq_det3d::iou::bev_iou;
//! use upaq_kitti::ObjectClass;
//!
//! let a = Box3d::axis_aligned(ObjectClass::Car, [10.0, 0.0, 0.8], [4.0, 2.0, 1.6], 1.0);
//! let b = Box3d::axis_aligned(ObjectClass::Car, [11.0, 0.0, 0.8], [4.0, 2.0, 1.6], 1.0);
//! let iou = bev_iou(&a, &b);
//! assert!(iou > 0.4 && iou < 0.8);
//! ```

pub mod box3d;
pub mod camera_head;
pub mod eval;
pub mod head;
pub mod iou;
pub mod map;
pub mod nms;
pub mod pillars;
pub mod refine;
mod scan;

pub use box3d::Box3d;
pub use camera_head::{
    decode_camera, decode_camera_candidates, decode_camera_candidates_reference,
    encode_camera_targets, CameraHeadSpec,
};
pub use eval::{evaluate_detections, EvalResult};
pub use head::{decode, decode_candidates, decode_candidates_reference, encode_targets, HeadSpec};
pub use map::{average_precision, mean_average_precision, FrameBox};
pub use nms::{nms, nms_top_k};
pub use pillars::{pillarize, BevGrid, PillarConfig};
pub use refine::{refine_all, refine_box, RefineConfig};
