//! Deterministic fault-injection plans for chaos testing.
//!
//! Safety-critical perception stacks meet faults the scenario catalog's
//! clean degradation sweeps never produce: DMA transfers that truncate a
//! sweep mid-frame, sensors that emit NaN/Inf payloads after a brown-out,
//! drivers that stall for tens of milliseconds, and plain software bugs
//! that panic inside a worker. A [`FaultPlan`] is a seed-deterministic
//! per-frame schedule of such faults, composable with any
//! [`crate::scenario`] profile: the plan decides *which* frames are hit
//! and *how*, the profile decides everything else about the run. Equal
//! plans produce bit-identical corruption, so chaos runs are replayable
//! and the supervision layer's accounting can be asserted exactly.
//!
//! Fault taxonomy:
//!
//! * **Payload faults** ([`PayloadFault`]) corrupt the sensor sample
//!   itself — NaN/Inf values, truncated sweeps, zero-length frames. The
//!   runtime's admission firewall quarantines the detectably-poisoned
//!   ones (non-finite or empty); truncation that leaves a plausible frame
//!   passes through and exercises graceful degradation instead.
//! * **Stalls** delay the *arrival* of a frame (sensor hiccup) — nothing
//!   is corrupted, but downstream deadlines tighten.
//! * **Injected panics** fire inside the backbone layer, exercising
//!   `catch_unwind` isolation and worker respawn.
//! * **Latency spikes** add wall time to the backbone invocation
//!   (thermal throttling), exercising the scheduler's latency adaptation
//!   and deadline misses. A spike rule firing on every frame models a
//!   uniformly slow backbone (the overload scenarios use one).

use crate::camera::{CameraImage, CAMERA_CHANNELS};
use crate::lidar::PointCloud;
use serde::{Deserialize, Serialize};
use upaq_tensor::{Shape, Tensor};

/// Corruption applied to a frame's sensor payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PayloadFault {
    /// Replace roughly `frac` of the values/points with NaN (at least one
    /// on any non-empty frame, so a scheduled fault is always detectable).
    NanValues {
        /// Fraction of the payload corrupted, in `[0, 1]`.
        frac: f32,
    },
    /// Replace roughly `frac` of the values/points with ±∞.
    InfValues {
        /// Fraction of the payload corrupted, in `[0, 1]`.
        frac: f32,
    },
    /// Keep only the leading `keep_frac` of the payload — a truncated DMA
    /// transfer. The remainder is dropped (LiDAR) or zeroed (camera rows),
    /// so the frame stays structurally valid but information-poor.
    Truncate {
        /// Fraction of the payload kept, in `[0, 1]`.
        keep_frac: f32,
    },
    /// A zero-length frame: the sensor produced nothing this cycle.
    Empty,
}

/// What a [`FaultRule`] does to the frames it fires on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Corrupt the sensor payload before it enters the pipeline.
    Payload(PayloadFault),
    /// Delay the frame's arrival by this many extra seconds.
    Stall {
        /// Extra inter-frame gap, seconds.
        extra_gap_s: f64,
    },
    /// Panic inside the backbone layer while processing the frame.
    PanicInBackbone,
    /// Add wall time to the backbone invocation handling the frame; a
    /// batched invocation pays its worst member's spike once.
    LatencySpike {
        /// Extra backbone latency, seconds.
        extra_s: f64,
    },
}

/// One periodic fault: fires on every frame with
/// `frame_id % every == offset % every`.
///
/// The periodic form keeps schedules trivially deterministic and lets
/// tests enumerate exactly which frames of a run are hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// The fault applied.
    pub kind: FaultKind,
    /// Period in frames (0 disables the rule).
    pub every: u64,
    /// Phase within the period.
    pub offset: u64,
}

impl FaultRule {
    /// Whether this rule fires on `frame_id`.
    pub fn fires_at(&self, frame_id: u64) -> bool {
        self.every > 0 && frame_id % self.every == self.offset % self.every
    }
}

/// Everything the plan does to one frame, pre-resolved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameFaults {
    /// Payload corruption, if any (the last matching payload rule wins).
    pub payload: Option<PayloadFault>,
    /// Total extra arrival delay, seconds (stall rules accumulate).
    pub stall_s: f64,
    /// Whether the backbone panics on this frame.
    pub panic: bool,
    /// Total extra backbone latency, seconds (spike rules accumulate).
    pub spike_s: f64,
}

impl FrameFaults {
    /// `true` when the frame is untouched by the plan.
    pub fn is_clean(&self) -> bool {
        self.payload.is_none() && self.stall_s == 0.0 && !self.panic && self.spike_s == 0.0
    }
}

/// A named, seed-deterministic schedule of per-frame faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Catalog key, e.g. `nan-burst`.
    pub name: &'static str,
    /// One-line description of the failure mode modeled.
    pub description: &'static str,
    /// Seed for the corruption value/index draws. Two plans with equal
    /// rules but different seeds hit the same frames with different
    /// corrupted indices.
    pub seed: u64,
    /// The periodic rules composing the plan.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no rules — the chaos matrix's control row.
    pub fn clean() -> Self {
        FaultPlan {
            name: "clean",
            description: "no faults injected (control)",
            seed: 0,
            rules: Vec::new(),
        }
    }

    /// A uniformly slow backbone: one latency spike of `extra_s` on every
    /// frame — the overload scenarios' injected stall. Charged once per
    /// invocation, so batching amortizes it.
    pub fn slow_backbone(extra_s: f64) -> Self {
        FaultPlan {
            name: "slow-backbone",
            description: "every backbone invocation runs slow (overload)",
            seed: 0,
            rules: vec![FaultRule {
                kind: FaultKind::LatencySpike { extra_s },
                every: 1,
                offset: 0,
            }],
        }
    }

    /// `true` when the plan never injects anything.
    pub fn is_clean(&self) -> bool {
        self.rules.iter().all(|r| r.every == 0)
    }

    /// Resolves every rule against one frame id.
    pub fn frame(&self, frame_id: u64) -> FrameFaults {
        let mut f = FrameFaults::default();
        for rule in &self.rules {
            if !rule.fires_at(frame_id) {
                continue;
            }
            match &rule.kind {
                FaultKind::Payload(p) => f.payload = Some(p.clone()),
                FaultKind::Stall { extra_gap_s } => f.stall_s += extra_gap_s,
                FaultKind::PanicInBackbone => f.panic = true,
                FaultKind::LatencySpike { extra_s } => f.spike_s += extra_s,
            }
        }
        f
    }

    /// Per-frame corruption salt: which indices get poisoned on this
    /// frame. Deterministic in `(seed, frame_id)`.
    pub fn salt(&self, frame_id: u64) -> u64 {
        splitmix64(self.seed ^ frame_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Frame ids in `0..frames` scheduled for a payload fault — what the
    /// chaos tests compare the runtime's quarantine set against.
    pub fn payload_frames(&self, frames: u64) -> Vec<u64> {
        (0..frames)
            .filter(|id| self.frame(*id).payload.is_some())
            .collect()
    }

    /// Frame ids in `0..frames` scheduled for an injected panic.
    pub fn panic_frames(&self, frames: u64) -> Vec<u64> {
        (0..frames).filter(|id| self.frame(*id).panic).collect()
    }
}

/// A defect the admission firewall can detect in a sensor payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameDefect {
    /// The payload contains NaN or ±∞ values.
    NonFinite,
    /// The payload is zero-length.
    Empty,
    /// The payload tensor has the wrong layout for its modality.
    BadShape,
}

/// The named fault plans the chaos matrix runs, `clean` first.
pub fn catalog() -> Vec<FaultPlan> {
    vec![
        FaultPlan::clean(),
        FaultPlan {
            name: "nan-burst",
            description: "periodic NaN/Inf payload corruption (sensor brown-out)",
            seed: 0xBAD_F00D,
            rules: vec![
                FaultRule {
                    kind: FaultKind::Payload(PayloadFault::NanValues { frac: 0.25 }),
                    every: 3,
                    offset: 1,
                },
                FaultRule {
                    kind: FaultKind::Payload(PayloadFault::InfValues { frac: 0.10 }),
                    every: 5,
                    offset: 3,
                },
            ],
        },
        FaultPlan {
            name: "truncation",
            description: "truncated DMA frames, periodically empty",
            seed: 0x7A0C,
            rules: vec![
                FaultRule {
                    kind: FaultKind::Payload(PayloadFault::Truncate { keep_frac: 0.25 }),
                    every: 3,
                    offset: 0,
                },
                FaultRule {
                    kind: FaultKind::Payload(PayloadFault::Empty),
                    every: 4,
                    offset: 2,
                },
            ],
        },
        FaultPlan {
            name: "sensor-stall",
            description: "periodic arrival gaps (driver hiccups)",
            seed: 0x57A11,
            rules: vec![FaultRule {
                kind: FaultKind::Stall { extra_gap_s: 0.060 },
                every: 4,
                offset: 2,
            }],
        },
        FaultPlan {
            name: "panic-storm",
            description: "periodic panics inside the backbone layer",
            seed: 0xDEAD,
            rules: vec![FaultRule {
                kind: FaultKind::PanicInBackbone,
                every: 3,
                offset: 2,
            }],
        },
        FaultPlan {
            name: "latency-spike",
            description: "periodic backbone latency spikes (thermal throttling)",
            seed: 0x5B1CE,
            rules: vec![FaultRule {
                kind: FaultKind::LatencySpike { extra_s: 0.050 },
                every: 4,
                offset: 1,
            }],
        },
        FaultPlan {
            name: "mixed",
            description: "NaN payloads, panics, stalls and spikes interleaved",
            seed: 0x313D,
            rules: vec![
                FaultRule {
                    kind: FaultKind::Payload(PayloadFault::NanValues { frac: 0.15 }),
                    every: 5,
                    offset: 1,
                },
                FaultRule {
                    kind: FaultKind::PanicInBackbone,
                    every: 6,
                    offset: 3,
                },
                FaultRule {
                    kind: FaultKind::Stall { extra_gap_s: 0.040 },
                    every: 7,
                    offset: 5,
                },
                FaultRule {
                    kind: FaultKind::LatencySpike { extra_s: 0.040 },
                    every: 7,
                    offset: 2,
                },
            ],
        },
    ]
}

/// Looks a plan up by its catalog name.
pub fn by_name(name: &str) -> Option<FaultPlan> {
    catalog().into_iter().find(|p| p.name == name)
}

/// The catalog's plan names, in order.
pub fn names() -> Vec<&'static str> {
    catalog().iter().map(|p| p.name).collect()
}

/// Applies a payload fault to a LiDAR sweep in place.
///
/// Value faults always corrupt at least one point of a non-empty sweep,
/// so every scheduled fault frame is detectable by [`inspect_cloud`].
pub fn corrupt_cloud(cloud: &mut PointCloud, fault: &PayloadFault, salt: u64) {
    match fault {
        PayloadFault::NanValues { frac } => poison_cloud(cloud, *frac, salt, f32::NAN),
        PayloadFault::InfValues { frac } => poison_cloud(cloud, *frac, salt, f32::INFINITY),
        PayloadFault::Truncate { keep_frac } => {
            let keep = (cloud.len() as f32 * keep_frac.clamp(0.0, 1.0)) as usize;
            cloud.points_mut().truncate(keep);
        }
        PayloadFault::Empty => cloud.points_mut().clear(),
    }
}

fn poison_cloud(cloud: &mut PointCloud, frac: f32, salt: u64, value: f32) {
    let n = cloud.len();
    if n == 0 {
        return;
    }
    let hits = ((n as f32 * frac.clamp(0.0, 1.0)) as usize).max(1);
    let mut state = salt;
    for _ in 0..hits {
        state = splitmix64(state);
        let p = &mut cloud.points_mut()[(state % n as u64) as usize];
        p.position = [value; 3];
        p.intensity = value;
    }
}

/// Applies a payload fault to a camera frame in place.
pub fn corrupt_image(image: &mut CameraImage, fault: &PayloadFault, salt: u64) {
    match fault {
        PayloadFault::NanValues { frac } => poison_image(image, *frac, salt, f32::NAN),
        PayloadFault::InfValues { frac } => poison_image(image, *frac, salt, f32::INFINITY),
        PayloadFault::Truncate { keep_frac } => {
            // A truncated transfer: rows past the kept prefix read zero in
            // every channel. Structurally valid, information-poor.
            let (h, w) = (image.height(), image.width());
            let keep_rows = (h as f32 * keep_frac.clamp(0.0, 1.0)) as usize;
            let data = image.tensor_mut().as_mut_slice();
            for c in 0..CAMERA_CHANNELS {
                for y in keep_rows..h {
                    let row = (c * h + y) * w;
                    data[row..row + w].fill(0.0);
                }
            }
        }
        PayloadFault::Empty => {
            *image = CameraImage::from_tensor(Tensor::zeros(Shape::nchw(1, CAMERA_CHANNELS, 0, 0)));
        }
    }
}

fn poison_image(image: &mut CameraImage, frac: f32, salt: u64, value: f32) {
    let data = image.tensor_mut().as_mut_slice();
    let n = data.len();
    if n == 0 {
        return;
    }
    let hits = ((n as f32 * frac.clamp(0.0, 1.0)) as usize).max(1);
    let mut state = salt;
    for _ in 0..hits {
        state = splitmix64(state);
        data[(state % n as u64) as usize] = value;
    }
}

/// Firewall check for a LiDAR sweep: empty or non-finite payloads are
/// defective; anything else passes untouched.
pub fn inspect_cloud(cloud: &PointCloud) -> Option<FrameDefect> {
    if cloud.is_empty() {
        return Some(FrameDefect::Empty);
    }
    let poisoned = cloud
        .points()
        .iter()
        .any(|p| !p.intensity.is_finite() || p.position.iter().any(|v| !v.is_finite()));
    poisoned.then_some(FrameDefect::NonFinite)
}

/// Firewall check for a camera frame: the tensor must be `[1, C, H, W]`
/// with non-zero area and fully finite values.
pub fn inspect_image(image: &CameraImage) -> Option<FrameDefect> {
    let shape = image.tensor().shape();
    if shape.rank() != 4 || shape.dim(0) != 1 || shape.dim(1) != CAMERA_CHANNELS {
        return Some(FrameDefect::BadShape);
    }
    if shape.dim(2) == 0 || shape.dim(3) == 0 {
        return Some(FrameDefect::Empty);
    }
    let poisoned = image.tensor().as_slice().iter().any(|v| !v.is_finite());
    poisoned.then_some(FrameDefect::NonFinite)
}

/// SplitMix64: the corruption index generator. Small, seedable, and
/// independent of the shim RNG so plans stay stable if that changes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetConfig};
    use crate::stream::SensorData;

    fn cloud() -> PointCloud {
        let dataset = Dataset::generate(&DatasetConfig::small(), 7);
        dataset.lidar(0)
    }

    fn image() -> CameraImage {
        let dataset = Dataset::generate(&DatasetConfig::small(), 7);
        dataset.camera(0)
    }

    #[test]
    fn rules_fire_periodically() {
        let rule = FaultRule {
            kind: FaultKind::PanicInBackbone,
            every: 4,
            offset: 2,
        };
        let fired: Vec<u64> = (0..12).filter(|id| rule.fires_at(*id)).collect();
        assert_eq!(fired, vec![2, 6, 10]);
        let off = FaultRule { every: 0, ..rule };
        assert!((0..12).all(|id| !off.fires_at(id)));
    }

    #[test]
    fn plans_are_deterministic_and_catalog_resolves() {
        assert!(!names().is_empty());
        for plan in catalog() {
            let again = by_name(plan.name).expect("catalog name resolves");
            assert_eq!(plan, again);
            for id in 0..16 {
                assert_eq!(plan.frame(id), again.frame(id));
                assert_eq!(plan.salt(id), again.salt(id));
            }
        }
        assert!(by_name("no-such-plan").is_none());
        assert!(FaultPlan::clean().is_clean());
        assert!((0..64).all(|id| FaultPlan::clean().frame(id).is_clean()));
    }

    #[test]
    fn slow_backbone_spikes_every_frame_and_nothing_else() {
        let plan = FaultPlan::slow_backbone(0.08);
        for id in 0..16 {
            let f = plan.frame(id);
            assert_eq!(f.spike_s, 0.08);
            assert!(f.payload.is_none() && !f.panic && f.stall_s == 0.0);
        }
    }

    #[test]
    fn payload_and_panic_frames_enumerate_the_schedule() {
        let plan = by_name("mixed").unwrap();
        for id in plan.payload_frames(32) {
            assert!(plan.frame(id).payload.is_some());
        }
        for id in plan.panic_frames(32) {
            assert!(plan.frame(id).panic);
        }
        assert!(!plan.payload_frames(32).is_empty());
        assert!(!plan.panic_frames(32).is_empty());
    }

    #[test]
    fn nan_corruption_is_detected_and_deterministic() {
        let clean = cloud();
        assert!(inspect_cloud(&clean).is_none());
        let fault = PayloadFault::NanValues { frac: 0.1 };
        let mut a = clean.clone();
        let mut b = clean.clone();
        corrupt_cloud(&mut a, &fault, 42);
        corrupt_cloud(&mut b, &fault, 42);
        // Raw-bits compare: NaN breaks PartialEq but not determinism.
        let bits = |c: &PointCloud| -> Vec<[u32; 4]> {
            c.points()
                .iter()
                .map(|p| {
                    [
                        p.position[0].to_bits(),
                        p.position[1].to_bits(),
                        p.position[2].to_bits(),
                        p.intensity.to_bits(),
                    ]
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "equal salts must corrupt identically");
        assert_eq!(inspect_cloud(&a), Some(FrameDefect::NonFinite));
        let mut c = clean.clone();
        corrupt_cloud(&mut c, &PayloadFault::InfValues { frac: 0.0 }, 9);
        assert_eq!(
            inspect_cloud(&c),
            Some(FrameDefect::NonFinite),
            "even frac=0 corrupts at least one point"
        );
    }

    #[test]
    fn truncation_thins_and_empty_empties() {
        let clean = cloud();
        let mut thin = clean.clone();
        corrupt_cloud(&mut thin, &PayloadFault::Truncate { keep_frac: 0.25 }, 0);
        assert!(thin.len() <= clean.len() / 3);
        assert!(
            inspect_cloud(&thin).is_none(),
            "a thin-but-nonempty sweep passes the firewall"
        );
        let mut empty = clean;
        corrupt_cloud(&mut empty, &PayloadFault::Empty, 0);
        assert_eq!(inspect_cloud(&empty), Some(FrameDefect::Empty));
    }

    #[test]
    fn image_corruption_is_detected() {
        let clean = image();
        assert!(inspect_image(&clean).is_none());
        let mut nan = clean.clone();
        corrupt_image(&mut nan, &PayloadFault::NanValues { frac: 0.05 }, 3);
        assert_eq!(inspect_image(&nan), Some(FrameDefect::NonFinite));
        let mut empty = clean.clone();
        corrupt_image(&mut empty, &PayloadFault::Empty, 0);
        assert_eq!(inspect_image(&empty), Some(FrameDefect::Empty));
        let mut cut = clean.clone();
        corrupt_image(&mut cut, &PayloadFault::Truncate { keep_frac: 0.5 }, 0);
        assert!(
            inspect_image(&cut).is_none(),
            "zeroed rows stay structurally valid"
        );
        assert_eq!(cut.width(), clean.width());
        assert_eq!(cut.height(), clean.height());
    }

    #[test]
    fn sensor_data_trait_routes_to_the_modality_corruptor() {
        let mut c = cloud();
        c.corrupt(&PayloadFault::Empty, 0);
        assert_eq!(c.defect(), Some(FrameDefect::Empty));
        let mut img = image();
        img.corrupt(&PayloadFault::NanValues { frac: 0.01 }, 1);
        assert_eq!(img.defect(), Some(FrameDefect::NonFinite));
    }
}
