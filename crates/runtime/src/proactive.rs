//! Proactive rung steering with hard safety overrides.
//!
//! The reactive [`DeadlineScheduler`] is purely corrective: it picks the
//! most accurate rung whose *measured* latency fits the batch's remaining
//! budget, so it only degrades after latency has already been paid. The
//! proactive policy layered here reads a signal the engine has for free
//! before the backbone runs — an EMA of recent per-class detection counts
//! — to predict how busy the scene is, and steers quiet scenes onto
//! cheaper rungs ahead of time. Energy is saved on easy frames instead of
//! latency being burned on hard ones.
//!
//! The prediction is advisory; two hard rules override it:
//!
//! 1. **VRU floor** — when recent detections predict a vulnerable road
//!    user (pedestrian or cyclist) in view — the count EMA is above
//!    threshold, or one was sighted within the last few frames — the
//!    batch never runs below [`ProactiveConfig::vru_floor_level`],
//!    unconditionally. Missing a pedestrian to save millijoules is not a
//!    trade this policy makes; if the floored rung is predicted not to
//!    fit the deadline, the batch still runs there and the conflict is
//!    surfaced through the `vru_unfit` counter and the deadline-miss
//!    metrics.
//! 2. **Headroom fallback** — when the reactive choice's slack against
//!    the deadline is below [`ProactiveConfig::headroom_margin_s`], the
//!    prediction is ignored entirely and the reactive ladder's verdict
//!    stands. Proactive steering is for frames with room to spare, not
//!    frames already on the edge.
//!
//! The policy only re-picks the rung of a prefix the scheduler already
//! admitted ([`ProactivePolicy::clamp_prefix`]): it never changes how
//! many frames run or whether the head frame drops, and any rung that
//! *differs* from the reactive one is explicitly re-checked against the
//! budget before being chosen (per-rung latency EMAs are independent, so
//! a cheaper rung is not automatically a faster one).
//!
//! Everything here is deterministic given the detection order: the
//! score is pure arithmetic over the EMAs, and no wall-clock or RNG state
//! is consulted.

use crate::scheduler::DeadlineScheduler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use upaq_det3d::Box3d;
use upaq_json::{json, ToJson, Value};
use upaq_kitti::ObjectClass;

/// Proactive-policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProactiveConfig {
    /// Deepest (cheapest) rung a frame may run on while a VRU is
    /// predicted in view. The default `0` holds predicted-VRU frames on
    /// the full model — trivially satisfying the "never below LCK"
    /// invariant — because this repo's tiny LCK rung measurably loses
    /// VRU recall on sparse/degraded clouds. Deployments whose LCK is
    /// certified near-lossless (the paper's claim at full scale) can
    /// relax the floor to `1`.
    pub vru_floor_level: usize,
    /// EMA weight for per-class detection-count updates.
    pub ema_alpha: f64,
    /// The VRU override arms when the pedestrian + cyclist count EMA
    /// reaches this value. Above zero so a single spurious false positive
    /// decays back out instead of pinning the floor forever.
    pub vru_threshold: f64,
    /// Frames the VRU override stays armed after the last frame that
    /// *detected* a VRU. The count EMA alone decays below
    /// `vru_threshold` between sparse periodic sightings (one pedestrian
    /// every few frames never re-arms in time); the hold encodes the
    /// physical prior that a person seen a quarter-second ago is still
    /// there.
    pub vru_hold_frames: u64,
    /// Minimum slack (seconds) the reactive choice must leave against the
    /// frame's budget before the prediction is allowed to steer at all.
    pub headroom_margin_s: f64,
    /// Descending score thresholds, one per rung above the cheapest:
    /// a score `≥ rung_thresholds[i]` suggests rung `i`; a score below
    /// them all suggests the cheapest rung, `rung_thresholds.len()`.
    pub rung_thresholds: Vec<f64>,
    /// Total detection-count EMA that saturates the score.
    pub boxes_norm: f64,
    /// Per-class detection-count clamp applied *before* the EMA update.
    /// Degraded rungs can spray dozens of false positives; without the
    /// clamp that spray saturates the recent-boxes term and the policy's
    /// own degradation feeds back into keeping the score high.
    pub class_count_cap: f64,
}

impl Default for ProactiveConfig {
    fn default() -> Self {
        ProactiveConfig {
            vru_floor_level: 0,
            ema_alpha: 0.35,
            vru_threshold: 0.40,
            vru_hold_frames: 8,
            headroom_margin_s: 0.005,
            rung_thresholds: vec![0.60, 0.45],
            boxes_norm: 24.0,
            class_count_cap: 10.0,
        }
    }
}

/// Monotone counters for each override rule, incremented as frames are
/// admitted. Shared across worker threads; read via [`snapshot`].
///
/// [`snapshot`]: OverrideCounters::snapshot
#[derive(Debug, Default)]
pub struct OverrideCounters {
    vru_floor: AtomicU64,
    deadline_clamp: AtomicU64,
    headroom_fallback: AtomicU64,
    vru_unfit: AtomicU64,
}

impl OverrideCounters {
    /// A consistent-enough point-in-time copy for reports.
    pub fn snapshot(&self) -> OverrideSnapshot {
        OverrideSnapshot {
            vru_floor: self.vru_floor.load(Ordering::Relaxed),
            deadline_clamp: self.deadline_clamp.load(Ordering::Relaxed),
            headroom_fallback: self.headroom_fallback.load(Ordering::Relaxed),
            vru_unfit: self.vru_unfit.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time override-rule counts, as reported in run JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverrideSnapshot {
    /// Frames clamped up to the VRU floor rung by the safety override.
    pub vru_floor: u64,
    /// Batches where the predictor's suggestion was rejected because it
    /// was not verified to fit the remaining deadline budget (either more
    /// expensive than the reactive floor, or cheaper but with a worse
    /// measured latency EMA).
    pub deadline_clamp: u64,
    /// Frames where slack was below the margin and prediction was skipped.
    pub headroom_fallback: u64,
    /// VRU-floored frames whose floored rung was predicted to miss the
    /// deadline anyway — safety kept over latency; misses show up in the
    /// pipeline's deadline-miss counters.
    pub vru_unfit: u64,
}

impl ToJson for OverrideSnapshot {
    fn to_json(&self) -> Value {
        json!({
            "vru_floor": self.vru_floor,
            "deadline_clamp": self.deadline_clamp,
            "headroom_fallback": self.headroom_fallback,
            "vru_unfit": self.vru_unfit,
        })
    }
}

/// The proactive steering policy: detection-history predictor plus
/// override rules, layered over a [`DeadlineScheduler`] whose admission
/// verdicts it never changes.
pub struct ProactivePolicy {
    config: ProactiveConfig,
    /// Per-class detection-count EMA, indexed by [`ObjectClass::index`].
    class_ema: Mutex<[f64; 3]>,
    /// Frames of VRU-override hold left (reset by a VRU detection,
    /// decremented by every VRU-free frame).
    vru_hold: AtomicU64,
    overrides: OverrideCounters,
}

impl ProactivePolicy {
    /// A fresh policy: zero EMAs, zero counters.
    pub fn new(config: ProactiveConfig) -> Self {
        ProactivePolicy {
            config,
            class_ema: Mutex::new([0.0; 3]),
            vru_hold: AtomicU64::new(0),
            overrides: OverrideCounters::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ProactiveConfig {
        &self.config
    }

    /// Point-in-time override counters for reports.
    pub fn overrides(&self) -> OverrideSnapshot {
        self.overrides.snapshot()
    }

    /// Feeds back one completed frame's detections, updating the
    /// per-class count EMAs that drive the score and the VRU override.
    pub fn observe_detections(&self, detections: &[Box3d]) {
        let mut counts = [0.0f64; 3];
        for b in detections {
            counts[b.class.index()] += 1.0;
        }
        // A sighted VRU re-arms the override hold; a VRU-free frame burns
        // one frame of it. fetch_update keeps concurrent postprocess
        // workers from losing a re-arm to a stale decrement.
        let vru_seen =
            counts[ObjectClass::Pedestrian.index()] + counts[ObjectClass::Cyclist.index()] >= 1.0;
        let hold = self.config.vru_hold_frames;
        let _ = self
            .vru_hold
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                Some(if vru_seen { hold } else { h.saturating_sub(1) })
            });
        for c in &mut counts {
            *c = c.min(self.config.class_count_cap);
        }
        let a = self.config.ema_alpha;
        let mut ema = self.class_ema.lock().unwrap();
        for (e, c) in ema.iter_mut().zip(counts) {
            *e = (1.0 - a) * *e + a * c;
        }
    }

    /// Current per-class detection-count EMAs, [car, pedestrian, cyclist]
    /// order per [`ObjectClass::index`].
    pub fn class_ema(&self) -> [f64; 3] {
        *self.class_ema.lock().unwrap()
    }

    /// `true` when recent detections predict a vulnerable road user
    /// (pedestrian or cyclist) in view: either the count EMA is above
    /// threshold, or one was sighted within the last
    /// [`ProactiveConfig::vru_hold_frames`] frames.
    pub fn vru_predicted(&self) -> bool {
        if self.vru_hold.load(Ordering::Relaxed) > 0 {
            return true;
        }
        let ema = self.class_ema.lock().unwrap();
        ema[ObjectClass::Pedestrian.index()] + ema[ObjectClass::Cyclist.index()]
            >= self.config.vru_threshold
    }

    /// Scene-complexity score in `[0, 1]`: the total detection-count EMA
    /// over [`ProactiveConfig::boxes_norm`], saturated.
    pub fn ema_score(&self) -> f64 {
        let total: f64 = self.class_ema.lock().unwrap().iter().sum();
        (total / self.config.boxes_norm).min(1.0)
    }

    /// Maps a complexity score to the suggested rung via the descending
    /// threshold ladder.
    pub fn level_for_score(&self, score: f64) -> usize {
        for (level, &t) in self.config.rung_thresholds.iter().enumerate() {
            if score >= t {
                return level;
            }
        }
        self.config.rung_thresholds.len()
    }

    /// Re-picks the rung of an already-admitted EDF prefix of `k` frames
    /// whose head budget is `budget_s` and whose reactive rung is
    /// `floor`: apply the headroom fallback, then the (fit-checked)
    /// detection-history suggestion, then the VRU floor. Never changes
    /// `k`; returns the rung to run the batch on.
    pub fn clamp_prefix(
        &self,
        scheduler: &DeadlineScheduler,
        k: usize,
        floor: usize,
        budget_s: f64,
    ) -> usize {
        let headroom = scheduler.config().headroom;
        let cost = |level: usize| {
            (scheduler.predicted_batch_s(level, k) + scheduler.predicted_post_s()) * headroom
        };
        let mut chosen = floor;
        if budget_s - cost(floor) < self.config.headroom_margin_s {
            self.overrides
                .headroom_fallback
                .fetch_add(1, Ordering::Relaxed);
        } else {
            let suggested = self.level_for_score(self.ema_score());
            if suggested != floor {
                // A rung differing from the reactive floor must prove it
                // fits: per-rung latency EMAs are independent, so even a
                // nominally cheaper rung can carry a worse measured EMA.
                if suggested > floor && cost(suggested) <= budget_s {
                    chosen = suggested;
                } else {
                    self.overrides
                        .deadline_clamp
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if chosen > self.config.vru_floor_level && self.vru_predicted() {
            chosen = self.config.vru_floor_level;
            self.overrides.vru_floor.fetch_add(1, Ordering::Relaxed);
            if cost(chosen) > budget_s {
                self.overrides.vru_unfit.fetch_add(1, Ordering::Relaxed);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerConfig;
    use crate::variant::VariantLadder;
    use upaq_hwmodel::DeviceProfile;
    use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
    use upaq_models::LidarDetector;

    fn ladder() -> VariantLadder<LidarDetector> {
        let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
        VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 3).unwrap()
    }

    fn scheduler(config: SchedulerConfig) -> (VariantLadder<LidarDetector>, DeadlineScheduler) {
        let l = ladder();
        let s = DeadlineScheduler::new(&l, config);
        (l, s)
    }

    fn boxes(cars: usize, peds: usize, cycs: usize) -> Vec<Box3d> {
        let mk = |class, n: usize| {
            (0..n).map(move |i| Box3d {
                class,
                center: [10.0 + i as f32, 0.0, 0.8],
                dims: [1.0, 1.0, 1.0],
                yaw: 0.0,
                score: 0.9,
            })
        };
        mk(ObjectClass::Car, cars)
            .chain(mk(ObjectClass::Pedestrian, peds))
            .chain(mk(ObjectClass::Cyclist, cycs))
            .collect()
    }

    #[test]
    fn score_is_monotone_and_maps_to_rungs() {
        let p = ProactivePolicy::new(ProactiveConfig::default());
        assert_eq!(p.ema_score(), 0.0, "no history, quiet scene");
        p.observe_detections(&boxes(3, 0, 0));
        let light = p.ema_score();
        assert!(light > 0.0);
        // A saturated history scores 1.0 (per-class counts clamp at the
        // cap, so saturation needs all three classes busy).
        for _ in 0..50 {
            p.observe_detections(&boxes(10, 10, 10));
        }
        assert!(p.ema_score() > light);
        assert!((p.ema_score() - 1.0).abs() < 1e-9);
        assert_eq!(p.level_for_score(1.0), 0);
        assert_eq!(p.level_for_score(0.5), 1);
        assert_eq!(p.level_for_score(0.2), 2);
    }

    #[test]
    fn quiet_scenes_steer_to_cheaper_rungs_and_busy_ones_stay_put() {
        let (_l, s) = scheduler(SchedulerConfig::default());
        let p = ProactivePolicy::new(ProactiveConfig::default());
        // Reactive alone runs the full model; the empty history sends the
        // batch down the ladder.
        assert_eq!(s.admit_prefix(&[10.0; 4]), Some((4, 0)));
        assert!(
            p.clamp_prefix(&s, 4, 0, 10.0) > 0,
            "quiet scene should degrade"
        );
        // A saturated history keeps the batch on the full model on the
        // score alone (the VRU override is disarmed here), and no
        // counter fires.
        let busy = ProactivePolicy::new(ProactiveConfig {
            vru_threshold: f64::INFINITY,
            vru_hold_frames: 0,
            ..ProactiveConfig::default()
        });
        for _ in 0..50 {
            busy.observe_detections(&boxes(10, 10, 10));
        }
        assert_eq!(busy.clamp_prefix(&s, 4, 0, 10.0), 0);
        assert_eq!(busy.overrides(), OverrideSnapshot::default());
    }

    #[test]
    fn vru_override_floors_the_rung_and_counts() {
        let (_l, s) = scheduler(SchedulerConfig::default());
        let p = ProactivePolicy::new(ProactiveConfig::default());
        for _ in 0..10 {
            p.observe_detections(&boxes(0, 2, 1));
        }
        assert!(p.vru_predicted());
        // The reactive verdict may already be degraded (a cheap rung
        // fits), but the VRU floor pulls the batch back up.
        let floored = p.clamp_prefix(&s, 4, 2, 10.0);
        assert!(
            floored <= p.config().vru_floor_level,
            "ran below the VRU floor"
        );
        let snap = p.overrides();
        assert!(snap.vru_floor > 0, "override must be counted");
        assert_eq!(snap.vru_unfit, 0, "a 10 s budget fits every rung");
    }

    #[test]
    fn vru_hold_keeps_the_override_armed_between_sparse_sightings() {
        let p = ProactivePolicy::new(ProactiveConfig::default());
        // A single pedestrian pushes the EMA to 0.35 — *below* the 0.40
        // threshold — so only the sighting hold arms the override.
        p.observe_detections(&boxes(0, 1, 0));
        for _ in 0..3 {
            assert!(p.vru_predicted(), "hold must bridge VRU-free frames");
            p.observe_detections(&boxes(3, 0, 0));
        }
        assert!(p.vru_predicted());
        // With no further sightings the hold burns down and the (decayed)
        // EMA cannot keep the override armed.
        for _ in 0..p.config().vru_hold_frames + 2 {
            p.observe_detections(&boxes(0, 0, 0));
        }
        assert!(!p.vru_predicted(), "expired hold must disarm");
    }

    #[test]
    fn vru_ema_decays_back_below_threshold() {
        let p = ProactivePolicy::new(ProactiveConfig::default());
        p.observe_detections(&boxes(0, 3, 0));
        assert!(p.vru_predicted());
        for _ in 0..30 {
            p.observe_detections(&boxes(2, 0, 0));
        }
        assert!(!p.vru_predicted(), "stale VRU evidence must decay");
    }

    #[test]
    fn false_positive_spray_is_clamped_before_the_ema() {
        // A degraded rung hallucinating 60 cars must not saturate the
        // score — that feedback would keep the policy pinned on whatever
        // rung produced the spray.
        let p = ProactivePolicy::new(ProactiveConfig::default());
        for _ in 0..50 {
            p.observe_detections(&boxes(60, 0, 0));
        }
        let cap = p.config().class_count_cap;
        assert!(p.class_ema()[0] <= cap + 1e-9);
        assert!(p.ema_score() < 0.5, "one class cannot saturate the score");
    }

    #[test]
    fn tight_slack_falls_back_to_the_reactive_verdict() {
        let l = ladder();
        let base = l.level(0).estimate.latency_s;
        let s = DeadlineScheduler::new(
            &l,
            SchedulerConfig {
                ema_alpha: 0.0,
                headroom: 1.0,
            },
        );
        let p = ProactivePolicy::new(ProactiveConfig::default());
        // The budget leaves the reactive choice (level 0) less slack than
        // the margin: the prediction is skipped, the reactive rung stands.
        let budget = base + p.config().headroom_margin_s / 2.0;
        assert_eq!(s.admit_prefix(&[budget]), Some((1, 0)));
        assert_eq!(p.clamp_prefix(&s, 1, 0, budget), 0);
        assert!(p.overrides().headroom_fallback > 0);
    }

    #[test]
    fn cheaper_suggestion_with_worse_measured_ema_is_clamped() {
        let (l, s) = scheduler(SchedulerConfig {
            ema_alpha: 0.5,
            headroom: 1.0,
        });
        // Teach the scheduler that the cheapest rung is measured *slow*:
        // nominally cheaper, actually unaffordable.
        for _ in 0..50 {
            s.observe(l.len() - 1, 5.0);
        }
        let p = ProactivePolicy::new(ProactiveConfig::default());
        let level = p.clamp_prefix(&s, 1, 0, 1.0);
        assert!(level < l.len() - 1, "must not pick the slow rung");
        let fits = (s.predicted_s(level) + s.predicted_post_s()) * s.config().headroom <= 1.0;
        assert!(fits, "chosen rung must fit the budget");
        assert!(p.overrides().deadline_clamp > 0);
    }

    #[test]
    fn clamp_prefix_fit_checks_the_whole_batch() {
        let (_l, s) = scheduler(SchedulerConfig::default());
        let p = ProactivePolicy::new(ProactiveConfig::default());
        let (k, level) = s.admit_prefix(&[10.0; 3]).expect("admits");
        let steered = p.clamp_prefix(&s, k, level, 10.0);
        let total = (s.predicted_batch_s(steered, k) + s.predicted_post_s()) * s.config().headroom;
        assert!(total <= 10.0, "batched rung must fit the head budget");
    }

    #[test]
    fn override_snapshot_serializes_every_counter() {
        let snap = OverrideSnapshot {
            vru_floor: 3,
            deadline_clamp: 2,
            headroom_fallback: 1,
            vru_unfit: 4,
        };
        let v = snap.to_json();
        assert_eq!(v.get("vru_floor").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("deadline_clamp").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            v.get("headroom_fallback").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(v.get("vru_unfit").and_then(Value::as_f64), Some(4.0));
    }
}
