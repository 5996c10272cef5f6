//! Property tests for the proactive policy's hard safety invariants.
//!
//! Across random scheduler states (arbitrary latency observations),
//! random budgets and random detection histories, the rung
//! [`ProactivePolicy::clamp_prefix`] picks for an admitted prefix:
//!
//! 1. **VRU floor** — while the policy predicts a vulnerable road user,
//!    never runs below [`ProactiveConfig::vru_floor_level`], no matter
//!    what the detection-history score suggests or how the scheduler's
//!    EMAs are poisoned;
//! 2. **Fit check** — otherwise either is the scheduler's own rung or is
//!    predicted to fit the head budget at the prefix's batch size (per-rung
//!    EMAs are independent, so a cheaper rung is not automatically faster);
//! 3. is a real ladder level.
//!
//! Admission itself — how many frames run, and whether the head frame
//! drops — is `DeadlineScheduler::admit_prefix`'s alone; the policy
//! cannot change it, by construction of its signature.
//!
//! The ladder is built once (compression is the expensive part); each
//! case builds a fresh scheduler + policy, so EMA state never leaks
//! between cases and every run is seed-deterministic.

use proptest::prelude::*;
use std::sync::OnceLock;
use upaq_det3d::Box3d;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::ObjectClass;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::LidarDetector;
use upaq_runtime::scheduler::{DeadlineScheduler, SchedulerConfig};
use upaq_runtime::{ProactiveConfig, ProactivePolicy, VariantLadder};
use upaq_tensor::ops::TensorParallel;

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn ladder() -> &'static VariantLadder<LidarDetector> {
    static LADDER: OnceLock<VariantLadder<LidarDetector>> = OnceLock::new();
    LADDER.get_or_init(|| {
        TensorParallel::set_threads(test_threads());
        let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
        VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 7).unwrap()
    })
}

/// One synthetic detection history frame: per-class box counts, cars
/// ranging high enough to model degraded-rung false-positive spray.
fn arb_history() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0usize..40, 0usize..6, 0usize..6), 0..8)
}

/// Latency observations poisoning the scheduler's per-rung EMAs: any rung
/// may be taught to look arbitrarily slow or fast.
fn arb_observations() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec((0usize..3, 1e-4f64..0.2), 0..20)
}

fn arb_config() -> impl Strategy<Value = ProactiveConfig> {
    (0usize..3, 0.0f64..0.02, 0.05f64..2.0, 0u64..12).prop_map(
        |(vru_floor_level, headroom_margin_s, vru_threshold, vru_hold_frames)| ProactiveConfig {
            vru_floor_level,
            headroom_margin_s,
            vru_threshold,
            vru_hold_frames,
            ..ProactiveConfig::default()
        },
    )
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

/// A fresh scheduler + policy pair with the given random state replayed.
fn build(
    config: &ProactiveConfig,
    observations: &[(usize, f64)],
    history: &[(usize, usize, usize)],
) -> (DeadlineScheduler, ProactivePolicy) {
    let l = ladder();
    let scheduler = DeadlineScheduler::new(l, SchedulerConfig::default());
    for &(level, s) in observations {
        scheduler.observe(level.min(l.len() - 1), s);
    }
    let policy = ProactivePolicy::new(config.clone());
    for &(cars, peds, cycs) in history {
        policy.observe_detections(&boxes(cars, peds, cycs));
    }
    (scheduler, policy)
}

proptest! {
    /// The rung re-picked for an admitted prefix is a real ladder level,
    /// honors the VRU floor, and otherwise either stays on the
    /// scheduler's rung or is fit-checked against the head budget.
    #[test]
    fn clamp_prefix_respects_the_floor_and_the_budget(
        config in arb_config(),
        observations in arb_observations(),
        history in arb_history(),
        budgets in prop::collection::vec(0.001f64..0.5, 1..5),
    ) {
        let (scheduler, policy) = build(&config, &observations, &history);
        let mut budgets = budgets;
        budgets.sort_by(f64::total_cmp);
        let vru = policy.vru_predicted();
        if let Some((k, level)) = scheduler.admit_prefix(&budgets) {
            let steered = policy.clamp_prefix(&scheduler, k, level, budgets[0]);
            prop_assert!(steered < ladder().len(), "rung {steered} outside the ladder");
            if vru {
                prop_assert!(
                    steered <= config.vru_floor_level,
                    "predicted VRU prefix below the floor: level {steered}"
                );
            } else if steered != level {
                let cost = (scheduler.predicted_batch_s(steered, k)
                    + scheduler.predicted_post_s())
                    * scheduler.config().headroom;
                prop_assert!(
                    cost <= budgets[0],
                    "steered rung {steered} overruns the head budget: {cost} > {}",
                    budgets[0]
                );
            }
        }
    }
}
