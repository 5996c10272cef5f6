//! Scenario-matrix integration suite: every catalog profile through a
//! one-stream fleet under both scheduling policies.
//!
//! Three layers of assertion:
//!
//! 1. **Zero silent loss** — on every profile × policy the accounting
//!    identity `completed + degraded + dropped_backpressure +
//!    dropped_deadline + failed + faulted == admitted` holds exactly,
//!    and the per-rung frame charges sum to the delivered count (every
//!    delivered frame was billed to exactly one rung).
//! 2. **Energy ordering** — in a deterministic virtual-time replay of
//!    each profile, the proactive policy's modeled energy never exceeds
//!    the always-base policy's, while its ground-truth VRU recall is
//!    equal or better (the safety floor keeps VRU frames on an accurate
//!    rung, so the savings come out of empty and easy frames only).
//! 3. **Override placement** — the VRU floor fires on the VRU-heavy
//!    profile and stays exactly zero on empty-highway, the profile that
//!    provably has no vulnerable road users to predict.
//!
//! The serving runs replay each profile's arrival-gap cycle on the wall
//! clock, so their drop/degrade splits vary run to run — only identities
//! that hold for *any* interleaving are asserted there. The energy/recall
//! comparison instead replays frames in virtual time (budgets and latency
//! observations come from the modeled estimates, never the wall clock)
//! through the engine's own admission rule — `admit_prefix`, then
//! `clamp_prefix` — which makes it exactly reproducible at any thread
//! count.

use std::sync::OnceLock;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::Dataset;
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::scenario::{self, ScenarioProfile};
use upaq_kitti::Scene;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::pretrain::fit_lidar_head;
use upaq_models::LidarDetector;
use upaq_runtime::scheduler::{DeadlineScheduler, SchedulerConfig};
use upaq_runtime::{OverrideSnapshot, ProactiveConfig, ProactivePolicy, VariantLadder};
use upaq_serve::{FleetConfig, FleetMode, FleetServer};
use upaq_tensor::ops::TensorParallel;

const SEED: u64 = 2025;
const SERVED_FRAMES: u64 = 10;
const SIM_FRAMES: u64 = 24;

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// One fitted ladder per catalog profile, built once: head fitting and
/// compression dominate the suite's cost, and every test replays the
/// same ladders.
fn fitted_ladder(profile: &ScenarioProfile) -> VariantLadder<LidarDetector> {
    static LADDERS: OnceLock<Vec<(&'static str, VariantLadder<LidarDetector>)>> = OnceLock::new();
    LADDERS
        .get_or_init(|| {
            TensorParallel::set_threads(test_threads());
            scenario::catalog()
                .iter()
                .map(|p| {
                    let mut det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
                    let data = Dataset::generate(&p.dataset, SEED);
                    let scenes: Vec<usize> = (0..data.len()).collect();
                    fit_lidar_head(&mut det, &data, &scenes, 1e-3).unwrap();
                    let mut ladder =
                        VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), SEED)
                            .unwrap();
                    // Degraded rungs decode through heads refit on their
                    // own compressed backbones — without this, LCK/HCK
                    // detections are false-positive spray and any recall
                    // comparison is meaningless.
                    ladder.calibrate_heads(&data, 1e-3).unwrap();
                    (p.name, ladder)
                })
                .collect()
        })
        .iter()
        .find(|(name, _)| *name == profile.name)
        .map(|(_, l)| l.clone())
        .expect("every catalog profile has a ladder")
}

#[test]
fn every_profile_accounts_every_frame_under_both_policies() {
    for profile in scenario::catalog() {
        let ladder = fitted_ladder(&profile);
        let scenario = FleetScenario::single(
            profile.dataset.clone(),
            SEED,
            SERVED_FRAMES,
            &profile.arrival.cycle(),
            profile.deadline_s,
        );
        for proactive in [None, Some(ProactiveConfig::default())] {
            let outcome = FleetServer::new(
                ladder.clone(),
                scenario.clone(),
                FleetConfig {
                    workers: 2,
                    max_batch: 2,
                    per_stream_queue: 4,
                    mode: FleetMode::Realtime,
                    proactive: proactive.clone(),
                    collect_detections: true,
                    ..FleetConfig::default()
                },
            )
            .run();
            let r = &outcome.report;
            let label = format!("{} / {}", profile.name, r.policy);

            assert_eq!(r.admitted, SERVED_FRAMES, "{label}");
            assert!(r.accounted(), "{label}: silent frame loss");
            // A healthy forward path never fails: shed load must be filed
            // under the drop counters, not `failed` or `faulted`.
            assert_eq!(r.failed + r.faulted, 0, "{label}");
            assert_eq!(
                outcome.detections.len() as u64,
                r.delivered(),
                "{label}: detections must match deliveries"
            );
            // Every delivered frame was billed to exactly one rung.
            let billed: u64 = r.rungs.iter().map(|v| v.frames).sum();
            assert_eq!(billed, r.delivered(), "{label}: energy billing leak");
            assert_eq!(
                r.policy,
                if proactive.is_some() {
                    "proactive"
                } else {
                    "reactive"
                },
                "{label}"
            );
            assert_eq!(
                r.overrides.is_some(),
                proactive.is_some(),
                "{label}: override counters reported iff the policy ran"
            );
        }
    }
}

/// Outcome of one deterministic virtual-time replay of a profile.
struct SimOutcome {
    energy_j: f64,
    /// Ground-truth VRU recall: matched VRU objects over all VRU objects
    /// across the replayed frames (1.0 when the profile has none).
    vru_recall: f64,
    overrides: OverrideSnapshot,
}

/// Fraction of the scene's ground-truth VRUs matched by a detected VRU
/// box within `radius_m` in the ground plane — the recall the safety
/// override exists to protect, measured against the world, not against
/// another detector.
fn vru_matches(scene: &Scene, dets: &[upaq_det3d::Box3d], radius_m: f32) -> (u64, u64) {
    let mut total = 0;
    let mut matched = 0;
    for obj in &scene.objects {
        if !obj.class.is_vulnerable() {
            continue;
        }
        total += 1;
        let hit = dets.iter().any(|b| {
            b.class.is_vulnerable() && {
                let dx = b.center[0] - obj.center[0];
                let dy = b.center[1] - obj.center[1];
                (dx * dx + dy * dy).sqrt() <= radius_m
            }
        });
        if hit {
            matched += 1;
        }
    }
    (matched, total)
}

/// Replays `SIM_FRAMES` frames of a profile in virtual time: every frame
/// arrives alone with its full deadline budget and is admitted by the
/// serving engine's rule (`admit_prefix`, then `clamp_prefix` under the
/// proactive policy), the scheduler's latency EMAs are fed the *modeled*
/// rung latencies instead of wall-clock samples, and detections feed the
/// proactive EMAs in frame order. Pure arithmetic end to end, so two
/// replays agree exactly at any thread count.
///
/// The first two scene cycles are a warmup: frames are admitted and
/// observed (EMAs warm exactly as they would streaming) but not scored —
/// the energy/recall comparison measures the policies' steady state, not
/// the transient before the detection-history EMA has ever seen the
/// world.
fn simulate(
    profile: &ScenarioProfile,
    ladder: &VariantLadder<LidarDetector>,
    proactive: Option<ProactiveConfig>,
) -> SimOutcome {
    let data = Dataset::generate(&profile.dataset, SEED);
    let scheduler = DeadlineScheduler::new(ladder, SchedulerConfig::default());
    let policy = proactive.map(ProactivePolicy::new);

    // Two full scene cycles: the detection EMA needs one cycle to see
    // every scene and a second for the rung choices those sightings
    // drive to settle (rush-hour converges on the second pass).
    let warmup = 2 * data.len() as u64;
    let mut energy_j = 0.0;
    let mut vru_total = 0;
    let mut vru_matched = 0;
    for id in 0..warmup + SIM_FRAMES {
        let scene_index = (id % data.len() as u64) as usize;
        let cloud = data.lidar(scene_index);
        let level = match &policy {
            Some(p) => {
                let (k, reactive) = scheduler
                    .admit_prefix(&[profile.deadline_s])
                    .expect("full-budget frame must never drop");
                p.clamp_prefix(&scheduler, k, reactive, profile.deadline_s)
            }
            None => 0,
        };
        let variant = ladder.level(level);
        let dets = variant.detector.detect(&cloud).unwrap();
        if let Some(p) = &policy {
            p.observe_detections(&dets);
        }
        scheduler.observe(level, variant.estimate.latency_s);
        if id < warmup {
            continue;
        }
        energy_j += variant.estimate.energy_j;
        let (m, t) = vru_matches(data.scene(scene_index), &dets, 3.0);
        vru_matched += m;
        vru_total += t;
    }
    SimOutcome {
        energy_j,
        vru_recall: if vru_total == 0 {
            1.0
        } else {
            vru_matched as f64 / vru_total as f64
        },
        overrides: policy.map(|p| p.overrides()).unwrap_or_default(),
    }
}

#[test]
fn proactive_saves_energy_at_equal_or_better_vru_recall_on_every_profile() {
    let mut saved_anywhere = false;
    for profile in scenario::catalog() {
        let ladder = fitted_ladder(&profile);
        let always_base = simulate(&profile, &ladder, None);
        let proactive = simulate(&profile, &ladder, Some(ProactiveConfig::default()));
        assert!(
            proactive.energy_j <= always_base.energy_j + 1e-9,
            "{}: proactive spent {} J vs always-base {} J",
            profile.name,
            proactive.energy_j,
            always_base.energy_j
        );
        assert!(
            proactive.vru_recall >= always_base.vru_recall - 1e-9,
            "{}: proactive VRU recall {} fell below always-base {}",
            profile.name,
            proactive.vru_recall,
            always_base.vru_recall
        );
        if proactive.energy_j < always_base.energy_j - 1e-9 {
            saved_anywhere = true;
        }
    }
    assert!(
        saved_anywhere,
        "proactive steering saved nothing on any profile — the predictor is inert"
    );
}

#[test]
fn vru_floor_fires_on_urban_vru_and_never_on_empty_highway() {
    let urban = scenario::by_name("urban-vru").unwrap();
    let highway = scenario::by_name("empty-highway").unwrap();

    let urban_sim = simulate(
        &urban,
        &fitted_ladder(&urban),
        Some(ProactiveConfig::default()),
    );
    assert!(
        urban_sim.overrides.vru_floor > 0,
        "urban-vru must exercise the VRU floor: {:?}",
        urban_sim.overrides
    );

    let ladder = fitted_ladder(&highway);
    let highway_sim = simulate(&highway, &ladder, Some(ProactiveConfig::default()));
    assert_eq!(
        highway_sim.overrides.vru_floor, 0,
        "empty-highway has no VRUs to predict: {:?}",
        highway_sim.overrides
    );
    // And the empty road is exactly where the savings must come from.
    let base_sim = simulate(&highway, &ladder, None);
    assert!(
        highway_sim.energy_j < base_sim.energy_j,
        "no energy saved on an empty highway: {} vs {} J",
        highway_sim.energy_j,
        base_sim.energy_j
    );
}

/// Virtual-time replays are bit-reproducible: the property the energy
/// and recall assertions above implicitly rely on, pinned explicitly so
/// a nondeterminism regression fails here with a clear message instead
/// of as a flaky ordering assertion.
#[test]
fn virtual_time_replay_is_deterministic() {
    let profile = scenario::by_name("urban-vru").unwrap();
    let ladder = fitted_ladder(&profile);
    let a = simulate(&profile, &ladder, Some(ProactiveConfig::default()));
    let b = simulate(&profile, &ladder, Some(ProactiveConfig::default()));
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.vru_recall.to_bits(), b.vru_recall.to_bits());
    assert_eq!(a.overrides, b.overrides);
}
