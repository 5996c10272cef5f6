//! Chaos-matrix integration suite: every fault plan × every scenario
//! dataset through a supervised one-stream fleet.
//!
//! Three layers of assertion:
//!
//! 1. **No panic escapes** — every cell of the matrix returns a report:
//!    injected backbone panics are isolated, poisoned payloads are
//!    quarantined at the firewall, and the process never aborts.
//! 2. **Exact fault accounting** — with a 10 s deadline, a per-stream
//!    queue as deep as the run, one frame per invocation and no circuit
//!    breaker, nothing is shed, so the plan is enumerable and the
//!    six-class identity `completed + degraded + dropped_backpressure +
//!    dropped_deadline + failed + faulted == admitted` is asserted with
//!    *exact* expected counts: detectable payload corruption (NaN/Inf/
//!    empty) lands in `quarantined`, scheduled panics in the rest of
//!    `faulted`, and nothing else moves.
//! 3. **Supervision is free for clean frames** — clean-frame detections
//!    of the supervised realtime fleet are raw-bits identical to the
//!    unsupervised lossless (Saturate) run, and the surviving frames of
//!    a chaos run are raw-bits identical to the same frames of a clean
//!    run.
//!
//! A final wall-clock sweep re-runs every plan against a loaded backbone
//! with tight deadlines and the default breaker, where drop/degrade
//! splits vary run to run — there only the identities that hold for
//! *any* interleaving are asserted.

use std::collections::HashSet;
use std::sync::OnceLock;
use upaq_det3d::Box3d;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::DatasetConfig;
use upaq_kitti::faults::{self, FaultPlan, PayloadFault};
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::scenario;
use upaq_kitti::stream::SensorData;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::{LidarDetector, StreamingDetector};
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetOutcome, FleetServer};
use upaq_tensor::ops::TensorParallel;

const SEED: u64 = 2025;
const CHAOS_FRAMES: u64 = 10;

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// One unfitted tiny ladder, shared by every cell: the chaos matrix
/// asserts accounting and bit-identity, not recall, so head fitting
/// would only slow the suite down.
fn lidar_ladder() -> VariantLadder<LidarDetector> {
    static LADDER: OnceLock<VariantLadder<LidarDetector>> = OnceLock::new();
    LADDER
        .get_or_init(|| {
            TensorParallel::set_threads(test_threads());
            let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
            VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), SEED).unwrap()
        })
        .clone()
}

fn small_dataset() -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    cfg
}

/// Serves `frames` frames of `FrameStream::generate(dataset, SEED)` as a
/// one-stream realtime fleet under `plan`, sized so nothing is ever shed:
/// 1 ms arrivals, a 10 s deadline, a per-stream queue as deep as the run,
/// one frame per invocation and no breaker.
fn serve_exact<D: StreamingDetector>(
    ladder: VariantLadder<D>,
    dataset: &DatasetConfig,
    frames: u64,
    plan: Option<FaultPlan>,
) -> FleetOutcome
where
    D::Input: SensorData,
{
    let scenario = FleetScenario::single(dataset.clone(), SEED, frames, &[0.001], 10.0);
    FleetServer::new(
        ladder,
        scenario,
        FleetConfig {
            workers: 2,
            max_batch: 1,
            per_stream_queue: frames as usize,
            mode: FleetMode::Realtime,
            faults: plan,
            breaker: None,
            collect_detections: true,
            ..FleetConfig::default()
        },
    )
    .run()
}

/// Delivered detections keyed by frame id, in frame order.
fn by_frame(outcome: &FleetOutcome) -> Vec<(u64, Vec<Box3d>)> {
    outcome
        .detections
        .iter()
        .map(|(_, id, boxes)| (*id, boxes.clone()))
        .collect()
}

/// Raw-bits view of a box: any arithmetic difference, however small,
/// changes some lane — and NaN never breaks the compare.
fn box_bits(b: &Box3d) -> [u32; 9] {
    [
        b.score.to_bits(),
        b.yaw.to_bits(),
        b.center[0].to_bits(),
        b.center[1].to_bits(),
        b.center[2].to_bits(),
        b.dims[0].to_bits(),
        b.dims[1].to_bits(),
        b.dims[2].to_bits(),
        b.class.index() as u32,
    ]
}

fn bits(boxes: &[Box3d]) -> Vec<[u32; 9]> {
    boxes.iter().map(box_bits).collect()
}

/// What the supervision layer must charge for a plan over `frames`
/// frames of a shed-free run: `(quarantined, panicked)`. A
/// detectable payload fault (NaN/Inf/empty) quarantines the frame at
/// admission, so a panic scheduled on the same frame never fires;
/// truncation leaves a plausible frame that passes the firewall.
fn expected_faults(plan: &FaultPlan, frames: u64) -> (u64, u64) {
    let mut quarantined = 0;
    let mut panics = 0;
    for id in 0..frames {
        let f = plan.frame(id);
        let detectable = matches!(
            f.payload,
            Some(
                PayloadFault::NanValues { .. }
                    | PayloadFault::InfValues { .. }
                    | PayloadFault::Empty
            )
        );
        if detectable {
            quarantined += 1;
        } else if f.panic {
            panics += 1;
        }
    }
    (quarantined, panics)
}

/// Layer 1 + 2: the full plan × scenario matrix on shed-free fleets,
/// where the schedule is enumerable and the accounting must be *exact*.
#[test]
fn every_plan_accounts_exactly_on_every_scenario_dataset() {
    let ladder = lidar_ladder();
    let mut injected_anywhere = false;
    for profile in scenario::catalog() {
        for plan in faults::catalog() {
            let (exp_quarantined, exp_panics) = expected_faults(&plan, CHAOS_FRAMES);
            let label = format!("{} / {}", profile.name, plan.name);
            let clean = plan.is_clean();
            let outcome = serve_exact(ladder.clone(), &profile.dataset, CHAOS_FRAMES, Some(plan));
            let r = &outcome.report;

            assert_eq!(r.admitted, CHAOS_FRAMES, "{label}");
            assert!(r.accounted(), "{label}: silent frame loss");
            // Shed-free: nothing is dropped, degraded or failed — every
            // loss is a scheduled fault, charged to exactly the right class.
            assert_eq!(r.dropped_backpressure + r.dropped_deadline, 0, "{label}");
            assert_eq!(r.degraded, 0, "{label}");
            assert_eq!(r.failed, 0, "{label}");
            assert_eq!(r.quarantined, exp_quarantined, "{label}");
            assert_eq!(r.faulted - r.quarantined, exp_panics, "{label}");
            assert_eq!(r.completed, CHAOS_FRAMES - r.faulted, "{label}");
            assert_eq!(
                outcome.detections.len(),
                r.completed as usize,
                "{label}: detections must match completions"
            );
            if clean {
                assert_eq!(r.faulted, 0, "{label}: clean control row faulted");
            }
            if r.faulted > 0 {
                injected_anywhere = true;
            }
        }
    }
    assert!(
        injected_anywhere,
        "no plan injected anything in {CHAOS_FRAMES} frames — the matrix is inert"
    );
}

/// Layer 3a: supervision costs nothing when nothing faults. The firewall
/// inspects and passes clean frames through bit-identical, so a
/// supervised realtime fleet (firewall plus the default breaker) — with
/// or without an (empty) fault plan — must produce raw-bits identical
/// detections to the unsupervised lossless Saturate run, which bypasses
/// admission, firewall and breakers entirely.
#[test]
fn clean_frames_are_bit_identical_with_supervision_on_and_off() {
    let ladder = lidar_ladder();
    let scenario = FleetScenario::single(small_dataset(), SEED, 8, &[0.001], 10.0);
    let run = |mode: FleetMode, faults: Option<FaultPlan>| {
        let outcome = FleetServer::new(
            ladder.clone(),
            scenario.clone(),
            FleetConfig {
                workers: 2,
                max_batch: 1,
                per_stream_queue: 8,
                mode,
                faults,
                collect_detections: true,
                ..FleetConfig::default()
            },
        )
        .run();
        by_frame(&outcome)
    };
    let unsupervised = run(FleetMode::Saturate, None);
    let supervised = run(FleetMode::Realtime, None);
    let clean_plan = run(FleetMode::Realtime, Some(FaultPlan::clean()));

    assert_eq!(unsupervised.len(), 8);
    for other in [&supervised, &clean_plan] {
        assert_eq!(other.len(), unsupervised.len());
        for ((id_a, a), (id_b, b)) in unsupervised.iter().zip(other) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                bits(a),
                bits(b),
                "frame {id_a}: supervision changed clean-frame bits"
            );
        }
    }
}

/// Layer 3b: fault isolation is surgical. The frames a chaos run
/// delivers are exactly the non-scheduled ones, and their detections are
/// raw-bits identical to the same frames of a clean run — a quarantine
/// or an isolated panic never perturbs its neighbours.
#[test]
fn surviving_frames_of_a_chaos_run_match_the_clean_run_bitwise() {
    let ladder = lidar_ladder();
    let run = |faults: Option<FaultPlan>| {
        by_frame(&serve_exact(
            ladder.clone(),
            &small_dataset(),
            CHAOS_FRAMES,
            faults,
        ))
    };
    let clean = run(None);
    assert_eq!(clean.len(), CHAOS_FRAMES as usize);

    for name in ["nan-burst", "panic-storm"] {
        let plan = faults::by_name(name).unwrap();
        let hit: HashSet<u64> = plan
            .payload_frames(CHAOS_FRAMES)
            .into_iter()
            .chain(plan.panic_frames(CHAOS_FRAMES))
            .collect();
        assert!(!hit.is_empty(), "{name}: plan never fires");

        let chaos = run(Some(plan));
        let survivor_ids: Vec<u64> = chaos.iter().map(|(id, _)| *id).collect();
        let expected_ids: Vec<u64> = (0..CHAOS_FRAMES).filter(|id| !hit.contains(id)).collect();
        assert_eq!(survivor_ids, expected_ids, "{name}: wrong frames survived");

        for (id, boxes) in &chaos {
            let (_, clean_boxes) = &clean[*id as usize];
            assert_eq!(
                bits(boxes),
                bits(clean_boxes),
                "{name}: fault on a neighbour perturbed frame {id}"
            );
        }
    }
}

/// Camera-path spot check: the firewall and accounting are generic over
/// the detector, so a truncation plan against the SMOKE detector must
/// quarantine exactly the empty frames (zeroed rows pass the firewall)
/// and keep the identity exact.
#[test]
fn camera_path_quarantines_and_accounts_exactly() {
    TensorParallel::set_threads(test_threads());
    let smoke_cfg = SmokeConfig::tiny();
    let mut cfg = small_dataset();
    cfg.camera = smoke_cfg.calib.clone();
    let base = Smoke::build(&smoke_cfg).unwrap();
    let ladder = VariantLadder::build(base, &DeviceProfile::jetson_orin_nano(), SEED).unwrap();

    let frames = 8u64;
    let plan = faults::by_name("truncation").unwrap();
    let (exp_quarantined, exp_panics) = expected_faults(&plan, frames);
    assert!(exp_quarantined > 0, "plan must empty at least one frame");
    assert_eq!(exp_panics, 0);

    let outcome = serve_exact(ladder, &cfg, frames, Some(plan));
    let r = &outcome.report;
    assert_eq!(r.detector, "camera");
    assert_eq!(r.quarantined, exp_quarantined);
    assert_eq!(r.faulted, exp_quarantined);
    assert_eq!(r.completed, frames - exp_quarantined);
    assert!(r.accounted());
    assert_eq!(outcome.detections.len(), r.completed as usize);
}

/// The wall-clock sweep: every plan under realtime pacing against a
/// loaded backbone (every invocation stalled 5 ms on top of the plan),
/// a 50 ms deadline, a two-frame backlog bound and the default circuit
/// breaker. Drop/degrade splits vary with the interleaving, so only the
/// interleaving-independent guarantees are asserted: the run returns (no
/// panic escapes) and the six-class identity holds exactly.
#[test]
fn wall_clock_chaos_never_escapes_a_panic_and_always_accounts() {
    let ladder = lidar_ladder();
    let scenario = FleetScenario::single(small_dataset(), SEED, 8, &[0.002], 0.050);
    for mut plan in faults::catalog() {
        let label = format!("wall-clock / {}", plan.name);
        plan.rules.extend(FaultPlan::slow_backbone(0.005).rules);
        let outcome = FleetServer::new(
            ladder.clone(),
            scenario.clone(),
            FleetConfig {
                workers: 1,
                max_batch: 1,
                per_stream_queue: 2,
                mode: FleetMode::Realtime,
                faults: Some(plan),
                collect_detections: true,
                ..FleetConfig::default()
            },
        )
        .run();
        let r = &outcome.report;
        assert_eq!(r.admitted, 8, "{label}");
        assert!(r.accounted(), "{label}: silent frame loss");
        assert!(r.quarantined <= r.faulted, "{label}: quarantined ⊄ faulted");
        assert_eq!(outcome.detections.len() as u64, r.delivered(), "{label}");
    }
}
