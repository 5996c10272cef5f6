//! A single sensor stream served as a fleet of one: overload shedding,
//! degrade-ladder reporting and failure accounting for both detector
//! modalities.
//!
//! `bin/serve` runs exactly this shape for one stream —
//! `FleetScenario::single` under `FleetServer` — so these tests pin its
//! guarantees: every frame the stream offers is accounted exactly once,
//! overload surfaces as shed or degraded load (never as failures), and a
//! rung whose forward pass errors charges its frames to `failed` only.

use std::sync::{Arc, OnceLock};
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::DatasetConfig;
use upaq_kitti::faults::FaultPlan;
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::lidar::PointCloud;
use upaq_kitti::stream::FrameStream;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::{CameraDetector, LidarDetector, StreamingDetector};
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetOutcome, FleetReport, FleetServer};

fn lidar_ladder() -> VariantLadder<LidarDetector> {
    static LADDER: OnceLock<VariantLadder<LidarDetector>> = OnceLock::new();
    LADDER
        .get_or_init(|| {
            let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
            VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 13).unwrap()
        })
        .clone()
}

fn camera_ladder() -> (VariantLadder<CameraDetector>, DatasetConfig) {
    let smoke_cfg = SmokeConfig::tiny();
    let det = Smoke::build(&smoke_cfg).unwrap();
    let ladder = VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 7).unwrap();
    let mut dataset = small();
    dataset.camera = smoke_cfg.calib.clone();
    (ladder, dataset)
}

fn small() -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    cfg
}

/// A dataset whose every scene produces zero LiDAR points.
fn empty_dataset() -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 1;
    cfg.scene.cars = (0, 0);
    cfg.scene.pedestrians = (0, 0);
    cfg.scene.cyclists = (0, 0);
    cfg.lidar.ground_points = 0;
    cfg.lidar.clutter_points = 0;
    cfg
}

/// A fast source (1 ms gaps) against one worker whose every invocation
/// is stalled 30 ms past a 25 ms deadline.
fn overload<D: StreamingDetector>(
    ladder: VariantLadder<D>,
    dataset: DatasetConfig,
    seed: u64,
) -> FleetOutcome
where
    D::Input: upaq_kitti::stream::SensorData,
{
    let scenario = FleetScenario::single(dataset, seed, 20, &[0.001], 0.025);
    FleetServer::new(
        ladder,
        scenario,
        FleetConfig {
            workers: 1,
            max_batch: 1,
            per_stream_queue: 3,
            mode: FleetMode::Realtime,
            faults: Some(FaultPlan::slow_backbone(0.030)),
            collect_detections: true,
            ..FleetConfig::default()
        },
    )
    .run()
}

/// One lossless (Saturate) pass over `frames` frames.
fn nominal<D: StreamingDetector>(
    ladder: VariantLadder<D>,
    dataset: DatasetConfig,
    seed: u64,
    frames: u64,
    max_batch: usize,
) -> FleetReport
where
    D::Input: upaq_kitti::stream::SensorData,
{
    let scenario = FleetScenario::single(dataset, seed, frames, &[0.033], 0.100);
    FleetServer::new(
        ladder,
        scenario,
        FleetConfig {
            workers: 1,
            max_batch,
            mode: FleetMode::Saturate,
            ..FleetConfig::default()
        },
    )
    .run()
    .report
}

fn assert_overload_accounts(outcome: &FleetOutcome, detector: &str) {
    let r = &outcome.report;
    assert_eq!(r.detector, detector);
    assert_eq!(r.admitted, 20);
    // Every offered frame is accounted exactly once across the disjoint
    // terminal classes (failures are their own class, never folded into
    // deadline drops).
    assert!(r.accounted(), "{detector}: a frame went unaccounted");
    assert_eq!(r.failed, 0, "{detector}: no forward pass should fail");
    assert_eq!(r.faulted, 0, "{detector}: a latency spike is not a fault");
    // Overload must surface as shed or degraded load.
    assert!(r.dropped_backpressure + r.dropped_deadline + r.degraded > 0);
    // Delivered frames all produced detection lists.
    assert_eq!(outcome.detections.len() as u64, r.delivered());
}

fn assert_nominal_reports_the_ladder(r: &FleetReport, frames: u64) {
    assert!(r.accounted());
    assert_eq!(r.completed, frames);
    assert_eq!(r.e2e_latency.count, frames);
    assert!(r.e2e_latency.p50_s > 0.0 && r.e2e_latency.p99_s >= r.e2e_latency.p50_s);
    assert!(r.delivered_fps > 0.0);
    // The report lists the full ladder, even rungs that never ran.
    assert_eq!(r.rungs.len(), 3);
    assert_eq!(r.rungs[0].frames, frames);
    assert!(r.total_energy_j > 0.0);
    assert!(
        r.energy_saved_vs_base_j.abs() < 1e-9,
        "the full model saves nothing"
    );
}

/// Empty-scene frames inside a full serving run complete without
/// panicking and detect nothing: `LidarDetector::postprocess` gates
/// zero-point clouds, whatever constant the head's biases put on the
/// all-zero BEV. Saturate mode bypasses the admission firewall (which
/// would quarantine empty frames as defective), so the zero-point scene
/// actually reaches the numeric stages.
#[test]
fn empty_scene_serving_run_never_panics() {
    // The empty dataset really produces zero-point clouds.
    let probe = FrameStream::<PointCloud>::generate(&empty_dataset(), 7)
        .next()
        .unwrap();
    assert_eq!(probe.data.len(), 0, "empty scenario must have no points");
    let scenario = FleetScenario::single(empty_dataset(), 7, 2, &[0.033], 0.100);
    let outcome = FleetServer::new(
        lidar_ladder(),
        scenario,
        FleetConfig {
            workers: 2,
            max_batch: 1,
            mode: FleetMode::Saturate,
            collect_detections: true,
            ..FleetConfig::default()
        },
    )
    .run();
    assert_eq!(outcome.report.completed, 2);
    for (_, _, dets) in &outcome.detections {
        assert!(dets.is_empty(), "an empty scene must detect nothing");
    }
}

#[test]
fn overload_sheds_or_degrades_and_accounts_every_frame() {
    assert_overload_accounts(&overload(lidar_ladder(), small(), 13), "lidar");
}

#[test]
fn camera_overload_sheds_or_degrades_and_accounts_every_frame() {
    let (ladder, dataset) = camera_ladder();
    assert_overload_accounts(&overload(ladder, dataset, 7), "camera");
}

#[test]
fn nominal_run_reports_latency_and_energy_per_rung() {
    assert_nominal_reports_the_ladder(&nominal(lidar_ladder(), small(), 13, 8, 1), 8);
}

#[test]
fn camera_nominal_run_reports_full_ladder() {
    let (ladder, dataset) = camera_ladder();
    assert_nominal_reports_the_ladder(&nominal(ladder, dataset, 7, 6, 1), 6);
}

/// A batched lossless run completes every frame, and its batch histogram
/// covers every frame.
#[test]
fn batched_run_completes_and_reports_batches() {
    let r = nominal(lidar_ladder(), small(), 21, 8, 4);
    assert_eq!(r.completed, 8);
    assert_eq!(r.max_batch, 4);
    let batched: u64 = r
        .batch_histogram
        .iter()
        .map(|b| b.size as u64 * b.batches)
        .sum();
    assert_eq!(batched, 8, "histogram must cover every frame");
    assert!(r.mean_batch_size >= 1.0);
}

/// A ladder whose degraded rungs cannot execute: their input node is
/// renamed, so the forward pass errors.
fn sabotaged_ladder() -> VariantLadder<LidarDetector> {
    let mut levels = lidar_ladder().levels().to_vec();
    // Price the base rung beyond any reachable budget so the scheduler
    // always degrades onto a failing rung.
    levels[0].estimate.latency_s = 1e3;
    for spec in &mut levels[1..] {
        let mut det = (*spec.detector).clone();
        det.input_name = "no-such-input".into();
        spec.detector = Arc::new(det);
    }
    VariantLadder::from_levels(levels).unwrap()
}

/// Regression for the degraded/failed double-count: frames admitted onto
/// a rung whose forward pass errors are `failed` only — never
/// `degraded`, never folded into `dropped_deadline` — one by one and in
/// batches alike.
#[test]
fn failing_forward_keeps_degraded_failed_and_dropped_disjoint() {
    let scenario = FleetScenario::single(small(), 21, 6, &[0.001], 10.0);
    for (mode, max_batch) in [(FleetMode::Realtime, 1), (FleetMode::Saturate, 4)] {
        let r = FleetServer::new(
            sabotaged_ladder(),
            scenario.clone(),
            FleetConfig {
                workers: 1,
                max_batch,
                per_stream_queue: 6,
                mode,
                force_level: (mode == FleetMode::Saturate).then_some(2),
                scheduler: upaq_runtime::SchedulerConfig {
                    ema_alpha: 0.0,
                    headroom: 1.0,
                },
                breaker: None,
                ..FleetConfig::default()
            },
        )
        .run()
        .report;
        let label = mode.label();
        assert_eq!(r.admitted, 6, "{label}");
        assert_eq!(
            r.failed, 6,
            "{label}: sabotaged rungs must surface as failures"
        );
        assert_eq!(r.degraded + r.completed, 0, "{label}");
        assert_eq!(r.dropped_deadline + r.dropped_backpressure, 0, "{label}");
        assert!(r.accounted(), "{label}: failure accounting went non-exact");
    }
}
