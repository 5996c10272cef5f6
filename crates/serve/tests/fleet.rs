//! Fleet-server integration tests: cross-stream bit-identity, per-stream
//! accounting under overload, and starvation-boost wiring.

use std::collections::HashMap;
use std::sync::OnceLock;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::fleet::{FleetScenario, FleetScenarioConfig, StreamClass};
use upaq_kitti::lidar::PointCloud;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::LidarDetector;
use upaq_runtime::scheduler::SchedulerConfig;
use upaq_runtime::variant::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetServer};

/// The UPAQ ladder is deterministic and expensive to build; share one.
fn ladder() -> VariantLadder<LidarDetector> {
    static LADDER: OnceLock<VariantLadder<LidarDetector>> = OnceLock::new();
    LADDER
        .get_or_init(|| {
            let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
            VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 5).unwrap()
        })
        .clone()
}

fn scenario(streams: usize, frames: u64, classes: Vec<StreamClass>) -> FleetScenario {
    FleetScenario::build(
        FleetScenarioConfig {
            streams,
            frames_per_stream: frames,
            classes,
            ..FleetScenarioConfig::default()
        },
        2025,
    )
}

/// A frame batched with frames from *other* streams must decode raw-bits
/// identical to the same frame run alone through per-frame `detect`.
#[test]
fn cross_stream_batches_are_bit_identical_to_solo_runs() {
    let streams = 6;
    let frames = 3;
    let scen = scenario(
        streams,
        frames,
        vec![StreamClass {
            rate_hz: 10.0,
            deadline_s: 0.150,
        }],
    );
    let server = FleetServer::new(
        ladder(),
        scen.clone(),
        FleetConfig {
            workers: 2,
            max_batch: 4,
            mode: FleetMode::Saturate,
            collect_detections: true,
            ..FleetConfig::default()
        },
    );
    let outcome = server.run();
    let r = &outcome.report;
    assert!(r.accounted(), "fleet lost a frame");
    assert_eq!(r.admitted, streams as u64 * frames);
    assert_eq!(r.delivered(), r.admitted, "saturate mode is lossless");
    assert_eq!(r.failed + r.dropped_backpressure + r.dropped_deadline, 0);
    assert!(
        r.cross_stream_batches > 0,
        "round-robin saturate admission must form cross-stream batches"
    );
    assert!(r.cross_batched_frames >= 2 * r.cross_stream_batches);

    // Reference: every frame alone through per-frame `detect` on the
    // full-model rung.
    let ladder = ladder();
    let base = &ladder.level(0).detector;
    assert_eq!(outcome.detections.len(), (streams as u64 * frames) as usize);
    for (stream, frame_id, boxes) in &outcome.detections {
        let frame = scen.stream::<PointCloud>(*stream).frame(*frame_id);
        assert_eq!(
            boxes,
            &base.detect(&frame.data).unwrap(),
            "stream {stream} frame {frame_id}: batched result diverged from the solo run"
        );
    }
}

/// The same identity at a forced degraded rung: batching across streams
/// never perturbs a compressed variant's detections either.
#[test]
fn forced_degraded_rung_stays_bit_identical_under_batching() {
    let l = ladder();
    let level = l.len() - 1;
    assert!(level > 0, "ladder must have degrade rungs");
    let scen = scenario(
        4,
        2,
        vec![StreamClass {
            rate_hz: 10.0,
            deadline_s: 0.150,
        }],
    );
    let server = FleetServer::new(
        l.clone(),
        scen.clone(),
        FleetConfig {
            workers: 1,
            max_batch: 4,
            mode: FleetMode::Saturate,
            force_level: Some(level),
            collect_detections: true,
            ..FleetConfig::default()
        },
    );
    let outcome = server.run();
    let r = &outcome.report;
    assert!(r.accounted());
    assert_eq!(r.delivered(), 8);
    assert_eq!(r.completed, 0, "every frame ran on the forced rung");
    assert_eq!(r.degraded, 8);
    assert!(r.cross_stream_batches > 0);

    let rung = &l.level(level).detector;
    for (stream, frame_id, boxes) in &outcome.detections {
        let frame = scen.stream::<PointCloud>(*stream).frame(*frame_id);
        let reference = rung.detect(&frame.data).unwrap();
        assert_eq!(
            boxes, &reference,
            "stream {stream} frame {frame_id}: degraded batch diverged from detect()"
        );
    }
}

/// The sparse-activation backbone is invisible at fleet scale: a sparse
/// saturate run delivers detections raw-bits identical to the dense run,
/// and its report carries the per-layer sparsity telemetry.
#[test]
fn sparse_fleet_is_bit_identical_to_dense_and_reports_telemetry() {
    let scen = scenario(
        4,
        2,
        vec![StreamClass {
            rate_hz: 10.0,
            deadline_s: 0.150,
        }],
    );
    let run = |sparse| {
        FleetServer::new(
            ladder(),
            scen.clone(),
            FleetConfig {
                workers: 2,
                max_batch: 4,
                mode: FleetMode::Saturate,
                collect_detections: true,
                sparse_act: sparse,
                ..FleetConfig::default()
            },
        )
        .run()
    };
    let dense = run(None);
    let sparse = run(Some(upaq_runtime::SparseExecConfig::default()));
    assert!(dense.report.accounted() && sparse.report.accounted());
    assert_eq!(dense.report.delivered(), 8);
    assert_eq!(sparse.report.delivered(), 8);

    let mut reference: HashMap<(usize, u64), &Vec<upaq_det3d::Box3d>> = HashMap::new();
    for (stream, frame_id, boxes) in &dense.detections {
        reference.insert((*stream, *frame_id), boxes);
    }
    assert_eq!(sparse.detections.len(), dense.detections.len());
    for (stream, frame_id, boxes) in &sparse.detections {
        assert_eq!(
            &boxes,
            &reference[&(*stream, *frame_id)],
            "stream {stream} frame {frame_id}: sparse fleet diverged from dense"
        );
    }

    assert!(dense.report.sparse_activation.is_none());
    let sp = sparse
        .report
        .sparse_activation
        .as_ref()
        .expect("sparse fleet run must report telemetry");
    assert_eq!(sp.frames_sparse + sp.frames_dense, 8);
    assert!(!sp.layers.is_empty());
    assert!(sp.mean_active_frac > 0.0);
}

/// Realtime overload: arrivals far outpace the pool, so frames are shed —
/// but every stream's accounting identity stays exact (zero silent loss),
/// and starvation aging fires.
#[test]
fn realtime_overload_accounts_every_frame_per_stream() {
    let streams = 8;
    let frames = 5;
    let scen = scenario(
        streams,
        frames,
        vec![
            StreamClass {
                rate_hz: 100.0,
                deadline_s: 0.030,
            },
            StreamClass {
                rate_hz: 50.0,
                deadline_s: 0.080,
            },
        ],
    );
    let server = FleetServer::new(
        ladder(),
        scen,
        FleetConfig {
            workers: 2,
            max_batch: 4,
            per_stream_queue: 1,
            scheduler: SchedulerConfig {
                ema_alpha: 0.2,
                headroom: 1.0,
            },
            mode: FleetMode::Realtime,
            // Any queued frame counts as starving: exercises the boost
            // path deterministically.
            boost_age_s: 0.0,
            ..FleetConfig::default()
        },
    );
    let outcome = server.run();
    let r = &outcome.report;
    assert_eq!(
        r.admitted,
        streams as u64 * frames,
        "every frame was offered"
    );
    assert!(r.accounted(), "per-stream accounting identity broken");
    assert_eq!(r.per_stream.len(), streams);
    for s in &r.per_stream {
        assert!(s.accounted(), "stream {} lost a frame", s.id);
        assert_eq!(s.admitted, frames, "stream {} admission count", s.id);
    }
    assert!(r.boosts > 0, "zero boost age must mark popped frames");
    assert!(r.fairness_jain > 0.0 && r.fairness_jain <= 1.0 + 1e-12);
    // Delivered frames (if any) were paid for in modeled energy.
    if r.delivered() > 0 {
        assert!(r.total_energy_j > 0.0);
        assert!(r.e2e_latency.count == r.delivered());
    }
}

/// Unbatched fleet (max_batch = 1) still delivers everything in saturate
/// mode and never forms a cross-stream batch — the control arm of the
/// batched-vs-unbatched throughput comparison in `bin/fleet`.
#[test]
fn unbatched_saturate_fleet_is_lossless_with_no_cross_batches() {
    let scen = scenario(
        4,
        2,
        vec![StreamClass {
            rate_hz: 10.0,
            deadline_s: 0.150,
        }],
    );
    let server = FleetServer::new(
        ladder(),
        scen,
        FleetConfig {
            workers: 2,
            max_batch: 1,
            mode: FleetMode::Saturate,
            ..FleetConfig::default()
        },
    );
    let outcome = server.run();
    let r = &outcome.report;
    assert!(r.accounted());
    assert_eq!(r.delivered(), 8);
    assert_eq!(r.cross_stream_batches, 0);
    assert_eq!(r.mean_batch_size, 1.0);
    assert_eq!(r.fairness_jain, 1.0, "lossless service is perfectly fair");
    // Detections are not collected unless asked for.
    assert!(outcome.detections.is_empty());
}
