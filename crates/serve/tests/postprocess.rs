//! Postprocess bit-identity across the degrade ladder, thread counts and
//! serving worker counts.
//!
//! The decode rewrite (logit-domain prefilter + pooled candidate scan +
//! bucketed NMS) is gated the same way the conv kernels are: every rung of
//! both detector ladders must produce raw-bits-identical candidates to the
//! serial sigmoid-domain oracle at every thread count, and a lossless
//! one-stream fleet must not change a single bit when its workers decode
//! frames concurrently.

use upaq_det3d::{
    decode_camera_candidates, decode_camera_candidates_reference, decode_candidates,
    decode_candidates_reference, Box3d,
};
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::DatasetConfig;
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::stream::{CameraFrameStream, FrameStream};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::{CameraDetector, LidarDetector};
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetServer};
use upaq_tensor::ops::TensorParallel;

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// Raw-bits view of a box: any arithmetic difference, however small,
/// changes some lane.
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

fn lidar_ladder() -> VariantLadder<LidarDetector> {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 41).unwrap()
}

fn lidar_dataset() -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    cfg
}

fn lidar_stream() -> FrameStream {
    FrameStream::generate(&lidar_dataset(), 41)
}

fn camera_setup() -> (VariantLadder<CameraDetector>, CameraFrameStream) {
    let smoke_cfg = SmokeConfig::tiny();
    let det = Smoke::build(&smoke_cfg).unwrap();
    let ladder = VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 42).unwrap();
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    cfg.camera = smoke_cfg.calib.clone();
    (ladder, CameraFrameStream::generate(&cfg, 42))
}

#[test]
fn lidar_decode_bit_identical_across_rungs_and_threads() {
    let ladder = lidar_ladder();
    let frames: Vec<_> = lidar_stream().take(2).collect();
    for (level, rung) in ladder.levels().iter().enumerate() {
        let det = &rung.detector;
        for (fi, frame) in frames.iter().enumerate() {
            let head = det.head_output(&frame.data).unwrap();
            // The oracle is a plain serial loop — thread settings cannot
            // touch it.
            let want = bits(&decode_candidates_reference(&head, &det.head_spec));
            for threads in [1, 2, test_threads()] {
                TensorParallel::set_threads(threads);
                let got = bits(&decode_candidates(&head, &det.head_spec));
                assert_eq!(
                    got, want,
                    "lidar rung {level} frame {fi} diverged at {threads} threads"
                );
            }
            TensorParallel::set_threads(1);
        }
    }
}

#[test]
fn camera_decode_bit_identical_across_rungs_and_threads() {
    let (ladder, mut stream) = camera_setup();
    let frames: Vec<_> = stream.by_ref().take(2).collect();
    for (level, rung) in ladder.levels().iter().enumerate() {
        let det = &rung.detector;
        for (fi, frame) in frames.iter().enumerate() {
            let head = det.head_output(&frame.data).unwrap();
            let want = bits(&decode_camera_candidates_reference(&head, &det.head_spec));
            for threads in [1, 2, test_threads()] {
                TensorParallel::set_threads(threads);
                let got = bits(&decode_camera_candidates(&head, &det.head_spec));
                assert_eq!(
                    got, want,
                    "camera rung {level} frame {fi} diverged at {threads} threads"
                );
            }
            TensorParallel::set_threads(1);
        }
    }
}

/// A lossless run's detections must not change one bit when postprocess
/// fans out over multiple serving workers (and those workers race each
/// other into the tensor pool's single-submitter guard).
#[test]
fn multi_worker_postprocess_matches_single_worker_bitwise() {
    TensorParallel::set_threads(test_threads());
    let scenario = FleetScenario::single(lidar_dataset(), 41, 6, &[0.033], 0.100);
    let run = |workers: usize| {
        FleetServer::new(
            lidar_ladder(),
            scenario.clone(),
            FleetConfig {
                workers,
                max_batch: 1,
                mode: FleetMode::Saturate,
                collect_detections: true,
                ..FleetConfig::default()
            },
        )
        .run()
    };
    let baseline = run(1);
    assert_eq!(baseline.report.completed, 6);
    for workers in [2, 4] {
        let outcome = run(workers);
        assert_eq!(outcome.report.completed, 6);
        assert_eq!(outcome.detections.len(), baseline.detections.len());
        for ((_, id_a, a), (_, id_b, b)) in baseline.detections.iter().zip(&outcome.detections) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                bits(a),
                bits(b),
                "frame {id_a} diverged with {workers} serving workers"
            );
        }
    }
    TensorParallel::set_threads(1);
}
