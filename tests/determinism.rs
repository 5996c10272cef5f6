//! Reproducibility guarantees: every stochastic stage is seed-determined,
//! so the paper tables regenerate identically run to run.

use upaq::compress::{CompressionContext, Compressor, Upaq};
use upaq::config::UpaqConfig;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::{Dataset, DatasetConfig};
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::stream::{CameraFrameStream, FrameStream, SensorData};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::pretrain::fit_lidar_head;
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::StreamingDetector;
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetServer};

/// Serves `frames` frames of `FrameStream::generate(dataset, seed)` as a
/// lossless one-stream fleet (Saturate mode: no pacing, no scheduler,
/// full model on every frame) and checks every delivered frame's
/// detections equal per-frame `detect` on the same sample.
fn assert_serving_matches_detect<D: StreamingDetector>(
    base: &D,
    dataset: &DatasetConfig,
    seed: u64,
    frames: u64,
    workers: usize,
    max_batch: usize,
) where
    D::Input: SensorData,
{
    let ladder =
        VariantLadder::build(base.clone(), &DeviceProfile::jetson_orin_nano(), seed).unwrap();
    let scenario = FleetScenario::single(dataset.clone(), seed, frames, &[0.033], 0.100);
    let outcome = FleetServer::new(
        ladder,
        scenario,
        FleetConfig {
            workers,
            max_batch,
            mode: FleetMode::Saturate,
            collect_detections: true,
            ..FleetConfig::default()
        },
    )
    .run();
    assert_eq!(outcome.report.completed, frames);
    assert_eq!(outcome.report.detector, base.modality());
    assert_eq!(outcome.detections.len(), frames as usize);
    let stream = FrameStream::<D::Input>::generate(dataset, seed);
    for (_, id, served) in &outcome.detections {
        let batch = base.detect(&stream.frame(*id).data).unwrap();
        assert_eq!(
            served, &batch,
            "frame {id} diverged from batch detection (workers {workers}, max batch {max_batch})"
        );
    }
}

#[test]
fn dataset_and_sensors_reproduce() {
    let a = Dataset::generate(&DatasetConfig::small(), 99);
    let b = Dataset::generate(&DatasetConfig::small(), 99);
    for i in 0..a.len() {
        assert_eq!(a.scene(i), b.scene(i));
        assert_eq!(a.lidar(i), b.lidar(i));
        assert_eq!(a.camera(i).tensor(), b.camera(i).tensor());
    }
}

#[test]
fn model_build_reproduces() {
    let a = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let b = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    assert_eq!(a.model, b.model);
}

#[test]
fn head_fit_reproduces() {
    let data = Dataset::generate(&DatasetConfig::small(), 5);
    let mut a = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let mut b = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    fit_lidar_head(&mut a, &data, &[0, 1, 2], 1e-3).unwrap();
    fit_lidar_head(&mut b, &data, &[0, 1, 2], 1e-3).unwrap();
    assert_eq!(a.model, b.model);
}

#[test]
fn full_compression_reproduces() {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let ctx = CompressionContext::new(DeviceProfile::jetson_orin_nano(), det.input_shapes(), 123);
    let a = Upaq::new(UpaqConfig::hck())
        .compress(&det.model, &ctx)
        .unwrap();
    let b = Upaq::new(UpaqConfig::hck())
        .compress(&det.model, &ctx)
        .unwrap();
    assert_eq!(a.model, b.model);
    assert_eq!(a.report, b.report);
    // Different seed → (almost surely) different pattern draws.
    let ctx2 = CompressionContext::new(DeviceProfile::jetson_orin_nano(), det.input_shapes(), 124);
    let c = Upaq::new(UpaqConfig::hck())
        .compress(&det.model, &ctx2)
        .unwrap();
    // Reports may coincide, but the model weights should differ somewhere.
    assert!(a.model != c.model || a.report != c.report);
}

#[test]
fn streaming_detections_match_batch_bitwise() {
    // A one-stream fleet in Saturate mode (lossless queue, no scheduler,
    // full model only) must produce exactly the detections a batch
    // `detect` call produces on the same seeded frames — serving shares
    // `preprocess`/`postprocess` and the forward arithmetic with the
    // batch path by construction.
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 3;
    let base = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    assert_serving_matches_detect(&base, &cfg, 31, 7, 3, 1);
}

#[test]
fn camera_streaming_detections_match_batch_bitwise() {
    // Same bit-identity guarantee for the SMOKE/camera path: the serving
    // engine is generic over the detector, so a lossless one-stream fleet
    // must be exactly the batch `detect` on rendered camera frames too,
    // one frame per invocation or four.
    let smoke_cfg = SmokeConfig::tiny();
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 3;
    cfg.camera = smoke_cfg.calib.clone();
    let base = Smoke::build(&smoke_cfg).unwrap();
    for max_batch in [1, 4] {
        assert_serving_matches_detect(&base, &cfg, 31, 6, 2, max_batch);
    }
}

/// Batched execution is bit-identical to the serial path for every ladder
/// rung (base / UPAQ LCK / UPAQ HCK) and every tested batch size. The
/// batched executor runs each frame through the serial per-frame
/// arithmetic, layer by layer, so this must hold exactly — no epsilon.
#[test]
fn lidar_batched_detection_is_bit_identical_across_rungs() {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 3;
    let stream = FrameStream::generate(&cfg, 47);
    let clouds: Vec<_> = (0..7).map(|id| stream.frame(id).data).collect();

    let base = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let ladder = VariantLadder::build(base, &DeviceProfile::jetson_orin_nano(), 47).unwrap();
    assert!(ladder.levels().len() >= 3, "ladder lost its rungs");

    for (level, spec) in ladder.levels().iter().enumerate() {
        let serial: Vec<_> = clouds
            .iter()
            .map(|c| spec.detector.detect(c).unwrap())
            .collect();
        for &k in &[1usize, 2, 4, 7] {
            let mut done = 0;
            for chunk in clouds.chunks(k) {
                let batched = spec.detector.detect_batch(chunk).unwrap();
                for (i, dets) in batched.iter().enumerate() {
                    assert_eq!(
                        dets,
                        &serial[done + i],
                        "rung {level} `{}` diverged at frame {} with batch size {k}",
                        spec.name,
                        done + i
                    );
                }
                done += chunk.len();
            }
        }
    }
}

/// The camera/SMOKE analogue of the batched bit-identity guarantee.
#[test]
fn camera_batched_detection_is_bit_identical_across_rungs() {
    let smoke_cfg = SmokeConfig::tiny();
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 3;
    cfg.camera = smoke_cfg.calib.clone();
    let stream = CameraFrameStream::generate(&cfg, 47);
    let images: Vec<_> = (0..7).map(|id| stream.frame(id).data).collect();

    let base = Smoke::build(&smoke_cfg).unwrap();
    let ladder = VariantLadder::build(base, &DeviceProfile::jetson_orin_nano(), 47).unwrap();
    assert!(ladder.levels().len() >= 3, "ladder lost its rungs");

    for (level, spec) in ladder.levels().iter().enumerate() {
        let serial: Vec<_> = images
            .iter()
            .map(|c| spec.detector.detect(c).unwrap())
            .collect();
        for &k in &[1usize, 2, 4, 7] {
            let mut done = 0;
            for chunk in images.chunks(k) {
                let batched = spec.detector.detect_batch(chunk).unwrap();
                for (i, dets) in batched.iter().enumerate() {
                    assert_eq!(
                        dets,
                        &serial[done + i],
                        "rung {level} `{}` diverged at frame {} with batch size {k}",
                        spec.name,
                        done + i
                    );
                }
                done += chunk.len();
            }
        }
    }
}

/// A *batched* lossless one-stream run must still be bit-identical to
/// per-frame batch `detect` — batching changes the execution grouping,
/// not the arithmetic.
#[test]
fn batched_streaming_detections_match_batch_bitwise() {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 3;
    let base = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    assert_serving_matches_detect(&base, &cfg, 31, 7, 2, 4);
}

#[test]
fn detection_reproduces() {
    let data = Dataset::generate(&DatasetConfig::small(), 17);
    let mut det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    fit_lidar_head(&mut det, &data, &[0, 1], 1e-3).unwrap();
    let a = det.detect(&data.lidar(3)).unwrap();
    let b = det.detect(&data.lidar(3)).unwrap();
    assert_eq!(a, b);
}
