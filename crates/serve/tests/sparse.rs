//! Sparse-activation backbone: end-to-end bit-identity and the
//! empty-scene edge case.
//!
//! The gather/scatter path must be invisible in the outputs: a sparse
//! lossless run produces detections raw-bits identical to the dense run
//! at every ladder rung, thread count, `ExecMode` and batch size — the
//! same firewall the kernel-level proptests pin, asserted here through a
//! one-stream fleet serving the real PointPillars detector.

use std::collections::HashMap;
use upaq_det3d::Box3d;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::DatasetConfig;
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::lidar::PointCloud;
use upaq_kitti::stream::{Frame, FrameStream};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::{LidarDetector, StreamingDetector};
use upaq_nn::exec::{forward_into, Workspace};
use upaq_nn::sparse::{forward_sparse_into, SparseExecConfig};
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetOutcome, FleetServer};
use upaq_tensor::ops::{ExecMode, TensorParallel};

fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn ladder() -> VariantLadder<LidarDetector> {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 17).unwrap()
}

fn dataset() -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 2;
    cfg
}

fn stream() -> FrameStream {
    FrameStream::generate(&dataset(), 29)
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

/// One stream served losslessly (Saturate mode, full model) by a
/// two-worker fleet.
fn serve(
    scenario: FleetScenario,
    sparse: Option<SparseExecConfig>,
    max_batch: usize,
) -> FleetOutcome {
    FleetServer::new(
        ladder(),
        scenario,
        FleetConfig {
            workers: 2,
            max_batch,
            mode: FleetMode::Saturate,
            collect_detections: true,
            sparse_act: sparse,
            ..FleetConfig::default()
        },
    )
    .run()
}

fn run(sparse: Option<SparseExecConfig>, max_batch: usize) -> Vec<(u64, Vec<Box3d>)> {
    let scenario = FleetScenario::single(dataset(), 29, 6, &[0.033], 0.100);
    serve(scenario, sparse, max_batch)
        .detections
        .into_iter()
        .map(|(_, id, boxes)| (id, boxes))
        .collect()
}

/// Raw-bits equality between two detection sets.
fn assert_bits_equal(a: &[(u64, Vec<Box3d>)], b: &[(u64, Vec<Box3d>)]) {
    assert_eq!(a.len(), b.len(), "frame counts differ");
    for ((ia, da), (ib, db)) in a.iter().zip(b) {
        assert_eq!(ia, ib, "frame ids diverged");
        assert_eq!(da.len(), db.len(), "box counts differ on frame {ia}");
        for (x, y) in da.iter().zip(db) {
            for d in 0..3 {
                assert_eq!(
                    x.center[d].to_bits(),
                    y.center[d].to_bits(),
                    "center bits diverged on frame {ia}"
                );
                assert_eq!(x.dims[d].to_bits(), y.dims[d].to_bits());
            }
            assert_eq!(x.yaw.to_bits(), y.yaw.to_bits());
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.class, y.class);
        }
    }
}

/// Sparse and dense runs deliver bit-identical detections, at every
/// fallback threshold and with batching on and off.
#[test]
fn sparse_serving_matches_dense_bit_exact() {
    let dense = run(None, 1);
    assert!(!dense.is_empty());
    for threshold in [0.0, 0.5, 1.0] {
        for max_batch in [1, 4] {
            let sparse = run(
                Some(SparseExecConfig {
                    dense_threshold: threshold,
                }),
                max_batch,
            );
            assert_bits_equal(&dense, &sparse);
        }
    }
}

/// The kernel-level firewall on the real ladder: every rung's full
/// forward pass is raw-bits identical between the sparse and dense
/// executors under both execution modes and the configured thread count
/// — this is the suite the CI `sparse-identity` job sweeps across
/// `UPAQ_TEST_THREADS`.
#[test]
fn every_rung_forward_is_bit_identical_sparse_vs_dense() {
    let ladder = ladder();
    let frames: Vec<Frame<PointCloud>> = stream().take(2).collect();
    TensorParallel::set_threads(test_threads());
    for mode in [ExecMode::Pool, ExecMode::SpawnPerCall] {
        TensorParallel::set_exec_mode(mode);
        for spec in ladder.levels() {
            let det = &spec.detector;
            for frame in &frames {
                let (input, sites) = det.preprocess_sparse(&frame.data);
                let sites = sites.expect("lidar path always produces an active list");
                let mut inputs = HashMap::new();
                inputs.insert(det.input_name().to_string(), input);
                let mut active = HashMap::new();
                active.insert(det.input_name().to_string(), sites);

                let mut dense_ws = Workspace::new();
                forward_into(det.model(), &inputs, &mut dense_ws).unwrap();
                let mut sparse_ws = Workspace::new();
                forward_sparse_into(
                    det.model(),
                    &inputs,
                    &active,
                    &mut sparse_ws,
                    &SparseExecConfig::default(),
                )
                .unwrap();

                for (id, want) in dense_ws.activations() {
                    let got = &sparse_ws.activations()[id];
                    assert_eq!(want.shape(), got.shape());
                    for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "rung `{}` layer {id:?} diverged under {mode:?}",
                            spec.name
                        );
                    }
                }
            }
        }
    }
    TensorParallel::set_exec_mode(ExecMode::Pool);
}

/// Empty-scene regression: zero points must flow through both executors
/// as a well-formed all-zero BEV with an empty active set, produce empty
/// detections, and never panic.
#[test]
fn empty_scene_flows_through_both_paths() {
    let ladder = ladder();
    let det = &ladder.level(0).detector;
    let empty = PointCloud::from_points(Vec::new());
    assert_eq!(empty.len(), 0);

    let (input, sites) = det.preprocess_sparse(&empty);
    let sites = sites.expect("sparse encoding present");
    assert!(sites.is_empty(), "no points → no active pillars");
    assert!(
        input.as_slice().iter().all(|v| v.to_bits() == 0),
        "empty scene must encode as the all-zero BEV"
    );
    // Dense call agrees bit-for-bit.
    let dense_input = det.preprocess(&empty);
    assert_eq!(dense_input.as_slice().len(), input.as_slice().len());
    for (a, b) in dense_input.as_slice().iter().zip(input.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let mut inputs = HashMap::new();
    inputs.insert(det.input_name().to_string(), input);
    let mut active = HashMap::new();
    active.insert(det.input_name().to_string(), sites);

    let mut dense_ws = Workspace::new();
    forward_into(det.model(), &inputs, &mut dense_ws).unwrap();
    let mut sparse_ws = Workspace::new();
    let stats = forward_sparse_into(
        det.model(),
        &inputs,
        &active,
        &mut sparse_ws,
        &SparseExecConfig::default(),
    )
    .unwrap();
    assert!(
        stats.sparse_layers() > 0,
        "an empty scene is the sparsest possible input"
    );
    let head = &dense_ws.activations()[&ladder.level(0).head];
    let sparse_head = &sparse_ws.activations()[&ladder.level(0).head];
    for (a, b) in head.as_slice().iter().zip(sparse_head.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // Decode runs cleanly on the empty-scene head output for both paths.
    let dets_dense = det.postprocess(head, &empty);
    let dets_sparse = det.postprocess(sparse_head, &empty);
    assert_eq!(dets_dense.len(), dets_sparse.len());
}

/// Empty-scene frames inside a full serving run complete without
/// panicking on both the dense and sparse configurations and detect
/// nothing. Saturate mode bypasses the admission firewall (which would
/// quarantine empty frames as defective), so the zero-point scene
/// actually reaches the numeric stages this test covers.
#[test]
fn empty_scene_serving_run_never_panics() {
    // The empty dataset really produces zero-point clouds.
    let probe = FrameStream::<PointCloud>::generate(&empty_dataset(), 7)
        .next()
        .unwrap();
    assert_eq!(probe.data.len(), 0, "empty scenario must have no points");
    for sparse in [None, Some(SparseExecConfig::default())] {
        let scenario = FleetScenario::single(empty_dataset(), 7, 2, &[0.033], 0.100);
        let outcome = serve(scenario, sparse, 1);
        assert_eq!(outcome.report.completed, 2);
        for (_, _, dets) in &outcome.detections {
            assert!(dets.is_empty(), "an empty scene must detect nothing");
        }
    }
}

/// The sparse run's report carries the per-layer telemetry the CI jobs
/// consume; the dense run's report omits the section entirely.
#[test]
fn report_carries_sparsity_section_only_when_enabled() {
    let scenario = |frames| FleetScenario::single(dataset(), 29, frames, &[0.033], 0.100);
    let outcome = serve(scenario(4), Some(SparseExecConfig::default()), 1);
    let sp = outcome
        .report
        .sparse_activation
        .as_ref()
        .expect("sparse run must report telemetry");
    assert_eq!(sp.frames_sparse + sp.frames_dense, 4);
    assert!(!sp.layers.is_empty());
    assert!(sp.mean_active_frac > 0.0);
    for layer in &sp.layers {
        assert_eq!(layer.frames, 4, "every layer executes on every frame");
    }

    let outcome = serve(scenario(2), None, 1);
    assert!(outcome.report.sparse_activation.is_none());
}
