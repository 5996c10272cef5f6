//! Reproducible streaming-performance baseline: kernel micro-latency and
//! end-to-end throughput for both detectors, written to
//! `BENCH_streaming.json` so perf regressions show up as diffs.
//!
//! Four measurement tiers:
//!
//! 1. **Kernel**: one representative pruned convolution through
//!    `conv2d_into`, with the weights packed on every call and packed
//!    once, at 1/2/4 threads.
//! 2. **Single stream**: frames/sec of one backbone stream, comparing the
//!    unpacked model through the allocating `forward` (weights packed and
//!    activations allocated on every frame) against the packed model
//!    through `forward_into` with a reused workspace.
//! 3. **End-to-end**: lossless one-stream fleet (`upaq-serve`, Saturate
//!    mode) frames/sec per detector across `threads × batch`.
//! 4. **Per-stage breakdown**: mean latency of each serving stage —
//!    pillarize (preprocess), backbone, decode, NMS (refine + dedupe for
//!    LiDAR; candidate suppression for SMOKE) — on the steady-state packed
//!    level-0 detector, after asserting the composed stages reproduce
//!    `postprocess` bit for bit.
//!
//! Every configuration is also checked for bit-identical detections
//! against a serial single-frame reference before any timing is trusted.
//!
//! Run with `cargo run --release --bin bench_streaming -- [--frames N]
//! [--iters N] [--quick] [--out PATH]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;
use upaq_det3d::{
    decode, decode_camera, decode_camera_candidates, nms, nms_top_k, refine_all, Box3d,
};
use upaq_hwmodel::DeviceProfile;
use upaq_json::{json, Value};
use upaq_kitti::camera::CameraImage;
use upaq_kitti::dataset::{Dataset, DatasetConfig};
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::lidar::PointCloud;
use upaq_kitti::stream::SensorData;
use upaq_models::detector::{CameraDetector, LidarDetector};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::StreamingDetector;
use upaq_nn::exec::{forward_into, Workspace};
use upaq_nn::Model;
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetServer};
use upaq_tensor::ops::{conv2d_into, Conv2dParams, TensorParallel};
use upaq_tensor::packed::PackedConv;
use upaq_tensor::{Shape, Tensor};

const SEED: u64 = 2025;
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH_SIZES: [usize; 2] = [1, 4];
/// Untimed frames before each single-stream measurement (cache warm-up).
const WARMUP_FRAMES: usize = 5;

type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// How much work each tier performs.
struct Budget {
    kernel_iters: usize,
    stream_frames: usize,
    e2e_frames: u64,
}

fn parse_args() -> Result<(Budget, String), String> {
    let mut budget = Budget {
        kernel_iters: 200,
        stream_frames: 60,
        e2e_frames: 40,
    };
    let mut out = "BENCH_streaming.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--frames" => {
                budget.e2e_frames = args
                    .next()
                    .ok_or_else(|| "--frames needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --frames value: {e}"))?;
                if budget.e2e_frames == 0 {
                    return Err("--frames must be positive".into());
                }
            }
            "--iters" => {
                budget.kernel_iters = args
                    .next()
                    .ok_or_else(|| "--iters needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --iters value: {e}"))?;
                if budget.kernel_iters == 0 {
                    return Err("--iters must be positive".into());
                }
            }
            "--quick" => {
                budget = Budget {
                    kernel_iters: 20,
                    stream_frames: 10,
                    e2e_frames: 8,
                };
            }
            "--out" => {
                out = args
                    .next()
                    .ok_or_else(|| "--out needs a value".to_string())?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((budget, out))
}

fn dataset_config(camera: Option<&SmokeConfig>) -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 4;
    if let Some(smoke) = camera {
        cfg.camera = smoke.calib.clone();
    }
    cfg
}

/// Tier 1: one pruned 16→32-channel 3×3 convolution over a 32×32 frame,
/// the shape class the tiny backbones are made of.
fn kernel_bench(iters: usize) -> BenchResult<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let input = Tensor::uniform(Shape::nchw(1, 16, 32, 32), -1.0, 1.0, &mut rng);
    let mut weights = Tensor::uniform(Shape::nchw(32, 16, 3, 3), -0.5, 0.5, &mut rng);
    // Prune two thirds of the taps so the zero-skipping paths matter, the
    // sparsity regime UPAQ's LCK configuration lands in.
    for (i, v) in weights.as_mut_slice().iter_mut().enumerate() {
        if i % 3 != 0 {
            *v = 0.0;
        }
    }
    let bias = Tensor::zeros(Shape::vector(32));
    let params = Conv2dParams {
        stride: 1,
        padding: 1,
    };
    let packed = PackedConv::pack(&weights)?;
    let mut out = Tensor::zeros(Shape::nchw(1, 32, 32, 32));
    let mut reference: Option<Vec<f32>> = None;
    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        TensorParallel::set_threads(threads);
        for (variant, pack_per_call) in [("pool_unpacked", true), ("pool_packed", false)] {
            let run = |out: &mut Tensor| -> BenchResult<()> {
                if pack_per_call {
                    let packed = PackedConv::pack(&weights)?;
                    conv2d_into(&input, &packed, Some(&bias), params, out)?;
                } else {
                    conv2d_into(&input, &packed, Some(&bias), params, out)?;
                }
                Ok(())
            };
            for _ in 0..(iters / 10).max(2) {
                run(&mut out)?;
            }
            let start = Instant::now();
            for _ in 0..iters {
                run(&mut out)?;
            }
            let micros = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
            match &reference {
                None => reference = Some(out.as_slice().to_vec()),
                Some(r) => {
                    if r.as_slice() != out.as_slice() {
                        return Err(format!(
                            "kernel output diverged at threads={threads} variant={variant}"
                        )
                        .into());
                    }
                }
            }
            rows.push(json!({
                "threads": threads,
                "variant": variant,
                "micros_per_call": micros,
            }));
        }
    }
    TensorParallel::set_threads(1);
    Ok(rows)
}

/// Frames/sec of one stream through `forward_into` with a persistent
/// workspace, cycling over the preprocessed frames.
fn forward_fps(model: &Model, input_name: &str, tensors: &[Tensor], frames: usize) -> f64 {
    let mut ws = Workspace::new();
    let mut inputs = HashMap::new();
    inputs.insert(input_name.to_string(), tensors[0].clone());
    for _ in 0..WARMUP_FRAMES {
        forward_into(model, &inputs, &mut ws).expect("bench forward");
    }
    let start = Instant::now();
    for i in 0..frames {
        let src = &tensors[i % tensors.len()];
        inputs
            .get_mut(input_name)
            .expect("input slot")
            .as_mut_slice()
            .copy_from_slice(src.as_slice());
        forward_into(model, &inputs, &mut ws).expect("bench forward");
    }
    frames as f64 / start.elapsed().as_secs_f64()
}

/// Frames/sec with neither steady-state lever: the allocating `forward`
/// takes a fresh workspace per frame, and an unpacked model packs its conv
/// weights on every call.
fn baseline_fps(model: &Model, input_name: &str, tensors: &[Tensor], frames: usize) -> f64 {
    let mut inputs = HashMap::new();
    inputs.insert(input_name.to_string(), tensors[0].clone());
    for _ in 0..WARMUP_FRAMES {
        upaq_nn::exec::forward(model, &inputs).expect("bench forward");
    }
    let start = Instant::now();
    for i in 0..frames {
        let src = &tensors[i % tensors.len()];
        inputs
            .get_mut(input_name)
            .expect("input slot")
            .as_mut_slice()
            .copy_from_slice(src.as_slice());
        upaq_nn::exec::forward(model, &inputs).expect("bench forward");
    }
    frames as f64 / start.elapsed().as_secs_f64()
}

/// Tiers 2 and 3 plus the bit-identity gate for one detector. Returns the
/// `--threads 4` single-stream speedup of packing plus workspace reuse.
fn bench_detector<D>(
    label: &str,
    base: &D,
    data_cfg: &DatasetConfig,
    budget: &Budget,
    single_rows: &mut Vec<Value>,
    e2e_rows: &mut Vec<Value>,
    identity_checks: &mut usize,
) -> BenchResult<f64>
where
    D: StreamingDetector,
    D::Input: SensorData,
{
    let device = DeviceProfile::jetson_orin_nano();
    let ladder = VariantLadder::build(base.clone(), &device, SEED)?;
    let packed_det = &ladder.level(0).detector;

    let dataset = Dataset::generate(data_cfg, SEED);
    let frames: Vec<D::Input> = (0..dataset.scenes().len().min(4))
        .map(|i| D::Input::sample(&dataset, i))
        .collect();
    let tensors: Vec<Tensor> = frames.iter().map(|f| base.preprocess(f)).collect();
    let input_name = base.input_name();

    // --- Bit-identity gate: serial single-frame detections are the
    // reference; every (threads, packing, batch) combination must
    // reproduce them exactly.
    TensorParallel::set_threads(1);
    let reference: Vec<Vec<Box3d>> = frames
        .iter()
        .map(|f| base.detect(f))
        .collect::<Result<_, _>>()?;
    for &threads in &THREAD_COUNTS {
        TensorParallel::set_threads(threads);
        for (det_label, boxes) in [
            (
                "unpacked",
                frames
                    .iter()
                    .map(|f| base.detect(f))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            (
                "packed",
                frames
                    .iter()
                    .map(|f| packed_det.detect(f))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            ("batched", packed_det.detect_batch(&frames)?),
        ] {
            if boxes != reference {
                return Err(format!(
                    "{label}: detections diverged from the serial reference at \
                     threads={threads} path={det_label}"
                )
                .into());
            }
            *identity_checks += 1;
        }
    }

    // --- Single-stream throughput: the baseline is the unpacked model
    // through the allocating `forward` (per-call packing, fresh
    // activations every frame); "new" is the packed model with a reused
    // workspace, both on the persistent pool.
    let mut speedup_at_4 = 0.0;
    for &threads in &THREAD_COUNTS {
        TensorParallel::set_threads(threads);
        let baseline_fps = baseline_fps(base.model(), input_name, &tensors, budget.stream_frames);
        let new_fps = forward_fps(
            packed_det.model(),
            input_name,
            &tensors,
            budget.stream_frames,
        );
        let speedup = new_fps / baseline_fps;
        if threads == 4 {
            speedup_at_4 = speedup;
        }
        println!(
            "  [{label}] single-stream t{threads}: baseline {baseline_fps:.1} fps, \
             packed+workspace {new_fps:.1} fps ({speedup:.2}×)"
        );
        single_rows.push(json!({
            "detector": label,
            "threads": threads,
            "baseline_fps": baseline_fps,
            "fps": new_fps,
            "speedup": speedup,
        }));
    }

    // --- End-to-end throughput of one stream served losslessly (Saturate
    // mode: no pacing, no scheduler, level-0 model — pure compute
    // throughput) by a two-worker fleet.
    let scenario =
        FleetScenario::single(data_cfg.clone(), SEED, budget.e2e_frames, &[0.033], 0.100);
    for &threads in &THREAD_COUNTS {
        TensorParallel::set_threads(threads);
        for &batch in &BATCH_SIZES {
            let server = FleetServer::new(
                ladder.clone(),
                scenario.clone(),
                FleetConfig {
                    workers: 2,
                    max_batch: batch,
                    mode: FleetMode::Saturate,
                    ..FleetConfig::default()
                },
            );
            let report = server.run().report;
            println!(
                "  [{label}] e2e t{threads} b{batch}: {:.1} fps ({}/{} frames)",
                report.delivered_fps, report.completed, report.admitted
            );
            e2e_rows.push(json!({
                "detector": label,
                "threads": threads,
                "batch": batch,
                "fps": report.delivered_fps,
                "completed": report.completed,
                "generated": report.admitted,
            }));
        }
    }
    TensorParallel::set_threads(1);
    Ok(speedup_at_4)
}

/// Times one stage closure over `iters` passes and returns mean ms/call.
fn time_stage_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches before timing
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

fn stage_row(detector: &str, stage: &str, mean_ms: f64, iters: usize) -> Value {
    println!("  [{detector}] stage {stage}: {mean_ms:.3} ms");
    json!({
        "detector": detector,
        "stage": stage,
        "mean_ms": mean_ms,
        "iters": iters,
    })
}

/// Per-stage latency breakdown of the LiDAR path on the steady-state
/// (pool + packed) detector: pillarize → backbone → decode → refine+NMS.
/// The composed stages are asserted bit-identical to `postprocess` before
/// any number is trusted.
fn lidar_stage_breakdown(
    det: &LidarDetector,
    clouds: &[PointCloud],
    iters: usize,
) -> BenchResult<Vec<Value>> {
    let tensors: Vec<Tensor> = clouds.iter().map(|c| det.preprocess(c)).collect();
    let heads: Vec<Tensor> = clouds
        .iter()
        .map(|c| det.head_output(c))
        .collect::<Result<_, _>>()?;
    let proposals: Vec<Vec<Box3d>> = heads.iter().map(|h| decode(h, &det.head_spec)).collect();
    for ((head, cloud), props) in heads.iter().zip(clouds).zip(&proposals) {
        let composed = match &det.refine {
            Some(cfg) => nms(refine_all(props, cloud, cfg), det.head_spec.nms_iou),
            None => props.clone(),
        };
        if composed != det.postprocess(head, cloud) {
            return Err("lidar stage composition diverged from postprocess".into());
        }
    }

    let mut ws = Workspace::new();
    let mut inputs = HashMap::new();
    inputs.insert(det.input_name.clone(), tensors[0].clone());
    let mut rows = Vec::new();
    let mut i = 0;
    rows.push(stage_row(
        "lidar",
        "pillarize",
        time_stage_ms(iters, || {
            std::hint::black_box(det.preprocess(&clouds[i % clouds.len()]));
            i += 1;
        }),
        iters,
    ));
    let mut i = 0;
    rows.push(stage_row(
        "lidar",
        "backbone",
        time_stage_ms(iters, || {
            let src = &tensors[i % tensors.len()];
            inputs
                .get_mut(&det.input_name)
                .expect("input slot")
                .as_mut_slice()
                .copy_from_slice(src.as_slice());
            forward_into(&det.model, &inputs, &mut ws).expect("stage forward");
            i += 1;
        }),
        iters,
    ));
    let mut i = 0;
    rows.push(stage_row(
        "lidar",
        "decode",
        time_stage_ms(iters, || {
            std::hint::black_box(decode(&heads[i % heads.len()], &det.head_spec));
            i += 1;
        }),
        iters,
    ));
    let mut i = 0;
    rows.push(stage_row(
        "lidar",
        "nms",
        time_stage_ms(iters, || {
            let k = i % clouds.len();
            if let Some(cfg) = &det.refine {
                let refined = refine_all(&proposals[k], &clouds[k], cfg);
                std::hint::black_box(nms(refined, det.head_spec.nms_iou));
            }
            i += 1;
        }),
        iters,
    ));
    Ok(rows)
}

/// Per-stage latency breakdown of the camera path: preprocess (the NCHW
/// copy) → backbone → decode (the candidate scan + keypoint lifting) →
/// NMS over the lifted candidates. The decode/NMS split mirrors the
/// lidar breakdown, so the camera NMS row now reports real iterations
/// instead of the structurally-zero placeholder it used to.
fn camera_stage_breakdown(
    det: &CameraDetector,
    images: &[CameraImage],
    iters: usize,
) -> BenchResult<Vec<Value>> {
    let tensors: Vec<Tensor> = images.iter().map(|im| det.preprocess(im)).collect();
    let heads: Vec<Tensor> = images
        .iter()
        .map(|im| det.head_output(im))
        .collect::<Result<_, _>>()?;
    let spec = &det.head_spec;
    let candidates: Vec<Vec<Box3d>> = heads
        .iter()
        .map(|h| decode_camera_candidates(h, spec))
        .collect();
    for ((head, image), cands) in heads.iter().zip(images).zip(&candidates) {
        let composed = nms_top_k(cands.clone(), spec.nms_iou, spec.max_detections);
        if composed != det.postprocess(head, image) || composed != decode_camera(head, spec) {
            return Err("camera stage composition diverged from postprocess".into());
        }
    }

    let mut ws = Workspace::new();
    let mut inputs = HashMap::new();
    inputs.insert(det.input_name.clone(), tensors[0].clone());
    let mut rows = Vec::new();
    let mut i = 0;
    rows.push(stage_row(
        "camera",
        "pillarize",
        time_stage_ms(iters, || {
            std::hint::black_box(det.preprocess(&images[i % images.len()]));
            i += 1;
        }),
        iters,
    ));
    let mut i = 0;
    rows.push(stage_row(
        "camera",
        "backbone",
        time_stage_ms(iters, || {
            let src = &tensors[i % tensors.len()];
            inputs
                .get_mut(&det.input_name)
                .expect("input slot")
                .as_mut_slice()
                .copy_from_slice(src.as_slice());
            forward_into(&det.model, &inputs, &mut ws).expect("stage forward");
            i += 1;
        }),
        iters,
    ));
    let mut i = 0;
    rows.push(stage_row(
        "camera",
        "decode",
        time_stage_ms(iters, || {
            std::hint::black_box(decode_camera_candidates(
                &heads[i % heads.len()],
                &det.head_spec,
            ));
            i += 1;
        }),
        iters,
    ));
    let mut i = 0;
    rows.push(stage_row(
        "camera",
        "nms",
        time_stage_ms(iters, || {
            let cands = candidates[i % candidates.len()].clone();
            std::hint::black_box(nms_top_k(cands, spec.nms_iou, spec.max_detections));
            i += 1;
        }),
        iters,
    ));
    Ok(rows)
}

fn main() -> BenchResult<()> {
    let (budget, out_path) = parse_args().map_err(|e| {
        format!("{e}\nusage: bench_streaming [--frames N] [--iters N] [--quick] [--out PATH]")
    })?;
    println!("Streaming perf baseline (kernel / single-stream / end-to-end)");

    println!("Kernel micro-latency ({} iters)…", budget.kernel_iters);
    let kernel_rows = kernel_bench(budget.kernel_iters)?;

    let mut single_rows = Vec::new();
    let mut e2e_rows = Vec::new();
    let mut identity_checks = 0usize;

    println!("PointPillars / LiDAR…");
    let lidar = PointPillars::build(&PointPillarsConfig::tiny())?;
    let lidar_speedup = bench_detector(
        "lidar",
        &lidar,
        &dataset_config(None),
        &budget,
        &mut single_rows,
        &mut e2e_rows,
        &mut identity_checks,
    )?;

    println!("SMOKE / camera…");
    let smoke_cfg = SmokeConfig::tiny();
    let camera = Smoke::build(&smoke_cfg)?;
    let camera_speedup = bench_detector(
        "camera",
        &camera,
        &dataset_config(Some(&smoke_cfg)),
        &budget,
        &mut single_rows,
        &mut e2e_rows,
        &mut identity_checks,
    )?;

    println!("Per-stage latency breakdown (pillarize / backbone / decode / NMS)…");
    let device = DeviceProfile::jetson_orin_nano();
    let mut stage_rows = {
        let ladder = VariantLadder::build(lidar.clone(), &device, SEED)?;
        let dataset = Dataset::generate(&dataset_config(None), SEED);
        let clouds: Vec<PointCloud> = (0..dataset.scenes().len().min(4))
            .map(|i| <PointCloud as SensorData>::sample(&dataset, i))
            .collect();
        lidar_stage_breakdown(&ladder.level(0).detector, &clouds, budget.stream_frames)?
    };
    stage_rows.extend({
        let ladder = VariantLadder::build(camera.clone(), &device, SEED)?;
        let dataset = Dataset::generate(&dataset_config(Some(&smoke_cfg)), SEED);
        let images: Vec<CameraImage> = (0..dataset.scenes().len().min(4))
            .map(|i| <CameraImage as SensorData>::sample(&dataset, i))
            .collect();
        camera_stage_breakdown(&ladder.level(0).detector, &images, budget.stream_frames)?
    });

    let report = json!({
        "schema": "upaq-bench-streaming/v1",
        "budget": json!({
            "kernel_iters": budget.kernel_iters,
            "stream_frames": budget.stream_frames,
            "e2e_frames": budget.e2e_frames,
        }),
        "kernel": Value::Arr(kernel_rows),
        "single_stream": Value::Arr(single_rows),
        "e2e": Value::Arr(e2e_rows),
        "stage_breakdown": Value::Arr(stage_rows),
        "bit_identity": json!({
            "checked_configs": identity_checks,
            "identical": true,
        }),
        "acceptance": json!({
            "threads4_speedup_lidar": lidar_speedup,
            "threads4_speedup_camera": camera_speedup,
        }),
    });
    std::fs::write(&out_path, report.pretty())?;
    println!(
        "\nSpeedup at --threads 4: lidar {lidar_speedup:.2}×, camera {camera_speedup:.2}× \
         ({identity_checks} bit-identity configs verified)"
    );
    println!("Saved to {out_path}");
    Ok(())
}
