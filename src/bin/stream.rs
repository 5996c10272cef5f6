//! Streaming-runtime benchmark: serves one sensor stream per run — a
//! fleet of one on the `upaq-serve` engine — through a nominal and an
//! overload scenario per detector and emits the JSON run reports.
//!
//! Each detector shares one degrade ladder (base / UPAQ LCK / UPAQ HCK
//! variants on the Jetson Orin Nano cost model) — PointPillars over LiDAR
//! sweeps, SMOKE over rendered camera frames. The nominal run paces the
//! stream so the deadline is comfortably met; the overload run stalls
//! every backbone invocation well past the deadline (a latency spike on
//! every frame), forcing the scheduler to degrade down the ladder and
//! shed load — visible in the drop/degrade counters of the second report.
//!
//! Run with `cargo run --release --bin stream -- [--detector lidar|camera|both]
//! [--frames N] [--batch K] [--threads N] [--policy reactive|proactive]
//! [--scenario NAME]`. `--threads N` sets the persistent worker pool's
//! claimant count for the convolution kernels (bit-identical output at any
//! value). `--batch K` lets a worker admit up to `K` queued frames as one
//! batched forward pass when the predicted batched latency still meets
//! the earliest deadline among them; `--batch 1` (the default) schedules
//! frame by frame. Under overload the injected stall is charged once per
//! *invocation*, so batching amortizes it and delivers measurably more
//! frames.
//!
//! `--policy proactive` layers detection-history rung steering over the
//! reactive scheduler: quiet scenes steer to cheaper rungs ahead of time,
//! with the VRU-safety and deadline-headroom overrides reported in the
//! JSON `overrides` counters. `--scenario NAME` replaces the
//! nominal+overload pair with one profile from the `upaq-kitti` scenario
//! catalog (traffic mix, arrival-gap cycle, deadline); in scenario mode
//! the detector head is least-squares fitted on the scenario's own
//! scenes first — the same scenes the stream serves — so the detection
//! feedback that drives the proactive policy is meaningful rather than
//! random-head noise.
//!
//! `--faults PLAN` overlays a deterministic fault plan from the
//! `upaq-kitti` fault catalog (NaN bursts, truncated frames, sensor
//! stalls, injected panics, latency spikes) on whichever scenario runs.
//! The supervision layer (input firewall, panic isolation, circuit
//! breaker) charges the affected frames to the `faulted` accounting
//! class; the run itself never aborts.
//!
//! Every report is a fleet report (`upaq_serve::FleetReport`) whose
//! `scenario` field names the run; the list lands in
//! `target/upaq-results/stream.json`.

use upaq_bench::harness::save_result;
use upaq_bench::table::print_table;
use upaq_hwmodel::DeviceProfile;
use upaq_json::ToJson;
use upaq_kitti::dataset::{Dataset, DatasetConfig};
use upaq_kitti::faults::{self, FaultPlan};
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::scenario;
use upaq_kitti::stream::SensorData;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::pretrain::{fit_camera_head, fit_lidar_head};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::StreamingDetector;
use upaq_runtime::{ProactiveConfig, VariantLadder};
use upaq_serve::{FleetConfig, FleetMode, FleetReport, FleetServer};

const SEED: u64 = 2025;

fn dataset_config(camera: Option<&SmokeConfig>) -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = 4;
    if let Some(smoke) = camera {
        cfg.camera = smoke.calib.clone();
    }
    cfg
}

/// One single-stream run: what the stream offers, and how it is served.
struct Run {
    label: String,
    frames: u64,
    /// Repeating arrival-gap cycle, seconds.
    gaps_s: Vec<f64>,
    deadline_s: f64,
    /// Invocation stall charged on every frame (0 = none).
    slow_backbone_s: f64,
    workers: usize,
    per_stream_queue: usize,
}

fn nominal(frames: u64, batch: usize) -> Run {
    Run {
        label: "nominal".into(),
        frames,
        // ~30 FPS: inside the measured service rate, so frames meet the
        // 100 ms deadline on the full model.
        gaps_s: vec![0.033],
        deadline_s: 0.100,
        slow_backbone_s: 0.0,
        workers: 2,
        per_stream_queue: 4.max(batch),
    }
}

fn overload(frames: u64, batch: usize) -> Run {
    Run {
        label: "overload".into(),
        frames: (frames * 2 / 3).max(1),
        // 50 FPS arrivals. The deadline is generous enough that batched
        // service can fit (a group waits roughly one invocation in the
        // queue), while per-frame service still sheds most arrivals.
        gaps_s: vec![0.020],
        deadline_s: 0.250,
        // Stall charged once per invocation: at `--batch 1` it caps
        // service near 12 FPS against 50 FPS arrivals, so the scheduler
        // degrades and sheds load; at `--batch 4` the stall amortizes 4×
        // and the same stream mostly completes.
        slow_backbone_s: 0.080,
        workers: 1,
        per_stream_queue: 2.max(batch),
    }
}

/// Serving knobs shared by every run of one invocation.
struct Serving {
    batch: usize,
    proactive: Option<ProactiveConfig>,
    faults: Option<FaultPlan>,
}

fn summarize(r: &FleetReport) -> Vec<String> {
    vec![
        r.detector.clone(),
        r.scenario.clone(),
        r.policy.clone(),
        format!("{}", r.admitted),
        format!("{}", r.completed),
        format!("{}", r.degraded),
        format!("{}", r.dropped_backpressure + r.dropped_deadline),
        format!("{}", r.failed),
        format!("{}", r.faulted),
        format!("{:.1}", r.delivered_fps),
        format!("{:.2}", r.mean_batch_size),
        format!("{:.2}", r.e2e_latency.p50_s * 1e3),
        format!("{:.2}", r.e2e_latency.p99_s * 1e3),
        format!("{:.3}", r.energy_per_frame_j),
        format!("{:.1}", r.energy_saved_vs_base_frac * 100.0),
    ]
}

fn print_ladder<D: StreamingDetector>(ladder: &VariantLadder<D>) {
    print_table(
        &[
            "Level",
            "Variant",
            "Modeled latency (ms)",
            "Modeled energy (J)",
            "Es",
        ],
        &ladder
            .levels()
            .iter()
            .enumerate()
            .map(|(i, v)| {
                vec![
                    format!("{i}"),
                    v.name.clone(),
                    format!("{:.3}", v.estimate.latency_s * 1e3),
                    format!("{:.4}", v.estimate.energy_j),
                    format!("{:.3}", v.efficiency_score),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Serves `run` as a one-stream realtime fleet over the stream
/// `FrameStream::generate(data_cfg, SEED)`.
fn run_one<D: StreamingDetector>(
    ladder: VariantLadder<D>,
    data_cfg: &DatasetConfig,
    run: Run,
    serving: &Serving,
    reports: &mut Vec<FleetReport>,
) where
    D::Input: SensorData,
{
    let modality = ladder.level(0).detector.modality();
    println!(
        "Running `{modality}/{}` ({} frames, max batch {}, policy {})…",
        run.label,
        run.frames,
        serving.batch,
        if serving.proactive.is_some() {
            "proactive"
        } else {
            "reactive"
        },
    );
    let faults = match (serving.faults.clone(), run.slow_backbone_s > 0.0) {
        (plan, false) => plan,
        (None, true) => Some(FaultPlan::slow_backbone(run.slow_backbone_s)),
        (Some(mut plan), true) => {
            plan.rules
                .extend(FaultPlan::slow_backbone(run.slow_backbone_s).rules);
            Some(plan)
        }
    };
    let scenario = FleetScenario::single(
        data_cfg.clone(),
        SEED,
        run.frames,
        &run.gaps_s,
        run.deadline_s,
    );
    let server = FleetServer::new(
        ladder,
        scenario,
        FleetConfig {
            workers: run.workers,
            max_batch: serving.batch,
            per_stream_queue: run.per_stream_queue,
            mode: FleetMode::Realtime,
            proactive: serving.proactive.clone(),
            faults,
            ..FleetConfig::default()
        },
    );
    let mut report = server.run().report;
    report.scenario = run.label;
    if let Some(ov) = &report.overrides {
        println!(
            "  overrides: vru_floor {} deadline_clamp {} headroom_fallback {} vru_unfit {}",
            ov.vru_floor, ov.deadline_clamp, ov.headroom_fallback, ov.vru_unfit
        );
    }
    reports.push(report);
}

fn run_scenarios<D: StreamingDetector>(
    ladder: VariantLadder<D>,
    data_cfg: &DatasetConfig,
    frames: u64,
    serving: &Serving,
    reports: &mut Vec<FleetReport>,
) where
    D::Input: SensorData,
{
    let modality = ladder.level(0).detector.modality();
    println!("\nDegrade ladder for `{modality}` (Jetson Orin Nano cost model):");
    print_ladder(&ladder);
    for run in [
        nominal(frames, serving.batch),
        overload(frames, serving.batch),
    ] {
        run_one(ladder.clone(), data_cfg, run, serving, reports);
    }
}

struct Args {
    detector: String,
    frames: u64,
    batch: usize,
    threads: usize,
    scenario: Option<String>,
    faults: Option<String>,
    proactive: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        detector: "both".to_string(),
        frames: 60,
        batch: 1,
        threads: 1,
        scenario: None,
        faults: None,
        proactive: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--detector" => {
                parsed.detector = args
                    .next()
                    .ok_or_else(|| "--detector needs a value".to_string())?;
                if !matches!(parsed.detector.as_str(), "lidar" | "camera" | "both") {
                    return Err(format!(
                        "unknown detector `{}` (expected lidar|camera|both)",
                        parsed.detector
                    ));
                }
            }
            "--frames" => {
                parsed.frames = args
                    .next()
                    .ok_or_else(|| "--frames needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --frames value: {e}"))?;
                if parsed.frames == 0 {
                    return Err("--frames must be positive".into());
                }
            }
            "--batch" => {
                parsed.batch = args
                    .next()
                    .ok_or_else(|| "--batch needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --batch value: {e}"))?;
                if parsed.batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            "--threads" => {
                parsed.threads = args
                    .next()
                    .ok_or_else(|| "--threads needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --threads value: {e}"))?;
                if parsed.threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--scenario" => {
                let name = args
                    .next()
                    .ok_or_else(|| "--scenario needs a value".to_string())?;
                if scenario::by_name(&name).is_none() {
                    return Err(format!(
                        "unknown scenario `{name}` (catalog: {})",
                        scenario::names().join(", ")
                    ));
                }
                parsed.scenario = Some(name);
            }
            "--faults" => {
                let name = args
                    .next()
                    .ok_or_else(|| "--faults needs a value".to_string())?;
                if faults::by_name(&name).is_none() {
                    return Err(format!(
                        "unknown fault plan `{name}` (catalog: {})",
                        faults::names().join(", ")
                    ));
                }
                parsed.faults = Some(name);
            }
            "--policy" => {
                let policy = args
                    .next()
                    .ok_or_else(|| "--policy needs a value".to_string())?;
                parsed.proactive = match policy.as_str() {
                    "reactive" => false,
                    "proactive" => true,
                    other => {
                        return Err(format!(
                            "unknown policy `{other}` (expected reactive|proactive)"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nusage: stream [--detector lidar|camera|both] [--frames N] [--batch K] \
             [--threads N] [--policy reactive|proactive] [--scenario NAME] [--faults PLAN]"
        )
    })?;
    // Kernel-level parallelism: the persistent worker pool splits each
    // convolution's output channels across `threads` claimants. Results
    // are bit-identical at any thread count.
    upaq_tensor::ops::TensorParallel::set_threads(args.threads);
    println!("Streaming runtime: deadline-aware scheduling over the UPAQ degrade ladder");

    let device = DeviceProfile::jetson_orin_nano();
    let proactive = args.proactive.then(ProactiveConfig::default);
    let fault_plan = args
        .faults
        .as_deref()
        .and_then(faults::by_name)
        .filter(|p| !p.is_clean());
    if let Some(plan) = &fault_plan {
        println!(
            "Fault plan `{}`: {} (seed {:#x})",
            plan.name, plan.description, plan.seed
        );
    }
    let serving = Serving {
        batch: args.batch,
        proactive,
        faults: fault_plan,
    };
    let mut reports = Vec::new();

    if let Some(name) = &args.scenario {
        let profile = scenario::by_name(name).expect("validated by parse_args");
        println!(
            "Scenario `{}`: {} (deadline {:.0} ms)",
            profile.name,
            profile.description,
            profile.deadline_s * 1e3
        );
        let run = || Run {
            label: profile.name.into(),
            frames: args.frames,
            gaps_s: profile.arrival.cycle(),
            deadline_s: profile.deadline_s,
            slow_backbone_s: 0.0,
            workers: 2,
            per_stream_queue: 4.max(args.batch),
        };
        if args.detector == "lidar" || args.detector == "both" {
            // Fit the head on the scenario's own scenes: the proactive
            // policy steers on detection feedback, which an unfitted
            // random head would reduce to noise.
            let mut det = PointPillars::build(&PointPillarsConfig::tiny())?;
            let data = Dataset::generate(&profile.dataset, SEED);
            let scenes: Vec<usize> = (0..data.len()).collect();
            fit_lidar_head(&mut det, &data, &scenes, 1e-3)?;
            let mut ladder = VariantLadder::build(det, &device, SEED)?;
            // Refit the degraded rungs' heads on their own compressed
            // backbones — a base-fit head decoding compressed features
            // emits false-positive spray instead of graded recall.
            ladder.calibrate_heads(&data, 1e-3)?;
            run_one(ladder, &profile.dataset, run(), &serving, &mut reports);
        }
        if args.detector == "camera" || args.detector == "both" {
            let smoke_cfg = SmokeConfig::tiny();
            let mut data_cfg = profile.dataset.clone();
            data_cfg.camera = smoke_cfg.calib.clone();
            let mut det = Smoke::build(&smoke_cfg)?;
            let data = Dataset::generate(&data_cfg, SEED);
            let scenes: Vec<usize> = (0..data.len()).collect();
            fit_camera_head(&mut det, &data, &scenes, 1e-3)?;
            let mut ladder = VariantLadder::build(det, &device, SEED)?;
            ladder.calibrate_heads(&data, 1e-3)?;
            run_one(ladder, &data_cfg, run(), &serving, &mut reports);
        }
    } else {
        if args.detector == "lidar" || args.detector == "both" {
            // The tiny detectors keep a full streaming run in benchmark
            // territory (the paper-sized backbones are exercised by the
            // Table-2 harness).
            let det = PointPillars::build(&PointPillarsConfig::tiny())?;
            let ladder = VariantLadder::build(det, &device, SEED)?;
            run_scenarios(
                ladder,
                &dataset_config(None),
                args.frames,
                &serving,
                &mut reports,
            );
        }
        if args.detector == "camera" || args.detector == "both" {
            let smoke_cfg = SmokeConfig::tiny();
            let det = Smoke::build(&smoke_cfg)?;
            let ladder = VariantLadder::build(det, &device, SEED)?;
            run_scenarios(
                ladder,
                &dataset_config(Some(&smoke_cfg)),
                args.frames,
                &serving,
                &mut reports,
            );
        }
    }

    println!("\nScenario summary:");
    print_table(
        &[
            "Detector",
            "Scenario",
            "Policy",
            "Admitted",
            "Completed",
            "Degraded",
            "Dropped",
            "Failed",
            "Faulted",
            "FPS",
            "Avg batch",
            "p50 (ms)",
            "p99 (ms)",
            "E/frame (J)",
            "Saved (%)",
        ],
        &reports.iter().map(summarize).collect::<Vec<_>>(),
    );

    println!("\nFull report (stream.json):");
    println!("{}", reports.to_json().pretty());
    save_result("stream", &reports).map_err(|e| e.to_string())?;
    println!("\nSaved to target/upaq-results/stream.json");
    Ok(())
}
