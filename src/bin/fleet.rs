//! Fleet-serving benchmark: multiplex hundreds of sensor streams over one
//! shared worker pool with cross-stream batching, and compare against the
//! same streams served by independent one-stream fleets.
//!
//! Three modes:
//!
//! * `--mode compare` (default) — runs the saturate-mode fleet (shared
//!   pool, cross-stream batches up to `--max-batch`) and the independent
//!   baseline (one dedicated one-stream fleet per stream, all running
//!   concurrently, each with its own admission thread, worker, queue and
//!   workspaces) over the same streams, and reports both aggregate
//!   throughput numbers. The delta is the consolidation win: a handful of
//!   shared workers with cross-stream batching replaces hundreds of
//!   dedicated servers, while every frame's detections stay bit-identical
//!   to per-frame `detect` (asserted by `crates/serve/tests/fleet.rs`).
//! * `--mode realtime` — replays every stream's arrival schedule against
//!   the wall clock with per-stream deadlines; the report shows per-tenant
//!   accounting (admitted = completed + degraded + dropped + failed for
//!   every stream), starvation boosts, and Jain fairness.
//! * `--mode saturate` — just the batched fleet arm, lossless.
//!
//! Run with `cargo run --release --bin fleet -- [--streams N] [--frames K]
//! [--workers W] [--max-batch B] [--detector lidar|camera]
//! [--mode compare|realtime|saturate] [--policy reactive|proactive]
//! [--scenario NAME] [--threads N]`.
//! `--scenario` draws the fleet's traffic mix, per-stream deadline and
//! arrival rate from the named [`upaq_kitti::scenario`] catalog profile;
//! `--policy proactive` layers detection-history rung steering (with VRU
//! and deadline-headroom safety overrides) over realtime admission.
//! `--sparse-act` runs the LiDAR backbone on the gather/scatter
//! sparse-activation path (bit-identical to dense by construction; the
//! report gains a `sparse_activation` per-layer telemetry section).
//! `--faults PLAN` (realtime mode) poisons stream 0 with the named
//! deterministic fault plan from the `upaq-kitti` catalog; the admission
//! firewall and per-stream circuit breaker quarantine the poison while
//! the healthy tenants keep their service (see the `faulted`/
//! `quarantined` counts and per-stream `breaker` sections of the report).
//! The JSON report lands in `target/upaq-results/fleet.json`.

use upaq_bench::harness::save_result;
use upaq_bench::serving::independent_fleets;
use upaq_bench::table::print_table;
use upaq_hwmodel::DeviceProfile;
use upaq_json::{json, ToJson, Value};
use upaq_kitti::dataset::Dataset;
use upaq_kitti::faults;
use upaq_kitti::fleet::{FleetScenario, FleetScenarioConfig, StreamClass};
use upaq_kitti::scenario;
use upaq_kitti::stream::SensorData;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::pretrain::{fit_camera_head, fit_lidar_head};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::StreamingDetector;
use upaq_runtime::{ProactiveConfig, SparseExecConfig, VariantLadder};
use upaq_serve::{FleetConfig, FleetMode, FleetReport, FleetServer};

const SEED: u64 = 2025;

struct Args {
    streams: usize,
    frames: u64,
    workers: usize,
    max_batch: usize,
    detector: String,
    mode: String,
    policy: String,
    scenario: Option<String>,
    faults: Option<String>,
    threads: usize,
    sparse_act: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        streams: 128,
        frames: 4,
        workers: 2,
        max_batch: 4,
        detector: "lidar".into(),
        mode: "compare".into(),
        policy: "reactive".into(),
        scenario: None,
        faults: None,
        threads: 1,
        sparse_act: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut positive = |flag: &str| -> Result<usize, String> {
            let v: usize = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse()
                .map_err(|e| format!("bad {flag} value: {e}"))?;
            if v == 0 {
                return Err(format!("{flag} must be positive"));
            }
            Ok(v)
        };
        match arg.as_str() {
            "--streams" => parsed.streams = positive("--streams")?,
            "--frames" => parsed.frames = positive("--frames")? as u64,
            "--workers" => parsed.workers = positive("--workers")?,
            "--max-batch" => parsed.max_batch = positive("--max-batch")?,
            "--threads" => parsed.threads = positive("--threads")?,
            "--sparse-act" => parsed.sparse_act = true,
            "--detector" => {
                parsed.detector = args
                    .next()
                    .ok_or_else(|| "--detector needs a value".to_string())?;
                if !matches!(parsed.detector.as_str(), "lidar" | "camera") {
                    return Err(format!(
                        "unknown detector `{}` (expected lidar|camera)",
                        parsed.detector
                    ));
                }
            }
            "--mode" => {
                parsed.mode = args
                    .next()
                    .ok_or_else(|| "--mode needs a value".to_string())?;
                if !matches!(parsed.mode.as_str(), "compare" | "realtime" | "saturate") {
                    return Err(format!(
                        "unknown mode `{}` (expected compare|realtime|saturate)",
                        parsed.mode
                    ));
                }
            }
            "--policy" => {
                parsed.policy = args
                    .next()
                    .ok_or_else(|| "--policy needs a value".to_string())?;
                if !matches!(parsed.policy.as_str(), "reactive" | "proactive") {
                    return Err(format!(
                        "unknown policy `{}` (expected reactive|proactive)",
                        parsed.policy
                    ));
                }
            }
            "--scenario" => {
                let name = args
                    .next()
                    .ok_or_else(|| "--scenario needs a value".to_string())?;
                if scenario::by_name(&name).is_none() {
                    return Err(format!(
                        "unknown scenario `{name}` (expected one of: {})",
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
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn summarize(
    label: &str,
    delivered: u64,
    duration_s: f64,
    report: Option<&FleetReport>,
) -> Vec<String> {
    let fps = if duration_s > 0.0 {
        delivered as f64 / duration_s
    } else {
        0.0
    };
    vec![
        label.to_string(),
        format!("{delivered}"),
        format!("{duration_s:.3}"),
        format!("{fps:.1}"),
        report.map_or("-".into(), |r| format!("{:.2}", r.mean_batch_size)),
        report.map_or("-".into(), |r| format!("{}", r.cross_stream_batches)),
        report.map_or("-".into(), |r| format!("{:.2}", r.amortized_backbone_ms)),
        report.map_or("-".into(), |r| format!("{:.3}", r.fairness_jain)),
    ]
}

fn run_fleet<D: StreamingDetector>(args: &Args, ladder: VariantLadder<D>, scenario: FleetScenario)
where
    D::Input: SensorData,
{
    let mut doc: Vec<(String, Value)> = vec![(
        "config".into(),
        json!({
            "streams": args.streams,
            "frames_per_stream": args.frames,
            "workers": args.workers,
            "max_batch": args.max_batch,
            "detector": args.detector,
            "mode": args.mode,
            "policy": args.policy,
            "scenario": args.scenario,
            "faults": args.faults,
            "threads": args.threads,
            "sparse_act": args.sparse_act,
        }),
    )];
    let mut rows = Vec::new();

    if args.mode == "realtime" {
        println!(
            "Realtime fleet: {} streams × {} frames, {} workers, max batch {}…",
            args.streams, args.frames, args.workers, args.max_batch
        );
        // Chaos runs poison stream 0: one bad tenant against a healthy
        // population is the isolation scenario the breaker exists for.
        let fault_plan = args
            .faults
            .as_deref()
            .and_then(faults::by_name)
            .filter(|p| !p.is_clean());
        if let Some(plan) = &fault_plan {
            println!(
                "  fault plan `{}` on stream 0: {} (seed {:#x})",
                plan.name, plan.description, plan.seed
            );
        }
        let fault_streams = if fault_plan.is_some() {
            vec![0]
        } else {
            Vec::new()
        };
        let server = FleetServer::new(
            ladder,
            scenario,
            FleetConfig {
                workers: args.workers,
                max_batch: args.max_batch,
                mode: FleetMode::Realtime,
                proactive: (args.policy == "proactive").then(ProactiveConfig::default),
                faults: fault_plan,
                fault_streams,
                sparse_act: args.sparse_act.then(SparseExecConfig::default),
                ..FleetConfig::default()
            },
        );
        let report = server.run().report;
        rows.push(summarize(
            "fleet (realtime)",
            report.delivered(),
            report.duration_s,
            Some(&report),
        ));
        println!(
            "  delivered {}/{} ({} degraded, {} dropped, {} boosts, Jain {:.3})",
            report.delivered(),
            report.admitted,
            report.degraded,
            report.dropped_backpressure + report.dropped_deadline,
            report.boosts,
            report.fairness_jain,
        );
        if report.faulted > 0 {
            println!(
                "  supervision: {} faulted ({} quarantined at admission)",
                report.faulted, report.quarantined
            );
            for row in &report.per_stream {
                if let Some(b) = row.breaker.as_ref().filter(|b| b.transitions.opened > 0) {
                    println!(
                        "  stream {} breaker: {} (opened {}, half-opened {}, reclosed {})",
                        row.id,
                        b.state,
                        b.transitions.opened,
                        b.transitions.half_opened,
                        b.transitions.reclosed
                    );
                }
            }
        }
        if let Some(ov) = &report.overrides {
            println!(
                "  proactive overrides: vru_floor {} deadline_clamp {} headroom_fallback {} vru_unfit {}",
                ov.vru_floor, ov.deadline_clamp, ov.headroom_fallback, ov.vru_unfit
            );
        }
        doc.push(("realtime".into(), report.to_json()));
    } else {
        if args.mode == "compare" {
            println!(
                "Independent baseline: {} dedicated one-stream fleets, concurrently…",
                args.streams
            );
            let (delivered, duration_s) = independent_fleets(&ladder, &scenario);
            let fps = delivered as f64 / duration_s.max(f64::MIN_POSITIVE);
            rows.push(summarize("independent", delivered, duration_s, None));
            doc.push((
                "independent".into(),
                json!({
                    "delivered": delivered,
                    "duration_s": duration_s,
                    "fps": fps,
                }),
            ));
        }
        println!(
            "Fleet: {} streams × {} frames, {} workers, cross-stream batches up to {}…",
            args.streams, args.frames, args.workers, args.max_batch
        );
        let server = FleetServer::new(
            ladder,
            scenario,
            FleetConfig {
                workers: args.workers,
                max_batch: args.max_batch,
                mode: FleetMode::Saturate,
                sparse_act: args.sparse_act.then(SparseExecConfig::default),
                ..FleetConfig::default()
            },
        );
        let report = server.run().report;
        rows.push(summarize(
            "fleet (batched)",
            report.delivered(),
            report.duration_s,
            Some(&report),
        ));
        if args.mode == "compare" {
            let base_fps = doc
                .iter()
                .find(|(k, _)| k == "independent")
                .and_then(|(_, v)| v.get("fps"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let fleet_fps = report.delivered() as f64 / report.duration_s.max(f64::MIN_POSITIVE);
            let speedup = if base_fps > 0.0 {
                fleet_fps / base_fps
            } else {
                0.0
            };
            println!(
                "  aggregate throughput: fleet {fleet_fps:.1} fps vs independent {base_fps:.1} fps ({speedup:.2}×)"
            );
            doc.push(("speedup".into(), json!(speedup)));
        }
        doc.push(("fleet".into(), report.to_json()));
    }

    println!("\nFleet summary:");
    print_table(
        &[
            "Arm",
            "Delivered",
            "Duration (s)",
            "Agg FPS",
            "Avg batch",
            "Cross batches",
            "Amort (ms)",
            "Jain",
        ],
        &rows,
    );

    let value = Value::Obj(doc);
    println!("\nFull report (fleet.json):");
    println!("{}", value.pretty());
    save_result("fleet", &value).expect("failed to save fleet.json");
    println!("\nSaved to target/upaq-results/fleet.json");
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nusage: fleet [--streams N] [--frames K] [--workers W] [--max-batch B] \
             [--detector lidar|camera] [--mode compare|realtime|saturate] \
             [--policy reactive|proactive] [--scenario NAME] [--faults PLAN] [--threads N] \
             [--sparse-act]"
        )
    })?;
    upaq_tensor::ops::TensorParallel::set_threads(args.threads);
    println!("Fleet serving: cross-stream batching over one shared worker pool");
    if args.sparse_act {
        println!(
            "Sparse activation: gather/scatter backbone over active pillars \
             (bit-identical to dense; camera streams run dense)"
        );
    }

    let device = DeviceProfile::jetson_orin_nano();
    let mut config = FleetScenarioConfig {
        streams: args.streams,
        frames_per_stream: args.frames,
        ..FleetScenarioConfig::default()
    };
    if let Some(name) = &args.scenario {
        let profile = scenario::by_name(name).expect("validated by parse_args");
        println!(
            "Scenario `{}`: {} (deadline {:.0} ms, mean arrival {:.1} ms)",
            profile.name,
            profile.description,
            profile.deadline_s * 1e3,
            profile.arrival.mean_interval_s() * 1e3,
        );
        // Every stream plays the profile's traffic: its scene mix, its
        // deadline, and its mean arrival rate (the fleet replays per-stream
        // schedules, so burst structure is carried by the rate alone).
        config.dataset = profile.dataset.clone();
        config.classes = vec![StreamClass {
            rate_hz: 1.0 / profile.arrival.mean_interval_s(),
            deadline_s: profile.deadline_s,
        }];
    }

    // Scenario runs fit the base head on the scenario's own scenes and
    // calibrate every degraded rung's head on its compressed backbone:
    // the proactive policy steers on detection feedback, which unfitted
    // heads would reduce to noise. The historical non-scenario benchmark
    // keeps its unfitted detectors (throughput numbers stay comparable).
    if args.detector == "camera" {
        let smoke_cfg = SmokeConfig::tiny();
        config.dataset.camera = smoke_cfg.calib.clone();
        let mut det = Smoke::build(&smoke_cfg)?;
        if args.scenario.is_some() {
            let data = Dataset::generate(&config.dataset, SEED);
            let scenes: Vec<usize> = (0..data.len()).collect();
            fit_camera_head(&mut det, &data, &scenes, 1e-3)?;
            let mut ladder = VariantLadder::build(det, &device, SEED)?;
            ladder.calibrate_heads(&data, 1e-3)?;
            run_fleet(&args, ladder, FleetScenario::build(config, SEED));
        } else {
            let ladder = VariantLadder::build(det, &device, SEED)?;
            run_fleet(&args, ladder, FleetScenario::build(config, SEED));
        }
    } else {
        let mut det = PointPillars::build(&PointPillarsConfig::tiny())?;
        if args.scenario.is_some() {
            let data = Dataset::generate(&config.dataset, SEED);
            let scenes: Vec<usize> = (0..data.len()).collect();
            fit_lidar_head(&mut det, &data, &scenes, 1e-3)?;
            let mut ladder = VariantLadder::build(det, &device, SEED)?;
            ladder.calibrate_heads(&data, 1e-3)?;
            run_fleet(&args, ladder, FleetScenario::build(config, SEED));
        } else {
            let ladder = VariantLadder::build(det, &device, SEED)?;
            run_fleet(&args, ladder, FleetScenario::build(config, SEED));
        }
    }
    Ok(())
}
