//! The serving front end: every run of the `upaq-serve` engine — one
//! sensor stream or a fleet of them — over the UPAQ degrade ladder (base
//! / UPAQ LCK / UPAQ HCK on the Jetson Orin Nano cost model): the tiny
//! PointPillars over LiDAR sweeps, or the tiny SMOKE over rendered camera
//! frames.
//!
//! Run with `cargo run --release --bin serve -- [flags]`; defaults in
//! brackets:
//!
//! * `--detector lidar|camera` [lidar] — the detector served.
//! * `--streams N` [1] — one stream runs two presets. `nominal` paces
//!   ~30 FPS inside a 100 ms deadline. `overload` sends 50 FPS to one
//!   worker and stalls every backbone invocation 80 ms, so the scheduler
//!   degrades down the ladder and sheds load; the stall is charged once
//!   per invocation, so `--batch 4` amortizes it. `N > 1` multiplexes a
//!   fleet (`FleetScenario::build`: round-robin service classes with
//!   staggered phases) over one shared worker pool.
//! * `--frames K` [12] — frames per stream (`overload` serves two thirds).
//! * `--workers W` [2] — worker threads in the shared pool (`overload`
//!   always runs one).
//! * `--batch B` [1] — the largest group a worker admits as one batched
//!   forward pass; with several streams, groups mix streams.
//! * `--mode realtime|saturate|compare` [realtime] — `realtime` replays
//!   arrivals against the wall clock under per-stream deadlines.
//!   `saturate` serves losslessly on the full model as fast as the pool
//!   drains. `compare` runs `saturate` after the independent baseline
//!   (`upaq_bench::serving::independent_fleets`: one dedicated one-stream
//!   fleet per stream, all concurrent) over the same streams.
//! * `--policy reactive|proactive` [reactive] — `proactive` layers
//!   detection-history rung steering, with VRU-floor and deadline-headroom
//!   overrides, over the reactive scheduler (realtime only).
//! * `--scenario NAME` [none] — a profile of the `upaq-kitti` scenario
//!   catalog replaces the presets' traffic: its scene mix, its deadline,
//!   and its arrival cycle (one stream) or mean arrival rate (a fleet).
//!   The heads are then fitted on the scenario's own scenes, since the
//!   proactive policy steers on detection feedback that unfitted heads
//!   would reduce to noise.
//! * `--faults PLAN` [none] — a deterministic plan from the `upaq-kitti`
//!   fault catalog poisons stream 0 (realtime only). The supervision
//!   layer (input firewall, panic isolation, circuit breaker) charges the
//!   affected frames to the `faulted` class; the run never aborts.
//! * `--threads N` [1] — claimants of the kernel worker pool (output is
//!   bit-identical at any count).
//!
//! Every invocation writes one document, `target/upaq-results/serve.json`:
//! `{config, reports, independent}`, where `reports` lists one
//! `upaq_serve::FleetReport` per run, its `scenario` field naming the run,
//! and `independent` lists, under `--mode compare`, the baseline arm of
//! each report (`delivered`, `duration_s`, `fps`, `speedup`).

use upaq_bench::harness::save_result;
use upaq_bench::serving::independent_fleets;
use upaq_bench::table::print_table;
use upaq_hwmodel::DeviceProfile;
use upaq_json::{json, Value};
use upaq_kitti::dataset::{Dataset, DatasetConfig};
use upaq_kitti::faults::{self, FaultPlan};
use upaq_kitti::fleet::{FleetScenario, FleetScenarioConfig, StreamClass};
use upaq_kitti::scenario::{self, ScenarioProfile};
use upaq_kitti::stream::SensorData;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::pretrain::{fit_camera_head, fit_lidar_head, FitReport};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::{CameraDetector, LidarDetector, StreamingDetector};
use upaq_runtime::{ProactiveConfig, VariantLadder};
use upaq_serve::{FleetConfig, FleetMode, FleetServer};

const SEED: u64 = 2025;

const USAGE: &str = "usage: serve [--detector lidar|camera] [--streams N] [--frames K] \
     [--workers W] [--batch B] [--mode realtime|saturate|compare] \
     [--policy reactive|proactive] [--scenario NAME] [--faults PLAN] [--threads N]";

type BoxError = Box<dyn std::error::Error + Send + Sync>;

#[derive(Debug)]
struct Args {
    detector: &'static str,
    streams: usize,
    frames: u64,
    workers: usize,
    batch: usize,
    mode: &'static str,
    policy: &'static str,
    scenario: Option<ScenarioProfile>,
    /// `None` also for the catalog's `clean` plan.
    faults: Option<FaultPlan>,
    threads: usize,
}

fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be positive")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: bad value `{value}`: {e}")),
    }
}

fn choice(flag: &str, value: &str, options: &[&'static str]) -> Result<&'static str, String> {
    options
        .iter()
        .copied()
        .find(|o| *o == value)
        .ok_or_else(|| format!("{flag}: unknown `{value}` (expected {})", options.join("|")))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        detector: "lidar",
        streams: 1,
        frames: 12,
        workers: 2,
        batch: 1,
        mode: "realtime",
        policy: "reactive",
        scenario: None,
        faults: None,
        threads: 1,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"));
        let flag = flag.as_str();
        match flag {
            "--detector" => args.detector = choice(flag, &value?, &["lidar", "camera"])?,
            "--streams" => args.streams = positive(flag, &value?)?,
            "--frames" => args.frames = positive(flag, &value?)? as u64,
            "--workers" => args.workers = positive(flag, &value?)?,
            "--batch" => args.batch = positive(flag, &value?)?,
            "--threads" => args.threads = positive(flag, &value?)?,
            "--mode" => args.mode = choice(flag, &value?, &["realtime", "saturate", "compare"])?,
            "--policy" => args.policy = choice(flag, &value?, &["reactive", "proactive"])?,
            "--scenario" => {
                args.scenario = scenario::by_name(choice(flag, &value?, &scenario::names())?)
            }
            "--faults" => {
                args.faults = faults::by_name(choice(flag, &value?, &faults::names())?)
                    .filter(|plan| !plan.is_clean())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // Saturate serving bypasses admission, where both of these act.
    if args.mode != "realtime" {
        if args.policy == "proactive" {
            return Err("--policy proactive needs --mode realtime".into());
        }
        if args.faults.is_some() {
            return Err("--faults needs --mode realtime".into());
        }
    }
    Ok(args)
}

/// The scenes every stream of the invocation cycles.
fn dataset(args: &Args) -> DatasetConfig {
    match (&args.scenario, args.streams) {
        (Some(profile), _) => profile.dataset.clone(),
        (None, 1) => DatasetConfig {
            scenes: 4,
            ..DatasetConfig::small()
        },
        (None, _) => FleetScenarioConfig::default().dataset,
    }
}

/// The degrade ladder every run serves. `fit_on` (given with
/// `--scenario`) fits the base head on those scenes and then refits each
/// degraded rung's head on its own compressed backbone: a base-fit head
/// decoding compressed features emits false-positive spray instead of
/// graded recall.
fn build_ladder<D: StreamingDetector>(
    mut det: D,
    fit_on: Option<&DatasetConfig>,
    fit_head: fn(&mut D, &Dataset, &[usize], f64) -> upaq_nn::Result<FitReport>,
    calibrate_heads: fn(&mut VariantLadder<D>, &Dataset, f64) -> Result<(), BoxError>,
) -> Result<VariantLadder<D>, BoxError> {
    let device = DeviceProfile::jetson_orin_nano();
    let Some(cfg) = fit_on else {
        return VariantLadder::build(det, &device, SEED);
    };
    let data = Dataset::generate(cfg, SEED);
    let scenes: Vec<usize> = (0..data.len()).collect();
    fit_head(&mut det, &data, &scenes, 1e-3)?;
    let mut ladder = VariantLadder::build(det, &device, SEED)?;
    calibrate_heads(&mut ladder, &data, 1e-3)?;
    Ok(ladder)
}

/// The runs of one invocation: each report's label, the streams it
/// serves, and how the fleet serves them.
fn runs(args: &Args, data: &DatasetConfig) -> Vec<(String, FleetScenario, FleetConfig)> {
    let serving = FleetConfig {
        workers: args.workers,
        max_batch: args.batch,
        mode: match args.mode {
            "realtime" => FleetMode::Realtime,
            _ => FleetMode::Saturate,
        },
        proactive: (args.policy == "proactive").then(ProactiveConfig::default),
        faults: args.faults.clone(),
        // One bad tenant against a healthy population is the isolation
        // scenario the breaker exists for.
        fault_streams: vec![0],
        ..FleetConfig::default()
    };
    if args.streams > 1 {
        let mut config = FleetScenarioConfig {
            streams: args.streams,
            frames_per_stream: args.frames,
            dataset: data.clone(),
            ..FleetScenarioConfig::default()
        };
        // The fleet replays per-stream schedules, so the profile's burst
        // structure is carried by its mean rate alone.
        if let Some(profile) = &args.scenario {
            config.classes = vec![StreamClass {
                rate_hz: 1.0 / profile.arrival.mean_interval_s(),
                deadline_s: profile.deadline_s,
            }];
        }
        let label = args.scenario.as_ref().map_or("fleet", |p| p.name);
        return vec![(label.into(), FleetScenario::build(config, SEED), serving)];
    }
    let single = |frames, gaps_s: &[f64], deadline_s| {
        FleetScenario::single(data.clone(), SEED, frames, gaps_s, deadline_s)
    };
    let queued = FleetConfig {
        per_stream_queue: 4.max(args.batch),
        ..serving.clone()
    };
    if let Some(profile) = &args.scenario {
        let stream = single(args.frames, &profile.arrival.cycle(), profile.deadline_s);
        return vec![(profile.name.into(), stream, queued)];
    }
    // At `--batch 1` the stall caps service near 12 FPS against 50 FPS
    // arrivals; the deadline is generous enough that a batched group,
    // which waits roughly one invocation in the queue, still meets it.
    // The stall joins the user's plan, which keeps its name and seed.
    let stall = FaultPlan::slow_backbone(0.080);
    let overload_faults = match serving.faults.clone() {
        Some(mut plan) => {
            plan.rules.extend(stall.rules);
            plan
        }
        None => stall,
    };
    vec![
        (
            "nominal".into(),
            single(args.frames, &[0.033], 0.100),
            queued,
        ),
        (
            "overload".into(),
            single((args.frames * 2 / 3).max(1), &[0.020], 0.250),
            FleetConfig {
                workers: 1,
                per_stream_queue: 2.max(args.batch),
                faults: Some(overload_faults),
                ..serving
            },
        ),
    ]
}

/// Serves every run over `ladder`, prints the ladder and the summary
/// tables, and returns the `serve.json` document.
fn serve<D: StreamingDetector>(args: &Args, ladder: VariantLadder<D>, data: &DatasetConfig) -> Value
where
    D::Input: SensorData,
{
    println!(
        "\nDegrade ladder for `{}` (Jetson Orin Nano cost model):",
        args.detector
    );
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
                    i.to_string(),
                    v.name.clone(),
                    format!("{:.3}", v.estimate.latency_s * 1e3),
                    format!("{:.4}", v.estimate.energy_j),
                    format!("{:.3}", v.efficiency_score),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut reports = Vec::new();
    let mut independent = Vec::new();
    for (label, scenario, config) in runs(args, data) {
        println!(
            "\nServing `{}/{label}`: {} stream(s) × {} frames, {} worker(s), max batch {}, {} mode, {} policy…",
            args.detector,
            scenario.len(),
            scenario.profiles()[0].frames,
            config.workers,
            config.max_batch,
            args.mode,
            args.policy,
        );
        let baseline = (args.mode == "compare").then(|| independent_fleets(&ladder, &scenario));
        let mut report = FleetServer::new(ladder.clone(), scenario, config)
            .run()
            .report;
        report.scenario = label;
        if let Some((delivered, duration_s)) = baseline {
            let fps = delivered as f64 / duration_s.max(f64::MIN_POSITIVE);
            let speedup = if fps > 0.0 {
                report.delivered_fps / fps
            } else {
                0.0
            };
            println!(
                "  independent arm: {delivered} frames in {duration_s:.3} s ({fps:.1} fps); \
                 shared fleet {:.1} fps ({speedup:.2}×)",
                report.delivered_fps
            );
            independent.push(json!({
                "delivered": delivered,
                "duration_s": duration_s,
                "fps": fps,
                "speedup": speedup,
            }));
        }
        if let Some(ov) = &report.overrides {
            println!(
                "  overrides: vru_floor {} deadline_clamp {} headroom_fallback {} vru_unfit {}",
                ov.vru_floor, ov.deadline_clamp, ov.headroom_fallback, ov.vru_unfit
            );
        }
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
        reports.push(report);
    }

    println!("\nSummary:");
    print_table(
        &[
            "Run",
            "Streams",
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
            "Jain",
        ],
        &reports
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.streams.to_string(),
                    r.admitted.to_string(),
                    r.completed.to_string(),
                    r.degraded.to_string(),
                    (r.dropped_backpressure + r.dropped_deadline).to_string(),
                    r.failed.to_string(),
                    r.faulted.to_string(),
                    format!("{:.1}", r.delivered_fps),
                    format!("{:.2}", r.mean_batch_size),
                    format!("{:.2}", r.e2e_latency.p50_s * 1e3),
                    format!("{:.2}", r.e2e_latency.p99_s * 1e3),
                    format!("{:.3}", r.energy_per_frame_j),
                    format!("{:.1}", r.energy_saved_vs_base_frac * 100.0),
                    format!("{:.3}", r.fairness_jain),
                ]
            })
            .collect::<Vec<_>>(),
    );

    json!({
        "config": json!({
            "detector": args.detector,
            "streams": args.streams,
            "frames": args.frames,
            "workers": args.workers,
            "batch": args.batch,
            "mode": args.mode,
            "policy": args.policy,
            "scenario": args.scenario.as_ref().map(|p| p.name),
            "faults": args.faults.as_ref().map(|p| p.name),
            "threads": args.threads,
        }),
        "reports": reports,
        "independent": independent,
    })
}

fn main() -> Result<(), BoxError> {
    let args = parse_args(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    upaq_tensor::ops::TensorParallel::set_threads(args.threads);
    if let Some(p) = &args.scenario {
        println!(
            "Scenario `{}`: {} (deadline {:.0} ms, mean arrival {:.1} ms)",
            p.name,
            p.description,
            p.deadline_s * 1e3,
            p.arrival.mean_interval_s() * 1e3,
        );
    }
    if let Some(plan) = &args.faults {
        println!(
            "Fault plan `{}` on stream 0: {} (seed {:#x})",
            plan.name, plan.description, plan.seed
        );
    }
    let mut data = dataset(&args);
    let fit = args.scenario.is_some();
    let doc = if args.detector == "camera" {
        let smoke = SmokeConfig::tiny();
        data.camera = smoke.calib.clone();
        let ladder = build_ladder(
            Smoke::build(&smoke)?,
            fit.then_some(&data),
            fit_camera_head,
            VariantLadder::<CameraDetector>::calibrate_heads,
        )?;
        serve(&args, ladder, &data)
    } else {
        let ladder = build_ladder(
            PointPillars::build(&PointPillarsConfig::tiny())?,
            fit.then_some(&data),
            fit_lidar_head,
            VariantLadder::<LidarDetector>::calibrate_heads,
        )?;
        serve(&args, ladder, &data)
    };
    save_result("serve", &doc).map_err(|e| e.to_string())?;
    println!("\nSaved to target/upaq-results/serve.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn documented_invocations_parse() {
        for line in [
            // CI's report flows.
            "--detector lidar --frames 12",
            "--detector camera --frames 24 --batch 4",
            "--detector camera --scenario urban-vru --policy proactive --frames 24",
            "--detector lidar --scenario empty-highway --policy proactive --frames 24",
            "--detector camera --frames 12 --faults panic-storm",
            "--detector lidar --frames 12 --faults mixed",
            "--streams 32 --frames 4 --batch 4 --mode compare",
            "--streams 32 --frames 4 --batch 4 --mode realtime",
            "--streams 8 --frames 6 --batch 4 --mode realtime --faults nan-burst",
            // README.
            "",
            "--detector camera --frames 30",
            "--detector lidar --frames 60 --batch 4",
            "--streams 128 --frames 4 --batch 4 --mode compare",
            "--streams 64 --frames 8 --batch 4 --mode realtime",
            "--scenario urban-vru --policy proactive --frames 48",
            "--streams 16 --frames 8 --batch 4 --mode realtime --scenario rush-hour --policy proactive",
            "--faults nan-burst --frames 48",
            "--streams 16 --frames 8 --batch 4 --mode realtime --faults nan-burst",
        ] {
            if let Err(e) = parse(line) {
                panic!("`{line}` refused: {e}");
            }
        }
    }

    #[test]
    fn flags_set_their_fields() {
        let args = parse(
            "--detector camera --streams 3 --frames 5 --workers 4 --batch 2 \
             --policy proactive --scenario urban-vru --faults truncation --threads 2",
        )
        .unwrap();
        assert_eq!(
            (args.detector, args.streams, args.frames, args.workers),
            ("camera", 3, 5, 4)
        );
        assert_eq!(
            (args.batch, args.mode, args.policy, args.threads),
            (2, "realtime", "proactive", 2)
        );
        assert_eq!(args.scenario.map(|p| p.name), Some("urban-vru"));
        assert_eq!(args.faults.map(|p| p.name), Some("truncation"));
        assert!(parse("--faults clean").unwrap().faults.is_none());
    }

    /// The user's plan keeps its name and its seed, which drives the
    /// corruption draws; the counts alone would not show a swapped order.
    #[test]
    fn overload_appends_the_stall_to_the_users_plan() {
        let args = parse("--faults nan-burst").unwrap();
        let runs = runs(&args, &dataset(&args));
        let user = faults::by_name("nan-burst").unwrap();
        assert_eq!(runs[0].2.faults.as_ref(), Some(&user));
        let plan = runs[1].2.faults.as_ref().unwrap();
        assert_eq!((plan.name, plan.seed), (user.name, user.seed));
        let (head, tail) = plan.rules.split_at(user.rules.len());
        assert_eq!(head, &user.rules[..]);
        assert_eq!(tail, &FaultPlan::slow_backbone(0.080).rules[..]);
    }

    #[test]
    fn refusals_name_the_flag() {
        for (line, flag) in [
            ("--streams 0", "--streams"),
            ("--frames 0", "--frames"),
            ("--workers 0", "--workers"),
            ("--batch 0", "--batch"),
            ("--threads 0", "--threads"),
            ("--frames -3", "--frames"),
            ("--detector radar", "--detector"),
            ("--mode turbo", "--mode"),
            ("--policy greedy", "--policy"),
            ("--scenario mars", "--scenario"),
            ("--faults meteor", "--faults"),
            ("--frames", "--frames"),
            ("--streams 8 --scenario", "--scenario"),
            ("--max-batch 4", "--max-batch"),
            ("--mode saturate --policy proactive", "--policy"),
            ("--mode compare --faults nan-burst", "--faults"),
        ] {
            match parse(line) {
                Ok(_) => panic!("`{line}` was accepted"),
                Err(e) => assert!(e.contains(flag), "`{line}`: `{e}` does not name {flag}"),
            }
        }
    }
}
