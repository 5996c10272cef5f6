//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-saturate|rig-realtime|paper-ladder --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets up, serves the workload through `upaq_serve::FleetServer`,
//! checks every delivery and prints the end-to-end metrics. `--trace 1`
//! sets up and serves once untraced, then repeats the set-up and replays
//! the served frames as individual public calls, one span each, and
//! prints the per-layer metrics. Stdout ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod metrics;
mod replay;
mod setup;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use upaq_json::{json, Value};
use upaq_tensor::ops::TensorParallel;

use metrics::{median, percentile, Loop};
use setup::{Error, Ladder};
use trace::Tracer;
use workloads::{Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected {})", names.join("|"))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return 0;
    };
    list.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// Median wall time of a fixed arithmetic loop, ms: a yardstick for host
/// speed, so run sets that disagree can be traced to host drift.
fn calib_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let (mut x, mut acc) = (std::hint::black_box(0x9E37_79B9_u64), 0.0f64);
            for _ in 0..4_000_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc = acc.mul_add(0.999_999, (x >> 40) as f64);
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The host block: printed on every run and kept in the trace file.
fn host_block(args: &Args, calib_ms: f64) -> Value {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "available_parallelism": available,
        "tensor_threads": TensorParallel::threads(),
        "pool_threads": TensorParallel::threads().min(available),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "calib_ms": calib_ms,
    })
}

/// One named metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(workload: Workload, out: &Outcome, setup_s: &[f64]) -> Vec<Metric> {
    let runs = metrics::runs(&out.rounds);
    let (p50, p95) = metrics::latency_ms(workload.loop_kind(), &out.rounds);
    vec![
        metric(
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric("throughput_fps", metrics::throughput_fps(&runs), "frames/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_p95_ms", p95, "ms"),
        metric(
            "deadline_met_frac",
            metrics::deadline_met_frac(&runs),
            "frac",
        ),
        metric(
            "energy_mj_per_frame",
            metrics::energy_mj_per_frame(&runs),
            "mJ",
        ),
        metric("map_pct", out.accuracy_pct, "%"),
        metric("peak_rss_mb", out.peak_rss_mb, "MB"),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(
    workload: Workload,
    out: &Outcome,
    ladder: &Ladder,
    tracer: &Tracer,
    stats: &replay::ReplayStats,
    host: &Value,
) -> Vec<Metric> {
    // The report numbers describe the first round, the one replayed.
    let reports = out.first_runs();
    let total = |name: &str| tracer.durations(name, None).iter().fold(0.0, |a, b| a + b);
    let p50_ms =
        |name: &str, tag: Option<&str>| percentile(&tracer.durations(name, tag), 50.0) * 1e3;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let forward_ms: Vec<f64> = (0..3)
        .map(|l| p50_ms("nn.forward", Some(&l.to_string())))
        .collect();
    let est_s: Vec<f64> = ladder
        .levels()
        .iter()
        .map(|v| v.estimate.latency_s)
        .collect();
    let busy_ms = metrics::busy_ms(reports);
    let pillarize_mean_ms = mean(&tracer.durations("det3d.pillarize", None)) * 1e3;
    let forward_total_ms = total("nn.forward") * 1e3;
    let k = stats.forward_frames as f64 / stats.forwards.max(1) as f64;
    let forward_mean_ms = forward_total_ms / stats.forwards.max(1) as f64;
    // The serving run with the median latency (paper-ladder has three).
    let mut by_latency: Vec<_> = reports.iter().collect();
    by_latency.sort_by(|a, b| a.e2e_latency.p50_s.total_cmp(&b.e2e_latency.p50_s));
    let typical = by_latency[by_latency.len() / 2];
    let sum = |f: fn(&upaq_serve::FleetReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let host_num = |key: &str| host.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    vec![
        metric("models.fit_head_s", total("models.fit_head"), "s"),
        metric("core.compress_s", total("core.compress"), "s"),
        metric("nn.pack_s", total("nn.pack"), "s"),
        metric("runtime.calibrate_s", total("runtime.calibrate"), "s"),
        metric("det3d.pillarize_ms", p50_ms("det3d.pillarize", None), "ms"),
        metric("nn.forward_ms.base", forward_ms[0], "ms"),
        metric("nn.forward_ms.lck", forward_ms[1], "ms"),
        metric("nn.forward_ms.hck", forward_ms[2], "ms"),
        metric("det3d.decode_ms", p50_ms("det3d.decode", None), "ms"),
        metric("det3d.nms_ms", percentile(&stats.nms_s, 50.0) * 1e3, "ms"),
        metric(
            "det3d.nms_keep_frac",
            stats.kept as f64 / stats.proposals.max(1) as f64,
            "frac",
        ),
        metric(
            "runtime.scheduler.admit_us",
            percentile(
                &tracer.durations("runtime.scheduler.admit_prefix", None),
                50.0,
            ) * 1e6,
            "us",
        ),
        metric(
            "runtime.scheduler.dropped",
            sum(|r| r.dropped_deadline),
            "count",
        ),
        metric(
            "runtime.proactive.full_model_frac",
            metrics::full_model_frac(reports),
            "frac",
        ),
        metric(
            "runtime.proactive.overrides",
            reports.iter().map(metrics::overrides).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "hwmodel.speedup_ratio.lck",
            metrics::speedup_ratio(forward_ms[0], forward_ms[1], est_s[0], est_s[1]),
            "ratio",
        ),
        metric(
            "hwmodel.speedup_ratio.hck",
            metrics::speedup_ratio(forward_ms[0], forward_ms[2], est_s[0], est_s[2]),
            "ratio",
        ),
        metric(
            "serve.fleet.batch_fill",
            metrics::batch_fill(reports),
            "frac",
        ),
        metric("serve.fleet.busy_ms", busy_ms, "ms"),
        metric(
            "serve.fleet.overhead_ms",
            metrics::fleet_overhead_ms(busy_ms, pillarize_mean_ms, forward_mean_ms, k),
            "ms",
        ),
        metric(
            "serve.ready.wait_ms",
            metrics::ready_wait_ms(typical, percentile(&stats.service_s, 50.0)),
            "ms",
        ),
        metric(
            "serve.ready.dropped",
            sum(|r| r.dropped_backpressure),
            "count",
        ),
        metric("serve.ready.boosts", sum(|r| r.boosts), "count"),
        metric(
            "serve.admit.overrun_ms",
            match workload.loop_kind() {
                Loop::Open => (reports[0].duration_s - out.last_emit_s) * 1e3,
                Loop::Closed => 0.0,
            },
            "ms",
        ),
        metric("host.nproc", host_num("nproc"), "count"),
        metric("host.pool_threads", host_num("pool_threads"), "count"),
        metric("host.calib_ms", host_num("calib_ms"), "ms"),
    ]
}

/// Where the traced run writes its spans: inside the build directory.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    target.join("perfbench")
}

/// What one run reports.
struct RunResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

fn run(args: &Args, host: &Value) -> Result<RunResult, Error> {
    let workload = args.workload;
    let train = setup::training_scenes();
    let set_ups = if args.trace { 1 } else { workload.set_ups() };
    let (ladder, uncalibrated, setup_s) = setup::timed_set_ups(workload.scale(), &train, set_ups)?;
    let out = workloads::serve(workload, &ladder, args.seed, args.seconds)?;
    for round in &out.rounds {
        for report in &round.runs {
            println!("{}", json!({"report": report_summary(report)}));
        }
        if let Some(probe) = &round.probe {
            println!("{}", json!({"probe": report_summary(probe)}));
        }
    }
    let mut failures = out.failures.clone();
    let metrics = if args.trace {
        let mut tracer = Tracer::new();
        setup::traced_set_up(
            workload.scale(),
            &train,
            &ladder,
            &uncalibrated,
            &mut tracer,
        )?;
        let stats = replay::replay(workload, &ladder, &out, &mut tracer)?;
        failures.extend(stats.mismatches.iter().cloned());
        let metrics = per_layer(workload, &out, &ladder, &tracer, &stats, host);
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        // Each rung's measured forward next to the latency hwmodel predicts.
        let rungs: Vec<Value> = ladder
            .levels()
            .iter()
            .enumerate()
            .map(|(level, v)| {
                let measured = tracer.durations("nn.forward", Some(&level.to_string()));
                json!({
                    "rung": v.name.clone(),
                    "forwards": measured.len(),
                    "measured_p50_ms": percentile(&measured, 50.0) * 1e3,
                    "predicted_ms": v.estimate.latency_ms(),
                })
            })
            .collect();
        let doc = json!({
            "host": host.clone(),
            "metrics": metric_json(&metrics),
            "rungs": rungs,
            "trace": tracer.to_json(),
        });
        std::fs::write(&path, doc.pretty())?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        metrics
    } else {
        end_to_end(workload, &out, &setup_s)
    };
    let runs: Vec<_> = out
        .rounds
        .iter()
        .flat_map(|r| r.runs.iter().chain(&r.probe))
        .cloned()
        .collect();
    let attempted = metrics::admitted(&runs);
    Ok(RunResult {
        attempted,
        failed: attempted - metrics::delivered(&runs),
        failures,
        metrics,
    })
}

/// The counters a reader needs to explain a run's numbers.
fn report_summary(r: &upaq_serve::FleetReport) -> Value {
    let rungs: Vec<Value> = r
        .rungs
        .iter()
        .map(|x| json!({"name": x.name.clone(), "frames": x.frames}))
        .collect();
    let batches: Vec<Value> = r
        .batch_histogram
        .iter()
        .map(|b| json!({"size": b.size, "batches": b.batches}))
        .collect();
    json!({
        "mode": r.mode.clone(),
        "policy": r.policy.clone(),
        "duration_s": r.duration_s,
        "admitted": r.admitted,
        "delivered": r.delivered(),
        "dropped": r.dropped_backpressure + r.dropped_deadline,
        "deadline_misses": r.deadline_misses,
        "e2e_p50_ms": r.e2e_latency.p50_s * 1e3,
        "e2e_p95_ms": r.e2e_latency.p95_s * 1e3,
        "busy_ms": r.amortized_backbone_ms,
        "rungs": rungs,
        "batches": batches,
        "overrides": metrics::overrides(r),
    })
}

fn metric_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // One busy thread per workload: the two vCPUs of the benchmark host
    // slow each other down when both compute (see README.md).
    TensorParallel::set_threads(1);
    let host = host_block(&args, calib_ms());
    println!("{}", json!({"host": host.clone()}));
    let result = match run(&args, &host) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for failure in &result.failures {
        eprintln!("check failed: {failure}");
    }
    for m in &result.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = result.failures.is_empty() && result.metrics.iter().all(|m| m.value.is_finite());
    let line = json!({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metric_json(&result.metrics),
    });
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
