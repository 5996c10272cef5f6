//! Reproducible fleet-serving baseline: aggregate throughput of one
//! shared worker pool multiplexing 128 sensor streams, with and without
//! cross-stream batching, plus a realtime overload run for fairness and
//! accounting — written to `BENCH_fleet.json` so serving regressions show
//! up as diffs.
//!
//! Four arms, all over the same deterministic [`FleetScenario`]:
//!
//! 1. **Independent fleets**: one dedicated one-stream fleet per stream,
//!    all concurrent — the per-stream deployment the fleet consolidates
//!    away, and the baseline of the consolidation speedup.
//! 2. **Unbatched fleet** (saturate, `max_batch = 1`): the shared pool
//!    with per-frame scheduling.
//! 3. **Batched fleet** (saturate, `max_batch = 4`): cross-stream batches
//!    amortize per-invocation work across tenants. Bit-identity of the
//!    batched results is asserted separately by `crates/serve/tests`.
//! 4. **Realtime overload**: arrivals outpace the pool, so the EDF
//!    scheduler sheds and degrades; the run must keep the per-stream
//!    accounting identity (zero silent loss) and reports Jain fairness.
//!
//! Run with `cargo run --release -p upaq-bench --bin bench_fleet --
//! [--streams N] [--frames N] [--quick] [--out PATH]`.

use upaq_bench::serving::independent_fleets;
use upaq_hwmodel::DeviceProfile;
use upaq_json::{json, Value};
use upaq_kitti::fleet::{FleetScenario, FleetScenarioConfig, StreamClass};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::LidarDetector;
use upaq_runtime::{SchedulerConfig, VariantLadder};
use upaq_serve::{FleetConfig, FleetMode, FleetReport, FleetServer};

const SEED: u64 = 2025;

type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

struct Budget {
    streams: usize,
    frames: u64,
    realtime_streams: usize,
}

fn parse_args() -> Result<(Budget, String), String> {
    let mut budget = Budget {
        streams: 128,
        frames: 4,
        realtime_streams: 32,
    };
    let mut out = "BENCH_fleet.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--streams" => {
                budget.streams = args
                    .next()
                    .ok_or_else(|| "--streams needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --streams value: {e}"))?;
                if budget.streams == 0 {
                    return Err("--streams must be positive".into());
                }
            }
            "--frames" => {
                budget.frames = args
                    .next()
                    .ok_or_else(|| "--frames needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --frames value: {e}"))?;
                if budget.frames == 0 {
                    return Err("--frames must be positive".into());
                }
            }
            "--quick" => {
                budget = Budget {
                    streams: 16,
                    frames: 2,
                    realtime_streams: 8,
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
    budget.realtime_streams = budget.realtime_streams.min(budget.streams);
    Ok((budget, out))
}

/// The compact JSON row a fleet arm contributes to the tracked baseline.
fn arm_row(label: &str, report: &FleetReport) -> BenchResult<Value> {
    if !report.accounted() {
        return Err(format!("{label}: per-stream accounting identity broken").into());
    }
    println!(
        "  [{label}] {} delivered / {} admitted in {:.2}s — {:.1} fps, \
         mean batch {:.2}, {} cross-stream batches, Jain {:.3}",
        report.delivered(),
        report.admitted,
        report.duration_s,
        report.delivered_fps,
        report.mean_batch_size,
        report.cross_stream_batches,
        report.fairness_jain,
    );
    Ok(json!({
        "label": label,
        "streams": report.streams,
        "admitted": report.admitted,
        "delivered": report.delivered(),
        "completed": report.completed,
        "degraded": report.degraded,
        "dropped_backpressure": report.dropped_backpressure,
        "dropped_deadline": report.dropped_deadline,
        "failed": report.failed,
        "duration_s": report.duration_s,
        "fps": report.delivered_fps,
        "mean_batch_size": report.mean_batch_size,
        "amortized_backbone_ms": report.amortized_backbone_ms,
        "cross_stream_batches": report.cross_stream_batches,
        "cross_batched_frames": report.cross_batched_frames,
        "boosts": report.boosts,
        "fairness_jain": report.fairness_jain,
        "accounted": report.accounted(),
    }))
}

fn saturate_arm(
    ladder: &VariantLadder<LidarDetector>,
    scenario: &FleetScenario,
    max_batch: usize,
) -> FleetReport {
    let server = FleetServer::new(
        ladder.clone(),
        scenario.clone(),
        FleetConfig {
            workers: 2,
            max_batch,
            mode: FleetMode::Saturate,
            ..FleetConfig::default()
        },
    );
    server.run().report
}

fn main() -> BenchResult<()> {
    let (budget, out_path) = parse_args().map_err(|e| {
        format!("{e}\nusage: bench_fleet [--streams N] [--frames N] [--quick] [--out PATH]")
    })?;
    upaq_tensor::ops::TensorParallel::set_threads(1);
    println!(
        "Fleet serving baseline ({} streams × {} frames)",
        budget.streams, budget.frames
    );

    let det = PointPillars::build(&PointPillarsConfig::tiny())?;
    let ladder = VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), SEED)?;
    let scenario = FleetScenario::build(
        FleetScenarioConfig {
            streams: budget.streams,
            frames_per_stream: budget.frames,
            ..FleetScenarioConfig::default()
        },
        SEED,
    );

    println!(
        "Independent arm ({} dedicated one-stream fleets, concurrently)…",
        budget.streams
    );
    let (ind_delivered, ind_duration_s) = independent_fleets(&ladder, &scenario);
    let ind_fps = if ind_duration_s > 0.0 {
        ind_delivered as f64 / ind_duration_s
    } else {
        0.0
    };
    println!(
        "  [independent] {ind_delivered} delivered in {ind_duration_s:.2}s — {ind_fps:.1} fps"
    );

    println!("Saturate arms (shared pool, lossless)…");
    let unbatched = saturate_arm(&ladder, &scenario, 1);
    let unbatched_row = arm_row("unbatched", &unbatched)?;
    let batched = saturate_arm(&ladder, &scenario, 4);
    let batched_row = arm_row("batched", &batched)?;
    if batched.delivered() != unbatched.delivered() {
        return Err("saturate arms disagree on delivered frames".into());
    }
    if batched.cross_stream_batches == 0 {
        return Err("batched arm formed no cross-stream batches".into());
    }

    println!(
        "Realtime overload arm ({} streams)…",
        budget.realtime_streams
    );
    let overload = FleetScenario::build(
        FleetScenarioConfig {
            streams: budget.realtime_streams,
            frames_per_stream: budget.frames,
            classes: vec![
                StreamClass {
                    rate_hz: 100.0,
                    deadline_s: 0.030,
                },
                StreamClass {
                    rate_hz: 50.0,
                    deadline_s: 0.080,
                },
            ],
            ..FleetScenarioConfig::default()
        },
        SEED,
    );
    let realtime = FleetServer::new(
        ladder,
        overload,
        FleetConfig {
            workers: 2,
            max_batch: 4,
            per_stream_queue: 1,
            scheduler: SchedulerConfig {
                ema_alpha: 0.2,
                headroom: 1.0,
            },
            mode: FleetMode::Realtime,
            ..FleetConfig::default()
        },
    )
    .run()
    .report;
    let realtime_row = arm_row("realtime", &realtime)?;

    let batching_speedup = if unbatched.delivered_fps > 0.0 {
        batched.delivered_fps / unbatched.delivered_fps
    } else {
        0.0
    };
    let consolidation_speedup = if ind_fps > 0.0 {
        batched.delivered_fps / ind_fps
    } else {
        0.0
    };
    let report = json!({
        "schema": "upaq-bench-fleet/v1",
        "budget": json!({
            "streams": budget.streams,
            "frames_per_stream": budget.frames,
            "realtime_streams": budget.realtime_streams,
        }),
        "independent": json!({
            "label": "independent",
            "streams": budget.streams,
            "delivered": ind_delivered,
            "duration_s": ind_duration_s,
            "fps": ind_fps,
        }),
        "unbatched": unbatched_row,
        "batched": batched_row,
        "realtime": realtime_row,
        "acceptance": json!({
            "consolidation_speedup": consolidation_speedup,
            "batching_speedup": batching_speedup,
            "cross_stream_batches": batched.cross_stream_batches,
            "zero_silent_loss": true,
            "realtime_jain": realtime.fairness_jain,
        }),
    });
    std::fs::write(&out_path, report.pretty())?;
    println!(
        "\nConsolidation speedup {consolidation_speedup:.2}× over dedicated fleets, \
         batching {batching_speedup:.2}× over the unbatched pool \
         ({} cross-stream batches); realtime Jain {:.3}",
        batched.cross_stream_batches, realtime.fairness_jain
    );
    println!("Saved to {out_path}");
    Ok(())
}
