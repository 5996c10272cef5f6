//! Serving baselines shared by `bin/fleet` and `bench_fleet`.

use std::time::{Duration, Instant};
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::stream::SensorData;
use upaq_models::StreamingDetector;
use upaq_runtime::VariantLadder;
use upaq_serve::{FleetConfig, FleetMode, FleetReport, FleetServer};

/// The independent baseline of the consolidation comparison: one
/// dedicated one-stream fleet per stream of `scenario`, all running
/// concurrently — the per-stream deployment model the fleet consolidates
/// away. Each server runs Saturate mode (lossless, no
/// pacing, full model on every frame) on one worker without batching, so
/// it does exactly the work the shared fleet does; what it cannot do is
/// share workers or batch across tenants, and every server brings its
/// own admission thread, worker, queue and workspaces. Each server
/// synthesizes its frames before its clock starts, like the shared one,
/// so the arm's duration is the serving window: the first server's start
/// to the last server's finish. Returns `(delivered frames, seconds)`.
pub fn independent_fleets<D: StreamingDetector>(
    ladder: &VariantLadder<D>,
    scenario: &FleetScenario,
) -> (u64, f64)
where
    D::Input: SensorData,
{
    let config = scenario.config();
    let servers: Vec<FleetServer<D>> = scenario
        .profiles()
        .iter()
        .map(|p| {
            let solo = FleetScenario::single(
                config.dataset.clone(),
                p.seed,
                p.frames,
                &[1.0 / p.rate_hz],
                p.deadline_s,
            );
            FleetServer::new(
                ladder.clone(),
                solo,
                FleetConfig {
                    workers: 1,
                    max_batch: 1,
                    mode: FleetMode::Saturate,
                    ..FleetConfig::default()
                },
            )
        })
        .collect();
    let runs: Vec<(Instant, FleetReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = servers
            .iter()
            .map(|server| {
                s.spawn(move || {
                    let report = server.run().report;
                    (Instant::now(), report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first_start = runs
        .iter()
        .map(|(end, r)| *end - Duration::from_secs_f64(r.duration_s))
        .min()
        .expect("a fleet has streams");
    let last_end = runs.iter().map(|(end, _)| *end).max().unwrap();
    let delivered = runs.iter().map(|(_, r)| r.delivered()).sum();
    (delivered, (last_end - first_start).as_secs_f64())
}
