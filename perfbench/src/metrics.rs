//! End-to-end and derived per-layer metrics, as pure functions of the
//! fleet reports, the delivered detections and the traced timings.
//!
//! Keeping the derivations here, away from the run loops, lets the tests
//! below pin each definition on hand-built [`FleetReport`] fixtures.

use upaq_det3d::eval::evaluate_detections;
use upaq_det3d::Box3d;
use upaq_kitti::scene::Scene;
use upaq_serve::FleetReport;

/// One repetition of a workload's fixed unit of work.
///
/// Every workload serves rounds until its time is up. Throughput pools
/// every round; latency takes each round's percentiles, then the trimmed
/// mean of the rounds' p50 and the lowest round's p95 (see
/// [`latency_ms`]).
#[derive(Debug, Clone)]
pub struct Round {
    /// Its serving runs: fleet-saturate's pass over the fleet, the rig's
    /// run, or paper-ladder's base, LCK and HCK runs.
    pub runs: Vec<FleetReport>,
    /// Closed loops: the round's latency probe.
    pub probe: Option<FleetReport>,
}

/// Every serving run of `rounds`, in order (probes excluded).
pub fn runs(rounds: &[Round]) -> Vec<FleetReport> {
    rounds.iter().flat_map(|r| r.runs.iter().cloned()).collect()
}

/// Share of values [`trimmed_mean`] drops at each end.
pub const TRIM: f64 = 0.2;

/// Mean of `values` without the lowest and highest [`TRIM`] of them
/// (nothing is dropped from fewer than five). Empty input gives 0.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * TRIM) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Whether a workload paces arrivals (open) or keeps the server full
/// (closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Frames arrive on a schedule regardless of the server.
    Open,
    /// The generator refills the server as fast as it drains.
    Closed,
}

/// Nearest-rank percentile (`p` in 0–100), the rule
/// `upaq_runtime::metrics::LatencyRecorder` uses. Empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Frames offered across `reports`.
pub fn admitted(reports: &[FleetReport]) -> u64 {
    reports.iter().map(|r| r.admitted).sum()
}

/// Frames delivered across `reports`.
pub fn delivered(reports: &[FleetReport]) -> u64 {
    reports.iter().map(FleetReport::delivered).sum()
}

/// Delivered frames per second of serving, summed over `reports`.
pub fn throughput_fps(reports: &[FleetReport]) -> f64 {
    let secs: f64 = reports.iter().map(|r| r.duration_s).sum();
    if secs > 0.0 {
        delivered(reports) as f64 / secs
    } else {
        0.0
    }
}

/// Frames delivered within their deadline ÷ frames admitted. Dropped,
/// failed and faulted frames are misses. Saturate mode carries no
/// deadline (it counts no misses), so there every delivery counts.
pub fn deadline_met_frac(reports: &[FleetReport]) -> f64 {
    let admitted = admitted(reports);
    if admitted == 0 {
        return 0.0;
    }
    let met: u64 = reports
        .iter()
        .map(|r| r.delivered().saturating_sub(r.deadline_misses))
        .sum();
    met as f64 / admitted as f64
}

/// Modelled energy per delivered frame, millijoules.
pub fn energy_mj_per_frame(reports: &[FleetReport]) -> f64 {
    let frames = delivered(reports);
    if frames == 0 {
        return 0.0;
    }
    reports.iter().map(|r| r.total_energy_j).sum::<f64>() / frames as f64 * 1e3
}

/// Centre-distance mAP (percent) of the delivered detections over every
/// admitted frame: `delivered[i]` is `None` when frame `i` produced no
/// delivery, and such a frame scores as an empty detection list.
///
/// # Panics
///
/// Panics when the two slices differ in length.
pub fn map_pct(scenes: &[&Scene], delivered: &[Option<&[Box3d]>]) -> f64 {
    let dets: Vec<Vec<Box3d>> = delivered
        .iter()
        .map(|d| d.map_or_else(Vec::new, <[Box3d]>::to_vec))
        .collect();
    f64::from(evaluate_detections(&dets, scenes).map_dist)
}

/// Frames a round needs for its p95 to be a tail rather than its
/// slowest frame (the twentieth slowest of twenty).
pub const TAIL_FRAMES: u64 = 20;

/// `(p50, p95)` latency, milliseconds, arrival → detections: the
/// [`trimmed_mean`] of the rounds' p50, and the lowest round's p95, or,
/// when a round holds fewer than [`TAIL_FRAMES`] frames, the trimmed
/// mean of the rounds' p95.
///
/// The host runs the same work at two speeds in spells of seconds. A
/// round's p50 follows the speed the round mostly ran at; a mean over
/// rounds moves in proportion to the share of slow rounds, where a
/// median would jump from one speed to the other as that share crosses a
/// half. A round's p95 lands in a slow spell whenever a twentieth of its
/// frames met one, and how slow that spell was varies; the lowest
/// round's p95 is the tail under the mildest spell, which a change to
/// the program still moves in every round. A round of a few frames has
/// no tail, only a slowest frame, so there the rounds are averaged.
///
/// An open loop's round reads its serving run. A closed loop's serving
/// run only measures each frame's place in the backlog its generator
/// keeps full, so a closed loop's round reads its latency probe: an
/// open-loop run of the same server at a rate it serves without
/// queueing. Without probes a closed loop reports 0.
pub fn latency_ms(kind: Loop, rounds: &[Round]) -> (f64, f64) {
    let reports: Vec<&FleetReport> = rounds
        .iter()
        .filter_map(|r| match kind {
            Loop::Open => r.runs.first(),
            Loop::Closed => r.probe.as_ref(),
        })
        .collect();
    if reports.is_empty() {
        return (0.0, 0.0);
    }
    let p50: Vec<f64> = reports.iter().map(|r| r.e2e_latency.p50_s * 1e3).collect();
    let p95: Vec<f64> = reports.iter().map(|r| r.e2e_latency.p95_s * 1e3).collect();
    let tails = reports.iter().all(|r| r.e2e_latency.count >= TAIL_FRAMES);
    let p95 = if tails {
        p95.into_iter().fold(f64::INFINITY, f64::min)
    } else {
        trimmed_mean(&p95)
    };
    (trimmed_mean(&p50), p95)
}

/// Ready-queue wait, ms: the run's median arrival latency minus the
/// traced median per-frame service time.
pub fn ready_wait_ms(report: &FleetReport, service_p50_s: f64) -> f64 {
    (report.e2e_latency.p50_s - service_p50_s) * 1e3
}

/// Serving overhead per frame, ms: the worker's busy time per frame
/// minus the traced pillarize time per frame and the traced forward time
/// per invocation divided by the frames in it.
pub fn fleet_overhead_ms(busy_ms: f64, pillarize_ms: f64, forward_ms: f64, k: f64) -> f64 {
    if k <= 0.0 {
        return busy_ms - pillarize_ms;
    }
    busy_ms - pillarize_ms - forward_ms / k
}

/// Mean frames per backbone invocation ÷ the largest batch allowed,
/// pooled over `reports`.
pub fn batch_fill(reports: &[FleetReport]) -> f64 {
    let batches: u64 = reports.iter().map(|r| r.batches).sum();
    let max_batch = reports.first().map_or(0, |r| r.max_batch);
    if batches == 0 || max_batch == 0 {
        return 0.0;
    }
    delivered(reports) as f64 / batches as f64 / max_batch as f64
}

/// Worker busy time per delivered frame, ms, over `reports`.
pub fn busy_ms(reports: &[FleetReport]) -> f64 {
    let frames = delivered(reports);
    if frames == 0 {
        return 0.0;
    }
    reports
        .iter()
        .map(|r| r.amortized_backbone_ms * r.delivered() as f64)
        .sum::<f64>()
        / frames as f64
}

/// Share of delivered frames served by the full model (rung 0).
pub fn full_model_frac(reports: &[FleetReport]) -> f64 {
    let frames = delivered(reports);
    if frames == 0 {
        return 0.0;
    }
    let base: u64 = reports
        .iter()
        .filter_map(|r| r.rungs.first())
        .map(|r| r.frames)
        .sum();
    base as f64 / frames as f64
}

/// Proactive override firings: VRU floor + deadline clamp + headroom
/// fallback (0 without the proactive policy).
pub fn overrides(report: &FleetReport) -> u64 {
    report
        .overrides
        .map_or(0, |o| o.vru_floor + o.deadline_clamp + o.headroom_fallback)
}

/// Measured forward speedup of a rung over base ÷ the speedup the
/// hardware model predicts. 0 when either rung never ran.
pub fn speedup_ratio(fwd_base_s: f64, fwd_rung_s: f64, est_base_s: f64, est_rung_s: f64) -> f64 {
    if fwd_base_s <= 0.0 || fwd_rung_s <= 0.0 || est_base_s <= 0.0 || est_rung_s <= 0.0 {
        return 0.0;
    }
    (fwd_base_s / fwd_rung_s) / (est_base_s / est_rung_s)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use upaq_det3d::Box3d;
    use upaq_kitti::scene::{Scene, SceneConfig};
    use upaq_runtime::metrics::LatencySummary;
    use upaq_runtime::OverrideSnapshot;
    use upaq_serve::report::RungFrames;

    /// A report whose counters are set by hand; everything else is zero.
    pub(crate) fn report(admitted: u64, completed: u64, degraded: u64) -> FleetReport {
        FleetReport {
            scenario: "fixture".into(),
            detector: "lidar".into(),
            mode: "realtime".into(),
            policy: "proactive".into(),
            streams: 4,
            workers: 1,
            max_batch: 4,
            duration_s: 2.0,
            admitted,
            completed,
            degraded,
            dropped_backpressure: 0,
            dropped_deadline: 0,
            failed: 0,
            faulted: 0,
            quarantined: 0,
            deadline_misses: 0,
            boosts: 0,
            delivered_fps: 0.0,
            batches: 0,
            mean_batch_size: 0.0,
            amortized_backbone_ms: 0.0,
            batch_histogram: Vec::new(),
            cross_stream_batches: 0,
            cross_batched_frames: 0,
            e2e_latency: LatencySummary::default(),
            total_energy_j: 0.0,
            energy_per_frame_j: 0.0,
            energy_saved_vs_base_j: 0.0,
            energy_saved_vs_base_frac: 0.0,
            overrides: None,
            sparse_activation: None,
            rungs: vec![
                RungFrames {
                    level: 0,
                    name: "base".into(),
                    frames: completed,
                },
                RungFrames {
                    level: 2,
                    name: "UPAQ (HCK)".into(),
                    frames: degraded,
                },
            ],
            fairness_jain: 1.0,
            per_stream: Vec::new(),
        }
    }

    #[test]
    fn deadline_met_frac_counts_drops_and_failures_as_misses() {
        let mut r = report(100, 60, 20);
        r.dropped_deadline = 10;
        r.dropped_backpressure = 4;
        r.failed = 3;
        r.faulted = 3;
        r.deadline_misses = 5;
        // 80 delivered, 5 of them late: 75 met out of 100 admitted.
        assert!((deadline_met_frac(&[r.clone()]) - 0.75).abs() < 1e-12);
        // A lossless run without misses meets every deadline.
        assert_eq!(deadline_met_frac(&[report(40, 30, 10)]), 1.0);
        // Fractions pool over reports by frame, not by report.
        let both = deadline_met_frac(&[r, report(100, 100, 0)]);
        assert!((both - 175.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn map_scores_undelivered_frames_as_empty() {
        let scenes: Vec<Scene> = (0..2)
            .map(|i| Scene::generate(i, &SceneConfig::default(), 40 + i as u64))
            .collect();
        let refs: Vec<&Scene> = scenes.iter().collect();
        let oracle: Vec<Vec<Box3d>> = scenes
            .iter()
            .map(|s| {
                s.objects
                    .iter()
                    .map(|o| {
                        let mut b = Box3d::from_object(o);
                        b.score = 0.9;
                        b
                    })
                    .collect()
            })
            .collect();
        let all = map_pct(&refs, &[Some(&oracle[0]), Some(&oracle[1])]);
        assert!((all - 100.0).abs() < 1e-3, "perfect deliveries score 100");
        let half = map_pct(&refs, &[Some(&oracle[0]), None]);
        let explicit =
            f64::from(evaluate_detections(&[oracle[0].clone(), Vec::new()], &refs).map_dist);
        assert_eq!(half, explicit, "an undelivered frame is an empty list");
        assert!(half < all, "losing a frame's ground truth costs recall");
        assert_eq!(map_pct(&refs, &[None, None]), 0.0);
    }

    fn round(runs: Vec<FleetReport>, probe: Option<FleetReport>) -> Round {
        Round { runs, probe }
    }

    /// `r` with its latency summary set: one sample per delivered frame.
    fn with_latency(mut r: FleetReport, p50_s: f64, p95_s: f64) -> FleetReport {
        r.e2e_latency.count = r.delivered();
        r.e2e_latency.p50_s = p50_s;
        r.e2e_latency.p95_s = p95_s;
        r
    }

    #[test]
    fn closed_loops_never_report_backlog_latency() {
        let mut r = report(100, 100, 0);
        r.mode = "saturate".into();
        // A saturate run's arrival latency is its backlog position.
        let r = with_latency(r, 0.760, 1.400);
        let probe = with_latency(report(40, 40, 0), 0.010, 0.030);
        let rounds = [round(vec![r.clone()], Some(probe))];
        let (p50, p95) = latency_ms(Loop::Closed, &rounds);
        assert!((p50 - 10.0).abs() < 1e-9);
        assert!((p95 - 30.0).abs() < 1e-9);
        assert_eq!(
            latency_ms(Loop::Closed, &[round(vec![r], None)]),
            (0.0, 0.0),
            "closed loops must not read the backlog latency"
        );
        let (p50, p95) = latency_ms(Loop::Open, &rounds);
        assert!((p50 - 760.0).abs() < 1e-9 && (p95 - 1400.0).abs() < 1e-9);
    }

    #[test]
    fn latency_takes_the_trimmed_mean_p50_and_the_lowest_p95() {
        // Five rounds of `frames` frames; the second and the fourth met
        // slow spells.
        let rounds = |frames: u64| {
            [
                (0.020, 0.035),
                (0.090, 0.070),
                (0.018, 0.040),
                (0.022, 0.030),
                (0.024, 0.036),
            ]
            .map(|(p50_s, p95_s)| {
                let r = with_latency(report(frames, frames, 0), p50_s, p95_s);
                round(vec![r], None)
            })
        };
        // The p50 drops the lowest and the highest round and averages the
        // middle three; rounds of 40 frames have a tail, and the lowest
        // round's is taken.
        let (p50, p95) = latency_ms(Loop::Open, &rounds(40));
        assert!((p50 - 22.0).abs() < 1e-9, "trimmed mean of p50: {p50}");
        assert!((p95 - 30.0).abs() < 1e-9, "the lowest round's p95: {p95}");
        // Rounds of three frames have no tail, only a slowest frame: their
        // p95 is averaged like the p50.
        let (p50, p95) = latency_ms(Loop::Open, &rounds(3));
        assert!((p50 - 22.0).abs() < 1e-9);
        assert!((p95 - 37.0).abs() < 1e-9, "trimmed mean of p95: {p95}");
        assert_eq!(runs(&rounds(3)).len(), 5, "probes are not serving runs");
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(
            trimmed_mean(&[1.0, 2.0, 6.0]),
            3.0,
            "fewer than five: none dropped"
        );
        let ten = [100.0, 1.0, 5.0, 4.0, 6.0, 3.0, 7.0, 2.0, 8.0, -50.0];
        assert!(
            (trimmed_mean(&ten) - 4.5).abs() < 1e-12,
            "two dropped at each end"
        );
    }

    #[test]
    fn ready_wait_and_overhead_follow_their_definitions() {
        let mut r = report(8, 8, 0);
        r.e2e_latency.p50_s = 0.024;
        // Median latency 24 ms, traced median service 15 ms: 9 ms waited.
        assert!((ready_wait_ms(&r, 0.015) - 9.0).abs() < 1e-9);
        // Busy 8 ms/frame, pillarize 0.1 ms, a 4-frame forward of 30 ms:
        // 8 - 0.1 - 30 / 4 = 0.4 ms of overhead per frame.
        assert!((fleet_overhead_ms(8.0, 0.1, 30.0, 4.0) - 0.4).abs() < 1e-9);
        assert!((fleet_overhead_ms(8.0, 0.1, 6.0, 1.0) - 1.9).abs() < 1e-9);
    }

    #[test]
    fn report_derived_counters() {
        let mut a = report(40, 30, 10);
        a.batches = 10;
        a.amortized_backbone_ms = 2.0;
        a.total_energy_j = 0.4;
        a.overrides = Some(OverrideSnapshot {
            vru_floor: 3,
            deadline_clamp: 2,
            headroom_fallback: 1,
            vru_unfit: 7,
        });
        let mut b = report(10, 0, 10);
        b.amortized_backbone_ms = 1.0;
        b.duration_s = 3.0;
        // 40 frames in 10 invocations of at most 4.
        assert!((batch_fill(std::slice::from_ref(&a)) - 1.0).abs() < 1e-12);
        b.batches = 10;
        assert!((batch_fill(&[a.clone(), b.clone()]) - 50.0 / 20.0 / 4.0).abs() < 1e-12);
        assert_eq!(overrides(&a), 6, "vru_unfit is not an override firing");
        assert!((full_model_frac(&[a.clone(), b.clone()]) - 0.6).abs() < 1e-12);
        assert!((throughput_fps(&[a.clone(), b.clone()]) - 10.0).abs() < 1e-12);
        assert!((busy_ms(&[a.clone(), b.clone()]) - 1.8).abs() < 1e-12);
        assert!((energy_mj_per_frame(&[a]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_ratio_compares_measured_with_modelled() {
        // Measured 2.2x, modelled 1.1x: the model underpredicts by 2x.
        assert!((speedup_ratio(2.2, 1.0, 1.1, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(speedup_ratio(0.0, 1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
