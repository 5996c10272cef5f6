//! The fleet run report: aggregate throughput, batching, energy and
//! fairness, plus the per-stream accounting table.
//!
//! Fairness is summarized by the Jain index over each stream's delivered
//! fraction (delivered / admitted): 1.0 when every stream got the same
//! share of service, approaching `1/n` when one stream monopolized the
//! pool. The per-stream table carries the full accounting identity, so
//! CI can assert zero silent frame loss tenant by tenant.

use crate::stream::StreamReport;
use upaq_json::{json, ToJson, Value};
use upaq_runtime::metrics::{BatchBucket, LatencySummary};

/// Frames served at one ladder rung — the per-rung execution count CI
/// asserts on when exercising the admission policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungFrames {
    /// Ladder level (0 = full model).
    pub level: usize,
    /// Variant name at this rung (`"base"`, `"UPAQ (LCK)"`, …).
    pub name: String,
    /// Frames delivered at this rung.
    pub frames: u64,
}

impl ToJson for RungFrames {
    fn to_json(&self) -> Value {
        json!({
            "level": self.level,
            "name": self.name,
            "frames": self.frames,
        })
    }
}

/// Everything a finished fleet run reports (one entry of the `reports`
/// list `bin/serve` writes).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scenario label.
    pub scenario: String,
    /// Detector modality served (`"lidar"`, `"camera"`).
    pub detector: String,
    /// Serving mode (`"realtime"`, `"saturate"`).
    pub mode: String,
    /// Admission-policy label: `"reactive"` or `"proactive"` (realtime),
    /// `"fixed"` in saturate mode.
    pub policy: String,
    /// Concurrent streams multiplexed.
    pub streams: usize,
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Largest admissible batch.
    pub max_batch: usize,
    /// Wall-clock duration of the run, seconds.
    pub duration_s: f64,
    /// Frames offered across all streams.
    pub admitted: u64,
    /// Frames delivered at level 0.
    pub completed: u64,
    /// Frames delivered at a degraded rung.
    pub degraded: u64,
    /// Frames shed by backpressure.
    pub dropped_backpressure: u64,
    /// Frames refused by the deadline scheduler.
    pub dropped_deadline: u64,
    /// Frames whose execution failed.
    pub failed: u64,
    /// Frames lost to the fault/supervision layer (identity class):
    /// quarantined at admission, shed by open breakers, or consumed by
    /// isolated panics.
    pub faulted: u64,
    /// Of `faulted`: frames refused at admission (firewall reject or
    /// breaker-open shed).
    pub quarantined: u64,
    /// Delivered frames past their stream's deadline.
    pub deadline_misses: u64,
    /// Starvation-aging promotions across the fleet.
    pub boosts: u64,
    /// Delivered frames per wall-clock second, fleet-wide.
    pub delivered_fps: f64,
    /// Backbone invocations.
    pub batches: u64,
    /// Mean frames per backbone invocation.
    pub mean_batch_size: f64,
    /// Amortized backbone busy time per frame, milliseconds.
    pub amortized_backbone_ms: f64,
    /// Backbone invocations by batch size.
    pub batch_histogram: Vec<BatchBucket>,
    /// Batched invocations that mixed frames from ≥ 2 streams.
    pub cross_stream_batches: u64,
    /// Frames that rode in those cross-stream batches.
    pub cross_batched_frames: u64,
    /// End-to-end latency across all delivered frames.
    pub e2e_latency: LatencySummary,
    /// Total modeled energy charged, joules.
    pub total_energy_j: f64,
    /// Mean modeled energy per delivered frame, joules.
    pub energy_per_frame_j: f64,
    /// Modeled energy saved against delivering every frame on the full
    /// model, joules.
    pub energy_saved_vs_base_j: f64,
    /// The same saving as a fraction of the always-base counterfactual.
    pub energy_saved_vs_base_frac: f64,
    /// Override-rule counters when the proactive policy was active.
    pub overrides: Option<upaq_runtime::proactive::OverrideSnapshot>,
    /// Sparse-activation telemetry: always `None`, since no executor
    /// produces it. It stays while report consumers still build a
    /// `FleetReport` that names it.
    pub sparse_activation: Option<upaq_runtime::SparsityReport>,
    /// Frames delivered per ladder rung, in ladder order.
    pub rungs: Vec<RungFrames>,
    /// Jain fairness index over per-stream delivered fractions.
    pub fairness_jain: f64,
    /// The per-tenant accounting table.
    pub per_stream: Vec<StreamReport>,
}

impl FleetReport {
    /// Frames that produced detections, at any rung.
    pub fn delivered(&self) -> u64 {
        self.completed + self.degraded
    }

    /// The fleet-wide zero-silent-loss invariant: the aggregate identity
    /// holds, every stream's identity holds, and the aggregate equals the
    /// sum of the per-stream rows (no frame counted against the wrong
    /// tenant or dropped from the table).
    pub fn accounted(&self) -> bool {
        let aggregate = self.delivered()
            + self.dropped_backpressure
            + self.dropped_deadline
            + self.failed
            + self.faulted
            == self.admitted;
        let per_stream = self.per_stream.iter().all(StreamReport::accounted);
        let sums = self.per_stream.iter().map(|s| s.admitted).sum::<u64>() == self.admitted
            && self.per_stream.iter().map(|s| s.completed).sum::<u64>() == self.completed
            && self.per_stream.iter().map(|s| s.degraded).sum::<u64>() == self.degraded
            && self
                .per_stream
                .iter()
                .map(|s| s.dropped_backpressure)
                .sum::<u64>()
                == self.dropped_backpressure
            && self
                .per_stream
                .iter()
                .map(|s| s.dropped_deadline)
                .sum::<u64>()
                == self.dropped_deadline
            && self.per_stream.iter().map(|s| s.failed).sum::<u64>() == self.failed
            && self.per_stream.iter().map(|s| s.faulted).sum::<u64>() == self.faulted
            && self.per_stream.iter().map(|s| s.quarantined).sum::<u64>() == self.quarantined;
        aggregate && per_stream && sums
    }

    /// Jain's fairness index of an allocation: `(Σx)² / (n·Σx²)`.
    /// 1.0 for a perfectly even allocation, `1/n` when one member takes
    /// everything. An empty or all-zero allocation is reported as 1.0
    /// (equal shares of nothing).
    pub fn jain(shares: &[f64]) -> f64 {
        if shares.is_empty() {
            return 1.0;
        }
        let sum: f64 = shares.iter().sum();
        let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
        if sum_sq <= 0.0 {
            return 1.0;
        }
        (sum * sum) / (shares.len() as f64 * sum_sq)
    }
}

impl ToJson for FleetReport {
    fn to_json(&self) -> Value {
        json!({
            "scenario": self.scenario,
            "detector": self.detector,
            "mode": self.mode,
            "policy": self.policy,
            "streams": self.streams,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "duration_s": self.duration_s,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "delivered": self.delivered(),
            "dropped_backpressure": self.dropped_backpressure,
            "dropped_deadline": self.dropped_deadline,
            "failed": self.failed,
            "faulted": self.faulted,
            "quarantined": self.quarantined,
            "deadline_misses": self.deadline_misses,
            "boosts": self.boosts,
            "delivered_fps": self.delivered_fps,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "amortized_backbone_ms": self.amortized_backbone_ms,
            "batch_histogram": self.batch_histogram,
            "cross_stream_batches": self.cross_stream_batches,
            "cross_batched_frames": self.cross_batched_frames,
            "e2e_latency": self.e2e_latency,
            "total_energy_j": self.total_energy_j,
            "energy_per_frame_j": self.energy_per_frame_j,
            "energy_saved_vs_base_j": self.energy_saved_vs_base_j,
            "energy_saved_vs_base_frac": self.energy_saved_vs_base_frac,
            "overrides": self.overrides,
            "sparse_activation": self.sparse_activation,
            "rungs": self.rungs,
            "fairness_jain": self.fairness_jain,
            "per_stream": self.per_stream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_row(id: usize, admitted: u64, completed: u64, dropped: u64) -> StreamReport {
        StreamReport {
            id,
            rate_hz: 10.0,
            deadline_s: 0.1,
            admitted,
            completed,
            degraded: 0,
            dropped_backpressure: dropped,
            dropped_deadline: 0,
            failed: 0,
            faulted: 0,
            quarantined: 0,
            breaker: None,
            boosts: 0,
            cross_batched: 0,
            deadline_misses: 0,
            delivered_fraction: if admitted > 0 {
                completed as f64 / admitted as f64
            } else {
                0.0
            },
            e2e_latency: LatencySummary::default(),
        }
    }

    fn report() -> FleetReport {
        FleetReport {
            scenario: "fleet".into(),
            detector: "lidar".into(),
            mode: "realtime".into(),
            policy: "proactive".into(),
            streams: 2,
            workers: 2,
            max_batch: 4,
            duration_s: 1.0,
            admitted: 8,
            completed: 6,
            degraded: 0,
            dropped_backpressure: 2,
            dropped_deadline: 0,
            failed: 0,
            faulted: 0,
            quarantined: 0,
            deadline_misses: 0,
            boosts: 1,
            delivered_fps: 6.0,
            batches: 3,
            mean_batch_size: 2.0,
            amortized_backbone_ms: 5.0,
            batch_histogram: vec![BatchBucket {
                size: 2,
                batches: 3,
            }],
            cross_stream_batches: 2,
            cross_batched_frames: 4,
            e2e_latency: LatencySummary::default(),
            total_energy_j: 1.2,
            energy_per_frame_j: 0.2,
            energy_saved_vs_base_j: 0.6,
            energy_saved_vs_base_frac: 1.0 / 3.0,
            sparse_activation: None,
            overrides: Some(upaq_runtime::proactive::OverrideSnapshot {
                vru_floor: 1,
                deadline_clamp: 0,
                headroom_fallback: 2,
                vru_unfit: 0,
            }),
            rungs: vec![
                RungFrames {
                    level: 0,
                    name: "base".into(),
                    frames: 6,
                },
                RungFrames {
                    level: 1,
                    name: "UPAQ (LCK)".into(),
                    frames: 0,
                },
            ],
            fairness_jain: 0.9,
            per_stream: vec![stream_row(0, 4, 4, 0), stream_row(1, 4, 2, 2)],
        }
    }

    #[test]
    fn jain_index_on_known_allocations() {
        assert_eq!(FleetReport::jain(&[1.0, 1.0, 1.0]), 1.0);
        assert!((FleetReport::jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        // 1/n when one member takes everything.
        assert!((FleetReport::jain(&[0.0, 0.0, 0.0, 1.0]) - 0.25).abs() < 1e-12);
        assert_eq!(FleetReport::jain(&[]), 1.0);
        assert_eq!(FleetReport::jain(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn accounted_checks_aggregate_rows_and_sums() {
        let good = report();
        assert!(good.accounted());
        // A frame charged to the wrong tenant breaks the sum check even
        // when the aggregate identity still balances.
        let mut skewed = report();
        skewed.per_stream[0].completed += 1;
        skewed.per_stream[1].completed -= 1;
        skewed.per_stream[1].dropped_backpressure += 1;
        skewed.per_stream[1].admitted += 1;
        assert!(!skewed.accounted());
        // A silent loss breaks the aggregate identity.
        let mut lossy = report();
        lossy.admitted += 1;
        assert!(!lossy.accounted());
        // A faulted frame balances the identity only when charged at both
        // the aggregate and the owning stream.
        let mut chaotic = report();
        chaotic.admitted += 1;
        chaotic.faulted += 1;
        chaotic.quarantined += 1;
        assert!(!chaotic.accounted(), "stream row not yet charged");
        chaotic.per_stream[0].admitted += 1;
        chaotic.per_stream[0].faulted += 1;
        chaotic.per_stream[0].quarantined += 1;
        assert!(chaotic.accounted());
    }

    #[test]
    fn report_serializes_the_keys_ci_consumes() {
        let v = report().to_json();
        assert_eq!(v.get("delivered").and_then(|x| x.as_f64()), Some(6.0));
        assert_eq!(
            v.get("cross_stream_batches").and_then(|x| x.as_f64()),
            Some(2.0)
        );
        assert_eq!(v.get("fairness_jain").and_then(|x| x.as_f64()), Some(0.9));
        assert_eq!(v.get("faulted").and_then(|x| x.as_f64()), Some(0.0));
        assert_eq!(v.get("quarantined").and_then(|x| x.as_f64()), Some(0.0));
        let rows = v.get("per_stream").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("admitted").and_then(|x| x.as_f64()), Some(4.0));
        let text = v.pretty();
        assert!(text.contains("mean_batch_size"));
        assert!(text.contains("delivered_fps"));
        assert_eq!(v.get("policy").and_then(|x| x.as_str()), Some("proactive"));
        assert!(text.contains("energy_saved_vs_base_frac"));
        let ov = v.get("overrides").unwrap();
        assert_eq!(ov.get("vru_floor").and_then(|x| x.as_f64()), Some(1.0));
        let rungs = v.get("rungs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(rungs[0].get("frames").and_then(|x| x.as_f64()), Some(6.0));
        assert_eq!(rungs[1].get("level").and_then(|x| x.as_f64()), Some(1.0));
    }
}
