//! Per-tenant accounting: every stream owns its own counters and
//! end-to-end latency distribution, so the fleet report can show who got
//! served, who got degraded, and who got shed — per stream, not just in
//! aggregate.
//!
//! The counter classes are disjoint and exhaustive, split by delivered
//! level: a frame the stream offered to the server
//! (`admitted`) ends up in exactly one of `completed` (delivered at
//! level 0), `degraded` (delivered at a cheaper rung),
//! `dropped_backpressure`, `dropped_deadline`, `failed`, or `faulted`
//! (quarantined at the admission firewall, shed by an open circuit
//! breaker, or lost to an isolated panic). The
//! [`StreamCounters::accounted`] identity is the fleet's zero-silent-loss
//! invariant; CI asserts it for every stream.

use crate::breaker::BreakerSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use upaq_json::{json, ToJson, Value};
use upaq_kitti::fleet::StreamProfile;
use upaq_runtime::metrics::{LatencyRecorder, LatencySummary};

/// Lock-free per-stream frame accounting.
#[derive(Debug, Default)]
pub struct StreamCounters {
    /// Frames the stream's source offered to the serving layer.
    pub admitted: AtomicU64,
    /// Frames delivered at ladder level 0 (full accuracy).
    pub completed: AtomicU64,
    /// Frames delivered at a degraded rung (level > 0). Disjoint from
    /// `completed`: a frame is one or the other, never both.
    pub degraded: AtomicU64,
    /// Frames evicted by the per-stream backlog bound or a full ready
    /// queue.
    pub dropped_backpressure: AtomicU64,
    /// Frames the deadline scheduler refused (no rung fits the budget).
    pub dropped_deadline: AtomicU64,
    /// Frames whose forward pass errored or whose delivery was refused.
    pub failed: AtomicU64,
    /// Frames lost to the fault/supervision layer: quarantined at the
    /// admission firewall, shed by an open circuit breaker, or consumed
    /// by an isolated worker panic. An identity class.
    pub faulted: AtomicU64,
    /// Annotation (⊆ `faulted`): frames refused *at admission* — firewall
    /// rejects plus breaker-open sheds — as opposed to execution faults.
    pub quarantined: AtomicU64,
    /// Times starvation aging promoted one of this stream's frames.
    pub boosts: AtomicU64,
    /// Delivered frames that ran in a batch alongside *other* streams'
    /// frames.
    pub cross_batched: AtomicU64,
    /// Delivered frames that still missed the stream's deadline.
    pub deadline_misses: AtomicU64,
}

impl StreamCounters {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Frames that produced detections, at any rung.
    pub fn delivered(&self) -> u64 {
        StreamCounters::get(&self.completed) + StreamCounters::get(&self.degraded)
    }

    /// Zero-silent-loss identity: every admitted frame is delivered,
    /// dropped, failed, or faulted — exactly once. Holds after the
    /// server drains.
    pub fn accounted(&self) -> bool {
        self.delivered()
            + StreamCounters::get(&self.dropped_backpressure)
            + StreamCounters::get(&self.dropped_deadline)
            + StreamCounters::get(&self.failed)
            + StreamCounters::get(&self.faulted)
            == StreamCounters::get(&self.admitted)
    }
}

/// One stream's live serving state: identity plus counters plus latency.
#[derive(Debug)]
pub struct StreamState {
    /// The scenario profile this stream serves.
    pub profile: StreamProfile,
    /// Frame accounting.
    pub counters: StreamCounters,
    /// End-to-end latency samples (arrival → detections).
    pub e2e: LatencyRecorder,
}

impl StreamState {
    /// Fresh state for a scenario profile.
    pub fn new(profile: StreamProfile) -> Self {
        StreamState {
            profile,
            counters: StreamCounters::default(),
            e2e: LatencyRecorder::new(),
        }
    }

    /// Snapshot for the fleet report.
    pub fn report(&self) -> StreamReport {
        let c = &self.counters;
        let admitted = StreamCounters::get(&c.admitted);
        let delivered = c.delivered();
        StreamReport {
            id: self.profile.id,
            rate_hz: self.profile.rate_hz,
            deadline_s: self.profile.deadline_s,
            admitted,
            completed: StreamCounters::get(&c.completed),
            degraded: StreamCounters::get(&c.degraded),
            dropped_backpressure: StreamCounters::get(&c.dropped_backpressure),
            dropped_deadline: StreamCounters::get(&c.dropped_deadline),
            failed: StreamCounters::get(&c.failed),
            faulted: StreamCounters::get(&c.faulted),
            quarantined: StreamCounters::get(&c.quarantined),
            breaker: None,
            boosts: StreamCounters::get(&c.boosts),
            cross_batched: StreamCounters::get(&c.cross_batched),
            deadline_misses: StreamCounters::get(&c.deadline_misses),
            delivered_fraction: if admitted > 0 {
                delivered as f64 / admitted as f64
            } else {
                0.0
            },
            e2e_latency: self.e2e.summary(),
        }
    }
}

/// Per-stream section of the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream index.
    pub id: usize,
    /// Frame rate, Hz.
    pub rate_hz: f64,
    /// Per-frame deadline, seconds.
    pub deadline_s: f64,
    /// Frames offered to the serving layer.
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
    /// Frames lost to the fault/supervision layer (identity class).
    pub faulted: u64,
    /// Of `faulted`: frames refused at admission (firewall reject or
    /// breaker-open shed).
    pub quarantined: u64,
    /// This stream's circuit-breaker snapshot, when breakers were on.
    /// Attached by the fleet after the run drains (the stream state
    /// itself never sees the breaker).
    pub breaker: Option<BreakerSnapshot>,
    /// Starvation-aging promotions.
    pub boosts: u64,
    /// Delivered frames batched with other streams.
    pub cross_batched: u64,
    /// Delivered frames past their deadline.
    pub deadline_misses: u64,
    /// Delivered / admitted (0 when nothing was admitted).
    pub delivered_fraction: f64,
    /// End-to-end latency distribution.
    pub e2e_latency: LatencySummary,
}

impl StreamReport {
    /// Frames that produced detections, at any rung.
    pub fn delivered(&self) -> u64 {
        self.completed + self.degraded
    }

    /// The zero-silent-loss identity on this snapshot.
    pub fn accounted(&self) -> bool {
        self.delivered()
            + self.dropped_backpressure
            + self.dropped_deadline
            + self.failed
            + self.faulted
            == self.admitted
    }
}

impl ToJson for StreamReport {
    fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "rate_hz": self.rate_hz,
            "deadline_ms": self.deadline_s * 1e3,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "dropped_backpressure": self.dropped_backpressure,
            "dropped_deadline": self.dropped_deadline,
            "failed": self.failed,
            "faulted": self.faulted,
            "quarantined": self.quarantined,
            "breaker": self.breaker,
            "boosts": self.boosts,
            "cross_batched": self.cross_batched,
            "deadline_misses": self.deadline_misses,
            "delivered_fraction": self.delivered_fraction,
            "e2e_latency": self.e2e_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> StreamProfile {
        StreamProfile {
            id: 3,
            seed: 42,
            rate_hz: 10.0,
            phase_s: 0.01,
            frames: 8,
            deadline_s: 0.150,
            gaps_s: Vec::new(),
        }
    }

    #[test]
    fn accounting_identity_tracks_every_class() {
        let c = StreamCounters::default();
        for _ in 0..7 {
            StreamCounters::bump(&c.admitted);
        }
        StreamCounters::bump(&c.completed);
        StreamCounters::bump(&c.degraded);
        StreamCounters::bump(&c.dropped_backpressure);
        StreamCounters::bump(&c.dropped_deadline);
        StreamCounters::bump(&c.failed);
        StreamCounters::bump(&c.faulted);
        assert_eq!(c.delivered(), 2);
        assert!(!c.accounted(), "one admitted frame is still unaccounted");
        StreamCounters::bump(&c.completed);
        assert!(c.accounted());
        // Boosts, misses, cross-batch tags and the quarantined subset are
        // annotations, not accounting classes: they never unbalance the
        // identity.
        StreamCounters::bump(&c.boosts);
        StreamCounters::bump(&c.cross_batched);
        StreamCounters::bump(&c.deadline_misses);
        StreamCounters::bump(&c.quarantined);
        assert!(c.accounted());
    }

    #[test]
    fn report_snapshot_carries_identity_and_fraction() {
        let state = StreamState::new(profile());
        for _ in 0..4 {
            StreamCounters::bump(&state.counters.admitted);
        }
        StreamCounters::bump(&state.counters.completed);
        StreamCounters::bump(&state.counters.degraded);
        StreamCounters::bump(&state.counters.dropped_deadline);
        StreamCounters::bump(&state.counters.failed);
        state.e2e.record(0.020);
        let r = state.report();
        assert_eq!(r.id, 3);
        assert_eq!(r.delivered(), 2);
        assert!(r.accounted());
        assert!((r.delivered_fraction - 0.5).abs() < 1e-12);
        assert_eq!(r.e2e_latency.count, 1);
        let v = r.to_json();
        assert_eq!(v.get("admitted").and_then(|x| x.as_f64()), Some(4.0));
        assert_eq!(v.get("deadline_ms").and_then(|x| x.as_f64()), Some(150.0));
        assert_eq!(v.get("faulted").and_then(|x| x.as_f64()), Some(0.0));
        assert_eq!(v.get("quarantined").and_then(|x| x.as_f64()), Some(0.0));
        assert!(v.pretty().contains("delivered_fraction"));
    }

    #[test]
    fn faulted_balances_the_identity_and_quarantined_is_a_subset_tag() {
        let state = StreamState::new(profile());
        for _ in 0..3 {
            StreamCounters::bump(&state.counters.admitted);
        }
        StreamCounters::bump(&state.counters.completed);
        // Two frames lost to the supervision layer, one of them refused
        // at admission.
        StreamCounters::bump(&state.counters.faulted);
        StreamCounters::bump(&state.counters.faulted);
        StreamCounters::bump(&state.counters.quarantined);
        let r = state.report();
        assert!(r.accounted());
        assert_eq!(r.faulted, 2);
        assert_eq!(r.quarantined, 1);
        assert!(r.breaker.is_none(), "fleet attaches breaker snapshots");
    }

    #[test]
    fn empty_stream_reports_zero_fraction_and_accounts() {
        let r = StreamState::new(profile()).report();
        assert_eq!(r.admitted, 0);
        assert_eq!(r.delivered_fraction, 0.0);
        assert!(r.accounted());
    }
}
