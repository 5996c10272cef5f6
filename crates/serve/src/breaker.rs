//! Per-stream circuit breakers: tenant isolation for the fleet server.
//!
//! A stream whose sensor has gone bad (NaN bursts, truncated frames,
//! panicking payloads) would otherwise keep feeding poison through
//! admission, burning shared-pool time on frames that can only be
//! quarantined or cancelled. The breaker turns that stream's failure
//! history into an admission gate with the classic three-state machine:
//!
//! ```text
//!            fault_threshold consecutive faults
//!   Closed ───────────────────────────────────────→ Open
//!     ↑                                               │ backoff expires
//!     │ probe succeeds                                ▼
//!     └───────────────────────────────────────── HalfOpen
//!                     probe faults: reopen, backoff ×2 (capped)
//! ```
//!
//! * **Closed** — frames admitted normally; each success resets the
//!   consecutive-fault count.
//! * **Open** — frames shed at admission (charged to the stream as
//!   quarantined `faulted`, never run) until the backoff window expires.
//! * **HalfOpen** — exactly one probe frame is admitted; its outcome
//!   decides between reclosing and reopening with doubled (capped)
//!   backoff. A probe whose outcome never arrives (its frame was shed
//!   downstream) self-heals: after a further backoff the breaker allows
//!   the next probe rather than sticking half-open forever.
//!
//! Outcomes arrive in completion order, not admission order, so a success
//! only counts for a frame admitted after the latest fault: a straggler
//! admitted before a fault and delivered after it says nothing about the
//! stream since, and must not reset the streak (or reclose a half-open
//! breaker) under the poison that followed it.
//!
//! All methods take times as seconds on the caller's run clock — the
//! breaker never reads a clock itself, which keeps its unit tests exact
//! and lets the fleet drive every breaker off one epoch.

use upaq_json::{json, ToJson, Value};

/// Breaker tuning knobs.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive faults (no success from a frame admitted in between)
    /// that trip Closed → Open.
    pub fault_threshold: u32,
    /// First open window, seconds; doubles on every failed probe.
    pub open_backoff_s: f64,
    /// Backoff growth cap, seconds.
    pub max_backoff_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            fault_threshold: 3,
            open_backoff_s: 0.050,
            max_backoff_s: 0.800,
        }
    }
}

/// The three admission states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: admit everything.
    Closed,
    /// Tripped: shed everything until the backoff window expires.
    Open,
    /// Probing: one frame in flight decides reclose vs. reopen.
    HalfOpen,
}

impl BreakerState {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Lifetime transition counts — the report's evidence that the breaker
/// actually cycled rather than sitting in one state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Closed→Open trips plus HalfOpen→Open reopens.
    pub opened: u64,
    /// Open→HalfOpen probe admissions.
    pub half_opened: u64,
    /// HalfOpen→Closed recoveries.
    pub reclosed: u64,
}

/// Snapshot of one breaker for the per-stream report row.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSnapshot {
    /// State when the run drained.
    pub state: &'static str,
    /// Lifetime transition counts.
    pub transitions: BreakerTransitions,
}

impl ToJson for BreakerSnapshot {
    fn to_json(&self) -> Value {
        json!({
            "state": self.state,
            "opened": self.transitions.opened,
            "half_opened": self.transitions.half_opened,
            "reclosed": self.transitions.reclosed,
        })
    }
}

/// One stream's breaker state machine. Not internally synchronized —
/// the fleet wraps each in a mutex shared by admission and the workers.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_faults: u32,
    /// Current open-window length; doubles per failed probe, capped.
    backoff_s: f64,
    /// When the open window expires (run-clock seconds).
    open_until_s: f64,
    /// When the outstanding half-open probe was admitted.
    probe_sent_s: f64,
    /// When the latest fault was recorded (run-clock seconds).
    last_fault_s: f64,
    transitions: BreakerTransitions,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        let backoff_s = cfg.open_backoff_s.max(1e-9);
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_faults: 0,
            backoff_s,
            open_until_s: 0.0,
            probe_sent_s: 0.0,
            last_fault_s: f64::NEG_INFINITY,
            transitions: BreakerTransitions::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime transition counts.
    pub fn transitions(&self) -> BreakerTransitions {
        self.transitions
    }

    /// Report snapshot.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state.label(),
            transitions: self.transitions,
        }
    }

    /// Admission decision for one frame at `now_s`. `false` means the
    /// caller must shed the frame (and charge it — the breaker never
    /// counts frames itself).
    pub fn admit(&mut self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_s >= self.open_until_s {
                    self.state = BreakerState::HalfOpen;
                    self.probe_sent_s = now_s;
                    self.transitions.half_opened += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                // Probe-stuck self-heal: the outstanding probe's outcome
                // never came back (its frame was shed downstream), so
                // after a further backoff allow the next frame to probe.
                if now_s - self.probe_sent_s >= self.backoff_s {
                    self.probe_sent_s = now_s;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successfully served frame for this stream, admitted at
    /// `admitted_s`. A frame admitted before the latest fault is a
    /// straggler and leaves the breaker untouched.
    pub fn record_success(&mut self, admitted_s: f64) {
        if admitted_s <= self.last_fault_s {
            return;
        }
        match self.state {
            BreakerState::Closed => self.consecutive_faults = 0,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive_faults = 0;
                self.backoff_s = self.cfg.open_backoff_s.max(1e-9);
                self.transitions.reclosed += 1;
            }
            // A straggler admitted before the trip finished after it;
            // its success says nothing about the post-trip stream.
            BreakerState::Open => {}
        }
    }

    /// Records a faulted frame (quarantined at the firewall, panicked,
    /// or failed) for this stream.
    pub fn record_fault(&mut self, now_s: f64) {
        self.last_fault_s = self.last_fault_s.max(now_s);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_faults += 1;
                if self.consecutive_faults >= self.cfg.fault_threshold.max(1) {
                    self.state = BreakerState::Open;
                    self.open_until_s = now_s + self.backoff_s;
                    self.transitions.opened += 1;
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: reopen with doubled, capped backoff.
                self.backoff_s = (self.backoff_s * 2.0).min(self.cfg.max_backoff_s.max(1e-9));
                self.state = BreakerState::Open;
                self.open_until_s = now_s + self.backoff_s;
                self.transitions.opened += 1;
            }
            // Stragglers while open don't extend the window: the probe
            // schedule stays bounded by the backoff alone.
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            fault_threshold: 3,
            open_backoff_s: 0.050,
            max_backoff_s: 0.150,
        })
    }

    #[test]
    fn trips_only_on_consecutive_faults() {
        let mut b = breaker();
        b.record_fault(0.0);
        b.record_fault(0.001);
        // A success resets the streak: two more faults stay closed.
        b.record_success(0.002);
        b.record_fault(0.003);
        b.record_fault(0.004);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(0.005));
        b.record_fault(0.006);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().opened, 1);
        assert!(!b.admit(0.010), "inside the open window: shed");
    }

    #[test]
    fn half_open_probe_recloses_on_success() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_fault(t as f64 * 1e-3);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Backoff expires at 0.002 + 0.050.
        assert!(!b.admit(0.050));
        assert!(b.admit(0.060), "backoff expired: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit(0.061), "only one probe in flight");
        b.record_success(0.065);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions().reclosed, 1);
        assert!(b.admit(0.066));
    }

    #[test]
    fn failed_probe_doubles_backoff_up_to_the_cap() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_fault(t as f64 * 1e-3);
        }
        // Probe 1 fails: backoff 0.050 → 0.100.
        assert!(b.admit(0.060));
        b.record_fault(0.061);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(0.130), "0.100 window from 0.061 not yet over");
        // Probe 2 fails: backoff 0.100 → 0.150 (capped, not 0.200).
        assert!(b.admit(0.165));
        b.record_fault(0.166);
        assert!(!b.admit(0.300));
        assert!(b.admit(0.320));
        assert_eq!(b.transitions().opened, 3);
        assert_eq!(b.transitions().half_opened, 3);
        // Recovery resets the backoff to its initial value.
        b.record_success(0.321);
        for t in 0..3 {
            b.record_fault(0.4 + t as f64 * 1e-3);
        }
        assert!(!b.admit(0.43));
        assert!(b.admit(0.46), "fresh trip uses the initial 0.050 backoff");
    }

    #[test]
    fn stuck_probe_self_heals() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_fault(t as f64 * 1e-3);
        }
        assert!(b.admit(0.060), "probe admitted");
        // The probe's outcome never arrives (shed downstream). After a
        // further backoff the breaker allows the next probe instead of
        // blackholing the stream forever.
        assert!(!b.admit(0.080));
        assert!(b.admit(0.120));
        b.record_success(0.121);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn snapshot_serializes_state_and_transitions() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_fault(t as f64 * 1e-3);
        }
        let v = b.snapshot().to_json();
        assert_eq!(v.get("state").and_then(|x| x.as_str()), Some("open"));
        assert_eq!(v.get("opened").and_then(|x| x.as_f64()), Some(1.0));
        assert_eq!(v.get("reclosed").and_then(|x| x.as_f64()), Some(0.0));
    }

    /// Successes complete out of admission order: each clean frame is
    /// delivered after the next frame's fault was recorded. Those late
    /// successes were admitted before the fault, so they must not reset
    /// the streak — two faults trip a threshold-2 breaker.
    #[test]
    fn late_successes_admitted_before_a_fault_do_not_reset_the_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            fault_threshold: 2,
            open_backoff_s: 0.050,
            max_backoff_s: 0.400,
        });
        // Frame 0 admitted clean at 0.00; frame 1 rejected at 0.10.
        assert!(b.admit(0.00));
        b.record_fault(0.10);
        // Frame 0 is delivered at 0.15: a straggler.
        b.record_success(0.00);
        // Frame 2 admitted clean at 0.20; frame 3 rejected at 0.30 trips.
        assert!(b.admit(0.20));
        b.record_fault(0.30);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().opened, 1);
        // Frame 2 is delivered after the trip; frame 4 faults while open.
        b.record_success(0.20);
        assert!(!b.admit(0.32), "inside the open window: shed");
        b.record_fault(0.33);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().opened, 1);
        // A frame admitted after the faults still recloses a probe.
        assert!(b.admit(0.40));
        b.record_success(0.40);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn stale_success_never_recloses_a_half_open_breaker() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_fault(t as f64 * 1e-3);
        }
        assert!(b.admit(0.060), "probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A frame admitted before the trip completes now: not the probe.
        b.record_success(0.0015);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(0.060);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_stragglers_do_not_extend_the_window() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_fault(t as f64 * 1e-3);
        }
        // Late outcomes from frames admitted before the trip.
        b.record_fault(0.030);
        b.record_success(0.040);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit(0.060), "window still expires on the trip schedule");
    }
}
