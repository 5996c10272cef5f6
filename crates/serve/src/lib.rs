//! `upaq-serve` — the serving engine: multiplex one to hundreds of sensor
//! streams over one shared worker pool with cross-stream batching.
//!
//! `upaq-runtime` holds the serving policy (degrade ladder, deadline
//! scheduler, proactive steering); this crate runs it. A single stream is
//! a fleet of one. Every stream in a
//! [`FleetScenario`](upaq_kitti::fleet::FleetScenario) — its own frame
//! rate, phase and deadline — feeds one global ready queue, and a fixed
//! pool of workers drains it in earliest-deadline-first order with
//! starvation aging. Frames from *different* streams that land in the
//! same drain group are run as one batched backbone invocation whenever
//! the batch fits the group's earliest deadline
//! ([`DeadlineScheduler::admit_prefix`](upaq_runtime::scheduler::DeadlineScheduler::admit_prefix)),
//! amortizing the per-invocation fixed cost across tenants while each
//! frame's result stays bit-identical to running it alone.
//!
//! Module map:
//!
//! * [`breaker`] — per-stream circuit breakers (closed → open with
//!   exponential backoff → half-open probe) for tenant isolation under
//!   faults;
//! * [`ready`] — the global EDF + aging ready queue with per-tenant
//!   drop-oldest backpressure;
//! * [`stream`] — per-stream counters, latency, and the
//!   zero-silent-loss accounting identity;
//! * [`fleet`] — the [`FleetServer`] run loop (admission thread + worker
//!   pool, realtime and saturate modes);
//! * [`report`] — the aggregate + per-stream JSON report with Jain
//!   fairness.

pub mod breaker;
pub mod fleet;
pub mod ready;
pub mod report;
pub mod stream;

pub use breaker::{
    BreakerConfig, BreakerSnapshot, BreakerState, BreakerTransitions, CircuitBreaker,
};
pub use fleet::{FleetConfig, FleetMode, FleetOutcome, FleetServer};
pub use ready::{FleetJob, PushVerdict, ReadyQueue};
pub use report::FleetReport;
pub use stream::{StreamCounters, StreamReport, StreamState};
