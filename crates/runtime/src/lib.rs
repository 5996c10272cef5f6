//! `upaq-runtime` — the serving policy shared by every stream: the UPAQ
//! degrade ladder, deadline-aware admission over it, proactive rung
//! steering, and the metrics the run report is built from.
//!
//! The serving engine itself is `upaq_serve::FleetServer`; a single
//! sensor stream is a fleet of one. This crate holds what that engine
//! consults per batch: a deadline scheduler decides how many queued
//! frames run as one invocation and on which rung — the full model, a
//! cheaper UPAQ-compressed variant (ordered by the paper's efficiency
//! score), or nothing, dropping the head frame — with the hardware model
//! as the cost oracle for both the schedule and the modeled energy
//! report. Everything is generic over `upaq_models::StreamingDetector`,
//! so the PointPillars/LiDAR and SMOKE/camera paths share it.
//!
//! Module map:
//!
//! * [`variant`] — the degrade ladder (base → UPAQ LCK → UPAQ HCK);
//! * [`scheduler`] — deadline-aware prefix admission over the ladder;
//! * [`proactive`] — detection-history rung steering with VRU-safety and
//!   deadline-headroom overrides layered over the scheduler;
//! * [`metrics`] — latency percentiles, batch statistics and
//!   sparse-activation telemetry.

pub mod metrics;
pub mod proactive;
pub mod scheduler;
pub mod variant;

pub use metrics::{
    BatchBucket, BatchStats, LatencyRecorder, LatencySummary, LayerSparsityReport, SparsityAgg,
    SparsityReport,
};
pub use proactive::{OverrideCounters, OverrideSnapshot, ProactiveConfig, ProactivePolicy};
pub use scheduler::{DeadlineScheduler, SchedulerConfig};
pub use upaq_nn::sparse::SparseExecConfig;
pub use variant::{VariantLadder, VariantSpec};
