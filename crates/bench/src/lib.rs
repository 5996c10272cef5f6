//! Benchmark harness regenerating every table and figure of the UPAQ paper.
//!
//! Binaries (each prints the corresponding paper artifact and saves a JSON
//! record under `target/upaq-results/`):
//!
//! * `table1` — model size vs execution time (paper Table 1);
//! * `table2` — the full framework comparison (paper Table 2) for
//!   PointPillars and SMOKE: compression ×, mAP, inference time and energy
//!   on the Jetson Orin Nano and RTX 4080 models;
//! * `fig4` — inference speedups per framework (paper Fig. 4);
//! * `fig5` — energy reductions per framework (paper Fig. 5);
//! * `fig6` — qualitative BEV detections, ground truth vs predictions
//!   (paper Fig. 6), rendered as ASCII bird's-eye-view maps;
//! * `ablation` — design-choice ablations DESIGN.md calls out (pattern
//!   families, score weights, 1×1 transform, mixed precision).
//!
//! [`serving::independent_fleets`] is the dedicated-server baseline
//! `bin/fleet` and `bench_fleet` measure consolidation against.
//!
//! Environment knobs: `UPAQ_SCENES` (dataset size), `UPAQ_REFIT` (training
//! scenes used for head fits), `UPAQ_SEED`.

pub mod harness;
pub mod paper;
pub mod render;
pub mod serving;
pub mod table;

pub use harness::{HarnessConfig, Row, Table2Result};
