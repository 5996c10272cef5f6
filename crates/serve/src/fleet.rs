//! The fleet server: hundreds of sensor streams multiplexed over one
//! shared worker pool with cross-stream batching.
//!
//! ```text
//! stream 0 ─┐
//! stream 1 ─┼─ admission ─→ ReadyQueue (EDF + aging) ─→ worker ×W ─→ detections
//!   ⋮       │                                             │
//! stream N ─┘                                   cross-stream batches
//! ```
//!
//! One admission thread paces every stream's frames into the global
//! [`ReadyQueue`](crate::ready::ReadyQueue); `W` workers drain groups of
//! up to `max_batch` jobs in earliest-deadline-first order. Because the
//! queue interleaves *all* streams, a drained group routinely mixes
//! frames from different tenants — the worker offers the group's
//! remaining-budget vector to
//! [`DeadlineScheduler::admit_prefix`] and runs the largest admissible
//! prefix as **one** batched forward pass at a shared ladder rung. The
//! batch must fit the earliest deadline in the prefix, so amortization
//! never sacrifices the most urgent frame; when nothing fits, the head
//! frame is dropped and the rest re-offered (per-frame fallback).
//!
//! Two modes:
//!
//! * [`FleetMode::Realtime`] — frames arrive on each stream's schedule,
//!   per-stream drop-oldest backpressure bounds backlogs, the scheduler
//!   arbitrates budgets, and the EMA latency model adapts online. This is
//!   the deployment shape.
//! * [`FleetMode::Saturate`] — lossless blocking admission in round-robin
//!   stream order, scheduler bypassed at a fixed rung. Every frame is
//!   delivered, which makes throughput comparisons (batched vs.
//!   `max_batch = 1`) and the cross-stream bit-identity tests exact.
//!
//! Preprocessing runs inside the worker (it is variant-independent, so
//! level 0's detector serves every rung), which parallelizes the
//! pillarize/render stage across the pool.
//!
//! A single sensor stream is a fleet of one
//! ([`FleetScenario::single`](upaq_kitti::fleet::FleetScenario::single)):
//! `bin/serve` serves it in Realtime mode, and a one-stream Saturate run
//! is the lossless reference whose detections equal per-frame `detect`.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::ready::{FleetJob, PushVerdict, ReadyQueue};
use crate::report::{FleetReport, RungFrames};
use crate::stream::{StreamCounters, StreamState};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use upaq_det3d::Box3d;
use upaq_hwmodel::EnergyMeter;
use upaq_kitti::faults::FaultPlan;
use upaq_kitti::fleet::FleetScenario;
use upaq_kitti::stream::{Frame, SensorData};
use upaq_models::StreamingDetector;
use upaq_nn::exec::{forward_batch_into, Workspace};
use upaq_runtime::metrics::{BatchStats, LatencyRecorder};
use upaq_runtime::proactive::{ProactiveConfig, ProactivePolicy};
use upaq_runtime::scheduler::{DeadlineScheduler, SchedulerConfig};
use upaq_runtime::variant::VariantLadder;
use upaq_tensor::Tensor;

/// How the server treats time and loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// Paced arrivals, bounded backlogs, deadline-scheduled admission.
    Realtime,
    /// Lossless round-robin admission at a fixed rung, as fast as the
    /// pool drains — the throughput/bit-identity harness.
    Saturate,
}

impl FleetMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            FleetMode::Realtime => "realtime",
            FleetMode::Saturate => "saturate",
        }
    }
}

/// Fleet-server knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Largest group a worker may admit as one batched forward pass.
    pub max_batch: usize,
    /// Per-stream backlog bound in the ready queue (Realtime only):
    /// a stream exceeding it evicts its own oldest queued frame.
    pub per_stream_queue: usize,
    /// Global ready-queue capacity.
    pub ready_capacity: usize,
    /// Scheduler knobs (latency EMA weight, headroom). Each frame's
    /// budget comes from its own stream's deadline.
    pub scheduler: SchedulerConfig,
    /// Time/loss regime.
    pub mode: FleetMode,
    /// A queued frame older than this is starvation-boosted to the front
    /// of the ready queue, seconds.
    pub boost_age_s: f64,
    /// Saturate mode: the ladder rung every frame runs at (default 0).
    pub force_level: Option<usize>,
    /// Proactive detection-history rung steering layered over the
    /// reactive scheduler (Realtime only): after `admit_prefix` fixes the
    /// batch size, the policy may re-pick the rung from the
    /// detection-history score, subject to the VRU-floor and
    /// deadline-headroom overrides. `None` keeps the historical
    /// purely-reactive policy.
    pub proactive: Option<ProactiveConfig>,
    /// Keep every delivered frame's detections in the outcome (the
    /// bit-identity tests need them; fleet-scale runs leave this off).
    pub collect_detections: bool,
    /// Deterministic fault plan overlaid on admitted frames (Realtime
    /// only): payload corruption and stalls apply at admission, panics
    /// and latency spikes inside the workers. `None` = no chaos.
    pub faults: Option<FaultPlan>,
    /// Streams the fault plan poisons. Empty = every stream.
    pub fault_streams: Vec<usize>,
    /// Per-stream circuit breakers (Realtime only): a stream whose
    /// consecutive faults cross the threshold is shed at admission until
    /// its backoff expires, isolating the poison from healthy tenants.
    /// `None` disables breaker gating.
    pub breaker: Option<BreakerConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            max_batch: 4,
            per_stream_queue: 2,
            ready_capacity: 256,
            scheduler: SchedulerConfig::default(),
            mode: FleetMode::Realtime,
            boost_age_s: 0.200,
            force_level: None,
            proactive: None,
            collect_detections: false,
            faults: None,
            fault_streams: Vec::new(),
            breaker: Some(BreakerConfig::default()),
        }
    }
}

/// Everything a finished fleet run produced.
pub struct FleetOutcome {
    /// The run report (one entry of `bin/serve`'s `reports`).
    pub report: FleetReport,
    /// Delivered detections as `(stream, frame id, boxes)`, sorted by
    /// stream then frame id. Empty unless
    /// [`FleetConfig::collect_detections`] was set.
    pub detections: Vec<(usize, u64, Vec<Box3d>)>,
}

/// Shared per-run state the workers write into.
struct WorkerCtx<'a, D: StreamingDetector> {
    ladder: &'a VariantLadder<D>,
    scheduler: &'a DeadlineScheduler,
    streams: &'a [StreamState],
    batch_stats: &'a BatchStats,
    e2e: &'a LatencyRecorder,
    meter: &'a Mutex<EnergyMeter>,
    cross_batches: &'a AtomicU64,
    cross_frames: &'a AtomicU64,
    results: &'a Mutex<Vec<(usize, u64, Vec<Box3d>)>>,
    policy: Option<&'a ProactivePolicy>,
    collect: bool,
    realtime: bool,
    /// Per-stream breakers (index-aligned with `streams`); `None` slots
    /// mean breaker gating is off for that run.
    breakers: &'a [Option<Mutex<CircuitBreaker>>],
    /// Active fault plan, when this is a chaos run.
    faults: Option<&'a FaultPlan>,
    /// Streams the plan poisons (empty = all).
    fault_streams: &'a [usize],
    /// The run clock every breaker timestamp is measured on.
    epoch: Instant,
}

/// Whether the fault plan targets `stream`.
fn fault_applies(fault_streams: &[usize], stream: usize) -> bool {
    fault_streams.is_empty() || fault_streams.contains(&stream)
}

/// The fleet serving engine: a degrade ladder, a stream population, and
/// run configuration.
pub struct FleetServer<D> {
    ladder: VariantLadder<D>,
    scenario: FleetScenario,
    config: FleetConfig,
}

impl<D: StreamingDetector> FleetServer<D>
where
    D::Input: SensorData,
{
    /// A server over a prebuilt ladder and scenario.
    ///
    /// # Panics
    ///
    /// Panics when `force_level` points outside the ladder.
    pub fn new(ladder: VariantLadder<D>, scenario: FleetScenario, config: FleetConfig) -> Self {
        if let Some(level) = config.force_level {
            assert!(level < ladder.len(), "force_level outside the ladder");
        }
        FleetServer {
            ladder,
            scenario,
            config,
        }
    }

    /// The degrade ladder in use.
    pub fn ladder(&self) -> &VariantLadder<D> {
        &self.ladder
    }

    /// The stream population served.
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// The configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs every stream to completion and returns the report (plus
    /// detections when collected).
    pub fn run(&self) -> FleetOutcome {
        let cfg = &self.config;
        let ladder = &self.ladder;
        let scenario = &self.scenario;
        let modality = ladder.level(0).detector.modality();
        let realtime = cfg.mode == FleetMode::Realtime;
        let fixed_level = cfg.force_level.unwrap_or(0);

        // Pre-generate every frame before starting the clock, so arrival
        // pacing measures the serving layer, not dataset synthesis.
        let sources: Vec<Vec<Frame<D::Input>>> = scenario
            .profiles()
            .iter()
            .map(|p| {
                let stream = scenario.stream::<D::Input>(p.id);
                (0..p.frames).map(|k| stream.frame(k)).collect()
            })
            .collect();

        let streams: Vec<StreamState> = scenario
            .profiles()
            .iter()
            .cloned()
            .map(StreamState::new)
            .collect();
        let ready: ReadyQueue<D::Input> = ReadyQueue::new(cfg.ready_capacity.max(1));
        let scheduler = DeadlineScheduler::new(ladder, cfg.scheduler);
        // Saturate mode bypasses admission entirely, so the proactive
        // layer only applies in realtime serving.
        let policy = if realtime {
            cfg.proactive.clone().map(ProactivePolicy::new)
        } else {
            None
        };
        let batch_stats = BatchStats::new();
        let e2e = LatencyRecorder::new();
        let meter = Mutex::new(EnergyMeter::for_modality(modality));
        let results: Mutex<Vec<(usize, u64, Vec<Box3d>)>> = Mutex::new(Vec::new());
        let cross_batches = AtomicU64::new(0);
        let cross_frames = AtomicU64::new(0);
        let seq = AtomicU64::new(0);
        let max_batch = cfg.max_batch.max(1);
        // Chaos and breakers are Realtime-only: Saturate is the lossless
        // bit-identity harness and must stay untouched by supervision.
        let faults = if realtime { cfg.faults.as_ref() } else { None };
        let breakers: Vec<Option<Mutex<CircuitBreaker>>> = streams
            .iter()
            .map(|_| {
                if realtime {
                    cfg.breaker
                        .as_ref()
                        .map(|bc| Mutex::new(CircuitBreaker::new(bc.clone())))
                } else {
                    None
                }
            })
            .collect();
        let started = Instant::now();

        let ctx = WorkerCtx {
            ladder,
            scheduler: &scheduler,
            streams: &streams,
            batch_stats: &batch_stats,
            e2e: &e2e,
            meter: &meter,
            cross_batches: &cross_batches,
            cross_frames: &cross_frames,
            results: &results,
            policy: policy.as_ref(),
            collect: cfg.collect_detections,
            realtime,
            breakers: &breakers,
            faults,
            fault_streams: &cfg.fault_streams,
            epoch: started,
        };

        std::thread::scope(|s| {
            // Admission: one thread paces (or round-robins) every stream
            // into the shared ready queue, then closes it.
            let admission = {
                let (ready, streams, seq) = (&ready, &streams, &seq);
                let (per_stream_cap, mode) = (cfg.per_stream_queue.max(1), cfg.mode);
                let ctx = &ctx;
                s.spawn(move || {
                    match mode {
                        FleetMode::Realtime => admit_realtime(
                            scenario,
                            sources,
                            ready,
                            streams,
                            seq,
                            per_stream_cap,
                            ctx,
                        ),
                        FleetMode::Saturate => admit_saturate(sources, ready, streams, seq),
                    }
                    ready.close();
                })
            };

            let workers: Vec<_> = (0..cfg.workers.max(1))
                .map(|_| {
                    let (ready, ctx) = (&ready, &ctx);
                    let boost_age_s = cfg.boost_age_s;
                    s.spawn(move || {
                        let mut wss: Vec<Workspace> = Vec::new();
                        while let Some(mut group) = ready.pop_group(max_batch, boost_age_s) {
                            for job in &group {
                                if job.boosted {
                                    StreamCounters::bump(&ctx.streams[job.stream].counters.boosts);
                                }
                            }
                            if !ctx.realtime {
                                // Scheduler bypassed: the whole group runs
                                // at the fixed rung as one batch.
                                run_group(ctx, fixed_level, group, &mut wss);
                                continue;
                            }
                            // Boost promotion reorders pops by arrival;
                            // admission needs the group back in EDF order
                            // so the prefix's binding budget is its head.
                            group.sort_by(|a, b| {
                                a.deadline_at()
                                    .cmp(&b.deadline_at())
                                    .then(a.seq.cmp(&b.seq))
                            });
                            let mut rest = group;
                            while !rest.is_empty() {
                                let now = Instant::now();
                                let budgets: Vec<f64> =
                                    rest.iter().map(|j| j.budget_s(now)).collect();
                                match ctx.scheduler.admit_prefix(&budgets) {
                                    None => {
                                        // The head frame fits nowhere:
                                        // drop it, re-offer the rest.
                                        let job = rest.remove(0);
                                        StreamCounters::bump(
                                            &ctx.streams[job.stream].counters.dropped_deadline,
                                        );
                                    }
                                    Some((k, level)) => {
                                        // Proactive steering re-picks only
                                        // the rung; the admitted prefix
                                        // size `k` is never changed.
                                        let level = match ctx.policy {
                                            Some(policy) => policy.clamp_prefix(
                                                ctx.scheduler,
                                                k,
                                                level,
                                                budgets[0],
                                            ),
                                            None => level,
                                        };
                                        let batch: Vec<_> = rest.drain(..k).collect();
                                        run_group(ctx, level, batch, &mut wss);
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();

            admission.join().unwrap();
            for w in workers {
                w.join().unwrap();
            }
        });
        let duration_s = started.elapsed().as_secs_f64();

        let meter = meter.into_inner().unwrap();
        let mut detections = results.into_inner().unwrap();
        detections.sort_by_key(|(stream, id, _)| (*stream, *id));

        let mut per_stream: Vec<_> = streams.iter().map(StreamState::report).collect();
        for (row, breaker) in per_stream.iter_mut().zip(&breakers) {
            row.breaker = breaker.as_ref().map(|b| {
                b.lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .snapshot()
            });
        }
        let sum =
            |f: fn(&crate::stream::StreamReport) -> u64| -> u64 { per_stream.iter().map(f).sum() };
        let completed = sum(|s| s.completed);
        let degraded = sum(|s| s.degraded);
        let delivered = completed + degraded;
        let shares: Vec<f64> = per_stream
            .iter()
            .filter(|s| s.admitted > 0)
            .map(|s| s.delivered_fraction)
            .collect();

        let base_energy_j = ladder.level(0).estimate.energy_j;
        let report = FleetReport {
            scenario: "fleet".into(),
            detector: modality.to_string(),
            mode: cfg.mode.label().to_string(),
            policy: if !realtime {
                "fixed".into()
            } else if policy.is_some() {
                "proactive".into()
            } else {
                "reactive".into()
            },
            streams: scenario.len(),
            workers: cfg.workers.max(1),
            max_batch,
            duration_s,
            admitted: sum(|s| s.admitted),
            completed,
            degraded,
            dropped_backpressure: sum(|s| s.dropped_backpressure),
            dropped_deadline: sum(|s| s.dropped_deadline),
            failed: sum(|s| s.failed),
            faulted: sum(|s| s.faulted),
            quarantined: sum(|s| s.quarantined),
            deadline_misses: sum(|s| s.deadline_misses),
            boosts: sum(|s| s.boosts),
            delivered_fps: if duration_s > 0.0 {
                delivered as f64 / duration_s
            } else {
                0.0
            },
            batches: batch_stats.batches(),
            mean_batch_size: batch_stats.mean_batch_size(),
            amortized_backbone_ms: batch_stats.amortized_backbone_s() * 1e3,
            batch_histogram: batch_stats.histogram(),
            cross_stream_batches: cross_batches.load(Ordering::Relaxed),
            cross_batched_frames: cross_frames.load(Ordering::Relaxed),
            e2e_latency: e2e.summary(),
            total_energy_j: meter.total_energy_j(),
            energy_per_frame_j: meter.mean_energy_j(),
            energy_saved_vs_base_j: meter.counterfactual_energy_j(base_energy_j)
                - meter.total_energy_j(),
            energy_saved_vs_base_frac: meter.savings_vs(base_energy_j),
            overrides: policy.as_ref().map(|p| p.overrides()),
            sparse_activation: None,
            rungs: ladder
                .levels()
                .iter()
                .enumerate()
                .map(|(level, v)| RungFrames {
                    level,
                    name: v.name.clone(),
                    frames: meter
                        .variants()
                        .find(|(name, _)| *name == v.name)
                        .map_or(0, |(_, e)| e.frames),
                })
                .collect(),
            fairness_jain: FleetReport::jain(&shares),
            per_stream,
        };
        debug_assert!(report.accounted(), "fleet lost track of a frame");
        FleetOutcome { report, detections }
    }
}

/// Realtime admission: replay every stream's emission schedule against
/// the wall clock, bounding each stream's backlog by per-tenant
/// drop-oldest. Every eviction/rejection is charged to the right
/// stream's backpressure counter — the handed-back job is never lost.
///
/// This is also where the supervision layer fronts the fleet: an active
/// fault plan corrupts or stalls the targeted streams' frames here, the
/// per-stream circuit breaker sheds frames while open, and the input
/// firewall quarantines frames whose payload fails the defect check —
/// all charged to the owning tenant's `faulted` class before the shared
/// pool ever sees the frame.
#[allow(clippy::too_many_arguments)]
fn admit_realtime<D: StreamingDetector>(
    scenario: &FleetScenario,
    sources: Vec<Vec<Frame<D::Input>>>,
    ready: &ReadyQueue<D::Input>,
    streams: &[StreamState],
    seq: &AtomicU64,
    per_stream_cap: usize,
    ctx: &WorkerCtx<'_, D>,
) where
    D::Input: SensorData,
{
    let mut schedule: Vec<(f64, usize, usize)> = Vec::new();
    for p in scenario.profiles() {
        for k in 0..p.frames {
            schedule.push((p.emit_time_s(k), p.id, k as usize));
        }
    }
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let t0 = Instant::now();
    let mut sources: Vec<Vec<Option<Frame<D::Input>>>> = sources
        .into_iter()
        .map(|frames| frames.into_iter().map(Some).collect())
        .collect();
    for (emit_s, id, k) in schedule {
        let target = t0 + Duration::from_secs_f64(emit_s);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let mut frame = sources[id][k].take().expect("each frame emits once");
        let state = &streams[id];
        StreamCounters::bump(&state.counters.admitted);
        if let Some(plan) = ctx.faults.filter(|_| fault_applies(ctx.fault_streams, id)) {
            let ff = plan.frame(frame.id);
            if let Some(payload) = &ff.payload {
                frame.data.corrupt(payload, plan.salt(frame.id));
            }
            if ff.stall_s > 0.0 {
                // A stalled sensor delivers late: the whole tail of this
                // admission schedule slips, exactly like a real stall.
                std::thread::sleep(Duration::from_secs_f64(ff.stall_s));
            }
        }
        if let Some(breaker) = &ctx.breakers[id] {
            let now_s = ctx.epoch.elapsed().as_secs_f64();
            if !breaker.lock().unwrap().admit(now_s) {
                // Open breaker: shed at admission, never runs.
                StreamCounters::bump(&state.counters.faulted);
                StreamCounters::bump(&state.counters.quarantined);
                continue;
            }
        }
        if frame.data.defect().is_some() {
            // Input firewall: a defective payload is quarantined before
            // it can reach the shared pool, and counts against the
            // stream's breaker streak.
            StreamCounters::bump(&state.counters.faulted);
            StreamCounters::bump(&state.counters.quarantined);
            if let Some(breaker) = &ctx.breakers[id] {
                let now_s = ctx.epoch.elapsed().as_secs_f64();
                breaker.lock().unwrap().record_fault(now_s);
            }
            continue;
        }
        let job = FleetJob {
            stream: id,
            frame,
            arrived: Instant::now(),
            deadline_s: state.profile.deadline_s,
            seq: seq.fetch_add(1, Ordering::Relaxed),
            boosted: false,
        };
        match ready.push_bounded(job, per_stream_cap) {
            PushVerdict::Accepted => {}
            PushVerdict::Evicted(old) => {
                StreamCounters::bump(&streams[old.stream].counters.dropped_backpressure);
            }
            // Global overflow, or a close racing this push: either way
            // the handed-back job is shed load, charged to its tenant.
            PushVerdict::Rejected(back) | PushVerdict::Closed(back) => {
                StreamCounters::bump(&streams[back.stream].counters.dropped_backpressure);
            }
        }
    }
}

/// Saturate admission: interleave streams round-robin (frame 0 of every
/// stream, then frame 1, …) with lossless blocking pushes. The
/// interleaving is what puts different tenants' frames adjacent in the
/// queue, so cross-stream batches form by construction.
fn admit_saturate<T: SensorData>(
    sources: Vec<Vec<Frame<T>>>,
    ready: &ReadyQueue<T>,
    streams: &[StreamState],
    seq: &AtomicU64,
) {
    let mut sources: Vec<std::vec::IntoIter<Frame<T>>> =
        sources.into_iter().map(Vec::into_iter).collect();
    let mut remaining = true;
    while remaining {
        remaining = false;
        for (id, source) in sources.iter_mut().enumerate() {
            let Some(frame) = source.next() else {
                continue;
            };
            remaining = true;
            let state = &streams[id];
            StreamCounters::bump(&state.counters.admitted);
            let job = FleetJob {
                stream: id,
                frame,
                arrived: Instant::now(),
                deadline_s: state.profile.deadline_s,
                seq: seq.fetch_add(1, Ordering::Relaxed),
                boosted: false,
            };
            // Err only after close, which this thread controls; a racing
            // close would still hand the job back — charge it rather
            // than lose it.
            if ready.push_wait(job).is_err() {
                StreamCounters::bump(&state.counters.dropped_backpressure);
            }
        }
    }
}

/// Runs one group as a single batched forward pass at `level` and
/// finishes every member inline (decode, energy, latency, accounting).
/// A failed invocation charges *all* members to their streams' `failed`
/// counters exactly once — the accounting identity stays exact even for
/// multi-stream failures. The forward runs under `catch_unwind`: a
/// panicking invocation (injected or real) charges all members to
/// `faulted`, feeds each member's breaker, and respawns the workspaces —
/// the worker thread itself always survives. A group of one is a batch of
/// one: every group size runs the same executor into the worker's one set
/// of per-slot workspaces.
fn run_group<D: StreamingDetector>(
    ctx: &WorkerCtx<'_, D>,
    level: usize,
    jobs: Vec<FleetJob<D::Input>>,
    wss: &mut Vec<Workspace>,
) {
    let k = jobs.len();
    if k == 0 {
        return;
    }
    // One invocation, one fate: the group's injected faults fold into a
    // single panic flag and the worst latency spike over its members.
    let (inject_panic, spike_s) = match ctx.faults {
        Some(plan) => jobs
            .iter()
            .filter(|job| fault_applies(ctx.fault_streams, job.stream))
            .map(|job| plan.frame(job.frame.id))
            .fold((false, 0.0f64), |(panic, spike), ff| {
                (panic || ff.panic, spike.max(ff.spike_s))
            }),
        None => (false, 0.0),
    };
    let variant = ctx.ladder.level(level);
    // Preprocessing is variant-independent (all rungs share the base
    // detector's input geometry), so level 0's detector serves it.
    let base = &ctx.ladder.level(0).detector;
    let t0 = Instant::now();
    let inputs: Vec<HashMap<String, Tensor>> = jobs
        .iter()
        .map(|job| {
            let mut map = HashMap::new();
            map.insert(
                variant.detector.input_name().to_string(),
                base.preprocess(&job.frame.data),
            );
            map
        })
        .collect();
    let fwd = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected backbone fault (fleet group of {k})");
        }
        forward_batch_into(variant.detector.model(), &inputs, wss).is_ok()
    }));
    let ok = match fwd {
        Err(_panic) => {
            // The unwound workspaces may hold torn activations: respawn
            // them, charge every member once, feed the breakers.
            wss.clear();
            let now_s = ctx.epoch.elapsed().as_secs_f64();
            for job in &jobs {
                StreamCounters::bump(&ctx.streams[job.stream].counters.faulted);
                if let Some(breaker) = &ctx.breakers[job.stream] {
                    breaker.lock().unwrap().record_fault(now_s);
                }
            }
            return;
        }
        Ok(ok) => ok,
    };
    if !ok {
        let now_s = ctx.epoch.elapsed().as_secs_f64();
        for job in &jobs {
            StreamCounters::bump(&ctx.streams[job.stream].counters.failed);
            if let Some(breaker) = &ctx.breakers[job.stream] {
                breaker.lock().unwrap().record_fault(now_s);
            }
        }
        return;
    }
    if spike_s > 0.0 {
        // Injected latency spike: the invocation really takes longer, so
        // the EMA model and the deadline misses see it honestly.
        std::thread::sleep(Duration::from_secs_f64(spike_s));
    }
    // The observed invocation cost includes preprocess: that is the work
    // a worker is busy for per group, which is what future admission
    // budgets must cover.
    let dt = t0.elapsed().as_secs_f64();
    ctx.batch_stats.record(k, dt);
    if ctx.realtime {
        ctx.scheduler.observe_batch(level, k, dt);
    }

    let mut tenant_ids: Vec<usize> = jobs.iter().map(|j| j.stream).collect();
    tenant_ids.sort_unstable();
    tenant_ids.dedup();
    let cross = tenant_ids.len() > 1;
    if cross {
        ctx.cross_batches.fetch_add(1, Ordering::Relaxed);
        ctx.cross_frames.fetch_add(k as u64, Ordering::Relaxed);
    }

    for (job, ws) in jobs.into_iter().zip(wss.iter()) {
        let head_out = &ws.activations()[&variant.head];
        let state = &ctx.streams[job.stream];
        if cross {
            StreamCounters::bump(&state.counters.cross_batched);
        }
        let t1 = Instant::now();
        let dets = variant.detector.postprocess(head_out, &job.frame.data);
        if ctx.realtime {
            ctx.scheduler.observe_post(t1.elapsed().as_secs_f64());
        }
        if let Some(policy) = ctx.policy {
            // Detection feedback drives the next groups' rung steering
            // and the VRU override.
            policy.observe_detections(&dets);
        }
        let e2e_s = job.arrived.elapsed().as_secs_f64();
        state.e2e.record(e2e_s);
        ctx.e2e.record(e2e_s);
        if ctx.realtime && e2e_s > job.deadline_s {
            StreamCounters::bump(&state.counters.deadline_misses);
        }
        if level > 0 {
            StreamCounters::bump(&state.counters.degraded);
        } else {
            StreamCounters::bump(&state.counters.completed);
        }
        if let Some(breaker) = &ctx.breakers[job.stream] {
            // A delivered frame is the success signal that resets the
            // streak or recloses a half-open breaker — unless a fault was
            // recorded after it was admitted.
            let admitted_s = job.arrived.duration_since(ctx.epoch).as_secs_f64();
            breaker.lock().unwrap().record_success(admitted_s);
        }
        ctx.meter
            .lock()
            .unwrap()
            .record(&variant.name, variant.estimate.energy_j);
        if ctx.collect {
            ctx.results
                .lock()
                .unwrap()
                .push((job.stream, job.frame.id, dets));
        }
    }
}
