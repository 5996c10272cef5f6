//! The three workloads: their inputs, their serving runs through the
//! public `FleetServer` API, and the checks on what they deliver.
//!
//! Every workload repeats one fixed unit of work, a round, until
//! `--seconds` have passed (at least [`MIN_ROUNDS`] times); see
//! [`crate::metrics::Round`] for how the rounds become metrics.

use std::collections::HashMap;
use std::time::Instant;
use upaq_det3d::Box3d;
use upaq_kitti::fleet::{FleetScenario, FleetScenarioConfig, StreamClass};
use upaq_kitti::lidar::PointCloud;
use upaq_kitti::scenario::{self as catalog, ScenarioProfile};
use upaq_kitti::scene::Scene;
use upaq_kitti::stream::{Frame, FrameStream};
use upaq_models::LidarDetector;
use upaq_runtime::ProactiveConfig;
use upaq_serve::{FleetConfig, FleetMode, FleetOutcome, FleetReport, FleetServer};

use crate::metrics::{self, Loop, Round};
use crate::setup::{nominal, Error, Ladder, Scale};

/// Rounds every run serves at least, however long they take.
pub const MIN_ROUNDS: usize = 3;
/// fleet-saturate: streams multiplexed over the pool.
const FLEET_STREAMS: usize = 32;
/// fleet-saturate: distinct scenes per stream. A round is one lossless
/// pass over the 32 × 12 = 384 scenes (1.5–3 s on one worker), which
/// keeps `map_pct` within a few percent across seeds.
const FLEET_SCENES: u64 = 12;
/// Closed loops' latency probe: deadline of the probe stream's frames,
/// generous enough that the scheduler keeps every frame on rung 0.
const PROBE_DEADLINE_S: f64 = 10.0;
/// fleet-saturate probe, once per round: at 50 Hz the worker is idle on
/// every arrival (a tiny frame takes 4–10 ms); the p95 of 40 frames is
/// the third slowest.
const FLEET_PROBE: Probe = Probe {
    rate_hz: 50.0,
    frames: 40,
};
/// rig-realtime: lidars on one trigger.
const RIG_STREAMS: usize = 4;
/// rig-realtime: trigger rate, Hz (the highway profile's own frame rate).
const RIG_RATE_HZ: f64 = 20.0;
/// rig-realtime: triggers per round (2 s; 160 frames, so a round's p95
/// is its eighth slowest frame).
const RIG_TRIGGERS: u64 = 40;
/// rig-realtime: the scene mix. On sparse highway scenes the proactive
/// policy steers every batch to HCK and no VRU floor fires. Mixed traffic
/// (`nominal`, `rush-hour`) splits the frames between base and HCK, whose
/// service times differ 2.9×, and the median latency then moves with
/// each round's rung mix (see README.md).
const RIG_PROFILE: &str = "empty-highway";
/// paper-ladder: distinct scenes the single stream cycles through.
const PAPER_SCENES: u64 = 2;
/// paper-ladder: frames each rung serves per round.
const PAPER_FRAMES: u64 = 1;
/// paper-ladder probe, once per round: one full-model frame every two
/// seconds (a paper-scale frame takes 0.6–1.2 s on one thread).
const PAPER_PROBE: Probe = Probe {
    rate_hz: 0.5,
    frames: 3,
};

/// A closed loop's latency probe: one stream's rate and length.
struct Probe {
    rate_hz: f64,
    frames: u64,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop capacity of 32 tiny streams at rung 0.
    FleetSaturate,
    /// Open-loop four-lidar rig under the proactive realtime policy.
    RigRealtime,
    /// Paper-scale ladder build, then each rung served closed loop.
    PaperLadder,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetSaturate,
        Workload::RigRealtime,
        Workload::PaperLadder,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSaturate => "fleet-saturate",
            Workload::RigRealtime => "rig-realtime",
            Workload::PaperLadder => "paper-ladder",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Detector size.
    pub fn scale(self) -> Scale {
        match self {
            Workload::PaperLadder => Scale::Paper,
            _ => Scale::Tiny,
        }
    }

    /// Open or closed loop.
    pub fn loop_kind(self) -> Loop {
        match self {
            Workload::RigRealtime => Loop::Open,
            _ => Loop::Closed,
        }
    }

    /// Set-ups per run; `setup_s` is the fastest. A tiny set-up takes
    /// ≈ 0.2 s and single set-ups swing by half on a shared host, so it
    /// is repeated over two to five seconds; a paper-scale one takes 6–10 s.
    pub fn set_ups(self) -> usize {
        match self {
            Workload::PaperLadder => 2,
            _ => 16,
        }
    }
}

/// The frames a workload serves, by stream and frame id.
pub struct Inputs {
    /// The stream population handed to the server.
    pub scenario: FleetScenario,
    streams: Vec<FrameStream<PointCloud>>,
}

impl Inputs {
    fn new(scenario: FleetScenario) -> Self {
        let streams = (0..scenario.len())
            .map(|id| scenario.stream::<PointCloud>(id))
            .collect();
        Inputs { scenario, streams }
    }

    /// Frame `id` of stream `stream`, exactly as the server generates it.
    pub fn frame(&self, stream: usize, id: u64) -> Frame<PointCloud> {
        self.streams[stream].frame(id)
    }

    /// Ground truth of frame `id` of stream `stream`.
    pub fn scene(&self, stream: usize, id: u64) -> &Scene {
        let index = self.frame_scene(stream, id);
        self.streams[stream].dataset().scene(index)
    }

    fn frame_scene(&self, stream: usize, id: u64) -> usize {
        (id % self.streams[stream].dataset().len() as u64) as usize
    }
}

/// One admitted frame and what became of it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Stream index.
    pub stream: usize,
    /// Frame id within the stream (the trigger, on the rig).
    pub id: u64,
    /// The rung that served the delivery (see [`resolve_rungs`]).
    pub level: Option<usize>,
    /// The delivered detections (`None` when the frame was not delivered).
    pub boxes: Option<Vec<Box3d>>,
}

/// Everything an untraced workload run produced.
pub struct Outcome {
    /// The rounds served, in order.
    pub rounds: Vec<Round>,
    /// The first round's frames (the traced run replays them).
    pub inputs: Inputs,
    /// The frames the traced run replays, in admission order: the first
    /// round's (paper-ladder: every round's).
    pub frames: Vec<Served>,
    /// `map_pct` (see README.md): centre-distance mAP of the deliveries
    /// (fleet-saturate: the first round; rig-realtime: every round), or
    /// on paper-ladder the share of deliveries equal to their rung's
    /// `detect`.
    pub accuracy_pct: f64,
    /// Scheduled emit time of the first round's last frame, seconds (open
    /// loops).
    pub last_emit_s: f64,
    /// Peak resident set after the first serving run, MB (see
    /// `peak_rss_mb`).
    pub peak_rss_mb: f64,
    /// Output-check failures; empty when every check passed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The first round's serving runs.
    pub fn first_runs(&self) -> &[FleetReport] {
        &self.rounds[0].runs
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
///
/// Workloads read it right after their first serving run. Later runs
/// repeat the same work in fresh worker threads, and which allocator
/// arena each of them reuses moves the high-water mark by up to 15% at
/// random with the program unchanged; through the first run it repeats
/// within 2%.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Serves rounds until `seconds` have passed and at least [`MIN_ROUNDS`]
/// ran; `round(r)` serves round `r`.
fn serve_rounds<T>(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len())?);
    }
    Ok(rounds)
}

/// `detect` outputs keyed by `(stream, scene index, rung)`.
type Refs = HashMap<(usize, usize, usize), Vec<Box3d>>;

/// Raw-bit equality of two detection lists.
pub fn same_boxes(a: &[Box3d], b: &[Box3d]) -> bool {
    let bits = |x: &Box3d| {
        let mut v = vec![x.class as u32, x.yaw.to_bits(), x.score.to_bits()];
        v.extend(x.center.iter().chain(&x.dims).map(|f| f.to_bits()));
        v
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

fn nominal_class() -> StreamClass {
    let profile = nominal();
    StreamClass {
        rate_hz: 1.0 / profile.arrival.mean_interval_s(),
        deadline_s: profile.deadline_s,
    }
}

fn scenario(
    profile: &ScenarioProfile,
    streams: usize,
    frames: u64,
    scenes: u64,
    classes: Vec<StreamClass>,
    seed: u64,
) -> FleetScenario {
    let mut dataset = profile.dataset.clone();
    dataset.scenes = scenes as usize;
    FleetScenario::build(
        FleetScenarioConfig {
            streams,
            frames_per_stream: frames,
            classes,
            dataset,
        },
        seed,
    )
}

/// The accounting identity and zero failed / faulted frames.
fn check_report(report: &FleetReport, failures: &mut Vec<String>) {
    if !report.accounted() {
        failures.push(format!("{} run broke the accounting identity", report.mode));
    }
    if report.failed > 0 || report.faulted > 0 {
        failures.push(format!(
            "{} run had {} failed and {} faulted frames",
            report.mode, report.failed, report.faulted
        ));
    }
}

/// Rung `level`'s `detect` on `cloud`.
fn detect(ladder: &Ladder, level: usize, cloud: &PointCloud) -> Result<Vec<Box3d>, Error> {
    Ok(ladder.level(level).detector.detect(cloud)?)
}

/// Rung `level`'s `detect` on the first `frames` frames of every stream
/// of `inputs`.
fn references(
    ladder: &Ladder,
    inputs: &Inputs,
    frames: u64,
    levels: std::ops::Range<usize>,
) -> Result<Refs, Error> {
    let mut refs = Refs::new();
    for stream in 0..inputs.scenario.len() {
        for id in 0..frames {
            let frame = inputs.frame(stream, id);
            for level in levels.clone() {
                refs.insert(
                    (stream, frame.scene_index, level),
                    detect(ladder, level, &frame.data)?,
                );
            }
        }
    }
    Ok(refs)
}

/// Checks that `run` delivered every admitted frame and that each
/// delivery equals rung `level`'s `detect` on its frame. Returns the
/// deliveries in admission order (frame-major round robin) and how many
/// matched.
fn check_lossless(
    run: FleetOutcome,
    level: usize,
    inputs: &Inputs,
    refs: &Refs,
    failures: &mut Vec<String>,
) -> (FleetReport, Vec<Served>, u64) {
    let report = run.report;
    check_report(&report, failures);
    if report.delivered() != report.admitted || run.detections.len() as u64 != report.admitted {
        failures.push(format!(
            "{} run delivered {} of {} frames ({} detection lists)",
            report.mode,
            report.delivered(),
            report.admitted,
            run.detections.len()
        ));
    }
    let mut exact = 0;
    let mut served: Vec<Served> = run
        .detections
        .into_iter()
        .map(|(stream, id, boxes)| {
            let key = (stream, inputs.frame_scene(stream, id), level);
            if refs.get(&key).is_some_and(|r| same_boxes(r, &boxes)) {
                exact += 1;
            } else {
                failures.push(format!(
                    "{} run: stream {stream} frame {id} differs from rung {level}'s detect",
                    report.mode
                ));
            }
            Served {
                stream,
                id,
                level: Some(level),
                boxes: Some(boxes),
            }
        })
        .collect();
    served.sort_by_key(|s| (s.id, s.stream));
    (report, served, exact)
}

/// A closed loop's latency probe. A closed loop's arrival latency is only
/// a frame's place in the backlog its generator keeps full, so the
/// latency comes from an open-loop run of the same server configuration:
/// stream 0's frames alone in realtime mode, at a rate that finds a
/// worker idle on each arrival, with a deadline loose enough that the
/// scheduler keeps every frame on rung 0. Every delivery must equal rung
/// 0's `detect`.
struct LatencyProbe {
    server: FleetServer<LidarDetector>,
    inputs: Inputs,
}

impl LatencyProbe {
    fn new(ladder: &Ladder, config: &FleetConfig, probe: &Probe, scenes: u64, seed: u64) -> Self {
        let class = StreamClass {
            rate_hz: probe.rate_hz,
            deadline_s: PROBE_DEADLINE_S,
        };
        // Same dataset and seed as the workload: its stream 0, so the
        // workload's references cover the probe's frames.
        let inputs = Inputs::new(scenario(
            &nominal(),
            1,
            probe.frames,
            scenes,
            vec![class],
            seed,
        ));
        let server = FleetServer::new(
            ladder.clone(),
            inputs.scenario.clone(),
            FleetConfig {
                mode: FleetMode::Realtime,
                force_level: None,
                collect_detections: true,
                ..config.clone()
            },
        );
        LatencyProbe { server, inputs }
    }

    /// One probe run; returns its report and how many deliveries matched.
    fn run(&self, refs: &Refs, failures: &mut Vec<String>) -> (FleetReport, u64) {
        let (report, _, exact) = check_lossless(self.server.run(), 0, &self.inputs, refs, failures);
        (report, exact)
    }
}

/// fleet-saturate: rounds of one lossless pass over the 384 scenes, each
/// followed by a latency probe.
pub fn fleet_saturate(ladder: &Ladder, seed: u64, seconds: f64) -> Result<Outcome, Error> {
    let inputs = Inputs::new(scenario(
        &nominal(),
        FLEET_STREAMS,
        FLEET_SCENES,
        FLEET_SCENES,
        vec![nominal_class()],
        seed,
    ));
    let refs = references(ladder, &inputs, FLEET_SCENES, 0..1)?;
    // One worker: two workers on the two vCPUs slow each other down by
    // 20–40%, and by how much varies from run to run (see README.md).
    let config = FleetConfig {
        workers: 1,
        max_batch: 4,
        mode: FleetMode::Saturate,
        force_level: Some(0),
        collect_detections: true,
        ..FleetConfig::default()
    };
    let server = FleetServer::new(ladder.clone(), inputs.scenario.clone(), config.clone());
    let probe = LatencyProbe::new(ladder, &config, &FLEET_PROBE, FLEET_SCENES, seed);
    let mut failures = Vec::new();
    let mut frames = Vec::new();
    let mut peak_rss = 0.0;
    let rounds = serve_rounds(seconds, |round| {
        let run = server.run();
        if round == 0 {
            peak_rss = peak_rss_mb();
        }
        let (report, served, _) = check_lossless(run, 0, &inputs, &refs, &mut failures);
        // Every round serves the same frames (checked above); accuracy
        // and the traced replay take the first.
        if round == 0 {
            frames = served;
        }
        let (probe, _) = probe.run(&refs, &mut failures);
        Ok(Round {
            runs: vec![report],
            probe: Some(probe),
        })
    })?;
    let scenes: Vec<&Scene> = frames
        .iter()
        .map(|f| inputs.scene(f.stream, f.id))
        .collect();
    let delivered: Vec<_> = frames.iter().map(|f| f.boxes.as_deref()).collect();
    let accuracy_pct = metrics::map_pct(&scenes, &delivered);
    Ok(Outcome {
        rounds,
        inputs,
        frames,
        accuracy_pct,
        last_emit_s: 0.0,
        peak_rss_mb: peak_rss,
        failures,
    })
}

/// Checks the rig's trigger: one shared phase, so the schedule is a
/// sequence of groups of exactly `RIG_STREAMS` simultaneous frames.
fn check_rig_schedule(scenario: &FleetScenario, failures: &mut Vec<String>) -> f64 {
    let profiles = scenario.profiles();
    if profiles.iter().any(|p| p.phase_s != profiles[0].phase_s) {
        failures.push("rig streams do not share one phase".into());
    }
    let mut emits: Vec<f64> = profiles
        .iter()
        .flat_map(|p| (0..p.frames).map(move |k| p.emit_time_s(k)))
        .collect();
    emits.sort_by(f64::total_cmp);
    for group in emits.chunks(RIG_STREAMS) {
        if group.len() != RIG_STREAMS || group.iter().any(|&t| t != group[0]) {
            failures.push(format!(
                "rig schedule does not form {RIG_STREAMS}-frame groups"
            ));
            break;
        }
    }
    emits.last().copied().unwrap_or(0.0)
}

/// The rungs whose `detect` reproduces `boxes` on `cloud`, as a bit set
/// (bit `l` for rung `l`; 0 when none does). With a `hint`, a match on
/// that rung alone is enough.
fn matching_rungs(
    ladder: &Ladder,
    cloud: &PointCloud,
    boxes: &[Box3d],
    hint: Option<usize>,
) -> Result<u32, Error> {
    if let Some(level) = hint {
        if same_boxes(&detect(ladder, level, cloud)?, boxes) {
            return Ok(1 << level);
        }
    }
    let mut rungs = 0;
    for level in (0..ladder.len()).filter(|&l| Some(l) != hint) {
        if same_boxes(&detect(ladder, level, cloud)?, boxes) {
            rungs |= 1 << level;
        }
    }
    Ok(rungs)
}

/// Picks the rung that served each frame of one trigger, given the rungs
/// whose `detect` reproduces its delivery (`None` when the frame was not
/// delivered). The server runs a batch at one rung, so a frame that
/// several rungs reproduce (their outputs coincide, typically both empty)
/// takes the rung of the nearest frame of its trigger that exactly one
/// rung reproduces, when that rung is a candidate; otherwise `usual` (the
/// rung that served most of the run's frames) when it is a candidate, or
/// its lowest candidate. A delivery no rung reproduces gets `None`.
pub fn resolve_rungs(candidates: &[Option<u32>], usual: usize) -> Vec<Option<usize>> {
    let unique: Vec<Option<usize>> = candidates
        .iter()
        .map(|c| match c {
            Some(bits) if bits.count_ones() == 1 => Some(bits.trailing_zeros() as usize),
            _ => None,
        })
        .collect();
    candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let bits = c.filter(|&b| b != 0)?;
            if let Some(level) = unique[i] {
                return Some(level);
            }
            let neighbour = (1..candidates.len()).find_map(|d| {
                let before = i.checked_sub(d).and_then(|j| unique[j]);
                let after = unique.get(i + d).copied().flatten();
                before
                    .filter(|&l| bits & (1 << l) != 0)
                    .or(after.filter(|&l| bits & (1 << l) != 0))
            });
            let fallback = if bits & (1 << usual) != 0 {
                usual
            } else {
                bits.trailing_zeros() as usize
            };
            Some(neighbour.unwrap_or(fallback))
        })
        .collect()
}

/// The frames of rig round `round`: 40 triggers of distinct scenes, the
/// first round drawn from `seed` itself.
fn rig_inputs(profile: &ScenarioProfile, seed: u64, round: usize) -> Inputs {
    let class = StreamClass {
        rate_hz: RIG_RATE_HZ,
        deadline_s: profile.deadline_s,
    };
    // Identical classes put every stream in the first phase cohort: the
    // streams share one trigger.
    Inputs::new(scenario(
        profile,
        RIG_STREAMS,
        RIG_TRIGGERS,
        RIG_TRIGGERS,
        vec![class; RIG_STREAMS],
        seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// rig-realtime: open-loop rounds of 40 triggers, each round new scenes.
pub fn rig_realtime(ladder: &Ladder, seed: u64, seconds: f64) -> Result<Outcome, Error> {
    let profile =
        catalog::by_name(RIG_PROFILE).expect("the scenario catalog has the rig's profile");
    let config = FleetConfig {
        workers: 1,
        max_batch: 4,
        mode: FleetMode::Realtime,
        proactive: Some(ProactiveConfig::default()),
        collect_detections: true,
        ..FleetConfig::default()
    };
    let mut failures = Vec::new();
    let mut last_emit_s = 0.0;
    let mut peak_rss = 0.0;
    // Serve every round first; the output check is not timed.
    let served = serve_rounds(seconds, |round| {
        let inputs = rig_inputs(&profile, seed, round);
        let emit_s = check_rig_schedule(&inputs.scenario, &mut failures);
        let server = FleetServer::new(ladder.clone(), inputs.scenario.clone(), config.clone());
        let run = server.run();
        if round == 0 {
            peak_rss = peak_rss_mb();
            last_emit_s = emit_s;
        }
        Ok((inputs, run))
    })?;
    // Which rung served a frame is not reported, so each delivery is
    // matched against the rungs' `detect`: every rung for the first
    // round, whose rungs the traced replay needs; for the others, the
    // previous delivery's rung first.
    let mut rounds = Vec::with_capacity(served.len());
    let mut scored: Vec<(Inputs, Vec<Served>)> = Vec::with_capacity(served.len());
    for (round, (inputs, run)) in served.into_iter().enumerate() {
        check_report(&run.report, &mut failures);
        let usual = run
            .report
            .rungs
            .iter()
            .max_by_key(|r| r.frames)
            .map_or(0, |r| r.level);
        let delivered: HashMap<(usize, u64), Vec<Box3d>> = run
            .detections
            .into_iter()
            .map(|(stream, id, boxes)| ((stream, id), boxes))
            .collect();
        let mut frames = Vec::with_capacity(RIG_TRIGGERS as usize * RIG_STREAMS);
        let mut hint = None;
        for id in 0..RIG_TRIGGERS {
            let mut trigger = Vec::with_capacity(RIG_STREAMS);
            for stream in 0..RIG_STREAMS {
                let boxes = delivered.get(&(stream, id)).cloned();
                let candidates = match &boxes {
                    Some(b) => {
                        let cloud = &inputs.frame(stream, id).data;
                        let bits = matching_rungs(ladder, cloud, b, hint)?;
                        if round > 0 && bits != 0 {
                            hint = Some(bits.trailing_zeros() as usize);
                        }
                        Some(bits)
                    }
                    None => None,
                };
                trigger.push((stream, boxes, candidates));
            }
            let candidates: Vec<Option<u32>> = trigger.iter().map(|t| t.2).collect();
            let levels = resolve_rungs(&candidates, usual);
            for ((stream, boxes, _), level) in trigger.into_iter().zip(levels) {
                if boxes.is_some() && level.is_none() {
                    failures.push(format!(
                        "round {round}: stream {stream} frame {id} matches no rung's detect"
                    ));
                }
                frames.push(Served {
                    stream,
                    id,
                    level,
                    boxes,
                });
            }
        }
        rounds.push(Round {
            runs: vec![run.report],
            probe: None,
        });
        scored.push((inputs, frames));
    }
    let scenes: Vec<&Scene> = scored
        .iter()
        .flat_map(|(inputs, frames)| frames.iter().map(|f| inputs.scene(f.stream, f.id)))
        .collect();
    let delivered: Vec<_> = scored
        .iter()
        .flat_map(|(_, frames)| frames.iter().map(|f| f.boxes.as_deref()))
        .collect();
    let accuracy_pct = metrics::map_pct(&scenes, &delivered);
    let (inputs, frames) = scored.swap_remove(0);
    Ok(Outcome {
        rounds,
        inputs,
        frames,
        accuracy_pct,
        last_emit_s,
        peak_rss_mb: peak_rss,
        failures,
    })
}

/// paper-ladder: rounds that serve each rung closed loop at batch 1, the
/// same frames on every rung, then probe the full model's latency.
pub fn paper_ladder(ladder: &Ladder, seed: u64, seconds: f64) -> Result<Outcome, Error> {
    let inputs = Inputs::new(scenario(
        &nominal(),
        1,
        PAPER_FRAMES,
        PAPER_SCENES,
        vec![nominal_class()],
        seed,
    ));
    let refs = references(ladder, &inputs, PAPER_SCENES, 0..ladder.len())?;
    let config = FleetConfig {
        workers: 1,
        max_batch: 1,
        mode: FleetMode::Saturate,
        collect_detections: true,
        ..FleetConfig::default()
    };
    let servers: Vec<_> = (0..ladder.len())
        .map(|level| {
            FleetServer::new(
                ladder.clone(),
                inputs.scenario.clone(),
                FleetConfig {
                    force_level: Some(level),
                    ..config.clone()
                },
            )
        })
        .collect();
    let probe = LatencyProbe::new(ladder, &config, &PAPER_PROBE, PAPER_SCENES, seed);
    let mut failures = Vec::new();
    let mut frames = Vec::new();
    let mut exact = 0;
    let mut peak_rss = 0.0;
    let rounds = serve_rounds(seconds, |round| {
        let mut runs = Vec::with_capacity(servers.len());
        for (level, server) in servers.iter().enumerate() {
            let run = server.run();
            if round == 0 && level == 0 {
                peak_rss = peak_rss_mb();
            }
            let (report, served, matched) =
                check_lossless(run, level, &inputs, &refs, &mut failures);
            exact += matched;
            // Identical rounds: the traced replay takes every one, for
            // more than one forward per rung.
            frames.extend(served);
            runs.push(report);
        }
        let (probe, probe_matched) = probe.run(&refs, &mut failures);
        exact += probe_matched;
        Ok(Round {
            runs,
            probe: Some(probe),
        })
    })?;
    let delivered = rounds
        .iter()
        .map(|r| metrics::delivered(&r.runs) + r.probe.as_ref().map_or(0, |p| p.delivered()))
        .sum::<u64>();
    Ok(Outcome {
        rounds,
        inputs,
        frames,
        // The paper-scale head is not fitted, so ground-truth mAP is
        // noise here; the share of exact deliveries stands in for it.
        accuracy_pct: 100.0 * exact as f64 / delivered.max(1) as f64,
        last_emit_s: 0.0,
        peak_rss_mb: peak_rss,
        failures,
    })
}

/// Runs `workload` untraced on `ladder`.
pub fn serve(
    workload: Workload,
    ladder: &Ladder,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, Error> {
    match workload {
        Workload::FleetSaturate => fleet_saturate(ladder, seed, seconds),
        Workload::RigRealtime => rig_realtime(ladder, seed, seconds),
        Workload::PaperLadder => paper_ladder(ladder, seed, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::resolve_rungs;

    #[test]
    fn coinciding_rungs_follow_their_trigger() {
        // Rung 2 alone reproduces streams 0 and 3; stream 1's output is
        // reproduced by rungs 0 and 2 (say, both empty): it joins its
        // nearest unambiguous neighbour's rung.
        let rungs = resolve_rungs(&[Some(0b100), Some(0b101), None, Some(0b100)], 0);
        assert_eq!(rungs, vec![Some(2), Some(2), None, Some(2)]);
        // A split trigger: the neighbour's rung must be a candidate.
        let rungs = resolve_rungs(&[Some(0b001), Some(0b110), Some(0b100)], 0);
        assert_eq!(rungs, vec![Some(0), Some(2), Some(2)]);
        // No unambiguous neighbour: the run's usual rung when it is a
        // candidate, else the lowest candidate. No candidate: none.
        assert_eq!(
            resolve_rungs(&[Some(0b110), Some(0)], 0),
            vec![Some(1), None]
        );
        let all_empty = [Some(0b111); 4];
        assert_eq!(resolve_rungs(&all_empty, 2), vec![Some(2); 4]);
    }
}
