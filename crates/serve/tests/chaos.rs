//! Fleet chaos tests: tenant isolation under per-stream fault injection.
//!
//! A poisoned tenant must pay for its own faults — quarantines, breaker
//! sheds, isolated panics — while every *other* stream's service stays
//! statistically indistinguishable from a no-fault run. The per-stream
//! circuit breaker is the mechanism: consecutive faults trip the stream
//! open (admission sheds it), exponential backoff paces the half-open
//! probes, and a clean probe re-closes it.
//!
//! Every fleet here runs on the wall clock, and the fairness bound only
//! means something on an otherwise idle pool: in a debug build a tiny
//! frame costs ~120 ms, so two of these 2-worker fleets running at once
//! would saturate each other. The file therefore serves its fleets one
//! at a time under the `FLEETS` lock, whatever the test harness's thread
//! count.

use std::sync::{Mutex, OnceLock};
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::faults::{self, FaultPlan};
use upaq_kitti::fleet::{FleetScenario, FleetScenarioConfig, StreamClass};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::LidarDetector;
use upaq_runtime::variant::VariantLadder;
use upaq_serve::{BreakerConfig, FleetConfig, FleetMode, FleetReport, FleetServer};

const STREAMS: usize = 4;
const FRAMES: u64 = 6;

/// Serializes this file's fleet runs (see the module docs).
static FLEETS: Mutex<()> = Mutex::new(());

/// Runs one fleet with no other fleet of this file in flight. A failed
/// test poisons the lock; the next run still gets it.
fn serve(server: FleetServer<LidarDetector>) -> FleetReport {
    let _alone = FLEETS.lock().unwrap_or_else(|poison| poison.into_inner());
    server.run().report
}

fn ladder() -> VariantLadder<LidarDetector> {
    static LADDER: OnceLock<VariantLadder<LidarDetector>> = OnceLock::new();
    LADDER
        .get_or_init(|| {
            let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
            VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 5).unwrap()
        })
        .clone()
}

/// A lightly-loaded realtime fleet: low rates and generous deadlines, so
/// healthy streams deliver essentially everything and the fairness
/// comparison is about faults, not scheduling noise.
fn scenario() -> FleetScenario {
    FleetScenario::build(
        FleetScenarioConfig {
            streams: STREAMS,
            frames_per_stream: FRAMES,
            classes: vec![StreamClass {
                rate_hz: 4.0,
                deadline_s: 0.300,
            }],
            ..FleetScenarioConfig::default()
        },
        2025,
    )
}

fn run_realtime(faults: Option<FaultPlan>, breaker: BreakerConfig) -> FleetReport {
    let server = FleetServer::new(
        ladder(),
        scenario(),
        FleetConfig {
            workers: 2,
            max_batch: 2,
            mode: FleetMode::Realtime,
            faults,
            // Only stream 0 is poisoned; 1.. are the healthy control arm.
            fault_streams: vec![0],
            breaker: Some(breaker),
            ..FleetConfig::default()
        },
    );
    serve(server)
}

/// Jain fairness over a set of per-stream delivered fractions.
fn jain(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (n * sq)
    }
}

fn healthy_jain(r: &FleetReport) -> f64 {
    let fractions: Vec<f64> = r
        .per_stream
        .iter()
        .filter(|s| s.id != 0)
        .map(|s| s.delivered_fraction)
        .collect();
    assert_eq!(fractions.len(), STREAMS - 1);
    jain(&fractions)
}

/// The acceptance gate: a NaN-bursting tenant trips its own breaker at
/// least once, every stream still accounts exactly, and the healthy
/// streams' Jain fairness stays within 1% of the no-fault baseline.
#[test]
fn poisoned_stream_trips_its_breaker_and_healthy_fairness_holds() {
    // Threshold 2: nan-burst poisons frames {1, 3, 4} of 6, so the
    // consecutive rejects at 3 and 4 trip the breaker; the ~250 ms frame
    // gap dwarfs the 50 ms backoff, so frame 5 arrives as a clean
    // half-open probe and re-closes it.
    let breaker = BreakerConfig {
        fault_threshold: 2,
        open_backoff_s: 0.050,
        max_backoff_s: 0.400,
    };
    let baseline = run_realtime(None, breaker.clone());
    let chaos = run_realtime(faults::by_name("nan-burst"), breaker);

    for (label, r) in [("baseline", &baseline), ("chaos", &chaos)] {
        assert!(r.accounted(), "{label}: fleet lost a frame");
        assert_eq!(r.admitted, (STREAMS as u64) * FRAMES, "{label}");
        for s in &r.per_stream {
            assert!(s.accounted(), "{label}: stream {} lost a frame", s.id);
        }
    }
    assert_eq!(baseline.faulted, 0, "no plan, no faults");

    let poisoned = faults::by_name("nan-burst").unwrap().payload_frames(FRAMES);
    assert!(poisoned.len() >= 3, "plan must hit stream 0 repeatedly");
    let s0 = &chaos.per_stream[0];
    assert!(
        s0.faulted >= poisoned.len() as u64,
        "stream 0 must be charged for every poisoned frame (got {})",
        s0.faulted
    );
    assert_eq!(
        s0.quarantined, s0.faulted,
        "admission-layer faults are all quarantines"
    );
    let snap = s0
        .breaker
        .as_ref()
        .expect("breakers on → snapshot attached");
    assert!(
        snap.transitions.opened >= 1,
        "consecutive rejects must trip the breaker: {snap:?}"
    );

    // Collateral check: the blast radius ends at the tenant boundary.
    for s in chaos.per_stream.iter().filter(|s| s.id != 0) {
        assert_eq!(s.faulted, 0, "healthy stream {} was charged a fault", s.id);
        let b = s.breaker.as_ref().expect("snapshot attached");
        assert_eq!(b.transitions.opened, 0, "healthy stream {} tripped", s.id);
    }
    let (jain_base, jain_chaos) = (healthy_jain(&baseline), healthy_jain(&chaos));
    assert!(
        (jain_chaos - jain_base).abs() <= 0.01,
        "healthy-stream Jain drifted: {jain_chaos} vs baseline {jain_base}"
    );
}

/// With a hair-trigger breaker and a backoff longer than the run, the
/// first fault latches stream 0 open: every later frame is shed at
/// admission (quarantined, never executed), exactly and deterministically,
/// and the stream ends the run still open.
#[test]
fn latched_open_breaker_sheds_the_stream_without_collateral() {
    let breaker = BreakerConfig {
        fault_threshold: 1,
        open_backoff_s: 60.0,
        max_backoff_s: 60.0,
    };
    let r = run_realtime(faults::by_name("nan-burst"), breaker);
    assert!(r.accounted());

    // nan-burst first poisons frame 1: frame 0 passes, frame 1 is a
    // firewall reject that latches the breaker, frames 2..6 are sheds.
    let s0 = &r.per_stream[0];
    assert_eq!(s0.admitted, FRAMES);
    assert_eq!(s0.faulted, FRAMES - 1, "one clean frame, then latched out");
    assert_eq!(s0.quarantined, s0.faulted);
    let snap = s0.breaker.as_ref().expect("snapshot attached");
    assert_eq!(snap.state, "open", "60 s backoff outlives the run");
    assert_eq!(snap.transitions.opened, 1);
    assert_eq!(snap.transitions.reclosed, 0);

    for s in r.per_stream.iter().filter(|s| s.id != 0) {
        assert!(s.accounted(), "stream {} lost a frame", s.id);
        assert_eq!(s.faulted, 0, "healthy stream {} was charged", s.id);
    }
}

/// Saturate mode is the lossless bit-identity harness: a configured fault
/// plan must be ignored there, not silently corrupt the reference run.
#[test]
fn saturate_mode_ignores_fault_plans_and_stays_lossless() {
    let server = FleetServer::new(
        ladder(),
        scenario(),
        FleetConfig {
            workers: 2,
            max_batch: 2,
            mode: FleetMode::Saturate,
            faults: faults::by_name("nan-burst"),
            fault_streams: vec![0],
            ..FleetConfig::default()
        },
    );
    let r = serve(server);
    assert!(r.accounted());
    assert_eq!(
        r.delivered(),
        (STREAMS as u64) * FRAMES,
        "saturate is lossless"
    );
    assert_eq!(r.faulted, 0);
    assert_eq!(r.quarantined, 0);
}
