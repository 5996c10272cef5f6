//! Multi-stream fleet scenarios: the synthetic sensor population a
//! fleet-serving layer multiplexes.
//!
//! A [`FleetScenario`] describes *hundreds* of concurrent sensor streams —
//! one per simulated vehicle — with per-stream frame rates, staggered
//! start phases and per-stream deadlines drawn round-robin from a small
//! set of service classes (a tight camera-like 10 Hz class, a nominal
//! LiDAR-like class, a relaxed long-deadline class by default). Phase
//! staggering spreads arrivals inside each emission period so admission is
//! a steady trickle rather than a thundering herd, which is exactly the
//! regime where cross-stream batching has material work to group.
//!
//! Every stream gets its own derived dataset seed, so different streams
//! observe different scenes, while the whole scenario stays a pure
//! function of `(config, seed)` — two fleets built from equal inputs are
//! frame-for-frame identical, the property the cross-stream bit-identity
//! tests rely on.
//!
//! A single sensor stream is a fleet of one: [`FleetScenario::single`]
//! draws stream 0 straight from the caller's seed (its frames are
//! `FrameStream::generate(dataset, seed)`) and can replay a catalog
//! profile's arrival-gap cycle instead of a constant rate.

use crate::dataset::DatasetConfig;
use crate::stream::{FrameStream, SensorData};

/// One service class a stream can belong to: its pacing and deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamClass {
    /// Frame rate, Hz.
    pub rate_hz: f64,
    /// Per-frame deadline from arrival to detections, seconds.
    pub deadline_s: f64,
}

/// Fleet-scenario knobs.
#[derive(Debug, Clone)]
pub struct FleetScenarioConfig {
    /// Number of concurrent streams.
    pub streams: usize,
    /// Frames each stream emits before ending.
    pub frames_per_stream: u64,
    /// Service classes assigned round-robin across streams.
    pub classes: Vec<StreamClass>,
    /// Dataset generation parameters shared by every stream (each stream
    /// derives its own seed, so contents still differ per stream).
    pub dataset: DatasetConfig,
}

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        let mut dataset = DatasetConfig::small();
        // Two scenes per stream keep per-stream dataset synthesis cheap at
        // hundreds of streams; streams cycle their scenes like one-stream
        // `bin/serve` runs.
        dataset.scenes = 2;
        FleetScenarioConfig {
            streams: 128,
            frames_per_stream: 4,
            classes: vec![
                // Tight class: camera-rate arrivals on a firm deadline.
                StreamClass {
                    rate_hz: 30.0,
                    deadline_s: 0.100,
                },
                // Nominal LiDAR class.
                StreamClass {
                    rate_hz: 10.0,
                    deadline_s: 0.150,
                },
                // Relaxed class: low rate, generous deadline — the class an
                // EDF scheduler starves without an aging boost.
                StreamClass {
                    rate_hz: 5.0,
                    deadline_s: 0.400,
                },
            ],
            dataset,
        }
    }
}

/// One stream of the fleet: identity, pacing, deadline and frame budget.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProfile {
    /// Stream index, `0..streams`.
    pub id: usize,
    /// Dataset seed this stream's frames are generated from.
    pub seed: u64,
    /// Frame rate, Hz.
    pub rate_hz: f64,
    /// Start-phase offset of the first frame, seconds.
    pub phase_s: f64,
    /// Frames this stream emits.
    pub frames: u64,
    /// Per-frame deadline, seconds.
    pub deadline_s: f64,
    /// Repeating inter-arrival gaps, seconds: frame `k + 1` arrives
    /// `gaps_s[k % len]` after frame `k`. Empty means constant-rate
    /// pacing at `rate_hz`.
    pub gaps_s: Vec<f64>,
}

impl StreamProfile {
    /// Scheduled emission time of frame `k`, seconds from scenario start:
    /// `phase_s + k / rate_hz` at a constant rate, otherwise the phase
    /// plus the first `k` gaps of the cycle, summed in order.
    pub fn emit_time_s(&self, k: u64) -> f64 {
        if self.gaps_s.is_empty() {
            return self.phase_s + k as f64 / self.rate_hz;
        }
        let n = self.gaps_s.len() as u64;
        (0..k).fold(self.phase_s, |t, i| t + self.gaps_s[(i % n) as usize])
    }
}

/// A deterministic population of sensor streams.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    config: FleetScenarioConfig,
    profiles: Vec<StreamProfile>,
}

impl FleetScenario {
    /// Builds the scenario: streams are assigned classes round-robin and
    /// staggered phases that spread each class's members evenly across one
    /// emission period.
    ///
    /// # Panics
    ///
    /// Panics on zero streams/frames, an empty class list, or a class with
    /// a non-positive rate or deadline — a scenario with no work or no
    /// schedule is a configuration bug worth failing loudly on.
    pub fn build(config: FleetScenarioConfig, seed: u64) -> Self {
        assert!(config.streams > 0, "fleet needs at least one stream");
        assert!(
            config.frames_per_stream > 0,
            "streams need at least one frame"
        );
        assert!(!config.classes.is_empty(), "fleet needs at least one class");
        for class in &config.classes {
            assert!(
                class.rate_hz > 0.0 && class.deadline_s > 0.0,
                "stream classes need positive rates and deadlines"
            );
        }
        let profiles = (0..config.streams)
            .map(|id| {
                let class = config.classes[id % config.classes.len()];
                // Members of one class are spread evenly across the class
                // period; the id-dependent offset keeps distinct streams
                // from colliding on the same instant.
                let cohort = id / config.classes.len();
                let cohorts = config.streams.div_ceil(config.classes.len());
                let phase_s = (cohort as f64 / cohorts as f64) / class.rate_hz;
                StreamProfile {
                    id,
                    // A fixed odd stride decorrelates per-stream datasets
                    // while keeping the mapping reproducible.
                    seed: seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
                    rate_hz: class.rate_hz,
                    phase_s,
                    frames: config.frames_per_stream,
                    deadline_s: class.deadline_s,
                    gaps_s: Vec::new(),
                }
            })
            .collect();
        FleetScenario { config, profiles }
    }

    /// A fleet of one stream: `frames` frames of
    /// `FrameStream::generate(&dataset, seed)` arriving on the repeating
    /// inter-arrival cycle `gaps_s` (seconds; one entry is a constant
    /// rate), each with `deadline_s` to deliver. The stream starts at
    /// phase 0 and reports `1 / mean gap` as its rate.
    ///
    /// # Panics
    ///
    /// Panics on zero frames, an empty or negative gap cycle, a cycle
    /// whose gaps are all zero, or a non-positive deadline.
    pub fn single(
        dataset: DatasetConfig,
        seed: u64,
        frames: u64,
        gaps_s: &[f64],
        deadline_s: f64,
    ) -> Self {
        assert!(frames > 0, "streams need at least one frame");
        assert!(
            !gaps_s.is_empty() && gaps_s.iter().all(|&g| g >= 0.0),
            "the arrival cycle needs non-negative gaps"
        );
        let rate_hz = gaps_s.len() as f64 / gaps_s.iter().sum::<f64>();
        assert!(
            rate_hz.is_finite() && deadline_s > 0.0,
            "streams need a positive rate and deadline"
        );
        let config = FleetScenarioConfig {
            streams: 1,
            frames_per_stream: frames,
            classes: vec![StreamClass {
                rate_hz,
                deadline_s,
            }],
            dataset,
        };
        let profiles = vec![StreamProfile {
            id: 0,
            seed,
            rate_hz,
            phase_s: 0.0,
            frames,
            deadline_s,
            gaps_s: gaps_s.to_vec(),
        }];
        FleetScenario { config, profiles }
    }

    /// The configuration the scenario was built from.
    pub fn config(&self) -> &FleetScenarioConfig {
        &self.config
    }

    /// All stream profiles, in id order.
    pub fn profiles(&self) -> &[StreamProfile] {
        &self.profiles
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the scenario has no streams (never true once built).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Total frames the whole fleet will emit.
    pub fn total_frames(&self) -> u64 {
        self.profiles.iter().map(|p| p.frames).sum()
    }

    /// The frame source for one stream: a [`FrameStream`] over this
    /// stream's own derived dataset seed.
    pub fn stream<T: SensorData>(&self, id: usize) -> FrameStream<T> {
        FrameStream::generate(&self.config.dataset, self.profiles[id].seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lidar::PointCloud;

    fn scenario(streams: usize) -> FleetScenario {
        let config = FleetScenarioConfig {
            streams,
            frames_per_stream: 3,
            ..FleetScenarioConfig::default()
        };
        FleetScenario::build(config, 7)
    }

    #[test]
    fn classes_rotate_and_phases_stagger_within_a_class() {
        let s = scenario(12);
        assert_eq!(s.len(), 12);
        assert_eq!(s.total_frames(), 36);
        let classes = &s.config().classes;
        for p in s.profiles() {
            let class = classes[p.id % classes.len()];
            assert_eq!(p.rate_hz, class.rate_hz);
            assert_eq!(p.deadline_s, class.deadline_s);
            // Phases stay inside one emission period.
            assert!(p.phase_s >= 0.0 && p.phase_s < 1.0 / p.rate_hz);
        }
        // Two same-class streams never share a phase.
        let tight: Vec<&StreamProfile> = s
            .profiles()
            .iter()
            .filter(|p| p.id % classes.len() == 0)
            .collect();
        for pair in tight.windows(2) {
            assert!(pair[0].phase_s != pair[1].phase_s);
        }
    }

    #[test]
    fn emit_times_follow_rate_and_phase() {
        let s = scenario(3);
        let p = &s.profiles()[1];
        assert!((p.emit_time_s(0) - p.phase_s).abs() < 1e-12);
        let dt = p.emit_time_s(5) - p.emit_time_s(4);
        assert!((dt - 1.0 / p.rate_hz).abs() < 1e-12);
    }

    #[test]
    fn scenario_is_deterministic_and_streams_differ() {
        let a = scenario(6);
        let b = scenario(6);
        assert_eq!(a.profiles(), b.profiles());
        for id in 0..a.len() {
            let fa: Vec<_> = a.stream::<PointCloud>(id).take(2).collect();
            let fb: Vec<_> = b.stream::<PointCloud>(id).take(2).collect();
            for (x, y) in fa.iter().zip(&fb) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.data.points(), y.data.points());
            }
        }
        // Distinct streams observe distinct worlds.
        assert_ne!(a.profiles()[0].seed, a.profiles()[1].seed);
        let s0: Vec<_> = a.stream::<PointCloud>(0).take(1).collect();
        let s1: Vec<_> = a.stream::<PointCloud>(1).take(1).collect();
        assert_ne!(s0[0].data.points(), s1[0].data.points());
    }

    #[test]
    fn built_profiles_keep_the_constant_rate_schedule_bit_for_bit() {
        let s = scenario(9);
        for p in s.profiles() {
            assert!(p.gaps_s.is_empty());
            for k in 0..40 {
                let want = p.phase_s + k as f64 / p.rate_hz;
                assert_eq!(
                    p.emit_time_s(k).to_bits(),
                    want.to_bits(),
                    "stream {}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn single_stream_draws_stream_zero_from_the_given_seed() {
        let mut dataset = DatasetConfig::small();
        dataset.scenes = 3;
        let s = FleetScenario::single(dataset.clone(), 31, 5, &[0.033], 0.100);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_frames(), 5);
        let p = &s.profiles()[0];
        assert_eq!((p.id, p.seed, p.phase_s, p.deadline_s), (0, 31, 0.0, 0.100));
        let fleet: Vec<_> = s.stream::<PointCloud>(0).take(7).collect();
        let solo: Vec<_> = FrameStream::<PointCloud>::generate(&dataset, 31)
            .take(7)
            .collect();
        for (a, b) in fleet.iter().zip(&solo) {
            assert_eq!((a.id, a.scene_index), (b.id, b.scene_index));
            assert_eq!(a.data.points(), b.data.points());
        }
    }

    #[test]
    fn gap_cycle_schedule_is_the_cumulative_gaps() {
        let gaps = [0.008, 0.008, 0.008, 0.110];
        let s = FleetScenario::single(DatasetConfig::small(), 7, 12, &gaps, 0.120);
        let p = &s.profiles()[0];
        let mut t = 0.0f64;
        for k in 0..12u64 {
            assert_eq!(p.emit_time_s(k).to_bits(), t.to_bits(), "frame {k}");
            t += gaps[k as usize % gaps.len()];
        }
        assert!((p.rate_hz - 4.0 / 0.134).abs() < 1e-9);
        // A one-gap cycle is a constant rate.
        let u = FleetScenario::single(DatasetConfig::small(), 7, 3, &[0.05], 0.1);
        assert!((u.profiles()[0].emit_time_s(2) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn all_zero_gap_cycle_panics() {
        FleetScenario::single(DatasetConfig::small(), 1, 2, &[0.0, 0.0], 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panic() {
        FleetScenario::build(
            FleetScenarioConfig {
                streams: 0,
                ..FleetScenarioConfig::default()
            },
            1,
        );
    }
}
