//! The scenario catalog: named, seed-deterministic workload profiles the
//! scheduling policies are evaluated against.
//!
//! Each [`ScenarioProfile`] bundles a traffic mix (how many cars /
//! pedestrians / cyclists a scene draws), a sensor-degradation setting
//! (rain dropout), an arrival pattern (uniform pacing, rush-hour bursts,
//! adversarial fast/slow alternation) and a per-frame deadline. Every
//! profile is a pure function of its configuration plus whatever seed the
//! caller generates frames with, so two runs of the same scenario are
//! frame-for-frame identical — the property the scenario-matrix test
//! suite and CI assertions rely on.
//!
//! The catalog exists so scheduling policies are measured on more than
//! the historical nominal/overload pair: an energy win that only shows up
//! on one traffic density is not a win, and a safety override that never
//! fires on a VRU-heavy street is not an override.

use crate::dataset::DatasetConfig;
use crate::lidar::LidarConfig;
use crate::scene::SceneConfig;

/// Inter-frame arrival timing of a scenario's source.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Constant pacing: one frame every `interval_s` seconds.
    Uniform {
        /// Seconds between consecutive frames.
        interval_s: f64,
    },
    /// Rush-hour bursts: `burst` frames arrive `intra_s` apart, then the
    /// source idles `gap_s` before the next burst.
    Burst {
        /// Frames per burst (≥ 1).
        burst: usize,
        /// Seconds between frames inside a burst.
        intra_s: f64,
        /// Idle seconds between bursts.
        gap_s: f64,
    },
    /// Adversarial alternation: the gap after each frame flips between
    /// `fast_s` and `slow_s`, so queue pressure oscillates every frame —
    /// the pattern most likely to whipsaw a reactive-only scheduler.
    Alternating {
        /// Tight gap, seconds.
        fast_s: f64,
        /// Relaxed gap, seconds.
        slow_s: f64,
    },
}

impl ArrivalPattern {
    /// The repeating cycle of inter-frame gaps, seconds: frame `i` is
    /// followed by a gap of `cycle[i % cycle.len()]` (see
    /// `FleetScenario::single`, which replays it).
    pub fn cycle(&self) -> Vec<f64> {
        match *self {
            ArrivalPattern::Uniform { interval_s } => vec![interval_s],
            ArrivalPattern::Burst {
                burst,
                intra_s,
                gap_s,
            } => {
                let mut c = vec![intra_s; burst.max(1) - 1];
                c.push(gap_s);
                c
            }
            ArrivalPattern::Alternating { fast_s, slow_s } => vec![fast_s, slow_s],
        }
    }

    /// Mean inter-frame gap over one cycle, seconds.
    pub fn mean_interval_s(&self) -> f64 {
        let c = self.cycle();
        c.iter().sum::<f64>() / c.len() as f64
    }
}

/// One catalog entry: a named workload the policies are evaluated on.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProfile {
    /// Catalog name (`"urban-vru"`, `"empty-highway"`, …).
    pub name: &'static str,
    /// One-line description for reports and docs.
    pub description: &'static str,
    /// Dataset generation parameters: traffic mix + sensor degradation.
    pub dataset: DatasetConfig,
    /// Source arrival pattern.
    pub arrival: ArrivalPattern,
    /// Per-frame deadline from arrival to detections, seconds.
    pub deadline_s: f64,
}

/// Scenario datasets share a small scene pool: frames cycle it like
/// `bin/stream`, so synthesis stays cheap while every profile still sees
/// several distinct worlds.
const SCENARIO_SCENES: usize = 4;

fn dataset(scene: SceneConfig, lidar: LidarConfig) -> DatasetConfig {
    let mut cfg = DatasetConfig::small();
    cfg.scenes = SCENARIO_SCENES;
    cfg.scene = scene;
    cfg.lidar = lidar;
    cfg
}

fn small_lidar() -> LidarConfig {
    // The mix DatasetConfig::small() uses — keeps scenario frames in the
    // same cost regime as the existing nominal/overload runs.
    LidarConfig {
        ground_points: 300,
        clutter_points: 20,
        ..LidarConfig::default()
    }
}

fn highway_lidar() -> LidarConfig {
    // Open road at speed: the sweep is dominated by long-range misses —
    // a handful of ground returns and almost no clutter, so the active
    // pillar set stays small. This is the regime where the
    // sparse-activation backbone's gather/scatter path pays off
    // (`bench_streaming`'s headline sparse row).
    LidarConfig {
        ground_points: 24,
        clutter_points: 4,
        ..LidarConfig::default()
    }
}

fn sparse_lidar() -> LidarConfig {
    // Dusk-grade return density: the cloud *looks* cheap (few returns)
    // even when the scene is crowded with people — the adversarial input
    // the VRU safety floor exists for.
    LidarConfig {
        ground_points: 120,
        clutter_points: 8,
        ..LidarConfig::default()
    }
}

/// The full scenario catalog, in a fixed, documented order.
pub fn catalog() -> Vec<ScenarioProfile> {
    let mix = |cars, pedestrians, cyclists| SceneConfig {
        cars,
        pedestrians,
        cyclists,
        ..SceneConfig::default()
    };
    vec![
        ScenarioProfile {
            name: "nominal",
            description: "moderate suburban traffic at a steady 30 Hz",
            dataset: dataset(mix((2, 4), (0, 1), (0, 1)), small_lidar()),
            arrival: ArrivalPattern::Uniform { interval_s: 0.033 },
            deadline_s: 0.100,
        },
        ScenarioProfile {
            name: "rush-hour",
            description: "dense mixed traffic arriving in 4-frame bursts",
            dataset: dataset(mix((6, 9), (2, 4), (1, 2)), small_lidar()),
            arrival: ArrivalPattern::Burst {
                burst: 4,
                intra_s: 0.008,
                gap_s: 0.110,
            },
            deadline_s: 0.120,
        },
        ScenarioProfile {
            name: "empty-highway",
            description: "near-empty road, zero vulnerable road users",
            dataset: dataset(mix((0, 1), (0, 0), (0, 0)), highway_lidar()),
            arrival: ArrivalPattern::Uniform { interval_s: 0.050 },
            deadline_s: 0.150,
        },
        ScenarioProfile {
            name: "urban-vru",
            description: "sparse dusk returns over a pedestrian/cyclist-crowded street",
            dataset: dataset(mix((1, 2), (3, 5), (2, 3)), sparse_lidar()),
            arrival: ArrivalPattern::Uniform { interval_s: 0.040 },
            deadline_s: 0.100,
        },
        ScenarioProfile {
            name: "rain-dropout",
            description: "nominal traffic through heavy rain: 55% return dropout, 3x noise",
            dataset: dataset(
                mix((2, 4), (0, 1), (0, 1)),
                LidarConfig {
                    dropout: 0.55,
                    noise_sigma: 0.06,
                    ..small_lidar()
                },
            ),
            arrival: ArrivalPattern::Uniform { interval_s: 0.040 },
            deadline_s: 0.100,
        },
        ScenarioProfile {
            name: "adversarial-deadline",
            description: "alternating 12/90 ms arrivals against a tight 70 ms deadline",
            dataset: dataset(mix((3, 5), (1, 2), (0, 1)), small_lidar()),
            arrival: ArrivalPattern::Alternating {
                fast_s: 0.012,
                slow_s: 0.090,
            },
            deadline_s: 0.070,
        },
    ]
}

/// Looks up a catalog scenario by name.
pub fn by_name(name: &str) -> Option<ScenarioProfile> {
    catalog().into_iter().find(|p| p.name == name)
}

/// Every catalog scenario name, in catalog order.
pub fn names() -> Vec<&'static str> {
    catalog().into_iter().map(|p| p.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    #[test]
    fn catalog_names_are_unique_and_lookup_works() {
        let all = catalog();
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        for p in &all {
            assert_eq!(by_name(p.name).as_ref(), Some(p));
            assert!(p.deadline_s > 0.0);
            assert!(p.arrival.mean_interval_s() > 0.0);
            assert!(p.arrival.cycle().iter().all(|&g| g >= 0.0));
        }
        assert!(by_name("no-such-scenario").is_none());
        assert_eq!(super::names().len(), all.len());
    }

    #[test]
    fn arrival_cycles_have_documented_shapes() {
        let u = ArrivalPattern::Uniform { interval_s: 0.05 };
        assert_eq!(u.cycle(), vec![0.05]);
        let b = ArrivalPattern::Burst {
            burst: 4,
            intra_s: 0.01,
            gap_s: 0.1,
        };
        assert_eq!(b.cycle(), vec![0.01, 0.01, 0.01, 0.1]);
        assert!((b.mean_interval_s() - 0.0325).abs() < 1e-12);
        let a = ArrivalPattern::Alternating {
            fast_s: 0.01,
            slow_s: 0.09,
        };
        assert_eq!(a.cycle(), vec![0.01, 0.09]);
        // A single-frame burst degenerates to its gap.
        let single = ArrivalPattern::Burst {
            burst: 1,
            intra_s: 0.01,
            gap_s: 0.2,
        };
        assert_eq!(single.cycle(), vec![0.2]);
    }

    #[test]
    fn scenario_worlds_match_their_advertised_traffic() {
        // Scenario generation is deterministic and the traffic mixes do
        // what the names promise: empty-highway has zero VRUs everywhere,
        // urban-vru has several in every scene.
        let empty = by_name("empty-highway").unwrap();
        let urban = by_name("urban-vru").unwrap();
        let a = Dataset::generate(&empty.dataset, 11);
        let b = Dataset::generate(&empty.dataset, 11);
        for (x, y) in a.scenes().iter().zip(b.scenes()) {
            assert_eq!(x, y, "scenario worlds must be seed-deterministic");
            assert_eq!(x.vru_count(), 0, "empty-highway leaked a VRU");
        }
        let d = Dataset::generate(&urban.dataset, 11);
        for scene in d.scenes() {
            assert!(scene.vru_count() >= 5, "urban-vru scene too quiet");
        }
    }

    #[test]
    fn rain_dropout_thins_sweeps_vs_nominal() {
        let nominal = by_name("nominal").unwrap();
        let rain = by_name("rain-dropout").unwrap();
        let dry = Dataset::generate(&nominal.dataset, 3);
        let wet = Dataset::generate(&rain.dataset, 3);
        let dry_points: usize = (0..dry.len()).map(|i| dry.lidar(i).len()).sum();
        let wet_points: usize = (0..wet.len()).map(|i| wet.lidar(i).len()).sum();
        assert!(
            wet_points * 3 < dry_points * 2,
            "rain should shed well over a third of returns: {wet_points} vs {dry_points}"
        );
    }
}
