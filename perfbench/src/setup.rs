//! Set-up: build the detector, fit its head, build the UPAQ ladder and
//! calibrate the degraded rungs' heads — once through the library's own
//! entry points (timed as `setup_s`), and once as the individual public
//! calls those entry points make (traced per layer).

use std::time::Instant;
use upaq::compress::{CompressionContext, Compressor, Upaq};
use upaq::config::UpaqConfig;
use upaq_hwmodel::exec::BitAllocation;
use upaq_hwmodel::latency::estimate_model;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::Dataset;
use upaq_kitti::scenario::{self, ScenarioProfile};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::pretrain::fit_lidar_head;
use upaq_models::{LidarDetector, StreamingDetector};
use upaq_nn::Model;
use upaq_runtime::VariantLadder;

use crate::trace::Tracer;

/// Errors the library calls return.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// The degrade ladder every workload serves.
pub type Ladder = VariantLadder<LidarDetector>;

/// The model under test is fixed: its head-fit scenes and the UPAQ
/// search are seeded by this constant, and the workload seed only draws
/// the frames served. It matches the seed the `fleet` binary uses.
pub const MODEL_SEED: u64 = 2025;

/// Ridge regularisation of the closed-form head fit (as in `bin/fleet`).
const HEAD_LAMBDA: f64 = 1e-3;

/// The traffic profile every workload draws its scenes from.
pub fn nominal() -> ScenarioProfile {
    scenario::by_name("nominal").expect("the scenario catalog has a nominal profile")
}

/// Detector size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈60 k parameters; the head is fitted and the degraded rungs'
    /// heads are calibrated.
    Tiny,
    /// Paper scale, ≈4.8 M parameters; set-up is the ladder build alone.
    Paper,
}

impl Scale {
    fn config(self) -> PointPillarsConfig {
        match self {
            Scale::Tiny => PointPillarsConfig::tiny(),
            Scale::Paper => PointPillarsConfig::paper(),
        }
    }
}

/// The head-fit scenes: the nominal profile's scene pool at the model
/// seed. Generated outside the timed set-up.
pub fn training_scenes() -> Dataset {
    Dataset::generate(&nominal().dataset, MODEL_SEED)
}

/// One set-up through the library's entry points. Returns the served
/// ladder and the same ladder before head calibration (the traced run
/// compares its individual calls against the latter).
pub fn set_up(scale: Scale, train: &Dataset) -> Result<(Ladder, Ladder), Error> {
    let mut det = PointPillars::build(&scale.config())?;
    if scale == Scale::Tiny {
        let scenes: Vec<usize> = (0..train.len()).collect();
        fit_lidar_head(&mut det, train, &scenes, HEAD_LAMBDA)?;
    }
    let mut ladder = VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), MODEL_SEED)?;
    let uncalibrated = ladder.clone();
    if scale == Scale::Tiny {
        ladder.calibrate_heads(train, HEAD_LAMBDA)?;
    }
    Ok((ladder, uncalibrated))
}

/// Sets up `repeats` times; returns the last ladders and every set-up's
/// wall time, seconds.
pub fn timed_set_ups(
    scale: Scale,
    train: &Dataset,
    repeats: usize,
) -> Result<(Ladder, Ladder, Vec<f64>), Error> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Free the previous ladder first so peak memory is one set-up's.
        drop(last.take());
        let t0 = Instant::now();
        let ladders = set_up(scale, train)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(ladders);
    }
    let (ladder, uncalibrated) = last.expect("at least one set-up ran");
    Ok((ladder, uncalibrated, times))
}

/// Raw-bit equality of two models' weights and biases, layer by layer.
fn same_parameters(a: &Model, b: &Model) -> bool {
    let bits = |t: Option<&upaq_tensor::Tensor>| -> Option<Vec<u32>> {
        t.map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
    };
    let ids = a.weighted_layers();
    ids == b.weighted_layers()
        && ids.into_iter().all(|id| match (a.layer(id), b.layer(id)) {
            (Ok(x), Ok(y)) => {
                bits(x.weights()) == bits(y.weights()) && bits(x.bias()) == bits(y.bias())
            }
            _ => false,
        })
}

/// Repeats the set-up as the individual public calls `set_up` makes,
/// one span each, and checks that they rebuild `uncalibrated` (and,
/// after calibration, `served`) bit for bit.
pub fn traced_set_up(
    scale: Scale,
    train: &Dataset,
    served: &Ladder,
    uncalibrated: &Ladder,
    tracer: &mut Tracer,
) -> Result<(), Error> {
    let device = DeviceProfile::jetson_orin_nano();
    let mut det = tracer.time("models.build", 0, None, || {
        PointPillars::build(&scale.config())
    })?;
    if scale == Scale::Tiny {
        let scenes: Vec<usize> = (0..train.len()).collect();
        tracer.time("models.fit_head", 0, None, || {
            fit_lidar_head(&mut det, train, &scenes, HEAD_LAMBDA)
        })?;
    }
    let shapes = det.input_shapes();
    let head = det.head_layer()?;
    let no_bits = BitAllocation::new();
    let no_kinds = std::collections::HashMap::new();
    tracer.time("hwmodel.estimate", 0, None, || {
        estimate_model(det.model(), &shapes, &no_bits, &no_kinds, &device)
    })?;
    let ctx = CompressionContext::new(device.clone(), shapes.clone(), MODEL_SEED)
        .with_skip_layers(vec![head]);
    let mut models = vec![det.model().deep_copy()];
    for config in [UpaqConfig::lck(), UpaqConfig::hck()] {
        let outcome = tracer.time("core.compress", 0, None, || {
            Upaq::new(config).compress(det.model(), &ctx)
        })?;
        tracer.time("hwmodel.estimate", 0, None, || {
            estimate_model(
                &outcome.model,
                &shapes,
                &outcome.bits,
                &outcome.kinds,
                &device,
            )
        })?;
        models.push(outcome.model);
    }
    for model in &mut models {
        tracer.time("nn.pack", 0, None, || model.pack_weights());
    }
    for (level, model) in models.iter().enumerate() {
        if !same_parameters(model, uncalibrated.level(level).detector.model()) {
            return Err(format!(
                "traced set-up diverged from VariantLadder::build at rung {level}"
            )
            .into());
        }
    }
    if scale == Scale::Tiny {
        let mut ladder = uncalibrated.clone();
        tracer.time("runtime.calibrate", 0, None, || {
            ladder.calibrate_heads(train, HEAD_LAMBDA)
        })?;
        for level in 0..ladder.len() {
            let (a, b) = (ladder.level(level), served.level(level));
            if !same_parameters(a.detector.model(), b.detector.model()) {
                return Err(format!("traced calibration diverged at rung {level}").into());
            }
        }
    }
    Ok(())
}
