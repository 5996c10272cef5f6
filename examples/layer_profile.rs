//! Where paper-scale forward time goes, layer by layer, next to what the
//! cost model predicts.
//!
//! Builds the UPAQ degrade ladder (base, LCK, HCK) of paper-scale
//! PointPillars, runs frames of the nominal scenario through each rung at
//! batch 1 on one thread, and prints every layer's median wall time (from
//! `Workspace::layer_times`) beside the `per_layer_s` that
//! `hwmodel::latency::estimate` predicts for it on the Jetson Orin Nano
//! profile, joined by layer id, with their ratio. The rung totals sum the
//! medians; the predicted total leaves out the device's fixed
//! per-inference overhead.
//!
//! Run with `cargo run --release --example layer_profile`.

use std::collections::HashMap;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::scenario;
use upaq_kitti::stream::FrameStream;
use upaq_kitti::PointCloud;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::StreamingDetector;
use upaq_nn::exec::{forward_into, Workspace};
use upaq_nn::stats::model_costs;
use upaq_nn::LayerId;
use upaq_runtime::VariantLadder;
use upaq_tensor::ops::TensorParallel;

/// Timed frames per rung, after one warm-up frame.
const FRAMES: u64 = 11;

/// The ladder's UPAQ search seed (the one the serving binaries use).
const MODEL_SEED: u64 = 2025;

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    TensorParallel::set_threads(1);
    let base = PointPillars::build(&PointPillarsConfig::paper())?;
    let shapes = base.input_shapes();
    let device = DeviceProfile::jetson_orin_nano();
    let ladder = VariantLadder::build(base, &device, MODEL_SEED)?;
    let nominal = scenario::by_name("nominal").ok_or("the catalog has a nominal profile")?;
    let stream = FrameStream::<PointCloud>::generate(&nominal.dataset, 1);

    for spec in ladder.levels() {
        let det = &spec.detector;
        let model = det.model();
        let predicted: HashMap<LayerId, f64> = model_costs(model, &shapes)?
            .layers
            .iter()
            .zip(&spec.estimate.per_layer_s)
            .map(|(cost, &s)| (cost.id, s))
            .collect();

        let mut ws = Workspace::new();
        let mut samples: Vec<Vec<f64>> = Vec::new();
        for id in 0..=FRAMES {
            let cloud = stream.frame(id).data;
            let inputs = HashMap::from([(det.input_name().to_string(), det.preprocess(&cloud))]);
            forward_into(model, &inputs, &mut ws)?;
            if id == 0 {
                samples = vec![Vec::with_capacity(FRAMES as usize); ws.layer_times().len()];
                continue;
            }
            for (s, &(_, t)) in samples.iter_mut().zip(ws.layer_times()) {
                s.push(t.as_secs_f64() * 1e3);
            }
        }

        println!(
            "{} — median of {FRAMES} frames, 1 thread; predicted on {}",
            spec.name, device.name
        );
        println!(
            "{:>3}  {:<22} {:>11} {:>13} {:>9}",
            "id", "layer", "measured ms", "predicted ms", "ratio"
        );
        let (mut measured_total, mut predicted_total) = (0.0, 0.0);
        for (&(id, _), s) in ws.layer_times().iter().zip(&mut samples) {
            let measured = median(s);
            let predicted_ms = predicted.get(&id).map_or(0.0, |s| s * 1e3);
            measured_total += measured;
            predicted_total += predicted_ms;
            let ratio = if predicted_ms > 0.0 {
                format!("{:.1}×", measured / predicted_ms)
            } else {
                "-".into()
            };
            println!(
                "{id:>3}  {:<22} {measured:>11.3} {predicted_ms:>13.4} {ratio:>9}",
                model.layer(id)?.name()
            );
        }
        println!(
            "     {:<22} {measured_total:>11.3} {predicted_total:>13.4} {:>8.1}×\n",
            "total",
            measured_total / predicted_total
        );
    }
    Ok(())
}
