//! Pins what the real detectors compute, raw bit for raw bit.
//!
//! Each case builds the base, LCK and HCK rungs of `VariantLadder::build`
//! and runs two fixed frames through every rung, once frame by frame
//! through `forward_into` and once as one batch through
//! `forward_batch_into`. Each frame's activations fold into an FNV-1a
//! 64-bit fingerprint: every layer's id and the raw bits of its
//! activation, in layer-id order. Both executors must agree with each
//! other and with the pinned values, so a change to the conv kernel (or
//! any other layer kernel) that moves a single activation bit of a real
//! model fails here, even where the kernel oracles' small random operands
//! would not reach it.
//!
//! The tiny cases run in tier-1, at one tensor thread and again at
//! `UPAQ_TEST_THREADS` (default 4; CI's thread-sanity matrix sets 1 and
//! 4), so the pool's split of each conv must leave every bit in place.
//! The paper-scale PointPillars case runs at one thread and is
//! `#[ignore]`d; run it with
//! `cargo test --release --test forward_pin -- --ignored`.

use std::collections::HashMap;
use upaq_hwmodel::DeviceProfile;
use upaq_kitti::dataset::DatasetConfig;
use upaq_kitti::stream::{FrameStream, SensorData};
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_models::StreamingDetector;
use upaq_nn::exec::{forward_batch_into, forward_into, Workspace};
use upaq_runtime::VariantLadder;
use upaq_tensor::ops::TensorParallel;
use upaq_tensor::Tensor;

/// Seed of the UPAQ search that builds the ladder, and of the frames.
const SEED: u64 = 2025;

/// Tensor threads for the multi-threaded leg of the tiny cases.
fn test_threads() -> usize {
    std::env::var("UPAQ_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Every layer's id and activation bits, in layer-id order.
fn fingerprint(ws: &Workspace) -> u64 {
    let acts = ws.activations();
    let mut ids: Vec<_> = acts.keys().copied().collect();
    ids.sort_unstable();
    let mut h = Fnv::new();
    for id in ids {
        h.u64(id as u64);
        h.f32s(acts[&id].as_slice());
    }
    h.0
}

/// Builds `base`'s ladder, runs `frames` through every rung both ways at
/// each tensor thread count in `threads` and checks each rung's
/// per-frame fingerprints against `expected`, reporting every mismatch
/// at once.
fn assert_pinned<D: StreamingDetector>(
    case: &str,
    base: D,
    frames: &[D::Input],
    threads: &[usize],
    expected: &[(&str, [u64; 2])],
) {
    let ladder = VariantLadder::build(base, &DeviceProfile::jetson_orin_nano(), SEED).unwrap();
    assert_eq!(ladder.len(), expected.len(), "{case}: rung count");
    let mut mismatches = Vec::new();
    for (spec, &(want_name, want)) in ladder.levels().iter().zip(expected) {
        assert_eq!(spec.name, want_name, "{case}: expected table out of order");
        let det = &spec.detector;
        let inputs: Vec<HashMap<String, Tensor>> = frames
            .iter()
            .map(|frame| HashMap::from([(det.input_name().to_string(), det.preprocess(frame))]))
            .collect();

        for &t in threads {
            TensorParallel::set_threads(t);
            let mut ws = Workspace::new();
            let mut single = [0u64; 2];
            for (got, frame) in single.iter_mut().zip(&inputs) {
                forward_into(det.model(), frame, &mut ws).unwrap();
                *got = fingerprint(&ws);
            }
            let mut wss = Vec::new();
            forward_batch_into(det.model(), &inputs, &mut wss).unwrap();
            let batched = [fingerprint(&wss[0]), fingerprint(&wss[1])];
            assert_eq!(
                single, batched,
                "{case} `{want_name}` at {t} threads: forward_into and forward_batch_into disagree"
            );

            if single != want {
                mismatches.push(format!(
                    "(\"{want_name}\", [0x{:016x}, 0x{:016x}]), at {t} threads",
                    single[0], single[1]
                ));
            }
        }
    }
    TensorParallel::set_threads(1);
    assert!(
        mismatches.is_empty(),
        "{case}: activations differ from the pinned ones; got\n{}",
        mismatches.join("\n")
    );
}

/// Frames 0 and 1 of the seeded small-dataset stream for modality `T`.
fn two_frames<T: SensorData>(dataset: &DatasetConfig) -> Vec<T> {
    let mut cfg = dataset.clone();
    cfg.scenes = 2;
    let stream = FrameStream::<T>::generate(&cfg, SEED);
    (0..2).map(|id| stream.frame(id).data).collect()
}

#[test]
fn tiny_pointpillars_activations_are_pinned() {
    assert_pinned(
        "tiny PointPillars",
        PointPillars::build(&PointPillarsConfig::tiny()).unwrap(),
        &two_frames(&DatasetConfig::small()),
        &[1, test_threads()],
        &[
            ("base", [0x2b38_1b28_8162_99c3, 0x9745_b577_4618_045f]),
            ("UPAQ (LCK)", [0x7e28_721c_9b9e_3e6c, 0x6217_fe4f_3309_adee]),
            ("UPAQ (HCK)", [0x4198_19ce_9853_eabc, 0xab05_0009_10e3_a591]),
        ],
    );
}

#[test]
fn tiny_smoke_activations_are_pinned() {
    let config = SmokeConfig::tiny();
    let mut dataset = DatasetConfig::small();
    dataset.camera = config.calib.clone();
    assert_pinned(
        "tiny SMOKE",
        Smoke::build(&config).unwrap(),
        &two_frames(&dataset),
        &[1, test_threads()],
        &[
            ("base", [0x489f_96f0_3a6f_1ec5, 0x1687_d737_e223_7b4b]),
            ("UPAQ (LCK)", [0xc180_a0b9_1bd7_ad3d, 0xb24a_7e06_00b8_2380]),
            ("UPAQ (HCK)", [0x68d8_3bf0_68cd_74b7, 0xdc32_bf20_b89c_43c5]),
        ],
    );
}

#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn paper_pointpillars_activations_are_pinned() {
    assert_pinned(
        "paper PointPillars",
        PointPillars::build(&PointPillarsConfig::paper()).unwrap(),
        &two_frames(&DatasetConfig::small()),
        &[1],
        &[
            ("base", [0x269d_7061_cf73_a298, 0x464f_4966_ac95_d64b]),
            ("UPAQ (LCK)", [0xe238_2190_23b8_7ab3, 0x3c74_cfc9_02f5_3797]),
            ("UPAQ (HCK)", [0x559f_6831_c8d8_2e3a, 0xdf6e_9513_5d69_c43b]),
        ],
    );
}
