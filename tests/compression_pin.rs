//! Pins what every compression framework produces, raw bit for raw bit.
//!
//! Each case compresses an unfitted detector (its weights come from the
//! model's own init seed) with UPAQ LCK and HCK and the four baselines,
//! and folds the outcome into an FNV-1a 64-bit fingerprint: every weighted
//! layer's id, weight and bias raw bits, bit allocation and sparsity kind.
//! The bytes of `artifact::pack` get their own fingerprint, and so do the
//! raw bits of `sensitivity::analyze`. A refactor of the quantizer, the
//! group search or the packer that changes a single weight bit, a bit
//! width or a packed byte fails here.
//!
//! The tiny cases run in tier-1. The paper-scale PointPillars case is
//! `#[ignore]`d (about 26 s per UPAQ compression in a debug build); run it
//! with `cargo test --release --test compression_pin -- --ignored`.

use upaq::artifact::pack;
use upaq::compress::{CompressionContext, CompressionOutcome, Compressor, Upaq};
use upaq::config::UpaqConfig;
use upaq::sensitivity::analyze;
use upaq_baselines::{ClipQ, LidarPtq, PsQs, RToss};
use upaq_hwmodel::exec::SparsityKind;
use upaq_hwmodel::DeviceProfile;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_models::smoke::{Smoke, SmokeConfig};
use upaq_nn::Model;

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

fn kind_tag(kind: Option<&SparsityKind>) -> u64 {
    match kind {
        None => 0,
        Some(SparsityKind::Dense) => 1,
        Some(SparsityKind::Unstructured) => 2,
        Some(SparsityKind::SemiStructured) => 3,
        Some(SparsityKind::Structured) => 4,
    }
}

/// `(outcome fingerprint, packed-artifact fingerprint)`.
fn fingerprint(outcome: &CompressionOutcome) -> (u64, u64) {
    let mut h = Fnv::new();
    let model = &outcome.model;
    for id in model.weighted_layers() {
        let layer = model.layer(id).unwrap();
        h.u64(id as u64);
        h.f32s(layer.weights().unwrap().as_slice());
        h.f32s(layer.bias().map_or(&[], |b| b.as_slice()));
        h.u64(outcome.bits.get(&id).map_or(0, |&b| u64::from(b)));
        h.u64(kind_tag(outcome.kinds.get(&id)));
    }
    let packed = pack(model, &outcome.bits, &outcome.kinds).unwrap();
    let mut p = Fnv::new();
    p.bytes(packed.as_bytes());
    (h.0, p.0)
}

fn sensitivity_fingerprint(model: &Model) -> u64 {
    let mut h = Fnv::new();
    for record in analyze(model, &[4, 8, 16], &[2, 3]).unwrap() {
        h.u64(record.layer as u64);
        h.u64(record.weights as u64);
        for (bits, db) in record.quantization {
            h.u64(u64::from(bits));
            h.f32s(&[db]);
        }
        for (n, frac) in record.pruning {
            h.u64(n as u64);
            h.f32s(&[frac]);
        }
    }
    h.0
}

/// The six frameworks of the paper's Table 2, with the label each row of
/// the expected table carries.
fn frameworks() -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        ("upaq-lck", Box::new(Upaq::new(UpaqConfig::lck()))),
        ("upaq-hck", Box::new(Upaq::new(UpaqConfig::hck()))),
        ("ps-qs", Box::new(PsQs::default())),
        ("clip-q", Box::new(ClipQ::default())),
        ("r-toss", Box::new(RToss::default())),
        ("lidar-ptq", Box::new(LidarPtq::default())),
    ]
}

/// Compresses `model` with every framework and checks each fingerprint
/// pair against `expected`, reporting every mismatch at once.
fn assert_pinned(
    case: &str,
    model: &Model,
    ctx: &CompressionContext,
    expected: &[(&str, u64, u64)],
) {
    let mut mismatches = Vec::new();
    for ((label, framework), &(want_label, want_outcome, want_pack)) in
        frameworks().iter().zip(expected)
    {
        assert_eq!(*label, want_label, "{case}: expected table out of order");
        let outcome = framework.compress(model, ctx).unwrap();
        let (got_outcome, got_pack) = fingerprint(&outcome);
        if (got_outcome, got_pack) != (want_outcome, want_pack) {
            mismatches.push(format!(
                "(\"{label}\", 0x{got_outcome:016x}, 0x{got_pack:016x}),"
            ));
        }
    }
    assert_eq!(expected.len(), frameworks().len(), "{case}: table size");
    assert!(
        mismatches.is_empty(),
        "{case}: outcomes differ from the pinned ones; got\n{}",
        mismatches.join("\n")
    );
}

fn context(
    input_shapes: std::collections::HashMap<String, upaq_tensor::Shape>,
    head: usize,
) -> CompressionContext {
    CompressionContext::new(DeviceProfile::jetson_orin_nano(), input_shapes, 2025)
        .with_skip_layers(vec![head])
}

#[test]
fn tiny_pointpillars_outcomes_are_pinned() {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let ctx = context(det.input_shapes(), det.head_layer().unwrap());
    assert_pinned(
        "tiny PointPillars",
        &det.model,
        &ctx,
        &[
            ("upaq-lck", 0x9dc4_25d7_ded8_102f, 0xda75_a22b_8936_b11a),
            ("upaq-hck", 0xd596_321a_aaf5_4e69, 0xb12c_a39a_2985_5fd5),
            ("ps-qs", 0xdf6a_1878_49ac_da1a, 0x6811_1e86_22b6_92f6),
            ("clip-q", 0x9e2e_1a31_bd6f_42fc, 0xb246_93da_d88a_a5ad),
            ("r-toss", 0xb8ee_c2bd_b5b1_1446, 0x23d0_34ec_9c9d_d280),
            ("lidar-ptq", 0x172e_e0a7_8c8f_e2a9, 0xad10_9c0e_366c_2271),
        ],
    );
}

#[test]
fn tiny_smoke_outcomes_are_pinned() {
    let det = Smoke::build(&SmokeConfig::tiny()).unwrap();
    let ctx = context(det.input_shapes(), det.head_layer().unwrap());
    assert_pinned(
        "tiny SMOKE",
        &det.model,
        &ctx,
        &[
            ("upaq-lck", 0xde40_71fe_22cd_4543, 0xd94d_9556_3414_c006),
            ("upaq-hck", 0x5e0b_09a9_c5ab_0730, 0xf92f_734c_b2fd_bc41),
            ("ps-qs", 0x8441_6bbf_39ba_937d, 0xdc61_1298_0875_4040),
            ("clip-q", 0xb2c4_a7c4_0fca_01f1, 0x4c20_90dc_4ad5_fa1f),
            ("r-toss", 0xbe75_60fd_f8c0_102d, 0x4604_0650_f97f_3076),
            ("lidar-ptq", 0xf0a2_d2ea_da24_96af, 0xb3ac_1178_502f_a857),
        ],
    );
}

#[test]
fn sensitivity_analysis_is_pinned() {
    let pillars = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let smoke = Smoke::build(&SmokeConfig::tiny()).unwrap();
    let got = (
        sensitivity_fingerprint(&pillars.model),
        sensitivity_fingerprint(&smoke.model),
    );
    assert_eq!(
        got,
        (0xc75e_a8c8_e6be_ea99, 0x5166_ad14_4195_f427),
        "got (0x{:016x}, 0x{:016x})",
        got.0,
        got.1
    );
}

#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn paper_pointpillars_outcomes_are_pinned() {
    let det = PointPillars::build(&PointPillarsConfig::paper()).unwrap();
    let ctx = context(det.input_shapes(), det.head_layer().unwrap());
    assert_pinned(
        "paper PointPillars",
        &det.model,
        &ctx,
        &[
            ("upaq-lck", 0x08e7_eeef_02a0_bb7c, 0xd1f4_926d_53db_c9da),
            ("upaq-hck", 0xdc1d_ceeb_0da3_7091, 0x1892_e18d_257b_5c04),
            ("ps-qs", 0x4da4_7b52_5c94_1d89, 0xf5a7_2633_02ec_ffea),
            ("clip-q", 0xae82_aa21_957e_4e5a, 0xcc65_ae24_c984_bb58),
            ("r-toss", 0x3b29_6291_2779_89bc, 0xea17_a57e_d898_0931),
            ("lidar-ptq", 0x8c92_1e7f_f3c6_62d1, 0x4957_41b5_b066_087f),
        ],
    );
}
