//! Table 2's deterministic orderings for PointPillars: UPAQ LCK and HCK
//! each compress more than Ps&Qs, Clip-Q, R-TOSS and LiDAR-PTQ and run
//! faster and on less energy on both devices, and HCK beats LCK on all
//! five columns.
//!
//! PointPillars is compressed as `run_pointpillars_table2` does it: all
//! six frameworks, under the Jetson-calibrated context, with the head
//! kept dense. The head fit and the mAP evaluation are left out: they
//! change none of these columns.
//!
//! The tiny case runs in tier-1. The paper-scale case is `#[ignore]`d;
//! run it with `cargo test --release --test table2_orderings -- --ignored`.

use upaq::compress::CompressionContext;
use upaq_bench::harness::{calibrated_devices, estimate_on, frameworks};
use upaq_bench::paper::POINTPILLARS_TABLE2;
use upaq_bench::HarnessConfig;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};

/// One framework's modelled Table 2 columns.
#[derive(Debug)]
struct Row {
    framework: String,
    compression: f64,
    rtx_ms: f64,
    jetson_ms: f64,
    rtx_j: f64,
    jetson_j: f64,
}

/// The six frameworks' rows, in the paper's column order.
fn rows(config: &PointPillarsConfig) -> Vec<Row> {
    let det = PointPillars::build(config).unwrap();
    let shapes = det.input_shapes();
    let devices = calibrated_devices(&det.model, &shapes, &POINTPILLARS_TABLE2[0]).unwrap();
    let ctx = CompressionContext::new(
        devices.jetson.clone(),
        shapes.clone(),
        HarnessConfig::default().seed,
    )
    .with_skip_layers(vec![det.head_layer().unwrap()]);
    frameworks()
        .into_iter()
        .map(|(compressor, _)| {
            let outcome = compressor.compress(&det.model, &ctx).unwrap();
            let on = |device| {
                estimate_on(
                    &outcome.model,
                    &shapes,
                    &outcome.bits,
                    &outcome.kinds,
                    device,
                )
                .unwrap()
            };
            let (rtx, jetson) = (on(&devices.rtx), on(&devices.jetson));
            Row {
                framework: compressor.name().to_string(),
                compression: outcome.report.compression_ratio,
                rtx_ms: rtx.latency_ms(),
                jetson_ms: jetson.latency_ms(),
                rtx_j: rtx.energy_j,
                jetson_j: jetson.energy_j,
            }
        })
        .collect()
}

/// Whether `a` beats `b` on every column: more compression, less latency
/// and less energy on both devices.
fn beats(a: &Row, b: &Row) -> bool {
    a.compression > b.compression
        && a.rtx_ms < b.rtx_ms
        && a.jetson_ms < b.jetson_ms
        && a.rtx_j < b.rtx_j
        && a.jetson_j < b.jetson_j
}

fn assert_orderings(config: &PointPillarsConfig) {
    let rows = rows(config);
    let names: Vec<&str> = rows.iter().map(|r| r.framework.as_str()).collect();
    assert_eq!(
        names,
        [
            "Ps&Qs",
            "CLIP-Q",
            "R-TOSS",
            "LIDAR-PTQ",
            "UPAQ (LCK)",
            "UPAQ (HCK)"
        ]
    );
    let (baselines, upaq) = rows.split_at(4);
    for variant in upaq {
        for baseline in baselines {
            assert!(
                beats(variant, baseline),
                "{variant:?}\ndoes not beat\n{baseline:?}"
            );
        }
    }
    let (lck, hck) = (&upaq[0], &upaq[1]);
    assert!(beats(hck, lck), "{hck:?}\ndoes not beat\n{lck:?}");
}

#[test]
fn tiny_pointpillars_orderings_hold() {
    assert_orderings(&PointPillarsConfig::tiny());
}

#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn paper_pointpillars_orderings_hold() {
    assert_orderings(&PointPillarsConfig::paper());
}
