//! Criterion bench for the design-choice ablations: root-group sharing vs
//! per-layer search (the compression-cost saving the paper's preprocessing
//! stage claims), and the pattern-candidate budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use upaq::config::UpaqConfig;
use upaq::kxk::compress_group;
use upaq::score::ScoreContext;
use upaq_hwmodel::exec::BitAllocation;
use upaq_hwmodel::DeviceProfile;
use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
use upaq_nn::group::preprocess;

fn bench_group_sharing(c: &mut Criterion) {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let ctx = ScoreContext::new(
        DeviceProfile::jetson_orin_nano(),
        det.input_shapes(),
        &det.model,
        0.3,
        0.4,
        0.3,
    )
    .unwrap();
    let cfg = UpaqConfig::lck();
    let groups = preprocess(&det.model);
    let kxk_roots: Vec<(Vec<usize>, usize)> = groups
        .roots()
        .iter()
        .filter_map(|&root| {
            let members = groups.members(root)?.to_vec();
            let k = det.model.layer(members[0]).ok()?.kernel_size()?;
            (k > 1).then_some((members, k))
        })
        .collect();

    let mut group = c.benchmark_group("group_sharing");
    group.sample_size(10);
    group.bench_function("shared_root_groups", |b| {
        b.iter(|| {
            let mut model = det.model.deep_copy();
            let mut bits = BitAllocation::new();
            let mut kinds = HashMap::new();
            let mut rng = StdRng::seed_from_u64(1);
            for (members, k) in &kxk_roots {
                black_box(
                    compress_group(
                        &mut model, members, *k, &cfg, &ctx, &mut bits, &mut kinds, &mut rng,
                    )
                    .unwrap(),
                );
            }
        });
    });
    group.bench_function("per_layer_search", |b| {
        b.iter(|| {
            let mut model = det.model.deep_copy();
            let mut bits = BitAllocation::new();
            let mut kinds = HashMap::new();
            let mut rng = StdRng::seed_from_u64(1);
            for (members, k) in &kxk_roots {
                // Ablation: every layer searched independently.
                for &layer in members {
                    black_box(
                        compress_group(
                            &mut model,
                            &[layer],
                            *k,
                            &cfg,
                            &ctx,
                            &mut bits,
                            &mut kinds,
                            &mut rng,
                        )
                        .unwrap(),
                    );
                }
            }
        });
    });
    group.finish();
}

fn bench_candidate_budget(c: &mut Criterion) {
    let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
    let ctx = ScoreContext::new(
        DeviceProfile::jetson_orin_nano(),
        det.input_shapes(),
        &det.model,
        0.3,
        0.4,
        0.3,
    )
    .unwrap();
    let groups = preprocess(&det.model);
    let (members, k) = groups
        .roots()
        .iter()
        .find_map(|&root| {
            let members = groups.members(root)?.to_vec();
            let k = det.model.layer(members[0]).ok()?.kernel_size()?;
            (k > 1).then_some((members, k))
        })
        .expect("a k×k group exists");

    let mut group = c.benchmark_group("pattern_budget");
    group.sample_size(10);
    for budget in [1usize, 4, 8] {
        let cfg = UpaqConfig {
            patterns_per_group: budget,
            ..UpaqConfig::lck()
        };
        group.bench_with_input(BenchmarkId::from_parameter(budget), &cfg, |b, cfg| {
            b.iter(|| {
                let mut model = det.model.deep_copy();
                let mut bits = BitAllocation::new();
                let mut kinds = HashMap::new();
                let mut rng = StdRng::seed_from_u64(2);
                black_box(
                    compress_group(
                        &mut model, &members, k, cfg, &ctx, &mut bits, &mut kinds, &mut rng,
                    )
                    .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_group_sharing, bench_candidate_budget);
criterion_main!(benches);
