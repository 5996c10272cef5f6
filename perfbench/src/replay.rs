//! The traced replay: the untraced run's frames, in its order, batch
//! sizes and rung mix, pushed through the layers' public functions one
//! call at a time, each call a span.

use std::collections::HashMap;
use std::time::Instant;
use upaq_det3d::{decode, nms, refine_all};
use upaq_kitti::lidar::PointCloud;
use upaq_models::StreamingDetector;
use upaq_nn::exec::{forward_batch_into, forward_into, Workspace};
use upaq_runtime::{DeadlineScheduler, SchedulerConfig};
use upaq_serve::FleetReport;
use upaq_tensor::Tensor;

use crate::metrics::Loop;
use crate::setup::{Error, Ladder};
use crate::trace::Tracer;
use crate::workloads::{same_boxes, Outcome, Served, Workload};

/// Per-frame numbers the spans alone do not give.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Per frame: start of its group to its detections, seconds.
    pub service_s: Vec<f64>,
    /// Per frame: `refine_all` + `nms`, seconds.
    pub nms_s: Vec<f64>,
    /// Boxes `decode` proposed.
    pub proposals: u64,
    /// Boxes left after refinement and NMS.
    pub kept: u64,
    /// Forward invocations and the frames they carried.
    pub forwards: u64,
    /// Frames carried by those invocations.
    pub forward_frames: u64,
    /// Replayed frames whose decomposed postprocess or delivery differed.
    pub mismatches: Vec<String>,
}

/// The replay's groups: `(rung, frames)` in the untraced run's order.
///
/// fleet-saturate serves every frame at rung 0, so its groups take the
/// sizes of the first round's batch histogram (the replayed frames are
/// that round's). paper-ladder ran every frame alone. On the rig a
/// trigger may be served in several batches at different rungs, so its
/// groups come from the frames themselves: consecutive delivered frames
/// of one trigger on the same rung, at most `max_batch` each.
pub fn groups<'a>(
    workload: Workload,
    frames: &'a [Served],
    reports: &[FleetReport],
) -> Vec<(usize, Vec<&'a Served>)> {
    let delivered: Vec<&Served> = frames.iter().filter(|f| f.boxes.is_some()).collect();
    match workload {
        Workload::PaperLadder => delivered
            .into_iter()
            .map(|f| (f.level.unwrap_or(0), vec![f]))
            .collect(),
        Workload::FleetSaturate => {
            let sizes = reports[0]
                .batch_histogram
                .iter()
                .flat_map(|b| std::iter::repeat_n(b.size, b.batches as usize));
            let mut rest = delivered.as_slice();
            let mut out = Vec::new();
            for size in sizes {
                let (group, tail) = rest.split_at(size.min(rest.len()));
                if group.is_empty() {
                    break;
                }
                out.push((0, group.to_vec()));
                rest = tail;
            }
            out
        }
        Workload::RigRealtime => {
            let max_batch = reports[0].max_batch.max(1);
            let mut out: Vec<(usize, Vec<&Served>)> = Vec::new();
            for f in delivered {
                let level = f.level.unwrap_or(0);
                match out.last_mut() {
                    Some((l, group))
                        if *l == level && group[0].id == f.id && group.len() < max_batch =>
                    {
                        group.push(f)
                    }
                    _ => out.push((level, vec![f])),
                }
            }
            out
        }
    }
}

/// Replays `outcome` through `ladder`, recording spans into `tracer`.
pub fn replay(
    workload: Workload,
    ladder: &Ladder,
    outcome: &Outcome,
    tracer: &mut Tracer,
) -> Result<ReplayStats, Error> {
    let scheduler = DeadlineScheduler::new(ladder, SchedulerConfig::default());
    let base = &ladder.level(0).detector;
    let input_name = base.input_name().to_string();
    let mut ws = Workspace::new();
    let mut wss: Vec<Workspace> = Vec::new();
    let mut stats = ReplayStats::default();
    let mut next_trace = 1u64;
    for (level, frames) in groups(workload, &outcome.frames, outcome.first_runs()) {
        let variant = ladder.level(level);
        let det = &variant.detector;
        let k = frames.len();
        let clouds: Vec<PointCloud> = frames
            .iter()
            .map(|f| outcome.inputs.frame(f.stream, f.id).data)
            .collect();
        let traces: Vec<u64> = (next_trace..next_trace + k as u64).collect();
        next_trace += k as u64;
        let started = Instant::now();
        let group =
            tracer.begin_tagged("serve.group", traces[0], None, format!("k{k}.rung{level}"));
        if workload.loop_kind() == Loop::Open {
            // Every member arrived on the same trigger: the full budget.
            let profiles = outcome.inputs.scenario.profiles();
            let budgets: Vec<f64> = frames
                .iter()
                .map(|f| profiles[f.stream].deadline_s)
                .collect();
            tracer.time(
                "runtime.scheduler.admit_prefix",
                traces[0],
                Some(group),
                || scheduler.admit_prefix(&budgets),
            );
        }
        let inputs: Vec<HashMap<String, Tensor>> = clouds
            .iter()
            .zip(&traces)
            .map(|(cloud, &trace)| {
                let tensor = tracer.time("det3d.pillarize", trace, Some(group), || {
                    base.preprocess(cloud)
                });
                HashMap::from([(input_name.clone(), tensor)])
            })
            .collect();
        let fwd = tracer.begin_tagged("nn.forward", traces[0], Some(group), level.to_string());
        if k == 1 {
            forward_into(det.model(), &inputs[0], &mut ws)?;
        } else {
            forward_batch_into(det.model(), &inputs, &mut wss)?;
        }
        tracer.end(fwd);
        stats.forwards += 1;
        stats.forward_frames += k as u64;
        let mut replayed = Vec::with_capacity(k);
        for (i, (cloud, &trace)) in clouds.iter().zip(&traces).enumerate() {
            let acts = if k == 1 {
                ws.activations()
            } else {
                wss[i].activations()
            };
            let head = &acts[&variant.head];
            let post = tracer.begin("det3d.postprocess", trace, Some(group));
            // `LidarDetector::postprocess`, one public call at a time.
            let boxes = if cloud.is_empty() {
                Vec::new()
            } else {
                let proposals = tracer.time("det3d.decode", trace, Some(post), || {
                    decode(head, &det.head_spec)
                });
                stats.proposals += proposals.len() as u64;
                match &det.refine {
                    Some(cfg) => {
                        let t0 = Instant::now();
                        let refined = tracer.time("det3d.refine", trace, Some(post), || {
                            refine_all(&proposals, cloud, cfg)
                        });
                        let kept = tracer.time("det3d.nms", trace, Some(post), || {
                            nms(refined, det.head_spec.nms_iou)
                        });
                        stats.nms_s.push(t0.elapsed().as_secs_f64());
                        kept
                    }
                    None => proposals,
                }
            };
            tracer.end(post);
            stats.service_s.push(started.elapsed().as_secs_f64());
            stats.kept += boxes.len() as u64;
            replayed.push(boxes);
        }
        tracer.end(group);
        // Untimed: the decomposition must equal `postprocess` and the
        // delivery the untraced run made.
        for (i, ((frame, cloud), boxes)) in frames.iter().zip(&clouds).zip(&replayed).enumerate() {
            let acts = if k == 1 {
                ws.activations()
            } else {
                wss[i].activations()
            };
            let whole = det.postprocess(&acts[&variant.head], cloud);
            let delivered = frame.boxes.as_deref().unwrap_or_default();
            if !same_boxes(boxes, &whole) || !same_boxes(boxes, delivered) {
                stats.mismatches.push(format!(
                    "replayed stream {} frame {} differs from postprocess or its delivery",
                    frame.stream, frame.id
                ));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::groups;
    use crate::metrics::tests::report;
    use crate::workloads::{Served, Workload};
    use upaq_runtime::metrics::BatchBucket;

    fn served(stream: usize, id: u64, level: Option<usize>) -> Served {
        Served {
            stream,
            id,
            level,
            boxes: level.map(|_| Vec::new()),
        }
    }

    fn sizes(groups: &[(usize, Vec<&Served>)]) -> Vec<(usize, Vec<(usize, u64)>)> {
        groups
            .iter()
            .map(|(l, g)| (*l, g.iter().map(|f| (f.stream, f.id)).collect()))
            .collect()
    }

    #[test]
    fn rig_groups_follow_triggers_and_rungs() {
        let mut report = report(12, 11, 0);
        // Trigger 0 was split across rungs: streams 0–1 on base, 2–3 on
        // HCK. Trigger 1 ran whole on base. Trigger 2 lost stream 1 and
        // ran the rest on HCK. The histogram (one batch of 4 …) is not
        // consulted: cutting by it would mix triggers and rungs.
        report.batch_histogram = vec![BatchBucket {
            size: 4,
            batches: 3,
        }];
        let frames = vec![
            served(0, 0, Some(0)),
            served(1, 0, Some(0)),
            served(2, 0, Some(2)),
            served(3, 0, Some(2)),
            served(0, 1, Some(0)),
            served(1, 1, Some(0)),
            served(2, 1, Some(0)),
            served(3, 1, Some(0)),
            served(0, 2, Some(2)),
            served(1, 2, None),
            served(2, 2, Some(2)),
            served(3, 2, Some(2)),
        ];
        let got = groups(Workload::RigRealtime, &frames, &[report]);
        assert_eq!(
            sizes(&got),
            vec![
                (0, vec![(0, 0), (1, 0)]),
                (2, vec![(2, 0), (3, 0)]),
                (0, vec![(0, 1), (1, 1), (2, 1), (3, 1)]),
                (2, vec![(0, 2), (2, 2), (3, 2)]),
            ]
        );
    }

    #[test]
    fn rig_groups_respect_max_batch() {
        let mut report = report(4, 4, 0);
        report.max_batch = 2;
        let frames: Vec<Served> = (0..4).map(|s| served(s, 0, Some(0))).collect();
        let got = groups(Workload::RigRealtime, &frames, &[report]);
        assert_eq!(
            sizes(&got),
            vec![(0, vec![(0, 0), (1, 0)]), (0, vec![(2, 0), (3, 0)])]
        );
    }

    #[test]
    fn fleet_groups_take_the_histogram_sizes() {
        let mut report = report(7, 7, 0);
        report.batch_histogram = vec![
            BatchBucket {
                size: 3,
                batches: 1,
            },
            BatchBucket {
                size: 4,
                batches: 1,
            },
        ];
        let frames: Vec<Served> = (0..7).map(|s| served(s, 0, Some(0))).collect();
        let got = groups(Workload::FleetSaturate, &frames, &[report]);
        let lens: Vec<usize> = got.iter().map(|(_, g)| g.len()).collect();
        assert_eq!(lens, vec![3, 4]);
    }
}
