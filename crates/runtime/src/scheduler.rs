//! Deadline-aware admission: offered a group of queued frames in
//! earliest-deadline-first order, run the largest prefix one batched
//! invocation can finish within the head frame's remaining budget, on the
//! most accurate rung that fits; degrade down the ladder when the full
//! model does not fit, and drop the head frame when even the cheapest
//! variant cannot finish in time.
//!
//! Latency predictions start from the hardware model's per-variant
//! estimates and are corrected online by an exponential moving average of
//! measured invocation latencies, so the policy adapts to the machine it
//! is actually running on (including injected latency spikes in the
//! overload tests). The admission budget covers the frame's *remaining*
//! work — predicted backbone latency plus the observed postprocess EMA —
//! so a frame admitted with an exactly-fitting budget does not then miss
//! its deadline inside postprocess.

use crate::variant::VariantLadder;
use std::sync::Mutex;
use upaq_hwmodel::BatchCost;
use upaq_models::StreamingDetector;

/// Scheduler knobs. Deadlines belong to the streams: the scheduler only
/// ever sees each frame's remaining budget.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// EMA weight for new latency observations (0 disables adaptation).
    pub ema_alpha: f64,
    /// Safety factor applied to predicted latency (1.0 = none): a batch is
    /// admitted at a level only if `headroom × predicted ≤ remaining`.
    pub headroom: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            ema_alpha: 0.2,
            headroom: 1.0,
        }
    }
}

/// Deadline-aware variant scheduler over a [`VariantLadder`].
pub struct DeadlineScheduler {
    config: SchedulerConfig,
    /// Per-variant batched-latency model (`fixed + k·marginal`), seconds.
    /// Seeded from the hardware model, corrected by measurement; the
    /// batch-1 prediction plays the role the scalar prediction table did.
    costs: Mutex<Vec<BatchCost>>,
    /// Observed postprocess latency EMA, seconds. Variant-independent
    /// (decode + NMS cost does not depend on the backbone variant); starts
    /// at zero and takes the first observation verbatim.
    post_s: Mutex<Option<f64>>,
}

impl DeadlineScheduler {
    /// Seeds per-variant latency predictions from the ladder's hardware
    /// estimates.
    pub fn new<D: StreamingDetector>(ladder: &VariantLadder<D>, config: SchedulerConfig) -> Self {
        let costs = ladder
            .levels()
            .iter()
            .map(|v| BatchCost::from_estimate(&v.estimate))
            .collect();
        DeadlineScheduler {
            config,
            costs: Mutex::new(costs),
            post_s: Mutex::new(None),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Current backbone latency prediction for a ladder level, seconds.
    /// A level outside the ladder predicts `f64::INFINITY`: an unknown
    /// variant can never fit a deadline budget.
    pub fn predicted_s(&self, level: usize) -> f64 {
        self.predicted_batch_s(level, 1)
    }

    /// Current backbone latency prediction for one batched invocation of
    /// `k` frames on a ladder level, seconds. Out-of-ladder levels predict
    /// `f64::INFINITY`.
    pub fn predicted_batch_s(&self, level: usize, k: usize) -> f64 {
        self.costs
            .lock()
            .unwrap()
            .get(level)
            .map_or(f64::INFINITY, |c| c.predict_s(k))
    }

    /// Current postprocess latency estimate, seconds (0 until observed).
    pub fn predicted_post_s(&self) -> f64 {
        self.post_s.lock().unwrap().unwrap_or(0.0)
    }

    /// The admission primitive: given a group in
    /// earliest-deadline-first order (`budgets_sorted[0]` is the tightest
    /// remaining budget, in seconds), returns the largest admissible prefix
    /// `(k, level)` — `k` frames runnable as one batched invocation on
    /// ladder `level` within the head frame's budget — or `None` when the
    /// head frame cannot run anywhere and must be dropped.
    ///
    /// Because the group is EDF-ordered, every prefix's binding constraint
    /// is the head budget, so growing the batch only adds marginal cost
    /// ([`BatchCost::largest_fit`]). Policy: maximize the batch size first
    /// (throughput — amortizing the fixed cost is why the fleet batches at
    /// all), then prefer the most accurate rung among the ties. `k = 1`
    /// degenerates to per-frame admission at the returned level.
    pub fn admit_prefix(&self, budgets_sorted: &[f64]) -> Option<(usize, usize)> {
        let head = budgets_sorted.first().copied().unwrap_or(f64::NEG_INFINITY);
        if head <= 0.0 {
            return None;
        }
        // (predict(k) + post) · headroom ≤ head  ⇔  predict(k) ≤ budget.
        let headroom = self.config.headroom.max(f64::MIN_POSITIVE);
        let budget = head / headroom - self.predicted_post_s();
        let costs = self.costs.lock().unwrap();
        let mut best: Option<(usize, usize)> = None;
        for (level, c) in costs.iter().enumerate() {
            let k = c.largest_fit(budget, budgets_sorted.len());
            if k > best.map_or(0, |(bk, _)| bk) {
                best = Some((k, level));
            }
        }
        best
    }

    /// Feeds back a measured backbone latency for a single-frame run of
    /// `level`. Out-of-range levels are ignored — a racing report must
    /// never poison the table.
    pub fn observe(&self, level: usize, measured_s: f64) {
        self.observe_batch(level, 1, measured_s);
    }

    /// Feeds back one measured batched invocation: `k` frames through
    /// `level` in `measured_s` seconds wall time. At `k = 1` this is
    /// exactly the historical scalar EMA update (see
    /// [`BatchCost::observe`]). Out-of-range levels are ignored.
    pub fn observe_batch(&self, level: usize, k: usize, measured_s: f64) {
        let a = self.config.ema_alpha;
        if a <= 0.0 {
            return;
        }
        let mut costs = self.costs.lock().unwrap();
        let Some(c) = costs.get_mut(level) else {
            return;
        };
        c.observe(k, measured_s, a);
    }

    /// Feeds back a measured postprocess latency. The first observation is
    /// taken verbatim (the hardware model does not price postprocess);
    /// later ones blend by the configured EMA weight.
    pub fn observe_post(&self, measured_s: f64) {
        let a = self.config.ema_alpha;
        if a <= 0.0 {
            return;
        }
        let mut post = self.post_s.lock().unwrap();
        *post = Some(match *post {
            None => measured_s,
            Some(p) => (1.0 - a) * p + a * measured_s,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::VariantLadder;
    use upaq_hwmodel::DeviceProfile;
    use upaq_models::pointpillars::{PointPillars, PointPillarsConfig};
    use upaq_models::LidarDetector;

    fn ladder() -> VariantLadder<LidarDetector> {
        let det = PointPillars::build(&PointPillarsConfig::tiny()).unwrap();
        VariantLadder::build(det, &DeviceProfile::jetson_orin_nano(), 3).unwrap()
    }

    fn frozen() -> SchedulerConfig {
        SchedulerConfig {
            ema_alpha: 0.0,
            headroom: 1.0,
        }
    }

    #[test]
    fn fresh_frame_runs_full_model() {
        let l = ladder();
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        assert_eq!(s.admit_prefix(&[10.0]), Some((1, 0)));
    }

    #[test]
    fn stale_frame_is_dropped() {
        let l = ladder();
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        // A 100 ms deadline 200 ms after arrival: 100 ms overdue.
        assert_eq!(s.admit_prefix(&[0.1 - 0.2]), None);
        assert_eq!(s.admit_prefix(&[0.0]), None);
    }

    #[test]
    fn tight_budget_degrades_down_the_ladder() {
        let l = ladder();
        let base = l.level(0).estimate.latency_s;
        let cheapest = l.level(l.len() - 1).estimate.latency_s;
        // The budget sits between the cheapest and the full variant: the
        // scheduler must pick a degraded level, not drop.
        let s = DeadlineScheduler::new(&l, frozen());
        match s.admit_prefix(&[(cheapest + base) / 2.0]) {
            Some((1, level)) => assert!(level > 0, "expected a degraded level"),
            other => panic!("should degrade, not {other:?}"),
        }
    }

    #[test]
    fn observations_move_predictions() {
        let l = ladder();
        let s = DeadlineScheduler::new(
            &l,
            SchedulerConfig {
                ema_alpha: 0.5,
                ..SchedulerConfig::default()
            },
        );
        let before = s.predicted_s(0);
        s.observe(0, before * 10.0);
        let after = s.predicted_s(0);
        assert!(after > before);
        // EMA, not replacement.
        assert!(after < before * 10.0);
    }

    #[test]
    fn out_of_range_level_is_graceful() {
        let l = ladder();
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        // Pre-fix both of these panicked on the out-of-bounds index.
        assert_eq!(s.predicted_s(l.len() + 5), f64::INFINITY);
        let before = s.predicted_s(0);
        s.observe(l.len() + 5, 123.0);
        // In-range predictions are untouched by the ignored observation.
        assert_eq!(s.predicted_s(0), before);
        assert_eq!(s.admit_prefix(&[0.100]), Some((1, 0)));
    }

    #[test]
    fn admission_budgets_postprocess_cost_too() {
        let l = ladder();
        let base = l.level(0).estimate.latency_s;
        let cheapest = l.level(l.len() - 1).estimate.latency_s;
        // The budget fits the full backbone exactly (with margin smaller
        // than the postprocess cost we are about to observe).
        let post = (base - cheapest) / 2.0;
        let budget = base + post / 4.0;
        let s = DeadlineScheduler::new(
            &l,
            SchedulerConfig {
                ema_alpha: 0.5,
                headroom: 1.0,
            },
        );
        // Without postprocess knowledge the full model fits…
        assert_eq!(s.admit_prefix(&[budget]), Some((1, 0)));
        // …but once postprocess is observed, the *remaining work* no longer
        // does: the scheduler must degrade instead of admitting a frame
        // that is guaranteed to miss its deadline in postprocess.
        s.observe_post(post);
        assert!((s.predicted_post_s() - post).abs() < 1e-12);
        match s.admit_prefix(&[budget]) {
            Some((1, level)) => assert!(level > 0, "must degrade once post cost is known"),
            other => panic!("cheaper variants still fit, got {other:?}"),
        }
    }

    #[test]
    fn near_expired_head_drops_instead_of_batching_with_fresh_frames() {
        let l = ladder();
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        // Make the learned cost concrete: 30 ms per single-frame run on
        // every rung, so a 5 ms head budget fits nowhere.
        for _ in 0..200 {
            for level in 0..l.len() {
                s.observe_batch(level, 1, 0.030);
            }
        }
        // The stale head cannot run anywhere — batching it with the fresh
        // frames would blow its budget — so it is dropped…
        assert_eq!(s.admit_prefix(&[0.005, 0.100, 0.100]), None);
        // …and the caller re-offers the two fresh frames, which batch.
        let fresh = s.admit_prefix(&[0.100, 0.100]);
        assert!(
            matches!(fresh, Some((2, _))),
            "two fresh frames fit one batched pass (got {fresh:?})"
        );
    }

    #[test]
    fn batch_admission_degrades_to_a_cheaper_rung_when_full_model_overruns() {
        let l = ladder();
        assert!(l.len() >= 2, "ladder must have degrade rungs");
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        // Teach the scheduler with batch-4 measurements: the full model
        // takes 360 ms per 4-frame invocation, the degraded rungs 4 ms.
        for _ in 0..200 {
            s.observe_batch(0, 4, 0.360);
            for level in 1..l.len() {
                s.observe_batch(level, 4, 0.004);
            }
        }
        // A batch of 4 on the full model misses the 100 ms deadline, but a
        // degraded rung fits: the group batches at a shared cheaper level
        // rather than splitting.
        match s.admit_prefix(&[0.100; 4]) {
            Some((4, level)) => assert!(level > 0, "expected a degraded rung"),
            other => panic!("expected a degraded 4-frame batch, got {other:?}"),
        }
    }

    #[test]
    fn admit_prefix_never_overruns_the_head_budget() {
        let l = ladder();
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        s.observe_post(0.001);
        let cfg = s.config();
        // Pin the learned costs so prefix sizes are predictable-ish.
        for _ in 0..200 {
            for level in 0..l.len() {
                s.observe_batch(level, 1, 0.010 * (l.len() - level) as f64);
            }
        }
        let groups: Vec<Vec<f64>> = vec![
            vec![0.100, 0.100, 0.100, 0.100],
            vec![0.035, 0.050, 0.120, 0.200, 0.250],
            vec![0.011, 0.300, 0.300],
            vec![0.009],
            vec![0.250; 12],
        ];
        for budgets in &groups {
            if let Some((k, level)) = s.admit_prefix(budgets) {
                assert!(k >= 1 && k <= budgets.len(), "{budgets:?}");
                let total = s.predicted_batch_s(level, k) + s.predicted_post_s();
                assert!(
                    total * cfg.headroom <= budgets[0] + 1e-12,
                    "budgets {budgets:?}: prefix k={k} level={level} overruns the head budget"
                );
            }
        }
        // An expired head frame admits nowhere.
        assert_eq!(s.admit_prefix(&[-0.01, 0.5, 0.5]), None);
        assert_eq!(s.admit_prefix(&[]), None);
    }

    #[test]
    fn admit_prefix_maximizes_batch_size_then_accuracy() {
        let l = ladder();
        assert!(l.len() >= 2);
        let s = DeadlineScheduler::new(&l, SchedulerConfig::default());
        // Full model: 40 ms fixed-free per frame; cheap rungs: 5 ms.
        for _ in 0..300 {
            s.observe_batch(0, 1, 0.040);
            for level in 1..l.len() {
                s.observe_batch(level, 1, 0.005);
            }
        }
        // A 30 ms head budget excludes the 40 ms full model entirely but
        // fits several 5 ms frames on a cheap rung: the prefix batches
        // there instead of dropping or running one frame.
        let (k, level) = s.admit_prefix(&[0.030; 8]).expect("admits");
        assert!(k >= 2, "expected a multi-frame batch, got k={k}");
        assert!(level > 0, "the 40 ms full model cannot fit a 30 ms budget");
        // When only one frame is offered, the most accurate fitting rung
        // wins: the 40 ms full model fits a 100 ms budget.
        assert_eq!(s.admit_prefix(&[0.100]), Some((1, 0)));
    }

    #[test]
    fn batched_observations_shift_batch_predictions() {
        let l = ladder();
        let s = DeadlineScheduler::new(
            &l,
            SchedulerConfig {
                ema_alpha: 0.5,
                ..SchedulerConfig::default()
            },
        );
        let before = s.predicted_batch_s(0, 4);
        s.observe_batch(0, 4, before * 10.0);
        let after = s.predicted_batch_s(0, 4);
        assert!(after > before);
        assert!(after < before * 10.0, "EMA, not replacement");
        // Out-of-range levels stay inert, batched or not.
        s.observe_batch(l.len() + 3, 4, 42.0);
        assert_eq!(s.predicted_batch_s(l.len() + 3, 4), f64::INFINITY);
    }

    #[test]
    fn slow_measurements_push_scheduler_off_full_model() {
        let l = ladder();
        let s = DeadlineScheduler::new(
            &l,
            SchedulerConfig {
                ema_alpha: 0.5,
                headroom: 1.0,
            },
        );
        // Nominal predictions fit a 50 ms budget at level 0.
        assert_eq!(s.admit_prefix(&[0.050]), Some((1, 0)));
        // A run of slow level-0 measurements (injected latency spikes)
        // makes the full model unattractive; the scheduler degrades.
        for _ in 0..20 {
            s.observe(0, 0.200);
        }
        match s.admit_prefix(&[0.050]) {
            Some((1, level)) => assert!(level > 0),
            other => panic!("cheaper variants still fit, got {other:?}"),
        }
    }
}
