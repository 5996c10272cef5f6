//! Per-batch-size latency cost model.
//!
//! Batching amortizes the fixed per-invocation cost (kernel launch,
//! scheduling, weight-tap setup — the [`DeviceProfile::overhead_s`] term
//! of the roofline model) over several frames, while the marginal
//! per-frame compute cost stays. The model is the classic affine form
//!
//! ```text
//! latency(k) = fixed_s + k · marginal_s
//! ```
//!
//! seeded from an analytic [`Estimate`] (fixed = the estimate's device
//! overhead, marginal = its summed per-layer cost) and corrected online
//! from measured batched latencies by the same exponential moving average
//! the scheduler already applies to its scalar predictions. A `k = 1`
//! observation updates `predict_s(1)` exactly like the scalar EMA
//! `p ← (1−α)·p + α·measured` did, so single-frame scheduling behaviour
//! is unchanged by construction.
//!
//! [`DeviceProfile::overhead_s`]: crate::device::DeviceProfile

use crate::latency::Estimate;

/// Affine per-batch-size latency model, EMA-corrected online.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCost {
    /// Fixed per-invocation cost, seconds, paid once per batch.
    fixed_s: f64,
    /// Marginal cost per member frame, seconds.
    marginal_s: f64,
}

impl BatchCost {
    /// Builds the model from explicit components.
    pub fn new(fixed_s: f64, marginal_s: f64) -> Self {
        BatchCost {
            fixed_s: fixed_s.max(0.0),
            marginal_s: marginal_s.max(0.0),
        }
    }

    /// Seeds the model from an analytic estimate: the summed per-layer
    /// cost is the marginal per-frame work; whatever the estimate carries
    /// on top of it (the device invocation overhead) is the fixed cost.
    pub fn from_estimate(estimate: &Estimate) -> Self {
        let marginal: f64 = estimate.per_layer_s.iter().sum();
        BatchCost::new(estimate.latency_s - marginal, marginal)
    }

    /// Predicted latency of one invocation covering `k` frames, seconds.
    pub fn predict_s(&self, k: usize) -> f64 {
        self.fixed_s + k as f64 * self.marginal_s
    }

    /// The fixed per-invocation component, seconds.
    pub fn fixed_s(&self) -> f64 {
        self.fixed_s
    }

    /// The marginal per-frame component, seconds.
    pub fn marginal_s(&self) -> f64 {
        self.marginal_s
    }

    /// Largest batch size `k ≤ k_max` whose predicted invocation latency
    /// fits within `budget_s`, or 0 when even a single frame does not fit.
    ///
    /// This is the fleet batcher's sizing primitive for groups with
    /// heterogeneous deadlines: offered a group in earliest-deadline-first
    /// order, the binding budget is the head frame's, and growing the batch
    /// only adds marginal cost — so the largest admissible prefix is the
    /// largest `k` with `predict_s(k) ≤ budget_s`.
    pub fn largest_fit(&self, budget_s: f64, k_max: usize) -> usize {
        if k_max == 0 || !budget_s.is_finite() || self.predict_s(1) > budget_s {
            return 0;
        }
        if self.marginal_s <= 0.0 {
            // Pure fixed cost: any batch size costs the same.
            return k_max;
        }
        let guess = ((budget_s - self.fixed_s) / self.marginal_s)
            .floor()
            .max(1.0);
        let mut k = (guess as usize).min(k_max);
        // Float roundoff in the division can land one off the true
        // boundary in either direction; settle it against the exact
        // predicate so `predict_s(k) ≤ budget < predict_s(k + 1)` holds.
        while k > 1 && self.predict_s(k) > budget_s {
            k -= 1;
        }
        while k < k_max && self.predict_s(k + 1) <= budget_s {
            k += 1;
        }
        k
    }

    /// Folds one measured invocation (batch size `k`, wall time
    /// `measured_s`) into the model with EMA weight `alpha`.
    ///
    /// Both components are scaled by the blended measured/predicted ratio
    /// `r = (1−α) + α · measured/predict(k)`, which keeps the fixed:marginal
    /// split stable while matching the scalar EMA exactly at the observed
    /// size: `predict'(k) = (1−α)·predict(k) + α·measured`. For `k = 1`
    /// that is literally the scheduler's historical per-frame update.
    pub fn observe(&mut self, k: usize, measured_s: f64, alpha: f64) {
        if k == 0 || !measured_s.is_finite() || measured_s < 0.0 {
            return;
        }
        let predicted = self.predict_s(k);
        if predicted <= 0.0 {
            // Degenerate seed (zero-cost model): adopt the measurement as
            // pure marginal cost.
            self.marginal_s = measured_s / k as f64;
            return;
        }
        let ratio = (1.0 - alpha) + alpha * (measured_s / predicted);
        self.fixed_s *= ratio;
        self.marginal_s *= ratio;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(overhead: f64, layers: &[f64]) -> Estimate {
        Estimate {
            latency_s: overhead + layers.iter().sum::<f64>(),
            energy_j: 0.0,
            per_layer_s: layers.to_vec(),
        }
    }

    #[test]
    fn seeding_splits_overhead_from_marginal() {
        let c = BatchCost::from_estimate(&estimate(0.002, &[0.01, 0.02]));
        assert!((c.fixed_s() - 0.002).abs() < 1e-12);
        assert!((c.marginal_s() - 0.03).abs() < 1e-12);
        assert!((c.predict_s(1) - 0.032).abs() < 1e-12);
        assert!((c.predict_s(4) - 0.122).abs() < 1e-12);
    }

    #[test]
    fn k1_observation_matches_scalar_ema_exactly() {
        // The historical scheduler update was p ← (1−α)p + α·m on the
        // batch-1 prediction; the ratio-blend must reproduce it bit-for-bit
        // at k = 1.
        let alpha = 0.2;
        let mut c = BatchCost::new(0.004, 0.016);
        let mut scalar = c.predict_s(1);
        for &m in &[0.030, 0.010, 0.025, 0.018] {
            c.observe(1, m, alpha);
            scalar = (1.0 - alpha) * scalar + alpha * m;
            assert!(
                (c.predict_s(1) - scalar).abs() < 1e-15,
                "prediction {} diverged from scalar EMA {}",
                c.predict_s(1),
                scalar
            );
        }
    }

    #[test]
    fn batched_observation_converges_at_observed_size() {
        let mut c = BatchCost::new(0.004, 0.016);
        for _ in 0..200 {
            c.observe(4, 0.100, 0.2);
        }
        assert!((c.predict_s(4) - 0.100).abs() < 1e-6);
        // The fixed:marginal split is preserved, so other sizes scale.
        assert!(c.fixed_s() > 0.0 && c.marginal_s() > 0.0);
    }

    #[test]
    fn pathological_observations_are_ignored() {
        let mut c = BatchCost::new(0.004, 0.016);
        let before = c.clone();
        c.observe(0, 0.1, 0.2);
        c.observe(2, f64::NAN, 0.2);
        c.observe(2, -1.0, 0.2);
        assert_eq!(c, before);
    }

    #[test]
    fn largest_fit_is_the_boundary_batch_size() {
        let c = BatchCost::new(0.010, 0.005);
        // predict(k) = 10 + 5k ms: a 32 ms budget fits k = 4 (30 ms), not 5.
        assert_eq!(c.largest_fit(0.032, 16), 4);
        // Exactly on the boundary is a fit.
        assert_eq!(c.largest_fit(0.030, 16), 4);
        assert_eq!(c.largest_fit(0.035, 16), 5);
        // The cap binds before the budget does.
        assert_eq!(c.largest_fit(0.032, 2), 2);
        // Too tight for even one frame.
        assert_eq!(c.largest_fit(0.014, 16), 0);
        assert_eq!(c.largest_fit(-1.0, 16), 0);
        assert_eq!(c.largest_fit(f64::NAN, 16), 0);
        assert_eq!(c.largest_fit(0.032, 0), 0);
        // Every admitted size actually fits; the next one does not.
        for budget in [0.016, 0.021, 0.040, 0.125] {
            let k = c.largest_fit(budget, 64);
            assert!(k >= 1 && c.predict_s(k) <= budget);
            if k < 64 {
                assert!(c.predict_s(k + 1) > budget);
            }
        }
    }

    #[test]
    fn largest_fit_with_zero_marginal_cost_takes_the_cap() {
        let c = BatchCost::new(0.010, 0.0);
        assert_eq!(c.largest_fit(0.020, 7), 7);
        assert_eq!(c.largest_fit(0.005, 7), 0);
    }

    #[test]
    fn zero_seed_adopts_first_measurement() {
        let mut c = BatchCost::new(0.0, 0.0);
        c.observe(2, 0.040, 0.2);
        assert!((c.predict_s(2) - 0.040).abs() < 1e-12);
    }
}
