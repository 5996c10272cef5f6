//! Shared helpers for the baseline frameworks.

/// The magnitude below which a fraction `quantile` of the weights fall —
/// the pruning threshold magnitude-based methods use.
///
/// Returns 0 for an empty slice or a zero quantile.
pub fn magnitude_quantile(weights: &[f32], quantile: f32) -> f32 {
    if weights.is_empty() || quantile <= 0.0 {
        return 0.0;
    }
    let mut mags: Vec<f32> = weights.iter().map(|w| w.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((mags.len() as f32 * quantile.clamp(0.0, 1.0)) as usize).min(mags.len() - 1);
    mags[idx]
}

/// Zeroes, in place, every weight with magnitude below `threshold`
/// (strictly below, so a zero threshold is a no-op).
pub fn prune_below(weights: &mut [f32], threshold: f32) {
    for w in weights {
        if w.abs() < threshold {
            *w = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_orders_by_magnitude() {
        let w = [-4.0, 1.0, -2.0, 3.0];
        assert_eq!(magnitude_quantile(&w, 0.5), 3.0);
        assert_eq!(magnitude_quantile(&w, 0.0), 0.0);
    }

    #[test]
    fn prune_below_keeps_large_weights() {
        let mut w = [-4.0, 1.0, -2.0, 3.0];
        prune_below(&mut w, 2.5);
        assert_eq!(w, [-4.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn zero_threshold_is_noop() {
        let mut w = [0.1, -0.2];
        prune_below(&mut w, 0.0);
        assert_eq!(w, [0.1, -0.2]);
    }

    #[test]
    fn quantile_then_prune_hits_target_sparsity() {
        let mut w: Vec<f32> = (1..=100).map(|i| i as f32 * 0.01).collect();
        let thr = magnitude_quantile(&w, 0.4);
        prune_below(&mut w, thr);
        let sparsity = w.iter().filter(|&&v| v == 0.0).count() as f32 / w.len() as f32;
        assert!((sparsity - 0.4).abs() < 0.05, "sparsity {sparsity}");
    }
}
