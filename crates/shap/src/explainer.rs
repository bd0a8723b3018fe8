//! The estimator selector used by ExES: exact enumeration for small feature
//! sets, the budgeted permutation sampler otherwise.

use crate::{exact_shapley, permutation_shapley, MaskedModel, SampledShap};

/// Feature count up to which [`shapley`] enumerates every coalition exactly,
/// when the `2^M` evaluations fit the budget.
pub const EXACT_MAX_FEATURES: usize = 10;

/// Configuration of the permutation sampler behind [`shapley`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapConfig {
    /// Number of random feature orderings the sampler averages over.
    pub permutations: usize,
    /// RNG seed of the sampler.
    pub seed: u64,
}

impl Default for ShapConfig {
    fn default() -> Self {
        ShapConfig {
            permutations: 32,
            seed: 0x5A4B,
        }
    }
}

/// Computes Shapley values for `model` under an optional model-evaluation
/// budget.
///
/// A model with at most [`EXACT_MAX_FEATURES`] features whose `2^M`
/// coalitions fit `max_evaluations` is enumerated exactly
/// ([`exact_shapley`]): zero half-widths, `2^M` evaluations, never
/// truncated. Every other model runs [`permutation_shapley`] with
/// `cfg.permutations` passes, which stops at whole-permutation boundaries
/// when the budget runs out and marks the result `truncated`.
pub fn shapley<M: MaskedModel>(
    model: &M,
    cfg: &ShapConfig,
    max_evaluations: Option<usize>,
) -> SampledShap {
    let m = model.num_features();
    if m <= EXACT_MAX_FEATURES && max_evaluations.is_none_or(|max| 1usize << m <= max) {
        return SampledShap {
            values: exact_shapley(model),
            half_widths: vec![0.0; m],
            permutations_completed: 0,
            evaluations: 1 << m,
            truncated: false,
        };
    }
    permutation_shapley(model, cfg.permutations, cfg.seed, max_evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachingModel, FnModel};

    fn linear_model(n: usize) -> FnModel<impl Fn(&[bool]) -> f64> {
        FnModel::new(n, move |mask: &[bool]| {
            mask.iter()
                .enumerate()
                .map(|(i, &b)| (i + 1) as f64 * f64::from(b))
                .sum()
        })
    }

    #[test]
    fn auto_uses_exact_for_small_models() {
        let model = CachingModel::new(linear_model(4));
        let v = shapley(&model, &ShapConfig::default(), None).values;
        // Exact enumeration of 4 features = 16 distinct coalitions.
        assert_eq!(model.distinct_evaluations(), 16);
        assert!((v.value(3) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn auto_switches_to_sampling_for_large_models() {
        let cfg = ShapConfig {
            permutations: 8,
            ..Default::default()
        };
        // 25 features is past exact enumeration's own 24-feature guard: an
        // unbounded budget must still sample rather than enumerate.
        for n in [16, 25] {
            let model = CachingModel::new(linear_model(n));
            let sampled = shapley(&model, &cfg, None);
            // Sampling evaluates far fewer coalitions than 2^n.
            assert_eq!(sampled.permutations_completed, 8);
            assert!(model.distinct_evaluations() < 2000);
            // Linear model is still recovered exactly by permutation sampling.
            assert!((sampled.values.value(0) - 1.0).abs() < 1e-9);
            assert!((sampled.values.value(n - 1) - n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_methods_report_zero_half_widths_and_costs() {
        for n in [0, 4] {
            let model = CachingModel::new(linear_model(n));
            let sampled = shapley(&model, &ShapConfig::default(), Some(16));
            assert_eq!(sampled.evaluations, 1 << n);
            assert_eq!(model.distinct_evaluations(), 1 << n);
            assert_eq!(sampled.half_widths, vec![0.0; n]);
            assert_eq!(sampled.permutations_completed, 0);
            assert!(!sampled.truncated);
        }
    }

    #[test]
    fn exact_without_budget_falls_back_to_the_anytime_sampler() {
        let model = CachingModel::new(linear_model(4));
        let cfg = ShapConfig {
            permutations: 8,
            ..Default::default()
        };
        // 2^4 = 16 exact evaluations don't fit in 10: the sampler takes over
        // (2 anchors + 2 whole permutations of 4).
        let sampled = shapley(&model, &cfg, Some(10));
        assert!(sampled.truncated);
        assert_eq!(sampled.permutations_completed, 2);
        assert_eq!(sampled.evaluations, 10);
        assert!((sampled.values.value(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auto_under_budget_prefers_exact_only_when_it_fits() {
        let model = linear_model(3);
        let cfg = ShapConfig::default();
        let exact = shapley(&model, &cfg, Some(8));
        assert_eq!(exact.evaluations, 8);
        assert!(!exact.truncated);
        let sampled = shapley(&model, &cfg, Some(7));
        assert!(sampled.truncated || sampled.permutations_completed > 0);
        assert!(sampled.evaluations <= 7);
    }
}
