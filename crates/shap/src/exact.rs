//! Exact Shapley values by full coalition enumeration.

use crate::{MaskedModel, ShapValues};

/// Computes exact Shapley values by enumerating all `2^M` coalitions.
///
/// Complexity is `O(2^M)` model evaluations (each coalition is evaluated once
/// and reused for every feature), so this is only practical for small `M`;
/// [`crate::shapley`] switches to sampling above
/// [`crate::EXACT_MAX_FEATURES`]. Intended both for small factual
/// explanations (e.g. query-term attributions, `|q| ≤ 5`) and as the ground
/// truth in estimator tests.
///
/// # Panics
/// Panics if `M > 24` to protect against accidental exponential blow-ups.
pub fn exact_shapley<M: MaskedModel>(model: &M) -> ShapValues {
    let m = model.num_features();
    assert!(
        m <= 24,
        "exact Shapley enumeration limited to 24 features, got {m}"
    );
    if m == 0 {
        let v = model.evaluate(&[]);
        return ShapValues::new(Vec::new(), v, v);
    }

    // Evaluate every coalition once, in batches: models whose evaluations are
    // independent probes (the ExES factual path) parallelise each batch.
    const BATCH: usize = 2048;
    let num_coalitions = 1usize << m;
    let mut outputs: Vec<f64> = Vec::with_capacity(num_coalitions);
    let mut masks: Vec<Vec<bool>> = Vec::with_capacity(BATCH.min(num_coalitions));
    for bits in 0..num_coalitions {
        masks.push((0..m).map(|i| bits & (1 << i) != 0).collect());
        if masks.len() == BATCH {
            outputs.extend(model.evaluate_batch(&masks));
            masks.clear();
        }
    }
    if !masks.is_empty() {
        outputs.extend(model.evaluate_batch(&masks));
    }

    // Precompute the Shapley kernel weights w(|S|) = |S|! (M - |S| - 1)! / M!.
    let factorial = |n: usize| -> f64 { (1..=n).map(|x| x as f64).product::<f64>().max(1.0) };
    let m_fact = factorial(m);
    let weights: Vec<f64> = (0..m)
        .map(|s| factorial(s) * factorial(m - s - 1) / m_fact)
        .collect();

    let mut values = vec![0.0; m];
    for bits in 0..num_coalitions {
        let size = (bits as u64).count_ones() as usize;
        for (i, value) in values.iter_mut().enumerate() {
            if bits & (1 << i) == 0 {
                let with_i = bits | (1 << i);
                *value += weights[size] * (outputs[with_i] - outputs[bits]);
            }
        }
    }

    ShapValues::new(values, outputs[0], outputs[num_coalitions - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnModel;

    #[test]
    fn additive_model_recovers_coefficients() {
        let model = FnModel::new(3, |mask: &[bool]| {
            2.0 * f64::from(mask[0]) - 1.0 * f64::from(mask[1]) + 0.5 * f64::from(mask[2]) + 10.0
        });
        let v = exact_shapley(&model);
        assert!((v.value(0) - 2.0).abs() < 1e-12);
        assert!((v.value(1) + 1.0).abs() < 1e-12);
        assert!((v.value(2) - 0.5).abs() < 1e-12);
        assert!((v.base_value() - 10.0).abs() < 1e-12);
        assert!(v.efficiency_gap() < 1e-12);
    }

    #[test]
    fn symmetric_features_get_equal_values() {
        // f = AND(x0, x1): both features contribute equally by symmetry.
        let model = FnModel::new(2, |mask: &[bool]| f64::from(mask[0] && mask[1]));
        let v = exact_shapley(&model);
        assert!((v.value(0) - v.value(1)).abs() < 1e-12);
        assert!((v.value(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dummy_feature_gets_zero() {
        let model = FnModel::new(3, |mask: &[bool]| f64::from(mask[0]) * 4.0);
        let v = exact_shapley(&model);
        assert_eq!(v.value(1), 0.0);
        assert_eq!(v.value(2), 0.0);
    }

    #[test]
    fn efficiency_holds_for_interacting_model() {
        let model = FnModel::new(4, |mask: &[bool]| {
            let x: Vec<f64> = mask.iter().map(|&b| f64::from(b)).collect();
            x[0] * x[1] * 3.0 + x[2] - 2.0 * x[3] * x[0] + 0.7
        });
        let v = exact_shapley(&model);
        assert!(v.efficiency_gap() < 1e-12);
    }

    #[test]
    fn zero_features_yield_empty_values() {
        let model = FnModel::new(0, |_: &[bool]| 42.0);
        let v = exact_shapley(&model);
        assert!(v.is_empty());
        assert_eq!(v.base_value(), 42.0);
        assert_eq!(v.full_value(), 42.0);
    }

    #[test]
    #[should_panic(expected = "limited to 24 features")]
    fn too_many_features_panics() {
        let model = FnModel::new(25, |_: &[bool]| 0.0);
        let _ = exact_shapley(&model);
    }
}
