//! The result of a Shapley-value computation.

/// Shapley values of every feature of a masked model, together with the base
/// (all-absent) and full (all-present) model outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapValues {
    values: Vec<f64>,
    base_value: f64,
    full_value: f64,
}

impl ShapValues {
    /// Assembles a result.
    pub fn new(values: Vec<f64>, base_value: f64, full_value: f64) -> Self {
        ShapValues {
            values,
            base_value,
            full_value,
        }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no features were scored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The Shapley value of feature `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// All Shapley values in feature order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Model output with all features absent.
    pub fn base_value(&self) -> f64 {
        self.base_value
    }

    /// Model output with all features present.
    pub fn full_value(&self) -> f64 {
        self.full_value
    }

    /// Sum of all Shapley values (should equal `full - base` for exact methods;
    /// the *efficiency* axiom).
    pub fn total_attribution(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Absolute deviation from the efficiency axiom.
    pub fn efficiency_gap(&self) -> f64 {
        (self.total_attribution() - (self.full_value - self.base_value)).abs()
    }

    /// Feature indices sorted by descending |value|.
    pub fn ranked_by_magnitude(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| {
            self.values[b]
                .abs()
                .total_cmp(&self.values[a].abs())
                .then(a.cmp(&b))
        });
        idx
    }

    /// The `k` most important features by |value|.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        self.ranked_by_magnitude().into_iter().take(k).collect()
    }

    /// Number of features with a non-zero attribution (the paper's
    /// "explanation size" for factual explanations).
    pub fn explanation_size(&self) -> usize {
        self.values.iter().filter(|v| v.abs() > 1e-12).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShapValues {
        ShapValues::new(vec![0.5, -2.0, 0.0, 1.0], 0.2, -0.3)
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.value(1), -2.0);
        assert_eq!(v.values(), &[0.5, -2.0, 0.0, 1.0]);
        assert_eq!(v.base_value(), 0.2);
        assert_eq!(v.full_value(), -0.3);
        assert!((v.total_attribution() - (-0.5)).abs() < 1e-12);
        assert!((v.efficiency_gap() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_and_top_k() {
        let v = sample();
        assert_eq!(v.ranked_by_magnitude(), vec![1, 3, 0, 2]);
        assert_eq!(v.top_k(2), vec![1, 3]);
        assert_eq!(v.explanation_size(), 3);
    }

    #[test]
    fn efficiency_gap_detects_violations() {
        let v = ShapValues::new(vec![1.0, 1.0], 0.0, 1.0);
        assert!((v.efficiency_gap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_values() {
        let v = ShapValues::new(vec![], 0.0, 0.0);
        assert!(v.is_empty());
        assert_eq!(v.top_k(3), Vec::<usize>::new());
        assert_eq!(v.explanation_size(), 0);
    }
}
