//! Evaluation metrics from Section 4.1: Precision@k for factual explanations,
//! Precision / Precision* for counterfactual explanations.

use crate::counterfactual::CounterfactualResult;
use crate::factual::FactualExplanation;

/// Precision@k of a pruned factual explanation against the exhaustive baseline:
/// the fraction of the top-`k` features (by |SHAP|) found by ExES that also
/// receive a non-zero score in the exhaustive explanation.
///
/// Returns 1.0 when the pruned explanation has no non-zero features at all
/// (there is nothing to contradict), mirroring how empty cases are treated in
/// the paper's averages.
pub fn factual_precision_at_k(
    pruned: &FactualExplanation,
    exhaustive: &FactualExplanation,
    k: usize,
) -> f64 {
    let top: Vec<_> = pruned
        .top_k(k)
        .into_iter()
        .filter(|&(_, v)| v.abs() > 1e-12)
        .collect();
    if top.is_empty() {
        return 1.0;
    }
    let hits = top
        .iter()
        .filter(|(feature, _)| {
            exhaustive
                .value_of(feature)
                .map(|v| v.abs() > 1e-12)
                .unwrap_or(false)
        })
        .count();
    hits as f64 / top.len() as f64
}

/// Counterfactual precision summary for one explained individual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionReport {
    /// Fraction of ExES explanations whose size equals the minimal size found by
    /// the exhaustive baseline.
    pub precision: f64,
    /// Fraction of ExES explanations within one perturbation of the minimal size.
    pub precision_star: f64,
    /// The minimal size used as the reference (from the baseline when available,
    /// otherwise from ExES itself).
    pub reference_minimal_size: usize,
}

/// Computes Precision and Precision* of ExES's counterfactuals against the
/// exhaustive baseline's minimal explanation size.
///
/// When the baseline found nothing (e.g. it was cut by the probe budget
/// before reaching any explanation), ExES's own minimal size is used as the
/// reference — this is the most conservative interpretation that still yields
/// a defined number, and it matches how incomparable cases are excluded from
/// harm in the paper.
/// Returns `None` when ExES itself found nothing (no explanations to score).
pub fn counterfactual_precision(
    exes: &CounterfactualResult,
    baseline: &CounterfactualResult,
) -> Option<PrecisionReport> {
    let exes_min = exes.minimal_size()?;
    let reference = baseline.minimal_size().unwrap_or(exes_min);
    let total = exes.explanations.len() as f64;
    let exact = exes
        .explanations
        .iter()
        .filter(|e| e.size() == reference)
        .count() as f64;
    let near = exes
        .explanations
        .iter()
        .filter(|e| e.size() <= reference + 1)
        .count() as f64;
    Some(PrecisionReport {
        precision: exact / total,
        precision_star: near / total,
        reference_minimal_size: reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counterfactual::{CounterfactualExplanation, CounterfactualKind};
    use crate::features::Feature;
    use exes_graph::{Perturbation, PerturbationSet, SkillId};
    use exes_shap::ShapValues;

    fn factual(features: Vec<Feature>, values: Vec<f64>) -> FactualExplanation {
        let shap = ShapValues::new(values, 0.0, 1.0);
        FactualExplanation::new(features, shap, Default::default())
    }

    fn cf(size: usize) -> CounterfactualExplanation {
        CounterfactualExplanation {
            perturbations: (0..size)
                .map(|i| Perturbation::AddQueryTerm {
                    skill: SkillId(i as u32),
                })
                .collect::<PerturbationSet>(),
            new_signal: 1.0,
            kind: CounterfactualKind::QueryAugmentation,
        }
    }

    fn result(sizes: &[usize]) -> CounterfactualResult {
        CounterfactualResult {
            explanations: sizes.iter().map(|&s| cf(s)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn factual_precision_counts_overlapping_nonzero_features() {
        let f = |i: u32| Feature::QueryTerm(SkillId(i));
        let pruned = factual(vec![f(0), f(1), f(2)], vec![0.9, 0.5, 0.0]);
        let exhaustive = factual(vec![f(0), f(1), f(2), f(3)], vec![0.8, 0.0, 0.1, 0.2]);
        // Pruned top-2 = {f0, f1}; only f0 is non-zero in the baseline.
        assert!((factual_precision_at_k(&pruned, &exhaustive, 2) - 0.5).abs() < 1e-12);
        // Top-1 = {f0}: full precision.
        assert!((factual_precision_at_k(&pruned, &exhaustive, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factual_precision_handles_missing_and_empty_features() {
        let f = |i: u32| Feature::QueryTerm(SkillId(i));
        let pruned = factual(vec![f(7)], vec![0.4]);
        let exhaustive = factual(vec![f(0)], vec![0.4]);
        // The pruned feature does not even exist in the baseline: precision 0.
        assert_eq!(factual_precision_at_k(&pruned, &exhaustive, 1), 0.0);
        let empty = factual(vec![f(1)], vec![0.0]);
        assert_eq!(factual_precision_at_k(&empty, &exhaustive, 5), 1.0);
    }

    #[test]
    fn counterfactual_precision_against_baseline() {
        let exes = result(&[1, 2, 1, 3]);
        let baseline = result(&[1]);
        let report = counterfactual_precision(&exes, &baseline).unwrap();
        assert!((report.precision - 0.5).abs() < 1e-12);
        assert!((report.precision_star - 0.75).abs() < 1e-12);
        assert_eq!(report.reference_minimal_size, 1);
    }

    #[test]
    fn missing_baseline_falls_back_to_exes_minimum() {
        let exes = result(&[2, 2, 3]);
        let baseline = result(&[]);
        let report = counterfactual_precision(&exes, &baseline).unwrap();
        assert_eq!(report.reference_minimal_size, 2);
        assert!((report.precision - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.precision_star, 1.0);
    }

    #[test]
    fn empty_exes_result_yields_none() {
        assert!(counterfactual_precision(&result(&[]), &result(&[1])).is_none());
    }
}
