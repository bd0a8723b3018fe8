//! Counterfactual explanations: minimal perturbation sets that flip the
//! decision (Section 3.3).

pub mod beam;
pub mod candidates;
pub mod exhaustive;

use crate::probe::BatchStats;
pub use crate::probe::{Completeness, ProbeBudget};
use exes_graph::{CollabGraph, PerturbationSet};

/// Which family of counterfactual explanation was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterfactualKind {
    /// Remove skills from the subject's neighbourhood (turn experts into
    /// non-experts, Section 3.3.1).
    SkillRemoval,
    /// Add skills to the subject or their neighbours (turn non-experts into
    /// experts, Section 3.3.1).
    SkillAddition,
    /// Add keywords to the query (Section 3.3.2).
    QueryAugmentation,
    /// Remove collaborations in the subject's neighbourhood (Section 3.3.3).
    LinkRemoval,
    /// Add collaborations involving the subject (Section 3.3.3).
    LinkAddition,
}

/// One counterfactual explanation: a perturbation set that flips the decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterfactualExplanation {
    /// The perturbations to apply.
    pub perturbations: PerturbationSet,
    /// The subject's signal (rank) after applying the perturbations.
    pub new_signal: f64,
    /// The explanation family this belongs to.
    pub kind: CounterfactualKind,
}

impl CounterfactualExplanation {
    /// Explanation size: the number of perturbed features.
    pub fn size(&self) -> usize {
        self.perturbations.len()
    }

    /// Human-readable description.
    pub fn describe(&self, graph: &CollabGraph) -> String {
        format!(
            "[size {}] {} (new rank signal: {:.1})",
            self.size(),
            self.perturbations.describe(graph),
            self.new_signal
        )
    }
}

/// The outcome of a counterfactual search (pruned or exhaustive).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterfactualResult {
    /// Explanations found, sorted by size and then by how strongly they move the
    /// subject's rank in the desired direction.
    pub explanations: Vec<CounterfactualExplanation>,
    /// Every probe the result cost: through [`crate::Exes`], the whole
    /// request's — the reference probe, any candidate scoring and the
    /// search. With a [`crate::probe::ProbeCache`], `probed` counts only the
    /// probes that reached the black box, so a warm cache makes it drop.
    pub accounting: BatchStats,
    /// Whether the search ran to its natural end or was cut short by the
    /// configured [`ProbeBudget`] (`ExesConfig::probe_budget`). A `Budgeted`
    /// result is best-so-far, never a panic or a silent truncation.
    pub completeness: Completeness,
}

impl CounterfactualResult {
    /// Number of explanations found.
    pub fn len(&self) -> usize {
        self.explanations.len()
    }

    /// True when no explanation was found.
    pub fn is_empty(&self) -> bool {
        self.explanations.is_empty()
    }

    /// The size of the smallest explanation, if any were found.
    pub fn minimal_size(&self) -> Option<usize> {
        self.explanations
            .iter()
            .map(CounterfactualExplanation::size)
            .min()
    }

    /// Mean explanation size (the paper reports this per table row).
    pub fn mean_size(&self) -> f64 {
        if self.explanations.is_empty() {
            0.0
        } else {
            self.explanations
                .iter()
                .map(|e| e.size() as f64)
                .sum::<f64>()
                / self.explanations.len() as f64
        }
    }

    /// Total probes the result asked for, whether served by the black box or
    /// the memo cache.
    pub fn probe_requests(&self) -> usize {
        self.accounting.probed + self.accounting.cache_hits
    }

    /// Sorts explanations by size, then by the strength of their effect.
    /// `prefer_low_signal` is true when the goal was to *improve* the subject's
    /// rank (bring a non-expert in), false when the goal was to evict them.
    /// Signals are compared with [`f64::total_cmp`] so a NaN signal cannot
    /// scramble the order between runs.
    pub(crate) fn sort(&mut self, prefer_low_signal: bool) {
        self.explanations.sort_by(|a, b| {
            a.size().cmp(&b.size()).then_with(|| {
                if prefer_low_signal {
                    a.new_signal.total_cmp(&b.new_signal)
                } else {
                    b.new_signal.total_cmp(&a.new_signal)
                }
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_graph::{CollabGraphBuilder, Perturbation};

    fn explanation(size: usize, signal: f64) -> CounterfactualExplanation {
        let perturbations: PerturbationSet = (0..size)
            .map(|i| Perturbation::AddQueryTerm {
                skill: exes_graph::SkillId(i as u32),
            })
            .collect();
        CounterfactualExplanation {
            perturbations,
            new_signal: signal,
            kind: CounterfactualKind::QueryAugmentation,
        }
    }

    #[test]
    fn result_statistics() {
        let mut result = CounterfactualResult {
            explanations: vec![
                explanation(2, 4.0),
                explanation(1, 12.0),
                explanation(3, 2.0),
            ],
            accounting: BatchStats {
                probed: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(result.len(), 3);
        assert_eq!(result.probe_requests(), 10);
        assert!(!result.is_empty());
        assert_eq!(result.minimal_size(), Some(1));
        assert!((result.mean_size() - 2.0).abs() < 1e-12);
        result.sort(true);
        let sizes: Vec<usize> = result.explanations.iter().map(|e| e.size()).collect();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn sort_breaks_ties_by_effect_direction() {
        let mut result = CounterfactualResult {
            explanations: vec![explanation(1, 5.0), explanation(1, 2.0)],
            ..Default::default()
        };
        result.sort(true);
        assert_eq!(result.explanations[0].new_signal, 2.0);
        result.sort(false);
        assert_eq!(result.explanations[0].new_signal, 5.0);
    }

    #[test]
    fn empty_result_statistics() {
        let r = CounterfactualResult::default();
        assert!(r.is_empty());
        assert_eq!(r.minimal_size(), None);
        assert_eq!(r.mean_size(), 0.0);
    }

    #[test]
    fn describe_mentions_size_and_content() {
        let mut b = CollabGraphBuilder::new();
        b.add_person("Ada", ["db"]);
        let g = b.build();
        let e = CounterfactualExplanation {
            perturbations: PerturbationSet::singleton(Perturbation::AddQueryTerm {
                skill: g.vocab().id("db").unwrap(),
            }),
            new_signal: 3.0,
            kind: CounterfactualKind::QueryAugmentation,
        };
        let text = e.describe(&g);
        assert!(text.contains("size 1"));
        assert!(text.contains("db"));
        assert_eq!(e.size(), 1);
    }
}
