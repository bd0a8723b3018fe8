//! Query-term factual explanations.
//!
//! The feature space is just the query keywords, so no pruning applies (Table 4:
//! the complexity is the same for ExES and exhaustive search) and the exact
//! Shapley enumeration is always affordable (`|q| ≤ 5` in the evaluation).

use super::{skill::explain_features, FactualExplanation};
use crate::config::ExesConfig;
use crate::features::Feature;
use crate::probe::ProbeBatch;
use crate::tasks::DecisionModel;

/// Computes SHAP values for every keyword of the session's query, probing
/// every coalition through the request's session `engine` (and the cache
/// behind it, if any).
pub fn explain_query_terms<D: DecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    cfg: &ExesConfig,
) -> FactualExplanation {
    let features: Vec<Feature> = engine
        .query()
        .skills()
        .iter()
        .map(|&s| Feature::QueryTerm(s))
        .collect();
    explain_features(engine, cfg, features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputMode;
    use crate::tasks::ExpertRelevanceTask;
    use exes_expert_search::TfIdfRanker;
    use exes_graph::{CollabGraph, CollabGraphBuilder, PersonId, Query};

    /// Explains `task`'s subject in a fresh, cache-less session.
    fn explain(
        task: &ExpertRelevanceTask<'_, TfIdfRanker>,
        g: &CollabGraph,
        q: &Query,
        cfg: &ExesConfig,
    ) -> FactualExplanation {
        explain_query_terms(&ProbeBatch::new(task, g, q, false, None), cfg)
    }

    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        b.add_person("Ada", ["db", "ml"]);
        b.add_person("Bob", ["db", "vision"]);
        b.add_person("Cig", ["vision"]);
        b.build()
    }

    #[test]
    fn feature_space_is_exactly_the_query() {
        let g = graph();
        let q = Query::parse("db ml vision", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let exp = explain(&task, &g, &q, &ExesConfig::fast().with_k(1));
        assert_eq!(exp.num_features(), 3);
        assert!(exp
            .features()
            .iter()
            .all(|f| matches!(f, Feature::QueryTerm(_))));
    }

    #[test]
    fn matching_terms_support_and_foreign_terms_oppose() {
        let g = graph();
        let q = Query::parse("ml vision", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        // Explain Ada (holds ml, lacks vision) with k = 1: "ml" keeps her on top,
        // "vision" pulls Bob and Cig up.
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let cfg = ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank);
        let exp = explain(&task, &g, &q, &cfg);
        let ml = g.vocab().id("ml").unwrap();
        let vision = g.vocab().id("vision").unwrap();
        let v_ml = exp.value_of(&Feature::QueryTerm(ml)).unwrap();
        let v_vision = exp.value_of(&Feature::QueryTerm(vision)).unwrap();
        assert!(
            v_ml > v_vision,
            "ml ({v_ml}) should outrank vision ({v_vision})"
        );
    }

    #[test]
    fn single_term_query_gets_all_attribution() {
        let g = graph();
        let q = Query::parse("db", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 2);
        let exp = explain(&task, &g, &q, &ExesConfig::fast().with_k(2));
        assert_eq!(exp.num_features(), 1);
        // Efficiency: the single feature carries the full base-to-full gap.
        assert!(exp.shap_values().efficiency_gap() < 1e-9);
    }
}
