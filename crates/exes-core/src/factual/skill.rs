//! Skill factual explanations (Pruning Strategy 1: network locality).

use super::{attribute, FactualExplanation};
use crate::config::ExesConfig;
use crate::features::Feature;
use crate::probe::{Completeness, ProbeBatch};
use crate::tasks::DecisionModel;
use exes_graph::{CollabGraph, GraphView, Neighborhood};

/// The pruned skill feature space `S_N(p_i)`: every `(person, skill)` pair held
/// by someone within `radius` hops of the subject.
pub fn skill_features_pruned(
    graph: &CollabGraph,
    subject: exes_graph::PersonId,
    radius: usize,
) -> Vec<Feature> {
    let neighborhood = Neighborhood::compute(graph, subject, radius);
    neighborhood
        .skills(graph)
        .pairs()
        .iter()
        .map(|&(p, s)| Feature::Skill(p, s))
        .collect()
}

/// The exhaustive skill feature space: every `(person, skill)` pair in the whole
/// network (`Σᵢ |Sᵢ|`, worst case `|P| × |S|`). Used by the no-pruning baseline.
pub fn skill_features_exhaustive(graph: &CollabGraph) -> Vec<Feature> {
    graph
        .people()
        .flat_map(|p| {
            graph
                .person_skills(p)
                .iter()
                .map(move |&s| Feature::Skill(p, s))
        })
        .collect()
}

/// Computes a skill factual explanation for the session's subject.
///
/// With `pruned == true` the feature space is restricted to the subject's
/// radius-`d` neighbourhood (the paper's Pruning Strategy 1); with `false` every
/// skill assignment in the network is scored, which is the exhaustive baseline
/// of Tables 7/9/11/13. Every coalition is probed through the request's
/// session `engine`, so a cache behind it memoises coalition probes across
/// repeated explanations of the same (graph, query, subject); SHAP values
/// are identical either way.
pub fn explain_skills<D: DecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    cfg: &ExesConfig,
    pruned: bool,
) -> FactualExplanation {
    let features = if pruned {
        skill_features_pruned(engine.graph(), engine.task().subject(), cfg.skill_radius)
    } else {
        skill_features_exhaustive(engine.graph())
    };
    explain_features(engine, cfg, features)
}

/// Shared driver: score an arbitrary feature list with Shapley values,
/// spending at most `cfg.probe_budget` model evaluations. A truncated sample
/// is reported as [`Completeness::Budgeted`] with honest (wider) confidence
/// half-widths.
pub(crate) fn explain_features<D: DecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    cfg: &ExesConfig,
    features: Vec<Feature>,
) -> FactualExplanation {
    let (sampled, accounting) = attribute(engine, cfg, &features, cfg.probe_budget.limit());
    let completeness = match (sampled.truncated, cfg.probe_budget.limit()) {
        (true, Some(budget)) => Completeness::Budgeted {
            spent: accounting.probed,
            budget,
        },
        _ => Completeness::Exhaustive,
    };
    FactualExplanation::new(features, sampled.values, accounting)
        .with_sampling(sampled.half_widths, completeness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputMode;
    use crate::tasks::ExpertRelevanceTask;
    use exes_expert_search::{PropagationRanker, TfIdfRanker};
    use exes_graph::{CollabGraphBuilder, PersonId, Query};

    /// Explains `task`'s subject in a fresh, cache-less session.
    fn explain(
        task: &ExpertRelevanceTask<'_, impl exes_expert_search::ExpertRanker + Sync>,
        (g, q): (&CollabGraph, &Query),
        cfg: &ExesConfig,
        pruned: bool,
    ) -> FactualExplanation {
        explain_skills(&ProbeBatch::new(task, g, q, false, None), cfg, pruned)
    }

    /// Ada(db, ml) — Bob(db) — Cig(vision); Dot(db, ml) is disconnected and
    /// competes with Ada for the top spot.
    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let a = b.add_person("Ada", ["db", "ml"]);
        let bo = b.add_person("Bob", ["db"]);
        let c = b.add_person("Cig", ["vision"]);
        let _d = b.add_person("Dot", ["db", "ml"]);
        b.add_edge(a, bo);
        b.add_edge(bo, c);
        b.build()
    }

    #[test]
    fn pruned_feature_space_is_local() {
        let g = graph();
        let features = skill_features_pruned(&g, PersonId(0), 1);
        // Ada's 2 skills + Bob's 1 skill; Cig and Dot are outside radius 1.
        assert_eq!(features.len(), 3);
        assert!(features.iter().all(|f| match f {
            Feature::Skill(p, _) => p.index() <= 1,
            _ => false,
        }));
    }

    #[test]
    fn exhaustive_feature_space_covers_everyone() {
        let g = graph();
        let features = skill_features_exhaustive(&g);
        assert_eq!(features.len(), 6);
    }

    #[test]
    fn pruned_space_is_a_subset_of_exhaustive() {
        let g = graph();
        let pruned = skill_features_pruned(&g, PersonId(0), 1);
        let all = skill_features_exhaustive(&g);
        assert!(pruned.iter().all(|f| all.contains(f)));
    }

    #[test]
    fn own_matching_skills_get_positive_attribution() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let cfg = ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank);
        let exp = explain(&task, (&g, &q), &cfg, true);
        let db = g.vocab().id("db").unwrap();
        let ml = g.vocab().id("ml").unwrap();
        assert!(exp.value_of(&Feature::Skill(PersonId(0), db)).unwrap() > 0.0);
        assert!(exp.value_of(&Feature::Skill(PersonId(0), ml)).unwrap() > 0.0);
        assert!(exp.accounting().probed > 0);
    }

    #[test]
    fn neighbors_matching_skills_matter_for_propagation_rankers() {
        // Ada(db, ml) — Bob(db); Competitor(db) — Dee(db). Bob's place in the
        // top-2 depends on Ada's "ml": without it he ties the competitors and
        // loses on the id tie-break.
        let mut b = CollabGraphBuilder::new();
        let ada = b.add_person("Ada", ["db", "ml"]);
        let comp = b.add_person("Competitor", ["db"]);
        let dee = b.add_person("Dee", ["db"]);
        let bob = b.add_person("Bob", ["db"]);
        b.add_edge(ada, bob);
        b.add_edge(comp, dee);
        let g = b.build();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, bob, 2);
        let cfg = ExesConfig::fast()
            .with_k(2)
            .with_output_mode(OutputMode::SmoothRank)
            .with_skill_radius(1);
        let exp = explain(&task, (&g, &q), &cfg, true);
        let ml = g.vocab().id("ml").unwrap();
        let ada_ml = exp.value_of(&Feature::Skill(ada, ml)).unwrap();
        assert!(
            ada_ml > 0.0,
            "Ada's 'ml' should support Bob's relevance under propagation, got {ada_ml}"
        );
    }

    #[test]
    fn probe_budget_truncates_factual_sampling_honestly() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let base = ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank);
        let unbounded = explain(&task, (&g, &q), &base, false);
        assert_eq!(
            unbounded.completeness(),
            crate::probe::Completeness::Exhaustive
        );
        assert_eq!(unbounded.half_widths().len(), unbounded.num_features());
        // 6 features → exact enumeration needs 64 evaluations; 10 don't fit,
        // so the anytime sampler takes over and reports the truncation.
        let budget = 10;
        let cfg = base.with_probe_budget(crate::probe::ProbeBudget::bounded(budget));
        let exp = explain(&task, (&g, &q), &cfg, false);
        let probed = exp.accounting().probed;
        assert!(probed <= budget, "spent {probed} > {budget}");
        match exp.completeness() {
            crate::probe::Completeness::Budgeted { spent, budget: b } => {
                assert_eq!(spent, probed);
                assert_eq!(b, budget);
            }
            crate::probe::Completeness::Exhaustive => {
                panic!("a {budget}-evaluation budget must truncate 64 exact coalitions")
            }
        }
        assert_eq!(exp.half_widths().len(), exp.num_features());
    }

    #[test]
    fn binary_mode_explanation_is_no_larger_than_feature_space() {
        let g = graph();
        let q = Query::parse("db", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let cfg = ExesConfig::fast().with_k(1);
        let exp = explain(&task, (&g, &q), &cfg, true);
        assert!(exp.size() <= exp.num_features());
    }

    #[test]
    fn exhaustive_explanation_scores_remote_features_too() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let cfg = ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank);
        let exp = explain(&task, (&g, &q), &cfg, false);
        let ml = g.vocab().id("ml").unwrap();
        // Dot's competing "ml" skill is only visible to the exhaustive variant
        // and should *oppose* Ada's relevance (Dot competes for the top spot).
        let dot_ml = exp.value_of(&Feature::Skill(PersonId(3), ml)).unwrap();
        assert!(
            dot_ml <= 0.0,
            "competitor skill should not support Ada, got {dot_ml}"
        );
    }
}
