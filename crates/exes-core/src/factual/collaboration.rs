//! Collaboration factual explanations (Pruning Strategy 2: influential collaborations).

use super::{attribute, skill::explain_features, FactualExplanation};
use crate::config::ExesConfig;
use crate::features::Feature;
use crate::probe::{BatchStats, Completeness, ProbeBatch, ProbeBudget};
use crate::tasks::DecisionModel;
use exes_graph::{CollabGraph, Neighborhood, PersonId};
use rustc_hash::FxHashSet;
use std::collections::VecDeque;

/// The exhaustive collaboration feature space: every edge of the network.
pub fn collaboration_features_exhaustive(graph: &CollabGraph) -> Vec<Feature> {
    graph
        .edge_list()
        .iter()
        .map(|&(a, b)| Feature::Edge(a, b))
        .collect()
}

/// Computes a collaboration factual explanation.
///
/// With `pruned == true` the paper's Pruning Strategy 2 is used: starting from
/// the subject, repeatedly expand the next "impactful" person, score their
/// incident edges (restricted to the radius-`d` neighbourhood), and keep only
/// edges whose |SHAP| exceeds `τ`; the final explanation re-scores exactly that
/// impactful set. With `false` every edge of the graph is scored.
///
/// Every pass probes through the request's session `engine`, so all passes
/// share its plan and cache, and the result's accounting sums one record
/// per pass. `cfg.probe_budget` bounds the black-box probes of the *whole*
/// explanation. Each expansion pass holds back one whole permutation of the
/// final pass over the largest impactful set it can leave, so the final
/// pass always has the probes to score what the expansion found; when the
/// remainder cannot cover that reserve plus one permutation of the pass
/// itself, the expansion stops and the result is marked
/// [`Completeness::Budgeted`] — best-so-far, never a silent truncation. An
/// expansion stopped before anything turned impactful leaves the final pass
/// the edges the stopped pass would have scored.
pub fn explain_collaborations<D: DecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    cfg: &ExesConfig,
    pruned: bool,
) -> FactualExplanation {
    let graph = engine.graph();
    if !pruned {
        let features = collaboration_features_exhaustive(graph);
        return explain_features(engine, cfg, features);
    }

    let subject = engine.task().subject();
    let neighborhood = Neighborhood::compute(graph, subject, cfg.collab_radius);
    let mut impactful: Vec<Feature> = Vec::new();
    let mut impactful_set: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut expanded: FxHashSet<PersonId> = FxHashSet::default();
    let mut queue: VecDeque<PersonId> = VecDeque::new();
    queue.push_back(subject);
    let mut accounting = BatchStats::default();
    let mut budget = cfg.probe_budget.tracker();
    let mut expansion_truncated = false;
    // Guard against runaway expansion on dense neighbourhoods.
    let max_impactful = 64usize;

    while let Some(px) = queue.pop_front() {
        if !expanded.insert(px) {
            continue;
        }
        if impactful.len() >= max_impactful {
            break;
        }
        // Incident edges of px that stay inside the neighbourhood and are new.
        let incident: Vec<Feature> = graph
            .base_neighbors(px)
            .iter()
            .copied()
            .filter(|&py| neighborhood.contains(py))
            .map(|py| {
                let (a, b) = if px < py { (px, py) } else { (py, px) };
                Feature::Edge(a, b)
            })
            .filter(|f| match f {
                Feature::Edge(a, b) => !impactful_set.contains(&(a.0, b.0)),
                _ => false,
            })
            .collect();
        if incident.is_empty() {
            continue;
        }
        // One permutation of the sampler over m features costs its two
        // anchor coalitions plus one per feature; the pass can leave at most
        // `impactful.len() + incident.len()` impactful edges, and needs one
        // permutation of its own to learn anything.
        let reserve = impactful.len() + incident.len() + 2;
        let allowance = match budget.remaining() {
            Some(remaining) if remaining < reserve + incident.len() + 2 => {
                expansion_truncated = true;
                // Nothing impactful yet: the final pass scores this pass's
                // edges with the whole remainder instead of an empty set.
                if impactful.is_empty() {
                    impactful = incident;
                }
                break;
            }
            remaining => remaining.map(|remaining| remaining - reserve),
        };
        let (sampled, pass) = attribute(engine, cfg, &incident, allowance);
        let shap = sampled.values;
        if sampled.truncated {
            expansion_truncated = true;
        }
        budget.charge(pass.probed);
        accounting.merge(&pass);
        for (i, &feature) in incident.iter().enumerate() {
            if shap.value(i).abs() >= cfg.tau {
                if let Feature::Edge(a, b) = feature {
                    if impactful_set.insert((a.0, b.0)) {
                        impactful.push(feature);
                        // Enqueue the endpoint that is not the one we expanded.
                        let other = if a == px { b } else { a };
                        if !expanded.contains(&other) {
                            queue.push_back(other);
                        }
                    }
                }
            }
        }
    }

    // Final pass: SHAP values over exactly the impactful edge set, spending
    // whatever budget the expansion left over.
    let final_cfg = cfg.clone().with_probe_budget(match budget.remaining() {
        Some(remaining) => ProbeBudget::bounded(remaining),
        None => ProbeBudget::UNBOUNDED,
    });
    let final_explanation = explain_features(engine, &final_cfg, impactful);
    accounting.merge(&final_explanation.accounting());
    let completeness = match (
        expansion_truncated || final_explanation.completeness().is_budgeted(),
        cfg.probe_budget.limit(),
    ) {
        (true, Some(limit)) => Completeness::Budgeted {
            spent: accounting.probed,
            budget: limit,
        },
        _ => Completeness::Exhaustive,
    };
    let half_widths = final_explanation.half_widths().to_vec();
    FactualExplanation::new(
        final_explanation.features().to_vec(),
        final_explanation.shap_values().clone(),
        accounting,
    )
    .with_sampling(half_widths, completeness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputMode;
    use crate::tasks::ExpertRelevanceTask;
    use exes_expert_search::{ExpertRanker, PropagationRanker, TfIdfRanker};
    use exes_graph::{CollabGraphBuilder, Query};

    /// Explains `task`'s subject on `g` in a fresh, cache-less session.
    fn explain<R: ExpertRanker + Sync>(
        task: &ExpertRelevanceTask<'_, R>,
        g: &CollabGraph,
        q: &Query,
        cfg: &ExesConfig,
    ) -> FactualExplanation {
        explain_collaborations(&ProbeBatch::new(task, g, q, false, None), cfg, true)
    }

    /// Ada(db) — Expert(db, ml) and Ada — Irrelevant(vision); Competitor(db) —
    /// Dee(db) form a rival pair without access to "ml". Ada's place in the
    /// top-2 for "db ml" hinges on her collaboration with Expert.
    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let ada = b.add_person("Ada", ["db"]);
        let expert = b.add_person("Expert", ["db", "ml"]);
        let irrelevant = b.add_person("Irrelevant", ["vision"]);
        let competitor = b.add_person("Competitor", ["db"]);
        let dee = b.add_person("Dee", ["db"]);
        b.add_edge(ada, expert);
        b.add_edge(ada, irrelevant);
        b.add_edge(competitor, dee);
        b.build()
    }

    fn cfg() -> ExesConfig {
        ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank)
            .with_tau(0.01)
    }

    #[test]
    fn exhaustive_space_is_every_edge() {
        let g = graph();
        assert_eq!(collaboration_features_exhaustive(&g).len(), 3);
    }

    #[test]
    fn helpful_collaboration_scores_above_irrelevant_one() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 2);
        let cfg = cfg().with_k(2);
        let exp = explain(&task, &g, &q, &cfg);
        let to_expert = exp.value_of(&Feature::Edge(PersonId(0), PersonId(1)));
        let to_irrelevant = exp.value_of(&Feature::Edge(PersonId(0), PersonId(2)));
        match (to_expert, to_irrelevant) {
            (Some(e), Some(i)) => assert!(e > i, "expert edge {e} vs irrelevant edge {i}"),
            (Some(e), None) => assert!(e > 0.0),
            other => panic!("expert edge missing from explanation: {other:?}"),
        }
    }

    #[test]
    fn pruned_explanation_only_contains_neighborhood_edges() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 2);
        let exp = explain(&task, &g, &q, &cfg().with_k(2));
        assert!(exp.features().iter().all(|f| f.involves(PersonId(0))
            || f.involves(PersonId(1))
            || f.involves(PersonId(2))));
    }

    #[test]
    fn network_blind_ranker_yields_no_impactful_edges() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        // TF-IDF ignores collaborations entirely, so every edge has zero impact.
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let exp = explain(&task, &g, &q, &cfg().with_k(3));
        assert_eq!(exp.size(), 0);
    }

    #[test]
    fn larger_tau_never_enlarges_the_explanation() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 2);
        let small_tau = explain(&task, &g, &q, &cfg().with_k(2).with_tau(0.01));
        let large_tau = explain(&task, &g, &q, &cfg().with_k(2).with_tau(0.3));
        assert!(large_tau.num_features() <= small_tau.num_features());
    }
}
