//! Exhaustive counterfactual search — the no-pruning baseline of Tables
//! 8/10/12/14, rebuilt around the batched probe engine.

use super::{CounterfactualExplanation, CounterfactualKind, CounterfactualResult};
use crate::config::ExesConfig;
use crate::probe::{ProbeBatch, PROBE_CHUNK};
use crate::tasks::{ErasedDecisionModel, Probe};
use exes_graph::{
    CollabGraph, GraphView, Neighborhood, PersonId, Perturbation, PerturbationSet, Query, SkillId,
};

/// Enumerates perturbation subsets in order of increasing size (1, then 2, ...)
/// over the full candidate space, recording every subset that flips the
/// `reference` decision, until `e` explanations are found, the size budget
/// `γ` is exhausted, or the probe budget runs out.
///
/// This is the paper's exhaustive baseline: no beam, no embedding/link-prediction
/// guidance — only the subset-size ordering that guarantees minimality of the
/// returned explanations. Combinations are buffered into fixed-size chunks and
/// scored through the request's probe session `engine` (in parallel when the
/// session is); chunks are processed in enumeration order, so results are
/// byte-identical to the sequential path. `reference` is the session's probe
/// of the unperturbed input, and a cache behind the session memoises probes
/// exactly as in [`super::beam::beam_search`]: results are byte-identical
/// with or without it, only `result.accounting` changes.
///
/// `cfg.probe_budget` bounds the number of *black-box* probes (cache hits are
/// free). When the budget runs out mid-enumeration the search stops at the
/// last affordable subset and returns best-so-far, marked
/// [`Completeness::Budgeted`](crate::probe::Completeness) — never a panic or a
/// silent truncation. An unbounded budget leaves every byte of the result
/// unchanged. The result counts the search's own probes; [`crate::Exes`]
/// adds the reference probe of the request.
pub fn exhaustive_search<D: ErasedDecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    reference: Probe,
    candidates: &[Perturbation],
    kind: CounterfactualKind,
    cfg: &ExesConfig,
) -> CounterfactualResult {
    let mut result = CounterfactualResult::default();
    let mut budget = cfg.probe_budget.tracker();
    let initial_relevance = reference.positive;

    // Scores a buffered chunk in enumeration order; returns false when the
    // search must stop (explanation count reached or probe budget spent).
    let score_chunk = |chunk: &mut Vec<PerturbationSet>,
                       result: &mut CounterfactualResult,
                       budget: &mut crate::probe::BudgetTracker|
     -> bool {
        if chunk.is_empty() {
            return true;
        }
        let (probes, stats) = engine.score(chunk, budget.remaining());
        budget.charge(stats.probed);
        result.accounting.merge(&stats);
        let truncated = probes.len() < chunk.len();
        for (set, probe) in chunk.drain(..).zip(probes) {
            if probe.positive != initial_relevance
                && result.explanations.len() < cfg.num_explanations
            {
                result.explanations.push(CounterfactualExplanation {
                    perturbations: set,
                    new_signal: probe.signal,
                    kind,
                });
            }
        }
        if truncated {
            // The budget ran out mid-chunk: subsets were dropped unscored,
            // so the result is best-so-far, said explicitly.
            result.completeness = budget.completeness(true);
            return false;
        }
        result.explanations.len() < cfg.num_explanations
    };

    let max_size = cfg.max_explanation_size.min(candidates.len());
    'sizes: for size in 1..=max_size {
        let mut indices: Vec<usize> = (0..size).collect();
        let mut chunk: Vec<PerturbationSet> = Vec::with_capacity(PROBE_CHUNK);
        loop {
            // Buffer the current combination (duplicate candidates can collapse
            // below the target size; those sets are skipped, as before).
            let set: PerturbationSet = indices.iter().map(|&i| candidates[i]).collect();
            if set.len() == size {
                chunk.push(set);
                if chunk.len() >= PROBE_CHUNK && !score_chunk(&mut chunk, &mut result, &mut budget)
                {
                    break 'sizes;
                }
            }
            // Advance to the next combination of `size` indices.
            if !next_combination(&mut indices, candidates.len()) {
                break;
            }
        }
        if !score_chunk(&mut chunk, &mut result, &mut budget) {
            break 'sizes;
        }
        // Minimality: once any explanation of this size exists, larger sizes
        // cannot be minimal.
        if !result.explanations.is_empty() {
            break;
        }
    }

    result.sort(!initial_relevance);
    result
}

/// Advances `indices` to the next k-combination of `0..n` in lexicographic
/// order; returns false when exhausted.
fn next_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    if k == 0 {
        return false;
    }
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] < n - (k - i) {
            indices[i] += 1;
            for j in (i + 1)..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// The unpruned candidate space for skill-removal counterfactuals: every
/// `(person, skill)` assignment present in the graph.
pub fn all_skill_removals(graph: &CollabGraph) -> Vec<Perturbation> {
    graph
        .people()
        .flat_map(|p| {
            graph
                .person_skills(p)
                .iter()
                .map(move |&s| Perturbation::RemoveSkill {
                    person: p,
                    skill: s,
                })
        })
        .collect()
}

/// The "Exhaustive neighbourhood" (N) baseline for skill additions: the whole
/// network's people crossed with the *pruned* candidate skill set.
pub fn skill_additions_all_people(
    graph: &CollabGraph,
    candidate_skills: &[SkillId],
) -> Vec<Perturbation> {
    graph
        .people()
        .flat_map(|p| {
            candidate_skills
                .iter()
                .copied()
                .filter(move |&s| !graph.person_has_skill(p, s))
                .map(move |s| Perturbation::AddSkill {
                    person: p,
                    skill: s,
                })
        })
        .collect()
}

/// The "Exhaustive skills" (S) baseline for skill additions: the full skill
/// universe crossed with the subject's neighbourhood.
pub fn skill_additions_all_skills(
    graph: &CollabGraph,
    subject: PersonId,
    radius: usize,
) -> Vec<Perturbation> {
    let neighborhood = Neighborhood::compute(graph, subject, radius);
    neighborhood
        .members()
        .iter()
        .flat_map(|&p| {
            graph
                .vocab()
                .ids()
                .filter(move |&s| !graph.person_has_skill(p, s))
                .map(move |s| Perturbation::AddSkill {
                    person: p,
                    skill: s,
                })
        })
        .collect()
}

/// The unpruned candidate space for query augmentation: every skill not already
/// in the query.
pub fn all_query_augmentations(graph: &CollabGraph, query: &Query) -> Vec<Perturbation> {
    graph
        .vocab()
        .ids()
        .filter(|s| !query.contains(*s))
        .map(|skill| Perturbation::AddQueryTerm { skill })
        .collect()
}

/// The unpruned candidate space for link removal: every edge of the graph.
pub fn all_link_removals(graph: &CollabGraph) -> Vec<Perturbation> {
    graph
        .edge_list()
        .iter()
        .map(|&(a, b)| Perturbation::RemoveEdge { a, b })
        .collect()
}

/// The unpruned candidate space for link addition: every missing edge incident
/// to the subject (the paper's full space is every missing edge in the graph;
/// restricting to the subject keeps the candidate *list* constructible at paper
/// scale while remaining a strict superset of the pruned space).
pub fn all_link_additions(graph: &CollabGraph, subject: PersonId) -> Vec<Perturbation> {
    graph
        .people()
        .filter(|&p| p != subject && !graph.has_edge(subject, p))
        .map(|p| Perturbation::AddEdge { a: subject, b: p })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{DecisionModel, ExpertRelevanceTask};
    use exes_expert_search::TfIdfRanker;
    use exes_graph::CollabGraphBuilder;

    /// Searches `candidates` in a fresh session, probing the reference
    /// outside the search's accounting and budget, as `Exes` does.
    fn search(
        task: &ExpertRelevanceTask<'_, TfIdfRanker>,
        (g, q): (&CollabGraph, &Query),
        candidates: &[Perturbation],
        kind: CounterfactualKind,
        cfg: &ExesConfig,
    ) -> CounterfactualResult {
        let engine = ProbeBatch::new(task, g, q, cfg.parallel_probes, None);
        let (reference, _) = engine.score(&[PerturbationSet::new()], None);
        exhaustive_search(&engine, reference[0], candidates, kind, cfg)
    }

    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let a = b.add_person("Ada", ["db", "ml"]);
        let bo = b.add_person("Bob", ["db"]);
        let c = b.add_person("Cig", ["vision"]);
        b.add_edge(a, bo);
        b.add_edge(bo, c);
        b.build()
    }

    #[test]
    fn next_combination_enumerates_all_subsets() {
        let mut indices = vec![0, 1];
        let mut count = 1;
        while next_combination(&mut indices, 4) {
            count += 1;
        }
        assert_eq!(count, 6); // C(4,2)
        assert!(!next_combination(&mut Vec::new(), 4));
    }

    #[test]
    fn exhaustive_search_finds_minimal_explanations() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let candidates = all_skill_removals(&g);
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::SkillRemoval,
            &ExesConfig::fast().with_k(1),
        );
        assert!(!result.is_empty());
        let minimal = result.minimal_size().unwrap();
        // Every reported explanation has the minimal size (size-ordered search).
        assert!(result.explanations.iter().all(|e| e.size() == minimal));
        for e in &result.explanations {
            let (view, pq) = e.perturbations.apply(&g, &q);
            assert!(!task.probe(&view, &pq).positive);
        }
    }

    #[test]
    fn candidate_space_generators_have_expected_sizes() {
        let g = graph();
        let q = Query::parse("db", g.vocab()).unwrap();
        assert_eq!(all_skill_removals(&g).len(), 4);
        assert_eq!(all_query_augmentations(&g, &q).len(), g.vocab().len() - 1);
        assert_eq!(all_link_removals(&g).len(), 2);
        assert_eq!(all_link_additions(&g, PersonId(0)).len(), 1);
        let skills: Vec<SkillId> = g.vocab().ids().collect();
        // Every person × every skill they lack.
        assert_eq!(
            skill_additions_all_people(&g, &skills).len(),
            3 * g.vocab().len() - 4
        );
        let around_ada = skill_additions_all_skills(&g, PersonId(0), 1);
        // Ada lacks 1 skill, Bob lacks 2.
        assert_eq!(around_ada.len(), 3);
    }

    #[test]
    fn budget_truncates_the_baseline_honestly() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let candidates = all_skill_removals(&g);
        let run = |budget: crate::probe::ProbeBudget| {
            search(
                &task,
                (&g, &q),
                &candidates,
                CounterfactualKind::SkillRemoval,
                &ExesConfig::fast().with_k(1).with_probe_budget(budget),
            )
        };
        let unbounded = run(crate::probe::ProbeBudget::UNBOUNDED);
        assert_eq!(
            unbounded.completeness,
            crate::probe::Completeness::Exhaustive
        );
        // Matching the unbounded spend exactly, or exceeding it, changes
        // nothing: the whole result, accounting and completeness included.
        let spent = unbounded.accounting.probed;
        for ample in [spent, spent + 1, 10 * spent] {
            assert_eq!(
                run(crate::probe::ProbeBudget::bounded(ample)),
                unbounded,
                "budget {ample}"
            );
        }
        // A 2-probe budget (two of the four singletons) is overdrawn
        // mid-chunk.
        let starved = run(crate::probe::ProbeBudget::bounded(2));
        assert!(starved.accounting.probed <= 2);
        assert_eq!(
            starved.completeness,
            crate::probe::Completeness::Budgeted {
                spent: starved.accounting.probed,
                budget: 2
            }
        );
    }

    #[test]
    fn empty_candidate_list_returns_empty_result() {
        let g = graph();
        let q = Query::parse("db", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let result = search(
            &task,
            (&g, &q),
            &[],
            CounterfactualKind::SkillRemoval,
            &ExesConfig::fast(),
        );
        assert!(result.is_empty());
        assert_eq!(result.completeness, crate::probe::Completeness::Exhaustive);
    }
}
