//! Beam search over perturbation sets — Algorithm 1 (Pruning Strategy 3),
//! rebuilt around the batched probe engine.
//!
//! Each beam level expands every state by every candidate feature, dedups the
//! expansions, and scores them through [`ProbeBatch`] in fixed-size chunks.
//! Chunks are processed strictly in generation order, so the search is fully
//! deterministic and its results are byte-identical whether the session
//! scores on one thread or many (`cfg.parallel_probes`).

use super::{CounterfactualExplanation, CounterfactualKind, CounterfactualResult};
use crate::config::ExesConfig;
use crate::probe::{ProbeBatch, PROBE_CHUNK};
use crate::tasks::{ErasedDecisionModel, Probe};
use exes_graph::{Perturbation, PerturbationSet};
use rustc_hash::FxHashSet;

/// Runs the paper's beam search (Algorithm 1) over the given candidate
/// perturbations, looking for up to `cfg.num_explanations` minimal perturbation
/// sets that flip the `reference` decision.
///
/// * `engine` — the request's probe session. Every probe goes through it, so
///   a warm cache answers repeated probes without touching the black box;
///   explanations are byte-identical either way, only `result.accounting`
///   changes.
/// * `reference` — the session's probe of the unperturbed input (the empty
///   perturbation set): the decision to flip and the signal the beam starts
///   from.
/// * `candidates` — the pruned candidate features produced by Pruning
///   Strategies 4/5 (or an unpruned list, for ablations).
///
/// The search runs under `cfg.probe_budget`: black-box probes (cache hits are
/// free) are counted against it, and once the next probe would overdraw the
/// allowance the search stops and returns its best-so-far explanations marked
/// `Completeness::Budgeted` — never a panic, never a silent truncation. With
/// [`crate::probe::ProbeBudget::UNBOUNDED`] (the default) results are
/// byte-identical to the unbudgeted search. The result counts the search's
/// own probes; [`crate::Exes`] adds the reference probe and any candidate
/// scoring of the request.
pub fn beam_search<D: ErasedDecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    reference: Probe,
    candidates: &[Perturbation],
    kind: CounterfactualKind,
    cfg: &ExesConfig,
) -> CounterfactualResult {
    let mut result = CounterfactualResult::default();
    let mut budget = cfg.probe_budget.tracker();
    let initial_relevance = reference.positive;

    // Beam of (signal, perturbation set). Starts from the empty perturbation.
    let mut queue: Vec<(f64, PerturbationSet)> = vec![(reference.signal, PerturbationSet::new())];
    let mut seen: FxHashSet<Vec<Perturbation>> = FxHashSet::default();

    'outer: while result.explanations.len() < cfg.num_explanations && !queue.is_empty() {
        // Generate this level's novel expansions, in deterministic beam order.
        let mut pending: Vec<PerturbationSet> = Vec::new();
        for (_, state) in &queue {
            for &feature in candidates {
                if state.contains(&feature) {
                    continue;
                }
                let expanded = state.with(feature);
                // Canonical dedup key: sorted by the derived `Ord` on
                // `Perturbation` — the same order the probe cache keys by.
                if !seen.insert(expanded.canonical_key()) {
                    continue;
                }
                pending.push(expanded);
            }
        }
        if pending.is_empty() {
            break;
        }

        let mut expanded_queue: Vec<(f64, PerturbationSet)> = Vec::new();
        for raw_chunk in pending.chunks(PROBE_CHUNK) {
            if result.explanations.len() >= cfg.num_explanations {
                break 'outer;
            }
            // Supersets of explanations found in earlier chunks cannot be
            // minimal; drop them before spending probes.
            let chunk: Vec<PerturbationSet> = raw_chunk
                .iter()
                .filter(|set| {
                    !result
                        .explanations
                        .iter()
                        .any(|e| e.perturbations.is_subset_of(set))
                })
                .cloned()
                .collect();
            if chunk.is_empty() {
                continue;
            }
            let (probes, stats) = engine.score(&chunk, budget.remaining());
            budget.charge(stats.probed);
            result.accounting.merge(&stats);
            let truncated = probes.len() < chunk.len();
            for (set, probe) in chunk.into_iter().zip(probes) {
                if probe.positive != initial_relevance {
                    // In-order minimality guard within the chunk: a set whose
                    // subset already flipped is not minimal.
                    if result.explanations.len() >= cfg.num_explanations
                        || result
                            .explanations
                            .iter()
                            .any(|e| e.perturbations.is_subset_of(&set))
                    {
                        continue;
                    }
                    result.explanations.push(CounterfactualExplanation {
                        perturbations: set,
                        new_signal: probe.signal,
                        kind,
                    });
                } else if set.len() < cfg.max_explanation_size {
                    expanded_queue.push((probe.signal, set));
                }
            }
            if truncated {
                // The budget ran out mid-chunk: candidates were dropped
                // unscored, so the result is best-so-far, said explicitly.
                result.completeness = budget.completeness(true);
                break 'outer;
            }
        }

        // Keep the b most promising states. If the subject is currently selected
        // we want perturbations that push it *out* (higher signal first);
        // otherwise perturbations that pull it *in* (lower signal first).
        // `total_cmp` keeps the order well-defined even if a black box ever
        // emits a NaN signal (NaN sorts as larger than every number).
        if initial_relevance {
            expanded_queue.sort_by(|a, b| b.0.total_cmp(&a.0));
        } else {
            expanded_queue.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        expanded_queue.truncate(cfg.beam_width);
        queue = expanded_queue;
    }

    // Non-experts are being pulled in, so lower signal is the stronger effect.
    result.sort(!initial_relevance);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Completeness, ProbeCache};
    use crate::tasks::{DecisionModel, ExpertRelevanceTask};
    use exes_expert_search::{ExpertRanker, TfIdfRanker};
    use exes_graph::{CollabGraph, CollabGraphBuilder, GraphView, PersonId, Query};

    /// Ada(db, ml) leads; Bob(db) is second; Cig(vision) is last.
    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let a = b.add_person("Ada", ["db", "ml"]);
        let bo = b.add_person("Bob", ["db"]);
        let c = b.add_person("Cig", ["vision"]);
        b.add_edge(a, bo);
        b.add_edge(bo, c);
        b.build()
    }

    fn cfg() -> ExesConfig {
        ExesConfig::fast().with_k(1).with_beam_width(4)
    }

    /// Searches `candidates` in a fresh session, probing the reference
    /// outside the search's accounting and budget, as `Exes` does.
    fn search(
        task: &ExpertRelevanceTask<'_, TfIdfRanker>,
        (g, q): (&CollabGraph, &Query),
        candidates: &[Perturbation],
        kind: CounterfactualKind,
        config: &ExesConfig,
        cache: Option<&ProbeCache>,
    ) -> CounterfactualResult {
        let engine = ProbeBatch::new(task, g, q, config.parallel_probes, cache);
        let (reference, _) = engine.score(&[PerturbationSet::new()], None);
        beam_search(&engine, reference[0], candidates, kind, config)
    }

    #[test]
    fn finds_single_feature_counterfactual_for_an_expert() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let ml = g.vocab().id("ml").unwrap();
        let db = g.vocab().id("db").unwrap();
        let candidates = vec![
            Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: ml,
            },
            Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: db,
            },
        ];
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::SkillRemoval,
            &cfg(),
            None,
        );
        assert!(!result.is_empty());
        // Every returned explanation must genuinely flip the decision.
        for e in &result.explanations {
            let (view, pq) = e.perturbations.apply(&g, &q);
            assert!(!task.probe(&view, &pq).positive);
        }
        assert!(result.minimal_size().unwrap() <= 2);
        assert_eq!(result.completeness, Completeness::Exhaustive);
        assert!(result.accounting.probed > 0);
    }

    #[test]
    fn finds_addition_counterfactual_for_a_non_expert() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        // Explain why Cig is not in the top-1 and what would change that.
        let task = ExpertRelevanceTask::new(&ranker, PersonId(2), 1);
        let ml = g.vocab().id("ml").unwrap();
        let db = g.vocab().id("db").unwrap();
        let vision = g.vocab().id("vision").unwrap();
        let candidates = vec![
            Perturbation::AddSkill {
                person: PersonId(2),
                skill: ml,
            },
            Perturbation::AddSkill {
                person: PersonId(2),
                skill: db,
            },
            Perturbation::AddQueryTerm { skill: vision },
        ];
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::SkillAddition,
            &cfg(),
            None,
        );
        assert!(!result.is_empty(), "should find a way to promote Cig");
        for e in &result.explanations {
            let (view, pq) = e.perturbations.apply(&g, &q);
            assert!(task.probe(&view, &pq).positive);
        }
    }

    #[test]
    fn respects_max_explanation_size() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(2), 1);
        let vision = g.vocab().id("vision").unwrap();
        let candidates = vec![Perturbation::AddQueryTerm { skill: vision }];
        let mut config = cfg();
        config.max_explanation_size = 2;
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::QueryAugmentation,
            &config,
            None,
        );
        for e in &result.explanations {
            assert!(e.size() <= 2);
        }
    }

    #[test]
    fn returns_at_most_e_explanations() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let candidates: Vec<Perturbation> = g
            .vocab()
            .ids()
            .map(|s| Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: s,
            })
            .chain(
                g.vocab()
                    .ids()
                    .map(|s| Perturbation::AddQueryTerm { skill: s }),
            )
            .collect();
        let mut config = cfg();
        config.num_explanations = 2;
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::SkillRemoval,
            &config,
            None,
        );
        assert!(result.len() <= 2);
    }

    #[test]
    fn explanations_are_sorted_by_size() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let candidates: Vec<Perturbation> = g
            .vocab()
            .ids()
            .map(|s| Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: s,
            })
            .collect();
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::SkillRemoval,
            &cfg(),
            None,
        );
        let sizes: Vec<usize> = result.explanations.iter().map(|e| e.size()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        // Sanity: the initial ranking really has Ada on top for this query.
        assert_eq!(ranker.rank_of(&g, &q, PersonId(0)), 1);
    }

    #[test]
    fn parallel_and_sequential_paths_are_byte_identical() {
        // A graph large enough that each beam level exceeds the parallel
        // threshold, with query-term and skill candidates mixed in.
        let (g, q, candidates) = wide_search_instance();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let mut parallel_cfg = ExesConfig::fast().with_k(3).with_beam_width(6);
        parallel_cfg.parallel_probes = true;
        let mut sequential_cfg = parallel_cfg.clone();
        sequential_cfg.parallel_probes = false;
        let run = |config: &ExesConfig| {
            search(
                &task,
                (&g, &q),
                &candidates,
                CounterfactualKind::SkillRemoval,
                config,
                None,
            )
        };
        let par = run(&parallel_cfg);
        let seq = run(&sequential_cfg);
        assert_eq!(par.accounting, seq.accounting);
        assert_eq!(par.completeness, seq.completeness);
        assert_eq!(par.explanations, seq.explanations);
    }

    /// A 20-person instance whose beam levels are wide enough to exercise the
    /// parallel scoring path and several probe chunks.
    fn wide_search_instance() -> (CollabGraph, Query, Vec<Perturbation>) {
        let mut b = CollabGraphBuilder::new();
        let people: Vec<_> = (0..20)
            .map(|i| {
                b.add_person(
                    &format!("p{i}"),
                    [format!("s{}", i % 6), format!("s{}", (i + 1) % 6)],
                )
            })
            .collect();
        for w in people.windows(3) {
            b.add_edge(w[0], w[2]);
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let q = Query::parse("s0 s1", g.vocab()).unwrap();
        let candidates: Vec<Perturbation> = g
            .people()
            .flat_map(|p| {
                g.person_skills(p)
                    .iter()
                    .map(move |&s| Perturbation::RemoveSkill {
                        person: p,
                        skill: s,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        (g, q, candidates)
    }

    #[test]
    fn exhausted_budget_is_deterministic_across_thread_counts() {
        let (g, q, candidates) = wide_search_instance();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        // Small enough to exhaust mid-search (the unbounded run spends far
        // more), large enough to cross at least one full probe chunk.
        let budget = 140;
        let base = ExesConfig::fast()
            .with_k(3)
            .with_beam_width(6)
            .with_probe_budget(crate::probe::ProbeBudget::bounded(budget));
        let run = |parallel: bool| {
            search(
                &task,
                (&g, &q),
                &candidates,
                CounterfactualKind::SkillRemoval,
                &base.clone().with_parallel_probes(parallel),
                None,
            )
        };
        let par = run(true);
        let seq = run(false);
        assert_eq!(par.completeness, seq.completeness);
        assert_eq!(par.accounting, seq.accounting);
        assert_eq!(par.explanations, seq.explanations);
        // The budget genuinely bit, is honestly reported, and was never
        // overdrawn.
        let probed = par.accounting.probed;
        assert!(probed <= budget, "spent {probed} > budget {budget}");
        match par.completeness {
            Completeness::Budgeted { spent, budget: b } => {
                assert_eq!(spent, probed);
                assert_eq!(b, budget);
            }
            Completeness::Exhaustive => panic!("a {budget}-probe budget must truncate this search"),
        }
    }

    #[test]
    fn zero_budget_without_a_cache_returns_the_honest_degenerate() {
        let (g, q, candidates) = wide_search_instance();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let config = ExesConfig::fast()
            .with_k(3)
            .with_probe_budget(crate::probe::ProbeBudget::bounded(0));
        let result = search(
            &task,
            (&g, &q),
            &candidates,
            CounterfactualKind::SkillRemoval,
            &config,
            None,
        );
        assert!(result.is_empty());
        assert_eq!(result.accounting.probed, 0);
        assert_eq!(
            result.completeness,
            Completeness::Budgeted {
                spent: 0,
                budget: 0
            }
        );
    }

    #[test]
    fn ample_budget_is_byte_identical_to_unbounded_search() {
        let (g, q, candidates) = wide_search_instance();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let base = ExesConfig::fast().with_k(3).with_beam_width(6);
        let run = |config: &ExesConfig| {
            search(
                &task,
                (&g, &q),
                &candidates,
                CounterfactualKind::SkillRemoval,
                config,
                None,
            )
        };
        let unbounded = run(&base);
        let spent = unbounded.accounting.probed;
        // A budget exactly equal to the unbounded spend changes nothing:
        // same explanations, same counters, still marked exhaustive.
        let bounded = run(&base
            .clone()
            .with_probe_budget(crate::probe::ProbeBudget::bounded(spent)));
        assert_eq!(bounded.explanations, unbounded.explanations);
        assert_eq!(bounded.accounting, unbounded.accounting);
        assert_eq!(bounded.completeness, Completeness::Exhaustive);
        // One probe less must bite.
        let starved = run(&base
            .clone()
            .with_probe_budget(crate::probe::ProbeBudget::bounded(spent - 1)));
        assert!(starved.completeness.is_budgeted());
    }

    #[test]
    fn zero_budget_with_a_warm_cache_replays_the_full_search_free() {
        let (g, q, candidates) = wide_search_instance();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let cache = ProbeCache::new(0);
        let base = ExesConfig::fast().with_k(3).with_beam_width(6);
        let run = |config: &ExesConfig| {
            search(
                &task,
                (&g, &q),
                &candidates,
                CounterfactualKind::SkillRemoval,
                config,
                Some(&cache),
            )
        };
        let warmup = run(&base);
        assert!(warmup.accounting.probed > 0);
        // Every probe is now memoised: hits are free, so even a zero budget
        // completes the identical search without touching the black box.
        let replay = run(&base
            .clone()
            .with_probe_budget(crate::probe::ProbeBudget::bounded(0)));
        assert_eq!(replay.explanations, warmup.explanations);
        assert_eq!(replay.accounting.probed, 0);
        assert_eq!(replay.completeness, Completeness::Exhaustive);
    }
}
