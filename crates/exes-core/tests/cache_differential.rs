//! Differential tests for the probe memo cache: cached and uncached runs must
//! return byte-identical explanations, and warm caches must measurably cut
//! the number of black-box probes (asserted through the hit/miss counters).

use exes_core::counterfactual::beam::beam_search;
use exes_core::counterfactual::exhaustive::{all_skill_removals, exhaustive_search};
use exes_core::counterfactual::{CounterfactualKind, CounterfactualResult};
use exes_core::service::{ExesService, Explanation, ExplanationRequest};
use exes_core::{
    Exes, ExesConfig, ExpertRelevanceTask, ModelSpec, OutputMode, ProbeBatch, ProbeCache,
};
use exes_datasets::{
    DatasetConfig, QueryWorkload, SyntheticDataset, UpdateStream, UpdateStreamConfig,
};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker};
use exes_graph::{GraphView, PersonId, Perturbation, PerturbationSet, Query};
use exes_linkpred::CommonNeighbors;
use std::sync::Arc;

struct Fixture {
    ds: SyntheticDataset,
    query: Query,
    ranker: PropagationRanker,
    cfg: ExesConfig,
}

fn fixture() -> Fixture {
    let ds = SyntheticDataset::generate(&DatasetConfig::tiny("cachediff", 19));
    let workload = QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 23);
    let query = workload.queries()[0].clone();
    Fixture {
        ds,
        query,
        ranker: PropagationRanker::default(),
        cfg: ExesConfig::fast().with_k(3),
    }
}

/// Skill-removal candidates for a selected subject, unpruned for determinism.
fn removal_candidates(f: &Fixture, subject: PersonId) -> Vec<Perturbation> {
    f.ds.graph
        .person_skills(subject)
        .iter()
        .map(|&s| Perturbation::RemoveSkill {
            person: subject,
            skill: s,
        })
        .chain(
            f.ds.graph
                .vocab()
                .ids()
                .take(12)
                .map(|skill| Perturbation::AddQueryTerm { skill }),
        )
        .collect()
}

fn top_subject(f: &Fixture) -> PersonId {
    f.ranker.rank_all(&f.ds.graph, &f.query).top_k(1)[0]
}

type Task<'t> = ExpertRelevanceTask<'t, PropagationRanker>;

/// `beam_search` or `exhaustive_search` over one task type.
type Search<'t> = fn(
    &ProbeBatch<'_, Task<'t>>,
    exes_core::Probe,
    &[Perturbation],
    CounterfactualKind,
    &ExesConfig,
) -> CounterfactualResult;

/// A counterfactual search over `candidates` in one probe session, as
/// `Exes` runs it: the reference probe first, counted with the search.
fn session_search<'t>(
    f: &Fixture,
    task: &Task<'t>,
    (candidates, cfg): (&[Perturbation], &ExesConfig),
    search: Search<'t>,
    cache: Option<&ProbeCache>,
) -> CounterfactualResult {
    let engine = ProbeBatch::new(task, &f.ds.graph, &f.query, cfg.parallel_probes, cache);
    let (reference, stats) = engine.score(&[PerturbationSet::new()], None);
    let kind = CounterfactualKind::SkillRemoval;
    let mut result = search(&engine, reference[0], candidates, kind, cfg);
    result.accounting.merge(&stats);
    result
}

#[test]
fn cached_beam_search_is_byte_identical_and_warm_runs_probe_less() {
    let f = fixture();
    let subject = top_subject(&f);
    let task = ExpertRelevanceTask::new(&f.ranker, subject, f.cfg.k);
    let candidates = removal_candidates(&f, subject);
    let run = |cache| session_search(&f, &task, (&candidates, &f.cfg), beam_search, cache);

    let uncached = run(None);
    assert_eq!(uncached.accounting.cache_hits, 0);
    assert_eq!(uncached.accounting.cache_misses, 0);
    assert!(uncached.accounting.probed > 1);

    let cache = ProbeCache::new(0);
    let cold = run(Some(&cache));
    // Cold cache: every probe misses, so the black box sees exactly the
    // uncached workload and the explanations are byte-identical.
    assert_eq!(cold.explanations, uncached.explanations);
    assert_eq!(cold.accounting.probed, uncached.accounting.probed);
    assert_eq!(cold.accounting.cache_misses, cold.accounting.probed);
    assert_eq!(cold.accounting.cache_hits, 0);

    let warm = run(Some(&cache));
    // Warm cache: identical explanations, but the search re-probes nothing —
    // beam search never generates a duplicate candidate within one run, so
    // every request is a hit and the black box is not consulted at all.
    assert_eq!(warm.explanations, uncached.explanations);
    assert_eq!(warm.accounting.cache_hits, cold.accounting.cache_misses);
    assert_eq!(warm.accounting.probed, 0);
    assert!(warm.accounting.probed < cold.accounting.probed);
    assert_eq!(warm.probe_requests(), cold.probe_requests());
}

#[test]
fn cached_exhaustive_search_is_byte_identical_and_warm_runs_probe_less() {
    let f = fixture();
    let subject = top_subject(&f);
    let task = ExpertRelevanceTask::new(&f.ranker, subject, f.cfg.k);
    let mut cfg = f.cfg.clone();
    cfg.max_explanation_size = 2;
    let candidates = all_skill_removals(&f.ds.graph);
    let run = |cache| session_search(&f, &task, (&candidates, &cfg), exhaustive_search, cache);

    let uncached = run(None);
    let cache = ProbeCache::new(0);
    let cold = run(Some(&cache));
    let warm = run(Some(&cache));
    assert_eq!(cold.explanations, uncached.explanations);
    assert_eq!(cold.accounting.probed, uncached.accounting.probed);
    assert_eq!(warm.explanations, uncached.explanations);
    assert_eq!(warm.accounting.probed, 0);
    assert!(warm.accounting.cache_hits > 0);
    assert_eq!(warm.probe_requests(), cold.probe_requests());
}

#[test]
fn cached_shap_explanations_are_identical_and_warm_runs_probe_less() {
    let f = fixture();
    let subject = top_subject(&f);
    let task = ExpertRelevanceTask::new(&f.ranker, subject, f.cfg.k);
    let embedding = SkillEmbedding::train(
        f.ds.corpus.token_bags(),
        f.ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let cfg = f.cfg.clone().with_output_mode(OutputMode::SmoothRank);
    let uncached_exes = Exes::new(cfg.clone(), embedding.clone(), CommonNeighbors);
    let cache = Arc::new(ProbeCache::for_config(&cfg));
    let cached_exes = Exes::new(cfg, embedding, CommonNeighbors).with_probe_cache(cache.clone());

    let uncached = uncached_exes.factual_skills(&task, &f.ds.graph, &f.query, true);
    let cold = cached_exes.factual_skills(&task, &f.ds.graph, &f.query, true);
    let warm = cached_exes.factual_skills(&task, &f.ds.graph, &f.query, true);

    // SHAP values are byte-identical across uncached, cold and warm runs.
    assert_eq!(uncached.shap_values().values(), cold.shap_values().values());
    assert_eq!(uncached.shap_values().values(), warm.shap_values().values());
    assert_eq!(cold.accounting().probed, uncached.accounting().probed);
    // The warm run answers its coalitions from the cache.
    assert!(warm.accounting().probed < cold.accounting().probed);
    assert!(warm.accounting().cache_hits > 0);
    assert!(cache.hits() > 0);

    // The counterfactual search for the same (graph, query, subject) shares
    // the very same cache through the facade.
    let before = cache.hits();
    let cf = cached_exes.counterfactual_skills(&task, &f.ds.graph, &f.query);
    let cf_uncached = uncached_exes.counterfactual_skills(&task, &f.ds.graph, &f.query);
    assert_eq!(cf.explanations, cf_uncached.explanations);
    assert!(cache.hits() >= before);
}

/// Asserts two responses carry the same explanation (counters aside).
fn assert_same_explanation(a: &Explanation, b: &Explanation, context: &str) {
    match (a, b) {
        (Explanation::Counterfactual(a), Explanation::Counterfactual(b)) => {
            assert_eq!(a.explanations, b.explanations, "{context}");
        }
        (Explanation::Factual(a), Explanation::Factual(b)) => {
            assert_eq!(
                a.shap_values().values(),
                b.shap_values().values(),
                "{context}"
            );
        }
        _ => panic!("{context}: response families differ"),
    }
}

/// The epoch differential: on a live store serving a churn stream, every
/// explanation answered on an *untouched* epoch is byte-identical warm vs
/// cold — the warm replay issues zero black-box probes — and every commit
/// moves the service to a cold epoch whose answers match a from-scratch
/// uncached run on the new epoch's graph.
#[test]
fn explanations_on_untouched_epochs_are_identical_warm_vs_cold() {
    let f = fixture();
    let embedding = SkillEmbedding::train(
        f.ds.corpus.token_bags(),
        f.ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let cfg = f.cfg.clone().with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(cfg.clone(), embedding, CommonNeighbors);
    let mut service = ExesService::from_graph(&exes, f.ds.graph.clone());
    let model = service
        .register("propagation", ModelSpec::expert_ranker(f.ranker, cfg.k))
        .expect("valid spec");
    let stream = UpdateStream::generate(&f.ds.graph, &UpdateStreamConfig::churn(3, 5, 0xE9));

    let query = Arc::new(f.query.clone());
    let subjects: Vec<PersonId> = f.ranker.rank_all(&f.ds.graph, &f.query).top_k(4);
    let requests: Vec<ExplanationRequest> = subjects
        .iter()
        .flat_map(|&s| {
            [
                ExplanationRequest::counterfactual_skills(model, s, query.clone()),
                ExplanationRequest::counterfactual_query(model, s, query.clone()),
                ExplanationRequest::factual_skills(model, s, query.clone()),
            ]
        })
        .collect();

    let mut solo = exes.clone();
    solo.config_mut().parallel_probes = false;
    for (i, batch) in stream.batches().iter().enumerate() {
        let snapshot = service.snapshot();
        let (cold, cold_report) = service.explain(&snapshot, &requests);
        assert_eq!(cold_report.epoch, i as u64);
        // Every epoch, the first and each one after a commit, runs cold.
        assert!(cold_report.probes > 0, "epoch {i} answered without probing");
        // Warm replay on the untouched epoch: byte-identical, zero probes.
        let (warm, warm_report) = service.explain(&snapshot, &requests);
        assert_eq!(warm_report.probes, 0, "epoch {i} replay probed the box");
        // And the cold answers match a from-scratch uncached explainer on
        // this epoch's graph.
        for ((request, c), w) in requests.iter().zip(&cold).zip(&warm) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_same_explanation(c, w, &format!("epoch {i} warm replay"));
            let task = ExpertRelevanceTask::new(&f.ranker, request.subject, cfg.k);
            let reference = solo.explain(request.kind, &task, snapshot.graph(), &request.query);
            assert_same_explanation(c, &reference, &format!("epoch {i}"));
        }
        service.commit(batch).expect("churn batch commits");
    }
}
