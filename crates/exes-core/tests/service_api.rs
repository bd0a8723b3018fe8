//! Differential tests for the unified serving API: one `ExesService` hosting
//! several registered models (an expert ranker and a team former) must answer
//! a single mixed batch spanning every explanation family — counterfactual
//! skills / query-augmentation / links and factual skill- / query-term- /
//! collaboration-SHAP — byte-identically to direct `Exes::explain` calls,
//! and models registered side by side must never answer from each other's
//! cache entries.

use exes_core::service::{Explanation, ExplanationKind, ExplanationRequest};
use exes_core::{
    Exes, ExesConfig, ExesService, ExpertRelevanceTask, ModelSpec, OutputMode, SeedPolicy,
    ServiceReport, TeamMembershipTask,
};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker, TfIdfRanker};
use exes_graph::{PersonId, Query};
use exes_linkpred::CommonNeighbors;
use exes_team::GreedyCoverTeamFormer;
use std::sync::Arc;

const ALL_KINDS: [ExplanationKind; 6] = [
    ExplanationKind::CounterfactualSkills,
    ExplanationKind::CounterfactualQuery,
    ExplanationKind::CounterfactualLinks,
    ExplanationKind::FactualSkills,
    ExplanationKind::FactualQueryTerms,
    ExplanationKind::FactualCollaborations,
];

struct Fixture {
    ds: SyntheticDataset,
    exes: Exes,
    ranker: PropagationRanker,
    query: Arc<Query>,
    subject: PersonId,
    outsider: PersonId,
}

fn fixture() -> Fixture {
    let ds = SyntheticDataset::generate(&DatasetConfig::tiny("service-api", 29));
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let cfg = ExesConfig::fast()
        .with_k(3)
        .with_num_candidates(4)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(cfg, embedding, CommonNeighbors);
    let ranker = PropagationRanker::default();
    let workload = QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 17);
    let query = Arc::new(workload.queries()[0].clone());
    let ranking = ranker.rank_all(&ds.graph, &query);
    let subject = ranking.top_k(1)[0];
    let outsider = ranking.entries()[6].0;
    Fixture {
        ds,
        exes,
        ranker,
        query,
        subject,
        outsider,
    }
}

/// Answers a batch of valid requests against the service's current epoch.
fn explain_all(
    service: &ExesService,
    requests: &[ExplanationRequest],
) -> (Vec<Explanation>, ServiceReport) {
    let (results, report) = service.explain(&service.snapshot(), requests);
    let responses = results
        .into_iter()
        .map(|r| r.expect("valid request"))
        .collect();
    (responses, report)
}

/// Asserts two responses carry the same explanation (counters aside).
fn assert_same_explanation(got: &Explanation, reference: &Explanation) {
    match (got, reference) {
        (Explanation::Counterfactual(got), Explanation::Counterfactual(reference)) => {
            assert_eq!(got.explanations, reference.explanations);
            assert_eq!(got.timed_out, reference.timed_out);
        }
        (Explanation::Factual(got), Explanation::Factual(reference)) => {
            assert_eq!(got.features(), reference.features());
            assert_eq!(got.shap_values().values(), reference.shap_values().values());
        }
        _ => panic!("response families differ"),
    }
}

/// The acceptance scenario: one service value, two registered models (an
/// expert ranker and a team former), one mixed batch containing every
/// explanation family for both models — each response byte-identical to the
/// corresponding direct `Exes::explain` call.
#[test]
fn one_service_answers_all_families_across_expert_and_team_models() {
    let f = fixture();
    let k = f.exes.config().k;
    let seed = f.subject;
    let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
    let expert = service
        .register("propagation@k", ModelSpec::expert_ranker(f.ranker, k))
        .unwrap();
    let team = service
        .register(
            "greedy-cover",
            ModelSpec::team_former(
                GreedyCoverTeamFormer::new(f.ranker),
                f.ranker,
                SeedPolicy::Fixed(seed),
            ),
        )
        .unwrap();

    // One batch, twelve requests: all six kinds for each registered model.
    let mut batch = Vec::new();
    for kind in ALL_KINDS {
        batch.push(ExplanationRequest::new(
            expert,
            f.subject,
            f.query.clone(),
            kind,
        ));
    }
    for kind in ALL_KINDS {
        batch.push(ExplanationRequest::new(
            team,
            f.outsider,
            f.query.clone(),
            kind,
        ));
    }
    let (responses, report) = explain_all(&service, &batch);
    assert_eq!(responses.len(), batch.len());
    assert_eq!(report.requests, 12);
    assert_eq!(report.groups, 1, "one shared Arc query, one group");
    assert_eq!(report.duplicate_requests, 0);
    assert!(report.probes > 0);

    // Differential: every response is byte-identical to the direct
    // `Exes::explain` call with the matching concrete task.
    let mut solo = f.exes.clone();
    solo.config_mut().parallel_probes = false;
    let former = GreedyCoverTeamFormer::new(f.ranker);
    let expert_task = ExpertRelevanceTask::new(&f.ranker, f.subject, k);
    let team_task = TeamMembershipTask::new(&former, &f.ranker, f.outsider, Some(seed));

    let (g, q): (_, &Query) = (&f.ds.graph, &f.query);
    for (i, kind) in ALL_KINDS.into_iter().enumerate() {
        assert_same_explanation(&responses[i], &solo.explain(kind, &expert_task, g, q));
        assert_same_explanation(&responses[6 + i], &solo.explain(kind, &team_task, g, q));
    }

    // The whole mixed batch replays warm on the unchanged epoch.
    let (_, warm) = explain_all(&service, &batch);
    assert_eq!(warm.probes, 0);
    assert_eq!(warm.cache_misses, 0);
}

/// Per-model cache isolation: re-registering the same ranker at a different
/// `k` must force cold probes — exactly as many as a never-warmed service
/// issues — even though graph, query, subjects and perturbations all match.
#[test]
fn reconfigured_k_forces_cold_probes_on_a_shared_cache() {
    let f = fixture();
    let k = f.exes.config().k;
    let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
    let at_k = service
        .register("prop@k", ModelSpec::expert_ranker(f.ranker, k))
        .unwrap();
    let at_k1 = service
        .register("prop@k+1", ModelSpec::expert_ranker(f.ranker, k + 1))
        .unwrap();
    assert_ne!(
        service.registry().fingerprint(at_k),
        service.registry().fingerprint(at_k1)
    );

    let requests: Vec<ExplanationRequest> = ALL_KINDS
        .into_iter()
        .map(|kind| ExplanationRequest::new(at_k, f.subject, f.query.clone(), kind))
        .collect();
    let (_, cold) = explain_all(&service, &requests);
    assert!(cold.probes > 0);
    let (_, warm) = explain_all(&service, &requests);
    assert_eq!(warm.probes, 0, "same configuration replays warm");

    // Same requests, same service, same warm cache — but addressed to the
    // k+1 configuration: must probe exactly like a fresh service would.
    let readdressed: Vec<ExplanationRequest> = requests
        .iter()
        .map(|r| ExplanationRequest::new(at_k1, r.subject, r.query.clone(), r.kind))
        .collect();
    let (_, shifted) = explain_all(&service, &readdressed);
    assert!(shifted.probes > 0, "a changed k must go cold");

    let mut fresh = ExesService::from_graph(&f.exes, f.ds.graph.clone());
    let fresh_id = fresh
        .register("prop@k+1", ModelSpec::expert_ranker(f.ranker, k + 1))
        .unwrap();
    let fresh_requests: Vec<ExplanationRequest> = requests
        .iter()
        .map(|r| ExplanationRequest::new(fresh_id, r.subject, r.query.clone(), r.kind))
        .collect();
    let (_, fresh_report) = explain_all(&fresh, &fresh_requests);
    assert_eq!(
        shifted.probes, fresh_report.probes,
        "warm entries of the other k leaked into the readdressed batch"
    );
    assert_eq!(shifted.cache_misses, fresh_report.cache_misses);
}

/// Distinct rankers registered on one service stay isolated too, and
/// lookups by name agree with the issued ids.
#[test]
fn distinct_rankers_on_one_service_are_isolated_and_addressable() {
    let f = fixture();
    let k = f.exes.config().k;
    let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
    let prop = service
        .register("propagation", ModelSpec::expert_ranker(f.ranker, k))
        .unwrap();
    let tfidf = service
        .register("tfidf", ModelSpec::expert_ranker(TfIdfRanker::default(), k))
        .unwrap();
    assert_eq!(service.model_id("propagation"), Some(prop));
    assert_eq!(service.model_id("tfidf"), Some(tfidf));
    assert_ne!(prop, tfidf);
    assert_ne!(
        service.registry().fingerprint(prop),
        service.registry().fingerprint(tfidf)
    );

    let request =
        |model| ExplanationRequest::counterfactual_skills(model, f.subject, f.query.clone());
    let (_, prop_cold) = explain_all(&service, &[request(prop)]);
    assert!(prop_cold.probes > 0);
    // TF-IDF ranks differently, but even the shared perturbation sets must
    // miss: probes equal a fresh single-model service's count.
    let (tfidf_responses, tfidf_cold) = explain_all(&service, &[request(tfidf)]);
    let mut fresh = ExesService::from_graph(&f.exes, f.ds.graph.clone());
    let fresh_id = fresh
        .register("tfidf", ModelSpec::expert_ranker(TfIdfRanker::default(), k))
        .unwrap();
    let (fresh_responses, fresh_report) = explain_all(&fresh, &[request(fresh_id)]);
    assert_eq!(tfidf_cold.probes, fresh_report.probes);
    assert_eq!(
        tfidf_responses[0].expect_counterfactual().explanations,
        fresh_responses[0].expect_counterfactual().explanations
    );
}

/// Every black-box probe of a request — its reference probe included — is
/// answered either from the plan or by a full re-rank, so each result's
/// accounting and the batch report split their probes exactly into the two
/// rescoring buckets.
#[test]
fn every_black_box_probe_lands_in_exactly_one_rescoring_bucket() {
    let ds = SyntheticDataset::generate(&DatasetConfig::tiny("inv", 7));
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let cfg = ExesConfig::fast()
        .with_k(4)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(cfg, embedding, CommonNeighbors);
    let mut service = ExesService::from_graph(&exes, ds.graph.clone());
    let ranker = PropagationRanker::default();
    let propagation = service
        .register("propagation@4", ModelSpec::expert_ranker(ranker, 4))
        .unwrap();
    let team = service
        .register(
            "greedy",
            ModelSpec::team_former(
                GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                TfIdfRanker::default(),
                SeedPolicy::Unseeded,
            ),
        )
        .unwrap();
    let query = Arc::new(QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 11).queries()[0].clone());
    let subject = ranker.rank_all(&ds.graph, &query).top_k(1)[0];
    let requests: Vec<ExplanationRequest> = [propagation, team]
        .into_iter()
        .flat_map(|model| {
            let query = query.clone();
            ALL_KINDS
                .into_iter()
                .map(move |kind| ExplanationRequest::new(model, subject, query.clone(), kind))
        })
        .collect();

    let (responses, report) = explain_all(&service, &requests);
    for (request, response) in requests.iter().zip(&responses) {
        let accounting = response.accounting();
        assert_eq!(
            accounting.probed,
            accounting.incremental_rescores + accounting.full_rescores,
            "{:?} of model {:?}: {accounting:?}",
            request.kind,
            request.model
        );
    }
    assert!(report.probes > 0);
    assert_eq!(
        report.probes as u64,
        report.incremental_rescores + report.full_fallback_rescores,
        "{report:?}"
    );
}
