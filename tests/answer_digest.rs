//! Frozen digests of explanation answers: a change to the probe engine, a
//! ranker kernel or the search must leave every served answer byte-identical,
//! and these tests say so without a second build to diff against.
//!
//! The scenario is a 150-person `github_sim` graph (dataset seed 7), the
//! fast configuration at `k = 10` with `SmoothRank` attribution, sequential
//! probing and no probe cache. Every explanation kind is asked of four
//! models — TF-IDF, propagation and the GCN at `k`, and the unseeded greedy
//! team former over TF-IDF — for one subject near the model's cutoff. Each
//! answer is encoded as its wire JSON (`exes_server::wire::explanation_json`,
//! accounting included, so cache-less probe counts are pinned too) and
//! hashed with the vendored Fx hasher. A cold `ExesService` must then give
//! the same answers once the accounting, which a shared cache changes, is
//! removed — probing sequentially, and probing in parallel as a served
//! service does by default, with the same accounting either way.

use exes::prelude::*;
use exes::server::wire::{explanation_json, kind_tag};
use rustc_hash::FxHasher;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

const PEOPLE: usize = 150;
const K: usize = 10;
const MODELS: [&str; 4] = ["tfidf", "propagation", "gcn", "team"];
const KINDS: [ExplanationKind; 6] = [
    ExplanationKind::CounterfactualSkills,
    ExplanationKind::CounterfactualQuery,
    ExplanationKind::CounterfactualLinks,
    ExplanationKind::FactualSkills,
    ExplanationKind::FactualQueryTerms,
    ExplanationKind::FactualCollaborations,
];

/// The digest of every (model, kind), recorded before the engine changes it
/// is meant to survive.
const FROZEN: &[(&str, &str, u64)] = &[
    ("tfidf", "counterfactual_skills", 0x25bfec9f780c20ca),
    ("tfidf", "counterfactual_query", 0x6144334427df7aa8),
    ("tfidf", "counterfactual_links", 0x5584224ec0a44100),
    ("tfidf", "factual_skills", 0x8559ff2fb90a6bff),
    ("tfidf", "factual_query_terms", 0x38d0099cdc2f6bb4),
    ("tfidf", "factual_collaborations", 0xb841a4c2245b6eb1),
    ("propagation", "counterfactual_skills", 0xbb2e1b17feca147f),
    ("propagation", "counterfactual_query", 0xa6c36373d87a8539),
    ("propagation", "counterfactual_links", 0x015013a54fd55294),
    ("propagation", "factual_skills", 0x58d001c2111d9c52),
    ("propagation", "factual_query_terms", 0x1536043759718ff2),
    ("propagation", "factual_collaborations", 0x6096e726fccc62bb),
    ("gcn", "counterfactual_skills", 0x8b3d90129313b2af),
    ("gcn", "counterfactual_query", 0x685c549e1f77bb38),
    ("gcn", "counterfactual_links", 0x635f267f7beefd4e),
    ("gcn", "factual_skills", 0x488d09cd6c869e6c),
    ("gcn", "factual_query_terms", 0xf8f45b59f9174307),
    ("gcn", "factual_collaborations", 0x995f5412a385585c),
    ("team", "counterfactual_skills", 0x28269a90894aa7f6),
    ("team", "counterfactual_query", 0x87fdcbdc6b0f2085),
    ("team", "counterfactual_links", 0xed1affdc67bfeb52),
    ("team", "factual_skills", 0x8559ff2fb90a6bff),
    ("team", "factual_query_terms", 0x38d0099cdc2f6bb4),
    ("team", "factual_collaborations", 0xb841a4c2245b6eb1),
];

struct Scenario {
    graph: CollabGraph,
    exes: Exes,
    query: Arc<Query>,
    /// Per model, in [`MODELS`] order (the team model's from TF-IDF).
    subjects: [PersonId; 4],
}

fn scenario() -> Scenario {
    let base = DatasetConfig::github_sim();
    let factor = PEOPLE as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(7));
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let cfg = ExesConfig::fast()
        .with_k(K)
        .with_output_mode(OutputMode::SmoothRank)
        .with_parallel_probes(false);
    let exes = Exes::new(cfg, embedding, CommonNeighbors);
    let query = QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 11).queries()[0].clone();
    // Of the people ranked K - 1 to K + 2, the one with the smallest
    // two-hop reach: a boundary decision with a small feature space.
    let pick = |ranking: RankedList| {
        ranking.entries()[K - 2..K + 2]
            .iter()
            .map(|&(p, _)| p)
            .min_by_key(|&p| Neighborhood::compute(&ds.graph, p, 2).len())
            .expect("the graph has more than k + 2 people")
    };
    let tfidf = pick(TfIdfRanker::default().rank_all(&ds.graph, &query));
    let subjects = [
        tfidf,
        pick(PropagationRanker::default().rank_all(&ds.graph, &query)),
        pick(GcnRanker::default().rank_all(&ds.graph, &query)),
        tfidf,
    ];
    Scenario {
        graph: ds.graph,
        exes,
        query: Arc::new(query),
        subjects,
    }
}

/// The wire JSON of every answer, by model and kind (in [`MODELS`] and
/// [`KINDS`] order), answered through the facade.
struct Answers {
    scenario: Scenario,
    json: Vec<String>,
}

fn facade_answers() -> &'static Answers {
    static ANSWERS: OnceLock<Answers> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let s = scenario();
        let (tfidf, propagation, gcn) = (
            TfIdfRanker::default(),
            PropagationRanker::default(),
            GcnRanker::default(),
        );
        let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
        let mut json = Vec::new();
        for (model, subject) in MODELS.into_iter().zip(s.subjects) {
            let task: Box<dyn DecisionModel + '_> = match model {
                "tfidf" => Box::new(ExpertRelevanceTask::new(&tfidf, subject, K)),
                "propagation" => Box::new(ExpertRelevanceTask::new(&propagation, subject, K)),
                "gcn" => Box::new(ExpertRelevanceTask::new(&gcn, subject, K)),
                _ => Box::new(TeamMembershipTask::new(&former, &tfidf, subject, None)),
            };
            for kind in KINDS {
                let answer = s.exes.explain(kind, task.as_ref(), &s.graph, &s.query);
                json.push(explanation_json(&answer, &s.graph));
            }
        }
        Answers { scenario: s, json }
    })
}

/// Removes the `"accounting":{…}` object that ends an answer's JSON.
fn strip_accounting(json: &str) -> String {
    const KEY: &str = ",\"accounting\":{";
    let at = json.find(KEY).expect("every answer carries its accounting");
    let close = at + json[at..].find('}').expect("accounting objects are closed");
    format!("{}{}", &json[..at], &json[close + 1..])
}

#[test]
fn facade_answers_match_their_frozen_digests() {
    let pairs = MODELS
        .into_iter()
        .flat_map(|m| KINDS.map(|k| (m, kind_tag(k))));
    let digests: Vec<(&str, &str, u64)> = pairs
        .zip(&facade_answers().json)
        .map(|((model, kind), json)| {
            let mut h = FxHasher::default();
            h.write(json.as_bytes());
            (model, kind, h.finish())
        })
        .collect();
    let table: String = digests
        .iter()
        .map(|(model, kind, digest)| format!("    ({model:?}, {kind:?}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(
        digests, FROZEN,
        "answers moved; their digests now read:\n{table}"
    );
}

/// A cold service over the scenario's graph with the four models
/// registered, and the 24 requests of the facade answers, in order.
fn cold_service(exes: &Exes) -> (ExesService, Vec<ExplanationRequest>) {
    let s = &facade_answers().scenario;
    let mut service = ExesService::from_graph(exes, s.graph.clone());
    let specs = [
        ModelSpec::expert_ranker(TfIdfRanker::default(), K),
        ModelSpec::expert_ranker(PropagationRanker::default(), K),
        ModelSpec::expert_ranker(GcnRanker::default(), K),
        ModelSpec::team_former(
            GreedyCoverTeamFormer::new(TfIdfRanker::default()),
            TfIdfRanker::default(),
            SeedPolicy::Unseeded,
        ),
    ];
    let mut requests = Vec::new();
    for ((name, spec), subject) in MODELS.into_iter().zip(specs).zip(s.subjects) {
        let model = service.register(name, spec).expect("valid model spec");
        for kind in KINDS {
            requests.push(ExplanationRequest::new(
                model,
                subject,
                s.query.clone(),
                kind,
            ));
        }
    }
    (service, requests)
}

#[test]
fn a_cold_service_answers_like_the_facade() {
    let answers = facade_answers();
    let s = &answers.scenario;
    let (service, requests) = cold_service(&s.exes);
    let (results, report) = service.explain(&service.snapshot(), &requests);
    assert_eq!(report.failed_requests, 0);
    for ((request, result), expected) in requests.iter().zip(&results).zip(&answers.json) {
        let served = explanation_json(result.as_ref().expect("valid request"), &s.graph);
        assert_eq!(
            strip_accounting(&served),
            strip_accounting(expected),
            "{request:?}"
        );
    }
}

/// The served default probes in parallel. Asked one request per call, as a
/// lone client asks, a cold parallel service gives the facade's answers and
/// exactly the accounting of a cold sequential one: parallelism moves no
/// probe between the cache, the plan and the full path.
#[test]
fn a_parallel_cold_service_answers_like_the_sequential_one() {
    let answers = facade_answers();
    let s = &answers.scenario;
    let one_call_each = |parallel: bool| -> Vec<String> {
        let mut exes = s.exes.clone();
        exes.config_mut().parallel_probes = parallel;
        let (service, requests) = cold_service(&exes);
        assert_eq!(service.config().parallel_probes, parallel);
        requests
            .iter()
            .map(|request| {
                let (results, _) =
                    service.explain(&service.snapshot(), std::slice::from_ref(request));
                explanation_json(results[0].as_ref().expect("valid request"), &s.graph)
            })
            .collect()
    };
    let sequential = one_call_each(false);
    let parallel = one_call_each(true);
    let pairs = MODELS
        .into_iter()
        .flat_map(|m| KINDS.map(|k| (m, kind_tag(k))));
    for ((served, expected), (model, kind)) in parallel.iter().zip(&answers.json).zip(pairs) {
        assert_eq!(
            strip_accounting(served),
            strip_accounting(expected),
            "{model} {kind}"
        );
    }
    assert_eq!(parallel, sequential);
}
