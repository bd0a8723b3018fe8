//! Loopback integration tests: a real server on an ephemeral port, driven by
//! real sockets.
//!
//! The acceptance bar for the serving layer:
//!
//! * all six request kinds, sent over the wire, come back **byte-equivalent**
//!   to serialising direct in-process `ExesService::explain`
//!   results with the same wire codec;
//! * a `/commit` followed by `/explain` answers on the new epoch;
//! * the admission queue is bounded: overload sheds with 503 + `Retry-After`
//!   instead of buffering without limit, and the server keeps serving;
//! * malformed wire input (truncated HTTP, garbage JSON, wrong types) never
//!   kills a worker;
//! * semantic problems (unknown model / skill / subject) fail per request,
//!   not per batch;
//! * shutdown drains in-flight work and joins every thread.

use exes_core::{
    Exes, ExesConfig, ExesService, ExplanationKind, ExplanationRequest, ModelSpec, OutputMode,
    SeedPolicy,
};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_durability::{CacheLoad, DurabilityConfig, DurableStore};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker, TfIdfRanker};
use exes_graph::store::GraphStore;
use exes_graph::{GraphView, Query, UpdateBatch};
use exes_linkpred::CommonNeighbors;
use exes_server::client::HttpClient;
use exes_server::json::{self, Json};
use exes_server::{wire, ServerConfig, ServerHandle};
use exes_team::GreedyCoverTeamFormer;
use std::sync::Arc;
use std::time::Duration;

const ALL_KINDS: [&str; 6] = [
    "counterfactual_skills",
    "counterfactual_query",
    "counterfactual_links",
    "factual_skills",
    "factual_query_terms",
    "factual_collaborations",
];

struct Fixture {
    ds: SyntheticDataset,
    exes: Exes,
    query_text: String,
    subjects: Vec<u32>,
}

fn fixture() -> Fixture {
    let ds = SyntheticDataset::generate(&DatasetConfig::tiny("loopback", 23));
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
    let workload = QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 17);
    let query = workload.queries()[0].clone();
    let query_text = query.display(ds.graph.vocab());
    let ranker = PropagationRanker::default();
    let ranking = ranker.rank_all(&ds.graph, &query);
    let subjects = ranking
        .entries()
        .iter()
        .take(2)
        .map(|&(p, _)| p.0)
        .collect();
    Fixture {
        ds,
        exes,
        query_text,
        subjects,
    }
}

/// Builds the service every test serves (and the in-process twin the
/// byte-equivalence test compares against).
fn service(f: &Fixture) -> ExesService {
    service_over(f, Arc::new(GraphStore::new(f.ds.graph.clone())))
}

/// The same models, registered in the same order (so model ids and
/// fingerprints agree across boots), over an arbitrary live store.
fn service_over(f: &Fixture, store: Arc<GraphStore>) -> ExesService {
    let mut service = ExesService::new(&f.exes, store);
    service
        .register(
            "propagation",
            ModelSpec::expert_ranker(PropagationRanker::default(), f.exes.config().k),
        )
        .unwrap();
    service
        .register(
            "team",
            ModelSpec::team_former(
                GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                TfIdfRanker::default(),
                SeedPolicy::Unseeded,
            ),
        )
        .unwrap();
    service
}

fn start(f: &Fixture, config: ServerConfig) -> ServerHandle {
    exes_server::start(service(f), config).expect("bind loopback")
}

/// The wire body asking for all six kinds for each subject.
fn six_kind_body(f: &Fixture) -> String {
    let mut requests = Vec::new();
    for (i, &subject) in f.subjects.iter().enumerate() {
        for (j, kind) in ALL_KINDS.iter().enumerate() {
            let model = if (i + j) % 3 == 2 {
                "team"
            } else {
                "propagation"
            };
            let terms: Vec<String> = f
                .query_text
                .split_whitespace()
                .map(|t| format!("\"{t}\""))
                .collect();
            requests.push(format!(
                "{{\"model\":\"{model}\",\"subject\":{subject},\"query\":[{}],\"kind\":\"{kind}\"}}",
                terms.join(",")
            ));
        }
    }
    format!("{{\"requests\":[{}]}}", requests.join(","))
}

/// Extracts the `"results":[…]` array substring from an explain response
/// body (fields are emitted in a fixed order, so this is exact).
fn results_slice(body: &str) -> &str {
    let start = body.find("\"results\":").expect("results field") + "\"results\":".len();
    let end = body.rfind(",\"report\":").expect("report field");
    &body[start..end]
}

/// Removes every result's `"accounting":{…}` object from a serialised
/// results array, leaving the explanations themselves.
///
/// Explanations are deterministic, but the per-request probe counters depend
/// on which other requests shared the cache and on how parallel workers raced
/// to fill it, so byte-equivalence is asserted on everything else.
fn strip_accounting(text: &str) -> String {
    const KEY: &str = ",\"accounting\":{";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        let close = rest[at..].find('}').expect("accounting objects are closed");
        rest = &rest[at + close + 1..];
    }
    out.push_str(rest);
    out
}

#[test]
fn all_six_kinds_roundtrip_byte_equivalent_to_in_process_results() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let body = six_kind_body(&f);
    let response = client.post("/explain", &body).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);

    // The in-process twin: same registered models, same requests, answered
    // directly — then serialised with the same wire codec.
    let twin = service(&f);
    let query = Arc::new(Query::parse(&f.query_text, f.ds.graph.vocab()).unwrap());
    let mut requests = Vec::new();
    for (i, &subject) in f.subjects.iter().enumerate() {
        for (j, kind) in ALL_KINDS.iter().enumerate() {
            let model = if (i + j) % 3 == 2 {
                "team"
            } else {
                "propagation"
            };
            requests.push(ExplanationRequest::new(
                twin.model_id(model).unwrap(),
                exes_graph::PersonId(subject),
                query.clone(),
                match *kind {
                    "counterfactual_skills" => ExplanationKind::CounterfactualSkills,
                    "counterfactual_query" => ExplanationKind::CounterfactualQuery,
                    "counterfactual_links" => ExplanationKind::CounterfactualLinks,
                    "factual_skills" => ExplanationKind::FactualSkills,
                    "factual_query_terms" => ExplanationKind::FactualQueryTerms,
                    _ => ExplanationKind::FactualCollaborations,
                },
            ));
        }
    }
    let (results, report) = twin.explain(&twin.snapshot(), &requests);
    assert_eq!(report.failed_requests, 0);
    let expected = wire::results_json(&results, &f.ds.graph);
    assert_eq!(
        strip_accounting(results_slice(&response.body)),
        strip_accounting(&expected),
        "wire results must be byte-equivalent to in-process results"
    );

    // The response body itself parses, reports the epoch, and its report
    // roundtrips as a ServiceReport.
    let parsed = json::parse(&response.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(0));
    let wire_report = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert_eq!(wire_report.requests, requests.len());
    assert_eq!(wire_report.failed_requests, 0);

    handle.shutdown();
}

#[test]
fn duplicate_heavy_wire_traffic_is_deduplicated_server_side() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // The same request 8 times in one wire batch: one computation, 7 clones.
    let one = format!(
        "{{\"model\":\"propagation\",\"subject\":{},\"query\":[{}],\"kind\":\"counterfactual_skills\"}}",
        f.subjects[0],
        f.query_text
            .split_whitespace()
            .map(|t| format!("\"{t}\""))
            .collect::<Vec<_>>()
            .join(",")
    );
    let body = format!(
        "{{\"requests\":[{}]}}",
        std::iter::repeat_n(one, 8).collect::<Vec<_>>().join(",")
    );
    let response = client.post("/explain", &body).unwrap();
    assert_eq!(response.status, 200);
    let parsed = json::parse(&response.body).unwrap();
    let report = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert_eq!(report.requests, 8);
    assert_eq!(report.duplicate_requests, 7);
    let results = parsed.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 8);
    // Position-stable: every slot carries the identical answer.
    let first = &results[0];
    for r in results {
        assert_eq!(r, first);
    }
    handle.shutdown();
}

#[test]
fn commit_then_explain_serves_the_new_epoch() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let parsed = json::parse(&health.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(0));
    assert_eq!(parsed.get("models").unwrap().as_u64(), Some(2));
    // The worker advertises its full identity: a router uses the chained
    // fingerprint to tell replicas apart.
    let identity = wire::healthz_from_json(&parsed).expect("ready workers advertise identity");
    assert!(identity.ready);
    assert_eq!(identity.fingerprint, f.ds.graph.fingerprint());

    // Cold pass on epoch 0.
    let body = six_kind_body(&f);
    let before = client.post("/explain", &body).unwrap();
    assert_eq!(before.status, 200);

    // Commit: the first subject loses one skill, a new person joins.
    let subject = exes_graph::PersonId(f.subjects[0]);
    let lost = f.ds.graph.person_skills(subject)[0];
    let lost_name = f.ds.graph.vocab().name(lost).unwrap();
    let commit_body = format!(
        "{{\"ops\":[{{\"op\":\"remove_skill\",\"person\":{},\"skill\":\"{lost_name}\"}},\
         {{\"op\":\"add_person\",\"name\":\"newcomer\",\"skills\":[\"{lost_name}\"]}}]}}",
        subject.0
    );
    let committed = client.post("/commit", &commit_body).unwrap();
    assert_eq!(committed.status, 200, "body: {}", committed.body);
    let parsed = json::parse(&committed.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));
    assert_eq!(
        parsed.get("people").unwrap().as_u64(),
        Some(f.ds.graph.num_people() as u64 + 1)
    );

    // The next explain answers on epoch 1 — byte-equivalent to an in-process
    // twin that committed the same batch.
    let after = client.post("/explain", &body).unwrap();
    assert_eq!(after.status, 200);
    let parsed = json::parse(&after.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));
    // The new epoch runs cold; an identical repeat on it is all cache hits.
    let cold = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert!(cold.probes > 0, "a commit must start the new epoch cold");
    let repeat = client.post("/explain", &body).unwrap();
    assert_eq!(repeat.status, 200);
    let parsed = json::parse(&repeat.body).unwrap();
    let warm = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert_eq!(warm.probes, 0, "a repeat on the same epoch must not probe");

    let twin = service(&f);
    let mut batch = UpdateBatch::new();
    batch.remove_skill(subject, lost_name);
    batch.add_person("newcomer", [lost_name]);
    let snapshot = twin.commit(&batch).unwrap();
    let query = Arc::new(Query::parse(&f.query_text, f.ds.graph.vocab()).unwrap());
    let mut requests = Vec::new();
    for (i, &s) in f.subjects.iter().enumerate() {
        for (j, kind) in ALL_KINDS.iter().enumerate() {
            let model = if (i + j) % 3 == 2 {
                "team"
            } else {
                "propagation"
            };
            requests.push(ExplanationRequest::new(
                twin.model_id(model).unwrap(),
                exes_graph::PersonId(s),
                query.clone(),
                wire_kind(kind),
            ));
        }
    }
    let (results, _) = twin.explain(&snapshot, &requests);
    let expected = wire::results_json(&results, snapshot.graph());
    assert_eq!(
        strip_accounting(results_slice(&after.body)),
        strip_accounting(&expected)
    );
    // And the new epoch's answers differ from epoch 0's (the perturbation
    // touched the explained subject).
    assert_ne!(
        strip_accounting(results_slice(&before.body)),
        strip_accounting(&expected)
    );

    // Committing garbage is rejected with 409 and changes nothing.
    let bad = client
        .post(
            "/commit",
            "{\"ops\":[{\"op\":\"remove_skill\",\"person\":0,\"skill\":\"no-such-skill\"}]}",
        )
        .unwrap();
    assert_eq!(bad.status, 409);
    assert!(bad.body.contains("commit_rejected"));
    let health = client.get("/healthz").unwrap();
    let after_identity = wire::healthz_from_json(&json::parse(&health.body).unwrap()).unwrap();
    assert_eq!(after_identity.epoch, 1);
    assert_ne!(
        after_identity.fingerprint, identity.fingerprint,
        "a committed epoch moves the chained fingerprint"
    );
    handle.shutdown();
}

fn wire_kind(tag: &str) -> ExplanationKind {
    wire::parse_kind(tag).expect("test kinds are valid")
}

#[test]
fn semantic_problems_fail_per_request_not_per_batch() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let terms: Vec<String> = f
        .query_text
        .split_whitespace()
        .map(|t| format!("\"{t}\""))
        .collect();
    let terms = terms.join(",");
    let good = format!(
        "{{\"model\":\"propagation\",\"subject\":{},\"query\":[{terms}],\"kind\":\"counterfactual_skills\"}}",
        f.subjects[0]
    );
    let body = format!(
        "{{\"requests\":[\
         {{\"model\":\"ghost\",\"subject\":0,\"query\":[{terms}],\"kind\":\"counterfactual_skills\"}},\
         {good},\
         {{\"model\":\"propagation\",\"subject\":999999,\"query\":[{terms}],\"kind\":\"counterfactual_skills\"}},\
         {{\"model\":\"propagation\",\"subject\":0,\"query\":[\"not-a-skill\"],\"kind\":\"counterfactual_skills\"}},\
         {{\"model\":\"propagation\",\"subject\":0,\"query\":[{terms}],\"kind\":\"astrology\"}}\
         ]}}"
    );
    let response = client.post("/explain", &body).unwrap();
    assert_eq!(
        response.status, 200,
        "semantic errors are per-entry, not 4xx"
    );
    let parsed = json::parse(&response.body).unwrap();
    let results = parsed.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 5);
    let code = |r: &Json| {
        r.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(code(&results[0]).as_deref(), Some("unknown_model"));
    assert!(
        results[1].get("counterfactual").is_some(),
        "the valid slot answers"
    );
    assert_eq!(code(&results[2]).as_deref(), Some("bad_subject"));
    assert_eq!(code(&results[3]).as_deref(), Some("unknown_skill"));
    assert_eq!(code(&results[4]).as_deref(), Some("unknown_kind"));

    // An all-invalid batch still answers 200 with per-entry errors.
    let all_bad =
        "{\"requests\":[{\"model\":\"ghost\",\"subject\":0,\"query\":[\"x\"],\"kind\":\"counterfactual_skills\"}]}";
    let response = client.post("/explain", all_bad).unwrap();
    assert_eq!(response.status, 200);
    let parsed = json::parse(&response.body).unwrap();
    assert_eq!(
        code(&parsed.get("results").unwrap().as_array().unwrap()[0]).as_deref(),
        Some("unknown_model")
    );
    handle.shutdown();
}

#[test]
fn malformed_wire_input_never_kills_a_worker() {
    let f = fixture();
    let handle = start(
        &f,
        ServerConfig {
            max_body_bytes: 4096,
            // Short stall budget so the truncated-body case (a client that
            // promises 50 bytes and sends 9) resolves quickly instead of
            // holding its worker for the default 10s.
            read_timeout: Duration::from_millis(250),
            ..Default::default()
        },
    );

    // Fuzz-ish: garbage HTTP framing and garbage JSON bodies, each on a
    // fresh connection (most 4xx responses close the connection).
    let raw_cases: &[&[u8]] = &[
        b"NOT HTTP AT ALL\r\n\r\n",
        b"GET\r\n\r\n",
        b"POST /explain HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST /explain HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        b"POST /explain HTTP/1.1\r\nContent-Length: 50\r\n\r\ntoo short",
        b"POST /explain HTTP/1.1\r\nContent-Leng",
        b"\xff\xfe\x00\x01\r\n\r\n",
    ];
    for raw in raw_cases {
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        // A dropped connection (an Err here, e.g. a mid-frame EOF race) is
        // acceptable; a hung or crashed server is not — later requests must
        // keep working.
        if let Ok(response) = client.send_raw(raw) {
            assert!(
                (400..=413).contains(&response.status),
                "expected 4xx for {:?}, got {}",
                String::from_utf8_lossy(raw),
                response.status
            );
            assert!(response.body.contains("\"error\""));
        }
    }

    let body_cases: &[&str] = &[
        "",
        "{",
        "[1,2",
        "not json",
        "{\"requests\": 5}",
        "{\"requests\": [5]}",
        "{\"requests\": [{\"model\": 3}]}",
        "{\"wrong\": []}",
        "\u{0}\u{1}\u{2}",
        "{\"requests\":[{\"model\":\"propagation\",\"subject\":0,\"query\":\"db\",\"kind\":\"counterfactual_skills\"}]}",
    ];
    for body in body_cases {
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let response = client.post("/explain", body).unwrap();
        assert!(
            response.status == 400 || response.status == 200,
            "body {body:?} -> {}",
            response.status
        );
        if response.status == 400 {
            let parsed = json::parse(&response.body).expect("errors are structured JSON");
            assert!(parsed.get("error").is_some());
        }
        // /commit too.
        let commit = client.post("/commit", body).unwrap();
        assert_eq!(commit.status, 400, "commit body {body:?}");
    }

    // Oversized bodies are refused, not buffered.
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(8192));
    let response = client.post("/explain", &huge).unwrap();
    assert_eq!(response.status, 413);

    // Unknown routes and wrong methods answer structurally.
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.post("/healthz", "{}").unwrap().status, 405);
    assert_eq!(client.get("/explain").unwrap().status, 405);

    // After all that abuse, a well-formed request still answers.
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let good = client.post("/explain", &six_kind_body(&f)).unwrap();
    assert_eq!(good.status, 200);
    let metrics = client.get("/metrics").unwrap();
    let parsed = json::parse(&metrics.body).unwrap();
    assert!(
        parsed
            .get("http")
            .unwrap()
            .get("parse_errors")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 5
    );
    handle.shutdown();
}

#[test]
fn overload_sheds_with_503_and_the_queue_stays_bounded() {
    let f = fixture();
    // A deliberately tiny, slow server: one request per micro-batch, and
    // one request of admission queue in each lane, two in all.
    let handle = start(
        &f,
        ServerConfig {
            workers: 8,
            queue_depth: 1,
            max_batch: 1,
            slow_queue_depth: 1,
            slow_max_batch: 1,
            ..Default::default()
        },
    );
    let body = Arc::new(six_kind_body(&f));
    let addr = handle.addr();

    let outcomes: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..24)
            .map(|_| {
                let body = Arc::clone(&body);
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    client.post("/explain", &body).unwrap().status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|&&s| s == 200).count();
    let shed = outcomes.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + shed, 24, "every request got a definite answer");
    assert!(ok >= 1, "some requests are served under overload");
    assert!(
        shed >= 1,
        "a 2-request queue cannot absorb 24 concurrent batches without shedding"
    );

    // Shed responses carry Retry-After; the queue gauge never exceeded its
    // bound; and the server still serves after the storm.
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.post("/explain", &body).unwrap();
    assert!(response.status == 200 || response.status == 503);
    if response.status == 503 {
        assert_eq!(response.header("retry-after"), Some("1"));
    }
    let metrics = client.get("/metrics").unwrap();
    let parsed = json::parse(&metrics.body).unwrap();
    let queue = parsed.get("queue").unwrap();
    assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(2));
    assert!(queue.get("depth").unwrap().as_u64().unwrap() <= 2);
    assert!(
        parsed
            .get("explain")
            .unwrap()
            .get("shed_requests")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    handle.shutdown();
}

#[test]
fn overload_shed_response_carries_retry_after() {
    let f = fixture();
    let handle = start(
        &f,
        ServerConfig {
            workers: 4,
            queue_depth: 1,
            max_batch: 1,
            slow_queue_depth: 1,
            slow_max_batch: 1,
            ..Default::default()
        },
    );
    let body = Arc::new(six_kind_body(&f));
    let addr = handle.addr();
    // Hammer until we observe one 503, then check its shape.
    let shed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let body = Arc::clone(&body);
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let response = client.post("/explain", &body).unwrap();
                    (response.status == 503).then_some(response)
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().unwrap()).next()
    });
    if let Some(response) = shed {
        assert_eq!(response.header("retry-after"), Some("1"));
        let parsed = json::parse(&response.body).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("code").unwrap().as_str(),
            Some("overloaded")
        );
    }
    handle.shutdown();
}

#[test]
fn dual_lanes_route_cold_then_warm_and_report_per_lane_metrics() {
    let f = fixture();
    // A cold batch rides the slow lane, a cache-warm repeat rides the fast
    // lane.
    let handle = start(&f, ServerConfig::default());
    let addr = handle.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let body = six_kind_body(&f);
    assert_eq!(client.post("/explain", &body).unwrap().status, 200);
    // The same batch again: every identity probe it needs is memoised now,
    // so the pre-admission estimate reads warm and it skips the slow lane.
    assert_eq!(client.post("/explain", &body).unwrap().status, 200);

    let metrics = client.get("/metrics").unwrap();
    let parsed = json::parse(&metrics.body).unwrap();
    let lanes = parsed.get("lanes").unwrap();
    let fast = lanes.get("fast").unwrap();
    let slow = lanes.get("slow").unwrap();
    let fast_admitted = fast.get("admitted").unwrap().as_u64().unwrap();
    let slow_admitted = slow.get("admitted").unwrap().as_u64().unwrap();
    assert!(
        slow_admitted >= 1,
        "the cold first batch rides the slow lane"
    );
    assert!(
        fast_admitted >= 1,
        "the cache-warm repeat rides the fast lane"
    );
    let requests = parsed
        .get("explain")
        .unwrap()
        .get("requests")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        fast_admitted + slow_admitted,
        requests,
        "every admitted request is attributed to exactly one lane"
    );
    // Each lane records its own enqueue-to-answer latency distribution.
    assert!(slow.get("p95_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(fast.get("p50_ms").unwrap().as_f64().unwrap() > 0.0);
    // The aggregate queue gauge sums both lanes' capacity.
    let capacity = parsed
        .get("queue")
        .unwrap()
        .get("capacity")
        .unwrap()
        .as_u64()
        .unwrap();
    let config = ServerConfig::default();
    assert_eq!(
        capacity,
        (config.queue_depth + config.slow_queue_depth) as u64
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let addr = handle.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.post("/explain", &six_kind_body(&f)).unwrap();
    assert_eq!(response.status, 200);

    // An idle keep-alive connection is open while we shut down; shutdown
    // must not hang on it.
    let idle = HttpClient::connect(addr).unwrap();
    handle.shutdown();
    drop(idle);

    // The listener is gone: new connections fail (or are refused instantly).
    assert!(
        HttpClient::connect(addr).is_err() || {
            let mut c = HttpClient::connect(addr).unwrap();
            c.get("/healthz").is_err()
        }
    );
}

#[test]
fn metrics_observe_served_traffic() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let body = six_kind_body(&f);
    let first = client.post("/explain", &body).unwrap();
    assert_eq!(first.status, 200);
    // A second identical wire batch replays from the persistent cache.
    let second = client.post("/explain", &body).unwrap();
    let parsed = json::parse(&second.body).unwrap();
    let report = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert_eq!(report.probes, 0, "warm epoch must replay without probes");
    assert!(report.cache_hits > 0);

    let metrics = client.get("/metrics").unwrap();
    let parsed = json::parse(&metrics.body).unwrap();
    let explain = parsed.get("explain").unwrap();
    assert_eq!(explain.get("batches").unwrap().as_u64(), Some(2));
    assert_eq!(
        explain.get("requests").unwrap().as_u64(),
        Some(2 * ALL_KINDS.len() as u64 * f.subjects.len() as u64)
    );
    assert!(explain.get("probes").unwrap().as_u64().unwrap() > 0);
    assert!(explain.get("cache_hits").unwrap().as_u64().unwrap() > 0);
    let last = wire::report_from_json(parsed.get("last_report").unwrap()).unwrap();
    assert_eq!(last.probes, 0);
    handle.shutdown();
}

#[test]
fn client_pool_reuses_connections_across_concurrent_callers() {
    let f = fixture();
    let handle = start(&f, ServerConfig::default());
    let pool = exes_server::client::ClientPool::with_limits(
        handle.addr(),
        Some(Duration::from_secs(2)),
        Some(Duration::from_secs(30)),
        4,
    );
    let body = six_kind_body(&f);

    // 4 threads × 3 requests ride pooled keep-alive connections.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (pool, body) = (&pool, &body);
            scope.spawn(move || {
                for _ in 0..3 {
                    let response = pool.post("/explain", body).expect("pooled post");
                    assert_eq!(response.status, 200);
                }
            });
        }
    });
    let idle = pool.idle_connections();
    assert!(
        (1..=4).contains(&idle),
        "the pool retains at most max_idle connections, got {idle}"
    );

    // The server accepted far fewer connections than it served requests:
    // 13 HTTP requests (12 explains + this /metrics) over at most 5 sockets.
    let metrics = pool.get("/metrics").expect("pooled metrics");
    let parsed = json::parse(&metrics.body).unwrap();
    let http = parsed.get("http").unwrap();
    let connections = http.get("connections").unwrap().as_u64().unwrap();
    let requests = http.get("requests").unwrap().as_u64().unwrap();
    assert!(requests >= 13, "requests: {requests}");
    assert!(
        connections <= 5,
        "pooled clients must reuse sockets (connections: {connections})"
    );
    handle.shutdown();
}

#[test]
fn warm_restart_recovers_state_and_answers_repeat_batch_with_zero_probes() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!("exes-loopback-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig::default();

    // ---- First boot: seeded fresh from the dataset graph. ----
    let durable =
        Arc::new(DurableStore::open(&dir, durability, || f.ds.graph.clone()).expect("first boot"));
    let handle = exes_server::start_durable(
        service_over(&f, Arc::clone(durable.store())),
        ServerConfig::default(),
        Arc::clone(&durable),
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Until recovery is finished, the listener is up but not ready.
    let recovering = client.get("/healthz").unwrap();
    assert_eq!(recovering.status, 503);
    assert_eq!(
        recovering.body,
        "{\"status\":\"recovering\",\"ready\":false}"
    );
    assert_eq!(
        wire::healthz_from_json(&json::parse(&recovering.body).unwrap()),
        None,
        "a recovering worker advertises no identity a router could trust"
    );
    assert!(!handle.is_ready());
    assert_eq!(handle.finish_recovery().unwrap(), CacheLoad::Missing);
    assert!(handle.is_ready());
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    // A durable commit, then an explain batch that warms the probe cache.
    let subject = exes_graph::PersonId(f.subjects[0]);
    let lost = f.ds.graph.person_skills(subject)[0];
    let lost_name = f.ds.graph.vocab().name(lost).unwrap();
    let commit_body = format!(
        "{{\"ops\":[{{\"op\":\"add_person\",\"name\":\"newcomer\",\"skills\":[\"{lost_name}\"]}}]}}"
    );
    let committed = client.post("/commit", &commit_body).unwrap();
    assert_eq!(committed.status, 200, "body: {}", committed.body);
    // A bad commit is rejected — and, being rejected, rolled off the WAL.
    let bad = client
        .post(
            "/commit",
            "{\"ops\":[{\"op\":\"remove_skill\",\"person\":0,\"skill\":\"no-such-skill\"}]}",
        )
        .unwrap();
    assert_eq!(bad.status, 409);
    let body = six_kind_body(&f);
    let first = client.post("/explain", &body).unwrap();
    assert_eq!(first.status, 200);
    let parsed = json::parse(&first.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));
    let cold = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert!(cold.probes > 0, "the first pass pays real probes");

    // The durability metrics group is live on a durable server.
    let metrics = client.get("/metrics").unwrap();
    let parsed = json::parse(&metrics.body).unwrap();
    let group = parsed.get("durability").unwrap();
    assert_eq!(group.get("wal_appends").unwrap().as_u64(), Some(1));
    assert!(group.get("wal_bytes").unwrap().as_u64().unwrap() > 0);
    assert_eq!(group.get("recovered_epoch").unwrap().as_u64(), Some(0));

    // Graceful drain: flushes the final snapshot and exports the warm cache.
    drop(client);
    handle.shutdown();
    drop(durable);

    // ---- Second boot on the same data directory. ----
    let durable = Arc::new(
        DurableStore::open(&dir, durability, || {
            panic!("a warm restart recovers from disk; the seed must not run")
        })
        .expect("second boot"),
    );
    let report = durable.recovery();
    assert!(report.had_snapshot);
    assert_eq!(report.recovered_epoch, 1);
    assert_eq!(
        report.replayed_records, 0,
        "the drain-time snapshot covered the WAL"
    );
    let handle = exes_server::start_durable(
        service_over(&f, Arc::clone(durable.store())),
        ServerConfig::default(),
        Arc::clone(&durable),
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 503);
    match handle.finish_recovery().unwrap() {
        CacheLoad::Loaded(n) => assert!(n > 0, "the exported cache reloads"),
        other => panic!("expected a warm cache import, got {other:?}"),
    }
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let parsed = json::parse(&health.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));

    // The acceptance bar: the restarted server answers the repeat batch
    // entirely from the imported cache — zero black-box probes.
    let repeat = client.post("/explain", &body).unwrap();
    assert_eq!(repeat.status, 200);
    let parsed = json::parse(&repeat.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));
    let warm = wire::report_from_json(parsed.get("report").unwrap()).unwrap();
    assert_eq!(warm.probes, 0, "warm restart must not probe: {warm:?}");
    assert!(warm.cache_hits > 0);
    // And the explanations agree with the first boot's answers; only the
    // accounting differs (the warm pass answers from the imported cache).
    assert_eq!(
        strip_accounting(results_slice(&repeat.body)),
        strip_accounting(results_slice(&first.body)),
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
