//! Router loopback tests: a real worker fleet on ephemeral ports behind a
//! real router, driven over real sockets.
//!
//! The acceptance bar for the routing tier:
//!
//! * a routed `/explain` spanning every shard answers **byte-equivalent**
//!   explanations (per-result accounting aside) to one unrouted worker
//!   answering the same batch, at the same epoch;
//! * a `/commit` through the router replicates to *every* worker as one
//!   ordered epoch stream — equal epochs, equal chained fingerprints — and
//!   an immediate explain carrying `X-Exes-Min-Epoch` reads the writer's
//!   own commit on every shard;
//! * a future epoch is refused (`503 epoch_unavailable`), a malformed gate
//!   header is a 400;
//! * a dead worker is routed around, and on return is healed from the
//!   replication log (epoch + fingerprint re-converge) without restarting
//!   the fleet;
//! * structural errors and per-request semantic errors come back exactly as
//!   a worker would have answered them, router or no router.

use exes_core::{Exes, ExesConfig, ExesService, ModelSpec, OutputMode, SeedPolicy};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker, TfIdfRanker};
use exes_graph::GraphView;
use exes_linkpred::CommonNeighbors;
use exes_router::{BackendPool, CommitOutcome, HashRing, RouterConfig, RouterHandle, Sequencer};
use exes_server::client::HttpClient;
use exes_server::json::{self, Json};
use exes_server::{wire, ServerConfig, ServerHandle};
use exes_team::GreedyCoverTeamFormer;
use std::net::SocketAddr;
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
    /// Every person, best-ranked first for the fixture query — shard
    /// coverage prefers well-ranked subjects so counterfactual searches
    /// stay shallow (debug builds run these tests too).
    ranked: Vec<u32>,
}

fn fixture() -> Fixture {
    let ds = SyntheticDataset::generate(&DatasetConfig::tiny("router-loopback", 29));
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
    let ranked = PropagationRanker::default()
        .rank_all(&ds.graph, &query)
        .entries()
        .iter()
        .map(|&(p, _)| p.0)
        .collect();
    Fixture {
        ds,
        exes,
        query_text,
        ranked,
    }
}

/// One worker service over its own store seeded from the fixture graph.
/// Every worker starts from the identical epoch-0 replica — the
/// precondition for ordered replication.
fn worker_service(f: &Fixture) -> ExesService {
    let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
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

/// Debug builds push single explains into the tens of seconds, so every
/// idle/io timeout in the test topology is set far above that: a client
/// connection left idle while the *other* tier computes must not be reaped
/// mid-test.
const SLOW_BUILD_TIMEOUT: Duration = Duration::from_secs(300);

fn worker_config() -> ServerConfig {
    ServerConfig {
        read_timeout: SLOW_BUILD_TIMEOUT,
        ..Default::default()
    }
}

fn start_worker(f: &Fixture) -> ServerHandle {
    exes_server::start(worker_service(f), worker_config()).expect("bind worker")
}

fn router_config() -> RouterConfig {
    RouterConfig {
        health_interval: Duration::from_millis(50),
        unhealthy_after: 1,
        gate_wait: Duration::from_millis(500),
        gate_poll: Duration::from_millis(5),
        retry_backoff: Duration::from_millis(10),
        read_timeout: SLOW_BUILD_TIMEOUT,
        request_budget: SLOW_BUILD_TIMEOUT,
        io_timeout: SLOW_BUILD_TIMEOUT,
        ..Default::default()
    }
}

struct Fleet {
    workers: Vec<ServerHandle>,
    router: RouterHandle,
}

fn start_fleet(f: &Fixture, n: usize) -> Fleet {
    let workers: Vec<_> = (0..n).map(|_| start_worker(f)).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr()).collect();
    let router = exes_router::start(&addrs, router_config()).expect("start router");
    assert_eq!(router.healthy_count(), n, "fleet boots fully healthy");
    Fleet { workers, router }
}

impl Fleet {
    fn shutdown(self) {
        self.router.shutdown();
        for worker in self.workers {
            worker.shutdown();
        }
    }
}

/// One subject per worker, chosen so the batch provably covers every shard.
/// Walks subjects best-ranked first so each shard's pick explains cheaply.
fn subject_per_shard(f: &Fixture, router: &RouterHandle, model: &str) -> Vec<u32> {
    let mut subjects = vec![None; router.worker_count()];
    for &subject in &f.ranked {
        let shard = router.shard_of(model, subject as u64);
        if subjects[shard].is_none() {
            subjects[shard] = Some(subject);
        }
        if subjects.iter().all(Option::is_some) {
            break;
        }
    }
    subjects
        .into_iter()
        .map(|s| s.expect("every shard owns at least one subject"))
        .collect()
}

fn explain_body(f: &Fixture, subjects: &[u32]) -> String {
    let terms: Vec<String> = f
        .query_text
        .split_whitespace()
        .map(|t| format!("\"{t}\""))
        .collect();
    let mut requests = Vec::new();
    for (i, &subject) in subjects.iter().enumerate() {
        for (j, kind) in ALL_KINDS.iter().enumerate() {
            let model = if (i + j) % 3 == 2 {
                "team"
            } else {
                "propagation"
            };
            requests.push(format!(
                "{{\"model\":\"{model}\",\"subject\":{subject},\"query\":[{}],\"kind\":\"{kind}\"}}",
                terms.join(",")
            ));
        }
    }
    format!("{{\"requests\":[{}]}}", requests.join(","))
}

/// Extracts the `"results":[…]` array substring of an explain response.
fn results_slice(body: &str) -> &str {
    let start = body.find("\"results\":").expect("results field") + "\"results\":".len();
    let end = body.rfind(",\"report\":").expect("report field");
    &body[start..end]
}

/// Removes every result's `"accounting":{…}` object — probe counters that
/// depend on which requests shared a worker's cache — for byte comparison
/// of the explanations themselves.
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

fn worker_identity(addr: SocketAddr) -> wire::WorkerHealth {
    let mut client = HttpClient::connect(addr).unwrap();
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200, "body: {}", health.body);
    wire::healthz_from_json(&json::parse(&health.body).unwrap()).expect("ready identity")
}

#[test]
fn routed_explain_covering_every_shard_is_byte_equivalent_to_one_worker() {
    let f = fixture();
    let fleet = start_fleet(&f, 3);
    let subjects = subject_per_shard(&f, &fleet.router, "propagation");
    let body = explain_body(&f, &subjects);

    let mut via_router = HttpClient::connect(fleet.router.addr()).unwrap();
    let routed = via_router.post("/explain", &body).unwrap();
    assert_eq!(routed.status, 200, "body: {}", routed.body);

    // The unrouted control: a fresh single worker answering the same batch.
    let solo = start_worker(&f);
    let mut direct = HttpClient::connect(solo.addr()).unwrap();
    let single = direct.post("/explain", &body).unwrap();
    assert_eq!(single.status, 200, "body: {}", single.body);

    // Same epoch, byte-equivalent explanations.
    let routed_parsed = json::parse(&routed.body).unwrap();
    let single_parsed = json::parse(&single.body).unwrap();
    assert_eq!(
        routed_parsed.get("epoch").unwrap().as_u64(),
        single_parsed.get("epoch").unwrap().as_u64()
    );
    assert_eq!(
        strip_accounting(results_slice(&routed.body)),
        strip_accounting(results_slice(&single.body)),
        "routing must not change result bytes"
    );

    // The merged report accounts for the whole batch, and the router really
    // did split it across every worker.
    let report = wire::report_from_json(routed_parsed.get("report").unwrap()).unwrap();
    assert_eq!(report.requests, subjects.len() * ALL_KINDS.len());
    assert_eq!(report.failed_requests, 0);
    let metrics = via_router.get("/metrics").unwrap();
    let metrics = json::parse(&metrics.body).unwrap();
    let sub_batches = metrics
        .get("explain")
        .and_then(|e| e.get("sub_batches"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(sub_batches, 3, "one sub-batch per shard");
    // Each worker answered at least its own subject's propagation requests
    // (the "team" entries key by ("team", subject) and may land anywhere),
    // and together the fleet answered exactly the whole batch.
    let mut fleet_requests = 0;
    for worker in &fleet.workers {
        let shard_metrics = HttpClient::connect(worker.addr())
            .unwrap()
            .get("/metrics")
            .unwrap();
        let answered = json::parse(&shard_metrics.body)
            .unwrap()
            .get("explain")
            .and_then(|e| e.get("requests"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            answered >= 4,
            "each worker answers its own shard ({answered} requests)"
        );
        fleet_requests += answered;
    }
    assert_eq!(fleet_requests as usize, subjects.len() * ALL_KINDS.len());

    solo.shutdown();
    fleet.shutdown();
}

#[test]
fn commit_replicates_an_ordered_epoch_stream_and_gates_read_your_writes() {
    let f = fixture();
    let fleet = start_fleet(&f, 3);
    let mut client = HttpClient::connect(fleet.router.addr()).unwrap();
    let epoch0: Vec<_> = fleet
        .workers
        .iter()
        .map(|w| worker_identity(w.addr()))
        .collect();

    // Two commits through the router: one monotone sequence, fanned out to
    // every worker.
    let subject = exes_graph::PersonId(0);
    let lost = f.ds.graph.person_skills(subject)[0];
    let lost_name = f.ds.graph.vocab().name(lost).unwrap();
    let first = client
        .post(
            "/commit",
            &format!(
                "{{\"ops\":[{{\"op\":\"add_person\",\"name\":\"newcomer\",\
                 \"skills\":[\"{lost_name}\"]}}]}}"
            ),
        )
        .unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    let parsed = json::parse(&first.body).unwrap();
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));
    assert_eq!(
        parsed.get("people").unwrap().as_u64(),
        Some(f.ds.graph.num_people() as u64 + 1),
        "the leader's commit response passes through"
    );
    let second = client
        .post(
            "/commit",
            &format!(
                "{{\"ops\":[{{\"op\":\"remove_skill\",\"person\":0,\
                 \"skill\":\"{lost_name}\"}}]}}"
            ),
        )
        .unwrap();
    assert_eq!(second.status, 200, "body: {}", second.body);
    assert_eq!(
        json::parse(&second.body)
            .unwrap()
            .get("epoch")
            .unwrap()
            .as_u64(),
        Some(2)
    );
    assert_eq!(fleet.router.committed_epoch(), 2);

    // Every worker applied the same stream: equal epochs, equal *chained*
    // fingerprints, all moved from their epoch-0 identity.
    let epoch2: Vec<_> = fleet
        .workers
        .iter()
        .map(|w| worker_identity(w.addr()))
        .collect();
    for (before, after) in epoch0.iter().zip(&epoch2) {
        assert_eq!(after.epoch, 2);
        assert_ne!(after.fingerprint, before.fingerprint);
    }
    assert!(
        epoch2
            .windows(2)
            .all(|w| w[0].fingerprint == w[1].fingerprint),
        "replicas diverged: {epoch2:?}"
    );

    // Read-your-writes: gated explains against every shard answer at (at
    // least) the committed epoch, immediately.
    let subjects = subject_per_shard(&f, &fleet.router, "propagation");
    for &subject in &subjects {
        let body = explain_body(&f, &[subject]);
        let gated = client
            .request_with_headers(
                "POST",
                "/explain",
                &[("X-Exes-Min-Epoch", "2")],
                Some(&body),
            )
            .unwrap();
        assert_eq!(gated.status, 200, "body: {}", gated.body);
        assert_eq!(
            json::parse(&gated.body)
                .unwrap()
                .get("epoch")
                .unwrap()
                .as_u64(),
            Some(2),
            "a committing client must read its own write"
        );
    }

    // A floor the fleet has never sequenced is refused immediately…
    let body = explain_body(&f, &subjects[..1]);
    let future = client
        .request_with_headers(
            "POST",
            "/explain",
            &[("X-Exes-Min-Epoch", "99")],
            Some(&body),
        )
        .unwrap();
    assert_eq!(future.status, 503);
    assert!(future.body.contains("epoch_unavailable"), "{}", future.body);
    // …and a malformed gate header is the client's error.
    let bad = client
        .request_with_headers(
            "POST",
            "/explain",
            &[("X-Exes-Min-Epoch", "soon")],
            Some(&body),
        )
        .unwrap();
    assert_eq!(bad.status, 400);

    fleet.shutdown();
}

#[test]
fn dead_worker_is_routed_around_then_healed_from_the_replication_log() {
    let f = fixture();
    let mut fleet = start_fleet(&f, 3);
    let mut client = HttpClient::connect(fleet.router.addr()).unwrap();

    // Kill worker 0 (remember its port — it restarts on the same address).
    let dead_addr = fleet.workers[0].addr();
    fleet.workers.remove(0).shutdown();
    fleet.router.probe_sweep();
    assert_eq!(fleet.router.healthy_count(), 2);

    // Explains keyed to the dead shard are routed around — answered, not
    // erred — by the next worker along the ring.
    let subjects = subject_per_shard(&f, &fleet.router, "propagation");
    let body = explain_body(&f, &[subjects[0]]);
    let rerouted = client.post("/explain", &body).unwrap();
    assert_eq!(rerouted.status, 200, "body: {}", rerouted.body);
    assert!(
        !rerouted.body.contains("shard_unavailable"),
        "surviving workers cover the dead shard: {}",
        rerouted.body
    );

    // Each of the dead shard's keys goes to its own ring successor, so the
    // lost arc spreads over the survivors instead of landing on one. Two
    // cheap requests per successor, best-ranked subjects first.
    let ring = HashRing::new(3, router_config().vnodes);
    let mut picked: Vec<(u32, usize)> = Vec::new();
    for &subject in &f.ranked {
        let order = ring.preference(HashRing::key("propagation", subject as u64));
        let successor = order[1];
        if order[0] == 0 && picked.iter().filter(|(_, s)| *s == successor).count() < 2 {
            picked.push((subject, successor));
        }
    }
    for successor in [1, 2] {
        assert!(
            picked.iter().any(|(_, s)| *s == successor),
            "worker {successor} succeeds some of the dead shard's keys: {picked:?}"
        );
    }
    let terms: Vec<String> = f
        .query_text
        .split_whitespace()
        .map(|t| format!("\"{t}\""))
        .collect();
    let requests: Vec<String> = picked
        .iter()
        .map(|(subject, _)| {
            format!(
                "{{\"model\":\"propagation\",\"subject\":{subject},\"query\":[{}],\
                 \"kind\":\"factual_query_terms\"}}",
                terms.join(",")
            )
        })
        .collect();
    let routed_requests = |client: &mut HttpClient| -> Vec<u64> {
        let metrics = json::parse(&client.get("/metrics").unwrap().body).unwrap();
        let backends = metrics.get("backends").unwrap().as_array().unwrap();
        backends
            .iter()
            .map(|b| b.get("routed_requests").and_then(Json::as_u64).unwrap())
            .collect()
    };
    let before = routed_requests(&mut client);
    let spread = client
        .post(
            "/explain",
            &format!("{{\"requests\":[{}]}}", requests.join(",")),
        )
        .unwrap();
    assert_eq!(spread.status, 200, "body: {}", spread.body);
    assert!(
        !spread.body.contains("shard_unavailable"),
        "{}",
        spread.body
    );
    let after = routed_requests(&mut client);
    for worker in 0..3 {
        let successors = picked.iter().filter(|(_, s)| *s == worker).count() as u64;
        assert_eq!(
            after[worker] - before[worker],
            successors,
            "worker {worker} answers exactly the dead keys it succeeds on the ring"
        );
    }

    // A commit while the worker is down still sequences (the survivors ack
    // it); the dead worker misses the fan-out.
    let lost = f.ds.graph.person_skills(exes_graph::PersonId(1))[0];
    let lost_name = f.ds.graph.vocab().name(lost).unwrap();
    let committed = client
        .post(
            "/commit",
            &format!(
                "{{\"ops\":[{{\"op\":\"add_person\",\"name\":\"while-away\",\
                 \"skills\":[\"{lost_name}\"]}}]}}"
            ),
        )
        .unwrap();
    assert_eq!(committed.status, 200, "body: {}", committed.body);
    assert_eq!(fleet.router.committed_epoch(), 1);

    // The worker returns — fresh process, same address, epoch-0 state. The
    // prober replays it the missed epoch from the replication log and
    // re-admits it only once epoch *and* chained fingerprint agree.
    let revived = exes_server::start(
        worker_service(&f),
        ServerConfig {
            addr: dead_addr.to_string(),
            ..worker_config()
        },
    )
    .expect("rebind the dead worker's address");
    fleet.router.probe_sweep();
    assert_eq!(
        fleet.router.healthy_count(),
        3,
        "revived worker re-admitted"
    );
    let healed = worker_identity(dead_addr);
    let survivor = worker_identity(fleet.workers[0].addr());
    assert_eq!(healed.epoch, 1, "replication log replayed the missed epoch");
    assert_eq!(
        healed.fingerprint, survivor.fingerprint,
        "healed replica converges to the fleet's chained fingerprint"
    );

    // And the healed shard serves gated reads again.
    let gated = client
        .request_with_headers(
            "POST",
            "/explain",
            &[("X-Exes-Min-Epoch", "1")],
            Some(&body),
        )
        .unwrap();
    assert_eq!(gated.status, 200, "body: {}", gated.body);

    revived.shutdown();
    fleet.shutdown();
}

/// The health sweep observes a worker before it takes the sequencer lock, so
/// a commit can land in between. Reconciling with that stale, pre-commit
/// observation must not roll the worker's acked position back and replay the
/// commit it already applied.
#[test]
fn reconcile_with_a_pre_commit_observation_replays_nothing() {
    let f = fixture();
    let workers: Vec<_> = (0..2).map(|_| start_worker(&f)).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr()).collect();
    let pool = BackendPool::new(&addrs, 16, SLOW_BUILD_TIMEOUT, SLOW_BUILD_TIMEOUT, 4).unwrap();
    for index in 0..pool.len() {
        pool.get(index).set_healthy(true);
    }
    let sequencer = Sequencer::new(0, pool.len(), 8, 2, Duration::from_millis(10));

    let stale = worker_identity(addrs[1]);
    let skill = f.ds.graph.person_skills(exes_graph::PersonId(0))[0];
    let body = format!(
        "{{\"ops\":[{{\"op\":\"add_person\",\"name\":\"racer\",\"skills\":[\"{}\"]}}]}}",
        f.ds.graph.vocab().name(skill).unwrap()
    );
    match sequencer.commit(&pool, &body) {
        CommitOutcome::Applied { epoch, acked, .. } => assert_eq!((epoch, acked), (1, 2)),
        _ => panic!("the commit applies on both workers"),
    }

    assert!(
        sequencer.reconcile(&pool, 1, stale.epoch, stale.fingerprint),
        "a worker that already applied the commit stays routable"
    );
    let leader = worker_identity(addrs[0]);
    let follower = worker_identity(addrs[1]);
    assert_eq!(follower.epoch, 1, "the commit was applied exactly once");
    assert_eq!(follower.fingerprint, leader.fingerprint);
    assert_eq!(sequencer.acked(1), 1);

    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn errors_pass_through_the_router_exactly_as_a_worker_answers_them() {
    let f = fixture();
    let fleet = start_fleet(&f, 2);
    let solo = start_worker(&f);
    let mut via_router = HttpClient::connect(fleet.router.addr()).unwrap();
    let mut direct = HttpClient::connect(solo.addr()).unwrap();

    // Structural failures: verdict and body bytes match a worker's own.
    for bad in [
        "{not json",
        "{\"nope\":1}",
        "{\"requests\":7}",
        "{\"ops\":\"x\"}",
    ] {
        let routed = via_router.post("/explain", bad).unwrap();
        let unrouted = direct.post("/explain", bad).unwrap();
        assert_eq!(routed.status, unrouted.status, "explain body {bad:?}");
        assert_eq!(routed.body, unrouted.body, "explain body {bad:?}");
        let routed = via_router.post("/commit", bad).unwrap();
        let unrouted = direct.post("/commit", bad).unwrap();
        assert_eq!(routed.status, 400, "commit body {bad:?}");
        assert_eq!(routed.status, unrouted.status, "commit body {bad:?}");
        assert_eq!(routed.body, unrouted.body, "commit body {bad:?}");
    }

    // Per-request semantic failures degrade per slot, identically.
    let terms: Vec<String> = f
        .query_text
        .split_whitespace()
        .map(|t| format!("\"{t}\""))
        .collect();
    let mixed = format!(
        "{{\"requests\":[\
         {{\"model\":\"propagation\",\"subject\":0,\"query\":[{terms}],\"kind\":\"factual_skills\"}},\
         {{\"model\":\"no-such-model\",\"subject\":0,\"query\":[{terms}],\"kind\":\"factual_skills\"}},\
         {{\"model\":\"propagation\",\"subject\":999999,\"query\":[{terms}],\"kind\":\"factual_skills\"}}\
         ]}}",
        terms = terms.join(",")
    );
    let routed = via_router.post("/explain", &mixed).unwrap();
    let unrouted = direct.post("/explain", &mixed).unwrap();
    assert_eq!(routed.status, 200, "body: {}", routed.body);
    assert_eq!(
        strip_accounting(results_slice(&routed.body)),
        strip_accounting(results_slice(&unrouted.body))
    );
    assert!(routed.body.contains("unknown_model"));
    assert!(routed.body.contains("bad_subject") || routed.body.contains("subject"));

    // A semantically conflicting commit is a deterministic rejection: the
    // leader's 409 passes through and *no* worker consumed an epoch.
    let rejected = via_router
        .post(
            "/commit",
            "{\"ops\":[{\"op\":\"remove_skill\",\"person\":0,\"skill\":\"no-such-skill\"}]}",
        )
        .unwrap();
    assert_eq!(rejected.status, 409, "body: {}", rejected.body);
    assert!(rejected.body.contains("commit_rejected"));
    assert_eq!(fleet.router.committed_epoch(), 0);
    for worker in &fleet.workers {
        assert_eq!(worker_identity(worker.addr()).epoch, 0);
    }

    solo.shutdown();
    fleet.shutdown();
}

#[test]
fn router_healthz_and_metrics_expose_fleet_state() {
    let f = fixture();
    let fleet = start_fleet(&f, 2);
    let mut client = HttpClient::connect(fleet.router.addr()).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200, "body: {}", health.body);
    let parsed = json::parse(&health.body).unwrap();
    assert_eq!(parsed.get("role").unwrap().as_str(), Some("router"));
    assert_eq!(parsed.get("workers").unwrap().as_u64(), Some(2));
    assert_eq!(parsed.get("healthy").unwrap().as_u64(), Some(2));
    assert_eq!(parsed.get("backends").unwrap().as_array().unwrap().len(), 2);

    // Quarantining every worker flips the router unavailable.
    fleet.router.force_unhealthy(0);
    fleet.router.force_unhealthy(1);
    let sick = client.get("/healthz").unwrap();
    assert_eq!(sick.status, 503, "body: {}", sick.body);
    // One prober sweep heals the (perfectly alive) fleet.
    fleet.router.probe_sweep();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let parsed = json::parse(&metrics.body).unwrap();
    assert!(parsed.get("router").is_some());
    assert!(parsed.get("explain").is_some());
    assert!(parsed.get("commit").is_some());

    // The router counts its connections exactly as a worker does.
    let keys = |metrics: &Json| match metrics.get("http") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("\"http\" must be an object, got {other:?}"),
    };
    let worker = HttpClient::connect(fleet.workers[0].addr())
        .unwrap()
        .get("/metrics")
        .unwrap();
    let worker = json::parse(&worker.body).unwrap();
    assert_eq!(keys(&parsed), keys(&worker));
    assert_eq!(
        keys(&parsed),
        [
            "connections",
            "connections_rejected",
            "requests",
            "parse_errors"
        ]
    );
    let http = parsed.get("http").unwrap();
    assert!(http.get("connections").and_then(Json::as_u64).unwrap() >= 1);

    fleet.shutdown();
}
