//! Network serving: the full front door on a loopback socket.
//!
//! Starts a real `exes-server` over a hand-built collaboration network,
//! then acts as its own client: health check, a duplicate-heavy explain
//! batch, a live graph update, the warm/cold replay around it, and the
//! metrics that observed it all — everything a `curl` session against a
//! deployed server would see.
//!
//! Run with: `cargo run --example network_serving`

use exes::prelude::*;
use exes::server::json;

fn main() {
    // --- A small collaboration network ------------------------------------
    let mut b = CollabGraphBuilder::new();
    let ada = b.add_person("Ada", ["databases", "xai", "graphs"]);
    let bob = b.add_person("Bob", ["graphs", "xai"]);
    let cleo = b.add_person("Cleo", ["vision", "ml"]);
    let dan = b.add_person("Dan", ["databases", "ml"]);
    b.add_edge(ada, bob);
    b.add_edge(bob, cleo);
    b.add_edge(ada, dan);
    b.add_edge(cleo, dan);
    let graph = b.build();

    let bags: Vec<Vec<SkillId>> = graph
        .people()
        .map(|p| graph.person_skills(p).to_vec())
        .collect();
    let embedding = SkillEmbedding::train(
        bags.iter().map(|b| b.as_slice()),
        graph.vocab().len(),
        &EmbeddingConfig::default(),
    );
    let config = ExesConfig::fast()
        .with_k(1)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(config, embedding, CommonNeighbors);

    // --- A service with one registered model, behind a real socket --------
    let mut service = ExesService::from_graph(&exes, graph.clone());
    service
        .register(
            "propagation",
            ModelSpec::expert_ranker(PropagationRanker::default(), 1),
        )
        .expect("valid spec");
    let handle =
        exes::server::start(service, ServerConfig::default()).expect("bind a loopback port");
    println!("serving on http://{}", handle.addr());

    let mut client = HttpClient::connect(handle.addr()).expect("connect");

    // --- GET /healthz ------------------------------------------------------
    let health = client.get("/healthz").expect("healthz");
    println!("GET /healthz          -> {} {}", health.status, health.body);

    // --- POST /explain: three requests, two of them identical --------------
    let body = format!(
        "{{\"requests\":[{0},{0},{1}]}}",
        "{\"model\":\"propagation\",\"subject\":1,\"query\":[\"xai\",\"graphs\"],\"kind\":\"counterfactual_skills\"}",
        "{\"model\":\"propagation\",\"subject\":1,\"query\":[\"xai\",\"graphs\"],\"kind\":\"factual_skills\"}"
    );
    let explain = client.post("/explain", &body).expect("explain");
    let parsed = json::parse(&explain.body).expect("valid JSON");
    let report = parsed.get("report").expect("report");
    println!(
        "POST /explain         -> {} (epoch {}, {} requests, {} deduplicated, {} probes)",
        explain.status,
        parsed.get("epoch").unwrap().as_u64().unwrap(),
        report.get("requests").unwrap().as_u64().unwrap(),
        report.get("duplicate_requests").unwrap().as_u64().unwrap(),
        report.get("probes").unwrap().as_u64().unwrap(),
    );

    // --- POST /commit: Bob picks up a new skill ----------------------------
    let commit = client
        .post(
            "/commit",
            "{\"ops\":[{\"op\":\"add_skill\",\"person\":1,\"skill\":\"databases\"}]}",
        )
        .expect("commit");
    println!("POST /commit          -> {} {}", commit.status, commit.body);

    // --- The same batch again: new epoch, answered cold ---------------------
    let again = client.post("/explain", &body).expect("explain again");
    let parsed = json::parse(&again.body).expect("valid JSON");
    println!(
        "POST /explain (again) -> {} (epoch {}, {} probes on the fresh epoch)",
        again.status,
        parsed.get("epoch").unwrap().as_u64().unwrap(),
        parsed
            .get("report")
            .unwrap()
            .get("probes")
            .unwrap()
            .as_u64()
            .unwrap(),
    );
    assert_eq!(parsed.get("epoch").unwrap().as_u64(), Some(1));

    // --- GET /metrics -------------------------------------------------------
    let metrics = client.get("/metrics").expect("metrics");
    let parsed = json::parse(&metrics.body).expect("valid JSON");
    let explain_stats = parsed.get("explain").unwrap();
    println!(
        "GET /metrics          -> {} (batches: {}, requests: {}, dedup: {}, commits: {})",
        metrics.status,
        explain_stats.get("batches").unwrap().as_u64().unwrap(),
        explain_stats.get("requests").unwrap().as_u64().unwrap(),
        explain_stats
            .get("duplicate_requests")
            .unwrap()
            .as_u64()
            .unwrap(),
        parsed
            .get("commits")
            .unwrap()
            .get("accepted")
            .unwrap()
            .as_u64()
            .unwrap(),
    );

    handle.shutdown();
    println!("server drained and shut down cleanly");
}
