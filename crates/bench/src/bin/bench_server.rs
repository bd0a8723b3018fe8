//! Emits `BENCH_server.json`: the networked serving baseline.
//!
//! Drives a real `exes-server` instance over loopback sockets with a
//! **duplicate-heavy** workload (every unique request sent three times,
//! interleaved, by several concurrent keep-alive clients — the paper's
//! interactive workload, where many users ask about the same trending
//! queries and subjects) in three phases against one server:
//!
//! * **batched (cold)** — the micro-batching scheduler with the persistent
//!   cache, first contact with the epoch;
//! * **batched (warm)** — the same workload replayed on the unchanged epoch;
//! * **post-commit** — a `/commit` followed by a partially-cold replay on the
//!   new epoch.
//!
//! The acceptance bar: a warm epoch replays with zero black-box probes, and
//! a committed update runs the new epoch cold.
//!
//! Run with `cargo run -p exes-bench --release --bin bench_server` from the
//! repo root; CI runs the `--smoke` variant.

use exes_bench::timing::timed;
use exes_core::{Exes, ExesConfig, ExesService, ModelSpec, OutputMode};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker};
use exes_graph::GraphView;
use exes_linkpred::CommonNeighbors;
use exes_server::client::HttpClient;
use exes_server::{json, ServerConfig};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 6;
const DUPLICATION: usize = 3;
const KINDS: [&str; 6] = [
    "counterfactual_skills",
    "counterfactual_query",
    "counterfactual_links",
    "factual_skills",
    "factual_query_terms",
    "factual_collaborations",
];

struct Workload {
    ds: SyntheticDataset,
    exes: Exes,
    /// One-request wire bodies, duplicate-heavy and deterministically
    /// interleaved.
    bodies: Vec<Arc<String>>,
    unique: usize,
}

fn workload(people: usize, queries: usize, subjects: usize) -> Workload {
    let base = DatasetConfig::github_sim();
    let factor = people as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(0x5E77E12));
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let cfg = ExesConfig::fast()
        .with_k(5)
        .with_num_candidates(4)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(cfg, embedding, CommonNeighbors);
    let ranker = PropagationRanker::default();
    let qs = QueryWorkload::answerable(&ds.graph, queries, 2, 3, 3, 0x91);

    let mut unique_bodies = Vec::new();
    for query in qs.queries() {
        let terms: Vec<String> = query
            .display(ds.graph.vocab())
            .split_whitespace()
            .map(|t| format!("\"{t}\""))
            .collect();
        let terms = terms.join(",");
        let ranking = ranker.rank_all(&ds.graph, query);
        for (rank, &(person, _)) in ranking.entries().iter().take(subjects).enumerate() {
            let kind = KINDS[rank % KINDS.len()];
            unique_bodies.push(format!(
                "{{\"requests\":[{{\"model\":\"propagation\",\"subject\":{},\
                 \"query\":[{terms}],\"kind\":\"{kind}\"}}]}}",
                person.0
            ));
        }
    }
    // Duplicate-heavy traffic: every unique request appears DUPLICATION
    // times, *consecutively* — combined with the round-robin client
    // partition in `drive`, the copies of one request are sent by different
    // concurrent clients at (roughly) the same moment, so in the batched
    // configuration they land inside one micro-batch window and exercise
    // cross-user dedup on top of the shared cache.
    let unique = unique_bodies.len();
    let mut bodies = Vec::with_capacity(unique * DUPLICATION);
    for body in &unique_bodies {
        for _ in 0..DUPLICATION {
            bodies.push(Arc::new(body.clone()));
        }
    }
    Workload {
        ds,
        exes,
        bodies,
        unique,
    }
}

fn service(w: &Workload) -> ExesService {
    let mut service = ExesService::from_graph(&w.exes, w.ds.graph.clone());
    service
        .register(
            "propagation",
            ModelSpec::expert_ranker(PropagationRanker::default(), w.exes.config().k),
        )
        .expect("valid spec");
    service
}

#[derive(Debug, Clone, Copy)]
struct Phase {
    wall_ms: f64,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    probes: u64,
    cache_hits: u64,
    duplicates: u64,
    shed: u64,
}

/// Fires the whole workload at `addr` from CLIENTS concurrent keep-alive
/// connections; returns the phase stats read from `/metrics` deltas.
fn drive(addr: std::net::SocketAddr, bodies: &[Arc<String>]) -> Phase {
    let before = metrics_snapshot(addr);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(bodies.len()));
    let (_, wall) = timed(|| {
        std::thread::scope(|scope| {
            for client_index in 0..CLIENTS {
                let latencies = &latencies;
                // Round-robin partition: client c sends positions c, c+N,
                // c+2N, … so the DUPLICATION consecutive copies of each
                // request are in flight on different connections at once.
                let chunk: Vec<&Arc<String>> =
                    bodies.iter().skip(client_index).step_by(CLIENTS).collect();
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut local = Vec::with_capacity(chunk.len());
                    for body in chunk {
                        let (response, elapsed) =
                            timed(|| client.post("/explain", body).expect("post"));
                        // Shed requests are retried once after the advertised
                        // backoff; the shed count lands in the metrics.
                        if response.status == 503 {
                            std::thread::sleep(Duration::from_millis(20));
                            let _ = client.post("/explain", body).expect("retry");
                        }
                        local.push(elapsed.as_secs_f64() * 1e3);
                    }
                    latencies.lock().unwrap().extend(local);
                });
            }
        });
    });
    let after = metrics_snapshot(addr);
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_by(f64::total_cmp);
    let percentile = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() - 1) as f64 * p) as usize]
        }
    };
    let wall_secs = wall.as_secs_f64();
    Phase {
        wall_ms: wall_secs * 1e3,
        rps: bodies.len() as f64 / wall_secs.max(1e-9),
        p50_ms: percentile(0.50),
        p95_ms: percentile(0.95),
        probes: after.0 - before.0,
        cache_hits: after.1 - before.1,
        duplicates: after.2 - before.2,
        shed: after.3 - before.3,
    }
}

/// (probes, cache_hits, duplicates, shed) from `/metrics`.
fn metrics_snapshot(addr: std::net::SocketAddr) -> (u64, u64, u64, u64) {
    let mut client = HttpClient::connect(addr).expect("connect");
    let response = client.get("/metrics").expect("metrics");
    let parsed = json::parse(&response.body).expect("metrics JSON");
    let explain = parsed.get("explain").expect("explain section");
    let get = |name: &str| explain.get(name).and_then(json::Json::as_u64).unwrap_or(0);
    (
        get("probes"),
        get("cache_hits"),
        get("duplicate_requests"),
        get("shed_requests"),
    )
}

struct Row {
    scale: &'static str,
    people: usize,
    edges: usize,
    requests: usize,
    unique: usize,
    batched_cold: Phase,
    batched_warm: Phase,
    post_commit: Phase,
}

fn measure(scale: &'static str, people: usize, queries: usize, subjects: usize) -> Row {
    let w = workload(people, queries, subjects);
    let handle = exes_server::start(
        service(&w),
        ServerConfig {
            workers: CLIENTS,
            max_batch: 64,
            batch_window: Duration::from_millis(3),
            queue_depth: 1 << 16,
            ..Default::default()
        },
    )
    .expect("bind batched server");
    let batched_cold = drive(handle.addr(), &w.bodies);
    // Warm replay on the unchanged epoch.
    let batched_warm = drive(handle.addr(), &w.bodies);

    // A live update publishes a new epoch; the replay runs cold again
    // (the commit invalidates by construction, not by flushing).
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let committed = client
        .post(
            "/commit",
            "{\"ops\":[{\"op\":\"add_person\",\"name\":\"bench-newcomer\",\"skills\":[\"bench-skill\"]}]}",
        )
        .expect("commit");
    assert_eq!(committed.status, 200, "commit failed: {}", committed.body);
    let post_commit = drive(handle.addr(), &w.bodies);
    handle.shutdown();

    // The acceptance bar for the serving layer.
    assert_eq!(
        batched_warm.probes, 0,
        "an unchanged epoch must replay entirely from the cache"
    );
    assert!(
        post_commit.probes > 0,
        "a committed update must run the new epoch cold"
    );

    Row {
        scale,
        people: w.ds.graph.num_people(),
        edges: w.ds.graph.num_edges(),
        requests: w.bodies.len(),
        unique: w.unique,
        batched_cold,
        batched_warm,
        post_commit,
    }
}

fn phase_json(p: &Phase) -> String {
    format!(
        "{{\"wall_ms\": {:.3}, \"rps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
         \"probes\": {}, \"cache_hits\": {}, \"duplicates\": {}, \"shed\": {}}}",
        p.wall_ms, p.rps, p.p50_ms, p.p95_ms, p.probes, p.cache_hits, p.duplicates, p.shed
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[(&'static str, usize, usize, usize)] = if smoke {
        &[("smoke", 120, 2, 4)]
    } else {
        &[("small", 150, 2, 6), ("medium", 500, 3, 6)]
    };
    let threads = exes_parallel::thread_count(usize::MAX);

    let mut rows = Vec::new();
    for &(scale, people, queries, subjects) in scales {
        eprintln!("measuring scale '{scale}' ({people} people)...");
        rows.push(measure(scale, people, queries, subjects));
    }

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"server\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"clients\": {CLIENTS},");
    let _ = writeln!(out, "  \"duplication\": {DUPLICATION},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scale\": \"{}\", \"people\": {}, \"edges\": {}, \"requests\": {}, \
             \"unique_requests\": {},\n     \"batched_cold\": {},\n     \
             \"batched_warm\": {},\n     \"post_commit\": {}}}{comma}",
            r.scale,
            r.people,
            r.edges,
            r.requests,
            r.unique,
            phase_json(&r.batched_cold),
            phase_json(&r.batched_warm),
            phase_json(&r.post_commit)
        );
    }
    out.push_str("  ]\n}\n");

    std::fs::write("BENCH_server.json", &out).expect("write BENCH_server.json");
    println!("{out}");
    for r in &rows {
        eprintln!(
            "[{}] {} requests ({} unique): batched {} probes @ {:.0} rps \
             (warm {} probes @ {:.0} rps, post-commit {} probes)",
            r.scale,
            r.requests,
            r.unique,
            r.batched_cold.probes,
            r.batched_cold.rps,
            r.batched_warm.probes,
            r.batched_warm.rps,
            r.post_commit.probes
        );
    }
    eprintln!("wrote BENCH_server.json");
}
