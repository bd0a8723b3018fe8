//! Emits `BENCH_router.json`: scale-out serving through the `exes-router`
//! sharded worker tier.
//!
//! The scale-out claim under test: when a subject-skewed workload's hot
//! working set exceeds ONE worker's probe-cache capacity, the single worker
//! thrashes — but the same workload routed by `(model, subject)` across N
//! identically-provisioned workers partitions the hot set into N disjoint
//! slices that each fit, so the *aggregate* warm hit rate recovers without
//! giving any single worker more memory.
//!
//! Procedure:
//!
//! 1. **Calibrate** — run the workload cold on one unconstrained worker and
//!    read its `cache.entries`: the working set W. Every measured worker
//!    then gets a probe cache capped at `CAPACITY_FRACTION × W` — too small
//!    for one worker, comfortably big enough for a 1/N shard.
//! 2. **Sweep fleets of 1, 2 and 4 workers**, all behind a real router on
//!    loopback sockets: one cold pass, then a warm replay; the aggregate
//!    warm hit rate is summed from per-worker `/metrics` deltas.
//! 3. **Converge** — `POST /commit` through the router (timed: the router
//!    acks only after every healthy worker applied the epoch), prove every
//!    worker's `/healthz` reports the new epoch and one shared fingerprint,
//!    and time a read-your-writes explain (`X-Exes-Min-Epoch`) per shard.
//!
//! The acceptance bar: the 4-worker fleet's warm hit rate beats the
//! single worker's by a wide margin under the same per-worker capacity, and
//! post-commit every worker converges to the same epoch + fingerprint with
//! gated reads succeeding immediately.
//!
//! Run with `cargo run -p exes-bench --release --bin bench_router` from the
//! repo root; CI runs the `--smoke` variant, which leaves the committed
//! `BENCH_router.json` untouched.

use exes_bench::timing::timed;
use exes_core::{Exes, ExesConfig, ExesService, ModelSpec, OutputMode};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, PropagationRanker};
use exes_graph::GraphView;
use exes_linkpred::CommonNeighbors;
use exes_router::RouterConfig;
use exes_server::client::HttpClient;
use exes_server::{json, wire, ServerConfig};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

const CLIENTS: usize = 4;
/// Per-worker probe-cache capacity as a fraction of the measured working
/// set: one worker thrashes (capacity < W), a 1/N shard fits (W/N < cap).
const CAPACITY_FRACTION: f64 = 0.7;
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
    /// Single-request wire bodies over a hot set of (query, subject) pairs —
    /// the subject-skewed interactive pattern whose working set is the unit
    /// of cache pressure.
    bodies: Vec<String>,
}

fn workload(people: usize, queries: usize, subjects: usize) -> Workload {
    let base = DatasetConfig::github_sim();
    let factor = people as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(0x60073));
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
    let qs = QueryWorkload::answerable(&ds.graph, queries, 2, 3, 3, 0xA7);

    let mut bodies = Vec::new();
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
            bodies.push(format!(
                "{{\"requests\":[{{\"model\":\"propagation\",\"subject\":{},\
                 \"query\":[{terms}],\"kind\":\"{kind}\"}}]}}",
                person.0
            ));
        }
    }
    Workload { ds, exes, bodies }
}

/// One worker replica: its own engine (own probe cache, optionally capped)
/// over its own copy of the shared epoch-0 graph.
fn worker(w: &Workload, cache_capacity: Option<usize>) -> SocketAddr {
    let mut cfg = w.exes.config().clone();
    if let Some(capacity) = cache_capacity {
        cfg = cfg.with_probe_cache_capacity(capacity);
    }
    let exes = Exes::new(cfg, w.exes.embedding().clone(), CommonNeighbors);
    let mut service = ExesService::from_graph(&exes, w.ds.graph.clone());
    service
        .register(
            "propagation",
            ModelSpec::expert_ranker(PropagationRanker::default(), exes.config().k),
        )
        .expect("valid spec");
    let handle = exes_server::start(
        service,
        ServerConfig {
            workers: CLIENTS,
            queue_depth: 1 << 16,
            ..Default::default()
        },
    )
    .expect("bind worker");
    let addr = handle.addr();
    // Workers live for the whole bench process; leak the handle so its
    // threads keep serving after this scope.
    std::mem::forget(handle);
    addr
}

#[derive(Debug, Clone, Copy)]
struct Phase {
    wall_ms: f64,
    rps: f64,
    probes: u64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
}

/// Fires every body at `addr` from CLIENTS concurrent keep-alive clients;
/// cache counters are aggregated across `workers` from `/metrics` deltas.
fn drive(addr: SocketAddr, bodies: &[String], workers: &[SocketAddr]) -> Phase {
    let before = fleet_counters(workers);
    let (_, wall) = timed(|| {
        std::thread::scope(|scope| {
            for client_index in 0..CLIENTS {
                let chunk: Vec<&String> =
                    bodies.iter().skip(client_index).step_by(CLIENTS).collect();
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    for body in chunk {
                        let response = client.post("/explain", body).expect("post");
                        assert_eq!(response.status, 200, "explain failed: {}", response.body);
                    }
                });
            }
        });
    });
    let after = fleet_counters(workers);
    let wall_secs = wall.as_secs_f64();
    let (probes, hits, misses) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    Phase {
        wall_ms: wall_secs * 1e3,
        rps: bodies.len() as f64 / wall_secs.max(1e-9),
        probes,
        cache_hits: hits,
        cache_misses: misses,
        hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
    }
}

/// Aggregate (probes, cache_hits, cache_misses) summed over worker
/// `/metrics`, plus the sum of `cache.entries` in the fourth slot.
fn fleet_counters(workers: &[SocketAddr]) -> (u64, u64, u64, u64) {
    let mut totals = (0, 0, 0, 0);
    for &addr in workers {
        let mut client = HttpClient::connect(addr).expect("connect worker");
        let response = client.get("/metrics").expect("metrics");
        let parsed = json::parse(&response.body).expect("metrics JSON");
        let explain = parsed.get("explain").expect("explain section");
        let get = |node: &json::Json, name: &str| {
            node.get(name).and_then(json::Json::as_u64).unwrap_or(0)
        };
        totals.0 += get(explain, "probes");
        totals.1 += get(explain, "cache_hits");
        totals.2 += get(explain, "cache_misses");
        totals.3 += get(parsed.get("cache").expect("cache section"), "entries");
    }
    totals
}

struct FleetRow {
    workers: usize,
    cold: Phase,
    warm: Phase,
}

/// Spawns `n` capacity-capped workers behind a router, runs the cold pass
/// and the warm replay, and returns both phases (aggregated fleet-wide).
fn measure_fleet(w: &Workload, n: usize, capacity: usize) -> FleetRow {
    let workers: Vec<SocketAddr> = (0..n).map(|_| worker(w, Some(capacity))).collect();
    let router = exes_router::start(
        &workers,
        RouterConfig {
            health_interval: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .expect("start router");
    let cold = drive(router.addr(), &w.bodies, &workers);
    let warm = drive(router.addr(), &w.bodies, &workers);
    router.shutdown();
    FleetRow {
        workers: n,
        cold,
        warm,
    }
}

struct Convergence {
    workers: usize,
    commit_ms: f64,
    epoch: u64,
    fingerprints_agree: bool,
    gated_reads_ms: f64,
}

/// Commits through the router and measures how long until the whole fleet
/// serves the new epoch: the commit ack itself (the router's ordered
/// fan-out), then one gated read-your-writes explain per worker count.
fn measure_convergence(w: &Workload, n: usize, capacity: usize) -> Convergence {
    let workers: Vec<SocketAddr> = (0..n).map(|_| worker(w, Some(capacity))).collect();
    let router = exes_router::start(&workers, RouterConfig::default()).expect("start router");
    let mut client = HttpClient::connect(router.addr()).expect("connect router");

    let (committed, commit_wall) = timed(|| {
        client
            .post(
                "/commit",
                "{\"ops\":[{\"op\":\"add_person\",\"name\":\"bench-newcomer\",\
                 \"skills\":[\"bench-skill\"]}]}",
            )
            .expect("commit")
    });
    assert_eq!(committed.status, 200, "commit failed: {}", committed.body);
    let epoch = json::parse(&committed.body)
        .expect("commit JSON")
        .get("epoch")
        .and_then(json::Json::as_u64)
        .expect("commit epoch");

    // By the time the router acks, every healthy worker must already serve
    // the new epoch with one shared fingerprint.
    let mut fingerprints = Vec::new();
    for &addr in &workers {
        let mut worker_client = HttpClient::connect(addr).expect("connect worker");
        let health = worker_client.get("/healthz").expect("healthz");
        let parsed = json::parse(&health.body).expect("healthz JSON");
        let identity = wire::healthz_from_json(&parsed).expect("ready worker");
        assert_eq!(
            identity.epoch, epoch,
            "worker {addr} lags the committed epoch"
        );
        fingerprints.push(identity.fingerprint);
    }
    let fingerprints_agree = fingerprints.windows(2).all(|pair| pair[0] == pair[1]);
    assert!(fingerprints_agree, "replicas diverged after the commit");

    // Read-your-writes: a gated explain per body sample answers immediately
    // at (at least) the committed epoch.
    let gate = epoch.to_string();
    let samples: Vec<&String> = w.bodies.iter().take(n.max(2)).collect();
    let (_, gated_wall) = timed(|| {
        for body in &samples {
            let response = client
                .request_with_headers(
                    "POST",
                    "/explain",
                    &[("X-Exes-Min-Epoch", &gate)],
                    Some(body),
                )
                .expect("gated explain");
            assert_eq!(response.status, 200, "gated explain: {}", response.body);
            let served = json::parse(&response.body)
                .expect("explain JSON")
                .get("epoch")
                .and_then(json::Json::as_u64)
                .expect("explain epoch");
            assert!(served >= epoch, "read-your-writes violated");
        }
    });
    router.shutdown();

    Convergence {
        workers: n,
        commit_ms: commit_wall.as_secs_f64() * 1e3,
        epoch,
        fingerprints_agree,
        gated_reads_ms: gated_wall.as_secs_f64() * 1e3,
    }
}

fn phase_json(p: &Phase) -> String {
    format!(
        "{{\"wall_ms\": {:.3}, \"rps\": {:.1}, \"probes\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"hit_rate\": {:.4}}}",
        p.wall_ms, p.rps, p.probes, p.cache_hits, p.cache_misses, p.hit_rate
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (people, queries, subjects) = if smoke { (120, 2, 4) } else { (400, 3, 8) };
    let threads = exes_parallel::thread_count(usize::MAX);

    eprintln!("generating the workload ({people} people)...");
    let w = workload(people, queries, subjects);

    // Calibrate the working set on one unconstrained worker.
    let probe = vec![worker(&w, None)];
    let router = exes_router::start(&probe, RouterConfig::default()).expect("start router");
    drive(router.addr(), &w.bodies, &probe);
    let working_set = fleet_counters(&probe).3;
    router.shutdown();
    let capacity = ((working_set as f64 * CAPACITY_FRACTION) as usize).max(16);
    eprintln!(
        "working set: {working_set} cache entries over {} requests -> per-worker capacity {capacity}",
        w.bodies.len()
    );

    let mut rows = Vec::new();
    for n in [1usize, 2, 4] {
        eprintln!("measuring a {n}-worker fleet...");
        rows.push(measure_fleet(&w, n, capacity));
    }

    // The scale-out acceptance bar: same per-worker cache, N-times the
    // aggregate — the partitioned fleet replays warm where one worker
    // thrashes.
    let single = &rows[0];
    let quad = &rows[2];
    assert!(
        quad.warm.hit_rate > single.warm.hit_rate,
        "a 4-worker partitioned fleet must beat one worker's warm hit rate \
         ({:.3} vs {:.3})",
        quad.warm.hit_rate,
        single.warm.hit_rate
    );

    eprintln!("measuring post-commit convergence...");
    let convergence = measure_convergence(&w, 4, capacity);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"router\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"clients\": {CLIENTS},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"people\": {},", w.ds.graph.num_people());
    let _ = writeln!(out, "  \"requests\": {},", w.bodies.len());
    let _ = writeln!(out, "  \"working_set_entries\": {working_set},");
    let _ = writeln!(out, "  \"per_worker_cache_capacity\": {capacity},");
    out.push_str("  \"fleets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workers\": {},\n     \"cold\": {},\n     \"warm\": {}}}{comma}",
            r.workers,
            phase_json(&r.cold),
            phase_json(&r.warm)
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"convergence\": {{\"workers\": {}, \"commit_ms\": {:.3}, \"epoch\": {}, \
         \"fingerprints_agree\": {}, \"gated_reads_ms\": {:.3}}}",
        convergence.workers,
        convergence.commit_ms,
        convergence.epoch,
        convergence.fingerprints_agree,
        convergence.gated_reads_ms
    );
    out.push_str("}\n");

    println!("{out}");
    for r in &rows {
        eprintln!(
            "[{} worker{}] cold {:.0} rps ({} probes) -> warm {:.0} rps, hit rate {:.3}",
            r.workers,
            if r.workers == 1 { "" } else { "s" },
            r.cold.rps,
            r.cold.probes,
            r.warm.rps,
            r.warm.hit_rate
        );
    }
    eprintln!(
        "[convergence] commit fan-out {:.1} ms to epoch {}, gated reads {:.1} ms",
        convergence.commit_ms, convergence.epoch, convergence.gated_reads_ms
    );
    if smoke {
        // Smoke runs exercise the whole pipeline but must not clobber the
        // committed full-scale baseline.
        eprintln!("smoke run: leaving BENCH_router.json untouched");
    } else {
        std::fs::write("BENCH_router.json", &out).expect("write BENCH_router.json");
        eprintln!("wrote BENCH_router.json");
    }
}
