//! Emits `BENCH_update.json`: the live graph store and epoch/cache baseline.
//!
//! Measures, at two graph scales (one with `--smoke`):
//! * **commit latency vs batch size** through the delta-compaction path —
//!   mean commit wall time for batches of 1/8/64/256 ops, plus the
//!   full-rebuild commit latency for comparison. Delta commits do
//!   O(|batch| + touched rows) of row work on top of a bulk copy of
//!   untouched storage, so latency grows with the batch and stays several
//!   times under a rebuild; the bulk-copy floor still grows with graph
//!   storage (visible across the two scales);
//! * **warm vs cold explanation cost across epochs** — a service batch
//!   answered cold at epoch 0, replayed warm (asserting 0 black-box probes),
//!   re-answered after a committed update (cold again on the new epoch), and
//!   replayed warm once more.
//!
//! Run with `cargo run -p exes-bench --release --bin bench_update` from the
//! repo root; CI runs the `--smoke` variant to keep the binary from
//! bit-rotting.

use exes_bench::timing::{timed, Mean};
use exes_core::service::{ExesService, ExplanationRequest};
use exes_core::{Exes, ExesConfig, ModelSpec};
use exes_datasets::{
    DatasetConfig, QueryWorkload, SyntheticDataset, UpdateStream, UpdateStreamConfig,
};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, GcnRanker};
use exes_graph::{GraphStore, GraphView, StoreConfig};
use exes_linkpred::CommonNeighbors;
use std::fmt::Write as _;
use std::sync::Arc;

const BATCH_SIZES: &[usize] = &[1, 8, 64, 256];
const COMMITS_PER_SIZE: usize = 8;
const SUBJECTS_PER_QUERY: usize = 4;
const QUERIES: usize = 2;

struct CommitRow {
    batch_size: usize,
    delta_ms: f64,
    rebuild_ms: f64,
}

struct Row {
    scale: &'static str,
    people: usize,
    edges: usize,
    commits: Vec<CommitRow>,
    // Warm/cold explanation cost across epochs.
    requests: usize,
    cold_probes: usize,
    cold_ms: f64,
    warm_probes: usize,
    warm_ms: f64,
    post_commit_probes: usize,
    post_commit_ms: f64,
    post_commit_warm_probes: usize,
    post_commit_warm_ms: f64,
}

/// Mean delta-path and rebuild-path commit latency for one batch size.
fn measure_commits(graph: &exes_graph::CollabGraph, batch_size: usize, seed: u64) -> CommitRow {
    let stream_cfg = UpdateStreamConfig::churn(COMMITS_PER_SIZE, batch_size, seed);
    // Delta path: rebuilds disabled.
    let delta_store = GraphStore::with_config(
        graph.clone(),
        StoreConfig {
            rebuild_interval: 0,
        },
    );
    let stream = UpdateStream::generate(graph, &stream_cfg);
    let mut delta = Mean::new();
    for batch in stream.batches() {
        let (result, elapsed) = timed(|| delta_store.commit(batch));
        result.expect("generated batch commits");
        delta.add_duration(elapsed);
    }
    // Rebuild path: every commit re-validates and re-packs the whole graph.
    let rebuild_store = GraphStore::with_config(
        graph.clone(),
        StoreConfig {
            rebuild_interval: 1,
        },
    );
    let stream = UpdateStream::generate(graph, &stream_cfg);
    let mut rebuild = Mean::new();
    for batch in stream.batches() {
        let (result, elapsed) = timed(|| rebuild_store.commit(batch));
        result.expect("generated batch commits");
        rebuild.add_duration(elapsed);
    }
    CommitRow {
        batch_size,
        delta_ms: delta.mean() * 1e3,
        rebuild_ms: rebuild.mean() * 1e3,
    }
}

fn measure(scale: &'static str, people: usize) -> Row {
    let base = DatasetConfig::github_sim();
    let factor = people as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(0xE90C4));

    // --- Commit latency vs batch size ---------------------------------
    let commits: Vec<CommitRow> = BATCH_SIZES
        .iter()
        .map(|&size| measure_commits(&ds.graph, size, 0xC0_3317 ^ size as u64))
        .collect();

    // --- Warm vs cold explanations across epochs -----------------------
    let workload = QueryWorkload::answerable(&ds.graph, QUERIES, 3, 5, 3, 0x77);
    let ranker = GcnRanker::default();
    let cfg = ExesConfig::fast().with_k(10);
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let exes = Exes::new(cfg.clone(), embedding, CommonNeighbors);
    let store = Arc::new(GraphStore::new(ds.graph.clone()));
    let mut service = ExesService::new(&exes, store.clone());
    let model = service
        .register("gcn", ModelSpec::expert_ranker(ranker.clone(), cfg.k))
        .expect("valid model spec");

    let mut requests = Vec::new();
    for query in workload.queries() {
        let query = Arc::new(query.clone());
        let ranking = ranker.rank_all(&ds.graph, &query);
        for (rank, &(person, _)) in ranking
            .entries()
            .iter()
            .take(SUBJECTS_PER_QUERY)
            .enumerate()
        {
            requests.push(ExplanationRequest::counterfactual_skills(
                model,
                person,
                query.clone(),
            ));
            if rank % 2 == 0 {
                requests.push(ExplanationRequest::counterfactual_query(
                    model,
                    person,
                    query.clone(),
                ));
            }
        }
    }

    let ((cold_responses, cold), cold_time) =
        timed(|| service.explain(&service.snapshot(), &requests));
    let ((warm_responses, warm), warm_time) =
        timed(|| service.explain(&service.snapshot(), &requests));
    assert_eq!(
        warm.probes, 0,
        "an unchanged epoch must replay entirely from cache"
    );
    for (a, b) in cold_responses.iter().zip(&warm_responses) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.expect_counterfactual().explanations,
            b.expect_counterfactual().explanations,
            "cache changed explanations"
        );
    }

    // Commit a small update touching the first query's top subject, then
    // re-answer: the new epoch must miss into fresh entries.
    let stream = UpdateStream::generate(&ds.graph, &UpdateStreamConfig::churn(1, 8, 0xA17E));
    let snap = service.commit(&stream.batches()[0]).expect("commit churn");
    assert_eq!(snap.epoch(), 1);
    let ((_, post), post_time) = timed(|| service.explain(&service.snapshot(), &requests));
    assert!(
        post.probes > 0,
        "a committed update must invalidate the warm cache"
    );
    let ((_, post_warm), post_warm_time) =
        timed(|| service.explain(&service.snapshot(), &requests));
    assert_eq!(post_warm.probes, 0);

    Row {
        scale,
        people: ds.graph.num_people(),
        edges: ds.graph.num_edges(),
        commits,
        requests: requests.len(),
        cold_probes: cold.probes,
        cold_ms: cold_time.as_secs_f64() * 1e3,
        warm_probes: warm.probes,
        warm_ms: warm_time.as_secs_f64() * 1e3,
        post_commit_probes: post.probes,
        post_commit_ms: post_time.as_secs_f64() * 1e3,
        post_commit_warm_probes: post_warm.probes,
        post_commit_warm_ms: post_warm_time.as_secs_f64() * 1e3,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[(&'static str, usize)] = if smoke {
        &[("smoke", 120)]
    } else {
        &[("small", 300), ("large", 1200)]
    };
    let threads = exes_parallel::thread_count(usize::MAX);

    let mut rows = Vec::new();
    for &(scale, people) in scales {
        eprintln!("measuring scale '{scale}' ({people} people)...");
        rows.push(measure(scale, people));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"graph_store\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scale\": \"{}\", \"people\": {}, \"edges\": {},",
            r.scale, r.people, r.edges
        );
        json.push_str("     \"commit_latency\": [\n");
        for (j, c) in r.commits.iter().enumerate() {
            let comma = if j + 1 < r.commits.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "       {{\"batch_size\": {}, \"delta_ms\": {:.4}, \"rebuild_ms\": {:.4}}}{comma}",
                c.batch_size, c.delta_ms, c.rebuild_ms
            );
        }
        json.push_str("     ],\n");
        let _ = writeln!(
            json,
            "     \"requests\": {}, \
             \"cold_probes\": {}, \"cold_ms\": {:.3}, \
             \"warm_probes\": {}, \"warm_ms\": {:.3}, \
             \"post_commit_probes\": {}, \"post_commit_ms\": {:.3}, \
             \"post_commit_warm_probes\": {}, \"post_commit_warm_ms\": {:.3}}}{comma}",
            r.requests,
            r.cold_probes,
            r.cold_ms,
            r.warm_probes,
            r.warm_ms,
            r.post_commit_probes,
            r.post_commit_ms,
            r.post_commit_warm_probes,
            r.post_commit_warm_ms,
        );
    }
    json.push_str("  ]\n}\n");

    println!("{json}");
    if smoke {
        // Smoke runs exercise the whole pipeline but must not clobber the
        // committed full-scale baseline.
        eprintln!("smoke run: leaving BENCH_update.json untouched");
    } else {
        std::fs::write("BENCH_update.json", &json).expect("write BENCH_update.json");
        eprintln!("wrote BENCH_update.json");
    }
}
