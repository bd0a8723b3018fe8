//! Emits `BENCH_durability.json`: restart cost under the durability
//! subsystem.
//!
//! One committed history (a churn `UpdateStream` WAL'd through a
//! [`DurableStore`]) is recovered three ways, measuring for each the
//! recovery wall time and the black-box probes the first explanation batch
//! pays after the restart:
//!
//! * **wal_replay** — no snapshot on disk: recovery replays every WAL record
//!   from the seed graph, and the probe cache starts empty (a cold restart);
//! * **snapshot** — a drain-time snapshot compacted the WAL: recovery is one
//!   snapshot decode, but the probe cache still starts empty;
//! * **snapshot_cache** — snapshot plus the exported warm cache: recovery is
//!   one decode + cache import, and the first repeat batch answers with
//!   **zero** probes (asserted — this is the PR's acceptance bar).
//!
//! Run with `cargo run -p exes-bench --release --bin bench_durability` from
//! the repo root; CI runs the `--smoke` variant to keep it from bit-rotting.

use exes_bench::timing::timed;
use exes_core::service::{ExesService, ExplanationRequest};
use exes_core::{Exes, ExesConfig, ModelSpec};
use exes_datasets::{
    DatasetConfig, QueryWorkload, SyntheticDataset, UpdateStream, UpdateStreamConfig,
};
use exes_durability::{CacheLoad, DurabilityConfig, DurableStore};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, GcnRanker};
use exes_graph::{GraphView, StoreConfig};
use exes_linkpred::CommonNeighbors;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const COMMITS: usize = 24;
const OPS_PER_COMMIT: usize = 8;
const SUBJECTS_PER_QUERY: usize = 4;
const QUERIES: usize = 2;

struct Scenario {
    name: &'static str,
    recovery_ms: f64,
    replayed_records: u64,
    had_snapshot: bool,
    cache_entries: usize,
    first_batch_probes: usize,
    first_batch_ms: f64,
}

struct Row {
    scale: &'static str,
    people: usize,
    edges: usize,
    commits: usize,
    wal_bytes: u64,
    scenarios: Vec<Scenario>,
}

fn tmp_dir(scale: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "exes-bench-durability-{}-{scale}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The service every scenario answers with: same model, registered the same
/// way, so probe-cache contexts agree across restarts.
fn service_over(exes: &Exes, store: Arc<exes_graph::GraphStore>, k: usize) -> ExesService {
    let mut service = ExesService::new(exes, store);
    service
        .register("gcn", ModelSpec::expert_ranker(GcnRanker::default(), k))
        .expect("valid model spec");
    service
}

fn measure(scale: &'static str, people: usize) -> Row {
    let base = DatasetConfig::github_sim();
    let factor = people as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(0xD0_7A31));
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
    let durability = DurabilityConfig {
        snapshot_interval: 0, // the bench controls exactly when snapshots happen
        store: StoreConfig::default(),
    };
    let dir = tmp_dir(scale);
    let seed = || ds.graph.clone();

    // The repeat workload every restart answers first.
    let workload = QueryWorkload::answerable(&ds.graph, QUERIES, 3, 5, 3, 0x77);
    let ranker = GcnRanker::default();
    let model_requests = |service: &ExesService| -> Vec<ExplanationRequest> {
        let model = service.model_id("gcn").expect("registered above");
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
        requests
    };

    // --- Build the committed history: a pure-WAL run, then a hard drop ----
    let stream = UpdateStream::generate(
        &ds.graph,
        &UpdateStreamConfig::churn(COMMITS, OPS_PER_COMMIT, 0xBEA7),
    );
    let wal_bytes;
    {
        let durable = DurableStore::open(&dir, durability, seed).expect("fresh data dir");
        for batch in stream.batches() {
            durable.commit(batch).expect("generated batch commits");
        }
        wal_bytes = durable.stats().wal_bytes;
        // Dropped without snapshot or cache export: a crash.
    }

    let mut scenarios = Vec::new();

    // --- Scenario 1: cold restart, WAL-only replay ------------------------
    let (durable, open_time) =
        timed(|| DurableStore::open(&dir, durability, seed).expect("wal replay recovery"));
    let report = durable.recovery();
    assert!(!report.had_snapshot);
    assert_eq!(report.replayed_records, COMMITS as u64);
    let service = service_over(&exes, Arc::clone(durable.store()), cfg.k);
    let requests = model_requests(&service);
    let ((_, cold), cold_time) = timed(|| service.explain(&service.snapshot(), &requests));
    assert!(cold.probes > 0, "a cold restart pays real probes");
    scenarios.push(Scenario {
        name: "wal_replay",
        recovery_ms: open_time.as_secs_f64() * 1e3,
        replayed_records: report.replayed_records,
        had_snapshot: report.had_snapshot,
        cache_entries: 0,
        first_batch_probes: cold.probes,
        first_batch_ms: cold_time.as_secs_f64() * 1e3,
    });

    // Graceful drain: compact the WAL into a snapshot and export the cache
    // the cold pass above just warmed.
    durable.snapshot_now().expect("drain-time snapshot");
    let (_, warm) = service.explain(&service.snapshot(), &requests);
    assert_eq!(warm.probes, 0, "the warmed cache replays without probes");
    let exported = durable
        .save_cache(service.probe_cache())
        .expect("drain-time cache export");
    assert!(exported > 0);
    drop(service);
    drop(durable);

    // --- Scenario 2: snapshot restore, cache left on disk unloaded --------
    let (durable, open_time) =
        timed(|| DurableStore::open(&dir, durability, seed).expect("snapshot recovery"));
    let report = durable.recovery();
    assert!(report.had_snapshot);
    assert_eq!(report.replayed_records, 0);
    let service = service_over(&exes, Arc::clone(durable.store()), cfg.k);
    let ((_, cold), cold_time) = timed(|| service.explain(&service.snapshot(), &requests));
    assert!(
        cold.probes > 0,
        "without the cache the restart is still cold"
    );
    scenarios.push(Scenario {
        name: "snapshot",
        recovery_ms: open_time.as_secs_f64() * 1e3,
        replayed_records: report.replayed_records,
        had_snapshot: report.had_snapshot,
        cache_entries: 0,
        first_batch_probes: cold.probes,
        first_batch_ms: cold_time.as_secs_f64() * 1e3,
    });
    drop(service);
    drop(durable);

    // --- Scenario 3: snapshot + warm-cache restore -------------------------
    let (loaded, open_time) = timed(|| {
        let durable = DurableStore::open(&dir, durability, seed).expect("warm recovery");
        let service = service_over(&exes, Arc::clone(durable.store()), cfg.k);
        let loaded = match durable
            .load_cache_into(service.probe_cache())
            .expect("cache file reads")
        {
            CacheLoad::Loaded(n) => n,
            other => panic!("expected a warm import, got {other:?}"),
        };
        (durable, service, loaded)
    });
    let (durable, service, cache_entries) = loaded;
    let report = durable.recovery();
    let ((_, first), first_time) = timed(|| service.explain(&service.snapshot(), &requests));
    assert_eq!(
        first.probes, 0,
        "the acceptance bar: a warm restart answers its first repeat batch \
         with zero black-box probes"
    );
    scenarios.push(Scenario {
        name: "snapshot_cache",
        recovery_ms: open_time.as_secs_f64() * 1e3,
        replayed_records: report.replayed_records,
        had_snapshot: report.had_snapshot,
        cache_entries,
        first_batch_probes: first.probes,
        first_batch_ms: first_time.as_secs_f64() * 1e3,
    });

    let people = durable.store().snapshot().graph().num_people();
    let edges = durable.store().snapshot().graph().num_edges();
    drop(service);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    Row {
        scale,
        people,
        edges,
        commits: COMMITS,
        wal_bytes,
        scenarios,
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
    let _ = writeln!(json, "  \"bench\": \"durability\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scale\": \"{}\", \"people\": {}, \"edges\": {}, \
             \"commits\": {}, \"wal_bytes\": {},",
            r.scale, r.people, r.edges, r.commits, r.wal_bytes
        );
        json.push_str("     \"restarts\": [\n");
        for (j, s) in r.scenarios.iter().enumerate() {
            let comma = if j + 1 < r.scenarios.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "       {{\"name\": \"{}\", \"recovery_ms\": {:.3}, \
                 \"had_snapshot\": {}, \"replayed_records\": {}, \
                 \"cache_entries\": {}, \"first_batch_probes\": {}, \
                 \"first_batch_ms\": {:.3}}}{comma}",
                s.name,
                s.recovery_ms,
                s.had_snapshot,
                s.replayed_records,
                s.cache_entries,
                s.first_batch_probes,
                s.first_batch_ms,
            );
        }
        let _ = writeln!(json, "     ]}}{comma}");
    }
    json.push_str("  ]\n}\n");

    println!("{json}");
    if smoke {
        // Smoke runs exercise the whole pipeline but must not clobber the
        // committed full-scale baseline.
        eprintln!("smoke run: leaving BENCH_durability.json untouched");
    } else {
        std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
        eprintln!("wrote BENCH_durability.json");
    }
}
