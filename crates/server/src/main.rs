//! The `exes-server` binary: a self-contained serving demo over a synthetic
//! collaboration network.
//!
//! ```text
//! cargo run -p exes-server --release -- --port 7878 --people 600
//! curl -s localhost:7878/healthz
//! curl -s localhost:7878/explain -d '{"requests":[...]}'
//! ```
//!
//! Flags (all optional):
//!
//! * `--port N`         listen port (default 7878; 0 picks an ephemeral one)
//! * `--people N`       synthetic dataset size (default 400)
//! * `--seed N`         dataset seed (default 7)
//! * `--workers N`      connection workers (default 4)
//! * `--queue-depth N`  admission-queue capacity in requests (default 1024)
//! * `--max-batch N`    most requests per micro-batch (default 64)
//! * `--slow-queue-depth N`  slow-lane capacity in requests (default 256)
//! * `--slow-max-batch N`    most requests per slow-lane micro-batch (default 16)
//! * `--k N`            top-k cutoff of the registered expert models (default 10)
//! * `--probe-budget N` black-box probe budget per explanation, 0 = unbounded
//!   (default 0); budget-exhausted results are marked `"completeness":{...}`
//! * `--data-dir PATH`  durable data directory (WAL, snapshots, warm cache).
//!   When present the server recovers whatever the directory holds — the
//!   synthetic dataset only seeds epoch 0 on the very first boot — and
//!   `/healthz` answers 503 `{"status":"recovering"}` until replay and cache
//!   import complete
//! * `--snapshot-interval N`  durable commits between automatic snapshots
//!   (default 256; 0 = compact only on graceful drain)

use exes_core::{Exes, ExesConfig, ExesService, ModelSpec, OutputMode, ProbeBudget, SeedPolicy};
use exes_datasets::{DatasetConfig, SyntheticDataset};
use exes_durability::{CacheLoad, DurabilityConfig, DurableStore};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{PropagationRanker, TfIdfRanker};
use exes_graph::store::StoreConfig;
use exes_graph::GraphView;
use exes_linkpred::CommonNeighbors;
use exes_server::ServerConfig;
use exes_team::GreedyCoverTeamFormer;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    port: u16,
    people: usize,
    seed: u64,
    workers: usize,
    queue_depth: usize,
    max_batch: usize,
    slow_queue_depth: usize,
    slow_max_batch: usize,
    k: usize,
    probe_budget: usize,
    data_dir: Option<String>,
    snapshot_interval: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 7878,
        people: 400,
        seed: 7,
        workers: 4,
        queue_depth: 1024,
        max_batch: 64,
        slow_queue_depth: 256,
        slow_max_batch: 16,
        k: 10,
        probe_budget: 0,
        data_dir: None,
        snapshot_interval: 256,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} needs a {what} argument"))
        };
        match flag.as_str() {
            "--port" => args.port = value("port").parse().expect("--port: not a port"),
            "--people" => args.people = value("count").parse().expect("--people: not a count"),
            "--seed" => args.seed = value("seed").parse().expect("--seed: not a number"),
            "--workers" => args.workers = value("count").parse().expect("--workers: not a count"),
            "--queue-depth" => {
                args.queue_depth = value("count").parse().expect("--queue-depth: not a count")
            }
            "--max-batch" => {
                args.max_batch = value("count").parse().expect("--max-batch: not a count")
            }
            "--slow-queue-depth" => {
                args.slow_queue_depth = value("count")
                    .parse()
                    .expect("--slow-queue-depth: not a count")
            }
            "--slow-max-batch" => {
                args.slow_max_batch = value("count")
                    .parse()
                    .expect("--slow-max-batch: not a count")
            }
            "--k" => args.k = value("k").parse().expect("--k: not a number"),
            "--probe-budget" => {
                args.probe_budget = value("count").parse().expect("--probe-budget: not a count")
            }
            "--data-dir" => args.data_dir = Some(value("path")),
            "--snapshot-interval" => {
                args.snapshot_interval = value("count")
                    .parse()
                    .expect("--snapshot-interval: not a count")
            }
            other => panic!("unknown flag '{other}' (see crate docs for the flag list)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    eprintln!(
        "generating a synthetic collaboration network ({} people)...",
        args.people
    );
    let base = DatasetConfig::github_sim();
    let factor = args.people as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(args.seed));
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let budget = match args.probe_budget {
        0 => ProbeBudget::UNBOUNDED,
        n => ProbeBudget::bounded(n),
    };
    let cfg = ExesConfig::fast()
        .with_k(args.k)
        .with_output_mode(OutputMode::SmoothRank)
        .with_probe_budget(budget);
    let exes = Exes::new(cfg, embedding, CommonNeighbors);

    // With --data-dir the graph store recovers from disk (snapshot + WAL
    // replay); the synthetic graph only seeds epoch 0 on the first boot.
    let durable = args.data_dir.as_ref().map(|dir| {
        let durability = DurabilityConfig {
            snapshot_interval: args.snapshot_interval,
            store: StoreConfig::default(),
        };
        let seed = ds.graph.clone();
        let durable = Arc::new(
            DurableStore::open(dir, durability, move || seed).expect("data-dir recovery failed"),
        );
        let report = durable.recovery();
        eprintln!(
            "recovered epoch {} from {dir} ({}, replayed {} WAL records, \
             dropped {} torn bytes) in {} ms",
            report.recovered_epoch,
            if report.had_snapshot {
                format!("snapshot at epoch {}", report.snapshot_epoch)
            } else {
                "no snapshot, seeded fresh".to_string()
            },
            report.replayed_records,
            report.truncated_bytes,
            report.recovery_ms,
        );
        durable
    });
    let mut service = match &durable {
        Some(durable) => ExesService::new(&exes, Arc::clone(durable.store())),
        None => ExesService::from_graph(&exes, ds.graph.clone()),
    };
    let tfidf = service
        .register(
            "tfidf",
            ModelSpec::expert_ranker(TfIdfRanker::default(), args.k),
        )
        .expect("valid spec");
    let propagation = service
        .register(
            "propagation",
            ModelSpec::expert_ranker(PropagationRanker::default(), args.k),
        )
        .expect("valid spec");
    let team = service
        .register(
            "team",
            ModelSpec::team_former(
                GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                TfIdfRanker::default(),
                SeedPolicy::Unseeded,
            ),
        )
        .expect("valid spec");

    let config = ServerConfig {
        addr: format!("127.0.0.1:{}", args.port),
        workers: args.workers,
        queue_depth: args.queue_depth,
        max_batch: args.max_batch,
        slow_queue_depth: args.slow_queue_depth,
        slow_max_batch: args.slow_max_batch,
        ..Default::default()
    };
    // Report the graph actually being served — after recovery it can be many
    // epochs ahead of the freshly generated seed.
    let serving = service.snapshot();
    let handle = match durable {
        Some(durable) => {
            let handle = exes_server::start_durable(service, config, durable).expect("bind failed");
            // The listener is up (health probes see "recovering", not refused
            // connections); import the persisted warm cache and go ready.
            match handle.finish_recovery().expect("cache import failed") {
                CacheLoad::Loaded(n) => eprintln!("imported {n} warm probe-cache entries"),
                CacheLoad::Stale { expected, found } => eprintln!(
                    "persisted cache is stale (graph {found:x} != {expected:x}); starting cold"
                ),
                CacheLoad::Missing => eprintln!("no persisted probe cache; starting cold"),
            }
            handle
        }
        None => exes_server::start(service, config).expect("bind failed"),
    };

    eprintln!(
        "exes-server listening on http://{} — {} people, {} edges, {} skills",
        handle.addr(),
        serving.graph().num_people(),
        serving.graph().num_edges(),
        serving.graph().vocab().len()
    );
    eprintln!(
        "models: tfidf (#{}), propagation (#{}), team (#{})",
        tfidf.index(),
        propagation.index(),
        team.index()
    );
    eprintln!("try:  curl -s localhost:{}/healthz", handle.addr().port());

    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
