//! The served system under test, configured as the `exes-server` binary
//! configures it, and started in-process on loopback ports.

use crate::trace::{Layer, Timed};
use exes_core::{Exes, ExesConfig, ExesService, ModelSpec, OutputMode, SeedPolicy};
use exes_datasets::{DatasetConfig, SyntheticDataset};
use exes_durability::{DurabilityConfig, DurableStore};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{GcnRanker, PropagationRanker, TfIdfRanker};
use exes_linkpred::{CommonNeighbors, LinkPredictor};
use exes_router::RouterConfig;
use exes_server::ServerConfig;
use exes_team::GreedyCoverTeamFormer;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// People in the served graph (the `exes-server` binary's default).
pub const PEOPLE: usize = 400;
/// Seed of the served graph (the `exes-server` binary's default). The
/// workload seed shapes only the traffic, never the data being served.
pub const DATASET_SEED: u64 = 7;
/// Top-k cutoff of the expert models.
pub const K: usize = 10;
/// The registered models, by name: the binary's three plus `gcn`, the
/// paper's black-box ranker, which has no incremental path.
pub const MODELS: [&str; 4] = ["tfidf", "propagation", "team", "gcn"];

/// The graph and skill embedding every server of one set-up is built from.
pub struct Data {
    pub ds: SyntheticDataset,
    pub embedding: SkillEmbedding,
}

/// Generates the `github_sim` graph scaled to [`PEOPLE`] and trains the
/// 16-dimensional skill embedding, exactly as the `exes-server` binary does.
pub fn data() -> Data {
    let base = DatasetConfig::github_sim();
    let factor = PEOPLE as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(DATASET_SEED));
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    Data { ds, embedding }
}

fn config() -> ExesConfig {
    ExesConfig::fast()
        .with_k(K)
        .with_output_mode(OutputMode::SmoothRank)
}

fn ranker_spec<R>(name: &'static str, ranker: R, traced: bool) -> ModelSpec
where
    R: exes_expert_search::ExpertRanker + Send + Sync + 'static,
{
    if traced {
        ModelSpec::expert_ranker(Timed::new(ranker, Layer::Ranker(name)), K)
    } else {
        ModelSpec::expert_ranker(ranker, K)
    }
}

/// The registered model set, in [`MODELS`] order. Traced runs wrap every
/// black box in a forwarding [`Timed`] wrapper.
fn model_specs(traced: bool) -> Vec<(&'static str, ModelSpec)> {
    let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
    let team = if traced {
        ModelSpec::team_former(
            Timed::new(former, Layer::Team),
            Timed::new(TfIdfRanker::default(), Layer::Team),
            SeedPolicy::Unseeded,
        )
    } else {
        ModelSpec::team_former(former, TfIdfRanker::default(), SeedPolicy::Unseeded)
    };
    vec![
        (
            "tfidf",
            ranker_spec("tfidf", TfIdfRanker::default(), traced),
        ),
        (
            "propagation",
            ranker_spec("propagation", PropagationRanker::default(), traced),
        ),
        ("team", team),
        ("gcn", ranker_spec("gcn", GcnRanker::default(), traced)),
    ]
}

/// A running fleet: one server, or a router over durable workers.
pub struct Fleet {
    /// Where clients send traffic: the server, or the router.
    pub front: SocketAddr,
    /// The worker servers (the front itself for a single server).
    pub workers: Vec<SocketAddr>,
    /// The router, when the fleet has one.
    pub router: Option<SocketAddr>,
    stops: Vec<Box<dyn FnOnce() + Send>>,
    dirs: Vec<PathBuf>,
}

impl Fleet {
    /// Stops the router, then every worker (each drains and joins its
    /// threads), then removes the workers' data directories.
    pub fn shutdown(self) {
        for stop in self.stops {
            stop();
        }
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    }
}

/// One memory-only `exes-server` over the epoch-0 graph.
pub fn single_server(data: &Data, traced: bool) -> Fleet {
    if traced {
        single_server_with(data, Timed::new(CommonNeighbors, Layer::LinkPred), traced)
    } else {
        single_server_with(data, CommonNeighbors, traced)
    }
}

fn single_server_with<L>(data: &Data, link_predictor: L, traced: bool) -> Fleet
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let exes = Exes::new(config(), data.embedding.clone(), link_predictor);
    let mut service = ExesService::from_graph(&exes, data.ds.graph.clone());
    for (name, spec) in model_specs(traced) {
        service.register(name, spec).expect("valid model spec");
    }
    let handle = exes_server::start(service, server_config()).expect("bind the server");
    let addr = handle.addr();
    Fleet {
        front: addr,
        workers: vec![addr],
        router: None,
        stops: vec![Box::new(move || handle.shutdown())],
        dirs: Vec::new(),
    }
}

/// An `exes-router` over `workers` durable `exes-server`s, each over its own
/// fresh data directory under `scratch`.
pub fn routed_fleet(data: &Data, workers: usize, scratch: &Path, traced: bool) -> Fleet {
    if traced {
        let link_predictor = Timed::new(CommonNeighbors, Layer::LinkPred);
        routed_fleet_with(data, workers, scratch, link_predictor, traced)
    } else {
        routed_fleet_with(data, workers, scratch, CommonNeighbors, traced)
    }
}

fn routed_fleet_with<L>(
    data: &Data,
    workers: usize,
    scratch: &Path,
    link_predictor: L,
    traced: bool,
) -> Fleet
where
    L: LinkPredictor + Clone + Send + Sync + 'static,
{
    let exes = Exes::new(config(), data.embedding.clone(), link_predictor);
    let mut fleet = Fleet {
        front: "127.0.0.1:0".parse().expect("valid address"),
        workers: Vec::new(),
        router: None,
        stops: Vec::new(),
        dirs: Vec::new(),
    };
    for _ in 0..workers {
        let dir = fresh_dir(scratch);
        let graph = data.ds.graph.clone();
        let durable = Arc::new(
            DurableStore::open(&dir, DurabilityConfig::default(), move || graph)
                .expect("open the worker's data directory"),
        );
        let mut service = ExesService::new(&exes, Arc::clone(durable.store()));
        for (name, spec) in model_specs(traced) {
            service.register(name, spec).expect("valid model spec");
        }
        let handle =
            exes_server::start_durable(service, server_config(), durable).expect("bind a worker");
        handle.finish_recovery().expect("a fresh worker recovers");
        fleet.workers.push(handle.addr());
        fleet.stops.push(Box::new(move || handle.shutdown()));
        fleet.dirs.push(dir);
    }
    let router = exes_router::start(
        &fleet.workers,
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            ..Default::default()
        },
    )
    .expect("start the router");
    fleet.front = router.addr();
    fleet.router = Some(router.addr());
    // The router stops first, so no request reaches a draining worker.
    fleet.stops.insert(0, Box::new(move || router.shutdown()));
    fleet
}

/// A new, empty directory under `scratch`.
pub fn fresh_dir(scratch: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = scratch.join(format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}
