//! The worker tier's serving loop: admit, micro-batch, respond, shut down
//! cleanly.
//!
//! Connections are served by the skeleton in [`crate::serve`]; this module
//! supplies its four endpoint bodies and the engine side behind them. CPU
//! parallelism comes from `exes-parallel` *inside*
//! [`ExesService::explain`], which spreads a micro-batch's unique requests,
//! or a lone request's probe batches, across cores.
//!
//! Connection workers run no searches themselves, but a worker does block on
//! its own job's outcome (synchronous HTTP), so the pool saturates at
//! `ServerConfig::workers` concurrent explain requests — size it above the
//! expected in-flight count if `/healthz` and `/metrics` must stay responsive
//! under full explanation load.
//!
//! Two **batchers**, one per admission lane, drain their lane in
//! micro-batches and run one `ExesService::explain` call per batch (see
//! [`crate::queue`]). Requests are routed at admission by
//! `ExesService::is_cold`, a peek at the probe cache — jobs whose every
//! request finds a memoised reference probe or plan ride the **fast** lane,
//! jobs containing any cold request ride the **slow** lane — so one
//! expensive cold search never head-of-line-blocks a burst of cache-warm
//! lookups.
//!
//! Shutdown ([`ServerHandle::shutdown`]) is graceful by construction: the
//! lanes close first and each batcher answers everything already admitted
//! before it exits, then the connections drain and every thread is joined.

use crate::http::HttpRequest;
use crate::metrics::{DurabilityGauges, LaneGauges, LaneMetrics, MetricsGauges, ServerMetrics};
use crate::queue::{AdmissionQueue, Job, Lane, PushError};
use crate::serve::{self, Connections, Endpoints, HttpMetrics, Limits, Response};
use crate::wire::{self, WireError};
use exes_core::{ExesService, ServiceReport};
use exes_durability::{CacheLoad, DurabilityError, DurableStore};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port — the bound
    /// address is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Fast-lane admission-queue capacity, in requests; beyond it, warm
    /// `POST /explain` traffic sheds with 503 + `Retry-After`.
    pub queue_depth: usize,
    /// Most connections allowed to wait for a worker; beyond it the acceptor
    /// drops new sockets instead of buffering them without bound.
    pub max_pending_connections: usize,
    /// Most requests one micro-batch takes from the fast lane.
    pub max_batch: usize,
    /// Largest accepted request body, in bytes (413 beyond it).
    pub max_body_bytes: usize,
    /// Socket read timeout: bounds how long an idle keep-alive connection
    /// holds a worker between requests, and how long any single read may
    /// stall mid-request.
    pub read_timeout: Duration,
    /// Total time budget for receiving one request, armed at its first byte.
    /// The per-read timeout alone cannot stop a drip-feed (slowloris)
    /// client; once this budget elapses the request is answered 400 and the
    /// connection dropped.
    pub request_budget: Duration,
    /// Slow-lane admission capacity, in requests. Deliberately smaller than
    /// the fast lane: queueing many cold searches just converts memory into
    /// latency, and a shed cold request retries against a warmer cache.
    pub slow_queue_depth: usize,
    /// Most requests one micro-batch takes from the slow lane. Smaller than
    /// the fast lane's: cold requests dominate engine time, so giant batches
    /// only stretch the lane's own tail.
    pub slow_max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 1024,
            max_pending_connections: 1024,
            max_batch: 64,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            request_budget: Duration::from_secs(30),
            slow_queue_depth: 256,
            slow_max_batch: 16,
        }
    }
}

struct Inner {
    service: ExesService,
    config: ServerConfig,
    /// Warm/incremental traffic.
    fast_queue: AdmissionQueue,
    /// Cold traffic.
    slow_queue: AdmissionQueue,
    metrics: ServerMetrics,
    /// The durable store wrapping `service`'s graph store, when started via
    /// [`start_durable`]. Commits route through it so every epoch is WAL'd
    /// and fsynced before it publishes.
    durability: Option<Arc<DurableStore>>,
    /// False from [`start_durable`] until [`ServerHandle::finish_recovery`]:
    /// `/healthz` answers 503 `{"status":"recovering"}` meanwhile, so load
    /// balancers hold traffic until WAL replay and cache import complete.
    ready: AtomicBool,
}

impl Inner {
    /// A lane's admission queue and counters.
    fn lane(&self, lane: Lane) -> (&AdmissionQueue, &LaneMetrics) {
        match lane {
            Lane::Fast => (&self.fast_queue, &self.metrics.fast_lane),
            Lane::Slow => (&self.slow_queue, &self.metrics.slow_lane),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving for the rest of the
/// process's life (what the `exes-server` binary wants); tests and benches
/// call `shutdown` to drain and join.
pub struct ServerHandle {
    inner: Arc<Inner>,
    connections: Connections,
    batchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.connections.addr()
    }

    /// True once `/healthz` answers 200: immediately for a memory-only
    /// server, after [`ServerHandle::finish_recovery`] for a durable one.
    pub fn is_ready(&self) -> bool {
        self.inner.ready.load(Ordering::SeqCst)
    }

    /// Completes a durable boot: imports the persisted probe cache (rejected
    /// wholesale if its pinned graph fingerprint does not match the recovered
    /// store's) and flips `/healthz` from 503 "recovering" to 200. The
    /// listener is already accepting while this runs — health probes observe
    /// the recovering state rather than connection refusals. On a server
    /// started without durability this just marks ready and reports
    /// [`CacheLoad::Missing`].
    pub fn finish_recovery(&self) -> Result<CacheLoad, DurabilityError> {
        let outcome = match &self.inner.durability {
            Some(durable) => durable.load_cache_into(self.inner.service.probe_cache())?,
            None => CacheLoad::Missing,
        };
        self.inner.ready.store(true, Ordering::SeqCst);
        Ok(outcome)
    }

    /// Stops accepting, answers everything already admitted, joins every
    /// thread. A durable server then flushes a final snapshot and exports
    /// the warm probe cache, so the next boot on the same data directory
    /// recovers instantly and answers its first repeat batch without a
    /// single black-box probe.
    pub fn shutdown(self) {
        let ServerHandle {
            inner,
            connections,
            batchers,
        } = self;
        connections.begin_shutdown();
        // 1. No new explanation work: each batcher drains its lane and exits.
        inner.fast_queue.close();
        inner.slow_queue.close();
        for batcher in batchers {
            let _ = batcher.join();
        }
        // 2. No new connections: unserved sockets are dropped, idle
        // keep-alive readers unblocked, every connection thread joined.
        connections.shutdown();
        // 3. Drain-time durability flush. This runs with every batcher and
        // worker already joined, so the snapshot covers every commit the
        // server ever answered and the cache export holds every probe the
        // whole serving run warmed — flushing earlier would race the commits
        // and batches still draining above.
        if let Some(durable) = &inner.durability {
            if let Err(e) = durable.snapshot_now() {
                eprintln!("exes-server: drain-time snapshot failed: {e}");
            }
            if let Err(e) = durable.save_cache(inner.service.probe_cache()) {
                eprintln!("exes-server: drain-time cache export failed: {e}");
            }
        }
    }
}

/// Starts a server over `service`.
///
/// The service is finished (models registered) before serving starts; the
/// compile-time `Send + Sync` guarantee on `ExesService` is what lets one
/// instance be shared by every worker and the batcher.
pub fn start(service: ExesService, config: ServerConfig) -> io::Result<ServerHandle> {
    start_with(service, config, None)
}

/// Starts a server whose commits are durable: every `POST /commit` is
/// WAL-appended and fsynced by `durable` before its epoch publishes, periodic
/// snapshots compact the log, and [`ServerHandle::shutdown`] flushes a final
/// snapshot plus the warm probe cache.
///
/// The service must have been built over `durable.store()` — the two sharing
/// one [`exes_graph::store::GraphStore`] is what makes a WAL'd commit visible
/// to the read path — so a mismatched pair is refused outright.
///
/// The server boots *not ready*: `/healthz` answers 503
/// `{"status":"recovering"}` until the caller runs
/// [`ServerHandle::finish_recovery`], which imports the persisted probe cache
/// and flips readiness.
pub fn start_durable(
    service: ExesService,
    config: ServerConfig,
    durable: Arc<DurableStore>,
) -> io::Result<ServerHandle> {
    if !Arc::ptr_eq(service.store(), durable.store()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "start_durable requires a service built over the durable store's graph store",
        ));
    }
    start_with(service, config, Some(durable))
}

fn start_with(
    service: ExesService,
    config: ServerConfig,
    durability: Option<Arc<DurableStore>>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let limits = Limits {
        workers: config.workers,
        max_pending_connections: config.max_pending_connections,
        max_body_bytes: config.max_body_bytes,
        read_timeout: config.read_timeout,
        request_budget: config.request_budget,
    };
    let inner = Arc::new(Inner {
        service,
        fast_queue: AdmissionQueue::new(config.queue_depth),
        slow_queue: AdmissionQueue::new(config.slow_queue_depth),
        config,
        metrics: ServerMetrics::new(),
        // A durable server starts recovering; start() servers have nothing
        // to recover and are born ready.
        ready: AtomicBool::new(durability.is_none()),
        durability,
    });
    let connections = serve::start(listener, Arc::clone(&inner), limits)?;
    let batchers = [Lane::Fast, Lane::Slow]
        .into_iter()
        .map(|lane| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || batch_loop(&inner, lane))
        })
        .collect();
    Ok(ServerHandle {
        inner,
        connections,
        batchers,
    })
}

/// The micro-batching engine loop for one lane: one [`ExesService::explain`] per
/// drained micro-batch, results split back per job in admission order. Each
/// lane runs its own copy of this loop on its own thread, with its own batch
/// size — that independence is the whole point: a slow cold batch in one
/// lane never delays the other lane's drain.
///
/// The engine call is isolated with `catch_unwind`: if a batch panics (an
/// engine invariant bug, a poisoned cache shard), its jobs' senders are
/// dropped — every waiting worker's `recv` errors into a 500 — and the
/// batcher keeps draining. A dead batcher would instead hang every queued
/// worker forever and deadlock shutdown.
fn batch_loop(inner: &Inner, lane: Lane) {
    let (queue, _) = inner.lane(lane);
    let max_batch = match lane {
        Lane::Fast => inner.config.max_batch,
        Lane::Slow => inner.config.slow_max_batch,
    };
    while let Some(jobs) = queue.next_batch(max_batch) {
        let merged: Vec<_> = jobs
            .iter()
            .flat_map(|job| job.requests.iter().cloned())
            .collect();
        let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let snapshot = inner.service.snapshot();
            let (results, report) = inner.service.explain(&snapshot, &merged);
            (results, report, snapshot)
        }));
        let (results, report, snapshot) = match answered {
            Ok(outcome) => outcome,
            Err(_) => {
                // Dropping the jobs drops their senders: the workers answer
                // 500 and move on, and this loop serves the next batch.
                drop(jobs);
                continue;
            }
        };
        inner.metrics.record_batch(&report);
        let mut results = VecDeque::from(results);
        for job in jobs {
            let slice: Vec<_> = results.drain(..job.requests.len()).collect();
            // A dead receiver just means the connection was dropped.
            let _ = job.respond.send((slice, report, snapshot.clone()));
        }
    }
}

/// The `Retry-After` seconds of a 503 from a full or draining lane: a short
/// back-off, not a promise of when capacity returns.
const RETRY_AFTER_SECS: u64 = 1;

impl Endpoints for Inner {
    fn healthz(&self) -> Response {
        if !self.ready.load(Ordering::SeqCst) {
            return (
                503,
                Vec::new(),
                "{\"status\":\"recovering\",\"ready\":false}".to_string(),
            );
        }
        // Epoch and fingerprint must come from the *same* snapshot: a commit
        // racing this probe must not make a healthy replica look divergent.
        let snapshot = self.service.snapshot();
        let body = wire::healthz_json(&wire::WorkerHealth {
            ready: true,
            epoch: snapshot.epoch(),
            fingerprint: snapshot.graph().fingerprint(),
            models: self.service.registry().len(),
        });
        (200, Vec::new(), body)
    }

    fn metrics(&self, http: &HttpMetrics) -> Response {
        let cache = self.service.probe_cache();
        let gauges_of = |queue: &AdmissionQueue| LaneGauges {
            capacity: queue.capacity(),
            depth: queue.depth(),
        };
        let gauges = MetricsGauges {
            epoch: self.service.store().epoch(),
            models: self.service.registry().len(),
            fast: gauges_of(&self.fast_queue),
            slow: gauges_of(&self.slow_queue),
            cache_entries: cache.len(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evicted(),
            plan_hits: cache.plan_hits(),
            plan_misses: cache.plan_misses(),
            durability: self.durability.as_ref().map(|durable| {
                let stats = durable.stats();
                DurabilityGauges {
                    wal_appends: stats.wal_appends,
                    wal_bytes: stats.wal_bytes,
                    snapshots_written: stats.snapshots_written,
                    last_recovery_ms: stats.last_recovery_ms,
                    recovered_epoch: stats.recovered_epoch,
                }
            }),
        };
        (200, Vec::new(), self.metrics.to_json(http, &gauges))
    }

    fn explain(&self, request: &HttpRequest) -> Result<Response, WireError> {
        let snapshot = self.service.snapshot();
        let (_, body) = serve::json_body(request)?;
        let entries = wire::parse_explain_requests(&body, snapshot.graph().vocab(), |name| {
            self.service.model_id(name)
        })?;
        self.metrics.explain_batches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .explain_requests
            .fetch_add(entries.len() as u64, Ordering::Relaxed);

        let valid: Vec<_> = entries
            .iter()
            .filter_map(|entry| entry.as_ref().ok().cloned())
            .collect();

        let (answers, report, answered) = if valid.is_empty() {
            // Nothing to compute: every entry failed wire-level validation,
            // and the shared assembly below renders the error slots against
            // the parse-time snapshot with an empty batch report.
            let report = ServiceReport {
                epoch: snapshot.epoch(),
                ..Default::default()
            };
            (Vec::new(), report, snapshot.clone())
        } else {
            let valid_len = valid.len();
            // Route by a pre-admission peek that never probes the black
            // box — it only interrogates the probe cache and plan memo — so
            // this is cheap per request. A job containing any cold request
            // rides the slow lane: its micro-batch will pay a cold search,
            // and fast-lane traffic must not queue behind it. Requests the
            // peek rejects (unknown model, out-of-range subject) stay fast —
            // the engine answers those without probing anything.
            let any_cold = valid
                .iter()
                .any(|request| self.service.is_cold(&snapshot, request) == Ok(true));
            let lane = if any_cold { Lane::Slow } else { Lane::Fast };
            let (queue, lane_metrics) = self.lane(lane);
            let (respond, outcome) = mpsc::channel();
            let job = Job {
                requests: valid,
                respond,
            };
            let enqueued_at = std::time::Instant::now();
            match queue.push(job) {
                Err(PushError::Full) => {
                    self.metrics
                        .shed_requests
                        .fetch_add(valid_len as u64, Ordering::Relaxed);
                    lane_metrics
                        .shed_requests
                        .fetch_add(valid_len as u64, Ordering::Relaxed);
                    return Ok((
                        503,
                        vec![("Retry-After", RETRY_AFTER_SECS.to_string())],
                        WireError::new(
                            "overloaded",
                            format!(
                                "{} admission lane is full (capacity {} requests); \
                                 retry in ~{RETRY_AFTER_SECS}s",
                                lane.tag(),
                                queue.capacity()
                            ),
                        )
                        .to_json(),
                    ));
                }
                Err(PushError::Closed) => {
                    return Ok((
                        503,
                        vec![("Retry-After", RETRY_AFTER_SECS.to_string())],
                        WireError::new("shutting_down", "server is draining; retry elsewhere")
                            .to_json(),
                    ));
                }
                Ok(()) => {
                    lane_metrics
                        .admitted_requests
                        .fetch_add(valid_len as u64, Ordering::Relaxed);
                }
            }
            match outcome.recv() {
                Ok(outcome) => {
                    lane_metrics.latency.record(enqueued_at.elapsed());
                    outcome
                }
                // The batcher dropped this job's sender without answering:
                // the engine panicked on the micro-batch (or the server is
                // tearing down). The worker survives and the connection gets
                // a clean 500.
                Err(_) => {
                    return Ok((
                        500,
                        Vec::new(),
                        WireError::new("internal", "the engine failed while answering this batch")
                            .to_json(),
                    ))
                }
            }
        };

        // Re-interleave engine answers with wire-level error slots, in
        // request order, rendering names through exactly the epoch the batch
        // was answered against — commits racing the batch must not change
        // the bytes.
        let graph = answered.graph();
        let mut answers = answers.into_iter();
        let mut results = Vec::with_capacity(entries.len());
        let mut request_errors = 0u64;
        for entry in &entries {
            match entry {
                Ok(_) => {
                    let answer = answers.next().expect("one answer per valid request");
                    if answer.is_err() {
                        request_errors += 1;
                    }
                    results.push(wire::result_entry_json(&answer, graph));
                }
                Err(error) => {
                    request_errors += 1;
                    results.push(error.to_json());
                }
            }
        }
        self.metrics
            .request_errors
            .fetch_add(request_errors, Ordering::Relaxed);
        let body =
            wire::explain_response_json(report.epoch, &format!("[{}]", results.join(",")), &report);
        Ok((200, Vec::new(), body))
    }

    fn commit(&self, request: &HttpRequest) -> Result<Response, WireError> {
        let (_, body) = serve::json_body(request)?;
        let batch = wire::parse_update_batch(&body)?;
        // On a durable server the batch must hit the WAL (fsynced) before its
        // epoch publishes, so commits route through the durable store. A
        // batch the graph rejects stays a client error (409); an I/O failure
        // while persisting is the server's fault (500) — the epoch was not
        // published.
        let committed = match &self.durability {
            Some(durable) => durable.commit(&batch).map_err(|error| match error {
                DurabilityError::Graph(e) => {
                    (409, WireError::new("commit_rejected", e.to_string()))
                }
                other => (500, WireError::new("durability", other.to_string())),
            }),
            None => self
                .service
                .commit(&batch)
                .map_err(|error| (409, WireError::new("commit_rejected", error.to_string()))),
        };
        Ok(match committed {
            Ok(snapshot) => {
                self.metrics.commits.fetch_add(1, Ordering::Relaxed);
                (
                    200,
                    Vec::new(),
                    wire::commit_response_json(snapshot.epoch(), snapshot.graph()),
                )
            }
            Err((status, error)) => {
                self.metrics.commit_failures.fetch_add(1, Ordering::Relaxed);
                (status, Vec::new(), error.to_json())
            }
        })
    }
}
