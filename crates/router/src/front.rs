//! The router's HTTP front: shards `/explain` across the worker fleet,
//! sequences `/commit` through the [`crate::sequencer::Sequencer`], and runs
//! the health prober that heals lagging workers from the replication log.
//! Client connections are served by the same skeleton as a worker's
//! ([`exes_server::serve`]), so shedding, timeouts and drain behave alike at
//! both tiers.
//!
//! ## Sharding and failover
//!
//! Each `/explain` entry keys by `(model, subject)` onto the consistent-hash
//! ring, and rides the sub-batch of the first routable worker in that key's
//! ring order — its owner while the owner is healthy, else the next worker
//! along the ring, so the arc of a quarantined worker is spread over its
//! ring successors rather than dumped on one neighbour.
//!
//! ## Read-your-writes
//!
//! `POST /commit` answers with the epoch the batch published. A client that
//! then explains with `X-Exes-Min-Epoch: <that epoch>` is **gated**: the
//! router forwards the sub-batch only to a worker whose observed epoch has
//! reached the floor, holding (re-probing) the sub-batch's worker briefly.
//! When that worker cannot catch up in time, or dies mid-request, each entry
//! fails over once to the next routable worker along its own ring order that
//! is already at the floor. Asking for an epoch the router has never
//! sequenced is answered `503 {"error":{"code":"epoch_unavailable"}}`
//! immediately — that epoch may not exist anywhere.

use crate::backend::{BackendPool, Observation};
use crate::proxy;
use crate::ring::HashRing;
use crate::sequencer::{CommitOutcome, Sequencer};
use exes_server::http::HttpRequest;
use exes_server::json::Json;
use exes_server::serve::{self, Connections, Endpoints, HttpMetrics, Limits, Response};
use exes_server::wire::{self, WireError};
use exes_server::HttpResponse;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Most connections allowed to wait for a worker thread.
    pub max_pending_connections: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout (idle keep-alive bound).
    pub read_timeout: Duration,
    /// Total budget for receiving one request.
    pub request_budget: Duration,
    /// Bound on dialing a worker.
    pub connect_timeout: Duration,
    /// Bound on any single worker request (a cold explain batch computes for
    /// a while — keep this generous).
    pub io_timeout: Duration,
    /// Health-prober sweep interval.
    pub health_interval: Duration,
    /// Consecutive failed probes before a worker is considered down.
    pub unhealthy_after: u32,
    /// Backoff between a worker's commit replication attempts.
    pub retry_backoff: Duration,
    /// How long a gated explain holds for its sub-batch's worker to reach
    /// the requested epoch before failing over along the ring.
    pub gate_wait: Duration,
    /// Poll interval while holding.
    pub gate_poll: Duration,
    /// Virtual nodes per worker on the sharding ring.
    pub vnodes: usize,
}

/// Idle pooled connections retained per worker.
const POOL_IDLE: usize = 4;
/// Commit replication attempts per worker per epoch.
const COMMIT_RETRIES: u32 = 2;
/// Commit bodies retained for catch-up replay.
const REPLICATION_LOG: usize = 1024;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_pending_connections: 1024,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            request_budget: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(30),
            health_interval: Duration::from_millis(150),
            unhealthy_after: 3,
            retry_backoff: Duration::from_millis(50),
            gate_wait: Duration::from_secs(2),
            gate_poll: Duration::from_millis(10),
            vnodes: 64,
        }
    }
}

/// Router-tier counters (`GET /metrics`).
#[derive(Default)]
struct RouterMetrics {
    explain_batches: AtomicU64,
    explain_requests: AtomicU64,
    routed_subbatches: AtomicU64,
    reroutes: AtomicU64,
    gate_held: AtomicU64,
    gate_unavailable: AtomicU64,
    shard_unavailable_slots: AtomicU64,
    commits: AtomicU64,
    commit_rejected: AtomicU64,
    commit_unavailable: AtomicU64,
    fanout_failures: AtomicU64,
    catch_ups: AtomicU64,
}

struct Inner {
    config: RouterConfig,
    pool: BackendPool,
    sequencer: Sequencer,
    metrics: RouterMetrics,
    /// Set at shutdown to stop the prober; client connections have their
    /// own flag.
    prober_stop: Mutex<bool>,
    prober_wake: Condvar,
}

/// A running router. Dropping without [`RouterHandle::shutdown`] leaves it
/// serving for the process's life (what the binary wants).
pub struct RouterHandle {
    inner: Arc<Inner>,
    connections: Connections,
    prober: JoinHandle<()>,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.connections.addr()
    }

    /// The highest epoch the router has sequenced.
    pub fn committed_epoch(&self) -> u64 {
        self.inner.sequencer.committed()
    }

    /// Workers in the fleet.
    pub fn worker_count(&self) -> usize {
        self.inner.pool.len()
    }

    /// Workers currently routable.
    pub fn healthy_count(&self) -> usize {
        self.inner.pool.healthy_count()
    }

    /// The worker index owning `(model, subject)` on the ring — lets tests
    /// and benches construct workloads that cover (or target) shards.
    pub fn shard_of(&self, model: &str, subject: u64) -> usize {
        self.inner.pool.ring().owner(HashRing::key(model, subject))
    }

    /// Test hook: quarantine one worker as if probes had failed.
    #[doc(hidden)]
    pub fn force_unhealthy(&self, worker: usize) {
        self.inner.pool.get(worker).set_healthy(false);
    }

    /// Test hook: one synchronous prober sweep (probe every worker, replay
    /// lagging ones from the replication log, settle health verdicts).
    #[doc(hidden)]
    pub fn probe_sweep(&self) {
        sweep(&self.inner);
    }

    /// Stops accepting, finishes in-flight exchanges, joins every thread.
    pub fn shutdown(self) {
        *self.inner.prober_stop.lock().expect("prober lock poisoned") = true;
        self.inner.prober_wake.notify_all();
        self.connections.shutdown();
        let _ = self.prober.join();
    }
}

/// Starts a router over `workers` (the worker fleet's addresses).
///
/// Boot performs one synchronous probe of every worker: the sequencer's
/// committed epoch becomes the **highest** epoch any ready worker reports,
/// workers already there are routable immediately, and stragglers are left
/// to the prober. At least one worker must answer its boot probe — a router
/// with no reachable fleet cannot sequence anything.
pub fn start(workers: &[SocketAddr], config: RouterConfig) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let pool = BackendPool::new(
        workers,
        config.vnodes,
        config.connect_timeout,
        config.io_timeout,
        POOL_IDLE,
    )?;

    // Boot sync: find the fleet's frontier.
    let mut observations = Vec::with_capacity(pool.len());
    let mut frontier = None;
    for index in 0..pool.len() {
        let observation = pool.get(index).observe();
        if let Observation::Ready(health) = observation {
            frontier = Some(frontier.map_or(health.epoch, |f: u64| f.max(health.epoch)));
        }
        observations.push(observation);
    }
    let Some(committed) = frontier else {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "no worker answered its boot health probe",
        ));
    };
    let sequencer = Sequencer::new(
        committed,
        pool.len(),
        REPLICATION_LOG,
        COMMIT_RETRIES,
        config.retry_backoff,
    );
    for (index, observation) in observations.into_iter().enumerate() {
        if let Observation::Ready(health) = observation {
            let ok = sequencer.reconcile(&pool, index, health.epoch, health.fingerprint);
            pool.get(index).set_healthy(ok);
        }
    }

    let limits = Limits {
        workers: config.workers,
        max_pending_connections: config.max_pending_connections,
        max_body_bytes: config.max_body_bytes,
        read_timeout: config.read_timeout,
        request_budget: config.request_budget,
    };
    let inner = Arc::new(Inner {
        config,
        pool,
        sequencer,
        metrics: RouterMetrics::default(),
        prober_stop: Mutex::new(false),
        prober_wake: Condvar::new(),
    });
    let connections = serve::start(listener, Arc::clone(&inner), limits)?;
    let prober = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || prober_loop(&inner))
    };
    Ok(RouterHandle {
        inner,
        connections,
        prober,
    })
}

fn backend_json(inner: &Inner, index: usize) -> String {
    let backend = inner.pool.get(index);
    format!(
        "{{\"addr\":\"{}\",\"healthy\":{},\"ready\":{},\"epoch\":{},\
         \"fingerprint\":\"{:016x}\",\"acked\":{},\"failures\":{},\
         \"routed_batches\":{},\"routed_requests\":{},\"idle_connections\":{}}}",
        backend.addr(),
        backend.is_healthy(),
        backend.is_ready(),
        backend.epoch(),
        backend.fingerprint(),
        inner.sequencer.acked(index),
        backend.failures(),
        backend.routed_batches(),
        backend.routed_requests(),
        backend.pool().idle_connections(),
    )
}

impl Endpoints for Inner {
    fn healthz(&self) -> Response {
        let healthy = self.pool.healthy_count();
        let backends: Vec<String> = (0..self.pool.len())
            .map(|i| backend_json(self, i))
            .collect();
        let body = format!(
            "{{\"status\":\"{}\",\"role\":\"router\",\"epoch\":{},\"workers\":{},\
             \"healthy\":{},\"backends\":[{}]}}",
            if healthy > 0 { "ok" } else { "unavailable" },
            self.sequencer.committed(),
            self.pool.len(),
            healthy,
            backends.join(",")
        );
        (if healthy > 0 { 200 } else { 503 }, Vec::new(), body)
    }

    fn metrics(&self, http: &HttpMetrics) -> Response {
        let m = &self.metrics;
        let counter = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let backends: Vec<String> = (0..self.pool.len())
            .map(|i| backend_json(self, i))
            .collect();
        let body = format!(
            "{{\"router\":{{\"epoch\":{},\"workers\":{},\"healthy\":{},\
             \"replication_log\":{}}},\
             \"http\":{},\
             \"explain\":{{\"batches\":{},\"requests\":{},\"sub_batches\":{},\
             \"reroutes\":{},\"gate_held\":{},\"gate_unavailable\":{},\
             \"shard_unavailable_slots\":{}}},\
             \"commit\":{{\"applied\":{},\"rejected\":{},\"unavailable\":{},\
             \"fanout_failures\":{},\"catch_ups\":{}}},\
             \"backends\":[{}]}}",
            self.sequencer.committed(),
            self.pool.len(),
            self.pool.healthy_count(),
            self.sequencer.log_len(),
            http.json(),
            counter(&m.explain_batches),
            counter(&m.explain_requests),
            counter(&m.routed_subbatches),
            counter(&m.reroutes),
            counter(&m.gate_held),
            counter(&m.gate_unavailable),
            counter(&m.shard_unavailable_slots),
            counter(&m.commits),
            counter(&m.commit_rejected),
            counter(&m.commit_unavailable),
            counter(&m.fanout_failures),
            counter(&m.catch_ups),
            backends.join(",")
        );
        (200, Vec::new(), body)
    }

    fn explain(&self, request: &HttpRequest) -> Result<Response, WireError> {
        // The read-your-writes floor, if the client set one.
        let min_epoch = match request.header("x-exes-min-epoch") {
            None => 0,
            Some(raw) => raw.trim().parse::<u64>().map_err(|_| {
                WireError::new("bad_request", "X-Exes-Min-Epoch must be an integer")
            })?,
        };

        // Structural validation — identical verdicts (and bytes) to a
        // worker's: bad JSON, a missing `requests` key, or a non-array fail
        // the body; any per-entry problem is the *worker's* to report in
        // that entry's slot.
        let (text, parsed) = serve::json_body(request)?;
        let entries = wire::explain_entries(&parsed)?;
        let slots = proxy::object_value_span(text, "requests").and_then(proxy::split_top_level);
        let Some(slots) = slots.filter(|slots| slots.len() == entries.len()) else {
            // Parsed and raw views disagreeing would be a router bug; refuse
            // loudly rather than route a body we cannot faithfully split.
            return Ok((
                500,
                Vec::new(),
                WireError::new("internal", "request body could not be sliced for routing")
                    .to_json(),
            ));
        };

        self.metrics.explain_batches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .explain_requests
            .fetch_add(entries.len() as u64, Ordering::Relaxed);

        // A floor above everything the router ever sequenced names an epoch
        // that may exist nowhere; tell the client immediately instead of
        // holding every shard against an unreachable bar.
        let committed = self.sequencer.committed();
        if min_epoch > committed {
            self.metrics
                .gate_unavailable
                .fetch_add(1, Ordering::Relaxed);
            return Ok((
                503,
                vec![("Retry-After", "1".to_string())],
                WireError::new(
                    "epoch_unavailable",
                    format!("requested min epoch {min_epoch}, but the fleet is at {committed}"),
                )
                .to_json(),
            ));
        }

        // Each entry's routable workers in its key's ring order. Entries too
        // malformed to even read the key fields key as ("", 0) — some worker
        // still answers their slots with exactly the wire errors it would
        // have produced unrouted.
        let routes: Vec<Vec<usize>> = entries
            .iter()
            .map(|entry| {
                let model = entry.get("model").and_then(Json::as_str).unwrap_or("");
                let subject = entry.get("subject").and_then(Json::as_u64).unwrap_or(0);
                self.pool.route(HashRing::key(model, subject))
            })
            .collect();
        // One sub-batch per first routable worker: on a healthy fleet, one
        // per owning shard.
        let shards = group_by_worker(self.pool.len(), 0..entries.len(), |i| {
            routes[i].first().copied()
        });
        self.metrics
            .routed_subbatches
            .fetch_add(shards.len() as u64, Ordering::Relaxed);

        // Fan out: every shard forwards (and epoch-gates) concurrently, so a
        // multi-shard batch costs one worker round-trip of wall clock, not N.
        let (routes, slots) = (&routes, &slots);
        let answered: Vec<(Vec<usize>, HttpResponse)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(worker, indices)| {
                    scope.spawn(move || run_shard(self, worker, indices, routes, slots, min_epoch))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().unwrap_or_default())
                .collect()
        });

        // A batch one worker answered whole with an error passes the
        // worker's verdict through untouched (503 shed with its Retry-After,
        // etc.) — the router must not convert back-pressure into fake
        // results.
        if let [(indices, response)] = answered.as_slice() {
            if response.status != 200 && indices.len() == entries.len() {
                let mut headers = Vec::new();
                if let Some(retry) = response.header("retry-after") {
                    headers.push(("Retry-After", retry.to_string()));
                }
                return Ok((response.status, headers, response.body.clone()));
            }
        }

        // Splice answered sub-batches back into request order; unanswered
        // slots become structured per-slot errors, exactly like the worker's
        // own per-request degradation.
        let answers: Vec<_> = answered
            .iter()
            .filter(|(_, response)| response.status == 200)
            .filter_map(|(indices, response)| proxy::slice_worker_response(&response.body, indices))
            .collect();
        let lost_slots = entries.len() - answers.iter().map(|a| a.slots.len()).sum::<usize>();
        self.metrics
            .shard_unavailable_slots
            .fetch_add(lost_slots as u64, Ordering::Relaxed);
        let fill = WireError::new(
            "shard_unavailable",
            "the worker shard owning this request could not answer; retry",
        )
        .to_json();
        let body = proxy::assemble_response(entries.len(), &answers, &fill, committed);
        Ok((200, Vec::new(), body))
    }

    fn commit(&self, request: &HttpRequest) -> Result<Response, WireError> {
        // Wire-validate before sequencing: malformed batches 400 here with
        // the worker's exact error codes and consume no epoch anywhere.
        let (text, parsed) = serve::json_body(request)?;
        wire::parse_update_batch(&parsed)?;
        Ok(match self.sequencer.commit(&self.pool, text) {
            CommitOutcome::Applied { body, failed, .. } => {
                self.metrics.commits.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .fanout_failures
                    .fetch_add(failed as u64, Ordering::Relaxed);
                (200, Vec::new(), body)
            }
            CommitOutcome::Rejected(response) => {
                self.metrics.commit_rejected.fetch_add(1, Ordering::Relaxed);
                (response.status, Vec::new(), response.body)
            }
            CommitOutcome::Unavailable => {
                self.metrics
                    .commit_unavailable
                    .fetch_add(1, Ordering::Relaxed);
                (
                    503,
                    vec![("Retry-After", "1".to_string())],
                    WireError::new("no_healthy_worker", "no worker could lead this commit")
                        .to_json(),
                )
            }
        })
    }
}

/// Groups request indices by the worker `pick` sends each to, in worker
/// order; an index `pick` places nowhere joins no group.
fn group_by_worker(
    fleet: usize,
    indices: impl IntoIterator<Item = usize>,
    pick: impl Fn(usize) -> Option<usize>,
) -> Vec<(usize, Vec<usize>)> {
    let mut groups = vec![Vec::new(); fleet];
    for index in indices {
        if let Some(worker) = pick(index) {
            groups[worker].push(index);
        }
    }
    groups
        .into_iter()
        .enumerate()
        .filter(|(_, group)| !group.is_empty())
        .collect()
}

/// Forwards one sub-batch to `worker`, the first routable worker on each of
/// its entries' ring orders: hold for `worker` to reach `min_epoch`, then
/// forward. When the hold times out or the worker dies mid-request, each
/// entry fails over once to the next routable worker along its own ring
/// order that is already at the floor. Returns the answered parts; indices
/// in none of them render as `shard_unavailable` slots.
fn run_shard(
    inner: &Inner,
    worker: usize,
    indices: Vec<usize>,
    routes: &[Vec<usize>],
    slots: &[&str],
    min_epoch: u64,
) -> Vec<(Vec<usize>, HttpResponse)> {
    if reaches_floor(inner, worker, min_epoch) {
        if let Some(response) = forward(inner, worker, &indices, slots) {
            return vec![(indices, response)];
        }
    }
    let fallback = |index: usize| {
        routes[index].iter().copied().find(|&candidate| {
            let backend = inner.pool.get(candidate);
            candidate != worker && backend.is_healthy() && backend.epoch() >= min_epoch
        })
    };
    group_by_worker(inner.pool.len(), indices, fallback)
        .into_iter()
        .filter_map(|(next, indices)| {
            inner.metrics.reroutes.fetch_add(1, Ordering::Relaxed);
            forward(inner, next, &indices, slots).map(|response| (indices, response))
        })
        .collect()
}

/// Whether `worker` serves at least `min_epoch`. A worker whose observed
/// epoch lags the floor — usually just a stale observation, or a fan-out
/// landing right now — is held for: re-probed every `gate_poll`, up to
/// `gate_wait`.
fn reaches_floor(inner: &Inner, worker: usize, min_epoch: u64) -> bool {
    let backend = inner.pool.get(worker);
    if backend.epoch() >= min_epoch {
        return true;
    }
    inner.metrics.gate_held.fetch_add(1, Ordering::Relaxed);
    let deadline = Instant::now() + inner.config.gate_wait;
    loop {
        if matches!(backend.observe(), Observation::Ready(health) if health.epoch >= min_epoch) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(inner.config.gate_poll);
    }
}

/// POSTs the entries at `indices` to `worker`, spliced verbatim from the
/// client's own request bytes. A transport failure quarantines the worker —
/// the prober heals it from the replication log when it returns — and
/// answers `None`.
fn forward(
    inner: &Inner,
    worker: usize,
    indices: &[usize],
    slots: &[&str],
) -> Option<HttpResponse> {
    let backend = inner.pool.get(worker);
    let spliced: Vec<&str> = indices.iter().map(|&i| slots[i]).collect();
    let body = format!("{{\"requests\":[{}]}}", spliced.join(","));
    let Ok(response) = backend.pool().post("/explain", &body) else {
        backend.set_healthy(false);
        return None;
    };
    if response.status == 200 {
        backend.count_routed(indices.len());
        if let Some(epoch) = proxy::object_value_span(&response.body, "epoch")
            .and_then(|span| span.trim().parse::<u64>().ok())
        {
            backend.advance_epoch(epoch);
        }
    }
    Some(response)
}

/// One health sweep over the fleet: probe, reconcile (replay lagging
/// workers from the replication log), settle health verdicts.
fn sweep(inner: &Inner) {
    for index in 0..inner.pool.len() {
        let backend = inner.pool.get(index);
        match backend.observe() {
            Observation::Ready(health) => {
                let lagging = health.epoch < inner.sequencer.committed();
                let ok =
                    inner
                        .sequencer
                        .reconcile(&inner.pool, index, health.epoch, health.fingerprint);
                backend.set_healthy(ok);
                if ok && lagging {
                    inner.metrics.catch_ups.fetch_add(1, Ordering::Relaxed);
                }
            }
            Observation::Recovering => backend.set_healthy(false),
            Observation::Down => {
                if backend.failures() >= inner.config.unhealthy_after {
                    backend.set_healthy(false);
                }
            }
        }
    }
}

fn prober_loop(inner: &Inner) {
    loop {
        let stop = inner.prober_stop.lock().expect("prober lock poisoned");
        let (stop, _) = inner
            .prober_wake
            .wait_timeout_while(stop, inner.config.health_interval, |stop| !*stop)
            .expect("prober lock poisoned");
        if *stop {
            return;
        }
        // Sweep unlocked, so a shutdown never waits on worker probes.
        drop(stop);
        sweep(inner);
    }
}
