//! Per-worker state: a connection pool plus the router's latest belief about
//! the worker's health and replication position.
//!
//! A [`Backend`] is deliberately dumb — atomics updated by whoever talked to
//! the worker last (the health prober, the commit fan-out, an explain
//! forward). *Policy* — when a worker counts as routable, when a lagging one
//! gets replayed the missed epochs, when a divergent one is quarantined —
//! lives in [`crate::sequencer`] and the prober loop, which read and write
//! this state.

use crate::ring::HashRing;
use exes_server::client::ClientPool;
use exes_server::json;
use exes_server::wire::{self, WorkerHealth};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// What one `GET /healthz` probe observed.
#[derive(Debug, Clone, Copy)]
pub enum Observation {
    /// 200 with a parseable identity: the worker is alive and serving.
    Ready(WorkerHealth),
    /// 503 `{"status":"recovering",...}`: alive but must not serve explains.
    Recovering,
    /// Transport error or nonsense body: presumed down.
    Down,
}

/// One worker as the router sees it.
pub struct Backend {
    addr: SocketAddr,
    pool: ClientPool,
    /// Routable: alive, ready, caught up to the router's committed epoch and
    /// fingerprint-consistent with the fleet. Only the prober and the commit
    /// path flip this.
    healthy: AtomicBool,
    /// Last readiness observed on the worker itself (healthz 200 vs 503).
    ready: AtomicBool,
    /// Highest epoch this worker has been observed (or acked a commit) at.
    epoch: AtomicU64,
    /// Chained graph fingerprint reported at `epoch`.
    fingerprint: AtomicU64,
    /// Consecutive failed probes; at `unhealthy_after` the worker is marked
    /// unroutable until a probe succeeds again.
    consecutive_failures: AtomicU32,
    /// Explain sub-batches this worker answered (a routing-skew gauge).
    routed_batches: AtomicU64,
    /// Explain requests this worker answered.
    routed_requests: AtomicU64,
}

impl Backend {
    /// Wraps `addr` with a fresh pool; believed healthy until probed.
    pub fn new(
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Duration,
        max_idle: usize,
    ) -> Self {
        Backend {
            addr,
            pool: ClientPool::with_limits(addr, Some(connect_timeout), Some(io_timeout), max_idle),
            healthy: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            fingerprint: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            routed_batches: AtomicU64::new(0),
            routed_requests: AtomicU64::new(0),
        }
    }

    /// The worker's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pooled connections to this worker.
    pub fn pool(&self) -> &ClientPool {
        &self.pool
    }

    /// Routable right now?
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Marks the worker (un)routable.
    pub fn set_healthy(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::SeqCst);
    }

    /// Worker-reported readiness from the last successful probe.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Highest observed/acked epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Fingerprint reported at [`Backend::epoch`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.load(Ordering::SeqCst)
    }

    /// Consecutive failed probes so far.
    pub fn failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::SeqCst)
    }

    /// Ratchets the observed epoch forward (never backward — stale healthz
    /// bodies racing a commit ack must not rewind the belief).
    pub fn advance_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Counts one answered explain sub-batch of `requests` requests.
    pub fn count_routed(&self, requests: usize) {
        self.routed_batches.fetch_add(1, Ordering::Relaxed);
        self.routed_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
    }

    /// Answered sub-batches (gauge).
    pub fn routed_batches(&self) -> u64 {
        self.routed_batches.load(Ordering::Relaxed)
    }

    /// Answered requests (gauge).
    pub fn routed_requests(&self) -> u64 {
        self.routed_requests.load(Ordering::Relaxed)
    }

    /// Probes `GET /healthz` once and folds the result into this state:
    /// epoch/fingerprint/ready on success, the failure counter otherwise.
    /// Does **not** touch `healthy` — that verdict needs fleet context
    /// (committed epoch, expected fingerprint) the prober owns.
    pub fn observe(&self) -> Observation {
        let response = match self.pool.get("/healthz") {
            Ok(response) => response,
            Err(_) => {
                self.consecutive_failures.fetch_add(1, Ordering::SeqCst);
                self.ready.store(false, Ordering::SeqCst);
                return Observation::Down;
            }
        };
        let parsed = json::parse(&response.body)
            .ok()
            .as_ref()
            .and_then(wire::healthz_from_json);
        match (response.status, parsed) {
            (200, Some(health)) if health.ready => {
                self.consecutive_failures.store(0, Ordering::SeqCst);
                self.ready.store(true, Ordering::SeqCst);
                self.advance_epoch(health.epoch);
                self.fingerprint.store(health.fingerprint, Ordering::SeqCst);
                Observation::Ready(health)
            }
            (503, _) => {
                // Alive but recovering: not a liveness failure, but not
                // routable either.
                self.consecutive_failures.store(0, Ordering::SeqCst);
                self.ready.store(false, Ordering::SeqCst);
                Observation::Recovering
            }
            _ => {
                self.consecutive_failures.fetch_add(1, Ordering::SeqCst);
                self.ready.store(false, Ordering::SeqCst);
                Observation::Down
            }
        }
    }
}

/// The worker fleet plus the ring that shards keys across it.
pub struct BackendPool {
    backends: Vec<Backend>,
    ring: HashRing,
}

impl BackendPool {
    /// Builds one [`Backend`] per address and the ring over them.
    pub fn new(
        addrs: &[SocketAddr],
        vnodes: usize,
        connect_timeout: Duration,
        io_timeout: Duration,
        max_idle: usize,
    ) -> io::Result<Self> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one worker address",
            ));
        }
        Ok(BackendPool {
            backends: addrs
                .iter()
                .map(|&addr| Backend::new(addr, connect_timeout, io_timeout, max_idle))
                .collect(),
            ring: HashRing::new(addrs.len(), vnodes),
        })
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True only for the degenerate empty pool (which `new` refuses).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The worker at `index`.
    pub fn get(&self, index: usize) -> &Backend {
        &self.backends[index]
    }

    /// The sharding ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Routable workers right now.
    pub fn healthy_count(&self) -> usize {
        self.backends.iter().filter(|b| b.is_healthy()).count()
    }

    /// The ring's failover preference for `key`, filtered to routable
    /// workers. Empty means no worker can take the request.
    pub fn route(&self, key: u64) -> Vec<usize> {
        self.ring
            .preference(key)
            .into_iter()
            .filter(|&i| self.backends[i].is_healthy())
            .collect()
    }
}
