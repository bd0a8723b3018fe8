//! Ordered epoch replication: the router's commit sequencer.
//!
//! Workers are state machines over the same deterministic transition
//! (`UpdateBatch` application); replicas that apply **the same batches in
//! the same order** end at the same graph, and the store's *chained*
//! fingerprint certifies it. The sequencer is the single writer that
//! enforces that order:
//!
//! 1. every `POST /commit` is serialized through one mutex — epoch `N+1`
//!    starts nowhere before epoch `N` finished everywhere it could;
//! 2. the batch goes to a **leader** first (the first healthy worker). Only
//!    a leader *acceptance* advances the router's committed epoch; a
//!    deterministic rejection (409/400) is passed through with no epoch
//!    consumed, because every replica would reject it identically;
//! 3. the accepted body is fanned out to every other healthy worker, each
//!    of which must answer with exactly the expected epoch;
//! 4. accepted bodies are retained in a bounded **replication log**, so a
//!    worker that missed a fan-out (crash, timeout, overload) is replayed
//!    the gap in order when the health prober finds it lagging, instead of
//!    being thrown away;
//! 5. after the leader ack, the leader's `/healthz` fingerprint is recorded
//!    as the **expected fingerprint** of the new epoch — any worker that
//!    later reports a different fingerprint at an equal epoch has diverged
//!    (applied different state) and is quarantined rather than served from.
//!
//! Retries are deliberately paranoid: a commit POST that dies mid-flight
//! *may have been applied*. Blindly re-POSTing would double-apply. Instead
//! the worker's `/healthz` is consulted — epoch already at the target means
//! the ack was lost (success); epoch still one short means the batch cannot
//! have landed (safe to retry); anything else is divergence.

use crate::backend::BackendPool;
use exes_server::client::HttpResponse;
use exes_server::json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How one worker handled one replicated commit.
enum Replication {
    /// Worker applied the batch and is now at the target epoch. Carries the
    /// worker's commit response body when one was read (the ack can also be
    /// confirmed via `/healthz` after a lost response).
    Acked(Option<String>),
    /// Worker deterministically rejected the batch (409/400) — it did *not*
    /// advance.
    Rejected(HttpResponse),
    /// Worker could not be driven to the target epoch (down, diverged, or
    /// answered nonsense).
    Failed,
}

/// The sequencer's verdict on one client `POST /commit`.
pub enum CommitOutcome {
    /// The batch is now epoch `epoch` on the leader (and on `acked` workers
    /// in total); `body` is the leader's commit response, passed to the
    /// client verbatim.
    Applied {
        /// The epoch this commit published.
        epoch: u64,
        /// Leader commit-response body.
        body: String,
        /// Workers (leader included) at `epoch` when the fan-out finished.
        acked: usize,
        /// Workers that missed the fan-out and were left to catch-up.
        failed: usize,
    },
    /// A deterministic rejection from the leader, passed through. No epoch
    /// was consumed and no worker advanced.
    Rejected(HttpResponse),
    /// No healthy worker could lead the commit.
    Unavailable,
}

struct SeqInner {
    /// Highest epoch the router has sequenced (== the leader's epoch after
    /// every successful commit).
    committed: u64,
    /// Ordered tail of accepted commit bodies: `(epoch, body)`, contiguous,
    /// ending at `committed`. Bounded; a worker lagging past the tail can
    /// no longer be healed from the log.
    log: VecDeque<(u64, Arc<String>)>,
    log_cap: usize,
    /// Per-worker replication positions: the highest epoch each worker has
    /// acked (or been observed at).
    acked: Vec<u64>,
    /// `(epoch, fingerprint)` the fleet is expected to report, recorded from
    /// the leader after each accepted commit. Same retention as `log`.
    expected: VecDeque<(u64, u64)>,
}

impl SeqInner {
    fn push_epoch(&mut self, epoch: u64, body: Arc<String>, fingerprint: Option<u64>) {
        self.log.push_back((epoch, body));
        while self.log.len() > self.log_cap {
            self.log.pop_front();
        }
        if let Some(fingerprint) = fingerprint {
            self.expected.push_back((epoch, fingerprint));
            while self.expected.len() > self.log_cap + 1 {
                self.expected.pop_front();
            }
        }
        self.committed = epoch;
    }

    fn expected_at(&self, epoch: u64) -> Option<u64> {
        self.expected
            .iter()
            .rev()
            .find(|(e, _)| *e == epoch)
            .map(|(_, fp)| *fp)
    }

    /// Records the fleet fingerprint at `epoch` if none is known yet;
    /// returns whether `fingerprint` agrees with the (now-)expected one.
    fn expect(&mut self, epoch: u64, fingerprint: u64) -> bool {
        match self.expected_at(epoch) {
            Some(expected) => expected == fingerprint,
            None => {
                self.expected.push_back((epoch, fingerprint));
                while self.expected.len() > self.log_cap + 1 {
                    self.expected.pop_front();
                }
                true
            }
        }
    }
}

/// The single-writer commit sequencer; see the module docs for the protocol.
pub struct Sequencer {
    inner: Mutex<SeqInner>,
    retries: u32,
    backoff: Duration,
}

impl Sequencer {
    /// A sequencer starting at `committed` (the fleet's boot epoch) with a
    /// replication log retaining `log_cap` commit bodies. `retries`/`backoff`
    /// bound how hard each worker is pushed per commit before it is left to
    /// the prober's catch-up path.
    pub fn new(
        committed: u64,
        workers: usize,
        log_cap: usize,
        retries: u32,
        backoff: Duration,
    ) -> Self {
        Sequencer {
            inner: Mutex::new(SeqInner {
                committed,
                log: VecDeque::new(),
                log_cap: log_cap.max(1),
                acked: vec![committed; workers],
                expected: VecDeque::new(),
            }),
            retries,
            backoff,
        }
    }

    /// The highest epoch the router has sequenced.
    pub fn committed(&self) -> u64 {
        self.lock().committed
    }

    /// Replication-log length (gauge).
    pub fn log_len(&self) -> usize {
        self.lock().log.len()
    }

    /// The epoch `worker` has acked up to (gauge).
    pub fn acked(&self, worker: usize) -> u64 {
        self.lock().acked[worker]
    }

    fn lock(&self) -> MutexGuard<'_, SeqInner> {
        self.inner.lock().expect("sequencer poisoned")
    }

    /// Sequences one commit body across the fleet. `body` must already be
    /// wire-validated (the router 400s malformed batches before they reach
    /// the sequencer, exactly as a worker would).
    pub fn commit(&self, pool: &BackendPool, body: &str) -> CommitOutcome {
        let mut inner = self.lock();
        let target = inner.committed + 1;
        let body = Arc::new(body.to_string());

        // Leader election is trivial: the first healthy worker that can be
        // brought to `committed` and then accepts the batch. Workers that
        // fail mid-attempt are quarantined and the next candidate tried.
        let mut leader = None;
        for index in 0..pool.len() {
            if !pool.get(index).is_healthy() {
                continue;
            }
            if !self.sync_to_committed(&mut inner, pool, index) {
                pool.get(index).set_healthy(false);
                continue;
            }
            match self.replicate_one(&mut inner, pool, index, &body, target) {
                Replication::Acked(response) => {
                    leader = Some((index, response));
                    break;
                }
                Replication::Rejected(response) => {
                    // Deterministic rejection: the graph refused the batch
                    // (or it conflicts with current state). Every replica
                    // would answer identically, so nothing was sequenced and
                    // the client sees the worker's own error body.
                    return CommitOutcome::Rejected(response);
                }
                Replication::Failed => {
                    pool.get(index).set_healthy(false);
                }
            }
        }
        let Some((leader, leader_body)) = leader else {
            return CommitOutcome::Unavailable;
        };

        // The new epoch's identity: the leader's post-commit fingerprint.
        // Best effort — if the probe fails the fingerprint is recorded by
        // the first prober pass that sees the leader instead.
        let fingerprint = match pool.get(leader).observe() {
            crate::backend::Observation::Ready(health) if health.epoch == target => {
                Some(health.fingerprint)
            }
            _ => None,
        };
        inner.push_epoch(target, Arc::clone(&body), fingerprint);

        // Fan out to everyone else — `target` is in the log now, so driving
        // a worker to `committed` replays exactly this commit (plus any gap
        // it was already missing). A worker that cannot be driven there is
        // marked unroutable; the prober replays it from the log once it
        // comes back.
        let mut acked = 1usize;
        let mut failed = 0usize;
        for index in 0..pool.len() {
            if index == leader || !pool.get(index).is_healthy() {
                continue;
            }
            if self.sync_to_committed(&mut inner, pool, index) {
                acked += 1;
            } else {
                failed += 1;
                pool.get(index).set_healthy(false);
            }
        }

        // A leader ack confirmed via /healthz after a lost response has no
        // commit body to echo; fall back to a minimal epoch-only response
        // (documented degraded form — the epoch is the part clients key on).
        let body = leader_body.unwrap_or_else(|| format!("{{\"epoch\":{target}}}"));
        CommitOutcome::Applied {
            epoch: target,
            body,
            acked,
            failed,
        }
    }

    /// Drives `worker` from its acked position to `inner.committed` by
    /// replaying the replication log in order. True when the worker ends at
    /// `committed`; false when it is unreachable, diverged, or has fallen
    /// off the log's tail.
    fn sync_to_committed(&self, inner: &mut SeqInner, pool: &BackendPool, worker: usize) -> bool {
        if inner.acked[worker] >= inner.committed {
            return true;
        }
        // The log must cover (acked, committed]; its front is the oldest
        // retained epoch. A worker lagging past the tail cannot be healed.
        match inner.log.front() {
            Some((oldest, _)) if *oldest <= inner.acked[worker] + 1 => {}
            _ => return false,
        }
        let gap: Vec<(u64, Arc<String>)> = inner
            .log
            .iter()
            .filter(|(epoch, _)| *epoch > inner.acked[worker])
            .cloned()
            .collect();
        for (epoch, body) in gap {
            match self.replicate_one(inner, pool, worker, &body, epoch) {
                Replication::Acked(_) => {}
                // A replayed body was already accepted fleet-wide once; a
                // rejection now means this worker's state differs.
                Replication::Rejected(_) | Replication::Failed => return false,
            }
        }
        inner.acked[worker] >= inner.committed
    }

    /// Pushes one body at one worker until it sits at `target`. See the
    /// module docs for why failed attempts consult `/healthz` instead of
    /// blindly re-POSTing.
    fn replicate_one(
        &self,
        inner: &mut SeqInner,
        pool: &BackendPool,
        worker: usize,
        body: &str,
        target: u64,
    ) -> Replication {
        let backend = pool.get(worker);
        for attempt in 0..=self.retries {
            if attempt > 0 {
                std::thread::sleep(self.backoff);
            }
            match backend.pool().post("/commit", body) {
                Ok(response) if response.status == 200 => {
                    let epoch = json::parse(&response.body)
                        .ok()
                        .and_then(|v| v.get("epoch").and_then(json::Json::as_u64));
                    return match epoch {
                        Some(epoch) if epoch == target => {
                            inner.acked[worker] = target;
                            backend.advance_epoch(target);
                            Replication::Acked(Some(response.body))
                        }
                        // Accepted but at the wrong epoch: this worker's
                        // history differs from the sequenced one. Quarantine.
                        _ => Replication::Failed,
                    };
                }
                Ok(response) if response.status == 409 || response.status == 400 => {
                    return Replication::Rejected(response);
                }
                // Overloaded/shedding (503) or anything else recoverable:
                // back off and retry the POST itself — the commit was not
                // admitted, so a retry cannot double-apply.
                Ok(_) => continue,
                Err(_) => {
                    // The POST died mid-flight: it may or may not have been
                    // applied. Ask the worker where it stands.
                    match backend.observe() {
                        crate::backend::Observation::Ready(health) if health.epoch == target => {
                            // Applied; only the response was lost.
                            inner.acked[worker] = target;
                            return Replication::Acked(None);
                        }
                        crate::backend::Observation::Ready(health)
                            if health.epoch + 1 == target =>
                        {
                            // Not applied — safe to retry the POST.
                            continue;
                        }
                        _ => return Replication::Failed,
                    }
                }
            }
        }
        Replication::Failed
    }

    /// The prober's healing half: called with a worker that answered a
    /// health probe at `observed_epoch`/`observed_fingerprint`. Replays any
    /// missed epochs from the log, checks fingerprint agreement, and returns
    /// whether the worker may be routed to again. The caller flips the
    /// `healthy` bit with the verdict.
    pub fn reconcile(
        &self,
        pool: &BackendPool,
        worker: usize,
        observed_epoch: u64,
        observed_fingerprint: u64,
    ) -> bool {
        let mut inner = self.lock();
        // The observation was taken before this lock, so a commit may have
        // landed since. Before believing a position *behind* our acked
        // record, look again: lowering the record on a stale observation
        // would replay a commit the worker already applied.
        let (observed_epoch, observed_fingerprint) = if observed_epoch < inner.acked[worker] {
            match pool.get(worker).observe() {
                crate::backend::Observation::Ready(health) => (health.epoch, health.fingerprint),
                _ => return false,
            }
        } else {
            (observed_epoch, observed_fingerprint)
        };
        if observed_epoch > inner.committed {
            // Ahead of the sequencer: something committed around the router.
            // Its history cannot be trusted to match the sequenced one.
            return false;
        }
        // The observation is the worker's real position — it may be *behind*
        // our acked record (e.g. a restore from an older snapshot) or ahead
        // of it (an ack we lost). Trust the worker.
        inner.acked[worker] = observed_epoch;
        if observed_epoch == inner.committed && !inner.expect(observed_epoch, observed_fingerprint)
        {
            return false; // diverged: same epoch, different state
        }
        if !self.sync_to_committed(&mut inner, pool, worker) {
            return false;
        }
        // Post-replay identity check: the worker must now agree with the
        // fleet fingerprint at `committed` (when one is known).
        if inner.acked[worker] == inner.committed {
            if let Some(expected) = inner.expected_at(inner.committed) {
                if let crate::backend::Observation::Ready(health) = pool.get(worker).observe() {
                    return health.epoch == inner.committed && health.fingerprint == expected;
                }
                return false;
            }
        }
        true
    }
}
