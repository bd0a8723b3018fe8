//! The bounded admission queue and micro-batch assembly.
//!
//! This is the heart of the serving story: connections do not call the
//! explanation engine directly — they enqueue parsed requests as a [`Job`]
//! and the queue's batcher thread drains it in **micro-batches** (whatever
//! is queued when it wakes, up to `max_batch` requests) into one
//! [`exes_core::ExesService::explain`] call. A lone request is answered
//! without waiting for company; requests that arrive while a batch computes
//! ride the next one together. Concurrent
//! users asking about the same query therefore land in the *same* engine
//! batch, where the service's cross-request dedup and shared probe cache
//! eliminate their duplicate probes — machinery that only pays off if the
//! front door aggregates traffic instead of trickling it through one call at
//! a time.
//!
//! The queue is **bounded by request count**: once `capacity` requests are
//! waiting, [`AdmissionQueue::push`] refuses with [`PushError::Full`] and the
//! caller sheds the request (HTTP 503 + `Retry-After`) instead of buffering
//! without limit. Load shedding at admission keeps memory bounded and keeps
//! queueing latency visible to clients, which is what lets them back off.

use exes_core::{Explanation, ExplanationRequest, RequestError, ServiceReport};
use exes_graph::GraphSnapshot;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// What the batcher sends back for one job: the job's slice of the
/// micro-batch results (position-stable), the report of the micro-batch it
/// rode in, and the graph snapshot the batch was answered against — response
/// serialisation must render names through *that* epoch's vocabulary, not
/// whatever epoch is current by the time the worker writes bytes.
pub type JobOutcome = (
    Vec<Result<Explanation, RequestError>>,
    ServiceReport,
    Arc<GraphSnapshot>,
);

/// One wire batch waiting for the batcher.
#[derive(Debug)]
pub struct Job {
    /// The validated requests of one `POST /explain` body.
    pub requests: Vec<ExplanationRequest>,
    /// Where the connection worker blocks for the outcome.
    pub respond: mpsc::Sender<JobOutcome>,
}

/// Which admission lane a job rides: jobs whose every request finds a
/// memoised reference probe or plan in the probe cache take the fast lane;
/// jobs containing any cold request take the slow lane, so one expensive
/// cold search cannot sit in front of a hundred cache-warm lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Warm traffic: small queue latency is the SLO.
    Fast,
    /// Cold traffic: throughput matters, tail latency is expected.
    Slow,
}

impl Lane {
    /// The lane's wire tag (`"fast"` / `"slow"`).
    pub fn tag(self) -> &'static str {
        match self {
            Lane::Fast => "fast",
            Lane::Slow => "slow",
        }
    }
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` requests already — shed this one.
    Full,
    /// The server is shutting down and accepts no new work.
    Closed,
}

struct State {
    jobs: VecDeque<Job>,
    /// Total requests across `jobs` (the bounded quantity).
    queued_requests: usize,
    closed: bool,
}

/// A bounded multi-producer queue drained in micro-batches by one consumer.
pub struct AdmissionQueue {
    state: Mutex<State>,
    /// Signalled on push and on close.
    arrived: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` requests at a time (clamped to
    /// at least 1 — a zero-capacity queue would shed every request forever
    /// while the server reports healthy).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                queued_requests: 0,
                closed: false,
            }),
            arrived: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission limit, in requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently waiting (a gauge for `/metrics`).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").queued_requests
    }

    /// Enqueues a job, or refuses it when the queue is full or closed.
    ///
    /// Admission is all-or-nothing per job: a wire batch never gets half
    /// accepted. A job larger than the whole capacity is still admitted when
    /// the queue is empty — otherwise clients could never send it at all.
    pub fn push(&self, job: Job) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed);
        }
        let incoming = job.requests.len();
        // All-or-nothing per job, with one exception: a job larger than the
        // entire capacity is admitted into an empty queue (otherwise it could
        // never be sent at all).
        if state.queued_requests + incoming > self.capacity && state.queued_requests > 0 {
            return Err(PushError::Full);
        }
        state.queued_requests += incoming;
        state.jobs.push_back(job);
        drop(state);
        self.arrived.notify_one();
        Ok(())
    }

    /// Blocks for the next micro-batch: waits for a first job, then takes
    /// whatever else is queued, up to `max_batch` requests, without waiting
    /// for more. Jobs that arrive while the batch computes are queued for
    /// the next one, so under load batches grow on their own. Returns `None`
    /// only when the queue is closed **and** drained — every admitted job is
    /// handed to the batcher exactly once, so graceful shutdown answers all
    /// in-flight work.
    pub fn next_batch(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut state = self.state.lock().expect("queue poisoned");
        while state.jobs.is_empty() {
            if state.closed {
                return None;
            }
            state = self.arrived.wait(state).expect("queue poisoned");
        }
        let mut batch = Vec::new();
        let mut collected = 0usize;
        while collected < max_batch.max(1) {
            match state.jobs.pop_front() {
                Some(job) => {
                    collected += job.requests.len();
                    batch.push(job);
                }
                None => break,
            }
        }
        state.queued_requests -= collected.min(state.queued_requests);
        drop(state);
        Some(batch)
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`], and
    /// the batcher drains what was already admitted before `next_batch`
    /// returns `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_core::{ExplanationKind, ModelRegistry, ModelSpec};
    use exes_graph::{PersonId, Query, SkillVocab};
    use std::sync::Arc;

    fn request() -> ExplanationRequest {
        let vocab: SkillVocab = ["db".to_string()].into_iter().collect();
        let query = Arc::new(Query::parse("db", &vocab).unwrap());
        let mut reg = ModelRegistry::new();
        let model = reg
            .register(
                "m",
                ModelSpec::expert_ranker(exes_expert_search::TfIdfRanker::default(), 1),
            )
            .unwrap();
        ExplanationRequest::new(
            model,
            PersonId(0),
            query,
            ExplanationKind::CounterfactualSkills,
        )
    }

    fn job(n: usize) -> (Job, mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                requests: std::iter::repeat_with(request).take(n).collect(),
                respond: tx,
            },
            rx,
        )
    }

    #[test]
    fn bounded_admission_sheds_and_recovers() {
        let queue = AdmissionQueue::new(3);
        assert_eq!(queue.capacity(), 3);
        let (a, _ra) = job(2);
        let (b, _rb) = job(1);
        let (c, _rc) = job(1);
        queue.push(a).unwrap();
        queue.push(b).unwrap();
        assert_eq!(queue.depth(), 3);
        // Full: the next request is shed, not buffered.
        assert_eq!(queue.push(c).unwrap_err(), PushError::Full);

        // Draining frees capacity again.
        let batch = queue.next_batch(16).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(queue.depth(), 0);
        let (d, _rd) = job(3);
        queue.push(d).unwrap();
    }

    #[test]
    fn oversized_jobs_are_admitted_only_into_an_empty_queue() {
        let queue = AdmissionQueue::new(2);
        let (big, _r) = job(5);
        queue.push(big).unwrap();
        let (next, _r2) = job(1);
        assert_eq!(queue.push(next).unwrap_err(), PushError::Full);
        assert_eq!(queue.next_batch(1).unwrap().len(), 1);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn micro_batches_merge_concurrent_jobs_up_to_max_batch() {
        let queue = AdmissionQueue::new(100);
        for _ in 0..5 {
            let (j, _r) = job(2);
            std::mem::forget(_r);
            queue.push(j).unwrap();
        }
        // 5 jobs × 2 requests, max_batch 6 → first batch takes 3 jobs.
        let batch = queue.next_batch(6).unwrap();
        assert_eq!(batch.len(), 3);
        let batch = queue.next_batch(6).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn a_lone_job_is_handed_over_without_waiting() {
        let queue = Arc::new(AdmissionQueue::new(100));
        let (first, _r1) = job(1);
        queue.push(first).unwrap();
        let (pushed, taken) = mpsc::channel();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                // Push the second job only once the first is handed over,
                // and 200 ms later still.
                taken.recv().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(200));
                let (second, r2) = job(1);
                queue.push(second).unwrap();
                r2
            })
        };
        let started = std::time::Instant::now();
        let batch = queue.next_batch(10).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(started.elapsed() < std::time::Duration::from_millis(200));
        pushed.send(()).unwrap();
        // The late job is the next batch, on its own.
        assert_eq!(queue.next_batch(10).unwrap().len(), 1);
        producer.join().unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = AdmissionQueue::new(10);
        let (a, _ra) = job(1);
        queue.push(a).unwrap();
        queue.close();
        let (b, _rb) = job(1);
        assert_eq!(queue.push(b).unwrap_err(), PushError::Closed);
        // The admitted job is still handed out, then the queue ends.
        assert_eq!(queue.next_batch(4).unwrap().len(), 1);
        assert!(queue.next_batch(4).is_none());
    }

    #[test]
    fn empty_jobs_cost_no_capacity() {
        let queue = AdmissionQueue::new(1);
        let (a, _ra) = job(1);
        queue.push(a).unwrap();
        // A zero-request job (all entries failed wire validation upstream)
        // is never constructed by the server, but the queue tolerates it.
        let (empty, _re) = job(0);
        queue.push(empty).unwrap();
        assert_eq!(queue.depth(), 1);
    }
}
