//! Forwarding timing wrappers around the black boxes ExES explains, used by
//! the traced run only.
//!
//! Each wrapper forwards *every* trait method — defaults included — to the
//! wrapped model, so model names, parameter hashes (and with them probe-cache
//! keys and model fingerprints) and every per-model override stay exactly as
//! served. Calls that do work are recorded as spans in a per-thread buffer;
//! [`drain`] collects every thread's buffer when the run ends.

use exes_expert_search::{ExpertRanker, RankedList, RankerBaseline};
use exes_graph::{CollabGraph, GraphView, PersonId, PerturbedGraph, Query};
use exes_linkpred::LinkPredictor;
use exes_team::{Team, TeamFormer};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer a span belongs to: one registered model's black box, or the
/// explainer's link predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The ranker of the model registered under this name.
    Ranker(&'static str),
    /// The team model (its former and its beam-ordering signal ranker).
    Team,
    LinkPred,
}

/// Which entry point a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `rank_all`, `rank_of`, `is_relevant`: a full re-rank.
    Full,
    /// `score` of one person.
    Score,
    /// `incremental_rank_of`, answered.
    Incremental,
    /// `incremental_rank_of`, declined (the caller falls back to a full pass).
    Declined,
    /// `build_baseline`.
    Baseline,
    /// `form_team`, `is_member`.
    Form,
    /// Link-predictor `score`, `top_candidates`.
    Link,
}

/// One timed call: its layer, entry point and duration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub op: Op,
    pub dur_ns: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

/// Every thread's buffer, registered on the thread's first span so spans
/// survive the thread's exit.
fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

fn record(layer: Layer, op: Op, started: Instant) {
    let dur_ns = started.elapsed().as_nanos() as u64;
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer = Buffer::default();
            buffers()
                .lock()
                .expect("trace registry poisoned")
                .push(Arc::clone(&buffer));
            buffer
        });
        buffer
            .lock()
            .expect("trace buffer poisoned")
            .push(Span { layer, op, dur_ns });
    });
}

fn timed<T>(layer: Layer, op: Op, call: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = call();
    record(layer, op, started);
    out
}

/// Takes every span recorded so far, on every thread.
pub fn drain() -> Vec<Span> {
    let registry = buffers().lock().expect("trace registry poisoned");
    registry
        .iter()
        .flat_map(|buffer| std::mem::take(&mut *buffer.lock().expect("trace buffer poisoned")))
        .collect()
}

/// A model wrapped so every call into it is timed under `layer`.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    inner: T,
    layer: Layer,
}

impl<T> Timed<T> {
    pub fn new(inner: T, layer: Layer) -> Self {
        Timed { inner, layer }
    }
}

impl<R: ExpertRanker> ExpertRanker for Timed<R> {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> f64 {
        timed(self.layer, Op::Score, || {
            self.inner.score(graph, query, person)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        self.inner.hash_params(state)
    }

    fn rank_all<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> RankedList {
        timed(self.layer, Op::Full, || self.inner.rank_all(graph, query))
    }

    fn rank_of<G: GraphView + ?Sized>(&self, graph: &G, query: &Query, person: PersonId) -> usize {
        timed(self.layer, Op::Full, || {
            self.inner.rank_of(graph, query, person)
        })
    }

    fn is_relevant<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        person: PersonId,
        k: usize,
    ) -> bool {
        timed(self.layer, Op::Full, || {
            self.inner.is_relevant(graph, query, person, k)
        })
    }

    fn build_baseline(&self, graph: &CollabGraph, query: &Query) -> Option<RankerBaseline> {
        timed(self.layer, Op::Baseline, || {
            self.inner.build_baseline(graph, query)
        })
    }

    fn incremental_rank_of(
        &self,
        baseline: &RankerBaseline,
        view: &PerturbedGraph<'_>,
        query: &Query,
        person: PersonId,
    ) -> Option<usize> {
        let started = Instant::now();
        let rank = self
            .inner
            .incremental_rank_of(baseline, view, query, person);
        let op = if rank.is_some() {
            Op::Incremental
        } else {
            Op::Declined
        };
        record(self.layer, op, started);
        rank
    }
}

impl<F: TeamFormer> TeamFormer for Timed<F> {
    fn form_team<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
    ) -> Team {
        timed(self.layer, Op::Form, || {
            self.inner.form_team(graph, query, seed)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn hash_params(&self, state: &mut dyn std::hash::Hasher) {
        self.inner.hash_params(state)
    }

    fn is_member<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        query: &Query,
        seed: Option<PersonId>,
        person: PersonId,
    ) -> bool {
        timed(self.layer, Op::Form, || {
            self.inner.is_member(graph, query, seed, person)
        })
    }
}

impl<L: LinkPredictor> LinkPredictor for Timed<L> {
    fn score<G: GraphView + ?Sized>(&self, graph: &G, a: PersonId, b: PersonId) -> f64 {
        timed(self.layer, Op::Link, || self.inner.score(graph, a, b))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn top_candidates<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        center: PersonId,
        candidates: &[PersonId],
        t: usize,
    ) -> Vec<(PersonId, f64)> {
        timed(self.layer, Op::Link, || {
            self.inner.top_candidates(graph, center, candidates, t)
        })
    }
}
