//! The batched probe engine: the one place where candidate perturbation sets
//! meet the black box — plus the memo cache that keeps them from meeting it
//! twice.
//!
//! ExES spends essentially all of its time here — every counterfactual
//! explanation issues hundreds to thousands of probes, each of which ranks the
//! whole (perturbed) graph. Probes are pure functions of `(graph, query,
//! perturbation set)`, so a batch of candidates can be scored on every core
//! the machine has. [`ProbeBatch::score`] does exactly that, with one hard
//! guarantee: **the returned probes are identical, in content and order, to
//! scoring the batch sequentially.** Beam search and the exhaustive baseline
//! both lean on that guarantee to stay deterministic.
//!
//! The same purity makes probes memoisable: [`ProbeCache`] is a sharded,
//! bounded memo table keyed by the canonical (sorted) set of edits the model
//! observes, shared freely between parallel workers and across repeated
//! explanation requests. Hand one to [`ProbeBatch::new`] and repeated probes
//! become hash lookups — with results still byte-identical to uncached
//! scoring, because a cached probe *is* the probe that would have been
//! issued.

use crate::config::ExesConfig;
use crate::tasks::{DecisionModel, Probe};
use exes_graph::{CollabGraph, PersonId, Perturbation, PerturbationSet, Query};
use rustc_hash::{FxHashMap, FxHasher};
use std::any::Any;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of perturbation sets scored per batch by the search loops and the
/// factual mask model. Bounds how much work is in flight between early-exit
/// tests (explanation count reached, minimality pruning, probe budget
/// spent), and how many sets a batch holds in memory at once.
pub const PROBE_CHUNK: usize = 128;

// ---------------------------------------------------------------------------
// ProbeBudget & Completeness
// ---------------------------------------------------------------------------

/// A cap on the black-box probes one explanation search may issue.
///
/// The budget counts **actual model evaluations** — cache hits are free, so a
/// warm context can finish a search a cold one would have to truncate. Every
/// search that accepts a budget guarantees two things: it never issues more
/// probes than the budget allows (enforced before each scoring chunk), and it
/// reports honestly through [`Completeness`] whenever the budget cut it short.
/// [`ProbeBudget::UNBOUNDED`] (the default) leaves every search byte-identical
/// to the pre-budget code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProbeBudget(Option<usize>);

impl ProbeBudget {
    /// No cap: searches run to their natural end (the default).
    pub const UNBOUNDED: ProbeBudget = ProbeBudget(None);

    /// At most `max_probes` black-box probes per search.
    pub const fn bounded(max_probes: usize) -> Self {
        ProbeBudget(Some(max_probes))
    }

    /// The cap, or `None` when unbounded.
    pub fn limit(self) -> Option<usize> {
        self.0
    }

    /// True when a finite cap is set.
    pub fn is_bounded(self) -> bool {
        self.0.is_some()
    }

    /// Starts per-search spend tracking against this budget.
    pub(crate) fn tracker(self) -> BudgetTracker {
        BudgetTracker {
            limit: self.0,
            spent: 0,
        }
    }
}

/// Per-search probe-spend ledger for one [`ProbeBudget`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BudgetTracker {
    limit: Option<usize>,
    spent: usize,
}

impl BudgetTracker {
    /// Probes still available, or `None` when unbounded.
    pub(crate) fn remaining(&self) -> Option<usize> {
        self.limit.map(|limit| limit - self.spent.min(limit))
    }

    /// Records probes actually issued (cache hits cost nothing).
    pub(crate) fn charge(&mut self, probes: usize) {
        self.spent += probes;
    }

    /// The [`Completeness`] marker for a search that was cut short
    /// (`truncated`) or ran to its natural end.
    pub(crate) fn completeness(&self, truncated: bool) -> Completeness {
        match (truncated, self.limit) {
            (true, Some(budget)) => Completeness::Budgeted {
                spent: self.spent,
                budget,
            },
            _ => Completeness::Exhaustive,
        }
    }
}

/// Whether a search ran to its natural end or was cut short by a
/// [`ProbeBudget`].
///
/// "Exhaustive" means the search itself terminated (beam search converged, the
/// exhaustive baseline enumerated its space, the SHAP sampler completed its
/// permutations) — not that every conceivable perturbation was tried. A
/// `Budgeted` result is the best answer found within `spent` probes of a
/// `budget`-probe allowance, surfaced explicitly instead of panicking or
/// silently truncating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Completeness {
    /// The search ran to its natural end; results are what an unbudgeted run
    /// would have returned.
    #[default]
    Exhaustive,
    /// The probe budget ran out first: results are best-so-far.
    Budgeted {
        /// Black-box probes actually issued before the search stopped.
        spent: usize,
        /// The probe allowance the search ran under.
        budget: usize,
    },
}

impl Completeness {
    /// True when the result was cut short by a probe budget.
    pub fn is_budgeted(self) -> bool {
        matches!(self, Completeness::Budgeted { .. })
    }
}

// ---------------------------------------------------------------------------
// BaselinePlan
// ---------------------------------------------------------------------------

/// Maximum number of memoised baseline plans a [`ProbeCache`] retains — one
/// per live (graph epoch, query, model) context. Plans are a few person-length
/// vectors each, so a handful cover a serving batch.
const PLAN_CAPACITY: usize = 16;

/// A per-(graph, query, model) baseline evaluation plan, computed once and
/// shared across every probe of the same context.
///
/// The payload is type-erased: the decision model that built the plan
/// ([`crate::tasks::DecisionModel::build_plan`]) is the only code that looks
/// inside, via [`BaselinePlan::payload`]. For the built-in expert-relevance
/// task it is an [`exes_expert_search::RankerBaseline`] — the full baseline
/// ranking plus whatever per-ranker state the incremental rescoring path
/// needs; for the team-membership task, the former's
/// [`exes_team::TeamBaseline`] and the signal ranker's baseline. The probe
/// engine treats plans as opaque: it hands them back to the
/// model through `probe_with_plan` and falls back to a full re-rank whenever
/// the model declines.
pub struct BaselinePlan {
    payload: Box<dyn Any + Send + Sync>,
}

impl BaselinePlan {
    /// Wraps a model-specific baseline payload.
    pub fn new<T: Any + Send + Sync>(payload: T) -> Self {
        BaselinePlan {
            payload: Box::new(payload),
        }
    }

    /// Downcasts the payload to the concrete baseline type the model stored
    /// (`None` for a plan built by a different model type).
    pub fn payload<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref()
    }
}

impl std::fmt::Debug for BaselinePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselinePlan").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// ProbeCache
// ---------------------------------------------------------------------------

/// A memo key: the probe context fingerprint, the subject being probed, and
/// the canonical (sorted) observed perturbation set.
type CacheKey = (u64, PersonId, Vec<Perturbation>);

/// The edits of `set` that `model`'s probe can see under the unperturbed
/// `query`: the whole set, or its
/// [`PerturbationSet::query_visible`] edits when the model does not observe
/// skills outside the query
/// ([`DecisionModel::observes_non_query_skills`]). A probe of the result
/// equals a probe of `set`, so it is what gets keyed, planned and probed.
fn observed<'s, D: DecisionModel + ?Sized>(
    model: &D,
    query: &Query,
    set: &'s PerturbationSet,
) -> Cow<'s, PerturbationSet> {
    if model.observes_non_query_skills() {
        Cow::Borrowed(set)
    } else {
        set.query_visible(query)
    }
}

/// One shard of the memo table. `tick` is a shard-local logical clock bumped
/// on every hit/insert; entries carry their last-touched tick so bulk eviction
/// can drop the least-recently-used quarter.
#[derive(Default)]
struct Shard {
    map: FxHashMap<CacheKey, (Probe, u64)>,
    tick: u64,
}

/// A sharded, bounded memo table for black-box probes.
///
/// Keys are canonical: the perturbation set is reduced to the edits the
/// model observes (see [`crate::tasks::DecisionModel::observes_non_query_skills`])
/// and sorted by the derived [`Ord`] on [`Perturbation`] (via
/// [`PerturbationSet::canonical_key`]), so neither insertion order nor an
/// edit the model cannot see splits cache lines, and the key additionally
/// carries
///
/// * the **subject** — a probe answers "is *this person* selected", so probes
///   of different subjects must never alias, and
/// * a **context fingerprint** of the (graph, query, model) triple — guarding
///   against accidentally reusing one cache across different queries, graphs,
///   or model configurations.
///
/// The model component comes from
/// [`crate::tasks::DecisionModel::model_fingerprint`] (ranker name +
/// parameters + `k` + a team former's seed), so one cache is sound to share
/// across *every* model configuration whose tasks fingerprint themselves —
/// exactly what lets [`crate::service::ExesService`] serve its whole
/// [`crate::model::ModelRegistry`] from one persistent cache, and what makes
/// a reconfigured model (say, a changed `k` via
/// [`crate::explainer::Exes::config_mut`]) miss cold instead of replaying
/// another configuration's probes.
///
/// Interior locking is sharded: parallel probe workers contend only when their
/// keys hash to the same shard. Hit/miss counters are global atomics, cheap
/// enough to keep always-on; every explanation additionally reports its own
/// request's counts in its [`BatchStats`] accounting.
///
/// When `capacity` is exceeded, the over-full shard evicts its
/// least-recently-used quarter in one sweep — O(shard len) per eviction, but
/// amortised O(1) per insert.
pub struct ProbeCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    eviction_sweeps: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    /// Memoised [`BaselinePlan`]s, keyed by the same context fingerprint as
    /// probe entries but *not* by subject: one plan serves every subject
    /// probed under the same (epoch, query, model). Bounded to
    /// [`PLAN_CAPACITY`] live contexts, evicted oldest-first.
    plans: Mutex<Vec<(u64, Arc<BaselinePlan>)>>,
}

impl ProbeCache {
    /// Creates a cache bounded to `capacity` entries (`0` = unbounded) with a
    /// default shard count of 16.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 16)
    }

    /// Creates a cache with an explicit shard count (`shards >= 1`).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "cache shard count must be at least 1");
        ProbeCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            eviction_sweeps: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plans: Mutex::new(Vec::new()),
        }
    }

    /// Creates a cache sized by the configuration's `probe_cache_capacity`.
    pub fn for_config(cfg: &ExesConfig) -> Self {
        Self::new(cfg.probe_cache_capacity)
    }

    /// Fingerprint of the probe context: the query keywords (in order — a
    /// perturbed query is a different context), the graph's epoch identity
    /// ([`CollabGraph::fingerprint`]), and the decision model's identity
    /// ([`crate::tasks::DecisionModel::model_fingerprint`]). The graph
    /// fingerprint is content-derived (two graphs assembled from identical
    /// rows share it; any structural difference, or a committed
    /// [`exes_graph::GraphStore`] epoch, moves it), so the context is O(1)
    /// to compute per attached engine instead of rehashing the graph — a
    /// snapshot that hasn't changed keeps its warm cache across requests,
    /// while an update (or a reconfigured model) naturally misses into fresh
    /// entries.
    pub(crate) fn context(graph: &CollabGraph, query: &Query, model: u64) -> u64 {
        let mut h = FxHasher::default();
        query.skills().hash(&mut h);
        graph.fingerprint().hash(&mut h);
        model.hash(&mut h);
        h.finish()
    }

    /// The memo key of `model`'s probe on `observed` (a set already reduced
    /// by [`observed`]) in the context `ctx`.
    fn key<D: DecisionModel + ?Sized>(ctx: u64, model: &D, observed: &PerturbationSet) -> CacheKey {
        (ctx, model.subject(), observed.canonical_key())
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks `key` up, refreshing its recency on a hit. A hit always counts;
    /// a miss counts only when `count_miss` — a lookup that could not have
    /// probed on a miss is admission control, not a miss.
    fn lookup_key(&self, key: &CacheKey, count_miss: bool) -> Option<Probe> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some((probe, last_used)) => {
                *last_used = tick;
                let probe = *probe;
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(probe)
            }
            None => {
                drop(shard);
                if count_miss {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    fn insert_key(&self, key: CacheKey, probe: Probe) {
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(key, (probe, tick));
        if self.capacity_per_shard > 0 && shard.map.len() > self.capacity_per_shard {
            // Evict the least-recently-used quarter in one sweep. Ticks are
            // unique within a shard, so this removes at least len/4 entries.
            let before = shard.map.len();
            let mut ticks: Vec<u64> = shard.map.values().map(|&(_, t)| t).collect();
            ticks.sort_unstable();
            let cutoff = ticks[ticks.len() / 4];
            shard.map.retain(|_, &mut (_, t)| t > cutoff);
            let dropped = (before - shard.map.len()) as u64;
            drop(shard);
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
            self.eviction_sweeps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up the memoised probe for `delta` applied on behalf of the
    /// model's subject in the given (graph, query, model) context, keyed as
    /// [`ProbeBatch::score`] keys it: on the edits the model observes. Bumps
    /// the hit/miss counters.
    pub fn lookup(
        &self,
        graph: &CollabGraph,
        query: &Query,
        model: &dyn DecisionModel,
        delta: &PerturbationSet,
    ) -> Option<Probe> {
        let ctx = Self::context(graph, query, model.model_fingerprint());
        self.lookup_key(&Self::key(ctx, model, &observed(model, query, delta)), true)
    }

    /// Memoises a probe of `delta`, keyed as [`ProbeCache::lookup`] keys it.
    pub fn insert(
        &self,
        graph: &CollabGraph,
        query: &Query,
        model: &dyn DecisionModel,
        delta: &PerturbationSet,
        probe: Probe,
    ) {
        let ctx = Self::context(graph, query, model.model_fingerprint());
        self.insert_key(Self::key(ctx, model, &observed(model, query, delta)), probe);
    }

    /// Returns the memoised [`BaselinePlan`] for the `(graph, query, model)`
    /// context, building (and storing) it on first request. `None` when the
    /// model does not support planned evaluation
    /// ([`crate::tasks::DecisionModel::build_plan`] returned `None`).
    ///
    /// Plans are keyed by the context fingerprint only — *not* by subject —
    /// so one plan serves every subject probed under the same (epoch, query,
    /// model): a whole [`ProbeBatch`], and a whole serving batch, share a
    /// single baseline evaluation. A committed graph epoch or a reconfigured
    /// model moves the fingerprint and misses into a fresh plan, exactly like
    /// probe entries.
    pub fn plan_for<D: DecisionModel + ?Sized>(
        &self,
        graph: &CollabGraph,
        query: &Query,
        model: &D,
    ) -> Option<Arc<BaselinePlan>> {
        let ctx = Self::context(graph, query, model.model_fingerprint());
        {
            let plans = self.plans.lock().expect("plan store poisoned");
            if let Some((_, plan)) = plans.iter().find(|(key, _)| *key == ctx) {
                let plan = Arc::clone(plan);
                drop(plans);
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                return Some(plan);
            }
        }
        // Build outside the lock: plan construction ranks the whole graph,
        // and concurrent builders for the same context produce identical
        // plans (probes are pure), so the race is benign.
        let plan = Arc::new(model.build_plan(graph, query)?);
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let mut plans = self.plans.lock().expect("plan store poisoned");
        if !plans.iter().any(|(key, _)| *key == ctx) {
            if plans.len() >= PLAN_CAPACITY {
                plans.remove(0);
            }
            plans.push((ctx, Arc::clone(&plan)));
        }
        Some(plan)
    }

    /// Whether answering `model` in this (graph, query) context starts
    /// cold: neither the subject's reference probe nor the context's
    /// baseline plan is memoised. A peek before admission, not a probe: it
    /// touches no hit/miss counter and no recency tick.
    pub fn is_cold<D: DecisionModel + ?Sized>(
        &self,
        graph: &CollabGraph,
        query: &Query,
        model: &D,
    ) -> bool {
        let ctx = Self::context(graph, query, model.model_fingerprint());
        let reference: CacheKey = (ctx, model.subject(), Vec::new());
        !self.peek_key(&reference)
            && !self
                .plans
                .lock()
                .expect("plan store poisoned")
                .iter()
                .any(|(key, _)| *key == ctx)
    }

    /// Whether `key` is memoised, without bumping counters or recency ticks.
    fn peek_key(&self, key: &CacheKey) -> bool {
        self.shard_of(key)
            .lock()
            .expect("cache shard poisoned")
            .map
            .contains_key(key)
    }

    /// Number of baseline plans currently memoised.
    pub fn plans_len(&self) -> usize {
        self.plans.lock().expect("plan store poisoned").len()
    }

    /// Total lookups that found a memoised probe, across the cache's lifetime.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that missed, across the cache's lifetime.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total memoised probes dropped by bulk evictions — the cache's
    /// eviction-pressure gauge. A warm cache that keeps evicting is too small
    /// for its working set (`ExesConfig::probe_cache_capacity`).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Number of bulk eviction sweeps (each drops the least-recently-used
    /// quarter of one over-full shard).
    pub fn eviction_sweeps(&self) -> u64 {
        self.eviction_sweeps.load(Ordering::Relaxed)
    }

    /// Plan requests served from the plan memo, across the cache's lifetime.
    pub fn plan_hits(&self) -> u64 {
        self.plan_hits.load(Ordering::Relaxed)
    }

    /// Plan requests that had to build a fresh baseline plan, across the
    /// cache's lifetime.
    pub fn plan_misses(&self) -> u64 {
        self.plan_misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from memory (`0.0` when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Number of memoised probes currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when no probes are memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports every memoised probe as raw `(context, subject, canonical
    /// perturbations, probe)` tuples, for the durability layer to persist
    /// across restarts.
    ///
    /// The context fingerprint folds the query skills, graph fingerprint and
    /// model fingerprint and cannot be decomposed, so entries are exported
    /// with it verbatim; soundness across a restart comes from the graph
    /// fingerprint being restored chained-exact by
    /// [`exes_graph::GraphStore::resume`] and model fingerprints being pure
    /// functions of configuration. Iteration order is unspecified. Does not
    /// touch the hit/miss counters.
    pub fn export_entries(&self) -> Vec<(u64, PersonId, Vec<Perturbation>, Probe)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            out.extend(
                shard
                    .map
                    .iter()
                    .map(|((ctx, subject, delta), &(probe, _))| {
                        (*ctx, *subject, delta.clone(), probe)
                    }),
            );
        }
        out
    }

    /// Re-inserts entries produced by [`ProbeCache::export_entries`], as if
    /// freshly memoised (normal capacity/eviction rules apply). Returns the
    /// number of entries inserted.
    ///
    /// Callers are responsible for only importing entries whose context is
    /// still meaningful — the durability layer guards whole files with the
    /// graph fingerprint they were exported under.
    pub fn import_entries(
        &self,
        entries: impl IntoIterator<Item = (u64, PersonId, Vec<Perturbation>, Probe)>,
    ) -> usize {
        let mut inserted = 0;
        for (ctx, subject, delta, probe) in entries {
            self.insert_key((ctx, subject, delta), probe);
            inserted += 1;
        }
        inserted
    }

    /// Drops every memoised probe and baseline plan and resets the
    /// hit/miss/eviction counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.tick = 0;
        }
        self.plans.lock().expect("plan store poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evicted.store(0, Ordering::Relaxed);
        self.eviction_sweeps.store(0, Ordering::Relaxed);
        self.plan_hits.store(0, Ordering::Relaxed);
        self.plan_misses.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ProbeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evicted", &self.evicted())
            .field("eviction_sweeps", &self.eviction_sweeps())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// ProbeBatch
// ---------------------------------------------------------------------------

/// The probe accounting of one scoring call, and the record every
/// explanation carries for its whole request
/// ([`crate::counterfactual::CounterfactualResult::accounting`],
/// [`crate::factual::FactualExplanation::accounting`]).
///
/// Each answered probe is counted once: as a cache hit, or as a black-box
/// probe (`probed`) that the plan answered (`incremental_rescores`) or a full
/// re-rank did (`full_rescores`). So `probed == incremental_rescores +
/// full_rescores` holds for every record, the reference probe included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Probes actually issued to the black box (cache misses, or every
    /// answered set when the session has no cache).
    pub probed: usize,
    /// Probes answered from the memo cache (always 0 without a cache).
    pub cache_hits: usize,
    /// Probes that went through the session's cache and missed (always 0
    /// without a cache; equal to `probed` with one).
    pub cache_misses: usize,
    /// Black-box probes answered from the session's [`BaselinePlan`] — by
    /// rescoring only the delta's neighbourhood, or, for a ranker that can,
    /// everyone from the plan's stored state when the delta reaches too far
    /// to localize.
    pub incremental_rescores: usize,
    /// Black-box probes that fell back to a full re-rank — the model has no
    /// plan, or declined the delta (a perturbed query, or a delta its plan
    /// cannot rescore exactly).
    pub full_rescores: usize,
}

impl BatchStats {
    /// Accumulates another stats record into this one, field by field.
    pub fn merge(&mut self, other: &BatchStats) {
        self.probed += other.probed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.incremental_rescores += other.incremental_rescores;
        self.full_rescores += other.full_rescores;
    }
}

/// One explanation request's probe session: the decision model, graph,
/// query, memo cache and baseline plan that every probe of the request goes
/// through.
///
/// [`crate::explainer::Exes`] opens one session per family call and hands
/// it down, so the reference probe (the empty perturbation set), link-removal
/// candidate scoring, search chunks and SHAP coalitions are all answered by
/// [`ProbeBatch::score`] — the cache first, then the plan, then a full
/// ranking — and counted in the same [`BatchStats`].
///
/// Scoring is otherwise stateless: each probe builds its own
/// [`exes_graph::PerturbedGraph`] overlay (construction cost proportional to
/// the delta, not the graph) and ranks through it. Overlay accessors are
/// allocation-free borrows, so per-probe cost is dominated by the black box
/// itself — which is what makes spreading probes across threads worthwhile,
/// and skipping repeated probes through a [`ProbeCache`] worthwhile again.
///
/// The model bound is `D: DecisionModel + ?Sized`: concrete tasks go
/// through with static dispatch, while the serving layer's boxed registry
/// models probe through `ProbeBatch<'_, dyn DecisionModel>` — same engine,
/// same guarantees.
pub struct ProbeBatch<'a, D: ?Sized> {
    task: &'a D,
    graph: &'a CollabGraph,
    query: &'a Query,
    parallel: bool,
    cache: Option<&'a ProbeCache>,
    /// Precomputed [`ProbeCache::context`] fingerprint (0 when uncached).
    ctx: u64,
    /// The context's baseline plan, when the model has one.
    plan: Option<Arc<BaselinePlan>>,
}

impl<D: ?Sized> std::fmt::Debug for ProbeBatch<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeBatch")
            .field("parallel", &self.parallel)
            .field("cached", &self.cache.is_some())
            .field("planned", &self.plan.is_some())
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}

impl<'a, D: DecisionModel + ?Sized> ProbeBatch<'a, D> {
    /// Opens the session and fetches the context's baseline plan once:
    /// through `cache`'s plan memo ([`ProbeCache::plan_for`]) when a cache is
    /// given, built directly otherwise.
    ///
    /// `parallel == false` forces sequential scoring (useful for
    /// differential tests and single-core deployments). Neither the thread
    /// count nor the cache changes an answer; a cache changes only how many
    /// probes reach the black box.
    pub fn new(
        task: &'a D,
        graph: &'a CollabGraph,
        query: &'a Query,
        parallel: bool,
        cache: Option<&'a ProbeCache>,
    ) -> Self {
        let (ctx, plan) = match cache {
            Some(cache) => (
                ProbeCache::context(graph, query, task.model_fingerprint()),
                cache.plan_for(graph, query, task),
            ),
            None => (0, task.build_plan(graph, query).map(Arc::new)),
        };
        ProbeBatch {
            task,
            graph,
            query,
            parallel,
            cache,
            ctx,
            plan,
        }
    }

    /// The decision model every probe of the session asks.
    pub(crate) fn task(&self) -> &'a D {
        self.task
    }

    /// The unperturbed graph.
    pub(crate) fn graph(&self) -> &'a CollabGraph {
        self.graph
    }

    /// The unperturbed query.
    pub(crate) fn query(&self) -> &'a Query {
        self.query
    }

    /// Evaluates one observed set, preferring the plan when there is one.
    /// Returns the probe and whether the plan answered it.
    fn eval(&self, set: &PerturbationSet) -> (Probe, bool) {
        let (view, perturbed_query) = set.apply(self.graph, self.query);
        if let Some(plan) = &self.plan {
            if let Some(probe) = self.task.probe_with_plan(plan, &view, &perturbed_query) {
                return (probe, true);
            }
        }
        (self.task.probe(&view, &perturbed_query), false)
    }

    /// Scores `sets` in input order and counts every probe. The reference
    /// probe — the unperturbed input — is the empty set,
    /// `PerturbationSet::new()`.
    ///
    /// Each set is first reduced to the edits the model observes
    /// ([`DecisionModel::observes_non_query_skills`]), and the reduced set is
    /// what is keyed, planned and probed. A memoised set is answered by the
    /// cache; any other set by the model, from the plan when it accepts the
    /// delta and by a full ranking when not. The answers are byte-identical
    /// to uncached, sequential, full scoring of the sets as given: the model
    /// cannot tell a set from its reduction, a memoised probe is the value
    /// the black box returned for that exact canonical key earlier (probes
    /// are pure), and misses are scored in input order. Without a cache
    /// every answered set is probed once. With one, a set is a hit when an
    /// earlier call memoised its reduction, or when an earlier set of this
    /// call is being probed for the same reduction: that set's probe answers
    /// it. So the probes and stats equal those of scoring the sets one call
    /// at a time.
    ///
    /// `max_probes` caps the black-box probes. The longest prefix of `sets`
    /// the cap allows is answered, so `probes.len()` is the number of sets
    /// answered and `stats.probed <= max_probes` always holds. Cache hits
    /// are free, so a warm cache answers a whole batch under a zero cap. The
    /// set at the cap's edge is looked up once, under the shard lock: a
    /// memoised probe counts as a hit, an absent one stops the prefix and
    /// counts as nothing. `None` is unbounded.
    pub fn score(
        &self,
        sets: &[PerturbationSet],
        max_probes: Option<usize>,
    ) -> (Vec<Probe>, BatchStats) {
        let mut stats = BatchStats::default();
        let mut out: Vec<Option<Probe>> = Vec::with_capacity(sets.len());
        // Cached keys are canonicalised exactly once; misses keep theirs for
        // the insert below, and the observed sets are scored by reference
        // unless the model's view dropped an edit.
        let mut misses: Vec<(usize, Cow<'_, PerturbationSet>, Option<CacheKey>)> = Vec::new();
        // The miss probing each key of this call, and the later sets it
        // answers: `(position in sets, position in misses)`.
        let mut pending: FxHashMap<CacheKey, usize> = FxHashMap::default();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            let affordable = max_probes.is_none_or(|limit| misses.len() < limit);
            let set = observed(self.task, self.query, set);
            let Some(cache) = self.cache else {
                if !affordable {
                    break;
                }
                misses.push((i, set, None));
                out.push(None);
                continue;
            };
            let key = ProbeCache::key(self.ctx, self.task, &set);
            if let Some(&miss) = pending.get(&key) {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                stats.cache_hits += 1;
                repeats.push((i, miss));
                out.push(None);
                continue;
            }
            match cache.lookup_key(&key, affordable) {
                Some(probe) => {
                    stats.cache_hits += 1;
                    out.push(Some(probe));
                }
                None if affordable => {
                    pending.insert(key.clone(), misses.len());
                    misses.push((i, set, Some(key)));
                    out.push(None);
                }
                None => break,
            }
        }
        stats.probed = misses.len();
        if self.cache.is_some() {
            stats.cache_misses = misses.len();
        }
        let eval =
            |(_, set, _): &(usize, Cow<'_, PerturbationSet>, Option<CacheKey>)| self.eval(set);
        let evals: Vec<(Probe, bool)> = if self.parallel {
            exes_parallel::parallel_map(&misses, eval)
        } else {
            misses.iter().map(eval).collect()
        };
        for ((i, _, key), &(probe, incremental)) in misses.into_iter().zip(&evals) {
            if incremental {
                stats.incremental_rescores += 1;
            } else {
                stats.full_rescores += 1;
            }
            if let (Some(cache), Some(key)) = (self.cache, key) {
                cache.insert_key(key, probe);
            }
            out[i] = Some(probe);
        }
        for (i, miss) in repeats {
            out[i] = Some(evals[miss].0);
        }
        let probes = out
            .into_iter()
            .map(|p| p.expect("every answered set scored"))
            .collect();
        (probes, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{DecisionModel, ExpertRelevanceTask};
    use exes_expert_search::{PropagationRanker, TfIdfRanker};
    use exes_graph::{
        CollabGraph, CollabGraphBuilder, GraphView, PersonId, Perturbation, PerturbedGraph,
    };
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let people: Vec<_> = (0..12)
            .map(|i| b.add_person(&format!("p{i}"), [format!("s{}", i % 4), "common".into()]))
            .collect();
        for w in people.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build()
    }

    fn candidate_sets(g: &CollabGraph) -> Vec<PerturbationSet> {
        let mut sets = Vec::new();
        for p in g.people() {
            for &s in g.person_skills(p) {
                sets.push(PerturbationSet::singleton(Perturbation::RemoveSkill {
                    person: p,
                    skill: s,
                }));
            }
        }
        sets
    }

    #[test]
    fn parallel_and_sequential_scores_are_identical() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        let parallel = ProbeBatch::new(&task, &g, &q, true, None).score(&sets, None);
        let sequential = ProbeBatch::new(&task, &g, &q, false, None).score(&sets, None);
        assert_eq!(parallel, sequential);
        // A map spreads only items costly enough to repay a thread, and these
        // TF-IDF probes take microseconds: stretch each to 200 µs and give
        // the map four threads, so the probe closure runs on real worker
        // threads whatever the host's core count.
        let threads = Mutex::new(HashSet::new());
        let eval = |set: &PerturbationSet| {
            let start = Instant::now();
            let (view, pq) = set.apply(&g, &q);
            let probe = task.probe(&view, &pq);
            threads.lock().unwrap().insert(std::thread::current().id());
            while start.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            probe
        };
        let threaded = exes_parallel::parallel_map_with_threads(&sets, 4, eval);
        assert_eq!(threaded, sequential.0);
        assert!(threads.into_inner().unwrap().len() > 1);
    }

    #[test]
    fn a_reduced_repeat_in_one_call_is_answered_by_its_first_probe() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = PropagationRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let common = g.vocab().id("common").unwrap();
        let s1 = g.vocab().id("s1").unwrap();
        let a = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: PersonId(1),
            skill: common,
        });
        // `a` plus a non-query skill edit propagation cannot see.
        let mut a_prime = a.clone();
        a_prime.push(Perturbation::RemoveSkill {
            person: PersonId(1),
            skill: s1,
        });
        assert_eq!(a_prime.query_visible(&q).as_ref(), &a);
        let b = PerturbationSet::singleton(Perturbation::RemoveEdge {
            a: PersonId(0),
            b: PersonId(1),
        });
        let sets = [a, a_prime, b];

        let cache = ProbeCache::new(0);
        let (probes, stats) =
            ProbeBatch::new(&task, &g, &q, false, Some(&cache)).score(&sets, None);
        assert_eq!((stats.probed, stats.cache_hits), (2, 1));
        // Exactly what three one-set calls through a cold cache give.
        let one_cache = ProbeCache::new(0);
        let one = ProbeBatch::new(&task, &g, &q, false, Some(&one_cache));
        let mut one_probes = Vec::new();
        let mut one_stats = BatchStats::default();
        for set in &sets {
            let (probe, stats) = one.score(std::slice::from_ref(set), None);
            one_probes.extend(probe);
            one_stats.merge(&stats);
        }
        assert_eq!(
            (probes.as_slice(), stats),
            (one_probes.as_slice(), one_stats)
        );
        assert_eq!(
            (cache.hits(), cache.misses()),
            (one_cache.hits(), one_cache.misses())
        );
        // Without a cache every set is probed, to the same answers.
        let (uncached, uncached_stats) =
            ProbeBatch::new(&task, &g, &q, false, None).score(&sets, None);
        assert_eq!((uncached, uncached_stats.probed), (probes.clone(), 3));
        // A repeat is free under a budget too: one probe answers `a` and
        // `a_prime`, and `b` is refused.
        let cache = ProbeCache::new(0);
        let (cut, cut_stats) =
            ProbeBatch::new(&task, &g, &q, false, Some(&cache)).score(&sets, Some(1));
        assert_eq!(cut, probes[..2]);
        assert_eq!((cut_stats.probed, cut_stats.cache_hits), (1, 1));
    }

    #[test]
    fn identity_probe_matches_direct_call() {
        let g = graph();
        let q = Query::parse("common", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(2), 3);
        // The reference probe is the empty set, answered from TF-IDF's plan.
        let engine = ProbeBatch::new(&task, &g, &q, true, None);
        let (probes, stats) = engine.score(&[PerturbationSet::new()], None);
        assert_eq!(probes, [task.probe(&PerturbedGraph::identity(&g), &q)]);
        assert_eq!((stats.probed, stats.incremental_rescores), (1, 1));
        assert_eq!(stats.cache_misses, 0);
    }

    #[test]
    fn export_import_roundtrips_entries_into_warm_hits() {
        let g = graph();
        let q = Query::parse("common s1", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(1), 3);
        let cache = ProbeCache::new(256);
        for set in candidate_sets(&g) {
            let (view, pq) = set.apply(&g, &q);
            cache.insert(&g, &q, &task, &set, task.probe(&view, &pq));
        }
        let exported = cache.export_entries();
        assert_eq!(exported.len(), cache.len());

        // A fresh cache fed the exported tuples answers every original key
        // as a hit, with the same probes.
        let restored = ProbeCache::new(256);
        assert_eq!(restored.import_entries(exported), cache.len());
        for set in candidate_sets(&g) {
            let (view, pq) = set.apply(&g, &q);
            assert_eq!(
                restored.lookup(&g, &q, &task, &set),
                Some(task.probe(&view, &pq))
            );
        }
        assert_eq!(restored.misses(), 0);
        // Import plays by capacity rules: a tiny cache ends up bounded.
        let tiny = ProbeCache::with_shards(4, 1);
        tiny.import_entries(cache.export_entries());
        assert!(tiny.len() <= 4);
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = graph();
        let q = Query::parse("common", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let (probes, stats) = ProbeBatch::new(&task, &g, &q, true, None).score(&[], None);
        assert!(probes.is_empty());
        assert_eq!(stats, BatchStats::default());
    }

    #[test]
    fn cached_scores_match_uncached_and_warm_runs_stop_probing() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        let cache = ProbeCache::new(0);
        let (uncached, _) = ProbeBatch::new(&task, &g, &q, false, None).score(&sets, None);
        let engine = ProbeBatch::new(&task, &g, &q, true, Some(&cache));
        let (cold, cold_stats) = engine.score(&sets, None);
        assert_eq!(cold, uncached);
        assert_eq!(cold_stats.probed, sets.len());
        assert_eq!(cold_stats.cache_hits, 0);
        let (warm, warm_stats) = engine.score(&sets, None);
        assert_eq!(warm, uncached);
        assert_eq!(warm_stats.probed, 0);
        assert_eq!(warm_stats.cache_hits, sets.len());
        assert_eq!(cache.hits(), sets.len() as u64);
        assert_eq!(cache.misses(), sets.len() as u64);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), sets.len());
    }

    #[test]
    fn cache_keys_are_canonical_and_subject_scoped() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let s0 = g.vocab().id("s0").unwrap();
        let common = g.vocab().id("common").unwrap();
        let a = Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: s0,
        };
        let b = Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: common,
        };
        let ab: PerturbationSet = [a, b].into_iter().collect();
        let ba: PerturbationSet = [b, a].into_iter().collect();
        let cache = ProbeCache::new(0);
        let engine = ProbeBatch::new(&task, &g, &q, false, Some(&cache));
        let (_, cold) = engine.score(std::slice::from_ref(&ab), None);
        assert_eq!(cold.probed, 1);
        // Reversed insertion order canonicalises to the same key: pure hit.
        let (_, warm) = engine.score(std::slice::from_ref(&ba), None);
        assert_eq!(warm.probed, 0);
        assert_eq!(warm.cache_hits, 1);
        // A different subject must not alias, even with an identical delta.
        let other_task = ExpertRelevanceTask::new(&ranker, PersonId(5), 3);
        let other = ProbeBatch::new(&other_task, &g, &q, false, Some(&cache));
        let (_, other_stats) = other.score(std::slice::from_ref(&ab), None);
        assert_eq!(other_stats.probed, 1);
        // A different query changes the context fingerprint: miss again.
        let q2 = Query::parse("s1", g.vocab()).unwrap();
        let requeried = ProbeBatch::new(&task, &g, &q2, false, Some(&cache));
        let (_, requeried_stats) = requeried.score(std::slice::from_ref(&ab), None);
        assert_eq!(requeried_stats.probed, 1);
    }

    #[test]
    fn identity_probe_is_memoised_too() {
        let g = graph();
        let q = Query::parse("common", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(2), 3);
        let cache = ProbeCache::new(0);
        let engine = ProbeBatch::new(&task, &g, &q, false, Some(&cache));
        let reference = [PerturbationSet::new()];
        let (cold, cold_stats) = engine.score(&reference, None);
        assert_eq!((cold_stats.cache_misses, cold_stats.cache_hits), (1, 0));
        let (warm, warm_stats) = engine.score(&reference, None);
        assert_eq!((warm_stats.probed, warm_stats.cache_hits), (0, 1));
        assert_eq!(cold, warm);
        assert_eq!(cold, [task.probe(&PerturbedGraph::identity(&g), &q)]);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        // Tiny single-shard cache: far smaller than the batch, so it must
        // evict repeatedly — correctness (output identity) must survive.
        let cache = ProbeCache::with_shards(4, 1);
        let (uncached, _) = ProbeBatch::new(&task, &g, &q, false, None).score(&sets, None);
        let engine = ProbeBatch::new(&task, &g, &q, false, Some(&cache));
        let (cold, _) = engine.score(&sets, None);
        assert_eq!(cold, uncached);
        assert!(cache.len() <= 4, "capacity bound violated: {}", cache.len());
        // Eviction pressure is visible: the batch overflows the bound many
        // times over, so entries were dropped in bulk sweeps.
        assert!(cache.evicted() > 0);
        assert!(cache.eviction_sweeps() > 0);
        assert!(format!("{cache:?}").contains("evicted"));
        let (warm, _) = engine.score(&sets, None);
        assert_eq!(warm, uncached);
        // clear() resets eviction counters alongside hits/misses.
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.evicted(), 0);
        assert_eq!(cache.eviction_sweeps(), 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        let cache = ProbeCache::new(0);
        let engine = ProbeBatch::new(&task, &g, &q, false, Some(&cache));
        engine.score(&sets, None);
        engine.score(&sets, None);
        assert_eq!(cache.evicted(), 0);
        assert_eq!(cache.eviction_sweeps(), 0);
    }

    #[test]
    fn context_tracks_graph_fingerprint_query_and_model() {
        let g = graph();
        let q = Query::parse("common", g.vocab()).unwrap();
        // Same content, separately built: same context (cache survives a
        // graph reload or an identical rebuild).
        let same = graph();
        assert_eq!(
            ProbeCache::context(&g, &q, 7),
            ProbeCache::context(&same, &q, 7)
        );
        // A structural change, a different query, or a different model
        // fingerprint moves the context.
        let changed = g.with_edge_added(PersonId(0), PersonId(5)).unwrap();
        assert_ne!(
            ProbeCache::context(&g, &q, 7),
            ProbeCache::context(&changed, &q, 7)
        );
        let q2 = Query::parse("s1", g.vocab()).unwrap();
        assert_ne!(
            ProbeCache::context(&g, &q, 7),
            ProbeCache::context(&g, &q2, 7)
        );
        assert_ne!(
            ProbeCache::context(&g, &q, 7),
            ProbeCache::context(&g, &q, 8)
        );
    }

    #[test]
    fn caches_isolate_models_by_fingerprint() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let sets = candidate_sets(&g);
        let cache = ProbeCache::new(0);
        // Same subject, same query, same ranker — but a different cutoff k:
        // a different model fingerprint, so nothing may alias.
        let k3 = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let k4 = ExpertRelevanceTask::new(&ranker, PersonId(0), 4);
        let (_, cold) = ProbeBatch::new(&k3, &g, &q, false, Some(&cache)).score(&sets, None);
        assert_eq!(cold.probed, sets.len());
        let (probes, other) = ProbeBatch::new(&k4, &g, &q, false, Some(&cache)).score(&sets, None);
        assert_eq!(other.cache_hits, 0, "k=4 must not replay k=3's probes");
        assert_eq!(other.probed, sets.len());
        // And the k=4 answers really are the k=4 model's own.
        let (uncached, _) = ProbeBatch::new(&k4, &g, &q, false, None).score(&sets, None);
        assert_eq!(probes, uncached);
    }

    #[test]
    fn dyn_erased_tasks_probe_through_the_same_engine() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        let cache = ProbeCache::new(0);
        let (concrete, _) = ProbeBatch::new(&task, &g, &q, false, Some(&cache)).score(&sets, None);
        // The boxed, type-erased view of the same task shares fingerprints
        // and results with the concrete one — warm from its cache entries.
        let dynamic: &dyn DecisionModel = &task;
        let engine: ProbeBatch<'_, dyn DecisionModel> =
            ProbeBatch::new(dynamic, &g, &q, false, Some(&cache));
        let (probes, stats) = engine.score(&sets, None);
        assert_eq!(probes, concrete);
        assert_eq!(stats.probed, 0, "the dyn view must hit concrete entries");
        let (reference, _) = engine.score(&[PerturbationSet::new()], None);
        assert_eq!(reference, [task.probe(&PerturbedGraph::identity(&g), &q)]);
    }

    #[test]
    fn planned_scoring_is_identical_and_counts_incremental_rescores() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        let unplanned: Vec<Probe> = sets
            .iter()
            .map(|set| {
                let (view, pq) = set.apply(&g, &q);
                task.probe(&view, &pq)
            })
            .collect();
        // TF-IDF plans, so a cache-less session builds its plan directly.
        let (probes, stats) = ProbeBatch::new(&task, &g, &q, false, None).score(&sets, None);
        // TF-IDF's incremental path is exact: planned scoring is
        // byte-identical to the full path.
        assert_eq!(probes, unplanned);
        assert_eq!(stats.probed, sets.len());
        assert_eq!(stats.incremental_rescores + stats.full_rescores, sets.len());
        assert!(
            stats.incremental_rescores > 0,
            "skill/edge singletons on a 12-person graph must localize"
        );
    }

    #[test]
    fn plans_are_memoised_per_context_through_the_cache() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let cache = ProbeCache::new(0);
        let a = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let b = ExpertRelevanceTask::new(&ranker, PersonId(5), 3);
        let plan_a = cache.plan_for(&g, &q, &a).expect("plan built");
        // A second subject of the same (graph, query, model) context shares
        // the cached plan: the baseline is subject-independent.
        let plan_b = cache.plan_for(&g, &q, &b).expect("plan shared");
        assert!(Arc::ptr_eq(&plan_a, &plan_b));
        assert_eq!(cache.plans_len(), 1);
        // A different query is a different context.
        let q2 = Query::parse("s1", g.vocab()).unwrap();
        let _ = cache.plan_for(&g, &q2, &a).expect("plan built");
        assert_eq!(cache.plans_len(), 2);
        // clear() drops memoised plans alongside probes.
        cache.clear();
        assert_eq!(cache.plans_len(), 0);
    }

    #[test]
    fn plan_memo_hits_and_misses_are_counted() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let cache = ProbeCache::new(0);
        let a = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let b = ExpertRelevanceTask::new(&ranker, PersonId(5), 3);
        assert_eq!((cache.plan_hits(), cache.plan_misses()), (0, 0));
        let _ = cache.plan_for(&g, &q, &a);
        assert_eq!((cache.plan_hits(), cache.plan_misses()), (0, 1));
        // A second subject of the same context is a memo hit, and so is the
        // plan fetch of a session opened on the cache.
        let _ = cache.plan_for(&g, &q, &b);
        assert_eq!((cache.plan_hits(), cache.plan_misses()), (1, 1));
        let _ = ProbeBatch::new(&a, &g, &q, false, Some(&cache));
        assert_eq!((cache.plan_hits(), cache.plan_misses()), (2, 1));
        // clear() resets the lifetime counters alongside everything else.
        cache.clear();
        assert_eq!((cache.plan_hits(), cache.plan_misses()), (0, 0));
    }

    #[test]
    fn cost_estimates_classify_without_touching_counters() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let cache = ProbeCache::new(0);
        // Nothing memoised: cold, and the peek bumps no counters.
        assert!(cache.is_cold(&g, &q, &task));
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // A memoised plan warms the whole context …
        let _ = cache.plan_for(&g, &q, &task).expect("plan built");
        assert!(!cache.is_cold(&g, &q, &task));
        let other = ExpertRelevanceTask::new(&ranker, PersonId(5), 3);
        assert!(!cache.is_cold(&g, &q, &other));
        // … and so does a memoised reference probe, with no plan at all.
        cache.clear();
        cache.insert(
            &g,
            &q,
            &task,
            &PerturbationSet::new(),
            Probe {
                positive: true,
                signal: 1.0,
            },
        );
        assert!(!cache.is_cold(&g, &q, &task));
        assert!(cache.is_cold(&g, &q, &other), "probes are per subject");
        // A different query is a fresh, cold context.
        let q2 = Query::parse("s1", g.vocab()).unwrap();
        assert!(cache.is_cold(&g, &q2, &task));
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!((cache.plan_hits(), cache.plan_misses()), (0, 0));
    }

    #[test]
    fn budget_tracker_charges_and_reports() {
        let unbounded = ProbeBudget::UNBOUNDED.tracker();
        assert_eq!(unbounded.remaining(), None);
        assert_eq!(unbounded.completeness(false), Completeness::Exhaustive);
        assert!(!ProbeBudget::UNBOUNDED.is_bounded());
        assert_eq!(ProbeBudget::bounded(7).limit(), Some(7));

        let mut tracker = ProbeBudget::bounded(10).tracker();
        assert_eq!(tracker.remaining(), Some(10));
        tracker.charge(6);
        assert_eq!(tracker.remaining(), Some(4));
        tracker.charge(4);
        assert_eq!(tracker.remaining(), Some(0));
        assert_eq!(
            tracker.completeness(true),
            Completeness::Budgeted {
                spent: 10,
                budget: 10
            }
        );
        assert!(tracker.completeness(true).is_budgeted());
        // A search that finished within budget stays exhaustive.
        assert_eq!(tracker.completeness(false), Completeness::Exhaustive);
        assert_eq!(Completeness::default(), Completeness::Exhaustive);

        let zero = ProbeBudget::bounded(0).tracker();
        assert_eq!(zero.remaining(), Some(0));
        assert_eq!(
            zero.completeness(true),
            Completeness::Budgeted {
                spent: 0,
                budget: 0
            }
        );
    }

    #[test]
    fn budgeted_scoring_answers_the_affordable_prefix() {
        let g = graph();
        let q = Query::parse("common s0", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let sets = candidate_sets(&g);
        let engine = ProbeBatch::new(&task, &g, &q, false, None);
        let (reference, _) = engine.score(&sets, None);

        // Uncached: the prefix is exactly the budget.
        let (probes, stats) = engine.score(&sets, Some(5));
        assert_eq!(probes.len(), 5);
        assert_eq!(stats.probed, 5);
        assert_eq!(probes, reference[..5]);

        // Cached & warm: hits are free, so a zero budget answers everything.
        let cache = ProbeCache::new(0);
        let cached = ProbeBatch::new(&task, &g, &q, false, Some(&cache));
        let (cold, cold_stats) = cached.score(&sets, Some(3));
        assert_eq!(cold.len(), 3);
        assert_eq!(cold_stats.probed, 3);
        // The stop slot is looked up once and is no miss: only the three
        // probed sets count as misses.
        assert_eq!((cache.misses(), cold_stats.cache_misses), (3, 3));
        let (warm, warm_stats) = cached.score(&sets, Some(0));
        assert_eq!(warm.len(), 3, "the three memoised probes are free");
        assert_eq!(warm_stats.probed, 0);
        assert_eq!(warm_stats.cache_hits, 3);
        assert_eq!(warm, reference[..3]);
        assert_eq!(cache.misses(), 3, "a refused stop slot is not a miss");
        // Fully warmed, a zero budget answers the entire batch.
        let _ = cached.score(&sets, None);
        let misses = cache.misses();
        let (full, full_stats) = cached.score(&sets, Some(0));
        assert_eq!(full.len(), sets.len());
        assert_eq!(full_stats.probed, 0);
        assert_eq!(full, reference);
        assert_eq!(cache.misses(), misses);
    }

    #[test]
    fn identity_peek_never_probes() {
        let g = graph();
        let q = Query::parse("common", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(2), 3);
        let reference = [PerturbationSet::new()];
        // Without a cache, a zero budget cannot answer the reference.
        let uncached = ProbeBatch::new(&task, &g, &q, false, None);
        assert!(uncached.score(&reference, Some(0)).0.is_empty());
        let cache = ProbeCache::new(0);
        let engine = ProbeBatch::new(&task, &g, &q, false, Some(&cache));
        let (refused, stats) = engine.score(&reference, Some(0));
        assert!(refused.is_empty());
        assert_eq!(stats, BatchStats::default());
        // A refused lookup bumps no counters.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let (probe, _) = engine.score(&reference, None);
        // A memoised reference is a real cache hit under a zero budget.
        let (served, stats) = engine.score(&reference, Some(0));
        assert_eq!(served, probe);
        assert_eq!((stats.cache_hits, stats.probed), (1, 0));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn batch_stats_merge_accumulates_every_field() {
        let mut acc = BatchStats {
            probed: 1,
            cache_hits: 2,
            cache_misses: 3,
            incremental_rescores: 4,
            full_rescores: 5,
        };
        acc.merge(&acc.clone());
        assert_eq!(
            acc,
            BatchStats {
                probed: 2,
                cache_hits: 4,
                cache_misses: 6,
                incremental_rescores: 8,
                full_rescores: 10,
            }
        );
    }
}
