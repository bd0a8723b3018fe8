//! Multi-model explanation serving over a live, epoch-versioned graph.
//!
//! An interactive deployment of ExES does not answer one explanation request
//! at a time against a frozen graph and a single hard-wired model — it
//! answers *floods* of requests, for every explanation family the paper
//! defines, against many model configurations at once, while skills are
//! learned, collaborations form, and people join. [`ExesService`] is that
//! serving layer:
//!
//! * a **model registry** ([`crate::model::ModelRegistry`]) hosts any number
//!   of named decision models — any [`exes_expert_search::ExpertRanker`] at
//!   any `k`, any [`exes_team::TeamFormer`] with its seed policy and signal
//!   ranker — each bound per request as a boxed
//!   [`crate::tasks::DecisionModel`]; requests address models by
//!   [`ModelId`];
//! * one [`ExplanationRequest`] enum covers **all five of the paper's
//!   explanation families** — counterfactual skill edits, query
//!   augmentations and collaboration edits, plus factual (SHAP)
//!   skill / query-term / collaboration attributions — answered uniformly as
//!   [`Explanation`] responses;
//! * the service owns an [`Arc<GraphStore>`] rather than borrowing a graph,
//!   so a single long-lived service value can interleave
//!   [`ExesService::commit`] with [`ExesService::explain`] — no lifetime
//!   parameter, no invalidated handles; each batch is answered against the
//!   **epoch** snapshot ([`GraphSnapshot`]) its caller pinned;
//! * one **persistent [`ProbeCache`]** serves every batch *and every model*:
//!   keys carry the `(fingerprint, query, model, subject, delta)` context,
//!   where the model component is the registered configuration's fingerprint
//!   (ranker name + parameters + `k` + seed) — so repeat traffic on an
//!   unchanged epoch replays with **zero** black-box probes, while distinct
//!   model configurations can never answer from each other's entries and a
//!   committed update (or a reconfigured model) naturally misses cold;
//! * requests are **grouped by query** (cheaply — queries are [`Arc`]-shared,
//!   so regrouping a batch never clones or re-hashes a term vector that was
//!   already seen), **identical requests are deduplicated**, and distinct
//!   requests — and, within each, its probe batches — are **spread over the
//!   cores by `exes-parallel`**;
//! * responses are **deterministic and position-stable**: response `i`
//!   answers request `i`, byte-identical to running that request alone
//!   through [`Exes::explain`], because probes are pure functions and the
//!   cache only ever returns what the black box would have said;
//! * a request the service cannot answer (an unknown [`ModelId`], a subject
//!   outside the epoch) fails alone, as a [`RequestError`] in its own slot.
//!
//! The per-request hit/miss *counters* (unlike the explanations) can vary
//! slightly between runs when concurrent workers race to fill the same cache
//! entry; [`ServiceReport`] aggregates them per batch, alongside the epoch
//! answered and the cache's eviction pressure.

use crate::config::ExesConfig;
use crate::counterfactual::CounterfactualResult;
use crate::explainer::Exes;
use crate::factual::FactualExplanation;
use crate::model::{ModelId, ModelRegistry, ModelSpec, ModelSpecError};
use crate::probe::{BatchStats, Completeness, ProbeCache};
use exes_graph::{CollabGraph, GraphSnapshot, GraphStore, GraphView, PersonId, Query, UpdateBatch};
use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// Which explanation family a request asks for — the full menu of Section 3:
/// three counterfactual families (3.3) and three factual SHAP feature spaces
/// (3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplanationKind {
    /// Counterfactual skill removals/additions (Section 3.3.1).
    CounterfactualSkills,
    /// Counterfactual query augmentations (Section 3.3.2).
    CounterfactualQuery,
    /// Counterfactual collaboration-link removals/additions (Section 3.3.3).
    CounterfactualLinks,
    /// Factual SHAP attributions over neighbourhood skills (Section 3.2,
    /// Pruning Strategy 1).
    FactualSkills,
    /// Factual SHAP attributions over the query's keywords (Section 3.2).
    FactualQueryTerms,
    /// Factual SHAP attributions over collaborations (Section 3.2, Pruning
    /// Strategy 2).
    FactualCollaborations,
}

impl ExplanationKind {
    /// True for the three factual (SHAP) families.
    pub fn is_factual(self) -> bool {
        matches!(
            self,
            ExplanationKind::FactualSkills
                | ExplanationKind::FactualQueryTerms
                | ExplanationKind::FactualCollaborations
        )
    }

    /// True for the three counterfactual families.
    pub fn is_counterfactual(self) -> bool {
        !self.is_factual()
    }
}

/// One explanation request: "explain `model`'s decision about `subject` for
/// `query`, as a `kind` explanation".
///
/// The query is [`Arc`]-shared: building a batch of hundreds of requests over
/// a handful of queries clones pointers, not term vectors, and the service's
/// per-query grouping recognises repeated `Arc`s without re-hashing their
/// contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExplanationRequest {
    /// The registered model whose decision is being explained.
    pub model: ModelId,
    /// The person whose selection status is being explained.
    pub subject: PersonId,
    /// The query the decision was made for.
    pub query: Arc<Query>,
    /// The explanation family requested.
    pub kind: ExplanationKind,
}

impl ExplanationRequest {
    /// A request with an explicit [`ExplanationKind`].
    pub fn new(
        model: ModelId,
        subject: PersonId,
        query: impl Into<Arc<Query>>,
        kind: ExplanationKind,
    ) -> Self {
        ExplanationRequest {
            model,
            subject,
            query: query.into(),
            kind,
        }
    }

    /// A counterfactual skill-edit request.
    pub fn counterfactual_skills(
        model: ModelId,
        subject: PersonId,
        query: impl Into<Arc<Query>>,
    ) -> Self {
        Self::new(model, subject, query, ExplanationKind::CounterfactualSkills)
    }

    /// A counterfactual query-augmentation request.
    pub fn counterfactual_query(
        model: ModelId,
        subject: PersonId,
        query: impl Into<Arc<Query>>,
    ) -> Self {
        Self::new(model, subject, query, ExplanationKind::CounterfactualQuery)
    }

    /// A counterfactual collaboration-edit request.
    pub fn counterfactual_links(
        model: ModelId,
        subject: PersonId,
        query: impl Into<Arc<Query>>,
    ) -> Self {
        Self::new(model, subject, query, ExplanationKind::CounterfactualLinks)
    }

    /// A factual skill-SHAP request.
    pub fn factual_skills(model: ModelId, subject: PersonId, query: impl Into<Arc<Query>>) -> Self {
        Self::new(model, subject, query, ExplanationKind::FactualSkills)
    }

    /// A factual query-term-SHAP request.
    pub fn factual_query_terms(
        model: ModelId,
        subject: PersonId,
        query: impl Into<Arc<Query>>,
    ) -> Self {
        Self::new(model, subject, query, ExplanationKind::FactualQueryTerms)
    }

    /// A factual collaboration-SHAP request.
    pub fn factual_collaborations(
        model: ModelId,
        subject: PersonId,
        query: impl Into<Arc<Query>>,
    ) -> Self {
        Self::new(
            model,
            subject,
            query,
            ExplanationKind::FactualCollaborations,
        )
    }
}

/// Why one request in a batch could not be answered.
///
/// A batch front-door serving untrusted traffic must degrade per request, not
/// per batch: one stale [`ModelId`] or out-of-range subject in a 200-request
/// batch yields one `Err` slot while the other 199 requests are answered
/// normally (see [`ExesService::explain`]). Errors are detected
/// before any probing starts, so a failed request never costs a black-box
/// probe and never poisons the shared cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request addressed a [`ModelId`] this service never issued.
    UnknownModel(ModelId),
    /// The subject does not exist in the epoch the batch was answered
    /// against.
    SubjectOutOfRange {
        /// The subject the request named.
        subject: PersonId,
        /// How many people the answered epoch's graph actually has.
        num_people: usize,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnknownModel(id) => write!(
                f,
                "ModelId({}) is not registered here; ids are only valid for \
                 the service that issued them",
                id.index()
            ),
            RequestError::SubjectOutOfRange {
                subject,
                num_people,
            } => write!(
                f,
                "subject {subject} is out of range for this epoch's graph \
                 ({num_people} people)"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// A unified explanation response: counterfactual search results and factual
/// SHAP attributions behind one type, so a mixed batch comes back as one
/// position-stable `Vec<Explanation>`.
#[derive(Debug, Clone)]
pub enum Explanation {
    /// The answer to a counterfactual request.
    Counterfactual(CounterfactualResult),
    /// The answer to a factual (SHAP) request.
    Factual(FactualExplanation),
}

impl Explanation {
    /// The counterfactual result, if this answers a counterfactual request.
    pub fn as_counterfactual(&self) -> Option<&CounterfactualResult> {
        match self {
            Explanation::Counterfactual(r) => Some(r),
            Explanation::Factual(_) => None,
        }
    }

    /// The factual explanation, if this answers a factual request.
    pub fn as_factual(&self) -> Option<&FactualExplanation> {
        match self {
            Explanation::Counterfactual(_) => None,
            Explanation::Factual(f) => Some(f),
        }
    }

    /// The counterfactual result; panics on a factual response (for callers
    /// that know their request's kind — response `i` answers request `i`).
    pub fn expect_counterfactual(&self) -> &CounterfactualResult {
        self.as_counterfactual()
            .expect("response answers a factual request, not a counterfactual one")
    }

    /// The factual explanation; panics on a counterfactual response.
    pub fn expect_factual(&self) -> &FactualExplanation {
        self.as_factual()
            .expect("response answers a counterfactual request, not a factual one")
    }

    /// Every probe computing this explanation cost.
    pub fn accounting(&self) -> BatchStats {
        match self {
            Explanation::Counterfactual(r) => r.accounting,
            Explanation::Factual(f) => f.accounting(),
        }
    }

    /// Whether the computation ran to its natural end or was cut short by the
    /// configured [`crate::probe::ProbeBudget`]. A `Budgeted` explanation is
    /// best-so-far, reported honestly — never a silent truncation.
    pub fn completeness(&self) -> Completeness {
        match self {
            Explanation::Counterfactual(r) => r.completeness,
            Explanation::Factual(f) => f.completeness(),
        }
    }
}

/// Aggregate accounting for one [`ExesService::explain`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// The graph epoch the batch was answered against.
    pub epoch: u64,
    /// Number of requests in the batch.
    pub requests: usize,
    /// Number of query groups the batch was split into.
    pub groups: usize,
    /// Requests answered by cloning another identical request's result
    /// instead of searching again.
    pub duplicate_requests: usize,
    /// Requests answered with a [`RequestError`] instead of an explanation
    /// (unknown model, out-of-range subject). Failed requests never issue
    /// probes.
    pub failed_requests: usize,
    /// Probe lookups answered by the service's persistent cache during this
    /// batch.
    pub cache_hits: u64,
    /// Probe lookups that missed and went to the black box during this batch.
    pub cache_misses: u64,
    /// Memoised probes dropped by bulk evictions over this batch's window —
    /// the cache's eviction-pressure gauge. Persistent non-zero values mean
    /// the working set exceeds `ExesConfig::probe_cache_capacity`. Windows
    /// of concurrently running batches overlap, so do not sum this across
    /// reports; `ProbeCache::evicted()` holds the exact lifetime total.
    pub cache_evictions: u64,
    /// Black-box probes issued while answering the batch (summed over
    /// *unique* computations — deduplicated responses are clones and issue
    /// none). Every one of them lands in exactly one rescoring bucket:
    /// `probes == incremental_rescores + full_fallback_rescores`.
    pub probes: usize,
    /// Of the batch's black-box probes, those answered through the
    /// incremental (delta-localized) rescoring path of a baseline plan.
    pub incremental_rescores: u64,
    /// Of the batch's black-box probes, those that performed a full re-rank —
    /// no plan for the model, a perturbed query, or a delta outside the plan's
    /// localization guarantees.
    pub full_fallback_rescores: u64,
    /// Plan fetches served from the plan memo over this batch's window (one
    /// per probe session). Like `cache_evictions`, a delta over a
    /// cache-global counter:
    /// windows of concurrent batches overlap, so read it as a gauge
    /// (`ProbeCache::plan_hits()` holds the exact lifetime total).
    pub plan_hits: u64,
    /// Plan fetches that built a fresh plan over this batch's window (same
    /// windowing caveat as `plan_hits`).
    pub plan_misses: u64,
    /// Responses whose computation was cut short by the configured
    /// [`crate::probe::ProbeBudget`] and returned best-so-far (marked
    /// [`Completeness::Budgeted`]). Always 0 under an unbounded budget.
    pub budgeted_results: usize,
}

impl ServiceReport {
    /// Fraction of cache lookups served from memory (0.0 for an empty batch).
    pub fn hit_rate(&self) -> f64 {
        let total = (self.cache_hits + self.cache_misses) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.cache_hits as f64 / total
        }
    }

    /// Folds another report into this one, producing the aggregate a routing
    /// tier hands back when one client batch was answered by several workers.
    ///
    /// Every counter sums. `epoch` takes the **minimum** of the two — the
    /// gated floor every contributing worker is guaranteed to have reached —
    /// so a client that read `epoch` from a merged report can pass it back as
    /// a read-your-writes gate and every shard will satisfy it. Fold starting
    /// from a real per-worker report, not `ServiceReport::default()`, or the
    /// default's epoch 0 wins the minimum.
    pub fn merge(&mut self, other: &ServiceReport) {
        self.epoch = self.epoch.min(other.epoch);
        self.requests += other.requests;
        self.groups += other.groups;
        self.duplicate_requests += other.duplicate_requests;
        self.failed_requests += other.failed_requests;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.probes += other.probes;
        self.incremental_rescores += other.incremental_rescores;
        self.full_fallback_rescores += other.full_fallback_rescores;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.budgeted_results += other.budgeted_results;
    }
}

/// A batch explanation server over a live graph store and a registry of
/// decision models.
///
/// The service owns everything it needs — explainer clone, model registry,
/// store handle, probe cache — so it has no graph lifetime parameter: it can
/// be moved into threads, stored in application state, and kept alive across
/// arbitrarily many commits. A batch's distinct requests are mapped with
/// `exes_parallel::parallel_map`, and each request's probes are too when
/// `ExesConfig::parallel_probes` is set (the default): a lone request
/// spreads its costly probe batches over every core, while a batch whose
/// requests have spread over the cores probes each request inline.
///
/// The persistent probe cache is sound to share across queries, batches,
/// epochs **and registered models** because every key carries the (graph
/// fingerprint, query, model fingerprint) context and the subject; the model
/// fingerprint is derived from the registered configuration (ranker name +
/// parameters + `k` + seed), so one service = one cache = many models,
/// isolation guaranteed.
///
/// Build one with [`ExesService::new`] or [`ExesService::from_graph`], then
/// add models with [`ExesService::register`]:
///
/// ```
/// # use exes_core::{Exes, ExesConfig, ExesService, ExplanationRequest, ModelSpec};
/// # use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
/// # use exes_embedding::{EmbeddingConfig, SkillEmbedding};
/// # use exes_expert_search::TfIdfRanker;
/// # use exes_graph::PersonId;
/// # use exes_linkpred::CommonNeighbors;
/// # let ds = SyntheticDataset::generate(&DatasetConfig::tiny("service-doc", 5));
/// # let embedding = SkillEmbedding::train(
/// #     ds.corpus.token_bags(),
/// #     ds.graph.vocab().len(),
/// #     &EmbeddingConfig { dim: 8, ..Default::default() },
/// # );
/// # let query = QueryWorkload::answerable(&ds.graph, 1, 2, 3, 3, 11).queries()[0].clone();
/// let exes = Exes::new(ExesConfig::fast(), embedding, CommonNeighbors);
/// let mut service = ExesService::from_graph(&exes, ds.graph.clone());
/// let tfidf = service
///     .register("tfidf@5", ModelSpec::expert_ranker(TfIdfRanker::default(), 5))
///     .expect("valid spec");
/// assert_eq!(service.model_id("tfidf@5"), Some(tfidf));
///
/// let request = ExplanationRequest::factual_query_terms(tfidf, PersonId(0), query);
/// let (results, report) = service.explain(&service.snapshot(), &[request]);
/// assert!(results[0].is_ok());
/// assert_eq!(report.failed_requests, 0);
/// ```
#[derive(Debug)]
pub struct ExesService {
    exes: Exes,
    registry: ModelRegistry,
    store: Arc<GraphStore>,
    cache: Arc<ProbeCache>,
}

impl ExesService {
    /// Builds the service from an explainer (cloned, with the service's own
    /// persistent probe cache attached in place of any it carried) and the
    /// live store every request in this service targets. The model registry
    /// starts empty: add configurations with [`ExesService::register`].
    pub fn new(exes: &Exes, store: Arc<GraphStore>) -> Self {
        let cache = Arc::new(ProbeCache::for_config(exes.config()));
        let exes = exes.clone().with_probe_cache(Arc::clone(&cache));
        ExesService {
            exes,
            registry: ModelRegistry::new(),
            store,
            cache,
        }
    }

    /// Convenience constructor wrapping a static graph in a fresh
    /// [`GraphStore`] (epoch 0) with default store tunables.
    pub fn from_graph(exes: &Exes, graph: CollabGraph) -> Self {
        Self::new(exes, Arc::new(GraphStore::new(graph)))
    }

    /// Registers a model configuration under `name`, returning the
    /// [`ModelId`] requests address it by. Fails with a typed
    /// [`ModelSpecError`] on an invalid spec, a duplicate name, or a fixed
    /// team seed outside the store's current graph
    /// ([`ModelSpecError::SeedOutOfRange`]). People are never removed, so a
    /// seed valid at registration stays valid in every later epoch.
    ///
    /// Models can be added at any point in the service's life; the persistent
    /// cache needs no flush because every entry is scoped by its model's
    /// fingerprint.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        spec: ModelSpec,
    ) -> Result<ModelId, ModelSpecError> {
        spec.check_seed(self.store.snapshot().graph().num_people())?;
        self.registry.register(name, spec)
    }

    /// Looks a registered model up by name.
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.registry.id(name)
    }

    /// The service's model registry (names and fingerprints).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The service's configuration.
    pub fn config(&self) -> &ExesConfig {
        self.exes.config()
    }

    /// The live store this service serves from.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// The current epoch's snapshot.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.store.snapshot()
    }

    /// The service's persistent probe cache (for inspection/metrics).
    pub fn probe_cache(&self) -> &ProbeCache {
        &self.cache
    }

    /// Commits an update batch to the store, publishing a new epoch.
    ///
    /// Batches answered against [`ExesService::snapshot`] afterwards see the
    /// new epoch; batches already in flight finish against the snapshot they
    /// pinned. The persistent cache needs no flush: the new epoch's
    /// fingerprint misses into fresh entries while the old epoch's entries
    /// age out.
    pub fn commit(&self, batch: &UpdateBatch) -> exes_graph::Result<Arc<GraphSnapshot>> {
        self.store.commit(batch)
    }

    /// Answers a batch of requests against `snapshot` (the current epoch's,
    /// from [`ExesService::snapshot`], or any older one still held). Response
    /// `i` answers request `i`.
    ///
    /// Requests are grouped by query and identical requests are computed
    /// once; all groups and all models share the service's persistent cache.
    /// Explanations are deterministic — byte-identical to answering each
    /// request alone through [`Exes::explain`], in any batch composition, on
    /// any warmth of the cache.
    ///
    /// A request addressing a [`ModelId`] this service never issued, or a
    /// subject outside the snapshot's graph, gets an `Err(`[`RequestError`]`)`
    /// in its slot while the rest of the batch is answered normally. Failed
    /// requests are rejected before any probing, so they cost no black-box
    /// probes, cannot poison the shared cache, and are counted in
    /// [`ServiceReport::failed_requests`].
    pub fn explain(
        &self,
        snapshot: &GraphSnapshot,
        requests: &[ExplanationRequest],
    ) -> (Vec<Result<Explanation, RequestError>>, ServiceReport) {
        // Group request indices by query, preserving first-occurrence order.
        // Arc-shared queries take the pointer fast path: a term vector is
        // hashed at most once per distinct Arc, not once per request.
        let mut group_of_arc: FxHashMap<*const Query, usize> = FxHashMap::default();
        let mut group_of: FxHashMap<&Query, usize> = FxHashMap::default();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let ptr = Arc::as_ptr(&request.query);
            let g = match group_of_arc.get(&ptr) {
                Some(&g) => g,
                None => {
                    let next = groups.len();
                    // Content lookup so equal queries behind distinct Arcs
                    // still share a group (and its dedup scope).
                    let g = *group_of.entry(&*request.query).or_insert(next);
                    if g == groups.len() {
                        groups.push(Vec::new());
                    }
                    group_of_arc.insert(ptr, g);
                    g
                }
            };
            groups[g].push(i);
        }

        let mut report = ServiceReport {
            epoch: snapshot.epoch(),
            requests: requests.len(),
            groups: groups.len(),
            ..Default::default()
        };
        let evicted_before = self.cache.evicted();
        let plan_hits_before = self.cache.plan_hits();
        let plan_misses_before = self.cache.plan_misses();
        let graph = snapshot.graph();
        let num_people = graph.num_people();
        let mut responses: Vec<Option<Result<Explanation, RequestError>>> =
            vec![None; requests.len()];
        let mut accounting = BatchStats::default();
        for idxs in &groups {
            // Deduplicate identical requests inside the group: the first
            // occurrence computes, the rest clone its response. Queries are
            // equal across the whole group by construction, so the dedup key
            // is just (model, subject, kind) — no term-vector hashing.
            let mut representative: FxHashMap<(ModelId, PersonId, ExplanationKind), usize> =
                FxHashMap::default();
            let mut unique: Vec<usize> = Vec::new();
            let mut duplicate_of: Vec<(usize, usize)> = Vec::new();
            for &i in idxs {
                let r = &requests[i];
                match representative.get(&(r.model, r.subject, r.kind)) {
                    Some(&rep) => duplicate_of.push((i, rep)),
                    None => {
                        representative.insert((r.model, r.subject, r.kind), i);
                        unique.push(i);
                    }
                }
            }
            report.duplicate_requests += duplicate_of.len();

            // Validate before probing: a bad request fails alone, costs no
            // probes, and never reaches the engine (or the shared cache).
            let mut answerable: Vec<usize> = Vec::with_capacity(unique.len());
            for &i in &unique {
                match self.check(&requests[i], num_people) {
                    Ok(()) => answerable.push(i),
                    Err(error) => responses[i] = Some(Err(error)),
                }
            }

            let answered =
                exes_parallel::parallel_map(&answerable, |&i| self.answer(graph, &requests[i]));
            for (&i, result) in answerable.iter().zip(answered) {
                // Only unique computations issue probes; duplicate responses
                // below are clones and must not be double-counted. Probe
                // counts come from the per-request results, so they stay
                // exact even when several batches share the service (and its
                // cache) concurrently.
                accounting.merge(&result.accounting());
                if result.completeness().is_budgeted() {
                    report.budgeted_results += 1;
                }
                responses[i] = Some(Ok(result));
            }
            for (i, rep) in duplicate_of {
                responses[i] = responses[rep].clone();
            }
        }
        report.probes = accounting.probed;
        report.cache_hits = accounting.cache_hits as u64;
        report.cache_misses = accounting.cache_misses as u64;
        report.incremental_rescores = accounting.incremental_rescores as u64;
        report.full_fallback_rescores = accounting.full_rescores as u64;
        // Eviction pressure is a cache-global gauge, reported as the delta
        // over this batch's window. Windows of concurrent batches overlap,
        // so the same eviction can appear in several reports: read it as a
        // pressure gauge, not a summable counter (ProbeCache::evicted() is
        // the exact cache-lifetime total).
        report.cache_evictions = self.cache.evicted().saturating_sub(evicted_before);
        // Plan-memo efficiency over the same window (same overlap caveat).
        report.plan_hits = self.cache.plan_hits().saturating_sub(plan_hits_before);
        report.plan_misses = self.cache.plan_misses().saturating_sub(plan_misses_before);

        let responses: Vec<Result<Explanation, RequestError>> = responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect();
        report.failed_requests = responses.iter().filter(|r| r.is_err()).count();
        (responses, report)
    }

    /// Whether answering `request` against `snapshot` starts cold: neither
    /// the subject's reference probe nor the (epoch, query, model) context's
    /// baseline plan is memoised ([`ProbeCache::is_cold`]). Validation
    /// mirrors [`ExesService::explain`] — an unknown model or out-of-range
    /// subject is a [`RequestError`], so admission control can reject before
    /// queueing. A peek, not a probe: it never reaches the black box and
    /// never moves the cache's counters or recency order.
    pub fn is_cold(
        &self,
        snapshot: &GraphSnapshot,
        request: &ExplanationRequest,
    ) -> Result<bool, RequestError> {
        let graph = snapshot.graph();
        self.check(request, graph.num_people())?;
        let task = self.registry.bind(request.model, request.subject);
        Ok(self.cache.is_cold(graph, &request.query, task.as_ref()))
    }

    /// Rejects a request this service cannot answer on a graph of
    /// `num_people` people.
    fn check(&self, request: &ExplanationRequest, num_people: usize) -> Result<(), RequestError> {
        if self.registry.name(request.model).is_none() {
            Err(RequestError::UnknownModel(request.model))
        } else if request.subject.index() >= num_people {
            Err(RequestError::SubjectOutOfRange {
                subject: request.subject,
                num_people,
            })
        } else {
            Ok(())
        }
    }

    /// Answers one request against the persistent cache.
    fn answer(&self, graph: &CollabGraph, request: &ExplanationRequest) -> Explanation {
        let task = self.registry.bind(request.model, request.subject);
        self.exes
            .explain(request.kind, task.as_ref(), graph, &request.query)
    }
}

// Compile-time guarantee, not an incidental property: the service is
// `Send + Sync`, so server workers can share one `ExesService` behind an
// `Arc` (commits interleaving with batches from many threads). If a future
// field breaks this, the build fails here — not in a downstream crate's
// thread spawn.
#[allow(dead_code)]
fn assert_service_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExesService>();
    assert_send_sync::<ExplanationRequest>();
    assert_send_sync::<Explanation>();
    assert_send_sync::<RequestError>();
    assert_send_sync::<ServiceReport>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputMode;
    use crate::model::SeedPolicy;
    use crate::tasks::{ExpertRelevanceTask, TeamMembershipTask};
    use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
    use exes_embedding::{EmbeddingConfig, SkillEmbedding};
    use exes_expert_search::{ExpertRanker, PropagationRanker, TfIdfRanker};
    use exes_graph::GraphView;
    use exes_linkpred::CommonNeighbors;
    use exes_team::{GreedyCoverTeamFormer, MinDistanceTeamFormer};

    struct Fixture {
        ds: SyntheticDataset,
        exes: Exes,
        ranker: PropagationRanker,
    }

    fn fixture() -> Fixture {
        let ds = SyntheticDataset::generate(&DatasetConfig::tiny("service", 7));
        let embedding = SkillEmbedding::train(
            ds.corpus.token_bags(),
            ds.graph.vocab().len(),
            &EmbeddingConfig {
                dim: 16,
                ..Default::default()
            },
        );
        let cfg = ExesConfig::fast()
            .with_k(4)
            .with_num_candidates(5)
            .with_output_mode(OutputMode::SmoothRank);
        Fixture {
            ds,
            exes: Exes::new(cfg, embedding, CommonNeighbors),
            ranker: PropagationRanker::default(),
        }
    }

    fn service(f: &Fixture) -> (ExesService, ModelId) {
        let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let id = service
            .register(
                "propagation",
                ModelSpec::expert_ranker(f.ranker, f.exes.config().k),
            )
            .unwrap();
        (service, id)
    }

    fn workload_requests(f: &Fixture, model: ModelId) -> Vec<ExplanationRequest> {
        let workload = QueryWorkload::answerable(&f.ds.graph, 2, 2, 3, 3, 11);
        let mut requests = Vec::new();
        for query in workload.queries() {
            let query = Arc::new(query.clone());
            let ranking = f.ranker.rank_all(&f.ds.graph, &query);
            // A few subjects inside and outside the top-k, cycling through
            // all six request kinds.
            for (rank, &(person, _)) in ranking.entries().iter().take(6).enumerate() {
                let kind = match rank % 6 {
                    0 => ExplanationKind::CounterfactualSkills,
                    1 => ExplanationKind::CounterfactualQuery,
                    2 => ExplanationKind::CounterfactualLinks,
                    3 => ExplanationKind::FactualSkills,
                    4 => ExplanationKind::FactualQueryTerms,
                    _ => ExplanationKind::FactualCollaborations,
                };
                requests.push(ExplanationRequest::new(model, person, query.clone(), kind));
            }
        }
        requests
    }

    /// Answers `request` directly through a sequential, uncached facade.
    fn solo_answer(
        exes: &Exes,
        ranker: &PropagationRanker,
        graph: &CollabGraph,
        request: &ExplanationRequest,
    ) -> Explanation {
        let task = ExpertRelevanceTask::new(ranker, request.subject, exes.config().k);
        exes.explain(request.kind, &task, graph, &request.query)
    }

    /// Answers a batch of valid requests against the current epoch.
    fn explain_all(
        service: &ExesService,
        requests: &[ExplanationRequest],
    ) -> (Vec<Explanation>, ServiceReport) {
        let (results, report) = service.explain(&service.snapshot(), requests);
        let responses = results
            .into_iter()
            .map(|r| r.expect("valid request"))
            .collect();
        (responses, report)
    }

    fn assert_same_explanation(a: &Explanation, b: &Explanation) {
        match (a, b) {
            (Explanation::Counterfactual(a), Explanation::Counterfactual(b)) => {
                assert_eq!(a.explanations, b.explanations);
            }
            (Explanation::Factual(a), Explanation::Factual(b)) => {
                assert_eq!(a.features(), b.features());
                assert_eq!(a.shap_values().values(), b.shap_values().values());
            }
            _ => panic!("response families differ"),
        }
    }

    #[test]
    fn batch_matches_individual_requests_exactly_across_all_kinds() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let (responses, report) = explain_all(&service, &requests);
        assert_eq!(responses.len(), requests.len());
        assert_eq!(report.requests, requests.len());
        assert_eq!(report.groups, 2);
        assert_eq!(report.epoch, 0);

        // Each response must be byte-identical to answering its request alone
        // through a sequential, uncached explainer.
        let mut solo_exes = f.exes.clone();
        solo_exes.config_mut().parallel_probes = false;
        for (request, response) in requests.iter().zip(&responses) {
            let solo = solo_answer(&solo_exes, &f.ranker, &f.ds.graph, request);
            assert_same_explanation(response, &solo);
        }
    }

    #[test]
    fn repeated_requests_are_deduplicated_and_batches_are_deterministic() {
        let f = fixture();
        let (service, model) = service(&f);
        let mut requests = workload_requests(&f, model);
        let n = requests.len();
        // Simulate repeated traffic: the same requests arrive again.
        requests.extend(requests.clone());
        let (responses, report) = explain_all(&service, &requests);
        assert_eq!(report.duplicate_requests, n);
        for i in 0..n {
            assert_same_explanation(&responses[i], &responses[n + i]);
        }
        // Two identical batches produce identical explanations.
        let (again, _) = explain_all(&service, &requests);
        for (a, b) in responses.iter().zip(&again) {
            assert_same_explanation(a, b);
        }
    }

    #[test]
    fn warm_epoch_replays_from_cache_with_zero_probes() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let (cold_responses, cold) = explain_all(&service, &requests);
        assert!(cold.probes > 0);
        // Same epoch, same requests: the persistent cache answers everything.
        let (warm_responses, warm) = explain_all(&service, &requests);
        assert_eq!(warm.probes, 0);
        assert_eq!(warm.cache_misses, 0);
        assert!(warm.cache_hits > 0);
        for (a, b) in cold_responses.iter().zip(&warm_responses) {
            assert_same_explanation(a, b);
        }
    }

    #[test]
    fn commit_invalidates_the_warm_cache_and_serves_the_new_epoch() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let (_, cold) = explain_all(&service, &requests);
        assert_eq!(cold.epoch, 0);

        // Commit a real update: the top subject of the first query loses one
        // of their skills.
        let subject = requests[0].subject;
        let skill = f.ds.graph.person_skills(subject)[0];
        let name = f.ds.graph.vocab().name(skill).unwrap().to_string();
        let mut batch = UpdateBatch::new();
        batch.remove_skill(subject, &name);
        let snap = service.commit(&batch).unwrap();
        assert_eq!(snap.epoch(), 1);
        assert!(!snap.graph().person_has_skill(subject, skill));

        // The new epoch misses into fresh entries (cold again) and answers
        // against the updated graph.
        let (responses, after) = explain_all(&service, &requests);
        assert_eq!(after.epoch, 1);
        assert!(after.probes > 0);
        // Responses are byte-identical to a solo uncached run on the new
        // epoch's graph.
        let mut solo_exes = f.exes.clone();
        solo_exes.config_mut().parallel_probes = false;
        let solo = solo_answer(&solo_exes, &f.ranker, snap.graph(), &requests[0]);
        assert_same_explanation(&responses[0], &solo);

        // The new epoch warms up in turn: repeating the batch replays it.
        let (_, warm_new) = explain_all(&service, &requests);
        assert_eq!(warm_new.epoch, 1);
        assert_eq!(warm_new.probes, 0);
    }

    #[test]
    fn in_flight_snapshot_survives_commits() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let pinned = service.snapshot();
        let (before, _) = service.explain(&pinned, &requests);

        let mut batch = UpdateBatch::new();
        batch.add_person("newcomer", ["fresh-skill"]);
        service.commit(&batch).unwrap();
        assert_eq!(service.snapshot().epoch(), 1);

        // The pinned epoch-0 snapshot still answers, byte-identically.
        let (after, report) = service.explain(&pinned, &requests);
        assert_eq!(report.epoch, 0);
        for (a, b) in before.iter().zip(&after) {
            assert_same_explanation(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn two_registered_models_never_share_cache_entries() {
        let f = fixture();
        let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let k = f.exes.config().k;
        let shallow = service
            .register("prop@k", ModelSpec::expert_ranker(f.ranker, k))
            .unwrap();
        // Same ranker, different cutoff: a different model configuration.
        let deeper = service
            .register("prop@k+1", ModelSpec::expert_ranker(f.ranker, k + 1))
            .unwrap();

        let requests = workload_requests(&f, shallow);
        let (_, cold) = explain_all(&service, &requests);
        assert!(cold.probes > 0);
        let (_, warm) = explain_all(&service, &requests);
        assert_eq!(warm.probes, 0, "same model must replay warm");

        // The same requests re-addressed to the k+1 model must run cold:
        // per-model fingerprints keep the shallow model's entries invisible.
        // "Cold" is made precise by comparison with a fresh service that
        // never saw the shallow model: identical black-box probe counts, so
        // not a single probe was answered from the other model's entries.
        let readdressed: Vec<ExplanationRequest> = requests
            .iter()
            .map(|r| ExplanationRequest::new(deeper, r.subject, r.query.clone(), r.kind))
            .collect();
        let (responses, other) = explain_all(&service, &readdressed);
        assert!(
            other.probes > 0,
            "a different k must not replay the other model's probes"
        );
        let mut fresh = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let fresh_deeper = fresh
            .register("prop@k+1", ModelSpec::expert_ranker(f.ranker, k + 1))
            .unwrap();
        let fresh_requests: Vec<ExplanationRequest> = requests
            .iter()
            .map(|r| ExplanationRequest::new(fresh_deeper, r.subject, r.query.clone(), r.kind))
            .collect();
        let (_, fresh_report) = explain_all(&fresh, &fresh_requests);
        assert_eq!(other.probes, fresh_report.probes);
        assert_eq!(other.cache_misses, fresh_report.cache_misses);

        // And the answers really are the k+1 model's own.
        let mut solo_exes = f.exes.clone();
        solo_exes.config_mut().parallel_probes = false;
        solo_exes.config_mut().k = k + 1;
        let solo = solo_answer(&solo_exes, &f.ranker, &f.ds.graph, &readdressed[0]);
        assert_same_explanation(&responses[0], &solo);
    }

    #[test]
    fn mixed_expert_and_team_models_answer_one_batch() {
        let f = fixture();
        let k = f.exes.config().k;
        let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let expert = service
            .register("expert", ModelSpec::expert_ranker(f.ranker, k))
            .unwrap();
        let team = service
            .register(
                "team",
                ModelSpec::team_former(
                    GreedyCoverTeamFormer::new(f.ranker),
                    f.ranker,
                    SeedPolicy::Unseeded,
                ),
            )
            .unwrap();

        let workload = QueryWorkload::answerable(&f.ds.graph, 1, 2, 3, 3, 11);
        let query = Arc::new(workload.queries()[0].clone());
        let subject = f.ranker.rank_all(&f.ds.graph, &query).top_k(1)[0];
        let batch = vec![
            ExplanationRequest::counterfactual_skills(expert, subject, query.clone()),
            ExplanationRequest::factual_query_terms(team, subject, query.clone()),
            ExplanationRequest::counterfactual_skills(team, subject, query.clone()),
        ];
        let (responses, report) = explain_all(&service, &batch);
        assert_eq!(report.groups, 1);
        assert_eq!(report.duplicate_requests, 0);

        // Team responses match a direct TeamMembershipTask facade call.
        let mut solo = f.exes.clone();
        solo.config_mut().parallel_probes = false;
        let former = GreedyCoverTeamFormer::new(f.ranker);
        let task = TeamMembershipTask::new(&former, &f.ranker, subject, None);
        let reference = solo.factual_query_terms(&task, &f.ds.graph, &query);
        assert_eq!(
            responses[1].expect_factual().shap_values().values(),
            reference.shap_values().values()
        );
        let reference_cf = solo.counterfactual_skills(&task, &f.ds.graph, &query);
        assert_eq!(
            responses[2].expect_counterfactual().explanations,
            reference_cf.explanations
        );
        // The expert response is a counterfactual, and distinct from team's.
        assert!(responses[0].as_counterfactual().is_some());
    }

    #[test]
    fn report_accounting_is_sane_and_duplicates_cost_no_probes() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let (_, report) = explain_all(&service, &requests);
        // A cold persistent cache must miss at least once per unique request.
        assert!(report.cache_misses >= requests.len() as u64);
        assert!(report.probes > 0);
        assert!((0.0..=1.0).contains(&report.hit_rate()));
        assert_eq!(report.duplicate_requests, 0);

        // Duplicated traffic answers from the dedup layer: no extra searches,
        // so the black-box probe count cannot grow with the duplicates.
        let mut doubled = requests.clone();
        doubled.extend(requests.clone());
        let (_, doubled_report) = explain_all(&service, &doubled);
        assert_eq!(doubled_report.duplicate_requests, requests.len());
        assert_eq!(doubled_report.groups, report.groups);
    }

    #[test]
    fn eviction_pressure_is_reported() {
        let f = fixture();
        let mut exes = f.exes.clone();
        // A cache far too small for the workload: evictions must show up.
        exes.config_mut().probe_cache_capacity = 8;
        let mut service = ExesService::from_graph(&exes, f.ds.graph.clone());
        let model = service
            .register(
                "propagation",
                ModelSpec::expert_ranker(f.ranker, exes.config().k),
            )
            .unwrap();
        let requests = workload_requests(&f, model);
        let (_, report) = explain_all(&service, &requests);
        assert!(report.cache_evictions > 0);
        assert_eq!(report.cache_evictions, service.probe_cache().evicted());
    }

    #[test]
    fn empty_batch_is_fine_and_invalid_specs_are_rejected() {
        let f = fixture();
        let (mut service, _) = service(&f);
        let (responses, report) = explain_all(&service, &[]);
        assert!(responses.is_empty());
        assert_eq!(report, ServiceReport::default());
        assert_eq!(report.hit_rate(), 0.0);
        // The service probes with the configured parallelism, either way.
        assert_eq!(
            service.config().parallel_probes,
            f.exes.config().parallel_probes
        );
        for parallel in [false, true] {
            let mut exes = f.exes.clone();
            exes.config_mut().parallel_probes = parallel;
            let service = ExesService::from_graph(&exes, f.ds.graph.clone());
            assert_eq!(service.config().parallel_probes, parallel);
        }

        assert_eq!(
            service
                .register("zero-k", ModelSpec::expert_ranker(f.ranker, 0))
                .err(),
            Some(ModelSpecError::ZeroK)
        );
        assert_eq!(
            service
                .register("propagation", ModelSpec::expert_ranker(f.ranker, 2))
                .err(),
            Some(ModelSpecError::DuplicateName("propagation".into()))
        );
        assert_eq!(service.registry().len(), 1);
        assert_eq!(
            service.model_id("propagation"),
            service.registry().id("propagation")
        );
    }

    #[test]
    fn explain_degrades_per_request_not_per_batch() {
        let f = fixture();
        let (svc, model) = service(&f);
        let requests = workload_requests(&f, model);
        let query = requests[0].query.clone();
        let good = requests[0].clone();
        let foreign =
            ExplanationRequest::counterfactual_skills(ModelId(41), good.subject, query.clone());
        let ghost =
            ExplanationRequest::counterfactual_skills(model, PersonId(u32::MAX), query.clone());
        // One valid request surrounded by invalid ones, plus a duplicate of
        // each: errors must land in their own slots (and their duplicates'),
        // while the valid request is answered exactly as if it were alone.
        let batch = vec![
            foreign.clone(),
            good.clone(),
            ghost.clone(),
            foreign.clone(),
            ghost.clone(),
        ];
        let (results, report) = svc.explain(&svc.snapshot(), &batch);
        assert_eq!(results.len(), 5);
        assert_eq!(
            results[0].as_ref().err(),
            Some(&RequestError::UnknownModel(ModelId(41)))
        );
        assert!(matches!(
            results[2].as_ref().err(),
            Some(RequestError::SubjectOutOfRange { .. })
        ));
        assert_eq!(
            results[3].as_ref().err(),
            results[0].as_ref().err(),
            "duplicates of a failed request clone its error"
        );
        assert_eq!(results[4].as_ref().err(), results[2].as_ref().err());
        assert_eq!(report.failed_requests, 4);
        assert_eq!(report.duplicate_requests, 2);
        assert_eq!(report.requests, 5);

        // The valid slot is byte-identical to a solo uncached answer, and the
        // batch's probes all belong to it (failures cost nothing).
        let mut solo_exes = f.exes.clone();
        solo_exes.config_mut().parallel_probes = false;
        let solo = solo_answer(&solo_exes, &f.ranker, &f.ds.graph, &good);
        assert_same_explanation(results[1].as_ref().unwrap(), &solo);
        let fresh = service(&f).0;
        let (alone_results, alone) = fresh.explain(&fresh.snapshot(), std::slice::from_ref(&good));
        assert!(alone_results[0].is_ok());
        assert_eq!(report.probes, alone.probes);

        // Errors render usefully.
        assert!(results[0]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("not registered here"));
        assert!(results[2]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn one_service_is_shared_across_threads() {
        // The cross-thread smoke test backing the compile-time Send + Sync
        // assertion: one Arc'd service, concurrent batches and a commit, all
        // answers identical to the single-threaded ones.
        let f = fixture();
        let (service, model) = service(&f);
        let service = Arc::new(service);
        let requests = workload_requests(&f, model);
        let (reference, _) = explain_all(&service, &requests);

        let concurrent: Vec<Vec<Explanation>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let requests = &requests;
                    scope.spawn(move || explain_all(&service, requests).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for responses in &concurrent {
            for (a, b) in reference.iter().zip(responses) {
                assert_same_explanation(a, b);
            }
        }
    }

    #[test]
    fn estimate_classifies_requests_without_probing() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let first = &requests[0];

        // A fresh service knows nothing: cold, and the peek costs no lookups.
        let snapshot = service.snapshot();
        let is_cold = |request| service.is_cold(&snapshot, request);
        assert_eq!(is_cold(first), Ok(true));
        assert_eq!(service.probe_cache().hits(), 0);
        assert_eq!(service.probe_cache().misses(), 0);

        // After answering, the same request is warm; a different subject of
        // the same (query, model) context rides the memoised plan.
        let _ = service.explain(&snapshot, std::slice::from_ref(first));
        assert_eq!(is_cold(first), Ok(false));
        let sibling = ExplanationRequest::new(
            model,
            requests
                .iter()
                .map(|r| r.subject)
                .find(|&s| s != first.subject)
                .unwrap(),
            first.query.clone(),
            first.kind,
        );
        assert_eq!(is_cold(&sibling), Ok(false));

        // The peek is itself free: the classifications above moved
        // no hit/miss counters.
        let hits = service.probe_cache().hits();
        let misses = service.probe_cache().misses();
        let _ = is_cold(first);
        let _ = is_cold(&sibling);
        assert_eq!(service.probe_cache().hits(), hits);
        assert_eq!(service.probe_cache().misses(), misses);

        // Validation mirrors the batch surface.
        let foreign = ExplanationRequest::counterfactual_skills(
            ModelId(77),
            first.subject,
            first.query.clone(),
        );
        assert_eq!(
            is_cold(&foreign),
            Err(RequestError::UnknownModel(ModelId(77)))
        );
        let ghost = ExplanationRequest::counterfactual_skills(
            model,
            PersonId(u32::MAX),
            first.query.clone(),
        );
        assert!(matches!(
            is_cold(&ghost),
            Err(RequestError::SubjectOutOfRange { .. })
        ));
    }

    #[test]
    fn team_requests_ride_a_memoised_plan() {
        let f = fixture();
        let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let planned = service
            .register(
                "greedy",
                ModelSpec::team_former(
                    GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                    TfIdfRanker::default(),
                    SeedPolicy::Unseeded,
                ),
            )
            .unwrap();
        let unplanned = service
            .register(
                "min-distance",
                ModelSpec::team_former(
                    MinDistanceTeamFormer::new(),
                    TfIdfRanker::default(),
                    SeedPolicy::Unseeded,
                ),
            )
            .unwrap();
        let query =
            Arc::new(QueryWorkload::answerable(&f.ds.graph, 1, 2, 3, 3, 11).queries()[0].clone());
        let snapshot = service.snapshot();
        for model in [planned, unplanned] {
            let first =
                ExplanationRequest::counterfactual_skills(model, PersonId(0), query.clone());
            let (results, report) = service.explain(&snapshot, std::slice::from_ref(&first));
            let answered = results[0].as_ref().unwrap();
            let sibling = ExplanationRequest::factual_skills(model, PersonId(1), query.clone());
            if model == planned {
                assert!(answered.accounting().incremental_rescores > 0);
                assert_eq!(report.plan_misses, 1);
                assert_eq!(service.is_cold(&snapshot, &sibling), Ok(false));
            } else {
                assert_eq!(answered.accounting().incremental_rescores, 0);
                assert_eq!(report.plan_misses, 0);
                assert_eq!(service.is_cold(&snapshot, &sibling), Ok(true));
            }
        }
    }

    #[test]
    fn plan_memo_efficiency_is_reported_per_batch() {
        let f = fixture();
        let (service, model) = service(&f);
        let requests = workload_requests(&f, model);
        let (_, cold) = explain_all(&service, &requests);
        // One plan built per (query, model) context, then shared.
        assert_eq!(cold.plan_misses, cold.groups as u64);
        assert!(cold.plan_hits > 0);
        // A warm service never rebuilds: every plan request is a memo hit.
        let (_, warm) = explain_all(&service, &requests);
        assert_eq!(warm.plan_misses, 0);
        assert!(warm.plan_hits > 0);
        assert_eq!(
            service.probe_cache().plan_misses(),
            cold.plan_misses,
            "lifetime counter equals the single cold batch's builds"
        );
        assert_eq!(
            service.probe_cache().plan_hits(),
            cold.plan_hits + warm.plan_hits
        );
    }

    #[test]
    fn budgeted_responses_are_counted_and_marked() {
        let f = fixture();
        let mut exes = f.exes.clone();
        *exes.config_mut() = exes
            .config()
            .clone()
            .with_probe_budget(crate::probe::ProbeBudget::bounded(3));
        let mut starved = ExesService::from_graph(&exes, f.ds.graph.clone());
        let model = starved
            .register(
                "propagation",
                ModelSpec::expert_ranker(f.ranker, exes.config().k),
            )
            .unwrap();
        let requests = workload_requests(&f, model);
        let (responses, report) = explain_all(&starved, &requests);
        assert!(
            report.budgeted_results > 0,
            "a 3-probe budget must truncate this workload"
        );
        assert!(report.probes <= 3 * requests.len());
        for response in &responses {
            if response.completeness().is_budgeted() {
                assert!(response.accounting().probed <= 3);
            }
        }
        // An unbounded service reports none.
        let (_, unbounded) = explain_all(&service(&f).0, &requests);
        assert_eq!(unbounded.budgeted_results, 0);
    }

    #[test]
    fn hit_rate_is_zero_when_no_probe_was_looked_up() {
        // The /metrics endpoint divides by (hits + misses); the zero-probe
        // edge must stay a well-defined 0.0, not NaN.
        let report = ServiceReport::default();
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        assert_eq!(report.hit_rate(), 0.0);
        assert!(report.hit_rate().is_finite());
        let hits_only = ServiceReport {
            cache_hits: 3,
            ..Default::default()
        };
        assert_eq!(hits_only.hit_rate(), 1.0);
    }

    #[test]
    fn merged_reports_sum_counters_and_gate_the_epoch_to_the_minimum() {
        let mut merged = ServiceReport {
            epoch: 7,
            requests: 4,
            groups: 2,
            duplicate_requests: 1,
            failed_requests: 0,
            cache_hits: 10,
            cache_misses: 5,
            cache_evictions: 1,
            probes: 5,
            incremental_rescores: 3,
            full_fallback_rescores: 2,
            plan_hits: 4,
            plan_misses: 1,
            budgeted_results: 1,
        };
        let other = ServiceReport {
            epoch: 6,
            requests: 2,
            groups: 1,
            duplicate_requests: 0,
            failed_requests: 2,
            cache_hits: 4,
            cache_misses: 6,
            cache_evictions: 0,
            probes: 6,
            incremental_rescores: 1,
            full_fallback_rescores: 5,
            plan_hits: 0,
            plan_misses: 2,
            budgeted_results: 0,
        };
        merged.merge(&other);
        // The epoch is a read-your-writes gate: a merged report promises only
        // what every contributing worker has reached.
        assert_eq!(merged.epoch, 6);
        assert_eq!(merged.requests, 6);
        assert_eq!(merged.groups, 3);
        assert_eq!(merged.duplicate_requests, 1);
        assert_eq!(merged.failed_requests, 2);
        assert_eq!(merged.cache_hits, 14);
        assert_eq!(merged.cache_misses, 11);
        assert_eq!(merged.cache_evictions, 1);
        assert_eq!(merged.probes, 11);
        assert_eq!(merged.incremental_rescores, 4);
        assert_eq!(merged.full_fallback_rescores, 7);
        assert_eq!(merged.plan_hits, 4);
        assert_eq!(merged.plan_misses, 3);
        assert_eq!(merged.budgeted_results, 1);
        assert_eq!(merged.hit_rate(), 14.0 / 25.0);
        // Merging a single-worker report into itself twice is associative
        // with the fold the router runs: min(epoch) never moves upward.
        let mut again = merged;
        again.merge(&merged);
        assert_eq!(again.epoch, 6);
        assert_eq!(again.requests, 12);
    }

    #[test]
    fn register_adds_expert_and_team_models_up_front() {
        let f = fixture();
        let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let a = service
            .register("a", ModelSpec::expert_ranker(f.ranker, 2))
            .unwrap();
        let b = service
            .register(
                "b",
                ModelSpec::team_former(
                    GreedyCoverTeamFormer::new(f.ranker),
                    f.ranker,
                    SeedPolicy::Fixed(PersonId(0)),
                ),
            )
            .unwrap();
        assert_eq!(service.registry().len(), 2);
        assert_eq!(service.model_id("a"), Some(a));
        assert_eq!(service.model_id("b"), Some(b));
        assert!(service
            .register("bad", ModelSpec::expert_ranker(f.ranker, 0))
            .is_err());
    }

    #[test]
    fn a_fixed_team_seed_outside_the_graph_is_rejected_at_registration() {
        let f = fixture();
        let mut service = ExesService::from_graph(&f.exes, f.ds.graph.clone());
        let num_people = f.ds.graph.num_people();
        let team = |seed| {
            ModelSpec::team_former(
                GreedyCoverTeamFormer::new(f.ranker),
                f.ranker,
                SeedPolicy::Fixed(seed),
            )
        };
        // Registered, its first request would panic the whole batch.
        let outside = PersonId::from_index(num_people);
        assert_eq!(
            service.register("team", team(outside)).err(),
            Some(ModelSpecError::SeedOutOfRange {
                seed: outside,
                num_people
            })
        );
        assert!(service.registry().is_empty());
        let last = PersonId::from_index(num_people - 1);
        assert!(service.register("team", team(last)).is_ok());
    }
}
