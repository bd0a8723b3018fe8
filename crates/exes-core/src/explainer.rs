//! The `Exes` facade: one method per explanation family, pruned and
//! exhaustive, and [`Exes::explain`], the one dispatch from an
//! [`ExplanationKind`] to its family.

use crate::config::ExesConfig;
use crate::counterfactual::{
    beam::beam_search,
    candidates::{self, ErasedLinkPredictor},
    exhaustive::{
        all_link_additions, all_link_removals, all_query_augmentations, all_skill_removals,
        exhaustive_search, skill_additions_all_people, skill_additions_all_skills,
    },
    CounterfactualKind, CounterfactualResult,
};
use crate::factual::{
    explain_collaborations, explain_query_terms, explain_skills, FactualExplanation,
};
use crate::probe::{BatchStats, Completeness, ProbeBatch, ProbeBudget, ProbeCache};
use crate::service::{Explanation, ExplanationKind};
use crate::tasks::{ErasedDecisionModel, Probe};
use exes_embedding::SkillEmbedding;
use exes_graph::{CollabGraph, Perturbation, PerturbationSet, Query};
use exes_linkpred::LinkPredictor;
use std::sync::Arc;

/// Which of the two skill-addition exhaustive baselines to run (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkillAdditionBaseline {
    /// "Exhaustive neighbourhood" (N): all people × the pruned candidate skills.
    AllPeople,
    /// "Exhaustive skills" (S): the subject's neighbourhood × the full skill universe.
    AllSkills,
}

/// A counterfactual search over a candidate list: [`beam_search`] or
/// [`exhaustive_search`].
type Search<D> = fn(
    &ProbeBatch<'_, D>,
    Probe,
    &[Perturbation],
    CounterfactualKind,
    &ExesConfig,
) -> CounterfactualResult;

/// A search's candidate perturbations and their kind, plus the probes spent
/// scoring them and whether the probe budget cut that scoring short (only
/// link removals score their candidates).
type Candidates = (Vec<Perturbation>, CounterfactualKind, BatchStats, bool);

/// Candidates that cost no probes to generate.
fn unscored(perturbations: Vec<Perturbation>, kind: CounterfactualKind) -> Candidates {
    (perturbations, kind, BatchStats::default(), false)
}

/// The ExES explainer: bundles the configuration with the two auxiliary models
/// the pruning strategies need — the skill embedding `W` (Pruning Strategy 4)
/// and the link predictor `L` (Pruning Strategy 5), held as an
/// [`ErasedLinkPredictor`] — plus an optional probe memo cache shared by
/// every explanation computed through this instance.
///
/// Every method is generic over `D: ErasedDecisionModel + ?Sized` (every
/// [`crate::tasks::DecisionModel`] qualifies, and so does the boxed
/// `dyn ErasedDecisionModel` the model registry stores), so the same explainer
/// instance serves expert-search relevance and team-membership questions.
#[derive(Debug, Clone)]
pub struct Exes {
    config: ExesConfig,
    embedding: SkillEmbedding,
    link_predictor: Arc<dyn ErasedLinkPredictor>,
    probe_cache: Option<Arc<ProbeCache>>,
}

impl Exes {
    /// Assembles an explainer.
    pub fn new<L: LinkPredictor + Send + Sync + 'static>(
        config: ExesConfig,
        embedding: SkillEmbedding,
        link_predictor: L,
    ) -> Self {
        Exes {
            config,
            embedding,
            link_predictor: Arc::new(link_predictor),
            probe_cache: None,
        }
    }

    /// Attaches a shared probe memo cache. Every subsequent explanation —
    /// counterfactual searches and factual SHAP coalitions alike — goes
    /// through it; results are byte-identical to uncached runs, only the
    /// probe counts change.
    ///
    /// The cache keys by (graph, query) context, subject, **and** the
    /// decision model's fingerprint
    /// ([`crate::tasks::DecisionModel::model_fingerprint`]: ranker name +
    /// parameters + `k` + a team former's seed), so one cache is sound to
    /// share across many model configurations — [`crate::service::ExesService`]
    /// attaches its single persistent cache here and serves its whole model
    /// registry from it.
    pub fn with_probe_cache(mut self, cache: Arc<ProbeCache>) -> Self {
        self.probe_cache = Some(cache);
        self
    }

    /// The attached probe cache, if any.
    pub fn probe_cache(&self) -> Option<&ProbeCache> {
        self.probe_cache.as_deref()
    }

    /// The active configuration.
    pub fn config(&self) -> &ExesConfig {
        &self.config
    }

    /// Mutable access to the configuration (used by parameter-sensitivity sweeps).
    pub fn config_mut(&mut self) -> &mut ExesConfig {
        &mut self.config
    }

    /// The skill embedding used for Pruning Strategy 4.
    pub fn embedding(&self) -> &SkillEmbedding {
        &self.embedding
    }

    /// Opens the probe session of one family call: every probe of the
    /// request goes through it, its plan fetched once.
    fn session<'a, D: ErasedDecisionModel + ?Sized>(
        &'a self,
        task: &'a D,
        graph: &'a CollabGraph,
        query: &'a Query,
    ) -> ProbeBatch<'a, D> {
        ProbeBatch::new(
            task,
            graph,
            query,
            self.config.parallel_probes,
            self.probe_cache(),
        )
    }

    /// Answers a `kind` explanation: the one dispatch from an
    /// [`ExplanationKind`] to its family method, with the factual families
    /// pruned. [`crate::service::ExesService`] answers every request through
    /// it.
    pub fn explain<D: ErasedDecisionModel + ?Sized>(
        &self,
        kind: ExplanationKind,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> Explanation {
        match kind {
            ExplanationKind::CounterfactualSkills => {
                Explanation::Counterfactual(self.counterfactual_skills(task, graph, query))
            }
            ExplanationKind::CounterfactualQuery => {
                Explanation::Counterfactual(self.counterfactual_query(task, graph, query))
            }
            ExplanationKind::CounterfactualLinks => {
                Explanation::Counterfactual(self.counterfactual_links(task, graph, query))
            }
            ExplanationKind::FactualSkills => {
                Explanation::Factual(self.factual_skills(task, graph, query, true))
            }
            ExplanationKind::FactualQueryTerms => {
                Explanation::Factual(self.factual_query_terms(task, graph, query))
            }
            ExplanationKind::FactualCollaborations => {
                Explanation::Factual(self.factual_collaborations(task, graph, query, true))
            }
        }
    }

    // ------------------------------------------------------------------
    // Factual explanations
    // ------------------------------------------------------------------

    /// Skill factual explanation (Pruning Strategy 1 when `pruned`).
    pub fn factual_skills<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
        pruned: bool,
    ) -> FactualExplanation {
        explain_skills(&self.session(task, graph, query), &self.config, pruned)
    }

    /// Query-term factual explanation (no pruning applies).
    pub fn factual_query_terms<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> FactualExplanation {
        explain_query_terms(&self.session(task, graph, query), &self.config)
    }

    /// Collaboration factual explanation (Pruning Strategy 2 when `pruned`).
    pub fn factual_collaborations<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
        pruned: bool,
    ) -> FactualExplanation {
        explain_collaborations(&self.session(task, graph, query), &self.config, pruned)
    }

    // ------------------------------------------------------------------
    // Counterfactual explanations — pruned (beam search + strategies 4/5)
    // ------------------------------------------------------------------

    /// Skill counterfactuals: removals when the subject is currently selected,
    /// additions otherwise (Section 3.3.1).
    pub fn counterfactual_skills<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> CounterfactualResult {
        let (subject, embedding, cfg) = (task.subject_id(), &self.embedding, &self.config);
        self.counterfactual(task, graph, query, beam_search, |_, selected, _| {
            if selected {
                unscored(
                    candidates::skill_removal_candidates(graph, query, subject, embedding, cfg),
                    CounterfactualKind::SkillRemoval,
                )
            } else {
                unscored(
                    candidates::skill_addition_candidates(graph, query, subject, embedding, cfg),
                    CounterfactualKind::SkillAddition,
                )
            }
        })
    }

    /// Query-augmentation counterfactuals (Section 3.3.2).
    pub fn counterfactual_query<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> CounterfactualResult {
        self.counterfactual(task, graph, query, beam_search, |_, selected, _| {
            unscored(
                candidates::query_augmentation_candidates(
                    graph,
                    query,
                    task.subject_id(),
                    selected,
                    &self.embedding,
                    &self.config,
                ),
                CounterfactualKind::QueryAugmentation,
            )
        })
    }

    /// Collaboration counterfactuals: link removals when the subject is selected,
    /// link additions otherwise (Section 3.3.3, Pruning Strategy 5).
    pub fn counterfactual_links<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> CounterfactualResult {
        self.counterfactual(
            task,
            graph,
            query,
            beam_search,
            |engine, selected, remaining| {
                if selected {
                    let (removals, scoring, truncated) =
                        candidates::link_removal_candidates(engine, &self.config, remaining);
                    (
                        removals,
                        CounterfactualKind::LinkRemoval,
                        scoring,
                        truncated,
                    )
                } else {
                    unscored(
                        candidates::link_addition_candidates(
                            graph,
                            task.subject_id(),
                            self.link_predictor.as_ref(),
                            &self.config,
                        ),
                        CounterfactualKind::LinkAddition,
                    )
                }
            },
        )
    }

    // ------------------------------------------------------------------
    // Counterfactual explanations — exhaustive baselines
    // ------------------------------------------------------------------

    /// Exhaustive skill counterfactuals. For selected subjects this searches all
    /// skill removals in the network; for unselected subjects the
    /// `addition_baseline` chooses between the paper's N and S baselines.
    pub fn counterfactual_skills_exhaustive<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
        addition_baseline: SkillAdditionBaseline,
    ) -> CounterfactualResult {
        self.counterfactual(task, graph, query, exhaustive_search, |_, selected, _| {
            if selected {
                return unscored(all_skill_removals(graph), CounterfactualKind::SkillRemoval);
            }
            let additions = match addition_baseline {
                SkillAdditionBaseline::AllPeople => {
                    let skills = candidates::candidate_skills_for_addition(
                        query,
                        &self.embedding,
                        self.config.num_candidates,
                    );
                    skill_additions_all_people(graph, &skills)
                }
                SkillAdditionBaseline::AllSkills => {
                    skill_additions_all_skills(graph, task.subject_id(), self.config.skill_radius)
                }
            };
            unscored(additions, CounterfactualKind::SkillAddition)
        })
    }

    /// Exhaustive query-augmentation counterfactuals (every skill not in the query).
    pub fn counterfactual_query_exhaustive<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> CounterfactualResult {
        self.counterfactual(task, graph, query, exhaustive_search, |_, _, _| {
            unscored(
                all_query_augmentations(graph, query),
                CounterfactualKind::QueryAugmentation,
            )
        })
    }

    /// Exhaustive collaboration counterfactuals: all edge removals (selected
    /// subjects) or all missing edges incident to the subject (unselected).
    pub fn counterfactual_links_exhaustive<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) -> CounterfactualResult {
        self.counterfactual(task, graph, query, exhaustive_search, |_, selected, _| {
            if selected {
                unscored(all_link_removals(graph), CounterfactualKind::LinkRemoval)
            } else {
                let additions = all_link_additions(graph, task.subject_id());
                unscored(additions, CounterfactualKind::LinkAddition)
            }
        })
    }

    /// The request-level path shared by every counterfactual family.
    ///
    /// It opens the request's probe session and probes the reference
    /// decision — the empty perturbation set — once, through the session, so
    /// a warm cache answers it for free and a plan answers it without a full
    /// ranking. It generates the candidates from that decision and the budget
    /// it left, and runs `search` on what the request's [`ProbeBudget`] still
    /// allows. The reference probe and any candidate scoring are merged into
    /// the result's accounting, so it counts every probe of the request, and
    /// a [`Completeness::Budgeted`] marker reports that total against the
    /// configured budget — set as well when candidate scoring, not the
    /// search, ran out of budget.
    fn counterfactual<D: ErasedDecisionModel + ?Sized>(
        &self,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
        search: Search<D>,
        candidates: impl FnOnce(&ProbeBatch<'_, D>, bool, Option<usize>) -> Candidates,
    ) -> CounterfactualResult {
        let engine = self.session(task, graph, query);
        let mut budget = self.config.probe_budget.tracker();
        // Unbounded: the reference is probed even when the budget cannot
        // afford it (see `ExesConfig::probe_budget`).
        let (reference, mut accounting) = engine.score(&[PerturbationSet::new()], None);
        let reference = reference[0];
        budget.charge(accounting.probed);
        let (perturbations, kind, scoring, scoring_truncated) =
            candidates(&engine, reference.positive, budget.remaining());
        budget.charge(scoring.probed);
        accounting.merge(&scoring);
        let remaining = budget
            .remaining()
            .map_or(ProbeBudget::UNBOUNDED, ProbeBudget::bounded);
        let search_cfg = self.config.clone().with_probe_budget(remaining);
        let mut result = search(&engine, reference, &perturbations, kind, &search_cfg);
        result.accounting.merge(&accounting);
        if let Some(limit) = self.config.probe_budget.limit() {
            if scoring_truncated || result.completeness.is_budgeted() {
                result.completeness = Completeness::Budgeted {
                    spent: result.accounting.probed,
                    budget: limit,
                };
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputMode;
    use crate::probe::BaselinePlan;
    use crate::tasks::{DecisionModel, ExpertRelevanceTask, TeamMembershipTask};
    use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
    use exes_embedding::EmbeddingConfig;
    use exes_expert_search::{ExpertRanker, PropagationRanker};
    use exes_graph::{GraphView, Neighborhood, PersonId, PerturbedGraph};
    use exes_linkpred::CommonNeighbors;
    use exes_team::GreedyCoverTeamFormer;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Fixture {
        ds: SyntheticDataset,
        exes: Exes,
        ranker: PropagationRanker,
    }

    fn fixture() -> Fixture {
        let ds = SyntheticDataset::generate(&DatasetConfig::tiny("exes", 33));
        let embedding = SkillEmbedding::train(
            ds.corpus.token_bags(),
            ds.graph.vocab().len(),
            &EmbeddingConfig {
                dim: 16,
                ..Default::default()
            },
        );
        let cfg = ExesConfig::fast()
            .with_k(5)
            .with_num_candidates(6)
            .with_output_mode(OutputMode::SmoothRank);
        Fixture {
            ds,
            exes: Exes::new(cfg, embedding, CommonNeighbors),
            ranker: PropagationRanker::default(),
        }
    }

    /// A query someone actually matches, plus one person inside the top-k and one outside.
    fn query_and_subjects(f: &Fixture) -> (Query, PersonId, PersonId) {
        let workload = QueryWorkload::answerable(&f.ds.graph, 5, 2, 3, 3, 7);
        if let Some(q) = workload.queries().iter().next() {
            let ranking = f.ranker.rank_all(&f.ds.graph, q);
            let top = ranking.top_k(f.exes.config().k);
            let inside = top[0];
            let outside = ranking.entries()[f.exes.config().k + 2].0;
            return (q.clone(), inside, outside);
        }
        unreachable!("workload is non-empty");
    }

    #[test]
    fn factual_explanations_run_end_to_end() {
        let f = fixture();
        let (q, inside, _) = query_and_subjects(&f);
        let task = ExpertRelevanceTask::new(&f.ranker, inside, f.exes.config().k);
        let skills = f.exes.factual_skills(&task, &f.ds.graph, &q, true);
        assert!(skills.num_features() > 0);
        let query_terms = f.exes.factual_query_terms(&task, &f.ds.graph, &q);
        assert_eq!(query_terms.num_features(), q.len());
        let collabs = f.exes.factual_collaborations(&task, &f.ds.graph, &q, true);
        assert!(collabs.num_features() <= f.ds.graph.num_edges());
    }

    #[test]
    fn counterfactual_skill_explanations_flip_the_decision() {
        let f = fixture();
        let (q, inside, outside) = query_and_subjects(&f);
        let k = f.exes.config().k;

        let expert_task = ExpertRelevanceTask::new(&f.ranker, inside, k);
        let removal = f.exes.counterfactual_skills(&expert_task, &f.ds.graph, &q);
        for e in &removal.explanations {
            let (view, pq) = e.perturbations.apply(&f.ds.graph, &q);
            assert!(!expert_task.probe(&view, &pq).positive);
            assert_eq!(e.kind, CounterfactualKind::SkillRemoval);
        }

        let non_expert_task = ExpertRelevanceTask::new(&f.ranker, outside, k);
        let addition = f
            .exes
            .counterfactual_skills(&non_expert_task, &f.ds.graph, &q);
        for e in &addition.explanations {
            let (view, pq) = e.perturbations.apply(&f.ds.graph, &q);
            assert!(non_expert_task.probe(&view, &pq).positive);
            assert_eq!(e.kind, CounterfactualKind::SkillAddition);
        }
    }

    #[test]
    fn counterfactual_query_and_link_explanations_flip_the_decision() {
        let f = fixture();
        let (q, inside, outside) = query_and_subjects(&f);
        let k = f.exes.config().k;

        for (subject, expect_positive_after) in [(inside, false), (outside, true)] {
            let task = ExpertRelevanceTask::new(&f.ranker, subject, k);
            for result in [
                f.exes.counterfactual_query(&task, &f.ds.graph, &q),
                f.exes.counterfactual_links(&task, &f.ds.graph, &q),
            ] {
                for e in &result.explanations {
                    let (view, pq) = e.perturbations.apply(&f.ds.graph, &q);
                    assert_eq!(task.probe(&view, &pq).positive, expect_positive_after);
                }
            }
        }
    }

    #[test]
    fn exhaustive_baselines_agree_on_flip_validity() {
        let f = fixture();
        let (q, inside, _) = query_and_subjects(&f);
        let task = ExpertRelevanceTask::new(&f.ranker, inside, f.exes.config().k);
        let exhaustive = f
            .exes
            .counterfactual_query_exhaustive(&task, &f.ds.graph, &q);
        for e in &exhaustive.explanations {
            let (view, pq) = e.perturbations.apply(&f.ds.graph, &q);
            assert!(!task.probe(&view, &pq).positive);
        }
        // Exhaustive minimality: if both found explanations, the baseline's
        // minimum can never exceed the pruned search's minimum.
        let pruned = f.exes.counterfactual_query(&task, &f.ds.graph, &q);
        if let (Some(b), Some(p)) = (exhaustive.minimal_size(), pruned.minimal_size()) {
            assert!(b <= p);
        }
    }

    /// Asserts that `explain(kind, ...)` answers exactly what the family
    /// method for `kind` answers, factuals pruned.
    fn assert_explain_matches_families<D: ErasedDecisionModel + ?Sized>(
        exes: &Exes,
        task: &D,
        graph: &CollabGraph,
        query: &Query,
    ) {
        let families = [
            (
                ExplanationKind::CounterfactualSkills,
                Explanation::Counterfactual(exes.counterfactual_skills(task, graph, query)),
            ),
            (
                ExplanationKind::CounterfactualQuery,
                Explanation::Counterfactual(exes.counterfactual_query(task, graph, query)),
            ),
            (
                ExplanationKind::CounterfactualLinks,
                Explanation::Counterfactual(exes.counterfactual_links(task, graph, query)),
            ),
            (
                ExplanationKind::FactualSkills,
                Explanation::Factual(exes.factual_skills(task, graph, query, true)),
            ),
            (
                ExplanationKind::FactualQueryTerms,
                Explanation::Factual(exes.factual_query_terms(task, graph, query)),
            ),
            (
                ExplanationKind::FactualCollaborations,
                Explanation::Factual(exes.factual_collaborations(task, graph, query, true)),
            ),
        ];
        for (kind, family) in families {
            // Uncached runs are deterministic down to every counter and
            // float, so the debug renderings must agree byte for byte.
            assert_eq!(
                format!("{:?}", exes.explain(kind, task, graph, query)),
                format!("{family:?}"),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn explain_answers_every_kind_with_its_family_method() {
        let f = fixture();
        let (q, inside, outside) = query_and_subjects(&f);
        let expert = ExpertRelevanceTask::new(&f.ranker, inside, f.exes.config().k);
        assert_explain_matches_families(&f.exes, &expert, &f.ds.graph, &q);
        let former = GreedyCoverTeamFormer::new(f.ranker);
        let team = TeamMembershipTask::new(&former, &f.ranker, outside, Some(inside));
        assert_explain_matches_families(&f.exes, &team, &f.ds.graph, &q);
    }

    /// An expert-relevance decision that counts the probes it answers.
    struct Counting<'a> {
        task: ExpertRelevanceTask<'a, PropagationRanker>,
        probes: AtomicUsize,
    }

    impl DecisionModel for Counting<'_> {
        fn subject(&self) -> PersonId {
            self.task.subject()
        }

        fn probe<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> Probe {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.task.probe(graph, query)
        }
    }

    #[test]
    fn a_budget_spent_before_the_search_leaves_it_no_probe() {
        let mut f = fixture();
        let (q, inside, _) = query_and_subjects(&f);
        let task = Counting {
            task: ExpertRelevanceTask::new(&f.ranker, inside, f.exes.config().k),
            probes: AtomicUsize::new(0),
        };
        // A selected subject's link-removal candidates are scored one probe
        // per edge of its neighbourhood; the budget covers exactly those and
        // the reference probe.
        let scored = Neighborhood::compute(&f.ds.graph, inside, f.exes.config().collab_radius)
            .edges_within(&f.ds.graph)
            .len();
        assert!(scored > 4, "only {scored} candidate edges");
        let budget = 1 + scored;
        f.exes.config_mut().probe_budget = ProbeBudget::bounded(budget);

        let result = f.exes.counterfactual_links(&task, &f.ds.graph, &q);
        assert!(result.explanations.is_empty());
        assert_eq!(
            result.completeness,
            Completeness::Budgeted {
                spent: budget,
                budget
            }
        );
        // The one reference probe and the candidate scoring ran; no search
        // chunk did.
        assert_eq!(task.probes.load(Ordering::Relaxed), budget);
        assert_eq!(result.accounting.probed, budget);
    }

    /// A propagation relevance decision that counts its plan builds.
    struct PlanCounting<'a> {
        task: ExpertRelevanceTask<'a, PropagationRanker>,
        plans: AtomicUsize,
    }

    impl DecisionModel for PlanCounting<'_> {
        fn subject(&self) -> PersonId {
            self.task.subject()
        }

        fn probe<G: GraphView + ?Sized>(&self, graph: &G, query: &Query) -> Probe {
            self.task.probe(graph, query)
        }

        fn rank_cutoff(&self) -> Option<usize> {
            self.task.rank_cutoff()
        }

        fn model_fingerprint(&self) -> u64 {
            self.task.model_fingerprint()
        }

        fn build_plan(&self, graph: &CollabGraph, query: &Query) -> Option<BaselinePlan> {
            self.plans.fetch_add(1, Ordering::Relaxed);
            self.task.build_plan(graph, query)
        }

        fn probe_with_plan(
            &self,
            plan: &BaselinePlan,
            view: &PerturbedGraph<'_>,
            query: &Query,
        ) -> Option<Probe> {
            self.task.probe_with_plan(plan, view, query)
        }
    }

    #[test]
    fn a_cacheless_request_builds_its_plan_once() {
        let f = fixture();
        assert!(f.exes.probe_cache().is_none());
        let (q, inside, _) = query_and_subjects(&f);
        let counting = || PlanCounting {
            task: ExpertRelevanceTask::new(&f.ranker, inside, f.exes.config().k),
            plans: AtomicUsize::new(0),
        };
        // A selected subject scores link-removal candidates before the
        // search: both, and the reference probe, share the session's plan.
        let task = counting();
        let links = f.exes.counterfactual_links(&task, &f.ds.graph, &q);
        assert!(links.accounting.incremental_rescores > 0);
        assert_eq!(task.plans.load(Ordering::Relaxed), 1);
        // Every expansion pass and the final pass share one plan too.
        let task = counting();
        let collabs = f.exes.factual_collaborations(&task, &f.ds.graph, &q, true);
        assert!(collabs.accounting().incremental_rescores > 0);
        assert_eq!(task.plans.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn config_mut_allows_parameter_sweeps() {
        let mut f = fixture();
        f.exes.config_mut().beam_width = 2;
        assert_eq!(f.exes.config().beam_width, 2);
        assert!(f.exes.embedding().vocab_size() > 0);
    }
}
