//! The binary decisions ExES explains: relevance status and team membership.
//!
//! [`DecisionModel`] is the one interface to a black box. It is object-safe:
//! `probe` takes the one graph variant the probe engine constructs, a
//! [`PerturbedGraph`] overlay (the reference probe is the overlay of the
//! empty perturbation set), and `build_plan` takes the base [`CollabGraph`].
//! So the explanation stack serves a concrete task with static dispatch and
//! a `Box<dyn DecisionModel>` from the [`crate::model::ModelRegistry`] with
//! dynamic dispatch, through the same code.

use crate::model::ModelSpecError;
use crate::probe::BaselinePlan;
use exes_expert_search::{ExpertRanker, RankerBaseline};
use exes_graph::{CollabGraph, PersonId, PerturbedGraph, Query};
use exes_team::{TeamBaseline, TeamFormer};
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

/// The result of probing the black box on one (possibly perturbed) input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The binary decision: was the subject selected (top-`k` / on the team)?
    pub positive: bool,
    /// A monotone "how close to being selected" signal — **lower is better**
    /// (for expert search it is the subject's 1-based rank). Beam search uses
    /// it to order candidate perturbations (line 21 of Algorithm 1).
    pub signal: f64,
}

/// A black-box binary decision about one person, probeable on perturbed inputs.
///
/// Implementations must be deterministic functions of the graph view and
/// query, and `Sync`: the [`crate::probe::ProbeBatch`] engine probes them from
/// multiple threads concurrently (which is safe exactly because probing takes
/// `&self` and must not mutate).
///
/// The whole explanation stack ([`crate::probe::ProbeBatch`], beam search,
/// the exhaustive baselines, factual SHAP) is generic over
/// `D: DecisionModel + ?Sized`, so `&ConcreteTask` and
/// `&dyn DecisionModel` probe through the same code path.
pub trait DecisionModel: Sync {
    /// The person whose selection is being explained (`p_i`).
    fn subject(&self) -> PersonId;

    /// Evaluates the black box on a perturbed overlay of the graph.
    fn probe(&self, graph: &PerturbedGraph<'_>, query: &Query) -> Probe;

    /// The top-`k` cutoff anchoring the decision boundary in the model's
    /// rank signal, when the decision *is* a rank cutoff (`None` otherwise,
    /// e.g. team membership). Factual SHAP's smooth scalarisation
    /// ([`crate::config::OutputMode::SmoothRank`]) centres its sigmoid here,
    /// so a model registered at its own `k` is attributed against its own
    /// boundary rather than the explainer-wide default.
    fn rank_cutoff(&self) -> Option<usize> {
        None
    }

    /// A fingerprint of the model's *identity and parameters* — everything
    /// besides the graph, the query and the subject that can change a probe's
    /// outcome (the ranker and its tunables, the cutoff `k`, a team former's
    /// seed member, ...). [`crate::probe::ProbeCache`] mixes it into every
    /// memo key, which is what lets one persistent cache soundly serve many
    /// registered model configurations: two models with different parameters
    /// can never alias, and a reconfigured model naturally misses cold.
    ///
    /// The default hashes the implementing *type's* name
    /// ([`std::any::type_name`]): distinct custom model types never alias,
    /// and instances of one type share entries. That sharing is only sound
    /// when the type carries no decision-relevant parameters — override this
    /// (hash the name and every such parameter, as the built-in tasks do)
    /// whenever differently-parameterised instances of a custom model can
    /// share a cache.
    fn model_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        std::any::type_name::<Self>().hash(&mut h);
        h.finish()
    }

    /// Whether an edit to a skill outside the query can change this model's
    /// probe. The default, `true`, observes every edit.
    ///
    /// A model answering `false` promises that, for an unperturbed query,
    /// only the [`exes_graph::PerturbationSet::query_visible`] edits of a
    /// set move its probe. [`crate::probe::ProbeBatch::score`] then keys,
    /// plans and probes every such set on those edits alone, so sets that
    /// differ only in unseen edits share one probe and one cache entry.
    fn observes_non_query_skills(&self) -> bool {
        true
    }

    /// Builds the model's incremental-rescoring baseline for one
    /// `(graph, query)` context, if the model supports one.
    ///
    /// The plan is the expensive part of a probe (typically one full
    /// `rank_all` plus whatever per-ranker state localized rescoring needs),
    /// computed once and shared across every probe of a batch — and, through
    /// [`crate::probe::ProbeCache`], across batches of the same context. The
    /// default returns `None`: models without an incremental path keep full
    /// re-rank semantics untouched.
    fn build_plan(&self, graph: &CollabGraph, query: &Query) -> Option<BaselinePlan> {
        let _ = (graph, query);
        None
    }

    /// Answers one overlay probe from a previously built plan, rescoring only
    /// the perturbation's affected neighbourhood.
    ///
    /// Returning `None` — for any reason: no incremental support, a perturbed
    /// query, a delta outside the plan's localization guarantees — makes the
    /// engine fall back to the full [`DecisionModel::probe`]. Implementations
    /// must be exact: byte-identical to the full probe.
    fn probe_with_plan(
        &self,
        plan: &BaselinePlan,
        view: &PerturbedGraph<'_>,
        query: &Query,
    ) -> Option<Probe> {
        let _ = (plan, view, query);
        None
    }
}

/// Expert-search relevance: is the subject ranked within the top-`k`?
#[derive(Debug, Clone, Copy)]
pub struct ExpertRelevanceTask<'a, R> {
    ranker: &'a R,
    subject: PersonId,
    k: usize,
}

impl<'a, R: ExpertRanker> ExpertRelevanceTask<'a, R> {
    /// Creates the task for `subject` with cutoff `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`; use [`ExpertRelevanceTask::try_new`] to handle
    /// invalid cutoffs without unwinding (untrusted model specs go through
    /// that path in [`crate::model::ModelRegistry::register`]).
    pub fn new(ranker: &'a R, subject: PersonId, k: usize) -> Self {
        Self::try_new(ranker, subject, k).expect("k must be at least 1")
    }

    /// Creates the task for `subject` with cutoff `k`, rejecting `k == 0`
    /// with a typed error instead of panicking.
    pub fn try_new(ranker: &'a R, subject: PersonId, k: usize) -> Result<Self, ModelSpecError> {
        if k == 0 {
            return Err(ModelSpecError::ZeroK);
        }
        Ok(ExpertRelevanceTask { ranker, subject, k })
    }

    /// The cutoff `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The wrapped ranker.
    pub fn ranker(&self) -> &'a R {
        self.ranker
    }
}

impl<R: ExpertRanker + Sync> DecisionModel for ExpertRelevanceTask<'_, R> {
    fn subject(&self) -> PersonId {
        self.subject
    }

    fn probe(&self, graph: &PerturbedGraph<'_>, query: &Query) -> Probe {
        let rank = self.ranker.rank_of(graph, query, self.subject);
        Probe {
            positive: rank <= self.k,
            signal: rank as f64,
        }
    }

    fn rank_cutoff(&self) -> Option<usize> {
        Some(self.k)
    }

    fn model_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        "expert-relevance".hash(&mut h);
        self.ranker.name().hash(&mut h);
        self.ranker.hash_params(&mut h);
        self.k.hash(&mut h);
        h.finish()
    }

    fn observes_non_query_skills(&self) -> bool {
        self.ranker.observes_non_query_skills()
    }

    fn build_plan(&self, graph: &CollabGraph, query: &Query) -> Option<BaselinePlan> {
        self.ranker
            .build_baseline(graph, query)
            .map(BaselinePlan::new)
    }

    fn probe_with_plan(
        &self,
        plan: &BaselinePlan,
        view: &PerturbedGraph<'_>,
        query: &Query,
    ) -> Option<Probe> {
        let baseline = plan.payload::<RankerBaseline>()?;
        let rank = self
            .ranker
            .incremental_rank_of(baseline, view, query, self.subject)?;
        Some(Probe {
            positive: rank <= self.k,
            signal: rank as f64,
        })
    }
}

/// Team membership: is the subject part of the team formed for the query?
///
/// Team formers return a set rather than a ranking, so the beam-search ordering
/// signal comes from an auxiliary expert ranker (`signal_ranker`): perturbations
/// that improve the subject's expert rank are explored first. The *decision*
/// itself always comes from the team former.
///
/// The task keeps the default [`DecisionModel::observes_non_query_skills`]:
/// a former over TF-IDF, whose length norm reads every skill of a query-term
/// holder, observes every edit.
///
/// When the former and the signal ranker both build baselines (a
/// [`exes_team::GreedyCoverTeamFormer`] over TF-IDF, with any planned signal
/// ranker), the task plans: a probe patches both baselines instead of ranking
/// the perturbed graph twice. Planned membership and the planned signal are
/// both exact.
#[derive(Debug, Clone, Copy)]
pub struct TeamMembershipTask<'a, F, R> {
    former: &'a F,
    signal_ranker: &'a R,
    subject: PersonId,
    seed: Option<PersonId>,
}

impl<'a, F: TeamFormer, R: ExpertRanker> TeamMembershipTask<'a, F, R> {
    /// Creates the task. `seed` is the main team member handed to the former
    /// (the paper's evaluated former requires one).
    pub fn new(
        former: &'a F,
        signal_ranker: &'a R,
        subject: PersonId,
        seed: Option<PersonId>,
    ) -> Self {
        TeamMembershipTask {
            former,
            signal_ranker,
            subject,
            seed,
        }
    }

    /// The seed (main member) used when forming teams.
    pub fn seed(&self) -> Option<PersonId> {
        self.seed
    }

    /// The wrapped team former.
    pub fn former(&self) -> &'a F {
        self.former
    }
}

impl<F: TeamFormer + Sync, R: ExpertRanker + Sync> DecisionModel for TeamMembershipTask<'_, F, R> {
    fn subject(&self) -> PersonId {
        self.subject
    }

    fn probe(&self, graph: &PerturbedGraph<'_>, query: &Query) -> Probe {
        let member = self.former.is_member(graph, query, self.seed, self.subject);
        let rank = self.signal_ranker.rank_of(graph, query, self.subject);
        Probe {
            positive: member,
            signal: rank as f64,
        }
    }

    fn model_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        "team-membership".hash(&mut h);
        self.former.name().hash(&mut h);
        self.former.hash_params(&mut h);
        self.signal_ranker.name().hash(&mut h);
        self.signal_ranker.hash_params(&mut h);
        self.seed.map(|p| p.0).hash(&mut h);
        h.finish()
    }

    /// The former's and the signal ranker's baselines, when both have one.
    fn build_plan(&self, graph: &CollabGraph, query: &Query) -> Option<BaselinePlan> {
        Some(BaselinePlan::new(TeamPlan {
            former: self.former.build_baseline(graph, query)?,
            signal: self.signal_ranker.build_baseline(graph, query)?,
        }))
    }

    /// Answers only when both the former and the signal ranker answer from
    /// their baselines; either declining (a perturbed query, a delta that
    /// moves more than half the graph) falls back to the full probe.
    fn probe_with_plan(
        &self,
        plan: &BaselinePlan,
        view: &PerturbedGraph<'_>,
        query: &Query,
    ) -> Option<Probe> {
        let plan = plan.payload::<TeamPlan>()?;
        let member = self.former.incremental_is_member(
            &plan.former,
            view,
            query,
            self.seed,
            self.subject,
        )?;
        let rank =
            self.signal_ranker
                .incremental_rank_of(&plan.signal, view, query, self.subject)?;
        Some(Probe {
            positive: member,
            signal: rank as f64,
        })
    }
}

/// A team-membership task's per-context plan: one baseline for the
/// membership decision, one for the beam-search signal.
struct TeamPlan {
    former: TeamBaseline,
    signal: RankerBaseline,
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_expert_search::TfIdfRanker;
    use exes_graph::{CollabGraph, CollabGraphBuilder, Perturbation, PerturbationSet};
    use exes_team::GreedyCoverTeamFormer;

    fn toy() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let a = b.add_person("a", ["db", "ml"]);
        let c = b.add_person("c", ["db"]);
        let d = b.add_person("d", ["vision"]);
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.build()
    }

    #[test]
    fn expert_relevance_probe_reports_rank_and_status() {
        let g = toy();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let identity = PerturbedGraph::identity(&g);
        let probe = task.probe(&identity, &q);
        assert!(probe.positive);
        assert_eq!(probe.signal, 1.0);
        let task2 = ExpertRelevanceTask::new(&ranker, PersonId(2), 1);
        let probe2 = task2.probe(&identity, &q);
        assert!(!probe2.positive);
        assert!(probe2.signal > 1.0);
        assert_eq!(task.k(), 1);
        assert_eq!(task.subject(), PersonId(0));
    }

    #[test]
    fn expert_relevance_probe_reacts_to_perturbations() {
        let g = toy();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let ml = g.vocab().id("ml").unwrap();
        let db = g.vocab().id("db").unwrap();
        let delta: PerturbationSet = [
            Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: ml,
            },
            Perturbation::RemoveSkill {
                person: PersonId(0),
                skill: db,
            },
        ]
        .into_iter()
        .collect();
        let view = delta.apply_to_graph(&g);
        assert!(!task.probe(&view, &q).positive);
    }

    #[test]
    fn team_membership_probe() {
        let g = toy();
        let q = Query::parse("db vision", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
        let task = TeamMembershipTask::new(&former, &ranker, PersonId(2), Some(PersonId(0)));
        let identity = PerturbedGraph::identity(&g);
        let probe = task.probe(&identity, &q);
        assert!(probe.positive, "vision holder should be on the team");
        assert_eq!(task.seed(), Some(PersonId(0)));

        let not_needed = TeamMembershipTask::new(&former, &ranker, PersonId(1), Some(PersonId(0)));
        assert!(!not_needed.probe(&identity, &q).positive);
    }

    #[test]
    fn team_tasks_plan_only_when_former_and_signal_ranker_do() {
        let g = toy();
        let q = Query::parse("db vision", g.vocab()).unwrap();
        let tfidf = TfIdfRanker::default();
        let gcn = exes_expert_search::GcnRanker::default();
        let greedy = GreedyCoverTeamFormer::new(TfIdfRanker::default());
        let min_distance = exes_team::MinDistanceTeamFormer::new();
        let subject = PersonId(2);
        assert!(TeamMembershipTask::new(&greedy, &tfidf, subject, None)
            .build_plan(&g, &q)
            .is_some());
        assert!(TeamMembershipTask::new(&greedy, &gcn, subject, None)
            .build_plan(&g, &q)
            .is_none());
        assert!(
            TeamMembershipTask::new(&min_distance, &tfidf, subject, None)
                .build_plan(&g, &q)
                .is_none()
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_task_is_rejected() {
        let ranker = TfIdfRanker::default();
        let _ = ExpertRelevanceTask::new(&ranker, PersonId(0), 0);
    }

    #[test]
    fn try_new_rejects_zero_k_without_panicking() {
        let ranker = TfIdfRanker::default();
        assert_eq!(
            ExpertRelevanceTask::try_new(&ranker, PersonId(0), 0).err(),
            Some(ModelSpecError::ZeroK)
        );
        assert!(ExpertRelevanceTask::try_new(&ranker, PersonId(0), 3).is_ok());
    }

    #[test]
    fn model_fingerprints_separate_models_and_parameters() {
        let ranker = TfIdfRanker::default();
        let a = ExpertRelevanceTask::new(&ranker, PersonId(0), 3);
        let b = ExpertRelevanceTask::new(&ranker, PersonId(1), 3);
        // The subject is a separate cache-key component, not part of the
        // model identity: two subjects of one model share a fingerprint.
        assert_eq!(a.model_fingerprint(), b.model_fingerprint());
        // A different cutoff is a different model.
        let deeper = ExpertRelevanceTask::new(&ranker, PersonId(0), 4);
        assert_ne!(a.model_fingerprint(), deeper.model_fingerprint());
        // A different ranker parameterisation is a different model.
        let tuned = TfIdfRanker { length_norm: 0.75 };
        let tuned_task = ExpertRelevanceTask::new(&tuned, PersonId(0), 3);
        assert_ne!(a.model_fingerprint(), tuned_task.model_fingerprint());

        // Team tasks: the seed is part of the model identity.
        let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
        let seeded = TeamMembershipTask::new(&former, &ranker, PersonId(2), Some(PersonId(0)));
        let unseeded = TeamMembershipTask::new(&former, &ranker, PersonId(2), None);
        assert_ne!(seeded.model_fingerprint(), unseeded.model_fingerprint());
        assert_ne!(seeded.model_fingerprint(), a.model_fingerprint());
    }
}
