//! The model registry: named, type-erased decision-model configurations.
//!
//! ExES is model-agnostic — the same explainer answers "why is this person a
//! top-`k` expert under ranker X?" and "why is this person on the team formed
//! by F?". A production service therefore hosts *many* model configurations
//! at once: different rankers, different cutoffs, different team formers with
//! their seed policies. [`ModelRegistry`] binds each to a subject as a boxed
//! [`crate::tasks::DecisionModel`] and hands out opaque
//! [`ModelId`]s that [`crate::service::ExplanationRequest`]s address; the
//! per-model fingerprint (ranker name + parameters + `k` + seed) is mixed
//! into every [`crate::probe::ProbeCache`] key, so one persistent cache can
//! soundly serve every registered model without cross-talk.

use crate::tasks::{DecisionModel, ExpertRelevanceTask, TeamMembershipTask};
use exes_expert_search::ExpertRanker;
use exes_graph::PersonId;
use exes_team::TeamFormer;
use rustc_hash::FxHashMap;
use std::fmt;

/// Opaque handle to a model registered in a [`ModelRegistry`] (and hence in
/// an [`crate::service::ExesService`]).
///
/// Ids are only meaningful for the registry that issued them; addressing a
/// request to a foreign or stale id panics with a descriptive message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub(crate) u32);

impl ModelId {
    /// The id's position in registration order (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a team-formation model picks the required "main member" seed handed to
/// the [`TeamFormer`] on every probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedPolicy {
    /// Form teams without a required seed.
    Unseeded,
    /// Always seed the team with this person (the paper's evaluated former
    /// builds teams around a user-chosen main member).
    Fixed(PersonId),
}

impl SeedPolicy {
    /// The seed handed to [`TeamFormer::form_team`].
    pub fn seed(self) -> Option<PersonId> {
        match self {
            SeedPolicy::Unseeded => None,
            SeedPolicy::Fixed(p) => Some(p),
        }
    }
}

/// Why a [`ModelSpec`] was rejected by [`ModelRegistry::register`] (or a task
/// constructor such as [`ExpertRelevanceTask::try_new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpecError {
    /// The top-`k` cutoff was 0; a relevance decision needs `k >= 1`.
    ZeroK,
    /// The model name is already taken in this registry.
    DuplicateName(String),
    /// A [`SeedPolicy::Fixed`] seed names a person outside the graph the
    /// model is registered against.
    SeedOutOfRange {
        /// The fixed seed.
        seed: PersonId,
        /// How many people the graph has.
        num_people: usize,
    },
}

impl fmt::Display for ModelSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelSpecError::ZeroK => {
                write!(f, "the top-k cutoff must be at least 1 (got k = 0)")
            }
            ModelSpecError::DuplicateName(name) => {
                write!(f, "a model named '{name}' is already registered")
            }
            ModelSpecError::SeedOutOfRange { seed, num_people } => write!(
                f,
                "the team seed {seed} is out of range for the graph ({num_people} people)"
            ),
        }
    }
}

impl std::error::Error for ModelSpecError {}

/// Internal erasure of one model configuration: binds a subject to produce a
/// probe-ready [`DecisionModel`]. Object-safe so the registry can store
/// arbitrary ranker / former types side by side.
trait ModelFamily: Send + Sync {
    /// Binds the decision model to one subject.
    fn bind<'a>(&'a self, subject: PersonId) -> Box<dyn DecisionModel + 'a>;

    /// Validates the configuration without instantiating per-request state.
    fn validate(&self) -> Result<(), ModelSpecError>;

    /// The fixed seed handed to a team former, if any.
    fn seed(&self) -> Option<PersonId> {
        None
    }

    /// Human-readable configuration summary (for `Debug` and diagnostics).
    fn describe(&self) -> String;
}

struct ExpertModel<R> {
    ranker: R,
    k: usize,
}

impl<R: ExpertRanker + Send + Sync> ModelFamily for ExpertModel<R> {
    fn bind<'a>(&'a self, subject: PersonId) -> Box<dyn DecisionModel + 'a> {
        Box::new(ExpertRelevanceTask::new(&self.ranker, subject, self.k))
    }

    fn validate(&self) -> Result<(), ModelSpecError> {
        // Route through the non-panicking constructor so the registry and the
        // task agree on what "valid" means.
        ExpertRelevanceTask::try_new(&self.ranker, PersonId(0), self.k).map(|_| ())
    }

    fn describe(&self) -> String {
        format!("expert ranker '{}' at k = {}", self.ranker.name(), self.k)
    }
}

struct TeamModel<F, R> {
    former: F,
    signal_ranker: R,
    seed: SeedPolicy,
}

impl<F, R> ModelFamily for TeamModel<F, R>
where
    F: TeamFormer + Send + Sync,
    R: ExpertRanker + Send + Sync,
{
    fn bind<'a>(&'a self, subject: PersonId) -> Box<dyn DecisionModel + 'a> {
        Box::new(TeamMembershipTask::new(
            &self.former,
            &self.signal_ranker,
            subject,
            self.seed.seed(),
        ))
    }

    fn validate(&self) -> Result<(), ModelSpecError> {
        Ok(())
    }

    fn seed(&self) -> Option<PersonId> {
        self.seed.seed()
    }

    fn describe(&self) -> String {
        format!(
            "team former '{}' (signal ranker '{}', seed {:?})",
            self.former.name(),
            self.signal_ranker.name(),
            self.seed
        )
    }
}

/// One model configuration, ready to be registered under a name.
///
/// A spec owns its ranker / former, so registered models live as long as the
/// service hosting them. Build one with [`ModelSpec::expert_ranker`] or
/// [`ModelSpec::team_former`].
pub struct ModelSpec {
    family: Box<dyn ModelFamily>,
}

impl ModelSpec {
    /// Top-`k` expert relevance under `ranker`: requests against this model
    /// explain "is the subject ranked within the top-`k`?".
    ///
    /// `k == 0` is representable here but rejected with
    /// [`ModelSpecError::ZeroK`] at registration.
    pub fn expert_ranker<R>(ranker: R, k: usize) -> Self
    where
        R: ExpertRanker + Send + Sync + 'static,
    {
        ModelSpec {
            family: Box::new(ExpertModel { ranker, k }),
        }
    }

    /// Team membership under `former`: requests against this model explain
    /// "is the subject on the team formed for the query?". The former is
    /// seeded per [`SeedPolicy`]; `signal_ranker` supplies the beam-search
    /// ordering signal (the decision itself always comes from the former).
    pub fn team_former<F, R>(former: F, signal_ranker: R, seed: SeedPolicy) -> Self
    where
        F: TeamFormer + Send + Sync + 'static,
        R: ExpertRanker + Send + Sync + 'static,
    {
        ModelSpec {
            family: Box::new(TeamModel {
                former,
                signal_ranker,
                seed,
            }),
        }
    }

    /// Rejects a fixed team seed outside a graph of `num_people` people.
    pub(crate) fn check_seed(&self, num_people: usize) -> Result<(), ModelSpecError> {
        match self.family.seed() {
            Some(seed) if seed.index() >= num_people => {
                Err(ModelSpecError::SeedOutOfRange { seed, num_people })
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSpec")
            .field("config", &self.family.describe())
            .finish()
    }
}

struct RegisteredModel {
    name: String,
    spec: ModelSpec,
    fingerprint: u64,
}

/// Named decision-model configurations, addressable by [`ModelId`].
///
/// The registry validates specs on entry (a `k = 0` expert model or a
/// duplicate name is rejected with a typed [`ModelSpecError`]) and records
/// each model's cache fingerprint — the value every probe of that model mixes
/// into its [`crate::probe::ProbeCache`] key. The fingerprint is
/// *content-derived* (ranker name + parameters + `k` + seed): two registered
/// models with identical configurations share cached probes (which is sound —
/// they answer identically), while any parameter difference isolates them.
#[derive(Default)]
pub struct ModelRegistry {
    models: Vec<RegisteredModel>,
    by_name: FxHashMap<String, ModelId>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `spec` under `name`, returning its [`ModelId`].
    ///
    /// Fails with [`ModelSpecError::DuplicateName`] when the name is taken
    /// and with the spec's own validation error (e.g.
    /// [`ModelSpecError::ZeroK`]) when the configuration is invalid; the
    /// registry is unchanged on failure.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        spec: ModelSpec,
    ) -> Result<ModelId, ModelSpecError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(ModelSpecError::DuplicateName(name));
        }
        spec.family.validate()?;
        // The spec's fingerprint is, by construction, the fingerprint every
        // task bound from it reports to the probe cache (the subject is a
        // separate key component, so any subject works here).
        let fingerprint = spec.family.bind(PersonId(0)).model_fingerprint();
        let id = ModelId(u32::try_from(self.models.len()).expect("fewer than 2^32 models"));
        self.by_name.insert(name.clone(), id);
        self.models.push(RegisteredModel {
            name,
            spec,
            fingerprint,
        });
        Ok(id)
    }

    /// Looks a model up by name.
    pub fn id(&self, name: &str) -> Option<ModelId> {
        self.by_name.get(name).copied()
    }

    /// The name a model was registered under.
    pub fn name(&self, id: ModelId) -> Option<&str> {
        self.models.get(id.index()).map(|m| m.name.as_str())
    }

    /// The model's cache-isolation fingerprint.
    pub fn fingerprint(&self, id: ModelId) -> Option<u64> {
        self.models.get(id.index()).map(|m| m.fingerprint)
    }

    /// Iterates over `(id, name)` pairs in registration order.
    pub fn models(&self) -> impl Iterator<Item = (ModelId, &str)> {
        self.models
            .iter()
            .enumerate()
            .map(|(i, m)| (ModelId(i as u32), m.name.as_str()))
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Binds the decision model `id` to one subject.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not issued by this registry.
    pub(crate) fn bind(&self, id: ModelId, subject: PersonId) -> Box<dyn DecisionModel + '_> {
        match self.models.get(id.index()) {
            Some(model) => model.spec.family.bind(subject),
            None => panic!(
                "ModelId({}) is not registered here ({} model(s) known); \
                 ids are only valid for the registry/service that issued them",
                id.0,
                self.models.len()
            ),
        }
    }
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for m in &self.models {
            map.entry(&m.name, &m.spec.family.describe());
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exes_expert_search::{PropagationRanker, TfIdfRanker};
    use exes_graph::{
        CollabGraph, CollabGraphBuilder, Perturbation, PerturbationSet, PerturbedGraph, Query,
    };
    use exes_team::GreedyCoverTeamFormer;

    #[test]
    fn register_validates_and_names_models() {
        let mut reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let a = reg
            .register(
                "tfidf@3",
                ModelSpec::expert_ranker(TfIdfRanker::default(), 3),
            )
            .unwrap();
        let b = reg
            .register(
                "team",
                ModelSpec::team_former(
                    GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                    PropagationRanker::default(),
                    SeedPolicy::Unseeded,
                ),
            )
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.id("tfidf@3"), Some(a));
        assert_eq!(reg.name(b), Some("team"));
        assert_eq!(reg.id("unknown"), None);
        let listed: Vec<_> = reg.models().collect();
        assert_eq!(listed, vec![(a, "tfidf@3"), (b, "team")]);
        let debug = format!("{reg:?}");
        assert!(debug.contains("tfidf@3") && debug.contains("greedy-cover"));
    }

    #[test]
    fn invalid_and_duplicate_specs_are_rejected_with_typed_errors() {
        let mut reg = ModelRegistry::new();
        assert_eq!(
            reg.register("bad", ModelSpec::expert_ranker(TfIdfRanker::default(), 0))
                .err(),
            Some(ModelSpecError::ZeroK)
        );
        assert!(reg.is_empty(), "rejected specs must not be registered");
        reg.register("x", ModelSpec::expert_ranker(TfIdfRanker::default(), 3))
            .unwrap();
        assert_eq!(
            reg.register("x", ModelSpec::expert_ranker(TfIdfRanker::default(), 5))
                .err(),
            Some(ModelSpecError::DuplicateName("x".into()))
        );
        assert_eq!(reg.len(), 1);
        // Errors render usefully.
        assert!(ModelSpecError::ZeroK.to_string().contains("at least 1"));
        assert!(ModelSpecError::DuplicateName("x".into())
            .to_string()
            .contains('x'));
        let seed = ModelSpecError::SeedOutOfRange {
            seed: PersonId(9),
            num_people: 3,
        };
        assert!(seed.to_string().contains("3 people"));
    }

    #[test]
    fn fingerprints_match_bound_tasks_and_separate_configurations() {
        let mut reg = ModelRegistry::new();
        let k3 = reg
            .register("k3", ModelSpec::expert_ranker(TfIdfRanker::default(), 3))
            .unwrap();
        let k5 = reg
            .register("k5", ModelSpec::expert_ranker(TfIdfRanker::default(), 5))
            .unwrap();
        let k3_again = reg
            .register(
                "k3-copy",
                ModelSpec::expert_ranker(TfIdfRanker::default(), 3),
            )
            .unwrap();
        assert_ne!(reg.fingerprint(k3), reg.fingerprint(k5));
        // Identical configurations share a fingerprint (sound cache sharing).
        assert_eq!(reg.fingerprint(k3), reg.fingerprint(k3_again));
        // And the registry fingerprint is exactly what a directly-built task
        // reports, so facade calls and service calls hit the same entries.
        let ranker = TfIdfRanker::default();
        let direct = ExpertRelevanceTask::new(&ranker, PersonId(7), 3);
        assert_eq!(reg.fingerprint(k3), Some(direct.model_fingerprint()));
    }

    /// Asserts that `bound` answers every method the engine calls exactly
    /// as `direct` does: the identity overlay, a perturbed overlay, the
    /// fingerprint, the cutoff, and a planned probe of the identity overlay.
    fn assert_probes_like(bound: &dyn DecisionModel, direct: &dyn DecisionModel, g: &CollabGraph) {
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let identity = PerturbedGraph::identity(g);
        let delta = PerturbationSet::singleton(Perturbation::RemoveSkill {
            person: PersonId(0),
            skill: ml,
        });
        let perturbed = delta.apply_to_graph(g);
        assert_eq!(bound.subject(), direct.subject());
        assert_eq!(bound.probe(&identity, &q), direct.probe(&identity, &q));
        assert_eq!(bound.probe(&perturbed, &q), direct.probe(&perturbed, &q));
        assert_eq!(bound.model_fingerprint(), direct.model_fingerprint());
        assert_eq!(bound.rank_cutoff(), direct.rank_cutoff());
        // TF-IDF's plan answers the reference probe; it must be the full one.
        let plan = bound.build_plan(g, &q).expect("TF-IDF plans");
        assert_eq!(
            bound.probe_with_plan(&plan, &identity, &q),
            Some(direct.probe(&identity, &q))
        );
    }

    #[test]
    fn bound_models_probe_like_their_concrete_tasks() {
        let mut b = CollabGraphBuilder::new();
        let ada = b.add_person("ada", ["db", "ml"]);
        let bob = b.add_person("bob", ["db"]);
        b.add_edge(ada, bob);
        let g = b.build();

        let mut reg = ModelRegistry::new();
        let expert = reg
            .register(
                "tfidf@1",
                ModelSpec::expert_ranker(TfIdfRanker::default(), 1),
            )
            .unwrap();
        let team = reg
            .register(
                "team",
                ModelSpec::team_former(
                    GreedyCoverTeamFormer::new(TfIdfRanker::default()),
                    TfIdfRanker::default(),
                    SeedPolicy::Fixed(bob),
                ),
            )
            .unwrap();
        let ranker = TfIdfRanker::default();
        let former = GreedyCoverTeamFormer::new(TfIdfRanker::default());
        for subject in [ada, bob] {
            let direct = ExpertRelevanceTask::new(&ranker, subject, 1);
            assert_probes_like(reg.bind(expert, subject).as_ref(), &direct, &g);
            let direct = TeamMembershipTask::new(&former, &ranker, subject, Some(bob));
            assert_probes_like(reg.bind(team, subject).as_ref(), &direct, &g);
        }
        assert_eq!(reg.bind(expert, ada).rank_cutoff(), Some(1));
        assert_eq!(reg.bind(team, ada).rank_cutoff(), None);
    }

    #[test]
    #[should_panic(expected = "not registered here")]
    fn foreign_ids_panic_with_a_clear_message() {
        let reg = ModelRegistry::new();
        let _ = reg.bind(ModelId(0), PersonId(0));
    }

    #[test]
    fn seed_policy_resolves() {
        assert_eq!(SeedPolicy::Unseeded.seed(), None);
        assert_eq!(SeedPolicy::Fixed(PersonId(4)).seed(), Some(PersonId(4)));
    }
}
