//! # exes-core
//!
//! ExES: factual and counterfactual explanations for expert-search and
//! team-formation systems, with the paper's five pruning strategies.
//!
//! ## What gets explained
//!
//! ExES is *post-hoc* and *model-agnostic*: it never inspects the system being
//! explained, it only probes it with perturbed inputs through the
//! [`DecisionModel`] trait. Two ready-made tasks are provided:
//!
//! * [`ExpertRelevanceTask`] — "is person *p* ranked inside the top-*k* by this
//!   [`exes_expert_search::ExpertRanker`]?" (`C_{p_i}(q, G)` in the paper),
//! * [`TeamMembershipTask`] — "is person *p* on the team formed by this
//!   [`exes_team::TeamFormer`]?" (`M_{p_i}(q, G)`).
//!
//! ## Explanation families
//!
//! * **Factual** ([`factual`]): SHAP attributions over query terms, neighbourhood
//!   skills, and neighbourhood collaborations, using Pruning Strategies 1
//!   (network locality) and 2 (influential collaborations).
//! * **Counterfactual** ([`counterfactual`]): minimal perturbation sets that flip
//!   the decision, found by beam search (Pruning Strategy 3) over candidates
//!   proposed by a skill embedding (Pruning Strategy 4) and a link predictor
//!   (Pruning Strategy 5). Exhaustive baselines for both families live in
//!   [`counterfactual::exhaustive`] and behind `pruned: false` switches, and are
//!   what the evaluation tables compare against.
//!
//! The [`Exes`] facade bundles a configuration, an embedding and a link
//! predictor. It exposes one method per explanation family, pruned and
//! exhaustive, and [`Exes::explain`], which answers any [`ExplanationKind`]
//! through the matching family method. [`ExesService`] answers batches of
//! [`ExplanationRequest`]s with [`ExesService::explain`] over a live graph
//! store, a registry of models and one persistent probe cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counterfactual;
pub mod explainer;
pub mod factual;
pub mod features;
pub mod metrics;
pub mod model;
pub mod probe;
pub mod service;
pub mod tasks;

pub use config::{ExesConfig, OutputMode};
pub use counterfactual::{CounterfactualExplanation, CounterfactualKind};
pub use explainer::Exes;
pub use factual::FactualExplanation;
pub use features::Feature;
pub use metrics::{counterfactual_precision, factual_precision_at_k, PrecisionReport};
pub use model::{ModelId, ModelRegistry, ModelSpec, ModelSpecError, SeedPolicy};
pub use probe::{
    BaselinePlan, BatchStats, Completeness, CostEstimate, ProbeBatch, ProbeBudget, ProbeCache,
};
pub use service::{
    ExesService, Explanation, ExplanationKind, ExplanationRequest, RequestError, ServiceReport,
};
pub use tasks::{
    DecisionModel, ErasedDecisionModel, ExpertRelevanceTask, Probe, TeamMembershipTask,
};
