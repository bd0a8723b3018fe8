//! Factual explanations: SHAP attributions over input features (Section 3.2).

mod collaboration;
mod query;
mod skill;

pub use collaboration::{collaboration_features_exhaustive, explain_collaborations};
pub use query::explain_query_terms;
pub use skill::{explain_skills, skill_features_exhaustive, skill_features_pruned};

use crate::config::{ExesConfig, OutputMode};
use crate::features::Feature;
use crate::probe::{BatchStats, Completeness, ProbeBatch, PROBE_CHUNK};
use crate::tasks::DecisionModel;
use exes_graph::{CollabGraph, PerturbationSet};
use exes_shap::{shapley, CachingModel, MaskedModel, SampledShap, ShapValues};
use std::cell::Cell;

/// A factual explanation: one SHAP value per scored feature.
#[derive(Debug, Clone)]
pub struct FactualExplanation {
    features: Vec<Feature>,
    shap: ShapValues,
    /// Every coalition probe computing it cost.
    accounting: BatchStats,
    /// Per-feature 95% confidence half-widths (all zero for exact
    /// enumeration; parallel to `features`).
    half_widths: Vec<f64>,
    /// Whether the estimator ran to its natural end or was cut short by the
    /// configured probe budget.
    completeness: Completeness,
}

impl FactualExplanation {
    pub(crate) fn new(features: Vec<Feature>, shap: ShapValues, accounting: BatchStats) -> Self {
        debug_assert_eq!(features.len(), shap.len());
        let half_widths = vec![0.0; features.len()];
        FactualExplanation {
            features,
            shap,
            accounting,
            half_widths,
            completeness: Completeness::Exhaustive,
        }
    }

    /// Records the sampling uncertainty and budget outcome of the estimator
    /// run behind this explanation.
    pub(crate) fn with_sampling(
        mut self,
        half_widths: Vec<f64>,
        completeness: Completeness,
    ) -> Self {
        debug_assert_eq!(half_widths.len(), self.features.len());
        self.half_widths = half_widths;
        self.completeness = completeness;
        self
    }

    /// The scored features, in scoring order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The raw SHAP values (parallel to [`FactualExplanation::features`]).
    pub fn shap_values(&self) -> &ShapValues {
        &self.shap
    }

    /// Iterates over `(feature, shap value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Feature, f64)> + '_ {
        self.features
            .iter()
            .copied()
            .zip(self.shap.values().iter().copied())
    }

    /// The SHAP value of a specific feature, if it was scored.
    pub fn value_of(&self, feature: &Feature) -> Option<f64> {
        self.features
            .iter()
            .position(|f| f == feature)
            .map(|i| self.shap.value(i))
    }

    /// The paper's "explanation size": number of features with non-zero SHAP value.
    pub fn size(&self) -> usize {
        self.shap.explanation_size()
    }

    /// Number of scored features (the SHAP feature space after pruning).
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// Every coalition probe computing the explanation cost. With a warm
    /// [`crate::probe::ProbeCache`], `probed` drops while the SHAP values
    /// stay identical.
    pub fn accounting(&self) -> BatchStats {
        self.accounting
    }

    /// Per-feature 95% confidence half-widths, parallel to
    /// [`FactualExplanation::features`]. All zero when the attribution came
    /// from exact enumeration.
    pub fn half_widths(&self) -> &[f64] {
        &self.half_widths
    }

    /// Whether the estimator ran to its natural end or was truncated by the
    /// configured [`crate::probe::ProbeBudget`]. A `Budgeted` explanation is
    /// an honest partial estimate — its `half_widths` say how partial.
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The `k` most influential features by |SHAP|, most influential first.
    pub fn top_k(&self, k: usize) -> Vec<(Feature, f64)> {
        self.shap
            .top_k(k)
            .into_iter()
            .map(|i| (self.features[i], self.shap.value(i)))
            .collect()
    }

    /// Features with positive SHAP value (supporting the positive decision),
    /// sorted by descending value.
    pub fn supporting(&self) -> Vec<(Feature, f64)> {
        let mut v: Vec<(Feature, f64)> = self.iter().filter(|&(_, s)| s > 0.0).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Features with negative SHAP value (working against the positive
    /// decision), sorted by ascending value (most harmful first).
    pub fn opposing(&self) -> Vec<(Feature, f64)> {
        let mut v: Vec<(Feature, f64)> = self.iter().filter(|&(_, s)| s < 0.0).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// A plain-text force-plot-like rendering (used by the examples to mirror
    /// the paper's Figures 3 and 10).
    pub fn render(&self, graph: &CollabGraph, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "base value = {:.3}, f(input) = {:.3}\n",
            self.shap.base_value(),
            self.shap.full_value()
        ));
        for (feature, value) in self.top_k(max_rows) {
            let bar_len = (value.abs() * 40.0).round() as usize;
            let bar: String =
                std::iter::repeat_n(if value >= 0.0 { '+' } else { '-' }, bar_len.clamp(1, 40))
                    .collect();
            out.push_str(&format!(
                "{value:>8.3}  {bar:<40}  {}\n",
                feature.describe(graph)
            ));
        }
        out
    }
}

/// Runs [`shapley`] over `features`, probing every coalition through the
/// session `engine`, and returns the estimate with every probe it cost. A
/// per-call coalition memo sits in front of the mask model, so `probed`
/// counts *distinct* coalitions — and with a [`crate::probe::ProbeCache`]
/// behind the session, only those the cache could not answer.
/// `max_evaluations` caps the estimator's model evaluations; distinct probes
/// never exceed evaluations, so it bounds black-box probes too.
fn attribute<D: DecisionModel + ?Sized>(
    engine: &ProbeBatch<'_, D>,
    cfg: &ExesConfig,
    features: &[Feature],
    max_evaluations: Option<usize>,
) -> (SampledShap, BatchStats) {
    let model = CachingModel::new(FeatureMaskModel::new(engine, features, cfg));
    let sampled = shapley(&model, &cfg.shap, max_evaluations);
    (sampled, model.into_inner().accounting())
}

/// The masked model handed to the Shapley engine: masking a feature out applies
/// its removal perturbation to the graph/query before probing the black box.
/// Every coalition evaluation goes through the request's probe session, so it
/// answers from the context's baseline plan where the model has one and,
/// with a [`crate::probe::ProbeCache`] behind the session, shares memoised
/// probes with the counterfactual searches of the same (graph, query,
/// subject). The all-present coalition is the session's reference probe.
///
/// Both estimators behind [`shapley`] hand their coalitions over in batches:
/// exact enumeration up to 2,048 coalitions at a time, the permutation
/// sampler every affordable pass's walk at once. A batch is scored through
/// [`ProbeBatch::score`] [`PROBE_CHUNK`] coalitions at a time: each chunk's
/// misses spread over threads when they are costly enough, and a repeat of
/// a reduced coalition is probed once.
struct FeatureMaskModel<'a, D: ?Sized> {
    engine: &'a ProbeBatch<'a, D>,
    features: &'a [Feature],
    output_mode: OutputMode,
    k: usize,
    /// Every coalition probe this model asked the session for.
    accounting: Cell<BatchStats>,
}

impl<'a, D: DecisionModel + ?Sized> FeatureMaskModel<'a, D> {
    fn new(engine: &'a ProbeBatch<'a, D>, features: &'a [Feature], cfg: &ExesConfig) -> Self {
        FeatureMaskModel {
            engine,
            features,
            output_mode: cfg.output_mode,
            // SmoothRank centres its sigmoid on the *model's* decision
            // boundary: a task probing a top-k cutoff reports it through
            // `DecisionModel::rank_cutoff`, so a model registered at its own
            // k is attributed against that k, not the explainer-wide default
            // (models without a rank cutoff, e.g. team membership, keep the
            // configured smoothing anchor).
            k: engine.task().rank_cutoff().unwrap_or(cfg.k),
            accounting: Cell::default(),
        }
    }

    /// Every coalition probe this model asked the session for.
    fn accounting(&self) -> BatchStats {
        self.accounting.get()
    }

    /// The perturbation set that realises a mask (absent features removed).
    fn delta_for(&self, mask: &[bool]) -> PerturbationSet {
        let mut delta = PerturbationSet::new();
        for (i, &present) in mask.iter().enumerate() {
            if !present {
                delta.push(self.features[i].removal());
            }
        }
        delta
    }

    /// Scalarises a probe according to the configured output mode.
    fn scalarise(&self, probe: crate::tasks::Probe) -> f64 {
        match self.output_mode {
            OutputMode::Binary => {
                if probe.positive {
                    1.0
                } else {
                    0.0
                }
            }
            OutputMode::SmoothRank => {
                let temperature = (self.k as f64 / 4.0).max(0.5);
                let margin = self.k as f64 + 0.5 - probe.signal;
                1.0 / (1.0 + (-margin / temperature).exp())
            }
        }
    }
}

impl<D: DecisionModel + ?Sized> MaskedModel for FeatureMaskModel<'_, D> {
    fn num_features(&self) -> usize {
        self.features.len()
    }

    fn evaluate(&self, mask: &[bool]) -> f64 {
        self.evaluate_batch(std::slice::from_ref(&mask.to_vec()))[0]
    }

    /// Scores the masks [`PROBE_CHUNK`] at a time, so the perturbation sets
    /// in flight stay small; a repeat across chunks is a cache hit as it is
    /// within one, so the probes and accounting do not depend on the chunks.
    fn evaluate_batch(&self, masks: &[Vec<bool>]) -> Vec<f64> {
        let mut accounting = self.accounting.get();
        let mut values = Vec::with_capacity(masks.len());
        for chunk in masks.chunks(PROBE_CHUNK) {
            let deltas: Vec<PerturbationSet> = chunk.iter().map(|m| self.delta_for(m)).collect();
            let (probes, stats) = self.engine.score(&deltas, None);
            accounting.merge(&stats);
            values.extend(probes.into_iter().map(|probe| self.scalarise(probe)));
        }
        self.accounting.set(accounting);
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{DecisionModel, ExpertRelevanceTask};
    use exes_expert_search::TfIdfRanker;
    use exes_graph::{CollabGraphBuilder, PersonId, PerturbedGraph, Query};
    use exes_shap::ShapValues;

    fn graph() -> CollabGraph {
        let mut b = CollabGraphBuilder::new();
        let a = b.add_person("Ada", ["db", "ml"]);
        let c = b.add_person("Bob", ["db"]);
        let d = b.add_person("Cig", ["vision"]);
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.build()
    }

    #[test]
    fn explanation_accessors_and_ordering() {
        let g = graph();
        let db = g.vocab().id("db").unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let features = vec![
            Feature::Skill(PersonId(0), db),
            Feature::Skill(PersonId(0), ml),
            Feature::QueryTerm(db),
        ];
        let shap = ShapValues::new(vec![0.4, -0.1, 0.0], 0.0, 0.3);
        let accounting = BatchStats {
            probed: 12,
            cache_hits: 3,
            ..BatchStats::default()
        };
        let exp = FactualExplanation::new(features.clone(), shap, accounting);
        assert_eq!(exp.num_features(), 3);
        assert_eq!(exp.size(), 2);
        assert_eq!(exp.accounting(), accounting);
        assert_eq!(exp.value_of(&features[0]), Some(0.4));
        assert_eq!(exp.value_of(&Feature::QueryTerm(ml)), None);
        assert_eq!(exp.top_k(1)[0].0, features[0]);
        assert_eq!(exp.supporting().len(), 1);
        assert_eq!(exp.opposing().len(), 1);
        let text = exp.render(&g, 3);
        assert!(text.contains("Ada's skill 'db'"));
    }

    #[test]
    fn mask_model_binary_output_tracks_the_decision() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let db = g.vocab().id("db").unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let features = vec![
            Feature::Skill(PersonId(0), db),
            Feature::Skill(PersonId(0), ml),
        ];
        let cfg = ExesConfig::fast().with_k(1);
        let engine = ProbeBatch::new(&task, &g, &q, false, None);
        let model = FeatureMaskModel::new(&engine, &features, &cfg);
        assert_eq!(model.num_features(), 2);
        assert_eq!(model.evaluate(&[true, true]), 1.0);
        // Remove both of Ada's matching skills: Bob overtakes her for k = 1.
        assert_eq!(model.evaluate(&[false, false]), 0.0);
        assert_eq!(model.accounting().probed, 2);
    }

    #[test]
    fn smooth_output_is_anchored_at_the_tasks_own_cutoff() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        // Bob is ranked 2nd: selected under the task's k = 2, even though the
        // explainer-wide configuration says k = 1. The smooth scalarisation
        // must centre on the task's boundary (2.5), not the config's (1.5).
        let bob = PersonId(1);
        let task = ExpertRelevanceTask::new(&ranker, bob, 2);
        assert!(task.probe(&PerturbedGraph::identity(&g), &q).positive);
        let db = g.vocab().id("db").unwrap();
        let features = vec![Feature::Skill(bob, db)];
        let cfg = ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank);
        let engine = ProbeBatch::new(&task, &g, &q, false, None);
        let model = FeatureMaskModel::new(&engine, &features, &cfg);
        let full = model.evaluate(&[true]);
        assert!(
            full > 0.5,
            "a selected subject must scalarise above the boundary, got {full}"
        );
    }

    #[test]
    fn mask_model_smooth_output_is_monotone_in_rank() {
        let g = graph();
        let q = Query::parse("db ml", g.vocab()).unwrap();
        let ranker = TfIdfRanker::default();
        let task = ExpertRelevanceTask::new(&ranker, PersonId(0), 1);
        let db = g.vocab().id("db").unwrap();
        let ml = g.vocab().id("ml").unwrap();
        let features = vec![
            Feature::Skill(PersonId(0), db),
            Feature::Skill(PersonId(0), ml),
        ];
        let cfg = ExesConfig::fast()
            .with_k(1)
            .with_output_mode(OutputMode::SmoothRank);
        let engine = ProbeBatch::new(&task, &g, &q, false, None);
        let model = FeatureMaskModel::new(&engine, &features, &cfg);
        let full = model.evaluate(&[true, true]);
        let none = model.evaluate(&[false, false]);
        assert!(full > 0.5);
        assert!(none < full);
    }
}
