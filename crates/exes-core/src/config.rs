//! ExES configuration: the paper's tunables (Table 3 and Section 4.1 defaults).

use crate::probe::ProbeBudget;
use exes_shap::ShapConfig;
use std::time::Duration;

/// How the black box's answer is turned into the scalar that SHAP attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// The paper's formulation: the binary relevance / membership status
    /// (`1.0` if the person is selected, `0.0` otherwise).
    Binary,
    /// A smoothed variant, `sigmoid((k + ½ − rank) / τ)`: still anchored at the
    /// decision boundary but with informative magnitudes for force plots and
    /// case studies. Factual explanation *sizes* are reported with
    /// [`OutputMode::Binary`] in the benchmark harness to stay comparable with
    /// the paper.
    SmoothRank,
}

/// All ExES tunables. Field names follow the paper's symbols (Table 3).
#[derive(Debug, Clone)]
pub struct ExesConfig {
    /// Top-`k` cutoff defining the relevance status for expert search.
    pub k: usize,
    /// Neighbourhood radius `d` for skill factuals, skill counterfactuals and
    /// collaboration-addition counterfactuals (paper default: 1).
    pub skill_radius: usize,
    /// Neighbourhood radius for collaboration factuals and collaboration-removal
    /// counterfactuals (paper default: 2).
    pub collab_radius: usize,
    /// Beam width `b` (paper default: 30).
    pub beam_width: usize,
    /// Maximum perturbation (explanation) size `γ` (paper default: 5).
    pub max_explanation_size: usize,
    /// Number of counterfactual explanations requested, `e` (paper default: 5).
    pub num_explanations: usize,
    /// Number of candidate features `t` selected by the embedding / link
    /// predictor (paper default: 10).
    pub num_candidates: usize,
    /// SHAP threshold `τ` used by the influential-collaboration expansion
    /// (paper default: 0.1).
    pub tau: f64,
    /// Wall-clock budget for every counterfactual search, ExES's and the
    /// exhaustive baselines'; `None` means no limit. The paper uses 1000 s
    /// for its (much larger) datasets. Factual estimators are not timed:
    /// [`ExesConfig::probe_budget`] bounds them.
    pub timeout: Option<Duration>,
    /// How the decision is scalarised for SHAP.
    pub output_mode: OutputMode,
    /// Whether probe batches (counterfactual candidate scoring and factual
    /// SHAP coalitions) run on all cores. Results are byte-identical either
    /// way; disable for differential testing or single-core deployments.
    pub parallel_probes: bool,
    /// Maximum number of memoised probes a [`crate::probe::ProbeCache`] built
    /// from this configuration retains (`0` = unbounded). When the bound is
    /// exceeded the least-recently-used quarter of the affected shard is
    /// evicted in bulk, keeping eviction cost amortised O(1) per insert.
    pub probe_cache_capacity: usize,
    /// Configuration of the permutation sampler that factual explanations
    /// run when exact enumeration does not apply (see [`exes_shap::shapley`]).
    pub shap: ShapConfig,
    /// Upper bound on *black-box* probes a single explanation may spend
    /// (cache hits are free). The whole request is billed against it: the
    /// reference probe, candidate scoring, and the search itself all draw
    /// from one allowance, through the request's one probe session. When the
    /// budget runs out, counterfactual searches return best-so-far marked
    /// [`Completeness::Budgeted`](crate::probe::Completeness) and factual
    /// SHAP truncates its permutation sample, reporting wider confidence
    /// intervals. [`ProbeBudget::UNBOUNDED`] (the default) leaves every byte
    /// of every result unchanged. One caveat: a counterfactual request's
    /// reference probe — its one probe of the unperturbed input — is issued
    /// unconditionally when the cache cannot answer it (a counterfactual
    /// question cannot even be posed without the reference decision), so a
    /// zero budget over a cold cache still spends one probe.
    pub probe_budget: ProbeBudget,
}

impl Default for ExesConfig {
    fn default() -> Self {
        ExesConfig {
            k: 10,
            skill_radius: 1,
            collab_radius: 2,
            beam_width: 30,
            max_explanation_size: 5,
            num_explanations: 5,
            num_candidates: 10,
            tau: 0.1,
            timeout: Some(Duration::from_secs(1000)),
            output_mode: OutputMode::Binary,
            parallel_probes: true,
            probe_cache_capacity: 1 << 18,
            shap: ShapConfig::default(),
            probe_budget: ProbeBudget::UNBOUNDED,
        }
    }
}

impl ExesConfig {
    /// The paper's default configuration (identical to [`Default`]).
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// A configuration scaled down for unit tests and examples on tiny graphs.
    pub fn fast() -> Self {
        ExesConfig {
            k: 5,
            beam_width: 8,
            max_explanation_size: 3,
            num_explanations: 3,
            num_candidates: 5,
            timeout: Some(Duration::from_secs(30)),
            ..Self::default()
        }
    }

    /// Builder-style setter for `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self
    }

    /// Builder-style setter for the beam width `b`.
    pub fn with_beam_width(mut self, b: usize) -> Self {
        assert!(b >= 1, "beam width must be at least 1");
        self.beam_width = b;
        self
    }

    /// Builder-style setter for the candidate count `t`.
    pub fn with_num_candidates(mut self, t: usize) -> Self {
        assert!(t >= 1, "candidate count must be at least 1");
        self.num_candidates = t;
        self
    }

    /// Builder-style setter for the skill-neighbourhood radius `d`.
    pub fn with_skill_radius(mut self, d: usize) -> Self {
        self.skill_radius = d;
        self
    }

    /// Builder-style setter for the SHAP expansion threshold `τ`.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(tau >= 0.0, "tau must be non-negative");
        self.tau = tau;
        self
    }

    /// Builder-style setter for the output mode.
    pub fn with_output_mode(mut self, mode: OutputMode) -> Self {
        self.output_mode = mode;
        self
    }

    /// Builder-style setter for parallel probe scoring.
    pub fn with_parallel_probes(mut self, parallel: bool) -> Self {
        self.parallel_probes = parallel;
        self
    }

    /// Builder-style setter for the probe memo-cache entry bound
    /// (`0` = unbounded).
    pub fn with_probe_cache_capacity(mut self, capacity: usize) -> Self {
        self.probe_cache_capacity = capacity;
        self
    }

    /// Builder-style setter for the per-explanation probe budget.
    pub fn with_probe_budget(mut self, budget: ProbeBudget) -> Self {
        self.probe_budget = budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ExesConfig::paper_defaults();
        assert_eq!(c.k, 10);
        assert_eq!(c.beam_width, 30);
        assert_eq!(c.max_explanation_size, 5);
        assert_eq!(c.num_explanations, 5);
        assert_eq!(c.num_candidates, 10);
        assert_eq!(c.skill_radius, 1);
        assert_eq!(c.collab_radius, 2);
        assert!((c.tau - 0.1).abs() < 1e-12);
        assert_eq!(c.timeout, Some(Duration::from_secs(1000)));
        assert_eq!(c.output_mode, OutputMode::Binary);
        assert!(c.parallel_probes);
        assert_eq!(c.probe_cache_capacity, 1 << 18);
        assert_eq!(c.probe_budget, ProbeBudget::UNBOUNDED);
        // Every served factual answer depends on these.
        assert_eq!(
            c.shap,
            ShapConfig {
                permutations: 32,
                seed: 0x5A4B
            }
        );
        assert_eq!(exes_shap::EXACT_MAX_FEATURES, 10);
    }

    #[test]
    fn probe_budget_builder_updates_the_field() {
        let c = ExesConfig::fast().with_probe_budget(ProbeBudget::bounded(64));
        assert_eq!(c.probe_budget.limit(), Some(64));
        assert!(c.probe_budget.is_bounded());
        assert!(!ProbeBudget::UNBOUNDED.is_bounded());
    }

    #[test]
    fn cache_builders_update_fields() {
        let c = ExesConfig::fast().with_probe_cache_capacity(128);
        assert_eq!(c.probe_cache_capacity, 128);
    }

    #[test]
    fn builders_update_fields() {
        let c = ExesConfig::fast()
            .with_k(3)
            .with_beam_width(4)
            .with_num_candidates(2)
            .with_skill_radius(2)
            .with_tau(0.05)
            .with_output_mode(OutputMode::SmoothRank);
        assert_eq!(c.k, 3);
        assert_eq!(c.beam_width, 4);
        assert_eq!(c.num_candidates, 2);
        assert_eq!(c.skill_radius, 2);
        assert!((c.tau - 0.05).abs() < 1e-12);
        assert_eq!(c.output_mode, OutputMode::SmoothRank);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        let _ = ExesConfig::default().with_k(0);
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn zero_beam_is_rejected() {
        let _ = ExesConfig::default().with_beam_width(0);
    }
}
