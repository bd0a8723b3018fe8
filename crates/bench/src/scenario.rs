//! Shared experiment scenario: dataset + auxiliary models + black boxes.

use exes_core::{Exes, ExesConfig, OutputMode};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, GcnRanker};
use exes_graph::{PersonId, Query};
use exes_linkpred::{EmbeddingLinkPredictor, WalkConfig};
use exes_shap::ShapConfig;
use exes_team::GreedyCoverTeamFormer;
use std::time::Duration;

/// Which of the two paper datasets a scenario simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// The DBLP-like academic network.
    Dblp,
    /// The GitHub-like collaboration network.
    Github,
}

impl DatasetKind {
    /// Display name used in table rows.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Dblp => "DBLP",
            DatasetKind::Github => "GitHub",
        }
    }

    /// Both datasets, in the order the paper reports them.
    pub fn both() -> [DatasetKind; 2] {
        [DatasetKind::Dblp, DatasetKind::Github]
    }
}

/// Size / effort knobs for a harness run.
///
/// The defaults ("quick" mode) are deliberately small so that the entire table
/// suite regenerates in minutes on a laptop; `--full` scales the graphs and
/// subject counts up. Relative results (ExES vs exhaustive) are what the paper's
/// claims are about and they are preserved across scales.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Fraction of the paper-scale dataset to generate.
    pub dblp_scale: f64,
    /// Fraction of the paper-scale GitHub dataset to generate.
    pub github_scale: f64,
    /// Number of random queries in the workload.
    pub num_queries: usize,
    /// Number of explained individuals per (dataset, category) cell.
    pub num_subjects: usize,
    /// Per-explanation timeout, in seconds, for every counterfactual search:
    /// ExES's and the exhaustive baselines'. Factual estimators are not timed;
    /// `ExesConfig::probe_budget` bounds them.
    pub baseline_timeout_secs: u64,
    /// Permutation budget for sampled SHAP on large feature spaces.
    pub shap_permutations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig::quick()
    }
}

impl HarnessConfig {
    /// Small configuration: regenerates every table in minutes.
    pub fn quick() -> Self {
        HarnessConfig {
            dblp_scale: 0.012,
            github_scale: 0.055,
            num_queries: 12,
            num_subjects: 3,
            baseline_timeout_secs: 2,
            shap_permutations: 6,
            seed: 0xE5E5,
        }
    }

    /// Larger configuration (closer to the paper's setup; takes hours).
    pub fn full() -> Self {
        HarnessConfig {
            dblp_scale: 0.2,
            github_scale: 0.5,
            num_queries: 100,
            num_subjects: 100,
            baseline_timeout_secs: 1000,
            shap_permutations: 16,
            seed: 0xE5E5,
        }
    }

    /// Parses `--full`, `--scale <f>`, `--subjects <n>`, `--queries <n>` from
    /// command-line style arguments; unknown arguments are ignored.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut cfg = if args.iter().any(|a| a == "--full") {
            HarnessConfig::full()
        } else {
            HarnessConfig::quick()
        };
        let value_of = |flag: &str| -> Option<f64> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
        };
        if let Some(s) = value_of("--scale") {
            cfg.dblp_scale = s;
            cfg.github_scale = (s * 4.0).min(1.0);
        }
        if let Some(n) = value_of("--subjects") {
            cfg.num_subjects = n as usize;
        }
        if let Some(n) = value_of("--queries") {
            cfg.num_queries = n as usize;
        }
        cfg
    }

    fn dataset_config(&self, kind: DatasetKind) -> DatasetConfig {
        match kind {
            DatasetKind::Dblp => DatasetConfig::dblp_sim().scaled(self.dblp_scale),
            DatasetKind::Github => DatasetConfig::github_sim().scaled(self.github_scale),
        }
        .with_seed(self.seed ^ kind.name().len() as u64)
    }

    /// The ExES configuration used for harness runs (paper defaults plus the
    /// harness's sampling and timeout budgets).
    pub fn exes_config(&self) -> ExesConfig {
        let mut cfg = ExesConfig::paper_defaults();
        cfg.timeout = Some(Duration::from_secs(self.baseline_timeout_secs));
        cfg.output_mode = OutputMode::Binary;
        cfg.shap = ShapConfig {
            permutations: self.shap_permutations,
            seed: self.seed,
        };
        cfg
    }
}

/// A sampled explanation subject: the query plus the person to explain.
pub type SubjectSample = (Query, PersonId);

/// A sampled team case: the query, the team seed, and the person to explain.
pub type TeamSample = (Query, PersonId, PersonId);

/// Everything one experiment needs: dataset, workload, embedding, link
/// predictor, ranker, team former, and a ready-to-use [`Exes`] explainer.
pub struct Scenario {
    /// Which dataset this scenario simulates.
    pub kind: DatasetKind,
    /// The generated dataset (graph + corpus).
    pub dataset: SyntheticDataset,
    /// The query workload.
    pub workload: QueryWorkload,
    /// The expert-search black box (the paper's GCN-style ranker).
    pub ranker: GcnRanker,
    /// The team-formation black box.
    pub former: GreedyCoverTeamFormer<GcnRanker>,
    /// The ExES explainer (embedding + link predictor + config).
    pub exes: Exes,
    /// Harness configuration this scenario was built from.
    pub harness: HarnessConfig,
}

impl Scenario {
    /// Builds the complete scenario for one dataset kind.
    pub fn build(kind: DatasetKind, harness: &HarnessConfig) -> Scenario {
        let dataset = SyntheticDataset::generate(&harness.dataset_config(kind));
        let graph = &dataset.graph;
        let workload =
            QueryWorkload::answerable(graph, harness.num_queries, 3, 5, 3, harness.seed ^ 0x51);
        let embedding = SkillEmbedding::train(
            dataset.corpus.token_bags(),
            graph.vocab().len(),
            &EmbeddingConfig {
                dim: 32,
                ..Default::default()
            },
        );
        let link_predictor = EmbeddingLinkPredictor::train(graph, &WalkConfig::default());
        let ranker = GcnRanker::with_seed(harness.seed);
        let former = GreedyCoverTeamFormer::new(GcnRanker::with_seed(harness.seed));
        let exes = Exes::new(harness.exes_config(), embedding, link_predictor);
        Scenario {
            kind,
            dataset,
            workload,
            ranker,
            former,
            exes,
            harness: *harness,
        }
    }

    /// Samples, for each query, one person ranked inside the top-`k` (an
    /// "expert") and one ranked between `k+1` and `2k` (a "non-expert"), exactly
    /// as the paper's evaluation does, until `limit` of each are collected.
    pub fn sample_experts_and_non_experts(
        &self,
        limit: usize,
    ) -> (Vec<SubjectSample>, Vec<SubjectSample>) {
        let k = self.exes.config().k;
        let mut experts = Vec::new();
        let mut non_experts = Vec::new();
        for query in self.workload.queries() {
            if experts.len() >= limit && non_experts.len() >= limit {
                break;
            }
            let ranking = self.ranker.rank_all(&self.dataset.graph, query);
            if ranking.len() < 2 * k {
                continue;
            }
            if experts.len() < limit {
                // Sample experts from the lower half of the top-k (ranks k/2..k),
                // mirroring the paper's "100 experts within the top-k": eviction
                // counterfactuals for the rank-1 expert of a small graph are
                // frequently impossible, which is not the regime being studied.
                let offset = experts.len() % (k / 2).max(1);
                experts.push((query.clone(), ranking.entries()[k - 1 - offset].0));
            }
            if non_experts.len() < limit {
                // Non-experts between rank k+1 and 2k.
                let offset = non_experts.len() % k;
                non_experts.push((query.clone(), ranking.entries()[k + offset].0));
            }
        }
        (experts, non_experts)
    }

    /// Samples, for each query, a team seed, one team member (other than the
    /// seed when possible) and one non-member from the seed's neighbourhood —
    /// mirroring Section 4.3.
    pub fn sample_team_members_and_non_members(
        &self,
        limit: usize,
    ) -> (Vec<TeamSample>, Vec<TeamSample>) {
        use exes_graph::GraphView;
        use exes_team::TeamFormer;
        let k = self.exes.config().k;
        let mut members = Vec::new();
        let mut non_members = Vec::new();
        for query in self.workload.queries() {
            if members.len() >= limit && non_members.len() >= limit {
                break;
            }
            let ranking = self.ranker.rank_all(&self.dataset.graph, query);
            let Some(&(seed, _)) = ranking.entries().iter().take(k).next_back() else {
                continue;
            };
            let team = self
                .former
                .form_team(&self.dataset.graph, query, Some(seed));
            if members.len() < limit {
                if let Some(&m) = team.members().iter().find(|&&m| m != seed) {
                    members.push((query.clone(), seed, m));
                } else if let Some(&m) = team.members().first() {
                    members.push((query.clone(), seed, m));
                }
            }
            if non_members.len() < limit {
                let candidate = self
                    .dataset
                    .graph
                    .neighbors(seed)
                    .iter()
                    .copied()
                    .find(|&p| !team.contains(p));
                if let Some(p) = candidate {
                    non_members.push((query.clone(), seed, p));
                }
            }
        }
        (members, non_members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> HarnessConfig {
        HarnessConfig {
            dblp_scale: 0.005,
            github_scale: 0.03,
            num_queries: 4,
            num_subjects: 2,
            baseline_timeout_secs: 1,
            shap_permutations: 2,
            seed: 3,
        }
    }

    #[test]
    fn quick_and_full_configs_differ() {
        assert!(HarnessConfig::full().num_subjects > HarnessConfig::quick().num_subjects);
        assert!(HarnessConfig::full().dblp_scale > HarnessConfig::quick().dblp_scale);
    }

    #[test]
    fn from_args_parses_flags() {
        let cfg = HarnessConfig::from_args(
            ["--scale", "0.02", "--subjects", "7", "--queries", "9"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!((cfg.dblp_scale - 0.02).abs() < 1e-12);
        assert_eq!(cfg.num_subjects, 7);
        assert_eq!(cfg.num_queries, 9);
        let full = HarnessConfig::from_args(["--full".to_string()]);
        assert_eq!(full.num_subjects, HarnessConfig::full().num_subjects);
    }

    #[test]
    fn scenario_builds_and_samples_subjects() {
        let scenario = Scenario::build(DatasetKind::Github, &tiny_harness());
        assert!(scenario.dataset.graph.stats().num_people >= 60);
        let (experts, non_experts) = scenario.sample_experts_and_non_experts(2);
        assert!(!experts.is_empty());
        assert!(!non_experts.is_empty());
        let k = scenario.exes.config().k;
        for (q, p) in &experts {
            assert!(scenario
                .ranker
                .is_relevant(&scenario.dataset.graph, q, *p, k));
        }
        for (q, p) in &non_experts {
            assert!(!scenario
                .ranker
                .is_relevant(&scenario.dataset.graph, q, *p, k));
        }
    }

    #[test]
    fn team_sampling_returns_members_and_non_members() {
        use exes_team::TeamFormer;
        let scenario = Scenario::build(DatasetKind::Github, &tiny_harness());
        let (members, non_members) = scenario.sample_team_members_and_non_members(2);
        for (q, seed, m) in &members {
            assert!(scenario
                .former
                .is_member(&scenario.dataset.graph, q, Some(*seed), *m));
        }
        for (q, seed, p) in &non_members {
            assert!(!scenario
                .former
                .is_member(&scenario.dataset.graph, q, Some(*seed), *p));
        }
    }
}
