//! Figure 9 (a–h): parameter-sensitivity sweeps.

use crate::report::{fmt_num, fmt_secs, Table};
use crate::scenario::{DatasetKind, HarnessConfig, Scenario};
use crate::timing::{timed, Mean};
use exes_core::explainer::SkillAdditionBaseline;
use exes_core::{counterfactual_precision, ExpertRelevanceTask};

/// Which parameter to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Beam size `b` — Figures 9a (latency) and 9b (precision), skill removal.
    BeamSize,
    /// Candidate count `t` — Figures 9c/9d, query augmentation for non-experts.
    Candidates,
    /// Neighbourhood radius `d` — Figures 9e/9f/9g, skill addition.
    Radius,
    /// SHAP threshold `τ` — Figure 9h, collaboration factual explanation size.
    Tau,
}

impl SweepParam {
    /// Parses a `--param` CLI value.
    pub fn parse(name: &str) -> Option<SweepParam> {
        match name {
            "beam" | "b" => Some(SweepParam::BeamSize),
            "candidates" | "t" => Some(SweepParam::Candidates),
            "radius" | "d" => Some(SweepParam::Radius),
            "tau" => Some(SweepParam::Tau),
            _ => None,
        }
    }

    /// All sweeps, in figure order.
    pub fn all() -> [SweepParam; 4] {
        [
            SweepParam::BeamSize,
            SweepParam::Candidates,
            SweepParam::Radius,
            SweepParam::Tau,
        ]
    }

    /// The parameter values swept (the paper's x-axes).
    pub fn values(self) -> Vec<f64> {
        match self {
            SweepParam::BeamSize => vec![10.0, 15.0, 20.0, 25.0, 30.0],
            SweepParam::Candidates => vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            SweepParam::Radius => vec![0.0, 1.0, 2.0, 3.0],
            SweepParam::Tau => vec![0.05, 0.10, 0.15],
        }
    }

    /// Figure label used in table titles.
    pub fn figure_label(self) -> &'static str {
        match self {
            SweepParam::BeamSize => "Figure 9a/9b: beam size b (skill removal, experts)",
            SweepParam::Candidates => {
                "Figure 9c/9d: candidate features t (query augmentation, non-experts)"
            }
            SweepParam::Radius => "Figure 9e/9f/9g: neighbourhood radius d (skill addition)",
            SweepParam::Tau => "Figure 9h: threshold τ (collaboration SHAP explanation size)",
        }
    }
}

/// Runs one parameter sweep over both datasets; each row reports the metrics
/// the corresponding sub-figures plot.
pub fn run(harness: &HarnessConfig, param: SweepParam) -> Table {
    let mut table = Table::new(
        param.figure_label(),
        &[
            "Value",
            "Dataset",
            "Latency (s)",
            "Precision",
            "# Explanations",
            "Expl. size",
        ],
    );
    for kind in DatasetKind::both() {
        let mut scenario = Scenario::build(kind, harness);
        for value in param.values() {
            let row = sweep_point(&mut scenario, param, value);
            table.push_row(vec![
                format!("{value}"),
                kind.name().to_string(),
                fmt_secs(row.latency),
                fmt_num(row.precision),
                row.explanations.to_string(),
                fmt_num(row.size),
            ]);
        }
    }
    table
}

struct SweepPoint {
    latency: f64,
    precision: f64,
    explanations: usize,
    size: f64,
}

fn sweep_point(scenario: &mut Scenario, param: SweepParam, value: f64) -> SweepPoint {
    // Apply the swept parameter to the explainer configuration.
    {
        let cfg = scenario.exes.config_mut();
        match param {
            SweepParam::BeamSize => cfg.beam_width = value as usize,
            SweepParam::Candidates => cfg.num_candidates = value as usize,
            SweepParam::Radius => cfg.skill_radius = value as usize,
            SweepParam::Tau => cfg.tau = value,
        }
    }
    let n = scenario.harness.num_subjects;
    let k = scenario.exes.config().k;
    let graph = &scenario.dataset.graph;
    let (experts, non_experts) = scenario.sample_experts_and_non_experts(n);

    let mut latency = Mean::new();
    let mut precision = Mean::new();
    let mut size = Mean::new();
    let mut explanations = 0usize;

    match param {
        SweepParam::BeamSize => {
            // Skill removal for experts.
            for (query, person) in &experts {
                let task = ExpertRelevanceTask::new(&scenario.ranker, *person, k);
                let (pruned, t) =
                    timed(|| scenario.exes.counterfactual_skills(&task, graph, query));
                let baseline = scenario.exes.counterfactual_skills_exhaustive(
                    &task,
                    graph,
                    query,
                    SkillAdditionBaseline::AllPeople,
                );
                latency.add_duration(t);
                explanations += pruned.len();
                size.add(pruned.mean_size());
                if let Some(report) = counterfactual_precision(&pruned, &baseline) {
                    precision.add(report.precision);
                }
            }
        }
        SweepParam::Candidates => {
            // Query augmentation for non-experts.
            for (query, person) in &non_experts {
                let task = ExpertRelevanceTask::new(&scenario.ranker, *person, k);
                let (pruned, t) = timed(|| scenario.exes.counterfactual_query(&task, graph, query));
                let baseline = scenario
                    .exes
                    .counterfactual_query_exhaustive(&task, graph, query);
                latency.add_duration(t);
                explanations += pruned.len();
                size.add(pruned.mean_size());
                if let Some(report) = counterfactual_precision(&pruned, &baseline) {
                    precision.add(report.precision);
                }
            }
        }
        SweepParam::Radius => {
            // Skill addition for non-experts.
            for (query, person) in &non_experts {
                let task = ExpertRelevanceTask::new(&scenario.ranker, *person, k);
                let (pruned, t) =
                    timed(|| scenario.exes.counterfactual_skills(&task, graph, query));
                let baseline = scenario.exes.counterfactual_skills_exhaustive(
                    &task,
                    graph,
                    query,
                    SkillAdditionBaseline::AllPeople,
                );
                latency.add_duration(t);
                explanations += pruned.len();
                size.add(pruned.mean_size());
                if let Some(report) = counterfactual_precision(&pruned, &baseline) {
                    precision.add(report.precision);
                }
            }
        }
        SweepParam::Tau => {
            // Collaboration factual explanation size.
            for (query, person) in &experts {
                let task = ExpertRelevanceTask::new(&scenario.ranker, *person, k);
                let (exp, t) = timed(|| {
                    scenario
                        .exes
                        .factual_collaborations(&task, graph, query, true)
                });
                latency.add_duration(t);
                size.add(exp.size() as f64);
                explanations += 1;
                precision.add(1.0);
            }
        }
    }

    SweepPoint {
        latency: latency.mean(),
        precision: precision.mean(),
        explanations,
        size: size.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_parsing_and_values() {
        assert_eq!(SweepParam::parse("beam"), Some(SweepParam::BeamSize));
        assert_eq!(SweepParam::parse("t"), Some(SweepParam::Candidates));
        assert_eq!(SweepParam::parse("d"), Some(SweepParam::Radius));
        assert_eq!(SweepParam::parse("tau"), Some(SweepParam::Tau));
        assert_eq!(SweepParam::parse("nope"), None);
        assert_eq!(SweepParam::BeamSize.values().len(), 5);
        assert_eq!(SweepParam::Radius.values(), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(SweepParam::all().len(), 4);
    }

    #[test]
    fn tau_sweep_runs_on_a_tiny_scenario() {
        let harness = HarnessConfig {
            dblp_scale: 0.004,
            github_scale: 0.02,
            num_queries: 2,
            num_subjects: 1,
            probe_budget: 5_000,
            shap_permutations: 2,
            seed: 11,
        };
        let table = run(&harness, SweepParam::Tau);
        // 3 τ values × 2 datasets.
        assert_eq!(table.rows.len(), 6);
    }
}
