//! Counterfactual-explanation experiments: Tables 8 & 10 (expert search) and
//! Tables 12 & 14 (team formation).

use super::TaskMode;
use crate::report::{fmt_num, fmt_secs, Table};
use crate::scenario::{DatasetKind, HarnessConfig, Scenario};
use crate::timing::{timed, Mean};
use exes_core::counterfactual::CounterfactualResult;
use exes_core::explainer::SkillAdditionBaseline;
use exes_core::{counterfactual_precision, DecisionModel, ExpertRelevanceTask, TeamMembershipTask};

/// Aggregated measurements for one (explanation method, dataset) cell.
#[derive(Debug, Clone)]
pub struct CounterfactualCell {
    /// Explanation method label (e.g. "Skill Removal (Experts)").
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean ExES latency in seconds.
    pub exes_latency: f64,
    /// Mean baseline latency in seconds (primary baseline).
    pub baseline_latency: f64,
    /// Mean latency of the secondary (S) baseline, for skill additions only.
    pub baseline_s_latency: Option<f64>,
    /// Mean ExES explanation size.
    pub exes_size: f64,
    /// Mean baseline explanation size.
    pub baseline_size: f64,
    /// Total number of explanations found by ExES across subjects.
    pub exes_explanations: usize,
    /// Total number of explanations found by the baseline.
    pub baseline_explanations: usize,
    /// Mean Precision of ExES against the baseline's minimal size.
    pub precision: f64,
    /// Mean Precision* (within one perturbation of minimal).
    pub precision_star: f64,
    /// Mean black-box probes per ExES request.
    pub exes_probes: f64,
    /// Mean black-box probes per baseline request.
    pub baseline_probes: f64,
    /// Number of ExES searches the probe budget cut short.
    pub exes_budgeted: usize,
    /// Number of baseline searches the probe budget cut short.
    pub baseline_budgeted: usize,
}

struct Accumulator {
    exes_lat: Mean,
    base_lat: Mean,
    base_s_lat: Mean,
    exes_size: Mean,
    base_size: Mean,
    exes_count: usize,
    base_count: usize,
    precision: Mean,
    precision_star: Mean,
    exes_probes: Mean,
    base_probes: Mean,
    exes_budgeted: usize,
    base_budgeted: usize,
}

impl Accumulator {
    fn new() -> Self {
        Accumulator {
            exes_lat: Mean::new(),
            base_lat: Mean::new(),
            base_s_lat: Mean::new(),
            exes_size: Mean::new(),
            base_size: Mean::new(),
            exes_count: 0,
            base_count: 0,
            precision: Mean::new(),
            precision_star: Mean::new(),
            exes_probes: Mean::new(),
            base_probes: Mean::new(),
            exes_budgeted: 0,
            base_budgeted: 0,
        }
    }

    fn record(
        &mut self,
        exes: &CounterfactualResult,
        exes_secs: f64,
        baseline: &CounterfactualResult,
        baseline_secs: f64,
    ) {
        self.exes_lat.add(exes_secs);
        self.base_lat.add(baseline_secs);
        if !exes.is_empty() {
            self.exes_size.add(exes.mean_size());
        }
        if !baseline.is_empty() {
            self.base_size.add(baseline.mean_size());
        }
        self.exes_count += exes.len();
        self.base_count += baseline.len();
        self.exes_probes.add(exes.accounting.probed as f64);
        self.base_probes.add(baseline.accounting.probed as f64);
        self.exes_budgeted += usize::from(exes.completeness.is_budgeted());
        self.base_budgeted += usize::from(baseline.completeness.is_budgeted());
        if let Some(report) = counterfactual_precision(exes, baseline) {
            self.precision.add(report.precision);
            self.precision_star.add(report.precision_star);
        }
    }

    fn into_cell(self, method: &str, dataset: &str) -> CounterfactualCell {
        CounterfactualCell {
            method: method.to_string(),
            dataset: dataset.to_string(),
            exes_latency: self.exes_lat.mean(),
            baseline_latency: self.base_lat.mean(),
            baseline_s_latency: if self.base_s_lat.count() > 0 {
                Some(self.base_s_lat.mean())
            } else {
                None
            },
            exes_size: self.exes_size.mean(),
            baseline_size: self.base_size.mean(),
            exes_explanations: self.exes_count,
            baseline_explanations: self.base_count,
            precision: self.precision.mean(),
            precision_star: self.precision_star.mean(),
            exes_probes: self.exes_probes.mean(),
            baseline_probes: self.base_probes.mean(),
            exes_budgeted: self.exes_budgeted,
            baseline_budgeted: self.base_budgeted,
        }
    }
}

fn measure_selected<D: DecisionModel>(
    scenario: &Scenario,
    subjects: &[(exes_graph::Query, D)],
    label_suffix: &str,
) -> Vec<CounterfactualCell> {
    let graph = &scenario.dataset.graph;
    let exes = &scenario.exes;
    let dataset = scenario.kind.name();

    let mut skill = Accumulator::new();
    let mut query_aug = Accumulator::new();
    let mut link = Accumulator::new();
    for (query, task) in subjects {
        let (pruned, t1) = timed(|| exes.counterfactual_skills(task, graph, query));
        let (baseline, t2) = timed(|| {
            exes.counterfactual_skills_exhaustive(
                task,
                graph,
                query,
                SkillAdditionBaseline::AllPeople,
            )
        });
        skill.record(&pruned, t1.as_secs_f64(), &baseline, t2.as_secs_f64());

        let (pruned, t1) = timed(|| exes.counterfactual_query(task, graph, query));
        let (baseline, t2) = timed(|| exes.counterfactual_query_exhaustive(task, graph, query));
        query_aug.record(&pruned, t1.as_secs_f64(), &baseline, t2.as_secs_f64());

        let (pruned, t1) = timed(|| exes.counterfactual_links(task, graph, query));
        let (baseline, t2) = timed(|| exes.counterfactual_links_exhaustive(task, graph, query));
        link.record(&pruned, t1.as_secs_f64(), &baseline, t2.as_secs_f64());
    }
    vec![
        skill.into_cell(&format!("Skill Removal ({label_suffix})"), dataset),
        query_aug.into_cell(&format!("Query Augment. ({label_suffix})"), dataset),
        link.into_cell(&format!("Link Removal ({label_suffix})"), dataset),
    ]
}

fn measure_unselected<D: DecisionModel>(
    scenario: &Scenario,
    subjects: &[(exes_graph::Query, D)],
    label_suffix: &str,
) -> Vec<CounterfactualCell> {
    let graph = &scenario.dataset.graph;
    let exes = &scenario.exes;
    let dataset = scenario.kind.name();

    let mut skill = Accumulator::new();
    let mut query_aug = Accumulator::new();
    let mut link = Accumulator::new();
    for (query, task) in subjects {
        let (pruned, t1) = timed(|| exes.counterfactual_skills(task, graph, query));
        let (baseline_n, t2) = timed(|| {
            exes.counterfactual_skills_exhaustive(
                task,
                graph,
                query,
                SkillAdditionBaseline::AllPeople,
            )
        });
        let (_baseline_s, t3) = timed(|| {
            exes.counterfactual_skills_exhaustive(
                task,
                graph,
                query,
                SkillAdditionBaseline::AllSkills,
            )
        });
        skill.record(&pruned, t1.as_secs_f64(), &baseline_n, t2.as_secs_f64());
        skill.base_s_lat.add(t3.as_secs_f64());

        let (pruned, t1) = timed(|| exes.counterfactual_query(task, graph, query));
        let (baseline, t2) = timed(|| exes.counterfactual_query_exhaustive(task, graph, query));
        query_aug.record(&pruned, t1.as_secs_f64(), &baseline, t2.as_secs_f64());

        let (pruned, t1) = timed(|| exes.counterfactual_links(task, graph, query));
        let (baseline, t2) = timed(|| exes.counterfactual_links_exhaustive(task, graph, query));
        link.record(&pruned, t1.as_secs_f64(), &baseline, t2.as_secs_f64());
    }
    vec![
        skill.into_cell(&format!("Skill Addition ({label_suffix})"), dataset),
        query_aug.into_cell(&format!("Query Augment. ({label_suffix})"), dataset),
        link.into_cell(&format!("Link Addition ({label_suffix})"), dataset),
    ]
}

/// Runs every counterfactual experiment for one scenario.
pub fn run_scenario(scenario: &Scenario, mode: TaskMode) -> Vec<CounterfactualCell> {
    let n = scenario.harness.num_subjects;
    match mode {
        TaskMode::ExpertSearch => {
            let (experts, non_experts) = scenario.sample_experts_and_non_experts(n);
            let k = scenario.exes.config().k;
            let expert_tasks: Vec<_> = experts
                .into_iter()
                .map(|(q, p)| (q, ExpertRelevanceTask::new(&scenario.ranker, p, k)))
                .collect();
            let non_expert_tasks: Vec<_> = non_experts
                .into_iter()
                .map(|(q, p)| (q, ExpertRelevanceTask::new(&scenario.ranker, p, k)))
                .collect();
            let mut cells = measure_selected(scenario, &expert_tasks, "Experts");
            cells.extend(measure_unselected(
                scenario,
                &non_expert_tasks,
                "Non-experts",
            ));
            cells
        }
        TaskMode::TeamFormation => {
            let (members, non_members) = scenario.sample_team_members_and_non_members(n);
            let member_tasks: Vec<_> = members
                .into_iter()
                .map(|(q, seed, p)| {
                    (
                        q,
                        TeamMembershipTask::new(&scenario.former, &scenario.ranker, p, Some(seed)),
                    )
                })
                .collect();
            let non_member_tasks: Vec<_> = non_members
                .into_iter()
                .map(|(q, seed, p)| {
                    (
                        q,
                        TeamMembershipTask::new(&scenario.former, &scenario.ranker, p, Some(seed)),
                    )
                })
                .collect();
            let mut cells = measure_selected(scenario, &member_tasks, "Members");
            cells.extend(measure_unselected(
                scenario,
                &non_member_tasks,
                "Non-members",
            ));
            cells
        }
    }
}

/// Runs both datasets, assembling the latency/size table (Table 8 or 12) and
/// the count/precision table (Table 10 or 14).
pub fn run(harness: &HarnessConfig, mode: TaskMode) -> (Table, Table) {
    let (latency_no, precision_no) = match mode {
        TaskMode::ExpertSearch => (8, 10),
        TaskMode::TeamFormation => (12, 14),
    };
    let mut latency_table = Table::new(
        &format!(
            "Table {latency_no}: Counterfactual explanation results: {}",
            mode.label()
        ),
        &[
            "Method",
            "Dataset",
            "Latency (s) ExES",
            "Latency (s) Baseline",
            "Expl. size ExES",
            "Expl. size Baseline",
            "Probes ExES",
            "Probes Baseline",
        ],
    );
    let mut precision_table = Table::new(
        &format!(
            "Table {precision_no}: Counterfactual explanation precision: {}",
            mode.label()
        ),
        &[
            "Method",
            "Dataset",
            "# Expl. ExES",
            "# Expl. Baseline",
            "Precision",
            "Precision*",
            "# Budget-cut ExES",
            "# Budget-cut Baseline",
        ],
    );
    let mut all_cells: Vec<CounterfactualCell> = Vec::new();
    for kind in DatasetKind::both() {
        let scenario = Scenario::build(kind, harness);
        all_cells.extend(run_scenario(&scenario, mode));
    }
    // Group rows by method so that both datasets appear together, as in the paper.
    let mut methods: Vec<String> = Vec::new();
    for cell in &all_cells {
        if !methods.contains(&cell.method) {
            methods.push(cell.method.clone());
        }
    }
    for method in &methods {
        for cell in all_cells.iter().filter(|c| &c.method == method) {
            let baseline_latency = match cell.baseline_s_latency {
                Some(s) => format!(
                    "N: {} / S: {}",
                    fmt_secs(cell.baseline_latency),
                    fmt_secs(s)
                ),
                None => fmt_secs(cell.baseline_latency),
            };
            latency_table.push_row(vec![
                cell.method.clone(),
                cell.dataset.clone(),
                fmt_secs(cell.exes_latency),
                baseline_latency,
                fmt_num(cell.exes_size),
                fmt_num(cell.baseline_size),
                fmt_num(cell.exes_probes),
                fmt_num(cell.baseline_probes),
            ]);
            precision_table.push_row(vec![
                cell.method.clone(),
                cell.dataset.clone(),
                cell.exes_explanations.to_string(),
                cell.baseline_explanations.to_string(),
                fmt_num(cell.precision),
                fmt_num(cell.precision_star),
                cell.exes_budgeted.to_string(),
                cell.baseline_budgeted.to_string(),
            ]);
        }
    }
    (latency_table, precision_table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough to cut at least one search on each side in both modes.
    fn tiny() -> HarnessConfig {
        HarnessConfig {
            dblp_scale: 0.004,
            github_scale: 0.02,
            num_queries: 3,
            num_subjects: 1,
            probe_budget: 1_000,
            shap_permutations: 2,
            seed: 9,
        }
    }

    /// Every column of a cell but latency. Explanations are a pure function
    /// of (model, graph, query, configuration), so these repeat exactly.
    fn frozen(cell: &CounterfactualCell) -> String {
        format!(
            "{} | size {:?} {:?} | expl {} {} | precision {:?} {:?} | probes {:?} {:?} | cut {} {}",
            cell.method,
            cell.exes_size,
            cell.baseline_size,
            cell.exes_explanations,
            cell.baseline_explanations,
            cell.precision,
            cell.precision_star,
            cell.exes_probes,
            cell.baseline_probes,
            cell.exes_budgeted,
            cell.baseline_budgeted
        )
    }

    #[test]
    fn expert_search_counterfactual_cells_cover_six_methods() {
        let scenario = Scenario::build(DatasetKind::Github, &tiny());
        let expert = [
            "Skill Removal (Experts) | size 0.0 0.0 | expl 0 0 | precision 0.0 0.0 \
             | probes 1000.0 1000.0 | cut 1 1",
            "Query Augment. (Experts) | size 0.0 0.0 | expl 0 0 | precision 0.0 0.0 \
             | probes 306.0 1000.0 | cut 0 1",
            "Link Removal (Experts) | size 0.0 0.0 | expl 0 0 | precision 0.0 0.0 \
             | probes 611.0 1000.0 | cut 0 1",
            "Skill Addition (Non-experts) | size 0.0 0.0 | expl 0 0 | precision 0.0 0.0 \
             | probes 1000.0 1000.0 | cut 1 1",
            "Query Augment. (Non-experts) | size 2.0 2.0 | expl 5 5 | precision 1.0 1.0 \
             | probes 56.0 549.0 | cut 0 0",
            "Link Addition (Non-experts) | size 3.0 2.0 | expl 5 5 | precision 0.0 1.0 \
             | probes 156.0 436.0 | cut 0 0",
        ];
        let team = [
            "Skill Removal (Members) | size 1.0 1.0 | expl 3 3 | precision 1.0 1.0 \
             | probes 1000.0 306.0 | cut 1 0",
            "Query Augment. (Members) | size 1.0 1.0 | expl 2 3 | precision 1.0 1.0 \
             | probes 180.0 37.0 | cut 0 0",
            "Link Removal (Members) | size 2.6 1.0 | expl 5 1 | precision 0.2 0.2 \
             | probes 412.0 316.0 | cut 0 0",
            "Skill Addition (Non-members) | size 1.0 1.0 | expl 1 1 | precision 1.0 1.0 \
             | probes 1000.0 582.0 | cut 1 0",
            "Query Augment. (Non-members) | size 1.0 1.0 | expl 1 1 | precision 1.0 1.0 \
             | probes 248.0 37.0 | cut 0 0",
            "Link Addition (Non-members) | size 0.0 0.0 | expl 0 0 | precision 0.0 0.0 \
             | probes 309.0 1000.0 | cut 0 1",
        ];
        for (mode, expected) in [
            (TaskMode::ExpertSearch, expert),
            (TaskMode::TeamFormation, team),
        ] {
            let cells = run_scenario(&scenario, mode);
            assert_eq!(
                cells.iter().map(frozen).collect::<Vec<_>>(),
                expected,
                "{mode:?}"
            );
            // The budget cut searches on both sides, and the cells say so.
            assert!(cells.iter().any(|c| c.exes_budgeted > 0), "{mode:?}");
            assert!(cells.iter().any(|c| c.baseline_budgeted > 0), "{mode:?}");
            for cell in &cells {
                assert!(cell.exes_latency >= 0.0 && cell.baseline_latency >= 0.0);
            }
            // The skill-addition cell carries the secondary baseline.
            assert!(cells[3].baseline_s_latency.is_some());
        }
    }
}
