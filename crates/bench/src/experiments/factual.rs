//! Factual-explanation experiments: Tables 7 & 9 (expert search) and 11 & 13
//! (team formation).

use super::TaskMode;
use crate::report::{fmt_num, fmt_secs, Table};
use crate::scenario::{DatasetKind, HarnessConfig, Scenario};
use crate::timing::{timed, Mean};
use exes_core::{factual_precision_at_k, DecisionModel, ExpertRelevanceTask, TeamMembershipTask};

/// Aggregated measurements for one (dataset, feature family) cell.
#[derive(Debug, Clone)]
pub struct FactualCell {
    /// Dataset name.
    pub dataset: String,
    /// Feature family ("Skills", "Query terms", "Collaborations").
    pub features: String,
    /// Mean ExES (pruned) latency in seconds.
    pub exes_latency: f64,
    /// Mean exhaustive-baseline latency in seconds (`None` for query terms,
    /// where pruning does not apply).
    pub baseline_latency: Option<f64>,
    /// Mean ExES explanation size (non-zero SHAP features).
    pub exes_size: f64,
    /// Mean baseline explanation size.
    pub baseline_size: Option<f64>,
    /// Precision@1 of ExES against the baseline.
    pub precision_at_1: Option<f64>,
    /// Precision@5 of ExES against the baseline.
    pub precision_at_5: Option<f64>,
    /// Mean black-box probes per ExES request.
    pub exes_probes: f64,
    /// Mean black-box probes per baseline request (`None` for query terms).
    pub baseline_probes: Option<f64>,
}

/// Runs the factual experiments for one scenario, producing one cell per
/// feature family.
pub fn run_scenario(scenario: &Scenario, mode: TaskMode) -> Vec<FactualCell> {
    match mode {
        TaskMode::ExpertSearch => {
            let (experts, _) =
                scenario.sample_experts_and_non_experts(scenario.harness.num_subjects);
            let subjects: Vec<_> = experts
                .into_iter()
                .map(|(q, p)| {
                    (
                        q,
                        ExpertRelevanceTask::new(&scenario.ranker, p, scenario.exes.config().k),
                    )
                })
                .collect();
            measure(scenario, &subjects)
        }
        TaskMode::TeamFormation => {
            let (members, _) =
                scenario.sample_team_members_and_non_members(scenario.harness.num_subjects);
            let subjects: Vec<_> = members
                .into_iter()
                .map(|(q, seed, p)| {
                    (
                        q,
                        TeamMembershipTask::new(&scenario.former, &scenario.ranker, p, Some(seed)),
                    )
                })
                .collect();
            measure(scenario, &subjects)
        }
    }
}

fn measure<D: DecisionModel>(
    scenario: &Scenario,
    subjects: &[(exes_graph::Query, D)],
) -> Vec<FactualCell> {
    let graph = &scenario.dataset.graph;
    let exes = &scenario.exes;
    let dataset = scenario.kind.name().to_string();

    let mut cells = Vec::new();

    // --- Skills -----------------------------------------------------------
    let mut exes_lat = Mean::new();
    let mut base_lat = Mean::new();
    let mut exes_size = Mean::new();
    let mut base_size = Mean::new();
    let mut p1 = Mean::new();
    let mut p5 = Mean::new();
    let mut exes_probes = Mean::new();
    let mut base_probes = Mean::new();
    for (query, task) in subjects {
        let (pruned, t1) = timed(|| exes.factual_skills(task, graph, query, true));
        let (baseline, t2) = timed(|| exes.factual_skills(task, graph, query, false));
        exes_lat.add_duration(t1);
        base_lat.add_duration(t2);
        exes_size.add(pruned.size() as f64);
        base_size.add(baseline.size() as f64);
        exes_probes.add(pruned.accounting().probed as f64);
        base_probes.add(baseline.accounting().probed as f64);
        p1.add(factual_precision_at_k(&pruned, &baseline, 1));
        p5.add(factual_precision_at_k(&pruned, &baseline, 5));
    }
    cells.push(FactualCell {
        dataset: dataset.clone(),
        features: "Skills".to_string(),
        exes_latency: exes_lat.mean(),
        baseline_latency: Some(base_lat.mean()),
        exes_size: exes_size.mean(),
        baseline_size: Some(base_size.mean()),
        precision_at_1: Some(p1.mean()),
        precision_at_5: Some(p5.mean()),
        exes_probes: exes_probes.mean(),
        baseline_probes: Some(base_probes.mean()),
    });

    // --- Query terms (no pruning applies) -----------------------------------
    let mut q_lat = Mean::new();
    let mut q_size = Mean::new();
    let mut q_probes = Mean::new();
    for (query, task) in subjects {
        let (exp, t) = timed(|| exes.factual_query_terms(task, graph, query));
        q_lat.add_duration(t);
        q_size.add(exp.size() as f64);
        q_probes.add(exp.accounting().probed as f64);
    }
    cells.push(FactualCell {
        dataset: dataset.clone(),
        features: "Query terms".to_string(),
        exes_latency: q_lat.mean(),
        baseline_latency: None,
        exes_size: q_size.mean(),
        baseline_size: None,
        precision_at_1: None,
        precision_at_5: None,
        exes_probes: q_probes.mean(),
        baseline_probes: None,
    });

    // --- Collaborations ------------------------------------------------------
    let mut c_exes_lat = Mean::new();
    let mut c_base_lat = Mean::new();
    let mut c_exes_size = Mean::new();
    let mut c_base_size = Mean::new();
    let mut c_p1 = Mean::new();
    let mut c_p5 = Mean::new();
    let mut c_exes_probes = Mean::new();
    let mut c_base_probes = Mean::new();
    for (query, task) in subjects {
        let (pruned, t1) = timed(|| exes.factual_collaborations(task, graph, query, true));
        let (baseline, t2) = timed(|| exes.factual_collaborations(task, graph, query, false));
        c_exes_lat.add_duration(t1);
        c_base_lat.add_duration(t2);
        c_exes_size.add(pruned.size() as f64);
        c_base_size.add(baseline.size() as f64);
        c_exes_probes.add(pruned.accounting().probed as f64);
        c_base_probes.add(baseline.accounting().probed as f64);
        c_p1.add(factual_precision_at_k(&pruned, &baseline, 1));
        c_p5.add(factual_precision_at_k(&pruned, &baseline, 5));
    }
    cells.push(FactualCell {
        dataset,
        features: "Collaborations".to_string(),
        exes_latency: c_exes_lat.mean(),
        baseline_latency: Some(c_base_lat.mean()),
        exes_size: c_exes_size.mean(),
        baseline_size: Some(c_base_size.mean()),
        precision_at_1: Some(c_p1.mean()),
        precision_at_5: Some(c_p5.mean()),
        exes_probes: c_exes_probes.mean(),
        baseline_probes: Some(c_base_probes.mean()),
    });

    cells
}

/// Runs both datasets and assembles the latency/size table (Table 7 or 11) and
/// the precision table (Table 9 or 13).
pub fn run(harness: &HarnessConfig, mode: TaskMode) -> (Table, Table) {
    let (latency_no, precision_no) = match mode {
        TaskMode::ExpertSearch => (7, 9),
        TaskMode::TeamFormation => (11, 13),
    };
    let mut latency_table = Table::new(
        &format!(
            "Table {latency_no}: Factual explanation results: {}",
            mode.label()
        ),
        &[
            "Features",
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
            "Table {precision_no}: Factual explanation precision: {}",
            mode.label()
        ),
        &["Features", "Dataset", "Precision@1", "Precision@5"],
    );
    for kind in DatasetKind::both() {
        let scenario = Scenario::build(kind, harness);
        for cell in run_scenario(&scenario, mode) {
            latency_table.push_row(vec![
                cell.features.clone(),
                cell.dataset.clone(),
                fmt_secs(cell.exes_latency),
                cell.baseline_latency
                    .map(fmt_secs)
                    .unwrap_or_else(|| "—".into()),
                fmt_num(cell.exes_size),
                cell.baseline_size
                    .map(fmt_num)
                    .unwrap_or_else(|| "—".into()),
                fmt_num(cell.exes_probes),
                cell.baseline_probes
                    .map(fmt_num)
                    .unwrap_or_else(|| "—".into()),
            ]);
            if let (Some(p1), Some(p5)) = (cell.precision_at_1, cell.precision_at_5) {
                precision_table.push_row(vec![
                    cell.features,
                    cell.dataset,
                    fmt_num(p1),
                    fmt_num(p5),
                ]);
            }
        }
    }
    (latency_table, precision_table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Above every call's probes on this scenario (the largest, the pruned
    /// collaborations of the expert, takes 3,305), so no cell is cut.
    fn tiny() -> HarnessConfig {
        HarnessConfig {
            dblp_scale: 0.004,
            github_scale: 0.02,
            num_queries: 3,
            num_subjects: 1,
            probe_budget: 5_000,
            shap_permutations: 2,
            seed: 5,
        }
    }

    /// Every column of a cell but latency. Explanations are a pure function
    /// of (model, graph, query, configuration), so these repeat exactly.
    fn frozen(cell: &FactualCell) -> String {
        format!(
            "{} | size {:?} {:?} | precision@1,5 {:?} {:?} | probes {:?} {:?}",
            cell.features,
            cell.exes_size,
            cell.baseline_size,
            cell.precision_at_1,
            cell.precision_at_5,
            cell.exes_probes,
            cell.baseline_probes
        )
    }

    #[test]
    fn factual_cells_cover_three_feature_families() {
        let scenario = Scenario::build(DatasetKind::Github, &tiny());
        let cells = run_scenario(&scenario, TaskMode::ExpertSearch);
        assert_eq!(
            cells.iter().map(frozen).collect::<Vec<_>>(),
            [
                "Skills | size 2.0 Some(4.0) | precision@1,5 Some(0.0) Some(0.0) \
                 | probes 114.0 Some(604.0)",
                "Query terms | size 1.0 None | precision@1,5 None None | probes 8.0 None",
                "Collaborations | size 4.0 Some(9.0) | precision@1,5 Some(0.0) Some(0.0) \
                 | probes 3305.0 Some(630.0)",
            ]
        );
        for cell in &cells {
            assert!(cell.exes_latency >= 0.0);
        }
    }

    #[test]
    fn team_mode_also_produces_cells() {
        let scenario = Scenario::build(DatasetKind::Github, &tiny());
        let cells = run_scenario(&scenario, TaskMode::TeamFormation);
        assert_eq!(
            cells.iter().map(frozen).collect::<Vec<_>>(),
            [
                "Skills | size 1.0 Some(3.0) | precision@1,5 Some(1.0) Some(1.0) \
                 | probes 68.0 Some(604.0)",
                "Query terms | size 1.0 None | precision@1,5 None None | probes 8.0 None",
                "Collaborations | size 6.0 Some(2.0) | precision@1,5 Some(1.0) Some(0.2) \
                 | probes 1317.0 Some(630.0)",
            ]
        );
    }
}
