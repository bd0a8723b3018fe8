//! Table 6: dataset statistics.

use crate::report::Table;
use crate::scenario::{DatasetKind, HarnessConfig, Scenario};

/// Builds Table 6 for the (scaled) simulated datasets, including the scale
/// factor so the reader can relate the row to the paper's full-size numbers.
pub fn run(harness: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Table 6: Dataset statistics (simulated, scaled)",
        &[
            "Dataset",
            "# Nodes",
            "# Edges",
            "# Skills",
            "Avg skills/person",
            "Avg degree",
            "Paper # Nodes",
            "Paper # Edges",
            "Paper # Skills",
        ],
    );
    for kind in DatasetKind::both() {
        let scenario = Scenario::build(kind, harness);
        let stats = scenario.dataset.graph.stats();
        let (paper_nodes, paper_edges, paper_skills) = match kind {
            DatasetKind::Dblp => (17_630, 128_809, 1_829),
            DatasetKind::Github => (3_278, 15_502, 863),
        };
        table.push_row(vec![
            kind.name().to_string(),
            stats.num_people.to_string(),
            stats.num_edges.to_string(),
            stats.num_skills.to_string(),
            format!("{:.1}", stats.avg_skills_per_person),
            format!("{:.1}", stats.avg_degree),
            paper_nodes.to_string(),
            paper_edges.to_string(),
            paper_skills.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_has_one_row_per_dataset() {
        let harness = HarnessConfig {
            dblp_scale: 0.005,
            github_scale: 0.03,
            num_queries: 2,
            num_subjects: 1,
            probe_budget: 5_000,
            shap_permutations: 2,
            seed: 1,
        };
        let table = run(&harness);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][0], "DBLP");
        assert_eq!(table.rows[1][0], "GitHub");
        // Node counts are positive integers.
        assert!(table.rows[0][1].parse::<usize>().unwrap() > 0);
    }
}
