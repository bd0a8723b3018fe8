//! End-to-end integration tests: the full ExES pipeline (dataset → black box →
//! explainer) on both synthetic datasets, for both expert search and team
//! formation.

use exes::prelude::*;

struct Pipeline {
    dataset: SyntheticDataset,
    ranker: GcnRanker,
    former: GreedyCoverTeamFormer<GcnRanker>,
    exes: Exes,
    k: usize,
}

fn pipeline(seed: u64) -> Pipeline {
    let dataset = SyntheticDataset::generate(&DatasetConfig::tiny("e2e", seed));
    let embedding = SkillEmbedding::train(
        dataset.corpus.token_bags(),
        dataset.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let link_predictor = EmbeddingLinkPredictor::train(&dataset.graph, &WalkConfig::default());
    let k = 5;
    let config = ExesConfig::fast().with_k(k).with_num_candidates(6);
    Pipeline {
        dataset,
        ranker: GcnRanker::default(),
        former: GreedyCoverTeamFormer::new(GcnRanker::default()),
        exes: Exes::new(config, embedding, link_predictor),
        k,
    }
}

fn expert_and_non_expert(p: &Pipeline) -> (Query, PersonId, PersonId) {
    let workload = QueryWorkload::answerable(&p.dataset.graph, 5, 2, 3, 3, 13);
    let query = workload.queries()[0].clone();
    let ranking = p.ranker.rank_all(&p.dataset.graph, &query);
    let expert = ranking.entries()[0].0;
    let non_expert = ranking.entries()[p.k + 1].0;
    (query, expert, non_expert)
}

#[test]
fn expert_search_factual_explanations_are_consistent() {
    let p = pipeline(1);
    let (query, expert, _) = expert_and_non_expert(&p);
    let task = ExpertRelevanceTask::new(&p.ranker, expert, p.k);

    let skills = p.exes.factual_skills(&task, &p.dataset.graph, &query, true);
    let exhaustive = p
        .exes
        .factual_skills(&task, &p.dataset.graph, &query, false);
    // Pruning reduces the feature space, never enlarges it.
    assert!(skills.num_features() <= exhaustive.num_features());
    assert!(skills.num_features() > 0);
    // Every pruned feature involves someone in the subject's neighbourhood.
    let neighborhood = Neighborhood::compute(&p.dataset.graph, expert, 1);
    for feature in skills.features() {
        match feature {
            Feature::Skill(person, _) => assert!(neighborhood.contains(*person)),
            other => panic!("unexpected feature {other:?}"),
        }
    }
    // Precision against the baseline is a valid probability.
    let precision = factual_precision_at_k(&skills, &exhaustive, 5);
    assert!((0.0..=1.0).contains(&precision));

    let query_terms = p.exes.factual_query_terms(&task, &p.dataset.graph, &query);
    assert_eq!(query_terms.num_features(), query.len());
}

#[test]
fn expert_search_counterfactuals_flip_the_decision() {
    let p = pipeline(2);
    let (query, expert, non_expert) = expert_and_non_expert(&p);

    // Experts: every explanation must evict them from the top-k.
    let expert_task = ExpertRelevanceTask::new(&p.ranker, expert, p.k);
    for result in [
        p.exes
            .counterfactual_skills(&expert_task, &p.dataset.graph, &query),
        p.exes
            .counterfactual_query(&expert_task, &p.dataset.graph, &query),
        p.exes
            .counterfactual_links(&expert_task, &p.dataset.graph, &query),
    ] {
        for explanation in &result.explanations {
            let (view, perturbed_query) = explanation.perturbations.apply(&p.dataset.graph, &query);
            assert!(
                !p.ranker.is_relevant(&view, &perturbed_query, expert, p.k),
                "explanation failed to evict the expert: {}",
                explanation.describe(&p.dataset.graph)
            );
            assert!(explanation.size() <= p.exes.config().max_explanation_size);
        }
    }

    // Non-experts: every explanation must pull them into the top-k.
    let non_expert_task = ExpertRelevanceTask::new(&p.ranker, non_expert, p.k);
    for result in [
        p.exes
            .counterfactual_skills(&non_expert_task, &p.dataset.graph, &query),
        p.exes
            .counterfactual_links(&non_expert_task, &p.dataset.graph, &query),
    ] {
        for explanation in &result.explanations {
            let (view, perturbed_query) = explanation.perturbations.apply(&p.dataset.graph, &query);
            assert!(p
                .ranker
                .is_relevant(&view, &perturbed_query, non_expert, p.k));
        }
    }
}

#[test]
fn pruned_counterfactuals_are_no_smaller_than_exhaustive_minimum() {
    let p = pipeline(3);
    let (query, expert, _) = expert_and_non_expert(&p);
    let task = ExpertRelevanceTask::new(&p.ranker, expert, p.k);
    let pruned = p.exes.counterfactual_query(&task, &p.dataset.graph, &query);
    let exhaustive = p
        .exes
        .counterfactual_query_exhaustive(&task, &p.dataset.graph, &query);
    if let (Some(pruned_min), Some(exhaustive_min)) =
        (pruned.minimal_size(), exhaustive.minimal_size())
    {
        assert!(
            exhaustive_min <= pruned_min,
            "exhaustive search found larger minimal explanations ({exhaustive_min}) than beam search ({pruned_min})"
        );
    }
    if let Some(report) = counterfactual_precision(&pruned, &exhaustive) {
        assert!(report.precision_star >= report.precision);
        assert!((0.0..=1.0).contains(&report.precision));
    }
}

#[test]
fn team_membership_explanations_work_end_to_end() {
    let p = pipeline(4);
    let workload = QueryWorkload::answerable(&p.dataset.graph, 5, 3, 4, 3, 31);
    let query = workload.queries()[0].clone();
    let seed = p.ranker.rank_all(&p.dataset.graph, &query).top_k(1)[0];
    let team = p.former.form_team(&p.dataset.graph, &query, Some(seed));
    assert!(team.contains(seed));

    // Explain a member's inclusion factually.
    let member = *team.members().last().unwrap();
    let member_task = TeamMembershipTask::new(&p.former, &p.ranker, member, Some(seed));
    let factual = p
        .exes
        .factual_skills(&member_task, &p.dataset.graph, &query, true);
    assert!(factual.num_features() > 0);

    // Explain a non-member's exclusion counterfactually.
    let outsider = p
        .dataset
        .graph
        .neighbors(seed)
        .iter()
        .copied()
        .find(|&x| !team.contains(x));
    if let Some(outsider) = outsider {
        let outsider_task = TeamMembershipTask::new(&p.former, &p.ranker, outsider, Some(seed));
        let result = p
            .exes
            .counterfactual_skills(&outsider_task, &p.dataset.graph, &query);
        for explanation in &result.explanations {
            let view = explanation.perturbations.apply_to_graph(&p.dataset.graph);
            let new_team = p.former.form_team(&view, &query, Some(seed));
            assert!(new_team.contains(outsider));
        }
    }
}

#[test]
fn explanations_are_deterministic_across_runs() {
    let run = || {
        let p = pipeline(5);
        let (query, expert, _) = expert_and_non_expert(&p);
        let task = ExpertRelevanceTask::new(&p.ranker, expert, p.k);
        let factual = p.exes.factual_query_terms(&task, &p.dataset.graph, &query);
        let counterfactual = p.exes.counterfactual_query(&task, &p.dataset.graph, &query);
        (
            factual.shap_values().values().to_vec(),
            counterfactual
                .explanations
                .iter()
                .map(|e| e.perturbations.clone())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}
