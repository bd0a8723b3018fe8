//! Explaining team-formation decisions (Section 3.5; Figures 7, 8 and 14).
//!
//! Forms a team around a seed expert for a multi-skill query, then explains
//! (a) factually why one member is on the team, and (b) counterfactually what
//! would put a near-miss candidate onto the team instead.
//!
//! Run with: `cargo run --release --example team_explain`

use exes::prelude::*;
use std::sync::Arc;

fn main() {
    let dataset = SyntheticDataset::generate(&DatasetConfig::dblp_sim().scaled(0.012));
    let graph = &dataset.graph;

    let ranker = GcnRanker::default();
    let former = GreedyCoverTeamFormer::new(GcnRanker::default());
    let workload = QueryWorkload::answerable(graph, 3, 3, 5, 3, 99);
    let query = &workload.queries()[0];
    println!("Query: '{}'", query.display(graph.vocab()));

    // The paper's team former builds a team around a user-supplied main member:
    // use the top-ranked expert as the seed.
    let seed = ranker.rank_all(graph, query).top_k(1)[0];
    let team = former.form_team(graph, query, Some(seed));
    println!(
        "Team built around {}: {}",
        graph.person_name(seed),
        team.describe(graph)
    );
    println!(
        "Covers the query: {}",
        if team.covers(graph, query) {
            "yes"
        } else {
            "partially"
        }
    );

    let embedding = SkillEmbedding::train(
        dataset.corpus.token_bags(),
        graph.vocab().len(),
        &EmbeddingConfig::default(),
    );
    let link_predictor = EmbeddingLinkPredictor::train(graph, &WalkConfig::default());
    let config = ExesConfig::fast()
        .with_k(10)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(config, embedding, link_predictor);

    // --- Why is this member on the team? ------------------------------------------
    let member = *team.members().iter().find(|&&m| m != seed).unwrap_or(&seed);
    println!("\n== Why is {} on the team? ==", graph.person_name(member));
    let member_task = TeamMembershipTask::new(&former, &ranker, member, Some(seed));
    let factual = exes.factual_skills(&member_task, graph, query, true);
    print!("{}", factual.render(graph, 6));

    // --- What would put an outsider on the team? ----------------------------------
    let outsider = graph
        .neighbors(seed)
        .iter()
        .copied()
        .find(|&p| !team.contains(p));
    let Some(outsider) = outsider else {
        println!("(every collaborator of the seed is already on the team)");
        return;
    };
    println!(
        "\n== What would put {} on the team? ==",
        graph.person_name(outsider)
    );
    let outsider_task = TeamMembershipTask::new(&former, &ranker, outsider, Some(seed));
    let additions = exes.counterfactual_skills(&outsider_task, graph, query);
    if additions.is_empty() {
        println!("  (no skill-based route onto the team was found within the budget)");
    }
    for explanation in additions.explanations.iter().take(3) {
        println!("  - {}", explanation.describe(graph));
    }

    // Verify the first suggestion: after applying it, the former really does
    // include the outsider (Figure 8's "modified team").
    if let Some(best) = additions.explanations.first() {
        let view = best.perturbations.apply_to_graph(graph);
        let new_team = former.form_team(&view, query, Some(seed));
        println!(
            "\nModified team after applying the first suggestion: {}",
            new_team.describe(graph)
        );
        assert!(new_team.contains(outsider));
    }

    // --- The same questions through the serving front door --------------------------
    // One `ExesService` hosts the team former and the raw ranker side by side;
    // a mixed batch asks factual and counterfactual questions of both models
    // and the answers match the facade calls above byte for byte.
    let mut service = ExesService::from_graph(&exes, graph.clone());
    let team_model = service
        .register(
            "greedy-cover",
            ModelSpec::team_former(former.clone(), ranker.clone(), SeedPolicy::Fixed(seed)),
        )
        .expect("valid team spec");
    let expert_model = service
        .register("gcn@10", ModelSpec::expert_ranker(ranker.clone(), 10))
        .expect("valid expert spec");
    let shared_query = Arc::new(query.clone());
    let batch = vec![
        ExplanationRequest::factual_skills(team_model, member, shared_query.clone()),
        ExplanationRequest::counterfactual_skills(team_model, outsider, shared_query.clone()),
        ExplanationRequest::counterfactual_query(expert_model, outsider, shared_query.clone()),
    ];
    let (results, report) = service.explain(&service.snapshot(), &batch);
    let responses: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("valid request"))
        .collect();
    println!(
        "\n== Service batch over {} models: {} requests, {} probes ==",
        service.registry().len(),
        report.requests,
        report.probes
    );
    let service_factual = responses[0].expect_factual();
    assert_eq!(
        service_factual.shap_values().values(),
        factual.shap_values().values(),
        "service-routed factual must match the facade call"
    );
    let service_additions = responses[1].expect_counterfactual();
    assert_eq!(
        service_additions.explanations, additions.explanations,
        "service-routed counterfactual must match the facade call"
    );
    println!("service answers are byte-identical to the direct facade calls");
}
