//! Quickstart: the paper's Figure 1 scenario on a hand-built network.
//!
//! Builds a small academic collaboration network, asks an expert-search system
//! for "xai ai mining" experts, and then asks ExES *why* the top expert was
//! chosen (factual explanation) and *what would have to change* for them to no
//! longer be chosen (counterfactual explanations) — first through the direct
//! `Exes` facade, then through the `ExesService` front door with a registered
//! model and a mixed batch.
//!
//! Run with: `cargo run --example quickstart`

use exes::prelude::*;
use std::sync::Arc;

fn main() {
    // --- A small collaboration network (echoing Figure 1 of the paper) --------
    let mut b = CollabGraphBuilder::new();
    let weikum = b.add_person("Gerhard W.", ["kb", "db", "xai"]);
    let anand = b.add_person("Avishek A.", ["xai", "ir", "graphs"]);
    let theobald = b.add_person("Martin T.", ["db", "mining"]);
    let koudas = b.add_person("Nick K.", ["db", "streams"]);
    let srivastava = b.add_person("Divesh S.", ["db", "quality"]);
    let lakshmanan = b.add_person("Laks L.", ["db", "distributed"]);
    let gummadi = b.add_person("Krishna G.", ["networks", "security"]);
    let schiele = b.add_person("Bernt S.", ["ml", "vision"]);
    for other in [anand, theobald, koudas, srivastava, lakshmanan] {
        b.add_edge(weikum, other);
    }
    b.add_edge(anand, gummadi);
    b.add_edge(gummadi, schiele);
    // Extra vocabulary so counterfactual query augmentation has room to work.
    b.intern_skill("statistics");
    b.intern_skill("ai");
    let graph = b.build();

    // --- The black box being explained -----------------------------------------
    let ranker = PropagationRanker::default();
    let query = Query::parse("xai ai mining", graph.vocab()).unwrap();
    let k = 1;
    let ranking = ranker.rank_all(&graph, &query);
    println!("Query: '{}', top-{k}:", query.display(graph.vocab()));
    for &(p, score) in ranking.entries().iter().take(3) {
        println!("  {:>24}  score {score:.3}", graph.person_name(p));
    }
    let top = ranking.top_k(k)[0];

    // --- ExES setup --------------------------------------------------------------
    // The embedding is trained on each person's skill set as a tiny corpus.
    let bags: Vec<Vec<SkillId>> = graph
        .people()
        .map(|p| graph.person_skills(p).to_vec())
        .collect();
    let embedding = SkillEmbedding::train(
        bags.iter().map(|b| b.as_slice()),
        graph.vocab().len(),
        &EmbeddingConfig::default(),
    );
    let config = ExesConfig::fast()
        .with_k(k)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(config, embedding, CommonNeighbors);
    let task = ExpertRelevanceTask::new(&ranker, top, k);

    // --- Factual: why was Weikum selected? ---------------------------------------
    println!(
        "\n== Factual skill explanation for {} ==",
        graph.person_name(top)
    );
    let factual = exes.factual_skills(&task, &graph, &query, true);
    print!("{}", factual.render(&graph, 6));

    println!("== Factual query-term explanation ==");
    let query_factual = exes.factual_query_terms(&task, &graph, &query);
    print!("{}", query_factual.render(&graph, 3));

    // --- Counterfactual: what would unseat him? -----------------------------------
    println!("== Counterfactual explanations (how to leave the top-{k}) ==");
    for result in [
        exes.counterfactual_skills(&task, &graph, &query),
        exes.counterfactual_query(&task, &graph, &query),
        exes.counterfactual_links(&task, &graph, &query),
    ] {
        for explanation in result.explanations.iter().take(2) {
            println!("  - {}", explanation.describe(&graph));
        }
    }

    // --- The serving layer: register the model once, batch everything ---------------
    // A production deployment goes through `ExesService`: models are registered
    // by name, requests address them by `ModelId`, and one mixed batch can ask
    // for every explanation family at once.
    let mut service = ExesService::from_graph(&exes, graph.clone());
    let model = service
        .register("propagation@1", ModelSpec::expert_ranker(ranker, k))
        .expect("valid model spec");
    let query = Arc::new(query);
    let batch = vec![
        ExplanationRequest::factual_skills(model, top, query.clone()),
        ExplanationRequest::counterfactual_skills(model, top, query.clone()),
        ExplanationRequest::counterfactual_query(model, top, query.clone()),
    ];
    let (results, report) = service.explain(&service.snapshot(), &batch);
    let responses: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("valid request"))
        .collect();
    println!(
        "\n== Service batch: {} requests against model '{}' ({} probes, {:.0}% cache hits) ==",
        report.requests,
        service.registry().name(model).unwrap(),
        report.probes,
        report.hit_rate() * 100.0
    );
    let factual = responses[0].expect_factual();
    println!(
        "factual top feature: {}",
        factual
            .top_k(1)
            .first()
            .map(|(feature, _)| feature.describe(&graph))
            .unwrap_or_else(|| "(none)".into())
    );
    for response in &responses[1..] {
        if let Some(result) = response.as_counterfactual() {
            for explanation in result.explanations.iter().take(1) {
                println!("counterfactual: {}", explanation.describe(&graph));
            }
        }
    }

    println!("\nDone. See `examples/academic_search.rs` for the full synthetic-DBLP scenario.");
}
