//! Academic expert search on the synthetic DBLP-like network.
//!
//! Mirrors the paper's case studies of Section 4.5 (Figures 3, 4, 10, 11): pick
//! a query, find the top-ranked researcher under the GCN-style ranker, and show
//! the factual skill and collaboration explanations ExES produces for them —
//! first with pruning, then with the exhaustive baseline for comparison.
//!
//! Run with: `cargo run --release --example academic_search`

use exes::prelude::*;
use std::time::Instant;

fn main() {
    // A scaled-down DBLP-like network (use a larger factor for a slower, more
    // realistic run).
    let dataset = SyntheticDataset::generate(&DatasetConfig::dblp_sim().scaled(0.012));
    let graph = &dataset.graph;
    let stats = graph.stats();
    println!(
        "Synthetic DBLP: {} researchers, {} collaborations, {} skills",
        stats.num_people, stats.num_edges, stats.num_skills
    );

    // Black box: the GCN-style ranker the paper's evaluation explains.
    let ranker = GcnRanker::default();
    let workload = QueryWorkload::answerable(graph, 1, 3, 4, 3, 42);
    let query = &workload.queries()[0];
    let k = 10;
    println!("Query: '{}'", query.display(graph.vocab()));

    let ranking = ranker.rank_all(graph, query);
    println!("Top-{k} researchers:");
    for (i, &(p, score)) in ranking.entries().iter().take(k).enumerate() {
        println!(
            "  {:>2}. {:<28} score {score:.4}",
            i + 1,
            graph.person_name(p)
        );
    }
    let subject = ranking.top_k(1)[0];

    // ExES with the two pruning guides.
    let embedding = SkillEmbedding::train(
        dataset.corpus.token_bags(),
        graph.vocab().len(),
        &EmbeddingConfig::default(),
    );
    let link_predictor = EmbeddingLinkPredictor::train(graph, &WalkConfig::default());
    let config = ExesConfig::paper_defaults()
        .with_k(k)
        .with_output_mode(OutputMode::SmoothRank);
    let exes = Exes::new(config, embedding, link_predictor);
    let task = ExpertRelevanceTask::new(&ranker, subject, k);

    // --- Figure 3 / 10 analogue: skill SHAP values -----------------------------
    println!(
        "\n== Why is {} in the top-{k}? (skill SHAP values, pruned) ==",
        graph.person_name(subject)
    );
    let start = Instant::now();
    let pruned = exes.factual_skills(&task, graph, query, true);
    let pruned_time = start.elapsed();
    print!("{}", pruned.render(graph, 8));
    println!(
        "  [{} features scored, {} probes, {:.2?}]",
        pruned.num_features(),
        pruned.accounting().probed,
        pruned_time
    );

    println!("\n== Same question without pruning (exhaustive baseline) ==");
    let start = Instant::now();
    let exhaustive = exes.factual_skills(&task, graph, query, false);
    let exhaustive_time = start.elapsed();
    println!(
        "  [{} features scored, {} probes, {:.2?}] — Precision@5 of the pruned explanation: {:.2}",
        exhaustive.num_features(),
        exhaustive.accounting().probed,
        exhaustive_time,
        factual_precision_at_k(&pruned, &exhaustive, 5)
    );

    // --- Figure 4 / 11 analogue: collaboration SHAP values -----------------------
    println!(
        "\n== Which collaborations support {}'s ranking? ==",
        graph.person_name(subject)
    );
    let collabs = exes.factual_collaborations(&task, graph, query, true);
    for (feature, value) in collabs.top_k(6) {
        let marker = if value >= 0.0 { "+" } else { "-" };
        println!("  [{marker}] {:+.3}  {}", value, feature.describe(graph));
    }
    if collabs.size() == 0 {
        println!("  (no collaboration passed the τ threshold — the ranking rests on the researcher's own skills)");
    }

    println!(
        "\nPruned vs exhaustive latency on this machine: {:.2?} vs {:.2?}",
        pruned_time, exhaustive_time
    );
}
