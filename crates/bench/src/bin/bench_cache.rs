//! Emits `BENCH_cache.json`: the probe memo-cache and serving-layer baseline.
//!
//! Measures, at two graph scales (one with `--smoke`):
//! * a **cold vs warm** pruned beam search through one `ProbeCache` — probe
//!   counts and wall time for both runs, asserting byte-identical
//!   explanations;
//! * **multi-subject service throughput**: a batch of skill-counterfactual
//!   requests (several subjects per query, the whole batch repeated once to
//!   model returning traffic) served by `ExesService`, against the same
//!   requests answered one-by-one through an uncached explainer.
//!
//! Run with `cargo run -p exes-bench --release --bin bench_cache` from the
//! repo root; CI runs the `--smoke` variant to keep the binary from
//! bit-rotting.

use exes_bench::timing::timed;
use exes_core::counterfactual::{beam::beam_search, CounterfactualKind};
use exes_core::service::{ExesService, ExplanationRequest};
use exes_core::{Exes, ExesConfig, ExpertRelevanceTask, ModelSpec, ProbeCache};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_embedding::{EmbeddingConfig, SkillEmbedding};
use exes_expert_search::{ExpertRanker, GcnRanker};
use exes_graph::{GraphView, Perturbation};
use exes_linkpred::CommonNeighbors;
use std::fmt::Write as _;
use std::sync::Arc;

const SUBJECTS_PER_QUERY: usize = 6;
const QUERIES: usize = 2;

struct Row {
    scale: &'static str,
    people: usize,
    edges: usize,
    // Cold vs warm beam search through one cache.
    beam_cold_probes: usize,
    beam_cold_ms: f64,
    beam_warm_probes: usize,
    beam_warm_hits: usize,
    beam_warm_ms: f64,
    // Batch serving vs one-by-one explaining.
    service_requests: usize,
    service_duplicates: usize,
    service_ms: f64,
    service_rps: f64,
    service_cache_hits: u64,
    service_hit_rate: f64,
    service_probes: usize,
    solo_ms: f64,
    solo_probes: usize,
}

fn measure(scale: &'static str, people: usize) -> Row {
    let base = DatasetConfig::github_sim();
    let factor = people as f64 / base.num_people as f64;
    let ds = SyntheticDataset::generate(&base.scaled(factor).with_seed(0xCAC4E));
    let workload = QueryWorkload::answerable(&ds.graph, QUERIES, 3, 5, 3, 0x51);
    let ranker = GcnRanker::default();
    let cfg = ExesConfig::fast().with_k(10);

    // --- Cold vs warm beam search -------------------------------------
    let query = workload.queries()[0].clone();
    let subject = ranker.rank_all(&ds.graph, &query).top_k(1)[0];
    let task = ExpertRelevanceTask::new(&ranker, subject, cfg.k);
    let candidates: Vec<Perturbation> = ds
        .graph
        .person_skills(subject)
        .iter()
        .map(|&s| Perturbation::RemoveSkill {
            person: subject,
            skill: s,
        })
        .chain(
            ds.graph
                .vocab()
                .ids()
                .take(20)
                .map(|skill| Perturbation::AddQueryTerm { skill }),
        )
        .collect();
    let cache = ProbeCache::for_config(&cfg);
    let run = |cache: &ProbeCache| {
        beam_search(
            &task,
            &ds.graph,
            &query,
            &candidates,
            CounterfactualKind::SkillRemoval,
            &cfg,
            None,
            Some(cache),
        )
    };
    let (cold, cold_time) = timed(|| run(&cache));
    let (warm, warm_time) = timed(|| run(&cache));
    assert_eq!(
        cold.explanations, warm.explanations,
        "cache changed the explanations"
    );
    assert!(
        warm.probes < cold.probes,
        "warm run must issue fewer black-box probes ({} vs {})",
        warm.probes,
        cold.probes
    );

    // --- Multi-subject service throughput -----------------------------
    let embedding = SkillEmbedding::train(
        ds.corpus.token_bags(),
        ds.graph.vocab().len(),
        &EmbeddingConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let exes = Exes::new(cfg.clone(), embedding, CommonNeighbors);
    let mut service = ExesService::from_graph(&exes, ds.graph.clone());
    let model = service
        .register("gcn", ModelSpec::expert_ranker(ranker.clone(), cfg.k))
        .expect("valid model spec");
    let mut requests = Vec::new();
    for query in workload.queries() {
        let query = Arc::new(query.clone());
        let ranking = ranker.rank_all(&ds.graph, &query);
        for (rank, &(person, _)) in ranking
            .entries()
            .iter()
            .take(SUBJECTS_PER_QUERY)
            .enumerate()
        {
            requests.push(ExplanationRequest::counterfactual_skills(
                model,
                person,
                query.clone(),
            ));
            // Half the subjects also ask for a query-augmentation explanation:
            // both searches share the group cache (identity probe and every
            // query-side perturbation set), exercising cross-request reuse.
            if rank % 2 == 0 {
                requests.push(ExplanationRequest::counterfactual_query(
                    model,
                    person,
                    query.clone(),
                ));
            }
        }
    }
    // Returning traffic: the same requests arrive a second time.
    let mut traffic = requests.clone();
    traffic.extend(requests.clone());

    let ((responses, report), service_time) =
        timed(|| service.explain(&service.snapshot(), &traffic));
    assert_eq!(responses.len(), traffic.len());

    let mut solo_exes = exes.clone();
    solo_exes.config_mut().parallel_probes = false;
    let (solo_probes, solo_time) = timed(|| {
        let mut probes = 0usize;
        for request in &traffic {
            let task = ExpertRelevanceTask::new(&ranker, request.subject, cfg.k);
            probes += solo_exes
                .explain(request.kind, &task, &ds.graph, &request.query)
                .probes();
        }
        probes
    });

    let service_secs = service_time.as_secs_f64();
    Row {
        scale,
        people: ds.graph.num_people(),
        edges: ds.graph.num_edges(),
        beam_cold_probes: cold.probes,
        beam_cold_ms: cold_time.as_secs_f64() * 1e3,
        beam_warm_probes: warm.probes,
        beam_warm_hits: warm.cache_hits,
        beam_warm_ms: warm_time.as_secs_f64() * 1e3,
        service_requests: traffic.len(),
        service_duplicates: report.duplicate_requests,
        service_ms: service_secs * 1e3,
        service_rps: traffic.len() as f64 / service_secs.max(1e-9),
        service_cache_hits: report.cache_hits,
        service_hit_rate: report.hit_rate(),
        service_probes: report.probes,
        solo_ms: solo_time.as_secs_f64() * 1e3,
        solo_probes,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[(&'static str, usize)] = if smoke {
        &[("smoke", 120)]
    } else {
        &[("small", 150), ("medium", 600)]
    };
    let threads = exes_parallel::thread_count(usize::MAX);

    let mut rows = Vec::new();
    for &(scale, people) in scales {
        eprintln!("measuring scale '{scale}' ({people} people)...");
        rows.push(measure(scale, people));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"probe_cache\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scale\": \"{}\", \"people\": {}, \"edges\": {}, \
             \"beam_cold_probes\": {}, \"beam_cold_ms\": {:.3}, \
             \"beam_warm_probes\": {}, \"beam_warm_hits\": {}, \
             \"beam_warm_ms\": {:.3}, \
             \"service_requests\": {}, \"service_duplicates\": {}, \
             \"service_ms\": {:.3}, \"service_rps\": {:.1}, \
             \"service_cache_hits\": {}, \"service_hit_rate\": {:.4}, \
             \"service_probes\": {}, \
             \"solo_ms\": {:.3}, \"solo_probes\": {}, \
             \"service_speedup\": {:.2}}}{comma}",
            r.scale,
            r.people,
            r.edges,
            r.beam_cold_probes,
            r.beam_cold_ms,
            r.beam_warm_probes,
            r.beam_warm_hits,
            r.beam_warm_ms,
            r.service_requests,
            r.service_duplicates,
            r.service_ms,
            r.service_rps,
            r.service_cache_hits,
            r.service_hit_rate,
            r.service_probes,
            r.solo_ms,
            r.solo_probes,
            r.solo_ms / r.service_ms.max(1e-9),
        );
    }
    json.push_str("  ]\n}\n");

    println!("{json}");
    if smoke {
        // Smoke runs exercise the whole pipeline but must not clobber the
        // committed full-scale baseline.
        eprintln!("smoke run: leaving BENCH_cache.json untouched");
    } else {
        std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
        eprintln!("wrote BENCH_cache.json");
    }
}
