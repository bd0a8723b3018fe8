//! Micro-benchmarks of one full counterfactual explanation request
//! (pruned beam search vs the exhaustive baseline), matching Table 8's setup
//! at reduced scale. Both run under the quick harness's probe budget, so each
//! iteration does the same, fixed work.

use criterion::{criterion_group, criterion_main, Criterion};
use exes_bench::scenario::{DatasetKind, HarnessConfig, Scenario};
use exes_core::explainer::SkillAdditionBaseline;
use exes_core::ExpertRelevanceTask;

fn bench_counterfactual(c: &mut Criterion) {
    let scenario = Scenario::build(DatasetKind::Github, &HarnessConfig::quick());
    let graph = &scenario.dataset.graph;
    let (experts, _) = scenario.sample_experts_and_non_experts(1);
    let (query, person) = experts[0].clone();
    let k = scenario.exes.config().k;
    let task = ExpertRelevanceTask::new(&scenario.ranker, person, k);

    let mut group = c.benchmark_group("counterfactual_skills");
    group.sample_size(10);
    group.bench_function("pruned_beam", |b| {
        b.iter(|| scenario.exes.counterfactual_skills(&task, graph, &query))
    });
    group.bench_function("exhaustive_baseline", |b| {
        b.iter(|| {
            scenario.exes.counterfactual_skills_exhaustive(
                &task,
                graph,
                &query,
                SkillAdditionBaseline::AllPeople,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_counterfactual);
criterion_main!(benches);
