//! Benchmarks of the batched probe engine — the tentpole hot path.
//!
//! Measures raw probe throughput (parallel vs sequential) and a full
//! counterfactual beam search through the engine, at several graph scales, so
//! the perf trajectory of the engine is visible across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exes_core::counterfactual::{beam::beam_search, CounterfactualKind};
use exes_core::probe::ProbeBatch;
use exes_core::{ExesConfig, ExpertRelevanceTask};
use exes_datasets::{DatasetConfig, QueryWorkload, SyntheticDataset};
use exes_expert_search::{GcnRanker, TfIdfRanker};
use exes_graph::{GraphView, Perturbation, PerturbationSet};

/// Graph scales exercised: (label, people).
const SCALES: &[(&str, usize)] = &[("small", 150), ("medium", 600), ("large", 1500)];

fn dataset(people: usize) -> SyntheticDataset {
    let base = DatasetConfig::github_sim();
    let factor = people as f64 / base.num_people as f64;
    SyntheticDataset::generate(&base.scaled(factor).with_seed(0xBE7C))
}

fn probe_sets(ds: &SyntheticDataset, count: usize) -> Vec<PerturbationSet> {
    let mut sets = Vec::with_capacity(count);
    'outer: for p in ds.graph.people() {
        for &s in ds.graph.person_skills(p) {
            sets.push(PerturbationSet::singleton(Perturbation::RemoveSkill {
                person: p,
                skill: s,
            }));
            if sets.len() >= count {
                break 'outer;
            }
        }
    }
    sets
}

fn bench_batched_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_batch");
    group.sample_size(10);
    for &(label, people) in SCALES {
        let ds = dataset(people);
        let workload = QueryWorkload::answerable(&ds.graph, 1, 3, 5, 3, 0x51);
        let query = workload.queries()[0].clone();
        let ranker = TfIdfRanker::default();
        let subject = ds.graph.people().next().expect("non-empty graph");
        let task = ExpertRelevanceTask::new(&ranker, subject, 10);
        let sets = probe_sets(&ds, 256);
        group.bench_function(BenchmarkId::new("parallel", label), |b| {
            let engine = ProbeBatch::new(&task, &ds.graph, &query, true, None);
            b.iter(|| engine.score(&sets, None))
        });
        group.bench_function(BenchmarkId::new("sequential", label), |b| {
            let engine = ProbeBatch::new(&task, &ds.graph, &query, false, None);
            b.iter(|| engine.score(&sets, None))
        });
    }
    group.finish();
}

fn bench_beam_through_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("beam_probe_engine");
    group.sample_size(10);
    for &(label, people) in &SCALES[..2] {
        let ds = dataset(people);
        let workload = QueryWorkload::answerable(&ds.graph, 1, 3, 5, 3, 0x52);
        let query = workload.queries()[0].clone();
        let ranker = GcnRanker::default();
        let subject = ds.graph.people().next().expect("non-empty graph");
        let task = ExpertRelevanceTask::new(&ranker, subject, 10);
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
        let cfg = ExesConfig::fast().with_k(10);
        for (mode, parallel) in [("parallel", true), ("sequential", false)] {
            group.bench_function(BenchmarkId::new(mode, label), |b| {
                b.iter(|| {
                    let engine = ProbeBatch::new(&task, &ds.graph, &query, parallel, None);
                    let (reference, _) = engine.score(&[PerturbationSet::new()], None);
                    let kind = CounterfactualKind::SkillRemoval;
                    beam_search(&engine, reference[0], &candidates, kind, &cfg, None)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batched_probes, bench_beam_through_engine);
criterion_main!(benches);
