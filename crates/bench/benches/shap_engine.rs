//! Micro-benchmarks of the Shapley estimators (exact vs permutation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exes_shap::{exact_shapley, permutation_shapley, FnModel};

fn model(n: usize) -> FnModel<impl Fn(&[bool]) -> f64> {
    FnModel::new(n, move |mask: &[bool]| {
        let mut acc = 0.0;
        for (i, &b) in mask.iter().enumerate() {
            if b {
                acc += (i % 7) as f64;
            }
        }
        // A pairwise interaction so that the model is not purely additive.
        if mask[0] && mask[n - 1] {
            acc += 5.0;
        }
        acc
    })
}

fn bench_shap(c: &mut Criterion) {
    let mut group = c.benchmark_group("shap");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("exact", 12), |b| {
        let m = model(12);
        b.iter(|| exact_shapley(&m))
    });
    for features in [32usize, 128] {
        group.bench_function(BenchmarkId::new("permutation_16", features), |b| {
            let m = model(features);
            b.iter(|| permutation_shapley(&m, 16, 7, None))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shap);
criterion_main!(benches);
