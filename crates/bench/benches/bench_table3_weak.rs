//! Table III: the weakly supervised comparison on one case.

use criterion::{criterion_group, criterion_main, Criterion};
use nilm_bench::{bench_case, bench_model};

fn bench(c: &mut Criterion) {
    let case = bench_case();
    let model = bench_model(&case);
    c.bench_function("table3_camal_evaluate", |b| {
        b.iter(|| std::hint::black_box(model.evaluate(&case.test, 2000.0, 16).localization.f1))
    });
}

criterion_group!(name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1)); targets = bench);
criterion_main!(benches);
