//! Fig. 6(b): joint detection + localization scoring of a trained model.

use criterion::{criterion_group, criterion_main, Criterion};
use nilm_bench::{bench_case, bench_model};

fn bench(c: &mut Criterion) {
    let case = bench_case();
    let model = bench_model(&case);
    c.bench_function("fig6b_detect_and_localize", |b| {
        b.iter(|| {
            let r = model.evaluate(&case.test, 2000.0, 16);
            std::hint::black_box((r.detection.balanced_accuracy, r.localization.f1))
        })
    });
}

criterion_group!(name = benches; config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1)); targets = bench);
criterion_main!(benches);
