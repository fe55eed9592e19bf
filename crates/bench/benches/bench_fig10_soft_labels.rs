//! Fig. 10: soft-label generation and soft-target training.

use criterion::{criterion_group, criterion_main, Criterion};
use nilm_bench::{bench_case, bench_model};
use nilm_models::baselines::BaselineKind;
use nilm_models::{train_soft, TrainConfig};

fn bench(c: &mut Criterion) {
    let case = bench_case();
    let model = bench_model(&case);
    let mut g = c.benchmark_group("fig10_soft_labels");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.bench_function("generate_soft_labels", |b| {
        b.iter(|| std::hint::black_box(model.soft_labels(&case.train, 16).len()))
    });
    let soft = model.soft_labels(&case.train, 16);
    let cfg = TrainConfig { epochs: 1, batch_size: 16, lr: 1e-3, clip: 0.0, seed: 1 };
    g.bench_function("train_on_soft_labels", |b| {
        b.iter(|| {
            let mut rng = nilm_tensor::init::rng(2);
            let mut m = BaselineKind::TpNilm.build(&mut rng, 16);
            std::hint::black_box(train_soft(m.as_mut(), &case.train, &soft, &cfg).final_loss())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
