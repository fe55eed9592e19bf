//! Fig. 6(c): inference cost as the ensemble grows.

use camal::CamalModel;
use criterion::{criterion_group, criterion_main, Criterion};
use nilm_bench::{bench_camal_cfg, bench_case};

fn bench(c: &mut Criterion) {
    let case = bench_case();
    let mut g = c.benchmark_group("fig6c_localize_by_ensemble_size");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for n in [1usize, 2] {
        let mut cfg = bench_camal_cfg();
        cfg.kernels = vec![5, 9];
        cfg.n_ensemble = n;
        let model = CamalModel::train(&cfg, &case.train, &case.val, 2);
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| std::hint::black_box(model.localize_set(&case.test, 16).status.len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
