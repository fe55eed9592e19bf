//! Fig. 7(c): inference throughput vs input length — this bench IS the
//! figure: criterion reports elements/second per input length.

use camal::CamalModel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nilm_bench::{bench_camal_cfg, bench_case};
use nilm_data::preprocess::Window;
use nilm_data::windows::WindowSet;
use rand::{RngExt, SeedableRng};

fn windows_of_len(w: usize, n: usize) -> WindowSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    WindowSet::new(
        (0..n)
            .map(|i| {
                let input: Vec<f32> = (0..w).map(|_| rng.random::<f32>()).collect();
                Window {
                    aggregate_w: input.iter().map(|v| v * 1000.0).collect(),
                    appliance_w: vec![0.0; w],
                    status: vec![0; w],
                    weak_label: 0,
                    input,
                    house_id: i,
                }
            })
            .collect(),
    )
}

fn bench(c: &mut Criterion) {
    let case = bench_case();
    let model = CamalModel::train(&bench_camal_cfg(), &case.train, &case.val, 2);
    let mut g = c.benchmark_group("fig7c_throughput_vs_length");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_secs(1));
    for len in [128usize, 256, 510] {
        let data = windows_of_len(len, 8);
        g.throughput(Throughput::Elements(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("camal_localize", len), &data, |b, d| {
            b.iter(|| std::hint::black_box(model.localize_set(d, 1).status.len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
