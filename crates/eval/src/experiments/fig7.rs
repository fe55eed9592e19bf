//! Fig. 7: scalability. (a) training time per method; (b) training time per
//! epoch versus the number of households on a synthetic white-noise dataset
//! (as in the paper); (c) single-thread inference throughput versus input
//! length.

use crate::output::{f3, Table};
use crate::runner::{build_case_data, run_baseline, run_camal, Case, Scale};
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::preprocess::Window;
use nilm_data::templates::DatasetId;
use nilm_data::windows::WindowSet;
use nilm_models::baselines::BaselineKind;
use nilm_models::{train_strong, train_weak_mil};
use nilm_tensor::layer::Mode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Fig. 7(a): wall-clock training time per method on one representative
/// case per dataset.
pub fn run_training_time(scale: &Scale) -> Table {
    let cases = if scale.name == "smoke" {
        vec![Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle }]
    } else {
        crate::runner::smoke_cases() // one case per dataset
    };
    let mut table = Table::new(
        "Fig. 7(a) — training time per method (seconds)",
        &["case", "method", "train_s", "secs_per_epoch", "labels"],
    );
    for case in &cases {
        let (_, data) = build_case_data(case, scale);
        let mut runs = vec![run_camal(case, &data, scale, None)];
        for &kind in BaselineKind::all() {
            runs.push(run_baseline(kind, case, &data, scale));
        }
        for run in runs {
            table.push_row(vec![
                case.label(),
                run.method.clone(),
                f3(run.train_secs),
                f3(run.secs_per_epoch),
                run.labels_used.to_string(),
            ]);
        }
    }
    table
}

/// White-noise windows mimicking the paper's synthetic scalability dataset
/// (random consumption, per-timestep ground truth).
fn white_noise_windows(houses: usize, samples_per_house: usize, w: usize, seed: u64) -> WindowSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut windows = Vec::new();
    for house in 0..houses {
        for _ in 0..samples_per_house / w {
            let input: Vec<f32> = (0..w).map(|_| rng.random::<f32>()).collect();
            let status: Vec<u8> = (0..w).map(|_| rng.random_bool(0.2) as u8).collect();
            let weak = status.iter().any(|&s| s == 1) as u8;
            windows.push(Window {
                aggregate_w: input.iter().map(|v| v * 1000.0).collect(),
                appliance_w: vec![0.0; w],
                input,
                status,
                weak_label: weak,
                house_id: house,
            });
        }
    }
    WindowSet::new(windows)
}

/// Fig. 7(b): training time per epoch as the number of households grows.
pub fn run_epoch_scaling(scale: &Scale) -> Table {
    let house_counts: Vec<usize> = match scale.name {
        "smoke" => vec![1, 2],
        "quick" => vec![2, 4, 8],
        _ => vec![4, 8, 16, 32],
    };
    // The paper simulates 30-minute sampling for one year (length 17520)
    // per house; we scale that down with the preset.
    let samples_per_house = match scale.name {
        "smoke" => 4 * scale.window,
        "quick" => 8 * scale.window,
        _ => 17520,
    };
    let mut table = Table::new(
        "Fig. 7(b) — training time per epoch vs number of households",
        &["method", "households", "windows", "secs_per_epoch"],
    );
    let mut train_cfg = scale.train_config();
    train_cfg.epochs = 1;
    for &houses in &house_counts {
        let data = white_noise_windows(houses, samples_per_house, scale.window, 0xF16_7B);
        // CamAL: one member's epoch time × candidates (members train in
        // parallel in practice; the paper reports per-epoch compute).
        let mut cfg = scale.camal_config();
        cfg.train = train_cfg;
        cfg.trials = 1;
        cfg.kernels = vec![scale.kernels[0]];
        cfg.n_ensemble = 1;
        let start = Instant::now();
        let _ = CamalModel::train(&cfg, &data, &data, 1);
        table.push_row(vec![
            "CamAL (per member)".to_string(),
            houses.to_string(),
            data.len().to_string(),
            f3(start.elapsed().as_secs_f64()),
        ]);
        for &kind in BaselineKind::all() {
            let mut rng = nilm_tensor::init::rng(0xF1);
            let mut model = kind.build(&mut rng, scale.width_div);
            let stats = if kind.is_weakly_supervised() {
                train_weak_mil(model.as_mut(), &data, &train_cfg)
            } else {
                train_strong(model.as_mut(), &data, &train_cfg)
            };
            table.push_row(vec![
                kind.name().to_string(),
                houses.to_string(),
                data.len().to_string(),
                f3(stats.secs_per_epoch()),
            ]);
        }
    }
    table
}

/// Fig. 7(c): single-thread inference throughput (windows/second) versus
/// input sequence length.
pub fn run_throughput(scale: &Scale) -> Table {
    let lengths: Vec<usize> = match scale.name {
        "smoke" => vec![128, 256],
        "quick" => vec![128, 256, 510],
        _ => vec![128, 256, 510, 1024, 2048],
    };
    let reps = if scale.name == "smoke" { 4 } else { 16 };
    let mut table = Table::new(
        "Fig. 7(c) — inference throughput vs input length (windows/sec)",
        &["method", "input_len", "windows_per_sec"],
    );
    for &len in &lengths {
        let data = white_noise_windows(1, reps * len, len, 0x7C);
        let idx: Vec<usize> = (0..data.len()).collect();

        // CamAL: full pipeline (ensemble + CAM + attention).
        let mut cfg = scale.camal_config();
        cfg.train.epochs = 1;
        let tiny = data.subsample(4, &mut StdRng::seed_from_u64(1));
        let model = CamalModel::train(&cfg, &tiny, &tiny, scale.threads);
        let start = Instant::now();
        let _ = model.localize_set(&data, 1);
        let camal_tp = data.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
        table.push_row(vec!["CamAL".to_string(), len.to_string(), f3(camal_tp)]);

        for &kind in BaselineKind::all() {
            let mut rng = nilm_tensor::init::rng(0x7C1);
            let mut m = kind.build(&mut rng, scale.width_div);
            let start = Instant::now();
            for chunk in idx.chunks(1) {
                let x = data.batch_inputs(chunk);
                let _ = m.forward(&x, Mode::Eval);
            }
            let tp = data.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
            table.push_row(vec![kind.name().to_string(), len.to_string(), f3(tp)]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        let mut s = Scale::smoke();
        s.epochs = 1;
        s.kernels = vec![5];
        s.n_ensemble = 1;
        s.trials = 1;
        s
    }

    #[test]
    fn white_noise_windows_have_expected_count() {
        let set = white_noise_windows(3, 256, 64, 1);
        assert_eq!(set.len(), 3 * 4);
        assert_eq!(set.window_len(), 64);
    }

    #[test]
    fn training_time_table_covers_all_methods() {
        let table = run_training_time(&tiny_scale());
        let methods: std::collections::BTreeSet<String> =
            table.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(methods.len(), 7); // CamAL + 6 baselines
    }

    #[test]
    fn epoch_scaling_times_increase_with_households() {
        let table = run_epoch_scaling(&tiny_scale());
        // For each method, time at the largest house count should be >= the
        // smallest (allowing noise, just check the table shape).
        assert!(table.rows.len() >= 14);
    }

    #[test]
    fn throughput_is_positive() {
        let table = run_throughput(&tiny_scale());
        for row in &table.rows {
            let tp: f64 = row[2].parse().unwrap();
            assert!(tp > 0.0);
        }
    }
}
