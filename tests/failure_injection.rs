//! Failure-injection tests: degraded inputs the pipeline must survive
//! (extreme power values, heavy missing data, degenerate label budgets,
//! pathological configurations).

use camal::{CamalConfig, CamalModel};
use nilm_data::generator::SimConfig;
use nilm_data::prelude::*;
use nilm_data::preprocess::Window;
use nilm_models::TrainConfig;

fn fast_cfg() -> CamalConfig {
    CamalConfig {
        n_ensemble: 1,
        kernels: vec![5],
        trials: 1,
        width_div: 16,
        train: TrainConfig { epochs: 2, batch_size: 8, lr: 1e-3, clip: 0.0, seed: 1 },
        ..CamalConfig::default()
    }
}

fn window_with(input: Vec<f32>, weak: u8) -> Window {
    let w = input.len();
    Window {
        aggregate_w: input.iter().map(|v| v * 1000.0).collect(),
        appliance_w: vec![0.0; w],
        status: vec![weak; w],
        input,
        weak_label: weak,
        house_id: 0,
    }
}

#[test]
fn extreme_power_spikes_do_not_produce_nan() {
    // A 1 MW artifact (meter glitch) must not destabilize training.
    let mut windows = Vec::new();
    for i in 0..12 {
        let mut input = vec![0.2f32; 64];
        if i % 2 == 0 {
            input[10] = 1000.0; // 1 MW after /1000 scaling
            windows.push(window_with(input, 1));
        } else {
            windows.push(window_with(input, 0));
        }
    }
    let set = WindowSet::new(windows);
    let model = CamalModel::train(&fast_cfg(), &set, &set, 2);
    let loc = model.localize_set(&set, 4);
    for (p, cam) in loc.detection_proba.iter().zip(&loc.cam) {
        assert!(p.is_finite());
        assert!(cam.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn heavy_missing_data_still_yields_windows() {
    let cfg = SimConfig { days: 4, missing_rate: 0.02, mean_gap: 5.0, ..Default::default() };
    let owned = [ApplianceKind::Kettle].into_iter().collect();
    let house = nilm_data::generator::generate_house(0, &owned, &cfg, 3);
    let filled = forward_fill(&resample(&house.aggregate, 60), 300);
    let windows = slice_windows(&filled, None, 300.0, 64, 0, false);
    // With 2% gap starts, windows survive (long gaps drop some).
    assert!(!windows.is_empty());
    for w in &windows {
        assert!(w.input.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn all_missing_series_produces_no_windows() {
    let dead = TimeSeries::new(vec![f32::NAN; 512], 60);
    let windows = slice_windows(&dead, None, 300.0, 64, 0, false);
    assert!(windows.is_empty());
}

#[test]
#[should_panic(expected = "empty training set")]
fn empty_training_set_fails_loudly() {
    let empty = WindowSet::default();
    // With no training windows, ensemble training cannot select members and
    // must panic with a clear message rather than return a broken model.
    let _ = CamalModel::train(&fast_cfg(), &empty, &empty, 1);
}

#[test]
fn single_class_training_detects_nothing_or_everything_but_stays_finite() {
    // All-positive training data (no negatives at all).
    let windows: Vec<Window> = (0..8).map(|_| window_with(vec![1.0; 64], 1)).collect();
    let set = WindowSet::new(windows);
    let mut cfg = fast_cfg();
    cfg.balance = false; // balancing would empty the set
    let model = CamalModel::train(&cfg, &set, &set, 1);
    let loc = model.localize_set(&set, 4);
    assert!(loc.detection_proba.iter().all(|p| p.is_finite()));
}

#[test]
fn detection_threshold_extremes() {
    let mut windows = Vec::new();
    for i in 0..8 {
        let mut input = vec![0.2f32; 64];
        if i % 2 == 0 {
            for v in input[20..40].iter_mut() {
                *v = 2.0;
            }
        }
        windows.push(window_with(input, (i % 2 == 0) as u8));
    }
    let set = WindowSet::new(windows);

    // Threshold 1.0: nothing can exceed it -> all OFF everywhere.
    let mut cfg = fast_cfg();
    cfg.detection_threshold = 1.0;
    let model = CamalModel::train(&cfg, &set, &set, 2);
    let loc = model.localize_set(&set, 4);
    assert!(loc.detected.iter().all(|&d| !d));
    assert!(loc.status.iter().flatten().all(|&s| s == 0));

    // Threshold -1: everything is "detected"; localization still gates ON
    // timesteps by the CAM/attention rule.
    let mut cfg = fast_cfg();
    cfg.detection_threshold = -1.0;
    let model = CamalModel::train(&cfg, &set, &set, 2);
    let loc = model.localize_set(&set, 4);
    assert!(loc.detected.iter().all(|&d| d));
}

#[test]
fn constant_window_input_is_handled() {
    // Standardization of a constant window must not divide by zero.
    let windows: Vec<Window> = (0..8).map(|i| window_with(vec![0.5; 64], (i % 2) as u8)).collect();
    let set = WindowSet::new(windows);
    let model = CamalModel::train(&fast_cfg(), &set, &set, 2);
    let loc = model.localize_set(&set, 4);
    assert!(loc.status.iter().flatten().all(|&s| s == 0 || s == 1));
    assert!(loc.cam.iter().flatten().all(|v| v.is_finite()));
}

#[test]
fn zero_learning_rate_changes_nothing() {
    let mut windows = Vec::new();
    for i in 0..8 {
        windows.push(window_with(vec![0.2 + (i % 2) as f32; 32], (i % 2) as u8));
    }
    let set = WindowSet::new(windows);
    let mut cfg = fast_cfg();
    cfg.train.lr = 0.0;
    // Training with lr = 0 must still produce a functional (untrained) model.
    let model = CamalModel::train(&cfg, &set, &set, 1);
    let report = model.evaluate(&set, 1000.0, 4);
    assert!(report.localization.f1.is_finite());
}
