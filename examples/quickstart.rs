//! Quickstart: simulate a REFIT-like dataset, train CamAL on weak labels,
//! and localize kettle activations in unseen houses.
//!
//! Run with: `cargo run --release --example quickstart`

use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;

fn main() {
    // 1. Simulate a small REFIT-shaped dataset (8 houses, 4 days each).
    let scale =
        ScaleOverride { submetered_houses: Some(8), days_per_house: Some(4), ..Default::default() };
    let dataset = generate_dataset(&refit(), scale, 42);
    println!(
        "simulated {} houses of {} days at {}s resolution",
        dataset.houses.len(),
        4,
        dataset.template.step_s
    );

    // 2. Preprocess into non-overlapping windows with house-level splits.
    //    Each training window carries ONE weak label (appliance used or not).
    let case = prepare_case(&dataset, ApplianceKind::Kettle, 256, &SplitConfig::default());
    println!(
        "windows: train={} (positives={}), val={}, test={}",
        case.train.len(),
        case.train.positives(),
        case.val.len(),
        case.test.len()
    );

    // 3. Train the CamAL ensemble (Algorithm 1) — laptop-scale config.
    let mut cfg = CamalConfig::small();
    cfg.train.epochs = 8;
    let model = CamalModel::train(&cfg, &case.train, &case.val, 4);
    println!(
        "trained ensemble of {} detectors ({:?}) in {:.1}s",
        model.ensemble_size(),
        model.describe_members(),
        model.train_stats.total_secs
    );

    // 4. Localize on unseen houses and report paper metrics.
    let avg_power = refit().case(ApplianceKind::Kettle).unwrap().avg_power_w;
    let report = model.evaluate(&case.test, avg_power, 16);
    println!("\n== Test report (unseen houses) ==");
    println!("localization F1        : {:.3}", report.localization.f1);
    println!("localization precision : {:.3}", report.localization.precision);
    println!("localization recall    : {:.3}", report.localization.recall);
    println!("detection bal. accuracy: {:.3}", report.detection.balanced_accuracy);
    println!("energy MAE             : {:.1} W", report.energy.mae);
    println!("energy matching ratio  : {:.3}", report.energy.matching_ratio);

    // 5. Visualize one detected window as ASCII strips.
    let loc = model.localize_set(&case.test, 16);
    if let Some(idx) = loc.detected.iter().position(|&d| d) {
        let window = &case.test.windows[idx];
        println!("\n== Window {idx} (detected, p={:.2}) ==", loc.detection_proba[idx]);
        println!("aggregate: {}", strip(&window.input, 64));
        println!("CAM      : {}", strip(&loc.cam[idx], 64));
        let status: Vec<f32> = loc.status[idx].iter().map(|&s| s as f32).collect();
        println!("predicted: {}", strip(&status, 64));
        let truth: Vec<f32> = window.status.iter().map(|&s| s as f32).collect();
        println!("truth    : {}", strip(&truth, 64));
    }
}

/// Renders a series as a 64-char intensity strip.
fn strip(values: &[f32], width: usize) -> String {
    const LEVELS: [char; 5] = [' ', '.', ':', '*', '#'];
    let max = values.iter().copied().fold(f32::MIN_POSITIVE, f32::max);
    let bucket = values.len().div_ceil(width).max(1);
    values
        .chunks(bucket)
        .map(|chunk| {
            let m = chunk.iter().copied().fold(0.0f32, f32::max) / max;
            LEVELS[((m * (LEVELS.len() - 1) as f32).round() as usize).min(LEVELS.len() - 1)]
        })
        .collect()
}
