//! Class-Activation-Map explorer (a terminal cousin of the paper's
//! DeviceScope demo \[41\]): trains a CamAL ensemble on a UKDALE-shaped
//! dataset and walks through test windows showing, per member, how each
//! kernel size "sees" the signal, plus the ensemble consensus.
//!
//! Run with: `cargo run --release --example explore_cam`

use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;

const STRIP: usize = 72;

fn main() {
    let scale =
        ScaleOverride { submetered_houses: Some(5), days_per_house: Some(6), ..Default::default() };
    let dataset = generate_dataset(&ukdale(), scale, 21);
    let case = prepare_case(&dataset, ApplianceKind::Dishwasher, 192, &SplitConfig::default());
    println!(
        "UKDALE-like dataset — dishwasher case: {} train / {} test windows",
        case.train.len(),
        case.test.len()
    );

    let mut cfg = CamalConfig::small();
    cfg.kernels = vec![5, 15, 25]; // spread of receptive fields to compare
    cfg.n_ensemble = 3;
    cfg.train.epochs = 8;
    let model = CamalModel::train(&cfg, &case.train, &case.val, 4);
    println!("ensemble backbones: {:?}\n", model.describe_members());

    let loc = model.localize_set(&case.test, 16);
    let mut shown = 0;
    for (i, window) in case.test.windows.iter().enumerate() {
        if !loc.detected[i] || shown >= 3 {
            continue;
        }
        shown += 1;
        println!(
            "─── window {i} (house {}, P(detect) = {:.2}) ───",
            window.house_id, loc.detection_proba[i]
        );
        println!("power   {}", strip(&window.input));
        println!("cam     {}", strip(&loc.cam[i]));
        let pred: Vec<f32> = loc.status[i].iter().map(|&v| v as f32).collect();
        println!("pred ON {}", strip(&pred));
        let truth: Vec<f32> = window.status.iter().map(|&v| v as f32).collect();
        println!("true ON {}", strip(&truth));
        // Per-timestep agreement summary.
        let agree = loc.status[i].iter().zip(&window.status).filter(|(p, t)| p == t).count();
        println!("agreement: {agree}/{} timesteps\n", window.status.len());
    }
    if shown == 0 {
        println!("no window was detected as containing the appliance — try more epochs");
    }

    // Ensemble disagreement: how often members disagree on detection.
    let idx: Vec<usize> = (0..case.test.len().min(32)).collect();
    let x = case.test.batch_inputs(&idx);
    let probs = model.detect_proba(&x);
    let borderline = probs.iter().filter(|p| (0.3..0.7).contains(*p)).count();
    println!("{borderline}/{} test windows are borderline (0.3 < p < 0.7)", idx.len());
}

/// Renders a series as an intensity strip.
fn strip(values: &[f32]) -> String {
    const LEVELS: [char; 6] = [' ', '.', ':', '+', '*', '#'];
    let max = values.iter().copied().fold(f32::MIN_POSITIVE, f32::max);
    let bucket = values.len().div_ceil(STRIP).max(1);
    values
        .chunks(bucket)
        .map(|chunk| {
            let m = chunk.iter().copied().fold(0.0f32, f32::max) / max;
            LEVELS[((m * (LEVELS.len() - 1) as f32).round() as usize).min(LEVELS.len() - 1)]
        })
        .collect()
}
