//! RQ5 (paper §V-I): use CamAL's outputs as *soft labels* to train a
//! strongly supervised NILM model when per-timestep ground truth is scarce.
//!
//! Pipeline: train CamAL on weak labels → generate per-timestep soft labels
//! for the training windows → train TPNILM on (a) a few strong houses only,
//! and (b) the same strong houses plus soft labels for everyone else.
//!
//! Run with: `cargo run --release --example soft_labels`

use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;
use nilm_eval::runner::evaluate_frame_model;
use nilm_models::baselines::BaselineKind;
use nilm_models::{train_soft, train_strong, TrainConfig};

fn main() {
    // EDF-EV-shaped dataset: EV chargers at 30-minute sampling.
    let scale = ScaleOverride {
        submetered_houses: Some(10),
        days_per_house: Some(12),
        ..Default::default()
    };
    let dataset = generate_dataset(&edf_ev(), scale, 11);
    let case = prepare_case(&dataset, ApplianceKind::ElectricVehicle, 128, &SplitConfig::default());
    let avg_power = edf_ev().case(ApplianceKind::ElectricVehicle).unwrap().avg_power_w;
    println!("train windows: {}, test windows: {}", case.train.len(), case.test.len());

    // 1. CamAL on weak labels.
    let mut cfg = CamalConfig::small();
    cfg.train.epochs = 8;
    let camal = CamalModel::train(&cfg, &case.train, &case.val, 4);
    let soft = camal.soft_labels(&case.train, 16);
    let coverage = soft.iter().flatten().filter(|&&v| v > 0.0).count() as f64
        / (soft.len() * soft[0].len()) as f64;
    println!("generated soft labels for {} windows ({:.1}% ON)", soft.len(), coverage * 100.0);

    // 2. Keep strong labels for only TWO houses; everything else is soft.
    let mut houses: Vec<usize> = case.train.windows.iter().map(|w| w.house_id).collect();
    houses.sort_unstable();
    houses.dedup();
    let strong_houses: std::collections::BTreeSet<usize> = houses.iter().take(2).copied().collect();
    println!("strong houses: {strong_houses:?} of {houses:?}");

    let strong_only = WindowSet {
        windows: case
            .train
            .windows
            .iter()
            .filter(|w| strong_houses.contains(&w.house_id))
            .cloned()
            .collect(),
    };
    let mixed_targets: Vec<Vec<f32>> = case
        .train
        .windows
        .iter()
        .zip(&soft)
        .map(|(w, s)| {
            if strong_houses.contains(&w.house_id) {
                w.status.iter().map(|&b| b as f32).collect()
            } else {
                s.clone()
            }
        })
        .collect();

    let train_cfg = TrainConfig { epochs: 8, ..Default::default() };

    // 3a. TPNILM on strong labels only (label-scarce baseline).
    let mut rng = nilm_tensor::init::rng(1);
    let mut scarce = BaselineKind::TpNilm.build(&mut rng, 8);
    let _ = train_strong(scarce.as_mut(), &strong_only, &train_cfg);
    let scarce_report = evaluate_frame_model(scarce.as_mut(), &case.test, avg_power);

    // 3b. TPNILM on strong + CamAL soft labels.
    let mut rng = nilm_tensor::init::rng(2);
    let mut augmented = BaselineKind::TpNilm.build(&mut rng, 8);
    let _ = train_soft(augmented.as_mut(), &case.train, &mixed_targets, &train_cfg);
    let augmented_report = evaluate_frame_model(augmented.as_mut(), &case.test, avg_power);

    println!("\n== TPNILM on the EDF-EV test houses ==");
    println!(
        "strong labels only ({} windows)  : F1 = {:.3}",
        strong_only.len(),
        scarce_report.localization.f1
    );
    println!(
        "strong + CamAL soft ({} windows) : F1 = {:.3}",
        case.train.len(),
        augmented_report.localization.f1
    );
    println!("\nCamAL soft labels let a strongly supervised model train on the");
    println!("full dataset while only two houses were ever instrumented.");
}
