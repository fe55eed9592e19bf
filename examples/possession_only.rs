//! The extreme-but-realistic RQ4 scenario (paper §V-H): train CamAL using
//! ONE label per household — the survey answer "do you own a dishwasher?" —
//! and localize activations in submetered households it has never seen.
//!
//! Run with: `cargo run --release --example possession_only`

use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;

fn main() {
    // IDEAL-shaped dataset: a submetered core plus possession-only survey
    // houses (the paper uses 39 submetered + 216 survey households).
    let scale = ScaleOverride {
        submetered_houses: Some(8),
        possession_only_houses: Some(24),
        days_per_house: Some(5),
    };
    let dataset = generate_dataset(&ideal(), scale, 7);
    println!(
        "simulated IDEAL-like dataset: {} submetered + {} survey houses",
        dataset.houses.len(),
        dataset.survey_houses.len()
    );

    // Possession pipeline: every training window inherits the household's
    // ownership answer; NO per-timestep information is available.
    let case =
        prepare_possession_case(&dataset, ApplianceKind::Dishwasher, 128, &SplitConfig::default());
    let train_houses: std::collections::BTreeSet<usize> =
        case.train.windows.iter().map(|w| w.house_id).collect();
    println!(
        "training labels: {} (one ownership answer per house, {} houses)",
        train_houses.len(),
        train_houses.len()
    );
    println!(
        "training windows: {} (positives {}), test windows: {}",
        case.train.len(),
        case.train.positives(),
        case.test.len()
    );

    let mut cfg = CamalConfig::small();
    cfg.train.epochs = 8;
    let model = CamalModel::train(&cfg, &case.train, &case.val, 4);

    let avg_power = ideal().case(ApplianceKind::Dishwasher).unwrap().avg_power_w;
    let report = model.evaluate(&case.test, avg_power, 16);
    println!("\n== Localization on submetered ground truth ==");
    println!(
        "F1 = {:.3}  Pr = {:.3}  Rc = {:.3}",
        report.localization.f1, report.localization.precision, report.localization.recall
    );
    println!("detection balanced accuracy = {:.3}", report.detection.balanced_accuracy);
    println!("MAE = {:.1} W, MR = {:.3}", report.energy.mae, report.energy.matching_ratio);
    println!(
        "\nCamAL was trained with {} labels total — the strongly supervised
equivalent would need {} labels for the same training data.",
        train_houses.len(),
        case.train.len() * case.train.window_len()
    );
}
