//! Fig. 10 (RQ5): training strongly supervised baselines on CamAL soft
//! labels. CamAL is trained on possession labels (the EDF Weak regime), its
//! per-timestep outputs become soft labels for the submetered training
//! houses, and each baseline is trained on a mix of `k` strong-labeled
//! houses plus soft labels for the rest — versus strong labels only.

use crate::experiments::fig8::possession_case_data;
use crate::output::{f3, Table};
use crate::runner::{build_case_data, case_avg_power, evaluate_frame_model, Case, Scale};
use nilm_data::appliance::ApplianceKind;
use nilm_data::templates::DatasetId;
use nilm_data::windows::WindowSet;
use nilm_models::baselines::BaselineKind;
use nilm_models::train_soft;

/// Per-house partition of training windows.
fn houses_of(set: &WindowSet) -> Vec<usize> {
    let mut houses: Vec<usize> = set.windows.iter().map(|w| w.house_id).collect();
    houses.sort_unstable();
    houses.dedup();
    houses
}

/// Runs the soft-label augmentation study.
pub fn run(scale: &Scale) -> Table {
    let case = Case { dataset: DatasetId::EdfEv, appliance: ApplianceKind::ElectricVehicle };
    let survey_id = if scale.name == "smoke" { DatasetId::EdfEv } else { DatasetId::EdfWeak };

    // CamAL trained with possession labels (or per-subsequence weak labels
    // in the smoke preset, where the survey dataset is skipped for speed).
    let (_, strong_data) = build_case_data(&case, scale);
    let camal = if survey_id == DatasetId::EdfEv {
        camal::CamalModel::train(
            &scale.camal_config(),
            &strong_data.train,
            &strong_data.val,
            scale.threads,
        )
    } else {
        let poss = possession_case_data(&case, survey_id, scale);
        camal::CamalModel::train(&scale.camal_config(), &poss.train, &poss.val, scale.threads)
    };

    // Soft labels for every strong training window.
    let soft = camal.soft_labels(&strong_data.train, 16);
    let houses = houses_of(&strong_data.train);
    let strong_counts: Vec<usize> = match scale.name {
        "smoke" => vec![0, houses.len() / 2],
        _ => vec![0, houses.len() / 4, houses.len() / 2, houses.len()],
    };
    let kinds: &[BaselineKind] = if scale.name == "smoke" {
        &[BaselineKind::TpNilm]
    } else {
        &[
            BaselineKind::TpNilm,
            BaselineKind::BiGru,
            BaselineKind::CrnnStrong,
            BaselineKind::UnetNilm,
            BaselineKind::TransNilm,
        ]
    };

    let mut table = Table::new(
        "Fig. 10 — baselines trained on CamAL soft labels (EDF EV)",
        &["method", "strong_houses", "soft_houses", "regime", "f1"],
    );
    let avg_power = case_avg_power(&case);
    for &k in &strong_counts {
        let strong_houses: std::collections::BTreeSet<usize> =
            houses.iter().take(k).copied().collect();
        // Targets: ground truth for strong houses, CamAL soft labels else.
        let mixed_targets: Vec<Vec<f32>> = strong_data
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
        // Strong-only subset for the comparison line.
        let strong_only_idx: Vec<usize> = strong_data
            .train
            .windows
            .iter()
            .enumerate()
            .filter(|(_, w)| strong_houses.contains(&w.house_id))
            .map(|(i, _)| i)
            .collect();
        let strong_only = WindowSet {
            windows: strong_only_idx
                .iter()
                .map(|&i| strong_data.train.windows[i].clone())
                .collect(),
        };

        for &kind in kinds {
            let cfg = scale.train_config();
            // Strong + soft mix.
            let mut rng = nilm_tensor::init::rng(scale.seed ^ (k as u64) << 8);
            let mut model = kind.build(&mut rng, scale.width_div);
            let _ = train_soft(model.as_mut(), &strong_data.train, &mixed_targets, &cfg);
            let report = evaluate_frame_model(model.as_mut(), &strong_data.test, avg_power);
            table.push_row(vec![
                kind.name().to_string(),
                k.to_string(),
                (houses.len() - k).to_string(),
                "strong+soft".to_string(),
                f3(report.localization.f1),
            ]);
            // Strong labels only (skipped at k=0: nothing to train on).
            if !strong_only.is_empty() {
                let mut rng = nilm_tensor::init::rng(scale.seed ^ (k as u64) << 9);
                let mut model = kind.build(&mut rng, scale.width_div);
                let _ = nilm_models::train_strong(model.as_mut(), &strong_only, &cfg);
                let report = evaluate_frame_model(model.as_mut(), &strong_data.test, avg_power);
                table.push_row(vec![
                    kind.name().to_string(),
                    k.to_string(),
                    "0".to_string(),
                    "strong only".to_string(),
                    f3(report.localization.f1),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_label_study_produces_both_regimes() {
        let mut s = Scale::smoke();
        s.epochs = 1;
        s.kernels = vec![5];
        s.n_ensemble = 1;
        let table = run(&s);
        let regimes: std::collections::BTreeSet<String> =
            table.rows.iter().map(|r| r[3].clone()).collect();
        assert!(regimes.contains("strong+soft"));
        // k=0 has no strong-only row; the half split adds one.
        assert!(regimes.contains("strong only"));
        for row in &table.rows {
            let f1: f64 = row[4].parse().unwrap();
            assert!((0.0..=1.0).contains(&f1));
        }
    }
}
