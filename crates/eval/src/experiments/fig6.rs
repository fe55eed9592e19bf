//! Fig. 6: (a) training-window-length ablation, (b) detection versus
//! localization correlation, (c) ensemble-size ablation.

use crate::output::{f3, Table};
use crate::runner::{all_cases, build_case_data, case_avg_power, run_camal, Case, Scale};
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::pipeline::{prepare_case, CaseData, SplitConfig};
use nilm_data::templates::DatasetId;

/// Fig. 6(a): train CamAL with different window lengths, evaluate on the
/// standard test windows. Paper sweeps {360, 720, 1440, 2880} samples (6h to
/// 2 days at 1-minute sampling) on UKDALE and REFIT.
pub fn run_window_length(scale: &Scale) -> Table {
    let lengths: Vec<usize> = match scale.name {
        "smoke" => vec![64, 128],
        "quick" => vec![96, 192, 384],
        _ => vec![360, 720, 1440, 2880],
    };
    let cases: Vec<Case> = [DatasetId::UkDale, DatasetId::Refit]
        .iter()
        .flat_map(|&d| scale.cases().into_iter().filter(move |c| c.dataset == d))
        .collect();
    let mut table = Table::new(
        "Fig. 6(a) — impact of training window length on localization F1",
        &["case", "train_window", "train_windows_available", "f1"],
    );
    for case in &cases {
        let (ds, test_data) = build_case_data(case, scale);
        for &w in &lengths {
            // Re-slice the training houses at window length w; the test set
            // keeps the standard window (as in the paper).
            let train_data = prepare_case(&ds, case.appliance, w, &SplitConfig::default());
            if train_data.train.positives() == 0
                || train_data.train.positives() == train_data.train.len()
            {
                table.push_row(vec![
                    case.label(),
                    w.to_string(),
                    train_data.train.len().to_string(),
                    "n/a (single-class)".to_string(),
                ]);
                continue;
            }
            let mixed = CaseData {
                train: train_data.train.clone(),
                val: train_data.val.clone(),
                test: test_data.test.clone(),
            };
            let run = run_camal(case, &mixed, scale, None);
            table.push_row(vec![
                case.label(),
                w.to_string(),
                train_data.train.len().to_string(),
                f3(run.report.localization.f1),
            ]);
        }
    }
    table
}

/// Fig. 6(b): scatter of detection (balanced accuracy) against localization
/// (F1) across all cases.
pub fn run_detection_vs_localization(scale: &Scale) -> Table {
    let cases = scale.cases();
    let mut table = Table::new(
        "Fig. 6(b) — detection (balanced accuracy) vs localization (F1)",
        &["case", "balanced_accuracy", "f1"],
    );
    for case in &cases {
        let (_, data) = build_case_data(case, scale);
        let run = run_camal(case, &data, scale, None);
        table.push_row(vec![
            case.label(),
            f3(run.report.detection.balanced_accuracy),
            f3(run.report.localization.f1),
        ]);
    }
    table
}

/// Fig. 6(c): sweep the ensemble size n over a shared candidate pool
/// (REFIT cases in the paper). Trains `max(n)` candidates once per case and
/// evaluates each prefix.
pub fn run_ensemble_size(scale: &Scale) -> Table {
    let sizes: Vec<usize> = match scale.name {
        "smoke" => vec![1, 2],
        "quick" => vec![1, 3, 5],
        _ => vec![1, 3, 5, 7, 9, 15],
    };
    let max_n = *sizes.iter().max().unwrap();
    let cases: Vec<Case> = if scale.name == "smoke" {
        vec![Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle }]
    } else {
        all_cases().into_iter().filter(|c| c.dataset == DatasetId::Refit).collect()
    };
    let mut table = Table::new(
        "Fig. 6(c) — localization/detection vs number of ResNets",
        &["case", "n_resnets", "f1", "balanced_accuracy"],
    );
    for case in &cases {
        let (_, data) = build_case_data(case, scale);
        // One big candidate pool, reused across ensemble sizes.
        let mut cfg = scale.camal_config();
        cfg.n_ensemble = max_n;
        // Guarantee enough candidates.
        while cfg.kernels.len() * cfg.trials < max_n {
            cfg.trials += 1;
        }
        let (mut pool, _) = camal::train_ensemble(&cfg, &data.train, &data.val, scale.threads);
        for &n in &sizes {
            // Pool is sorted by validation loss: the best n form the model.
            let n = n.min(pool.len());
            let head: Vec<camal::EnsembleMember> = pool.drain(..n).collect();
            let mut sub_cfg = cfg.clone();
            sub_cfg.n_ensemble = n;
            let model = CamalModel::from_members(sub_cfg, head);
            let report = model.evaluate(&data.test, case_avg_power(case), 16);
            table.push_row(vec![
                case.label(),
                n.to_string(),
                f3(report.localization.f1),
                f3(report.detection.balanced_accuracy),
            ]);
            // Return the borrowed members to the front of the pool.
            let mut head = model.into_members();
            head.append(&mut pool);
            pool = head;
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
        s
    }

    #[test]
    fn window_length_table_runs() {
        let table = run_window_length(&tiny_scale());
        assert!(!table.rows.is_empty());
        assert_eq!(table.headers.len(), 4);
    }

    #[test]
    fn det_vs_loc_covers_smoke_cases() {
        let table = run_detection_vs_localization(&tiny_scale());
        assert_eq!(table.rows.len(), crate::runner::smoke_cases().len());
        for row in &table.rows {
            let ba: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&ba));
        }
    }

    #[test]
    fn ensemble_size_sweep_has_one_row_per_size() {
        let mut s = tiny_scale();
        s.kernels = vec![5, 9];
        let table = run_ensemble_size(&s);
        let ns: Vec<usize> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert_eq!(ns, vec![1, 2]);
    }
}
