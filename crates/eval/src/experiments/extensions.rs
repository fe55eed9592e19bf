//! Extension experiments beyond the paper's tables/figures:
//!
//! 1. **Backbone ablation** — the paper (§IV-A) argues ResNets are a better
//!    backbone than deeper general-purpose classifiers such as
//!    InceptionTime; we measure that claim directly.
//! 2. **Post-processing ablation** — the conclusion calls for "more advanced
//!    post-processing"; we measure the duration-prior filters of
//!    `camal::postprocess`.

use crate::output::{f3, Table};
use crate::runner::{build_case_data, case_avg_power, Case, Scale};
use camal::{report_from_status, CamalModel};
use nilm_data::appliance::ApplianceKind;
use nilm_data::templates::DatasetId;
use nilm_models::Backbone;

fn cases(scale: &Scale) -> Vec<Case> {
    if scale.name == "smoke" {
        vec![Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle }]
    } else {
        vec![
            Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle },
            Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Dishwasher },
            Case { dataset: DatasetId::UkDale, appliance: ApplianceKind::Dishwasher },
        ]
    }
}

/// Backbone ablation: CamAL with ResNet vs InceptionTime members.
pub fn run_backbone(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Extension — detector backbone ablation (ResNet vs InceptionTime)",
        &["case", "backbone", "f1", "balanced_accuracy", "params", "train_s"],
    );
    for case in &cases(scale) {
        let (_, data) = build_case_data(case, scale);
        for backbone in [Backbone::ResNet, Backbone::InceptionTime] {
            let mut cfg = scale.camal_config();
            cfg.backbone = backbone;
            let model = CamalModel::train(&cfg, &data.train, &data.val, scale.threads);
            let report = model.evaluate(&data.test, case_avg_power(case), 16);
            table.push_row(vec![
                case.label(),
                format!("{backbone:?}"),
                f3(report.localization.f1),
                f3(report.detection.balanced_accuracy),
                model.num_params().to_string(),
                f3(model.train_stats.total_secs),
            ]);
        }
    }
    table
}

/// Post-processing ablation: raw CamAL status vs duration-prior filtered.
pub fn run_postprocess(scale: &Scale) -> Table {
    let mut table = Table::new(
        "Extension — duration-prior post-processing ablation",
        &["case", "variant", "f1", "precision", "recall", "event_f1"],
    );
    for case in &cases(scale) {
        let (ds, data) = build_case_data(case, scale);
        let step_s = ds.template.step_s;
        let model = CamalModel::train(&scale.camal_config(), &data.train, &data.val, scale.threads);
        let loc = model.localize_set(&data.test, 16);
        let avg_power = case_avg_power(case);

        // Raw status.
        let raw_report = report_from_status(&data.test, &loc.status, &loc.detected, avg_power);
        let raw_event = mean_event_f1(&loc.status, &data.test);
        table.push_row(vec![
            case.label(),
            "raw".to_string(),
            f3(raw_report.localization.f1),
            f3(raw_report.localization.precision),
            f3(raw_report.localization.recall),
            f3(raw_event),
        ]);

        // Filtered status.
        let mut filtered = loc.status.clone();
        for status in &mut filtered {
            camal::postprocess::apply_duration_prior(status, case.appliance, step_s);
        }
        let f_report = report_from_status(&data.test, &filtered, &loc.detected, avg_power);
        let f_event = mean_event_f1(&filtered, &data.test);
        table.push_row(vec![
            case.label(),
            "duration-prior".to_string(),
            f3(f_report.localization.f1),
            f3(f_report.localization.precision),
            f3(f_report.localization.recall),
            f3(f_event),
        ]);
    }
    table
}

/// Mean event-level F1 (Jaccard ≥ 0.3) across windows with ground truth.
fn mean_event_f1(status: &[Vec<u8>], set: &nilm_data::windows::WindowSet) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (s, w) in status.iter().zip(&set.windows) {
        if w.status.is_empty() {
            continue;
        }
        let (_, _, f1) = nilm_metrics::event_f1(s, &w.status, 0.3);
        total += f1;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        let mut s = Scale::smoke();
        s.epochs = 1;
        s.kernels = vec![5];
        s.n_ensemble = 1;
        s
    }

    #[test]
    fn backbone_ablation_covers_both_architectures() {
        let t = run_backbone(&tiny());
        let backbones: std::collections::BTreeSet<String> =
            t.rows.iter().map(|r| r[1].clone()).collect();
        assert!(backbones.contains("ResNet"));
        assert!(backbones.contains("InceptionTime"));
    }

    #[test]
    fn postprocess_ablation_has_two_variants_per_case() {
        let t = run_postprocess(&tiny());
        assert_eq!(t.rows.len() % 2, 0);
        assert_eq!(t.rows[0][1], "raw");
        assert_eq!(t.rows[1][1], "duration-prior");
    }
}
