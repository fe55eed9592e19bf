//! Fig. 5 (and the Fig. 1 headline panel): localization F1 versus the
//! number of training labels, for CamAL, CRNN-Weak and the four strongly
//! supervised baselines. Weak methods spend 1 label per window; strong
//! methods spend `window_len` labels per window.

use crate::output::{f3, Table};
use crate::runner::{build_case_data, run_baseline, run_camal, Case, Scale};
use nilm_data::pipeline::CaseData;
use nilm_models::baselines::BaselineKind;
use nilm_models::co::CoDisaggregator;
use rand::SeedableRng;

/// Window budgets swept (log-ish spacing), capped by the available windows.
fn budgets(scale: &Scale, available: usize) -> Vec<usize> {
    let raw: &[usize] = match scale.name {
        "smoke" => &[8, 32],
        "quick" => &[8, 24, 64, 160],
        _ => &[8, 24, 64, 160, 400, 1000],
    };
    let mut out: Vec<usize> = raw.iter().copied().filter(|&b| b < available).collect();
    out.push(available);
    out.dedup();
    out
}

/// Subsamples the training windows to a budget.
fn clamp_train(data: &CaseData, budget: usize, seed: u64) -> CaseData {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    CaseData {
        train: data.train.subsample(budget, &mut rng),
        val: data.val.clone(),
        test: data.test.clone(),
    }
}

/// Runs the label sweep. `only` filters cases by `dataset:appliance` label.
pub fn run(scale: &Scale, only: Option<&str>) -> Table {
    let cases: Vec<Case> =
        scale.cases().into_iter().filter(|c| only.is_none_or(|o| c.label() == o)).collect();
    assert!(!cases.is_empty(), "no case matches filter {only:?}");

    let mut table = Table::new(
        "Fig. 5 — localization F1 vs number of training labels",
        &["case", "method", "windows", "labels", "f1", "train_s"],
    );
    for case in &cases {
        let (_, data) = build_case_data(case, scale);
        // Zero-label reference: Hart's Combinatorial Optimization, evaluated
        // once per case (it does not train).
        let co = CoDisaggregator::single(case.appliance, crate::runner::case_avg_power(case));
        let status: Vec<Vec<u8>> =
            data.test.windows.iter().map(|w| co.localize(&w.aggregate_w, case.appliance)).collect();
        let detected: Vec<bool> = status.iter().map(|s| s.iter().any(|&b| b == 1)).collect();
        let co_report = camal::report_from_status(
            &data.test,
            &status,
            &detected,
            crate::runner::case_avg_power(case),
        );
        table.push_row(vec![
            case.label(),
            "CO (unsupervised)".to_string(),
            "0".to_string(),
            "0".to_string(),
            f3(co_report.localization.f1),
            "0.000".to_string(),
        ]);
        for &budget in &budgets(scale, data.train.len()) {
            let sub = clamp_train(&data, budget, scale.seed ^ budget as u64);
            if sub.train.positives() == 0 || sub.train.positives() == sub.train.len() {
                continue; // single-class budget: no training signal
            }
            let mut runs = vec![run_camal(case, &sub, scale, None)];
            for &kind in BaselineKind::all() {
                runs.push(run_baseline(kind, case, &sub, scale));
            }
            for run in runs {
                table.push_row(vec![
                    case.label(),
                    run.method.clone(),
                    sub.train.len().to_string(),
                    run.labels_used.to_string(),
                    f3(run.report.localization.f1),
                    f3(run.train_secs),
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
    fn budgets_are_increasing_and_capped() {
        let scale = Scale::smoke();
        let b = budgets(&scale, 20);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.last().unwrap(), 20);
    }

    #[test]
    fn smoke_sweep_produces_rows_for_every_method() {
        let mut scale = Scale::smoke();
        scale.epochs = 1;
        scale.kernels = vec![5];
        scale.n_ensemble = 1;
        let table = run(&scale, Some("refit:kettle"));
        assert!(!table.rows.is_empty());
        let methods: std::collections::BTreeSet<String> =
            table.rows.iter().map(|r| r[1].clone()).collect();
        assert!(methods.contains("CamAL"));
        assert!(methods.contains("CRNN Weak"));
        assert!(methods.contains("TPNILM"));
        // Weak methods must report far fewer labels than strong ones at the
        // same window budget.
        for w in table.rows.windows(7) {
            let camal_labels: usize = w[0][3].parse().unwrap();
            let strong_labels: usize =
                w.iter().find(|r| r[1] == "Unet-NILM").map(|r| r[3].parse().unwrap()).unwrap_or(0);
            if w[0][1] == "CamAL" && strong_labels > 0 && w[0][2] == w[6][2] {
                assert!(strong_labels >= camal_labels * 16);
            }
        }
    }
}
