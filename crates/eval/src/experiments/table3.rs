//! Table III: CamAL versus CRNN-Weak (the other weakly supervised method)
//! with the full weak-label budget, reporting F1 / MAE / RMSE / MR per case
//! plus the cross-case average row.

use crate::output::{f1 as fmt1, f3, Table};
use crate::runner::{build_case_data, run_baseline, run_camal, Scale};
use nilm_models::baselines::BaselineKind;

/// Accumulates the paper's "Avg." row.
#[derive(Default)]
struct Averager {
    f1: f64,
    mae: f64,
    rmse: f64,
    mr: f64,
    n: usize,
}

impl Averager {
    fn push(&mut self, report: &camal::CaseReport) {
        self.f1 += report.localization.f1;
        self.mae += report.energy.mae;
        self.rmse += report.energy.rmse;
        self.mr += report.energy.matching_ratio;
        self.n += 1;
    }

    fn row(&self) -> [f64; 4] {
        let n = self.n.max(1) as f64;
        [self.f1 / n, self.mae / n, self.rmse / n, self.mr / n]
    }
}

/// Runs the weakly supervised comparison over `runs` random seeds
/// (the paper averages 5 runs).
pub fn run(scale: &Scale, runs: usize) -> Table {
    let cases = scale.cases();
    let mut table = Table::new(
        "Table III — weakly supervised comparison (CamAL vs CRNN Weak)",
        &[
            "case",
            "camal_f1",
            "camal_mae",
            "camal_rmse",
            "camal_mr",
            "crnn_f1",
            "crnn_mae",
            "crnn_rmse",
            "crnn_mr",
        ],
    );
    let mut avg_camal = Averager::default();
    let mut avg_crnn = Averager::default();
    for case in &cases {
        let mut c_f1 = 0.0;
        let mut c_mae = 0.0;
        let mut c_rmse = 0.0;
        let mut c_mr = 0.0;
        let mut w_f1 = 0.0;
        let mut w_mae = 0.0;
        let mut w_rmse = 0.0;
        let mut w_mr = 0.0;
        for run_i in 0..runs.max(1) {
            let mut s = scale.clone();
            s.seed = scale.seed.wrapping_add(run_i as u64 * 7919);
            let (_, data) = build_case_data(case, &s);
            let camal = run_camal(case, &data, &s, None);
            let crnn = run_baseline(BaselineKind::CrnnWeak, case, &data, &s);
            c_f1 += camal.report.localization.f1;
            c_mae += camal.report.energy.mae;
            c_rmse += camal.report.energy.rmse;
            c_mr += camal.report.energy.matching_ratio;
            w_f1 += crnn.report.localization.f1;
            w_mae += crnn.report.energy.mae;
            w_rmse += crnn.report.energy.rmse;
            w_mr += crnn.report.energy.matching_ratio;
        }
        let n = runs.max(1) as f64;
        let camal_rep = camal::CaseReport {
            localization: nilm_metrics::ClassificationReport { f1: c_f1 / n, ..Default::default() },
            energy: nilm_metrics::EnergyReport {
                mae: c_mae / n,
                rmse: c_rmse / n,
                matching_ratio: c_mr / n,
            },
            detection: Default::default(),
        };
        let crnn_rep = camal::CaseReport {
            localization: nilm_metrics::ClassificationReport { f1: w_f1 / n, ..Default::default() },
            energy: nilm_metrics::EnergyReport {
                mae: w_mae / n,
                rmse: w_rmse / n,
                matching_ratio: w_mr / n,
            },
            detection: Default::default(),
        };
        avg_camal.push(&camal_rep);
        avg_crnn.push(&crnn_rep);
        table.push_row(vec![
            case.label(),
            f3(camal_rep.localization.f1),
            fmt1(camal_rep.energy.mae),
            fmt1(camal_rep.energy.rmse),
            f3(camal_rep.energy.matching_ratio),
            f3(crnn_rep.localization.f1),
            fmt1(crnn_rep.energy.mae),
            fmt1(crnn_rep.energy.rmse),
            f3(crnn_rep.energy.matching_ratio),
        ]);
    }
    let a = avg_camal.row();
    let b = avg_crnn.row();
    table.push_row(vec![
        "Avg.".to_string(),
        f3(a[0]),
        fmt1(a[1]),
        fmt1(a[2]),
        f3(a[3]),
        f3(b[0]),
        fmt1(b[1]),
        fmt1(b[2]),
        f3(b[3]),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_has_case_rows_plus_average() {
        let mut scale = Scale::smoke();
        scale.epochs = 2;
        scale.kernels = vec![5];
        scale.n_ensemble = 1;
        let table = run(&scale, 1);
        // 4 smoke cases + the Avg. row.
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.rows.last().unwrap()[0], "Avg.");
        // All numeric cells parse.
        for row in &table.rows {
            for cell in &row[1..] {
                cell.parse::<f64>().unwrap();
            }
        }
    }
}
