//! Table IV: ablation of CamAL's design on the REFIT cases — full CamAL,
//! without the attention-sigmoid module, and without kernel diversity
//! (every member at k_p = 7).

use crate::output::{f1 as fmt1, f3, Table};
use crate::runner::{all_cases, build_case_data, case_avg_power, Case, Scale};
use camal::{CamalModel, CaseReport};
use nilm_data::appliance::ApplianceKind;
use nilm_data::templates::DatasetId;

#[derive(Default, Clone, Copy)]
struct Acc {
    f1: f64,
    pr: f64,
    rc: f64,
    mae: f64,
    mr: f64,
    n: usize,
}

impl Acc {
    fn push(&mut self, r: &CaseReport) {
        self.f1 += r.localization.f1;
        self.pr += r.localization.precision;
        self.rc += r.localization.recall;
        self.mae += r.energy.mae;
        self.mr += r.energy.matching_ratio;
        self.n += 1;
    }

    fn mean(&self) -> [f64; 5] {
        let n = self.n.max(1) as f64;
        [self.f1 / n, self.pr / n, self.rc / n, self.mae / n, self.mr / n]
    }
}

/// Runs the Table IV ablation averaged over `runs` seeds (paper: 10).
pub fn run(scale: &Scale, runs: usize) -> Table {
    let cases: Vec<Case> = if scale.name == "smoke" {
        vec![Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle }]
    } else {
        all_cases().into_iter().filter(|c| c.dataset == DatasetId::Refit).collect()
    };

    let mut full = Acc::default();
    let mut no_attention = Acc::default();
    let mut fixed_kernel = Acc::default();

    for case in &cases {
        for run_i in 0..runs.max(1) {
            let mut s = scale.clone();
            s.seed = scale.seed.wrapping_add(run_i as u64 * 104729);
            let (_, data) = build_case_data(case, &s);
            let avg_power = case_avg_power(case);

            // Full CamAL. The "w/o attention" variant reuses the same
            // trained ensemble with the attention module switched off —
            // isolating the module's effect exactly as Table IV intends.
            let cfg = s.camal_config();
            let model = CamalModel::train(&cfg, &data.train, &data.val, s.threads);
            let with_attention = model;
            full.push(&with_attention.evaluate(&data.test, avg_power, 16));
            let mut cfg_no_attn = cfg.clone().without_attention();
            cfg_no_attn.n_ensemble = with_attention.ensemble_size();
            let without = CamalModel::from_members(cfg_no_attn, with_attention.into_members());
            no_attention.push(&without.evaluate(&data.test, avg_power, 16));

            // w/o kernel diversity: retrain with k_p = 7 everywhere, same
            // candidate budget.
            let mut cfg_fixed = cfg.clone().fixed_kernel();
            cfg_fixed.trials = (cfg.kernels.len() * cfg.trials).max(1);
            let fixed = CamalModel::train(&cfg_fixed, &data.train, &data.val, s.threads);
            fixed_kernel.push(&fixed.evaluate(&data.test, avg_power, 16));
        }
    }

    let mut table = Table::new(
        "Table IV — CamAL design ablation (REFIT cases)",
        &["metric", "CamAL", "w/o Attention module", "w/o different kernel kp"],
    );
    let f = full.mean();
    let a = no_attention.mean();
    let k = fixed_kernel.mean();
    let pct = |base: f64, v: f64| -> String {
        if base.abs() < 1e-12 {
            "n/a".to_string()
        } else {
            format!("{:+.1}%", (v - base) / base * 100.0)
        }
    };
    let metric_rows = [
        ("F1 ↑", f[0], a[0], k[0], true),
        ("Pr ↑", f[1], a[1], k[1], true),
        ("Rc ↑", f[2], a[2], k[2], true),
        ("MAE ↓", f[3], a[3], k[3], false),
        ("MR ↑", f[4], a[4], k[4], true),
    ];
    for (name, base, abl_a, abl_k, _higher_better) in metric_rows {
        let fmt = |v: f64| if name == "MAE ↓" { fmt1(v) } else { f3(v) };
        table.push_row(vec![
            name.to_string(),
            fmt(base),
            format!("{} ({})", fmt(abl_a), pct(base, abl_a)),
            format!("{} ({})", fmt(abl_k), pct(base, abl_k)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_table_has_five_metric_rows() {
        let mut s = Scale::smoke();
        s.epochs = 1;
        s.kernels = vec![5, 9];
        s.n_ensemble = 2;
        let table = run(&s, 1);
        assert_eq!(table.rows.len(), 5);
        let metrics: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(metrics, vec!["F1 ↑", "Pr ↑", "Rc ↑", "MAE ↓", "MR ↑"]);
    }
}
