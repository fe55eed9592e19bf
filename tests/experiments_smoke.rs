//! Smoke-runs every experiment module so the reproduction suite cannot rot.
//! Each test uses the tiniest possible scale; the full runs are the targets
//! of `nilm_eval`'s `run_all` binary.

use nilm_eval::experiments;
use nilm_eval::runner::Scale;

fn tiny() -> Scale {
    let mut s = Scale::smoke();
    s.epochs = 1;
    s.trials = 1;
    s.kernels = vec![5];
    s.n_ensemble = 1;
    s
}

#[test]
fn table2_reports_all_models() {
    let t = experiments::table2::run(0);
    assert_eq!(t.rows.len(), 6);
}

#[test]
fn fig9_costs_and_storage() {
    let costs = experiments::fig9::run_costs();
    assert_eq!(costs.rows.len(), 3);
    let storage = experiments::fig9::run_storage();
    assert_eq!(storage.rows.len(), 3);
}

#[test]
fn fig5_single_case_sweep() {
    let t = experiments::fig5::run(&tiny(), Some("refit:kettle"));
    assert!(!t.rows.is_empty());
    // CamAL rows use 1 label/window; a strong baseline at the same window
    // count uses window-length× more.
    let camal_row = t.rows.iter().find(|r| r[1] == "CamAL").unwrap();
    let strong_row = t.rows.iter().find(|r| r[1] == "TPNILM" && r[2] == camal_row[2]).unwrap();
    let camal_labels: usize = camal_row[3].parse().unwrap();
    let strong_labels: usize = strong_row[3].parse().unwrap();
    assert_eq!(strong_labels, camal_labels * tiny().window);
}

#[test]
fn table3_produces_average_row() {
    let t = experiments::table3::run(&tiny(), 1);
    assert_eq!(t.rows.last().unwrap()[0], "Avg.");
}

#[test]
fn fig6_all_parts_run() {
    let s = tiny();
    assert!(!experiments::fig6::run_window_length(&s).rows.is_empty());
    assert!(!experiments::fig6::run_detection_vs_localization(&s).rows.is_empty());
    let mut s2 = s.clone();
    s2.kernels = vec![5, 9];
    assert!(!experiments::fig6::run_ensemble_size(&s2).rows.is_empty());
}

#[test]
fn table4_ablation_runs() {
    let mut s = tiny();
    s.kernels = vec![5, 9];
    s.n_ensemble = 2;
    let t = experiments::table4::run(&s, 1);
    assert_eq!(t.rows.len(), 5);
}

#[test]
fn fig7_all_parts_run() {
    let s = tiny();
    assert!(!experiments::fig7::run_training_time(&s).rows.is_empty());
    assert!(!experiments::fig7::run_epoch_scaling(&s).rows.is_empty());
    assert!(!experiments::fig7::run_throughput(&s).rows.is_empty());
}

#[test]
fn fig8_possession_runs() {
    let t = experiments::fig8::run(&tiny());
    assert!(!t.rows.is_empty());
}

#[test]
fn fig10_soft_labels_runs() {
    let t = experiments::fig10::run(&tiny());
    assert!(!t.rows.is_empty());
}
