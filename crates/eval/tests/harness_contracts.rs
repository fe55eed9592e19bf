//! Contract tests for the experiment harness: CSVs parse back, scales are
//! consistent, the cost model matches the paper's quoted ratios, and the
//! `run_all` binary fails loudly on bad targets and unsaved tables.

use nilm_data::appliance::ApplianceKind;
use nilm_data::templates::{template, DatasetId};
use nilm_eval::cost::*;
use nilm_eval::output::Table;
use nilm_eval::runner::{all_cases, case_avg_power, Case, Scale};

#[test]
fn every_case_has_a_table1_average_power() {
    for case in all_cases() {
        let p = case_avg_power(&case);
        let expected = template(case.dataset).case(case.appliance).unwrap().avg_power_w;
        assert_eq!(p, expected, "{}", case.label());
    }
}

#[test]
fn case_labels_are_unique() {
    let labels: std::collections::BTreeSet<String> = all_cases().iter().map(Case::label).collect();
    assert_eq!(labels.len(), all_cases().len());
}

#[test]
fn scale_presets_define_distinct_regimes() {
    for (a, b) in [(Scale::smoke(), Scale::quick()), (Scale::quick(), Scale::full())] {
        assert!(a.window <= b.window);
        assert!(a.epochs <= b.epochs);
        assert!(a.kernels.len() <= b.kernels.len());
    }
    // The full preset is the paper shape.
    let f = Scale::full();
    assert_eq!(f.window, 510);
    assert_eq!(f.n_ensemble, 5);
}

#[test]
fn dataset_overrides_shrink_but_keep_minimums() {
    let s = Scale::smoke();
    for id in [DatasetId::UkDale, DatasetId::Refit, DatasetId::Ideal, DatasetId::EdfEv] {
        let t = template(id);
        let o = s.dataset_override(id);
        let sub = o.submetered_houses.unwrap();
        assert!(sub <= t.submetered_houses);
        assert!(sub >= 4.min(t.submetered_houses), "{id:?} shrunk below minimum");
    }
    // UKDALE keeps all 5 houses (pinned split).
    assert_eq!(Scale::smoke().dataset_override(DatasetId::UkDale).submetered_houses, Some(5));
}

#[test]
fn csv_roundtrip_preserves_cells() {
    let mut t = Table::new("roundtrip", &["a", "b"]);
    t.push_row(vec!["x,y".into(), "1.25".into()]);
    let csv = t.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "# roundtrip");
    assert_eq!(lines[1], "a,b");
    assert_eq!(lines[2], "\"x,y\",1.25");
}

#[test]
fn cost_model_reproduces_paper_ratios() {
    let c = LabelingCosts::default();
    // Paper: strong labeling costs > 2 orders of magnitude more.
    assert!(strong_cost_usd(&c, 1.0) / weak_cost_usd(&c) >= 100.0);
    assert!(strong_gco2(&c) / weak_gco2(&c) >= 100.0);
    // Storage ratio ~6x at 1M households / 5 appliances / 1-min sampling.
    let s = StorageModel::default();
    let ratio = strong_storage_tb_per_year(&s, 1_000_000, 5, 60)
        / weak_storage_tb_per_year(&s, 1_000_000, 5, 60);
    assert!((5.5..6.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn storage_scales_linearly_in_households() {
    let s = StorageModel::default();
    let one = strong_storage_tb_per_year(&s, 1_000_000, 5, 60);
    let two = strong_storage_tb_per_year(&s, 2_000_000, 5, 60);
    assert!((two / one - 2.0).abs() < 1e-9);
}

#[test]
fn coarser_sampling_reduces_storage() {
    let s = StorageModel::default();
    let fine = strong_storage_tb_per_year(&s, 1_000_000, 5, 60);
    let coarse = strong_storage_tb_per_year(&s, 1_000_000, 5, 1800);
    assert!(coarse < fine / 20.0);
}

#[test]
fn smoke_cases_cover_every_dataset_once() {
    let cases = nilm_eval::runner::smoke_cases();
    let datasets: std::collections::BTreeSet<&str> =
        cases.iter().map(|c| c.dataset.name()).collect();
    assert_eq!(datasets.len(), cases.len());
    assert!(cases.iter().any(|c| c.appliance == ApplianceKind::ElectricVehicle));
}

/// Runs the `run_all` binary cargo built for this test.
fn run_all(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("run_all starts")
}

#[test]
fn run_all_writes_only_the_selected_targets() {
    let dir = std::env::temp_dir().join(format!("run_all_targets_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_all(&["--smoke", "--out", dir.to_str().unwrap(), "fig9a_costs", "fig9b_storage"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(written, ["fig9a_costs.csv", "fig9b_storage.csv"]);
}

#[test]
fn run_all_fails_when_a_table_cannot_be_saved() {
    // `--out` names an existing regular file, so no CSV can be written.
    let file = std::env::temp_dir().join(format!("run_all_out_file_{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let out = run_all(&["--smoke", "--out", file.to_str().unwrap(), "fig9a_costs"]);
    std::fs::remove_file(&file).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("could not save fig9a_costs.csv"), "{stderr}");
}

#[test]
fn run_all_rejects_an_unknown_target_before_running_anything() {
    let out = run_all(&["--smoke", "fig9a_costs", "fig7"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("fig7a_train_time"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn run_all_rejects_an_only_case_outside_the_scale_before_running_anything() {
    let dir = std::env::temp_dir().join(format!("run_all_only_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `ukdale:kettle` is a Table III case but not a smoke one.
    for only in ["nope:nope", "ukdale:kettle"] {
        let out = run_all(&[
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
            "--only",
            only,
            "table2_params",
            "fig5_label_sweep",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{only}: {stderr}");
        assert!(stderr.contains(only) && stderr.contains("refit:kettle"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{only}: ran before rejecting: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!dir.join("table2_params.csv").exists(), "{only}: wrote a table");
    }
}
