//! The one reproduction entry point: runs the paper's figure/table experiments
//! at the chosen scale and saves each table as `<target>.csv` under `--out`
//! (default `results/`).
//!
//! ```text
//! run_all [--smoke|--quick|--full] [--out DIR] [--only CASE] [--runs N] [TARGET...]
//! ```
//!
//! Each target is one output table, named by its CSV stem (`table3_weak`,
//! `fig7a_train_time`, ...; REPRODUCING.md lists them). `--only CASE`
//! restricts Fig. 5 to one `dataset:appliance` case of the chosen scale.
//! `--runs N` sets how many runs Tables III and IV average over; the
//! default is 1, or the paper's 5 (Table III) and 10 (Table IV) at
//! `--full`.
//!
//! With no target, every table is produced and then the serving demo
//! (`camal_gateway demo`) runs, so the "run everything" entry point also
//! gates the persistence / streaming / fleet / network-gateway paths. The
//! demo always runs at smoke scale: it is a correctness gate (bit-identical
//! reload, stream-vs-batch, fleet-vs-serve and gateway-vs-serve
//! equivalence, micro-batching > sequential), not a figure, so its runtime
//! stays bounded regardless of the experiment scale.
//!
//! A bad argument exits with status 2; a table that cannot be saved stops
//! the run with status 1.

use nilm_eval::experiments::{
    extensions, fig10, fig5, fig6, fig7, fig8, fig9, table2, table3, table4,
};
use nilm_eval::output::Table;
use nilm_eval::runner::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// Produces one output table.
type Run = fn(&Plan) -> Table;

/// Every target in run order, named by the CSV stem it writes.
const TARGETS: &[(&str, Run)] = &[
    ("table2_params", |_| table2::run(0)),
    ("fig9a_costs", |_| fig9::run_costs()),
    ("fig9b_storage", |_| fig9::run_storage()),
    ("table3_weak", |p| table3::run(&p.scale, p.table3_runs)),
    ("fig5_label_sweep", |p| fig5::run(&p.scale, p.only.as_deref())),
    ("fig6a_window_length", |p| fig6::run_window_length(&p.scale)),
    ("fig6b_det_vs_loc", |p| fig6::run_detection_vs_localization(&p.scale)),
    ("fig6c_n_resnets", |p| fig6::run_ensemble_size(&p.scale)),
    ("table4_ablation", |p| table4::run(&p.scale, p.table4_runs)),
    ("fig7a_train_time", |p| fig7::run_training_time(&p.scale)),
    ("fig7b_epoch_scaling", |p| fig7::run_epoch_scaling(&p.scale)),
    ("fig7c_throughput", |p| fig7::run_throughput(&p.scale)),
    ("fig8_possession", |p| fig8::run(&p.scale)),
    ("fig10_soft_labels", |p| fig10::run(&p.scale)),
    ("ext_backbone", |p| extensions::run_backbone(&p.scale)),
    ("ext_postprocess", |p| extensions::run_postprocess(&p.scale)),
];

/// What one invocation runs, resolved from the command line.
struct Plan {
    scale: Scale,
    out: PathBuf,
    only: Option<String>,
    table3_runs: usize,
    table4_runs: usize,
    /// The selected targets in command-line order, or all of them.
    targets: Vec<(&'static str, Run)>,
    /// True when no target was named: run the serving demo afterwards.
    demo: bool,
}

fn parse(args: &[String]) -> Result<Plan, String> {
    let scale = Scale::from_args(args);
    let (mut only, mut runs, mut targets) = (None, None, Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--smoke" | "--quick" | "--full" => {}
            // Checked here, read by `results_dir` (as the serving demo reads it).
            "--out" => {
                value()?;
            }
            "--only" => only = Some(value()?),
            "--runs" => {
                let v = value()?;
                let n = v.parse().ok().filter(|&n: &usize| n > 0);
                runs = Some(n.ok_or(format!("--runs must be a positive integer, not {v:?}"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            name => match TARGETS.iter().find(|(n, _)| *n == name) {
                Some(&target) => targets.push(target),
                None => {
                    let valid: Vec<&str> = TARGETS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown target {name:?}; valid targets: {}",
                        valid.join(", ")
                    ));
                }
            },
        }
    }
    if let Some(only) = &only {
        let labels: Vec<String> = scale.cases().iter().map(|c| c.label()).collect();
        if !labels.contains(only) {
            return Err(format!(
                "--only {only:?} is not a {} case; valid cases: {}",
                scale.name,
                labels.join(", ")
            ));
        }
    }
    let full = scale.name == "full";
    let demo = targets.is_empty();
    if demo {
        targets = TARGETS.to_vec();
    }
    Ok(Plan {
        table3_runs: runs.unwrap_or(if full { 5 } else { 1 }),
        table4_runs: runs.unwrap_or(if full { 10 } else { 1 }),
        scale,
        out: nilm_eval::results_dir(args),
        only,
        targets,
        demo,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("run_all: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "CamAL reproduction (scale: {}, Table III runs: {}, Table IV runs: {})\n",
        plan.scale.name, plan.table3_runs, plan.table4_runs
    );
    for (name, run) in &plan.targets {
        if let Err(e) = nilm_eval::emit(&run(&plan), &plan.out, name) {
            eprintln!("run_all: could not save {name}.csv under {}: {e}", plan.out.display());
            return ExitCode::FAILURE;
        }
    }
    if plan.demo {
        println!("\nServing demo (smoke scale): camal_gateway demo ...");
        nilm_eval::serving::demo(&Scale::smoke(), &args);
        println!("\nAll experiments complete.");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(args: &[&str]) -> Result<Plan, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn names(plan: &Plan) -> Vec<&str> {
        plan.targets.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn full_scale_averages_the_papers_run_counts() {
        let p = plan(&["--full"]).unwrap();
        assert_eq!((p.table3_runs, p.table4_runs), (5, 10));
        for args in [&["--smoke"][..], &["--quick"], &[]] {
            let p = plan(args).unwrap();
            assert_eq!((p.table3_runs, p.table4_runs), (1, 1), "{args:?}");
        }
    }

    #[test]
    fn runs_overrides_both_tables() {
        let p = plan(&["--full", "--runs", "3", "table3_weak"]).unwrap();
        assert_eq!((p.table3_runs, p.table4_runs), (3, 3));
        assert_eq!(names(&p), ["table3_weak"]);
    }

    #[test]
    fn no_target_runs_every_table_then_the_demo() {
        let p = plan(&["--smoke", "--out", "/tmp/x"]).unwrap();
        assert!(p.demo);
        assert_eq!(p.targets.len(), TARGETS.len());
        assert_eq!(p.out, PathBuf::from("/tmp/x"));
        let p = plan(&["--only", "refit:kettle", "fig9b_storage", "fig5_label_sweep"]).unwrap();
        assert!(!p.demo);
        assert_eq!(p.only.as_deref(), Some("refit:kettle"));
        assert_eq!(names(&p), ["fig9b_storage", "fig5_label_sweep"]);
    }

    #[test]
    fn target_names_are_unique() {
        let mut names: Vec<&str> = TARGETS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TARGETS.len());
    }

    #[test]
    fn unknown_target_is_an_error_listing_the_valid_names() {
        let err = plan(&["--smoke", "fig7"]).err().unwrap();
        assert!(err.contains("\"fig7\""), "{err}");
        for (name, _) in TARGETS {
            assert!(err.contains(name), "{err} does not list {name}");
        }
    }

    #[test]
    fn only_must_name_a_case_of_the_chosen_scale() {
        let err = plan(&["--smoke", "--only", "nope:nope", "fig5_label_sweep"]).err().unwrap();
        assert!(err.contains("\"nope:nope\""), "{err}");
        for case in Scale::smoke().cases() {
            assert!(err.contains(&case.label()), "{err} does not list {}", case.label());
        }
        // `ukdale:kettle` is a Table III case, but not one of smoke's.
        assert!(plan(&["--smoke", "--only", "ukdale:kettle"]).is_err());
        assert!(plan(&["--quick", "--only", "ukdale:kettle"]).is_ok());
        assert!(plan(&["--smoke", "--only", "ukdale:dishwasher"]).is_ok());
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for args in
            [&["--runs", "abc"][..], &["--runs", "0"], &["--runs"], &["--out"], &["--bogus"]]
        {
            assert!(plan(args).is_err(), "{args:?} was accepted");
        }
        assert!(plan(&["--runs", "abc"]).err().unwrap().contains("\"abc\""));
    }
}
