//! Shared experiment scaffolding: scale presets (smoke / quick / full),
//! dataset construction, the list of evaluation cases, and uniform
//! train-and-evaluate entry points for CamAL and every baseline.

use camal::{CamalConfig, CamalModel, CaseReport};
use nilm_data::appliance::ApplianceKind;
use nilm_data::pipeline::{prepare_case, CaseData, SplitConfig};
use nilm_data::templates::{generate_dataset, template, Dataset, DatasetId, ScaleOverride};
use nilm_data::windows::WindowSet;
use nilm_models::baselines::BaselineKind;
use nilm_models::{
    predict_proba_frames, proba_to_status, train_strong, train_weak_mil, TrainConfig, TrainStats,
};
use std::time::Instant;

/// Experiment scale preset. Experiments keep the paper's *shape* at every
/// scale; `full` approaches the paper's sizes, `smoke` finishes in seconds.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Preset name (smoke/quick/full).
    pub name: &'static str,
    /// Window length w (the paper uses 510).
    pub window: usize,
    /// Channel-width divisor applied to every model (1 = paper widths).
    pub width_div: usize,
    /// Training epochs.
    pub epochs: usize,
    /// CamAL trials per kernel (Algorithm 1).
    pub trials: usize,
    /// CamAL kernel grid.
    pub kernels: Vec<usize>,
    /// CamAL ensemble size n.
    pub n_ensemble: usize,
    /// Divisor on template house counts.
    pub houses_div: usize,
    /// Divisor on template days-per-house.
    pub days_div: usize,
    /// Worker threads for ensemble training.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// Seconds-scale preset used by tests and the smoke reproduction.
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            window: 128,
            width_div: 16,
            epochs: 3,
            trials: 1,
            kernels: vec![5, 9],
            n_ensemble: 2,
            houses_div: 4,
            days_div: 4,
            threads: 4,
            seed: 0xE0,
        }
    }

    /// Single-candidate, single-epoch preset (window 128): the geometry of
    /// the backend speed test (`tests/backend_speed.rs`).
    pub fn bench() -> Self {
        Scale {
            name: "bench",
            epochs: 1,
            trials: 1,
            kernels: vec![5],
            n_ensemble: 1,
            threads: 2,
            ..Scale::smoke()
        }
    }

    /// Minutes-scale preset: the default scale of `run_all`.
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            window: 256,
            width_div: 8,
            epochs: 6,
            trials: 2,
            kernels: vec![5, 9, 15],
            n_ensemble: 3,
            houses_div: 2,
            days_div: 2,
            threads: 8,
            seed: 0xE1,
        }
    }

    /// Paper-shaped preset (window 510, kernel grid {5,7,9,15,25}, n=5).
    pub fn full() -> Self {
        Scale {
            name: "full",
            window: 510,
            width_div: 4,
            epochs: 10,
            trials: 3,
            kernels: vec![5, 7, 9, 15, 25],
            n_ensemble: 5,
            houses_div: 1,
            days_div: 1,
            threads: 8,
            seed: 0xE2,
        }
    }

    /// The evaluation cases this scale runs: one per dataset at smoke
    /// scale, all of Table III's otherwise.
    pub fn cases(&self) -> Vec<Case> {
        if self.name == "smoke" {
            smoke_cases()
        } else {
            all_cases()
        }
    }

    /// Parses `--smoke` / `--quick` / `--full` from CLI args (default quick).
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--smoke") {
            Scale::smoke()
        } else if args.iter().any(|a| a == "--full") {
            Scale::full()
        } else {
            Scale::quick()
        }
    }

    /// The CamAL configuration induced by this scale.
    pub fn camal_config(&self) -> CamalConfig {
        CamalConfig {
            n_ensemble: self.n_ensemble,
            kernels: self.kernels.clone(),
            trials: self.trials,
            width_div: self.width_div,
            train: self.train_config(),
            seed: self.seed,
            ..CamalConfig::default()
        }
    }

    /// The heterogeneous variant of [`Scale::camal_config`]: the ResNet
    /// kernel grid plus one TransApp candidate sized to this scale's width
    /// divisor, so Algorithm 1 sweeps a mixed backbone zoo. The serving
    /// demos train their zoos with this. The ensemble is sized to the full
    /// candidate pool (one trial each) so the selected ensemble provably
    /// mixes both families — a zoo demo where the attention member always
    /// lost selection would never exercise heterogeneous serving.
    pub fn mixed_camal_config(&self) -> CamalConfig {
        let ta = nilm_models::TransAppConfig::scaled(self.width_div);
        let base = self.camal_config();
        let n_ensemble = base.kernels.len() + 1;
        CamalConfig {
            candidates: vec![nilm_models::BackboneSpec::TransApp {
                d_model: ta.d_model,
                heads: ta.heads,
                d_ff: ta.d_ff,
                layers: ta.layers,
                downsample: ta.downsample,
            }],
            n_ensemble,
            trials: 1,
            ..base
        }
    }

    /// The baseline training configuration induced by this scale.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig { epochs: self.epochs, batch_size: 16, lr: 1e-3, clip: 5.0, seed: self.seed }
    }

    /// The dataset override induced by this scale.
    pub fn dataset_override(&self, id: DatasetId) -> ScaleOverride {
        let t = template(id);
        // UKDALE keeps its 5 houses at every scale because the paper pins
        // the house-level split (1,3,4 train / 2 val / 5 test).
        let floor = if id == DatasetId::UkDale { 5 } else { 4 };
        let sub = if t.submetered_houses == 0 {
            0
        } else {
            (t.submetered_houses / self.houses_div).clamp(floor, t.submetered_houses)
        };
        ScaleOverride {
            submetered_houses: Some(sub),
            possession_only_houses: Some(t.possession_only_houses / self.houses_div),
            days_per_house: Some((t.days_per_house / self.days_div).max(2)),
        }
    }
}

/// One (dataset, appliance) evaluation case — the 11 cases of Table III.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// Source dataset.
    pub dataset: DatasetId,
    /// Target appliance.
    pub appliance: ApplianceKind,
}

impl Case {
    /// `dataset:appliance` label used in tables and `--only` filters.
    pub fn label(&self) -> String {
        format!("{}:{}", self.dataset.name(), self.appliance.name())
    }
}

/// The 11 labeled evaluation cases of the paper (Table III rows).
pub fn all_cases() -> Vec<Case> {
    use ApplianceKind::*;
    use DatasetId::*;
    vec![
        Case { dataset: Refit, appliance: Dishwasher },
        Case { dataset: Refit, appliance: Kettle },
        Case { dataset: Refit, appliance: Microwave },
        Case { dataset: Refit, appliance: WashingMachine },
        Case { dataset: UkDale, appliance: Dishwasher },
        Case { dataset: UkDale, appliance: Kettle },
        Case { dataset: UkDale, appliance: Microwave },
        Case { dataset: Ideal, appliance: Dishwasher },
        Case { dataset: Ideal, appliance: Shower },
        Case { dataset: Ideal, appliance: WashingMachine },
        Case { dataset: EdfEv, appliance: ElectricVehicle },
    ]
}

/// A small representative subset (one case per dataset) for smoke runs.
pub fn smoke_cases() -> Vec<Case> {
    use ApplianceKind::*;
    use DatasetId::*;
    vec![
        Case { dataset: Refit, appliance: Kettle },
        Case { dataset: UkDale, appliance: Dishwasher },
        Case { dataset: Ideal, appliance: Shower },
        Case { dataset: EdfEv, appliance: ElectricVehicle },
    ]
}

/// Generates the dataset for a case at the given scale.
pub fn build_dataset(id: DatasetId, scale: &Scale) -> Dataset {
    generate_dataset(&template(id), scale.dataset_override(id), scale.seed ^ id.name().len() as u64)
}

/// Prepares the train/val/test windows for a case.
pub fn build_case_data(case: &Case, scale: &Scale) -> (Dataset, CaseData) {
    let ds = build_dataset(case.dataset, scale);
    let cd = prepare_case(&ds, case.appliance, scale.window, &SplitConfig::default());
    (ds, cd)
}

/// Result of training and evaluating one method on one case.
#[derive(Clone, Debug)]
pub struct MethodRun {
    /// Method display name.
    pub method: String,
    /// Evaluation on the test windows.
    pub report: CaseReport,
    /// Number of labels the training consumed (weak: 1/window; strong:
    /// window length/window).
    pub labels_used: usize,
    /// Wall-clock training seconds.
    pub train_secs: f64,
    /// Mean seconds per epoch (baselines) or per-candidate total (CamAL).
    pub secs_per_epoch: f64,
}

/// Trains CamAL on a case and evaluates it on the test windows.
pub fn run_camal(
    case: &Case,
    data: &CaseData,
    scale: &Scale,
    cfg_override: Option<CamalConfig>,
) -> MethodRun {
    let cfg = cfg_override.unwrap_or_else(|| scale.camal_config());
    let avg_power = case_avg_power(case);
    let model = CamalModel::train(&cfg, &data.train, &data.val, scale.threads);
    let report = model.evaluate(&data.test, avg_power, 16);
    MethodRun {
        method: "CamAL".to_string(),
        report,
        labels_used: data.train.label_count(false),
        train_secs: model.train_stats.total_secs,
        secs_per_epoch: model.train_stats.candidate_secs_total
            / (model.train_stats.candidates.max(1) * cfg.train.epochs.max(1)) as f64,
    }
}

/// Average running power P_a for a case (Table I).
pub fn case_avg_power(case: &Case) -> f32 {
    template(case.dataset).case(case.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0)
}

/// Trains one baseline on a case and evaluates it on the test windows.
/// Strongly supervised baselines use per-timestep BCE; CRNN-Weak uses MIL.
pub fn run_baseline(kind: BaselineKind, case: &Case, data: &CaseData, scale: &Scale) -> MethodRun {
    let mut rng = nilm_tensor::init::rng(scale.seed ^ kind.name().len() as u64);
    let mut model = kind.build(&mut rng, scale.width_div);
    let cfg = scale.train_config();
    let start = Instant::now();
    let stats: TrainStats = if kind.is_weakly_supervised() {
        train_weak_mil(model.as_mut(), &data.train, &cfg)
    } else {
        train_strong(model.as_mut(), &data.train, &cfg)
    };
    let train_secs = start.elapsed().as_secs_f64();
    let report = evaluate_frame_model(model.as_mut(), &data.test, case_avg_power(case));
    MethodRun {
        method: kind.name().to_string(),
        report,
        labels_used: data.train.label_count(!kind.is_weakly_supervised()),
        train_secs,
        secs_per_epoch: stats.secs_per_epoch(),
    }
}

/// Evaluates any frame-logit model on a ground-truth window set: threshold
/// at 0.5, detection = any ON timestep, then score like CamAL.
pub fn evaluate_frame_model(
    model: &mut dyn nilm_tensor::layer::Layer,
    test: &WindowSet,
    avg_power_w: f32,
) -> CaseReport {
    let probas = predict_proba_frames(model, test, 16);
    let status: Vec<Vec<u8>> = probas.iter().map(|p| proba_to_status(p)).collect();
    let detected: Vec<bool> = status.iter().map(|s| s.iter().any(|&b| b == 1)).collect();
    camal::report_from_status(test, &status, &detected, avg_power_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets_are_ordered() {
        let s = Scale::smoke();
        let f = Scale::full();
        assert!(s.window < f.window);
        assert!(s.epochs < f.epochs);
        assert_eq!(f.window, 510);
        assert_eq!(f.kernels, vec![5, 7, 9, 15, 25]);
        assert_eq!(f.n_ensemble, 5);
    }

    #[test]
    fn from_args_picks_preset() {
        assert_eq!(Scale::from_args(&["--smoke".into()]).name, "smoke");
        assert_eq!(Scale::from_args(&["--full".into()]).name, "full");
        assert_eq!(Scale::from_args(&[]).name, "quick");
    }

    #[test]
    fn eleven_cases_match_table3() {
        assert_eq!(all_cases().len(), 11);
        let labels: Vec<String> = all_cases().iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"ideal:shower".to_string()));
        assert!(labels.contains(&"edf_ev:ev".to_string()));
    }

    #[test]
    fn build_case_data_produces_windows() {
        let scale = Scale::smoke();
        let case = Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle };
        let (_, cd) = build_case_data(&case, &scale);
        assert!(!cd.train.is_empty());
        assert!(!cd.test.is_empty());
        assert_eq!(cd.train.window_len(), scale.window);
    }

    #[test]
    fn camal_smoke_run_produces_report() {
        let scale = Scale::smoke();
        let case = Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle };
        let (_, cd) = build_case_data(&case, &scale);
        let run = run_camal(&case, &cd, &scale, None);
        assert!(run.report.localization.f1.is_finite());
        assert!(run.labels_used > 0);
        assert!(run.train_secs > 0.0);
    }

    #[test]
    fn baseline_smoke_run_produces_report() {
        let scale = Scale::smoke();
        let case = Case { dataset: DatasetId::Refit, appliance: ApplianceKind::Kettle };
        let (_, cd) = build_case_data(&case, &scale);
        let run = run_baseline(BaselineKind::TpNilm, &case, &cd, &scale);
        assert!(run.report.localization.f1.is_finite());
        // Strong supervision consumes window-length × windows labels.
        assert_eq!(run.labels_used, cd.train.len() * scale.window);
    }
}
