//! The CamAL model: the full pipeline of Fig. 3 — ensemble detection, CAM
//! extraction/averaging, attention-sigmoid localization, and binary→power
//! post-processing — over preprocessed windows.

use crate::config::CamalConfig;
use crate::ensemble::{train_ensemble, EnsembleMember, EnsembleStats};
use crate::localize::{attention_status, average_cams, normalize_cam, raw_cam_status};
use crate::power::estimate_power;
use nilm_data::windows::WindowSet;
use nilm_metrics::{ClassificationReport, Confusion, EnergyReport};

use nilm_tensor::tensor::Tensor;
use std::time::Instant;

/// Localization output for a batch of windows.
#[derive(Clone, Debug, Default)]
pub struct Localization {
    /// Ensemble detection probability per window.
    pub detection_proba: Vec<f32>,
    /// Detection decision per window (`proba > threshold`).
    pub detected: Vec<bool>,
    /// Predicted per-timestep status ŝ(t) per window (all-zero when the
    /// appliance is not detected — paper step 2).
    pub status: Vec<Vec<u8>>,
    /// Post-sigmoid localization scores in `[0, 1]` per window — the soft
    /// labels of the RQ5 augmentation (`status` is `scores > 0.5`).
    /// All-zero for undetected windows.
    pub scores: Vec<Vec<f32>>,
    /// The averaged, normalized ensemble CAM per window.
    pub cam: Vec<Vec<f32>>,
}

/// Evaluation bundle: the metrics reported in Table III plus detection
/// balanced accuracy (Fig. 6(b)).
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseReport {
    /// Localization metrics (per-timestep status vs ground truth).
    pub localization: ClassificationReport,
    /// Energy metrics (estimated power vs submeter).
    pub energy: EnergyReport,
    /// Window-level detection metrics.
    pub detection: ClassificationReport,
}

/// A trained CamAL instance for one appliance.
///
/// Inference ([`CamalModel::localize_batch`] and everything built on it)
/// takes `&self`, so one model behind an `Arc` serves every thread of a
/// fleet pass at once.
pub struct CamalModel {
    cfg: CamalConfig,
    members: Vec<EnsembleMember>,
    /// Window length the ensemble was trained at (0 = unknown, e.g. models
    /// assembled via [`CamalModel::from_members`]). Persisted in
    /// checkpoints so a serving process can slice inputs correctly.
    window: usize,
    /// Trainable parameters per member (shape-only, fixed at assembly).
    param_counts: Vec<usize>,
    /// Convolution weights summed over every member (see
    /// [`CamalModel::conv_weights`]).
    conv_weights: usize,
    /// Statistics of the Algorithm 1 run that produced this model.
    pub train_stats: EnsembleStats,
}

// Fleet shards share one model across threads through an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CamalModel>();
};

impl CamalModel {
    /// Trains CamAL with Algorithm 1. `threads` bounds candidate-training
    /// parallelism.
    pub fn train(cfg: &CamalConfig, train: &WindowSet, val: &WindowSet, threads: usize) -> Self {
        let (members, stats) = train_ensemble(cfg, train, val, threads);
        assert!(!members.is_empty(), "ensemble training produced no members");
        let mut model = Self::from_members(cfg.clone(), members);
        model.window = train.window_len();
        model.train_stats = stats;
        model
    }

    /// Builds a model from pre-trained members (used by ablation studies).
    pub fn from_members(cfg: CamalConfig, mut members: Vec<EnsembleMember>) -> Self {
        assert!(!members.is_empty());
        let mut conv_weights = 0;
        let param_counts = members
            .iter_mut()
            .map(|m| {
                // Convolution kernels are the only rank-3 parameters.
                m.net.visit_params(&mut |p| {
                    if p.value.rank() == 3 {
                        conv_weights += p.len();
                    }
                });
                m.net.num_params()
            })
            .collect();
        CamalModel {
            cfg,
            members,
            window: 0,
            param_counts,
            conv_weights,
            train_stats: EnsembleStats::default(),
        }
    }

    /// Configuration the model was trained with.
    pub fn config(&self) -> &CamalConfig {
        &self.cfg
    }

    /// Window length the model was trained at (0 when unknown).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Records the training window length (used by checkpoint loading and
    /// by callers assembling models from pre-trained members).
    pub fn set_window(&mut self, window: usize) {
        self.window = window;
    }

    /// Number of ensemble members.
    pub fn ensemble_size(&self) -> usize {
        self.members.len()
    }

    /// Architecture specs of the selected members (ascending val loss).
    pub fn member_specs(&self) -> Vec<nilm_models::BackboneSpec> {
        self.members.iter().map(|m| m.spec).collect()
    }

    /// Compact human-readable descriptions of the selected members, e.g.
    /// `["resnet(k5/div8)", "transapp(d16xh2,ff32,l1,ds4)"]` — what demos,
    /// manifests and `/v1/models` print.
    pub fn describe_members(&self) -> Vec<String> {
        self.members.iter().map(|m| m.spec.describe()).collect()
    }

    /// Consumes the model and returns its members (ascending validation
    /// loss) — used by the ensemble-size ablation to share one candidate
    /// pool across sizes.
    pub fn into_members(self) -> Vec<EnsembleMember> {
        self.members
    }

    /// Mutable access to the members — used by checkpointing, which needs
    /// to walk each backbone's layer state.
    pub(crate) fn members_mut(&mut self) -> &mut [EnsembleMember] {
        &mut self.members
    }

    /// Serializes the model into checkpoint bytes (see [`crate::persist`]).
    pub fn to_bytes(&mut self) -> Vec<u8> {
        crate::persist::to_bytes(self)
    }

    /// Reconstructs a model from checkpoint bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, nilm_tensor::serialize::SerializeError> {
        crate::persist::from_bytes(bytes)
    }

    /// Writes a checkpoint file; reload it with [`CamalModel::load`] to get
    /// bit-identical `detect_proba` / `localize_batch` behaviour in a fresh
    /// process.
    pub fn save(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), nilm_tensor::serialize::SerializeError> {
        crate::persist::save(self, path)
    }

    /// Loads a checkpoint file written by [`CamalModel::save`].
    pub fn load(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, nilm_tensor::serialize::SerializeError> {
        crate::persist::load(path)
    }

    /// Total trainable parameters across the ensemble (Table II row CamAL).
    pub fn num_params(&self) -> usize {
        self.param_counts.iter().sum()
    }

    /// Trainable parameters of each member (ascending val loss) — paired
    /// with [`CamalModel::describe_members`] in manifests and `/v1/models`.
    pub fn member_param_counts(&self) -> Vec<usize> {
        self.param_counts.clone()
    }

    /// Convolution weights summed over every member. A stride-1 "same"
    /// convolution performs one multiply-accumulate per weight and input
    /// sample, so `conv_weights() × window` is the model's MAC count per
    /// scored window — the work measure the fleet sizes its shards by.
    pub fn conv_weights(&self) -> usize {
        self.conv_weights
    }

    /// Ensemble detection probability (mean of member class-1 softmax) for a
    /// `[b, 1, t]` input batch (paper step 1).
    pub fn detect_proba(&self, x: &Tensor) -> Vec<f32> {
        let b = x.dims3().0;
        let mut probs = vec![0.0f32; b];
        for member in &self.members {
            let p = member.net.predict_proba(x);
            for (bi, pr) in probs.iter_mut().enumerate() {
                *pr += p.at2(bi, 1);
            }
        }
        let inv = 1.0 / self.members.len() as f32;
        probs.iter_mut().for_each(|p| *p *= inv);
        probs
    }

    /// Runs the full CamAL pipeline (Fig. 3) on a `[b, 1, t]` batch whose
    /// rows are the scaled inputs of `windows` (needed for the attention
    /// mask). Returns per-window detection and localization.
    pub fn localize_batch(&self, x: &Tensor) -> Localization {
        let (b, _, t) = x.dims3();
        // Step 1–2: ensemble probability and detection gate. The stateless
        // member inference returns the feature maps along with the logits,
        // bit-identical to an eval forward without any of its caches.
        let mut probs = vec![0.0f32; b];
        let mut member_cams: Vec<Tensor> = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let out = member.net.infer_features(x);
            let p = nilm_tensor::activation::softmax_rows(&out.logits);
            for (bi, pr) in probs.iter_mut().enumerate() {
                *pr += p.at2(bi, 1);
            }
            // Step 3–4: per-member CAM for class 1, normalized per window.
            let mut cam = out.cam(member.net.head_weights(), 1);
            for bi in 0..b {
                normalize_cam(&mut cam.data_mut()[bi * t..(bi + 1) * t]);
            }
            member_cams.push(cam);
        }
        let inv = 1.0 / self.members.len() as f32;
        probs.iter_mut().for_each(|p| *p *= inv);
        let cam_ens = average_cams(&member_cams);

        let mut out = Localization::default();
        for bi in 0..b {
            let detected = probs[bi] > self.cfg.detection_threshold;
            let cam_row = &cam_ens.data()[bi * t..(bi + 1) * t];
            let input_row = x.row(bi, 0);
            let (status, scores) = if !detected {
                (vec![0u8; t], vec![0.0f32; t])
            } else if self.cfg.use_attention {
                // Step 5–6: attention-sigmoid module.
                attention_status(cam_row, input_row, self.cfg.attention_margin)
            } else {
                raw_cam_status(cam_row)
            };
            out.detection_proba.push(probs[bi]);
            out.detected.push(detected);
            out.status.push(status);
            out.scores.push(scores);
            out.cam.push(cam_row.to_vec());
        }
        out
    }

    /// Localizes every window of a set (batched).
    pub fn localize_set(&self, set: &WindowSet, batch: usize) -> Localization {
        let mut all = Localization::default();
        let indices: Vec<usize> = (0..set.len()).collect();
        let mut x = Tensor::zeros(&[0]);
        for chunk in indices.chunks(batch.max(1)) {
            set.batch_inputs_into(chunk, &mut x);
            let part = self.localize_batch(&x);
            all.detection_proba.extend(part.detection_proba);
            all.detected.extend(part.detected);
            all.status.extend(part.status);
            all.scores.extend(part.scores);
            all.cam.extend(part.cam);
        }
        all
    }

    /// Generates per-timestep soft labels (post-sigmoid localization scores
    /// in `[0, 1]`) for a window set — the RQ5 data-augmentation output.
    /// Undetected windows yield all-zero labels; detected windows carry the
    /// graded attention-sigmoid scores (a historical bug returned the
    /// binarized status cast to `f32`, collapsing the augmentation into
    /// hard labels).
    pub fn soft_labels(&self, set: &WindowSet, batch: usize) -> Vec<Vec<f32>> {
        self.localize_set(set, batch).scores
    }

    /// Evaluates localization + energy + detection on a ground-truth window
    /// set, applying the §IV-C power post-processing with `avg_power_w`.
    pub fn evaluate(&self, set: &WindowSet, avg_power_w: f32, batch: usize) -> CaseReport {
        let loc = self.localize_set(set, batch);
        report_from_status(set, &loc.status, &loc.detected, avg_power_w)
    }

    /// Single-threaded inference throughput in windows/second (Fig. 7(c)).
    pub fn throughput(&self, set: &WindowSet, batch: usize) -> f64 {
        let start = Instant::now();
        let _ = self.localize_set(set, batch);
        set.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
    }
}

/// Builds a [`CaseReport`] from predicted statuses (shared by CamAL and the
/// baseline evaluations so every method is scored identically).
pub fn report_from_status(
    set: &WindowSet,
    status: &[Vec<u8>],
    detected: &[bool],
    avg_power_w: f32,
) -> CaseReport {
    assert_eq!(status.len(), set.len(), "one status sequence per window");
    let mut loc_conf = Confusion::default();
    let mut det_conf = Confusion::default();
    let mut pred_power = Vec::new();
    let mut true_power = Vec::new();
    for (i, window) in set.windows.iter().enumerate() {
        assert!(!window.status.is_empty(), "evaluation requires ground-truth status");
        for (&p, &t) in status[i].iter().zip(&window.status) {
            loc_conf.push(p != 0, t != 0);
        }
        det_conf.push(detected.get(i).copied().unwrap_or(false), window.weak_label == 1);
        pred_power.extend(estimate_power(&status[i], avg_power_w, &window.aggregate_w));
        true_power.extend_from_slice(&window.appliance_w);
    }
    CaseReport {
        localization: ClassificationReport::from_confusion(&loc_conf),
        energy: EnergyReport::compute(&pred_power, &true_power),
        detection: ClassificationReport::from_confusion(&det_conf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::toy_set;
    use nilm_models::TrainConfig;

    fn fast_cfg() -> CamalConfig {
        CamalConfig {
            n_ensemble: 2,
            kernels: vec![5, 9],
            trials: 1,
            width_div: 16,
            train: TrainConfig { epochs: 8, batch_size: 8, lr: 2e-3, clip: 0.0, seed: 3 },
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_localization_beats_trivial_baselines() {
        let train = toy_set(32, 32, 1);
        let val = toy_set(8, 32, 2);
        let test = toy_set(16, 32, 9);
        let model = CamalModel::train(&fast_cfg(), &train, &val, 2);
        let report = model.evaluate(&test, 2000.0, 8);
        // The toy signal is trivially separable; CamAL must do clearly
        // better than random (F1 of all-ones predictor ~ 0.5 here).
        assert!(report.detection.balanced_accuracy > 0.8, "{:?}", report.detection);
        assert!(report.localization.f1 > 0.5, "{:?}", report.localization);
    }

    #[test]
    fn undetected_windows_have_all_zero_status() {
        let train = toy_set(32, 32, 3);
        let val = toy_set(8, 32, 4);
        let model = CamalModel::train(&fast_cfg(), &train, &val, 2);
        let test = toy_set(12, 32, 5);
        let loc = model.localize_set(&test, 4);
        for (i, det) in loc.detected.iter().enumerate() {
            if !det {
                assert!(loc.status[i].iter().all(|&s| s == 0));
            }
        }
    }

    #[test]
    fn cams_are_normalized() {
        let train = toy_set(16, 32, 6);
        let model = CamalModel::train(&fast_cfg(), &train, &train, 2);
        let loc = model.localize_set(&train, 4);
        for cam in &loc.cam {
            assert!(cam.iter().all(|&v| (0.0..=1.0).contains(&v)), "CAM out of [0,1]");
        }
    }

    #[test]
    fn soft_labels_are_scores_consistent_with_status() {
        let train = toy_set(16, 32, 7);
        let model = CamalModel::train(&fast_cfg(), &train, &train, 2);
        let soft = model.soft_labels(&train, 4);
        let loc = model.localize_set(&train, 4);
        assert_eq!(soft.len(), loc.status.len());
        for ((s, st), det) in soft.iter().zip(&loc.status).zip(&loc.detected) {
            for (&sv, &bv) in s.iter().zip(st) {
                assert!((0.0..=1.0).contains(&sv), "score {sv} out of [0,1]");
                // Status is the 0.5-thresholded score; undetected windows
                // are all-zero in both.
                assert_eq!(sv > 0.5, bv == 1);
                if !det {
                    assert_eq!(sv, 0.0);
                }
            }
        }
    }

    #[test]
    fn soft_labels_are_not_binary_on_detected_windows() {
        // Regression for the RQ5 bug: `soft_labels` used to return
        // `status as f32`, so every value was exactly 0.0 or 1.0. Real
        // post-sigmoid scores must be graded.
        let train = toy_set(32, 32, 7);
        let model = CamalModel::train(&fast_cfg(), &train, &train, 2);
        let soft = model.soft_labels(&train, 8);
        let loc = model.localize_set(&train, 8);
        let detected: Vec<usize> = (0..train.len()).filter(|&i| loc.detected[i]).collect();
        assert!(!detected.is_empty(), "toy model detected nothing");
        let graded = detected.iter().any(|&i| soft[i].iter().any(|&s| s > 0.0 && s < 1.0));
        assert!(graded, "detected windows carry only hard 0/1 soft labels");
    }

    #[test]
    fn detection_probability_is_mean_of_members() {
        let train = toy_set(16, 32, 8);
        let model = CamalModel::train(&fast_cfg(), &train, &train, 2);
        let idx: Vec<usize> = (0..4).collect();
        let x = train.batch_inputs(&idx);
        let probs = model.detect_proba(&x);
        assert_eq!(probs.len(), 4);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}
