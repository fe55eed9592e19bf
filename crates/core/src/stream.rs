//! Streaming inference: localize appliances over arbitrary-length meter
//! series, the shape a production service ingests (one continuous series
//! per household, not pre-sliced windows).
//!
//! The pipeline mirrors the paper's §V-B preprocessing — resample to the
//! model's resolution, forward-fill bounded gaps, slice into non-overlapping
//! model windows — then batches windows **across households** through one
//! loaded ensemble (large batches keep the GEMM backend fed), stitches the
//! per-window statuses back into a continuous per-household timeline, and
//! finally applies the duration priors of [`crate::postprocess`] *on the
//! stitched timeline*. Running the priors after stitching matters: an
//! activation that spans a window boundary is two short fragments at the
//! window level (which a per-window prior would delete) but one plausible
//! run at the timeline level.
//!
//! Windows that still contain missing values after forward-filling are
//! skipped, exactly like the training pipeline drops them; the
//! corresponding timeline region stays OFF and is reported in the coverage
//! counters.
//!
//! Since the fleet-serving PR, [`serve`] is the N=1 special case of the
//! shared-pass engine in [`crate::fleet`]: one registered appliance, one
//! worker shard. The multi-appliance scheduler ([`crate::fleet::serve_fleet`])
//! runs the very same stages, amortizing the preprocessing and batch
//! assembly across every model of the fleet.

use crate::fleet::AppliancePlan;
use crate::model::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::series::TimeSeries;

/// How a [`serve`] call preprocesses, batches and post-processes.
///
/// ```
/// use camal::stream::StreamConfig;
/// use nilm_data::prelude::ApplianceKind;
///
/// let cfg = StreamConfig::for_appliance(128, 60, ApplianceKind::Kettle, 2000.0);
/// assert_eq!(cfg.max_ffill_s, 180, "default forward-fill bound is 3 samples");
/// assert_eq!(cfg.appliance, Some(ApplianceKind::Kettle));
/// ```
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Model window length `w` (must match the training window).
    pub window: usize,
    /// Target sampling step in seconds (the resolution the model was
    /// trained at); inputs are downsampled to it.
    pub step_s: u32,
    /// Maximum gap (seconds) forward-filled before windows are sliced.
    pub max_ffill_s: u32,
    /// Windows per inference batch, pooled across every household.
    pub batch: usize,
    /// Appliance whose duration priors are applied to the stitched
    /// timeline; `None` disables post-processing.
    pub appliance: Option<ApplianceKind>,
    /// Average running power P_a for the §IV-C power estimate.
    pub avg_power_w: f32,
}

impl StreamConfig {
    /// A config with post-processing and power estimation for `kind`.
    pub fn for_appliance(
        window: usize,
        step_s: u32,
        kind: ApplianceKind,
        avg_power_w: f32,
    ) -> Self {
        StreamConfig {
            window,
            step_s,
            max_ffill_s: 3 * step_s,
            batch: 64,
            appliance: Some(kind),
            avg_power_w,
        }
    }
}

/// One household's input: an identifier plus its raw aggregate series (any
/// length, any step that divides `step_s`, NaN = missing).
///
/// ```
/// use camal::stream::HouseholdSeries;
/// use nilm_data::prelude::TimeSeries;
///
/// let hh = HouseholdSeries {
///     id: "house-0".into(),
///     series: TimeSeries::new(vec![120.0, 2000.0, 1950.0, 130.0], 60),
/// };
/// assert_eq!(hh.series.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct HouseholdSeries {
    /// Caller-chosen identifier, echoed in the output.
    pub id: String,
    /// Raw mains readings in Watts.
    pub series: TimeSeries,
}

/// One household's stitched inference output at [`StreamConfig::step_s`]
/// resolution.
///
/// ```
/// use camal::stream::HouseholdTimeline;
///
/// let tl = HouseholdTimeline {
///     id: "h".into(),
///     step_s: 1800,
///     raw_status: vec![0, 1, 1, 0, 1, 0],
///     status: vec![0, 1, 1, 0, 1, 0],
///     power_w: vec![0.0, 1000.0, 1000.0, 0.0, 1000.0, 0.0],
///     detection_proba: vec![0.9],
///     scored_starts: vec![0],
///     windows_total: 1,
///     windows_scored: 1,
///     windows_detected: 1,
/// };
/// assert_eq!(tl.activations(), 2);
/// assert!((tl.on_fraction() - 0.5).abs() < 1e-9);
/// assert!((tl.energy_wh() - 1500.0).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct HouseholdTimeline {
    /// Echo of the input identifier.
    pub id: String,
    /// Sampling step of every per-timestep vector below.
    pub step_s: u32,
    /// Stitched ON/OFF status straight from the ensemble (pre-prior) — the
    /// exact concatenation of the per-window statuses.
    pub raw_status: Vec<u8>,
    /// Status after the duration priors (equals `raw_status` when
    /// [`StreamConfig::appliance`] is `None`).
    pub status: Vec<u8>,
    /// Estimated appliance power in Watts (from `status`, §IV-C).
    pub power_w: Vec<f32>,
    /// Ensemble detection probability per scored window, in window order.
    pub detection_proba: Vec<f32>,
    /// Timeline start sample of each scored window (aligned with
    /// `detection_proba`), so callers can map per-window results — or
    /// compare against the windowed batch API — without re-deriving the
    /// NaN-skip bookkeeping.
    pub scored_starts: Vec<usize>,
    /// Windows the resampled series was sliced into (tail excluded).
    pub windows_total: usize,
    /// Windows actually scored (NaN-free after forward-filling).
    pub windows_scored: usize,
    /// Scored windows whose detection probability cleared the threshold.
    pub windows_detected: usize,
}

impl HouseholdTimeline {
    /// Fraction of timeline samples predicted ON.
    pub fn on_fraction(&self) -> f64 {
        if self.status.is_empty() {
            return 0.0;
        }
        self.status.iter().filter(|&&s| s != 0).count() as f64 / self.status.len() as f64
    }

    /// Number of contiguous ON runs (appliance activations).
    pub fn activations(&self) -> usize {
        let mut runs = 0;
        let mut prev = 0u8;
        for &s in &self.status {
            if s == 1 && prev == 0 {
                runs += 1;
            }
            prev = s;
        }
        runs
    }

    /// Estimated appliance energy over the timeline, in watt-hours.
    pub fn energy_wh(&self) -> f64 {
        let hours = self.step_s as f64 / 3600.0;
        self.power_w.iter().map(|&p| p as f64 * hours).sum()
    }
}

/// Runs the full streaming pipeline for a set of households against one
/// loaded model. See the module docs for the stages. The model's window
/// length must equal `cfg.window`; series must be sampled at a step that
/// divides `cfg.step_s`.
///
/// This is the N=1 case of the fleet engine: one appliance plan, one worker
/// shard ([`crate::fleet::serve_fleet`] runs the identical stages for N
/// models over shared batches).
///
/// ```no_run
/// use camal::stream::{serve, HouseholdSeries, StreamConfig};
/// use camal::CamalModel;
/// use nilm_data::prelude::*;
///
/// let model = CamalModel::load("refit_kettle.ckpt").unwrap();
/// let cfg = StreamConfig::for_appliance(model.window(), 60, ApplianceKind::Kettle, 2000.0);
/// let feed = HouseholdSeries {
///     id: "house-0".into(),
///     series: TimeSeries::new(vec![120.0; 24 * 60], 60),
/// };
/// let timelines = serve(&model, &[feed], &cfg);
/// println!("kettle ran {} times", timelines[0].activations());
/// ```
pub fn serve(
    model: &CamalModel,
    households: &[HouseholdSeries],
    cfg: &StreamConfig,
) -> Vec<HouseholdTimeline> {
    let plans = [AppliancePlan { appliance: cfg.appliance, avg_power_w: cfg.avg_power_w }];
    let (mut per_model, _) = crate::fleet::serve_shared(
        &[model],
        &plans,
        households,
        cfg.window,
        cfg.step_s,
        cfg.max_ffill_s,
        cfg.batch,
    );
    per_model.pop().expect("shared pass returns one timeline set per model")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;
    use crate::model::CamalModel;
    use crate::postprocess::apply_duration_prior;
    use crate::test_support::toy_set;
    use nilm_models::TrainConfig;

    fn trained_model() -> CamalModel {
        let cfg = CamalConfig {
            n_ensemble: 2,
            kernels: vec![5, 9],
            trials: 1,
            width_div: 16,
            train: TrainConfig { epochs: 6, batch_size: 8, lr: 2e-3, clip: 5.0, seed: 3 },
            ..Default::default()
        };
        let train = toy_set(32, 32, 1);
        let val = toy_set(8, 32, 2);
        CamalModel::train(&cfg, &train, &val, 2)
    }

    /// A clean 60 s series with square activations, long enough for
    /// several 32-sample windows.
    fn toy_series(n: usize, seed: u64) -> TimeSeries {
        let mut vals = Vec::with_capacity(n);
        for t in 0..n {
            let phase = (t as u64).wrapping_mul(2654435761).wrapping_add(seed * 97);
            let on = (t / 8) % 4 == (phase % 3) as usize;
            vals.push(if on { 2000.0 } else { 100.0 });
        }
        TimeSeries::new(vals, 60)
    }

    #[test]
    fn serve_covers_every_household_and_sample() {
        let model = trained_model();
        let hh: Vec<HouseholdSeries> = (0..3)
            .map(|i| HouseholdSeries {
                id: format!("house-{i}"),
                series: toy_series(32 * 5 + 7, i as u64),
            })
            .collect();
        let cfg = StreamConfig {
            window: 32,
            step_s: 60,
            max_ffill_s: 180,
            batch: 4,
            appliance: None,
            avg_power_w: 2000.0,
        };
        let out = serve(&model, &hh, &cfg);
        assert_eq!(out.len(), 3);
        for tl in &out {
            assert_eq!(tl.windows_total, 5);
            assert_eq!(tl.windows_scored, 5);
            assert_eq!(tl.raw_status.len(), 32 * 5 + 7);
            assert_eq!(tl.status, tl.raw_status, "no prior requested");
            assert_eq!(tl.detection_proba.len(), 5);
            // The tail (7 samples) can never be ON: it was never scored.
            assert!(tl.raw_status[160..].iter().all(|&s| s == 0));
            assert_eq!(tl.power_w.len(), tl.status.len());
        }
    }

    #[test]
    fn streaming_matches_windowed_batch_pre_prior() {
        // The stitched raw statuses must equal `localize_set` run over the
        // same windows — streaming is a transport, not a different model.
        let model = trained_model();
        let series = toy_series(32 * 6, 9);
        let hh = vec![HouseholdSeries { id: "h".into(), series: series.clone() }];
        let cfg = StreamConfig {
            window: 32,
            step_s: 60,
            max_ffill_s: 180,
            batch: 3, // deliberately unaligned with the window count
            appliance: None,
            avg_power_w: 2000.0,
        };
        let out = serve(&model, &hh, &cfg);
        let windows = nilm_data::preprocess::slice_windows(&series, None, 300.0, 32, 0, false);
        let set = nilm_data::windows::WindowSet::new(windows);
        let loc = model.localize_set(&set, 16);
        for (wi, st) in loc.status.iter().enumerate() {
            assert_eq!(
                &out[0].raw_status[wi * 32..(wi + 1) * 32],
                &st[..],
                "window {wi} differs between streaming and batch"
            );
        }
    }

    #[test]
    fn gaps_are_skipped_but_timeline_stays_full_length() {
        let model = trained_model();
        let mut series = toy_series(32 * 4, 5);
        // Poison one window with an unfillable gap.
        for v in series.values[40..70].iter_mut() {
            *v = f32::NAN;
        }
        let hh = vec![HouseholdSeries { id: "gappy".into(), series }];
        let cfg = StreamConfig {
            window: 32,
            step_s: 60,
            max_ffill_s: 120, // 2 samples — the 30-sample gap stays
            batch: 8,
            appliance: None,
            avg_power_w: 2000.0,
        };
        let out = serve(&model, &hh, &cfg);
        assert_eq!(out[0].windows_total, 4);
        assert!(out[0].windows_scored < 4, "gap window must be skipped");
        assert_eq!(out[0].raw_status.len(), 32 * 4);
        // The gap region was never scored -> OFF.
        assert!(out[0].raw_status[40..64].iter().all(|&s| s == 0));
    }

    #[test]
    fn priors_merge_boundary_spanning_activations() {
        // Force a raw status pattern that crosses a window boundary by
        // post-processing a synthetic timeline directly: the stitched-level
        // prior keeps it, demonstrating why priors run after stitching.
        let mut status = vec![0u8; 96];
        for s in status[24..40].iter_mut() {
            *s = 1; // spans the 32-boundary: 8 samples left, 8 right
        }
        status[28] = 0; // micro-gap inside the run
        let mut stitched = status.clone();
        apply_duration_prior(&mut stitched, ApplianceKind::Dishwasher, 120);
        // Dishwasher @120 s: min ON 10 samples, gap 5 — the 16-sample run
        // survives as one merged activation.
        assert!(stitched[24..40].iter().all(|&s| s == 1));
        // Per-window application would have deleted both 8-sample halves.
        let mut left = status[..32].to_vec();
        let mut right = status[32..64].to_vec();
        apply_duration_prior(&mut left, ApplianceKind::Dishwasher, 120);
        apply_duration_prior(&mut right, ApplianceKind::Dishwasher, 120);
        assert!(left.iter().all(|&s| s == 0) && right.iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "trained at window")]
    fn serve_rejects_mismatched_window() {
        let model = trained_model(); // trained at window 32
        let hh = vec![HouseholdSeries { id: "h".into(), series: toy_series(128, 1) }];
        let cfg = StreamConfig {
            window: 64, // wrong: silently degraded output without the guard
            step_s: 60,
            max_ffill_s: 180,
            batch: 8,
            appliance: None,
            avg_power_w: 2000.0,
        };
        let _ = serve(&model, &hh, &cfg);
    }

    #[test]
    fn timeline_summary_helpers() {
        let tl = HouseholdTimeline {
            id: "x".into(),
            step_s: 1800,
            raw_status: vec![0, 1, 1, 0, 1, 0],
            status: vec![0, 1, 1, 0, 1, 0],
            power_w: vec![0.0, 1000.0, 1000.0, 0.0, 1000.0, 0.0],
            detection_proba: vec![0.9],
            scored_starts: vec![0],
            windows_total: 1,
            windows_scored: 1,
            windows_detected: 1,
        };
        assert_eq!(tl.activations(), 2);
        assert!((tl.on_fraction() - 0.5).abs() < 1e-9);
        assert!((tl.energy_wh() - 1500.0).abs() < 1e-6);
    }
}
