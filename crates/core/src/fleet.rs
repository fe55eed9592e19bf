//! Fleet serving: N appliance detectors over one smart-meter feed, many
//! households at a time.
//!
//! A deployment answers "which of the household's appliances is running?" —
//! that is N CamAL models per feed, not one. Running [`crate::stream::serve`]
//! N times would repeat the §V-B preprocessing (resample → forward-fill →
//! slice) and the batch assembly N times per household; this module does the
//! expensive, model-independent work **once per feed** and fans the shared
//! window batches out across every registered appliance model:
//!
//! 1. **Shard** — a pass with enough work is split into contiguous
//!    household shards, one per worker thread (vendored `rayon` fan-out),
//!    each carrying at least [`SHARD_MIN_MACS`] of convolution work. Every
//!    shard borrows the same copy of each model: inference takes `&self`
//!    and keeps its scratch per thread, so no locking and no copying
//!    happens on the hot path. Kernels inside a shard do not fan out again
//!    ([`nilm_tensor::dispatch::fan_out`]). Results are
//!    bit-identical for any shard count (window scoring is
//!    row-independent: eval-mode BatchNorm uses running statistics).
//! 2. **Shared pass** — inside a shard, each household is preprocessed once
//!    and its windows pooled with every other household's into
//!    GEMM-friendly batches; each assembled batch tensor is then reused
//!    across **all** appliance models (batching across households *and*
//!    appliances: one batch assembly feeds N model forwards).
//! 3. **Stitch + post-process** — per (household, appliance), window
//!    statuses are stitched into a continuous timeline, the appliance's
//!    duration priors run at the stitched level, and §IV-C power is
//!    estimated — exactly the single-appliance streaming semantics.
//!
//! [`serve_fleet`] is the registry-driven entry point, in two steps: a
//! resolve step ([`resolve_fleet`]) that needs the registry and a pass
//! ([`run_fleet`]) that needs only the resolved models, so a server can
//! hold its registry lock for the first alone.
//! [`crate::stream::serve`] is the N=1 special case of the same engine
//! (both delegate to the crate-private `serve_shared` core below).

use crate::model::CamalModel;
use crate::postprocess::apply_duration_prior;
use crate::power::estimate_power;
use crate::registry::{ModelKey, ModelRegistry, RegistryError};
use crate::stream::{HouseholdSeries, HouseholdTimeline};
use nilm_data::appliance::ApplianceKind;
use nilm_data::preprocess::{forward_fill, resample, valid_window_starts, INPUT_SCALE};
use nilm_data::series::TimeSeries;
use nilm_data::templates::template;
use nilm_tensor::dispatch::fan_out;
use nilm_tensor::tensor::Tensor;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Multiply-accumulates of convolution work each household shard must
/// carry before a fleet pass splits: a pass runs as `min(threads,
/// households, work / SHARD_MIN_MACS)` shards, so no shard gets much less
/// than this. A shard costs one hand-off to the `rayon` pool: on a 2-vCPU
/// x86-64 VM (Intel Xeon), in a fan-out of two 1 ms tasks, the woken pool
/// worker started its task 12 µs after the caller started its own when
/// the fan-outs ran back to back, and 41 µs after 2 ms idle (medians; a
/// thread spawn per fan-out took 63–103 µs). One core there runs a
/// quick-scale fleet pass at 4–5 G conv MACs/s, so 2^25 MACs take about
/// 7–8 ms and the hand-off is noise next to a shard. The floor also keeps interactive passes (one 128-sample
/// window per request, at most 64 requests at about 0.5 M MACs each) on a
/// single shard, where the kernels may still fan out.
pub const SHARD_MIN_MACS: usize = 1 << 25;

/// Post-processing plan for one appliance model inside a shared pass: what
/// the model-independent engine cannot know about the appliance.
#[derive(Clone, Copy, Debug)]
pub struct AppliancePlan {
    /// Appliance whose duration priors run on the stitched timeline;
    /// `None` disables post-processing (raw statuses pass through).
    pub appliance: Option<ApplianceKind>,
    /// Average running power P_a for the §IV-C power estimate.
    pub avg_power_w: f32,
}

/// Work counters of one shared pass (summed over shards by [`serve_fleet`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SharedPassCounters {
    /// Windows each feed was sliced into (model-independent; counted once
    /// per household).
    pub windows_total: usize,
    /// NaN-free windows actually scored, counted once per household.
    pub windows_scored: usize,
    /// Model inferences performed: scored windows × models.
    pub inferences: usize,
    /// Batch tensors assembled (each reused across all models).
    pub batches: usize,
    /// CPU-seconds spent in stage 1 (preprocess), summed across shards.
    pub preprocess_s: f64,
    /// CPU-seconds spent in stage 2 (batched inference), summed across shards.
    pub infer_s: f64,
    /// CPU-seconds spent in stage 3 (stitch + power), summed across shards.
    pub stitch_s: f64,
}

/// One scored window's origin, for stitching.
struct WindowJob {
    house: usize,
    /// Start sample of the window inside the stitched timeline.
    start: usize,
}

/// The shared-pass engine: preprocesses every household once, pools windows
/// across households into batches, runs **each** model on every assembled
/// batch, and stitches per-(model, household) timelines. Returns timelines
/// indexed `[model][household]`.
///
/// This is the core both [`crate::stream::serve`] (one model) and
/// [`serve_fleet`] (one call per worker shard) execute.
pub(crate) fn serve_shared(
    models: &[&CamalModel],
    plans: &[AppliancePlan],
    households: &[HouseholdSeries],
    window: usize,
    step_s: u32,
    max_ffill_s: u32,
    batch: usize,
) -> (Vec<Vec<HouseholdTimeline>>, SharedPassCounters) {
    assert!(window > 0, "window length must be positive");
    assert_eq!(models.len(), plans.len(), "one plan per model");
    for model in models.iter() {
        // The backbones are fully convolutional and would silently accept
        // any window length — and silently degrade. Checkpoints record the
        // training window precisely so this mismatch can be caught here.
        assert!(
            model.window() == 0 || model.window() == window,
            "model was trained at window {} but cfg.window is {}",
            model.window(),
            window
        );
    }
    let w = window;
    let mut counters = SharedPassCounters::default();

    // Stage 1 — per-household §V-B preprocessing and window slicing, done
    // once per feed no matter how many models consume it.
    let mut stage_span = nilm_obs::trace::span("preprocess");
    let stage_start = Instant::now();
    let mut aggregates: Vec<TimeSeries> = Vec::with_capacity(households.len());
    let mut jobs: Vec<WindowJob> = Vec::new();
    let mut timelines: Vec<Vec<HouseholdTimeline>> =
        (0..models.len()).map(|_| Vec::with_capacity(households.len())).collect();
    for (hi, hh) in households.iter().enumerate() {
        let agg = forward_fill(&resample(&hh.series, step_s), max_ffill_s);
        let n = agg.len();
        let windows_total = n / w;
        // `valid_window_starts` is the same validity rule `slice_windows`
        // applies during training, so streaming scores exactly the windows
        // the windowed pipeline would.
        let scored_starts = valid_window_starts(&agg, w);
        counters.windows_total += windows_total;
        counters.windows_scored += scored_starts.len();
        jobs.extend(scored_starts.iter().map(|&start| WindowJob { house: hi, start }));
        for per_model in timelines.iter_mut() {
            per_model.push(HouseholdTimeline {
                id: hh.id.clone(),
                step_s,
                raw_status: vec![0u8; n],
                status: Vec::new(),
                power_w: Vec::new(),
                detection_proba: Vec::with_capacity(scored_starts.len()),
                windows_total,
                windows_scored: scored_starts.len(),
                windows_detected: 0,
                scored_starts: scored_starts.clone(),
            });
        }
        aggregates.push(agg);
    }
    counters.preprocess_s = stage_start.elapsed().as_secs_f64();
    if let Some(mut span) = stage_span.take() {
        span.set_detail(format!(
            "households={} windows={}",
            households.len(),
            counters.windows_scored
        ));
        span.finish();
    }

    // Stage 2 — batched inference pooled across households; every assembled
    // batch is fanned out across all models before the next one is built,
    // so batch assembly cost is paid once per chunk, not once per model.
    let batch = batch.max(1);
    let mut stage_span = nilm_obs::trace::span("infer");
    let stage_start = Instant::now();
    let mut x = Tensor::zeros(&[0]);
    for chunk in jobs.chunks(batch) {
        counters.batches += 1;
        x.resize(&[chunk.len(), 1, w]);
        for (bi, job) in chunk.iter().enumerate() {
            let src = &aggregates[job.house].values[job.start..job.start + w];
            let dst = &mut x.data_mut()[bi * w..(bi + 1) * w];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v * INPUT_SCALE;
            }
        }
        for (mi, model) in models.iter().enumerate() {
            let loc = model.localize_batch(&x);
            counters.inferences += chunk.len();
            for (bi, job) in chunk.iter().enumerate() {
                let tl = &mut timelines[mi][job.house];
                tl.raw_status[job.start..job.start + w].copy_from_slice(&loc.status[bi]);
                tl.detection_proba.push(loc.detection_proba[bi]);
                if loc.detected[bi] {
                    tl.windows_detected += 1;
                }
            }
        }
    }
    counters.infer_s = stage_start.elapsed().as_secs_f64();
    if let Some(mut span) = stage_span.take() {
        span.set_detail(format!(
            "models={} batches={} inferences={}",
            models.len(),
            counters.batches,
            counters.inferences
        ));
        span.finish();
    }

    // Stage 3 — timeline-level post-processing and power estimation, per
    // (model, household) with the model's appliance plan.
    let stage_span = nilm_obs::trace::span("stitch");
    let stage_start = Instant::now();
    for (per_model, plan) in timelines.iter_mut().zip(plans) {
        for (tl, agg) in per_model.iter_mut().zip(&aggregates) {
            tl.status = tl.raw_status.clone();
            if let Some(kind) = plan.appliance {
                apply_duration_prior(&mut tl.status, kind, step_s);
            }
            // NaN aggregate samples clamp to 0 W inside `estimate_power`;
            // they can only occur outside scored windows, where status is
            // OFF.
            tl.power_w = estimate_power(&tl.status, plan.avg_power_w, &agg.values);
        }
    }
    counters.stitch_s = stage_start.elapsed().as_secs_f64();
    drop(stage_span);
    (timelines, counters)
}

/// How [`serve_fleet`] preprocesses, batches, shards and post-processes.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Target sampling step in seconds (the resolution every fleet model
    /// runs at); input feeds are downsampled to it.
    pub step_s: u32,
    /// Maximum gap (seconds) forward-filled before windows are sliced.
    pub max_ffill_s: u32,
    /// Windows per inference batch, pooled across every household of a
    /// shard (each batch is reused across all appliance models).
    pub batch: usize,
    /// Most worker shards households are distributed over; a pass only
    /// splits as far as every shard keeps [`SHARD_MIN_MACS`] of work.
    /// Results are bit-identical for any value; this only controls
    /// parallelism.
    pub threads: usize,
    /// Apply each appliance's duration priors on the stitched timelines.
    pub apply_priors: bool,
}

impl FleetConfig {
    /// A config serving at `step_s` resolution: 3-sample forward-fill,
    /// 64-window batches, single worker, priors on.
    ///
    /// ```
    /// let cfg = camal::fleet::FleetConfig::at_step(60);
    /// assert_eq!((cfg.step_s, cfg.max_ffill_s, cfg.threads), (60, 180, 1));
    /// ```
    pub fn at_step(step_s: u32) -> Self {
        FleetConfig { step_s, max_ffill_s: 3 * step_s, batch: 64, threads: 1, apply_priors: true }
    }
}

/// Why a fleet pass could not run.
#[derive(Debug)]
pub enum FleetError {
    /// No appliance keys were requested.
    NoAppliances,
    /// A model could not be fetched from the registry.
    Registry(RegistryError),
    /// A model's checkpoint does not record its training window, so feeds
    /// cannot be sliced safely.
    UnknownWindow(ModelKey),
    /// The requested models were trained at different window lengths and
    /// cannot share one preprocessing pass.
    WindowMismatch {
        /// The offending model.
        key: ModelKey,
        /// Its training window.
        window: usize,
        /// The window of the models before it.
        expected: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoAppliances => write!(f, "fleet pass requested with no appliances"),
            FleetError::Registry(e) => write!(f, "{e}"),
            FleetError::UnknownWindow(key) => {
                write!(f, "model {key} does not record its training window")
            }
            FleetError::WindowMismatch { key, window, expected } => write!(
                f,
                "model {key} was trained at window {window} but the fleet runs at {expected}; \
                 mixed-window fleets cannot share one preprocessing pass"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RegistryError> for FleetError {
    fn from(e: RegistryError) -> Self {
        FleetError::Registry(e)
    }
}

/// One household's localization across every served appliance.
#[derive(Clone, Debug)]
pub struct FleetHouseholdResult {
    /// Echo of the input household identifier.
    pub id: String,
    /// One timeline per appliance, parallel to [`FleetResult::appliances`].
    pub timelines: Vec<HouseholdTimeline>,
    /// `Some(reason)` when this household's shard worker panicked twice and
    /// the timelines are zeroed placeholders of the correct resampled
    /// length; `None` for a normally served household.
    pub degraded: Option<String>,
}

/// Fleet-level throughput and coverage counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetSummary {
    /// Households served.
    pub households: usize,
    /// Appliance models fanned out per feed.
    pub appliances: usize,
    /// Shared window length of every model in the pass.
    pub window: usize,
    /// Worker shards the households were distributed over (1 for a pass
    /// below two shards' worth of [`SHARD_MIN_MACS`]).
    pub shards: usize,
    /// Windows the feeds were sliced into (counted once per feed).
    pub feed_windows_total: usize,
    /// NaN-free windows scored (counted once per feed; each is inferred by
    /// every model).
    pub feed_windows_scored: usize,
    /// Model inferences performed: `feed_windows_scored × appliances`.
    pub inferences: usize,
    /// Batch tensors assembled across all shards.
    pub batches: usize,
    /// Wall-clock seconds of the sharded pass, from the fan-out to the
    /// last shard's join (model lookups and checkpoint loads excluded).
    pub elapsed_s: f64,
    /// `inferences / elapsed_s`.
    pub windows_per_second: f64,
    /// CPU-seconds in the preprocess stage, summed across shards (can
    /// exceed `elapsed_s` when shards run in parallel).
    pub preprocess_s: f64,
    /// CPU-seconds in the batched-inference stage, summed across shards.
    pub infer_s: f64,
    /// CPU-seconds in the stitch/power stage, summed across shards.
    pub stitch_s: f64,
    /// Shards that panicked once and were retried. The retry runs on the
    /// same shared models: inference never writes to them, so a panic
    /// cannot leave them half-updated.
    pub shard_retries: usize,
    /// Households answered with zeroed placeholder timelines because their
    /// shard panicked twice (see [`FleetHouseholdResult::degraded`]).
    pub households_degraded: usize,
}

/// Result of one [`serve_fleet`] pass.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// The appliances served, in the order of every per-household
    /// `timelines` vector.
    pub appliances: Vec<ModelKey>,
    /// Per-household results, in input household order.
    pub households: Vec<FleetHouseholdResult>,
    /// Fleet-level counters.
    pub summary: FleetSummary,
}

impl FleetResult {
    /// The timeline of `key` for household index `house`, if both exist.
    pub fn timeline(&self, house: usize, key: ModelKey) -> Option<&HouseholdTimeline> {
        let ai = self.appliances.iter().position(|&k| k == key)?;
        self.households.get(house).map(|h| &h.timelines[ai])
    }
}

/// One shard's outcome after panic isolation: results and counters on
/// success, zeroed placeholders plus the panic message when both attempts
/// failed.
struct ShardOutcome {
    timelines: Vec<Vec<HouseholdTimeline>>,
    counters: SharedPassCounters,
    retries: usize,
    degraded: Option<String>,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".into()
    }
}

/// Zeroed placeholder timelines for a shard whose worker panicked twice:
/// per household the correct resampled length, everything OFF at 0 W and no
/// windows scored. The gateway surfaces these as structured degraded rows.
fn degraded_shard(
    plans: &[AppliancePlan],
    shard: &[HouseholdSeries],
    window: usize,
    step_s: u32,
) -> Vec<Vec<HouseholdTimeline>> {
    let rows: Vec<HouseholdTimeline> = shard
        .iter()
        .map(|hh| {
            let n = resample(&hh.series, step_s).len();
            HouseholdTimeline {
                id: hh.id.clone(),
                step_s,
                raw_status: vec![0u8; n],
                status: vec![0u8; n],
                power_w: vec![0.0; n],
                detection_proba: Vec::new(),
                windows_total: n / window.max(1),
                windows_scored: 0,
                windows_detected: 0,
                scored_starts: Vec::new(),
            }
        })
        .collect();
    vec![rows; plans.len()]
}

/// Runs one shard with panic isolation: first attempt, one retry, then
/// degraded placeholders if both panicked. A panic anywhere inside —
/// preprocessing, inference, post-processing — is caught and returned as
/// its message instead of unwinding into the caller (under rayon an
/// uncaught worker panic would poison the whole fan-out). The shard index
/// is the `fleet.shard.panic` fault site, so which shard an armed fault
/// hits depends only on the fault seed, not on thread timing.
fn run_shard_guarded(
    site: usize,
    models: &[&CamalModel],
    plans: &[AppliancePlan],
    shard: &[HouseholdSeries],
    window: usize,
    cfg: &FleetConfig,
) -> ShardOutcome {
    let attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            nilm_fault::maybe_panic_at("fleet.shard.panic", site as u64);
            serve_shared(models, plans, shard, window, cfg.step_s, cfg.max_ffill_s, cfg.batch)
        }))
        .map_err(panic_message)
    };
    let (result, retries) = match attempt() {
        Ok(done) => (Ok(done), 0),
        Err(first) => (attempt().map_err(|second| (first, second)), 1),
    };
    match result {
        Ok((timelines, counters)) => ShardOutcome { timelines, counters, retries, degraded: None },
        Err((first, second)) => ShardOutcome {
            timelines: degraded_shard(plans, shard, window, cfg.step_s),
            counters: SharedPassCounters::default(),
            retries,
            degraded: Some(format!("shard worker panicked twice ({first}; then {second})")),
        },
    }
}

/// Worker threads a fleet pass can occupy: the `rayon` pool width
/// (`RAYON_NUM_THREADS`, else the core count). Serving processes pass it
/// as [`FleetConfig::threads`].
pub fn available_threads() -> usize {
    rayon::current_num_threads()
}

/// Household shards of a pass: at most `cfg.threads` and one per
/// household, and only as many as keep [`SHARD_MIN_MACS`] of work each.
/// The work is the MAC count of the models' stride-1 "same" convolutions:
/// feed windows × Σ conv weights × window, where feed windows are the
/// windows each resampled feed slices into (an upper bound on the scored
/// ones that needs no preprocessing).
fn shard_count(
    models: &[&CamalModel],
    households: &[HouseholdSeries],
    window: usize,
    cfg: &FleetConfig,
) -> usize {
    let conv_weights: usize = models.iter().map(|m| m.conv_weights()).sum();
    let windows: usize = households
        .iter()
        .map(|hh| hh.series.len() / (cfg.step_s / hh.series.step_s.max(1)).max(1) as usize / window)
        .sum();
    let macs = windows.saturating_mul(conv_weights).saturating_mul(window);
    cfg.threads.min(households.len()).min(macs / SHARD_MIN_MACS).max(1)
}

/// The models of one fleet pass, resolved from a registry by
/// [`resolve_fleet`]: shared handles plus each key's post-processing plan
/// and the common window. A pass over them ([`run_fleet`]) needs no
/// registry, so the registry can serve other resolves while it runs, and an
/// eviction or a registry rebuild cannot pull a model from under it.
pub struct ResolvedFleet {
    keys: Vec<ModelKey>,
    models: Vec<Arc<CamalModel>>,
    plans: Vec<AppliancePlan>,
    window: usize,
}

impl ResolvedFleet {
    /// The household shards [`run_fleet`] splits a pass over `households`
    /// into: the cores the pass occupies at once.
    pub fn shards(&self, households: &[HouseholdSeries], cfg: &FleetConfig) -> usize {
        let models: Vec<&CamalModel> = self.models.iter().map(|m| &**m).collect();
        shard_count(&models, households, self.window, cfg)
    }
}

/// The resolve step of [`serve_fleet`]: fetches (lazily loading) every
/// model of `keys` from `registry` once and checks that they share one
/// training window. Duration priors (when `cfg.apply_priors`) and average
/// power come from each key's dataset template (Table I); a key absent from
/// its template falls back to 1 kW with priors still applied.
pub fn resolve_fleet(
    registry: &mut ModelRegistry,
    keys: &[ModelKey],
    cfg: &FleetConfig,
) -> Result<ResolvedFleet, FleetError> {
    if keys.is_empty() {
        return Err(FleetError::NoAppliances);
    }
    let mut models: Vec<Arc<CamalModel>> = Vec::with_capacity(keys.len());
    let mut plans: Vec<AppliancePlan> = Vec::with_capacity(keys.len());
    let mut window = 0usize;
    for &key in keys {
        let model = Arc::clone(registry.get_mut(key)?);
        let w = model.window();
        if w == 0 {
            return Err(FleetError::UnknownWindow(key));
        }
        if window == 0 {
            window = w;
        } else if w != window {
            return Err(FleetError::WindowMismatch { key, window: w, expected: window });
        }
        let avg_power_w =
            template(key.dataset).case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0);
        plans.push(AppliancePlan {
            appliance: cfg.apply_priors.then_some(key.appliance),
            avg_power_w,
        });
        models.push(model);
    }
    Ok(ResolvedFleet { keys: keys.to_vec(), models, plans, window })
}

/// The pass step of [`serve_fleet`]: serves every household against every
/// resolved model in one shared pass per feed (see the module docs for the
/// pipeline). Every worker shard borrows the same `Arc` of each model, so
/// the pass scales across threads without locks or copies. Households are
/// split into shards only when each keeps [`SHARD_MIN_MACS`] of work (at
/// most `cfg.threads`; see [`ResolvedFleet::shards`]). The plans were
/// fixed by [`resolve_fleet`];
/// `cfg.apply_priors` is not read again here.
pub fn run_fleet(
    fleet: &ResolvedFleet,
    households: &[HouseholdSeries],
    cfg: &FleetConfig,
) -> FleetResult {
    let models: Vec<&CamalModel> = fleet.models.iter().map(|m| &**m).collect();
    let (plans, window) = (&fleet.plans[..], fleet.window);

    // Shard households contiguously. Each shard runs panic-isolated: one
    // retry on the same models, then degraded placeholders, so a poisoned
    // worker cannot sink the whole pass.
    let shards = fleet.shards(households, cfg);
    let per_shard = households.len().div_ceil(shards).max(1);
    let shards: Vec<(usize, &[HouseholdSeries])> =
        households.chunks(per_shard).enumerate().collect();
    let start = Instant::now();
    let shard_results = fan_out(&shards, |&(index, shard)| {
        run_shard_guarded(index, &models, plans, shard, window, cfg)
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    // Reassemble: transpose each shard's [model][household] timelines into
    // per-household rows, preserving input household order.
    let mut out_households: Vec<FleetHouseholdResult> = Vec::with_capacity(households.len());
    let mut counters = SharedPassCounters::default();
    let mut shard_retries = 0usize;
    let mut households_degraded = 0usize;
    let actual_shards = shard_results.len();
    for outcome in shard_results {
        let c = outcome.counters;
        counters.windows_total += c.windows_total;
        counters.windows_scored += c.windows_scored;
        counters.inferences += c.inferences;
        counters.batches += c.batches;
        counters.preprocess_s += c.preprocess_s;
        counters.infer_s += c.infer_s;
        counters.stitch_s += c.stitch_s;
        shard_retries += outcome.retries;
        let shard_len = outcome.timelines.first().map_or(0, Vec::len);
        if outcome.degraded.is_some() {
            households_degraded += shard_len;
        }
        let mut iters: Vec<_> = outcome.timelines.into_iter().map(Vec::into_iter).collect();
        for _ in 0..shard_len {
            let timelines: Vec<HouseholdTimeline> =
                iters.iter_mut().map(|it| it.next().expect("shard rows are rectangular")).collect();
            out_households.push(FleetHouseholdResult {
                id: timelines[0].id.clone(),
                timelines,
                degraded: outcome.degraded.clone(),
            });
        }
    }

    let summary = FleetSummary {
        households: households.len(),
        appliances: fleet.keys.len(),
        window,
        shards: actual_shards,
        feed_windows_total: counters.windows_total,
        feed_windows_scored: counters.windows_scored,
        inferences: counters.inferences,
        batches: counters.batches,
        elapsed_s,
        windows_per_second: counters.inferences as f64 / elapsed_s.max(1e-9),
        preprocess_s: counters.preprocess_s,
        infer_s: counters.infer_s,
        stitch_s: counters.stitch_s,
        shard_retries,
        households_degraded,
    };
    FleetResult { appliances: fleet.keys.clone(), households: out_households, summary }
}

/// Serves every household against every requested appliance model in one
/// shared pass per feed: [`resolve_fleet`], then [`run_fleet`].
///
/// Models are fetched (lazily loading checkpoints) from `registry` once;
/// the pass runs on its own `Arc`s, so a bounded registry that evicts a
/// model mid-pass cannot pull it from under a shard.
///
/// All requested models must share one training window — a mixed-window
/// fleet cannot share a preprocessing pass and is rejected with
/// [`FleetError::WindowMismatch`].
///
/// ```
/// use camal::ensemble::EnsembleMember;
/// use camal::fleet::{serve_fleet, FleetConfig};
/// use camal::registry::{ModelKey, ModelRegistry};
/// use camal::stream::HouseholdSeries;
/// use camal::{CamalConfig, CamalModel};
/// use nilm_data::prelude::*;
/// use nilm_models::{build_from_spec, BackboneSpec};
///
/// // Two tiny untrained detectors stand in for a trained zoo.
/// let mut registry = ModelRegistry::unbounded();
/// let keys = [
///     ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
///     ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave),
/// ];
/// for (i, &key) in keys.iter().enumerate() {
///     let cfg = CamalConfig { n_ensemble: 1, kernels: vec![5], width_div: 16, ..Default::default() };
///     let mut rng = nilm_tensor::init::rng(i as u64);
///     let spec = BackboneSpec::ResNet { kernel: 5, width_div: 16 };
///     let member = EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.1 };
///     let mut model = CamalModel::from_members(cfg, vec![member]);
///     model.set_window(32);
///     registry.insert(key, model);
/// }
///
/// let feed = HouseholdSeries {
///     id: "house-0".into(),
///     series: TimeSeries::new(vec![150.0; 96], 60),
/// };
/// let out = serve_fleet(&mut registry, &keys, &[feed], &FleetConfig::at_step(60)).unwrap();
/// assert_eq!(out.summary.appliances, 2);
/// assert_eq!(out.summary.inferences, 2 * out.summary.feed_windows_scored);
/// let kettle = out.timeline(0, keys[0]).unwrap();
/// assert_eq!(kettle.raw_status.len(), 96);
/// ```
pub fn serve_fleet(
    registry: &mut ModelRegistry,
    keys: &[ModelKey],
    households: &[HouseholdSeries],
    cfg: &FleetConfig,
) -> Result<FleetResult, FleetError> {
    let fleet = resolve_fleet(registry, keys, cfg)?;
    Ok(run_fleet(&fleet, households, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;
    use crate::ensemble::EnsembleMember;
    use crate::registry::ModelRegistry;
    use crate::stream::serve;
    use crate::stream::StreamConfig;
    use nilm_data::templates::DatasetId;
    use nilm_models::detector::{build_from_spec, BackboneSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const WINDOW: usize = 32;

    fn random_model(kernels: &[usize], seed: u64) -> CamalModel {
        let specs: Vec<BackboneSpec> =
            kernels.iter().map(|&kernel| BackboneSpec::ResNet { kernel, width_div: 16 }).collect();
        model_of(&specs, WINDOW, seed)
    }

    /// An untrained model with one member per spec, at `window`.
    fn model_of(specs: &[BackboneSpec], window: usize, seed: u64) -> CamalModel {
        let cfg = CamalConfig {
            n_ensemble: specs.len(),
            kernels: specs.iter().filter_map(BackboneSpec::kernel).collect(),
            trials: 1,
            width_div: 16,
            ..Default::default()
        };
        let members = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
                EnsembleMember {
                    net: build_from_spec(&mut rng, spec),
                    spec,
                    val_loss: 0.5 + i as f32,
                }
            })
            .collect();
        let mut model = CamalModel::from_members(cfg, members);
        model.set_window(window);
        model
    }

    fn toy_household(n_windows: usize, seed: u64) -> HouseholdSeries {
        let mut rng = nilm_tensor::init::rng(seed);
        let n = n_windows * WINDOW + 5;
        let mut values = Vec::with_capacity(n);
        for t in 0..n {
            let plateau = (t / 12) % 3 == 0;
            let base = if plateau { 1900.0 } else { 140.0 };
            values.push(base + nilm_tensor::init::randn(&mut rng).abs() * 25.0);
        }
        HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, 60) }
    }

    fn kettle_key() -> ModelKey {
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle)
    }

    #[test]
    fn fleet_result_is_rectangular_and_indexed() {
        let mut reg = ModelRegistry::unbounded();
        let k1 = kettle_key();
        let k2 = ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave);
        reg.insert(k1, random_model(&[5], 1));
        reg.insert(k2, random_model(&[7], 2));
        let households = vec![toy_household(4, 1), toy_household(6, 2), toy_household(3, 3)];
        let cfg = FleetConfig { batch: 5, ..FleetConfig::at_step(60) };
        let out = serve_fleet(&mut reg, &[k1, k2], &households, &cfg).unwrap();
        assert_eq!(out.appliances, vec![k1, k2]);
        assert_eq!(out.households.len(), 3);
        for (hh, input) in out.households.iter().zip(&households) {
            assert_eq!(hh.id, input.id);
            assert_eq!(hh.timelines.len(), 2);
            for tl in &hh.timelines {
                assert_eq!(tl.raw_status.len(), input.series.len());
            }
        }
        assert!(out.timeline(1, k2).is_some());
        assert!(out.timeline(1, ModelKey::new(DatasetId::Ideal, ApplianceKind::Shower)).is_none());
        let s = out.summary;
        assert_eq!(s.households, 3);
        assert_eq!(s.appliances, 2);
        assert_eq!(s.window, WINDOW);
        assert_eq!(s.feed_windows_scored, 4 + 6 + 3);
        assert_eq!(s.inferences, 2 * s.feed_windows_scored);
        assert!(s.batches >= 3, "batch of 5 over 13 jobs needs >= 3 assemblies");
    }

    #[test]
    fn empty_key_set_and_mixed_windows_are_rejected() {
        let mut reg = ModelRegistry::unbounded();
        let cfg = FleetConfig::at_step(60);
        let households = vec![toy_household(2, 9)];
        assert!(matches!(
            serve_fleet(&mut reg, &[], &households, &cfg),
            Err(FleetError::NoAppliances)
        ));
        let k1 = kettle_key();
        let k2 = ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher);
        reg.insert(k1, random_model(&[5], 3));
        let mut other = random_model(&[5], 4);
        other.set_window(64);
        reg.insert(k2, other);
        assert!(matches!(
            serve_fleet(&mut reg, &[k1, k2], &households, &cfg),
            Err(FleetError::WindowMismatch { .. })
        ));
        let k3 = ModelKey::new(DatasetId::Refit, ApplianceKind::Dishwasher);
        let mut unknown_window = random_model(&[5], 5);
        unknown_window.set_window(0);
        reg.insert(k3, unknown_window);
        assert!(matches!(
            serve_fleet(&mut reg, &[k3], &households, &cfg),
            Err(FleetError::UnknownWindow(_))
        ));
    }

    #[test]
    fn single_appliance_fleet_matches_stream_serve() {
        // The N=1 fleet must be bit-identical to `stream::serve` — the
        // fleet path is a superset, not a different pipeline.
        let model = random_model(&[5, 7], 11);
        let households = vec![toy_household(5, 4), toy_household(4, 5)];
        let key = kettle_key();
        let tmpl_avg = template(key.dataset).case(key.appliance).unwrap().avg_power_w;
        let stream_cfg = StreamConfig {
            window: WINDOW,
            step_s: 60,
            max_ffill_s: 180,
            batch: 4,
            appliance: Some(key.appliance),
            avg_power_w: tmpl_avg,
        };
        let solo = serve(&model, &households, &stream_cfg);
        let mut reg = ModelRegistry::unbounded();
        reg.insert(key, model);
        let fleet_cfg = FleetConfig { batch: 4, max_ffill_s: 180, ..FleetConfig::at_step(60) };
        let fleet = serve_fleet(&mut reg, &[key], &households, &fleet_cfg).unwrap();
        for (hi, tl) in solo.iter().enumerate() {
            let ftl = fleet.timeline(hi, key).unwrap();
            assert_eq!(ftl.raw_status, tl.raw_status);
            assert_eq!(ftl.status, tl.status);
            let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ftl.detection_proba), bits(&tl.detection_proba));
            assert_eq!(bits(&ftl.power_w), bits(&tl.power_w));
            assert_eq!(ftl.scored_starts, tl.scored_starts);
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        // A mixed ResNet + InceptionTime + TransApp zoo served at 1, 2 and
        // 4 threads: every shard borrows the same models, and the output
        // must not move a bit. The paper-width ResNet member (about 14 M
        // MACs per window) gives the pass several shards' worth of work.
        let mut reg = ModelRegistry::unbounded();
        let k1 = kettle_key();
        let k2 = ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher);
        let mixed = [
            BackboneSpec::ResNet { kernel: 5, width_div: 1 },
            BackboneSpec::InceptionTime { kernel: 3, width_div: 16 },
            BackboneSpec::TransApp { d_model: 8, heads: 2, d_ff: 16, layers: 1, downsample: 4 },
        ];
        reg.insert(k1, model_of(&mixed, WINDOW, 21));
        reg.insert(k2, random_model(&[9], 22));
        let households: Vec<HouseholdSeries> =
            (0..4).map(|i| toy_household(2, 30 + i as u64)).collect();
        let base = FleetConfig { batch: 4, ..FleetConfig::at_step(60) };
        let one = serve_fleet(&mut reg, &[k1, k2], &households, &base).unwrap();
        assert_eq!(one.summary.shards, 1);
        for threads in [2, 4] {
            let cfg = FleetConfig { threads, ..base.clone() };
            let many = serve_fleet(&mut reg, &[k1, k2], &households, &cfg).unwrap();
            assert!(many.summary.shards > 1, "{threads} threads over a heavy pass must shard");
            for (a, b) in one.households.iter().zip(&many.households) {
                assert_eq!(a.id, b.id);
                for (ta, tb) in a.timelines.iter().zip(&b.timelines) {
                    assert_eq!(ta.raw_status, tb.raw_status);
                    assert_eq!(ta.status, tb.status);
                    let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&ta.detection_proba), bits(&tb.detection_proba));
                    assert_eq!(bits(&ta.power_w), bits(&tb.power_w));
                }
            }
        }
    }

    #[test]
    fn interactive_passes_stay_whole_and_bulk_passes_split() {
        // The live_small benchmark pass: a 2-member smoke model (w = 128,
        // width_div 16, kernels 5 and 9) and at most 64 coalesced requests
        // of one window each — about 31 M MACs, under two shards' worth.
        let smoke =
            model_of(&[5, 9].map(|kernel| BackboneSpec::ResNet { kernel, width_div: 16 }), 128, 1);
        let live: Vec<HouseholdSeries> = (0..64)
            .map(|i| HouseholdSeries {
                id: format!("live-{i}"),
                series: TimeSeries::new(vec![150.0; 128], 60),
            })
            .collect();
        let cfg = |threads| FleetConfig { threads, ..FleetConfig::at_step(60) };
        assert_eq!(shard_count(&[&smoke], &live, 128, &cfg(64)), 1);
        // The bulk_localize pass: three quick-scale models (w = 256,
        // width_div 8, kernels 5, 9 and 15) over 4 day-long feeds, one of
        // them at 10 s resolution — 20 windows of about 20 M MACs each.
        let quick = [5, 9, 15].map(|kernel| BackboneSpec::ResNet { kernel, width_div: 8 });
        let zoo: Vec<CamalModel> = (0..3).map(|i| model_of(&quick, 256, i)).collect();
        let zoo: Vec<&CamalModel> = zoo.iter().collect();
        let bulk: Vec<HouseholdSeries> = [10, 60, 60, 60]
            .iter()
            .map(|&step| HouseholdSeries {
                id: format!("bulk-{step}"),
                series: TimeSeries::new(vec![150.0; 86_400 / step as usize], step),
            })
            .collect();
        assert_eq!(shard_count(&zoo, &bulk, 256, &cfg(2)), 2);
        assert_eq!(shard_count(&zoo, &bulk, 256, &cfg(64)), 4, "one shard per household at most");
    }

    #[test]
    fn bounded_registry_survives_single_shard_pass_with_many_keys() {
        // Regression: with max_loaded < keys.len(), the validation loop's
        // later loads evict earlier models; the pass must keep serving the
        // evicted ones from its own `Arc`s, and the budget must hold.
        let dir = std::env::temp_dir().join(format!("camal_fleet_bounded_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let keys = [
            kettle_key(),
            ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave),
            ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher),
        ];
        let mut reg = ModelRegistry::new(1);
        for (i, &key) in keys.iter().enumerate() {
            let path = dir.join(key.file_name());
            random_model(&[5], 50 + i as u64).save(&path).unwrap();
            reg.register_file(key, &path);
        }
        let households = vec![toy_household(3, 41)];
        let cfg = FleetConfig::at_step(60); // threads: 1 -> single shard
        let out = serve_fleet(&mut reg, &keys, &households, &cfg).unwrap();
        assert_eq!(out.summary.shards, 1);
        assert_eq!(out.households[0].timelines.len(), 3);
        assert!(reg.loaded_count() <= 1, "budget must hold after the pass");
        // And the bounded pass matches an unbounded one bit-for-bit.
        let mut unbounded = ModelRegistry::unbounded();
        unbounded.register_dir(&dir).unwrap();
        let free = serve_fleet(&mut unbounded, &keys, &households, &cfg).unwrap();
        for (ta, tb) in out.households[0].timelines.iter().zip(&free.households[0].timelines) {
            assert_eq!(ta.raw_status, tb.raw_status);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resolved_fleet_outlives_its_registry() {
        // The pass runs on the handles the resolve step took: replacing the
        // registry in between (as a server's rebuild after a panic does)
        // must not change a bit of the result.
        let mut reg = ModelRegistry::unbounded();
        let key = kettle_key();
        reg.insert(key, random_model(&[5, 7], 61));
        let households = vec![toy_household(3, 62), toy_household(2, 63)];
        let cfg = FleetConfig { threads: 2, ..FleetConfig::at_step(60) };
        let direct = serve_fleet(&mut reg, &[key], &households, &cfg).unwrap();
        let fleet = resolve_fleet(&mut reg, &[key], &cfg).unwrap();
        drop(std::mem::replace(&mut reg, ModelRegistry::unbounded()));
        let late = run_fleet(&fleet, &households, &cfg);
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for (a, b) in direct.households.iter().zip(&late.households) {
            let (ta, tb) = (&a.timelines[0], &b.timelines[0]);
            assert_eq!(ta.status, tb.status);
            assert_eq!(bits(&ta.detection_proba), bits(&tb.detection_proba));
            assert_eq!(bits(&ta.power_w), bits(&tb.power_w));
        }
        assert!(matches!(
            resolve_fleet(&mut reg, &[key], &cfg),
            Err(FleetError::Registry(RegistryError::Unknown(_)))
        ));
    }

    #[test]
    fn fleet_pass_leaves_registry_residency_unchanged() {
        // Workers share the registry's models; a bounded registry must not
        // thrash.
        let dir = std::env::temp_dir().join(format!("camal_fleet_reg_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = kettle_key();
        let path = dir.join(key.file_name());
        random_model(&[5], 31).save(&path).unwrap();
        let mut reg = ModelRegistry::new(1);
        reg.register_file(key, &path);
        let households = vec![toy_household(3, 40)];
        let cfg = FleetConfig { threads: 2, ..FleetConfig::at_step(60) };
        let _ = serve_fleet(&mut reg, &[key], &households, &cfg).unwrap();
        assert_eq!(reg.loaded_count(), 1);
        assert_eq!(reg.stats().loads, 1, "one lazy load, no thrash");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
