//! Shared logic of the serving binaries (`camal_serve`, `camal_fleet`) and
//! of `run_all`'s serving smoke gates.
//!
//! The single-appliance path (train → checkpoint → reload → stream) and the
//! fleet path (train a per-appliance zoo → registry → shared-pass scheduler)
//! live here as library functions so the "run everything" driver can invoke
//! them in-process instead of shelling out to sibling binaries. Every demo
//! emits a [`nilm_json`]-validated JSON report under the results
//! directory.

use camal::fleet::{serve_fleet, FleetConfig, FleetResult};
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::{serve, HouseholdSeries, StreamConfig};
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::generator::{generate_fleet_scenario, generate_house, SimConfig};
use nilm_data::preprocess::{forward_fill, resample, slice_windows};
use nilm_data::series::TimeSeries;
use nilm_data::templates::{refit, template, DatasetId};
use nilm_data::windows::WindowSet;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::runner::{build_case_data, case_avg_power, Case, Scale};
use nilm_json::JsonValue;

/// Appliance of the single-appliance `camal_serve` demo.
pub const SERVE_APPLIANCE: ApplianceKind = ApplianceKind::Kettle;

/// Returns the value following `flag` in `args`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Parses the numeric value following `flag`, defaulting when absent.
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    arg_value(args, flag).map(|v| v.parse().expect("numeric flag")).unwrap_or(default)
}

/// Repeats every sample so a 60 s simulator series becomes e.g. a 30 s
/// feed — the shape a higher-frequency meter would deliver. The streaming
/// preprocessing immediately resamples it back down to the model step.
pub fn upsample_repeat(s: &TimeSeries, target_step_s: u32) -> TimeSeries {
    assert!(target_step_s > 0 && s.step_s % target_step_s == 0, "target must divide source step");
    let ratio = (s.step_s / target_step_s) as usize;
    let mut out = Vec::with_capacity(s.len() * ratio);
    for &v in &s.values {
        out.extend(std::iter::repeat_n(v, ratio));
    }
    TimeSeries::new(out, target_step_s)
}

/// Simulates `n` households (all owning the target appliance) as
/// month-scale series at `input_step_s`.
pub fn simulated_households(
    n: usize,
    days: usize,
    input_step_s: u32,
    seed: u64,
) -> Vec<HouseholdSeries> {
    let owned: BTreeSet<ApplianceKind> =
        [SERVE_APPLIANCE, ApplianceKind::Dishwasher].into_iter().collect();
    let sim = SimConfig { days, ..SimConfig::default() };
    (0..n)
        .map(|i| HouseholdSeries {
            id: format!("house-{i}"),
            series: upsample_repeat(&generate_house(i, &owned, &sim, seed).aggregate, input_step_s),
        })
        .collect()
}

/// Validates `doc` and writes it as `<name>.json` under the results dir.
pub fn write_summary(doc: &JsonValue, args: &[String], name: &str) {
    let dir = crate::results_dir(args);
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{name}.json"));
    let text = doc.to_pretty();
    nilm_json::validate(&text).expect("emitted summary must be valid JSON");
    std::fs::write(&path, &text).expect("write summary");
    println!("wrote {} (validated)", path.display());
}

// ---------------------------------------------------------------------------
// Single-appliance service (`camal_serve`)
// ---------------------------------------------------------------------------

/// Default checkpoint path of the single-appliance demo.
pub fn serve_ckpt_path(args: &[String]) -> PathBuf {
    arg_value(args, "--ckpt")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::results_dir(args).join("camal_kettle.ckpt"))
}

/// Trains CamAL on the Refit kettle case at `scale` — sweeping the mixed
/// ResNet + TransApp candidate grid, so the served checkpoint can hold a
/// heterogeneous ensemble — and writes a checkpoint at `path`. Returns the
/// trained model.
pub fn train_model(scale: &Scale, path: &Path) -> CamalModel {
    let case = Case { dataset: DatasetId::Refit, appliance: SERVE_APPLIANCE };
    println!("training CamAL ({}) on {} ...", scale.name, case.label());
    let (_, data) = build_case_data(&case, scale);
    let mut model =
        CamalModel::train(&scale.mixed_camal_config(), &data.train, &data.val, scale.threads);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create checkpoint directory");
    }
    model.save(path).expect("write checkpoint");
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved checkpoint {} ({} members, backbones {:?}, {} bytes)",
        path.display(),
        model.ensemble_size(),
        model.describe_members(),
        bytes
    );
    model
}

/// Asserts that a freshly loaded model reproduces the in-memory model
/// bit-for-bit on a probe batch.
pub fn verify_reload(trained: &mut CamalModel, loaded: &mut CamalModel, scale: &Scale) {
    let probe_house = generate_house(
        900,
        &[SERVE_APPLIANCE].into_iter().collect(),
        &SimConfig { days: 2, missing_rate: 0.0, ..SimConfig::default() },
        0xBEEF,
    );
    let tmpl = refit();
    let agg = forward_fill(&resample(&probe_house.aggregate, tmpl.step_s), tmpl.max_ffill_s);
    let set = WindowSet::new(slice_windows(&agg, None, 500.0, scale.window, 0, false));
    assert!(!set.is_empty(), "probe produced no windows");
    let idx: Vec<usize> = (0..set.len().min(8)).collect();
    let x = set.batch_inputs(&idx);
    let a = trained.localize_batch(&x);
    let b = loaded.localize_batch(&x);
    let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
        v.iter().map(|r| r.iter().map(|s| s.to_bits()).collect()).collect()
    };
    assert_eq!(a.status, b.status, "reloaded statuses differ");
    assert_eq!(bits(&a.scores), bits(&b.scores), "reloaded scores differ");
    assert_eq!(
        trained.detect_proba(&x).iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        loaded.detect_proba(&x).iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "reloaded detection probabilities differ"
    );
    println!("reload check: localize_batch is bit-identical after save -> load");
}

/// Asserts the stitched streaming output equals the windowed batch API on
/// the first household (pre-prior). Demo-mode only: the production `serve`
/// path must not pay for re-scoring a household.
fn verify_stream_equivalence(
    model: &mut CamalModel,
    household: &HouseholdSeries,
    timeline: &camal::stream::HouseholdTimeline,
    cfg: &StreamConfig,
) {
    let w = cfg.window;
    // Slice through the *training* pipeline's own window slicer; the
    // timeline's `scored_starts` says which windows streaming actually ran.
    let agg = forward_fill(&resample(&household.series, cfg.step_s), cfg.max_ffill_s);
    let set = WindowSet::new(slice_windows(&agg, None, 500.0, w, 0, false));
    assert_eq!(
        set.len(),
        timeline.scored_starts.len(),
        "streaming scored a different window set than slice_windows produces"
    );
    let loc = model.localize_set(&set, 16);
    for (si, &start) in timeline.scored_starts.iter().enumerate() {
        assert_eq!(
            &timeline.raw_status[start..start + w],
            &loc.status[si][..],
            "stream/batch divergence in window starting at sample {start}"
        );
    }
    println!(
        "equivalence check: {} streamed windows match the batch API exactly (pre-prior)",
        timeline.scored_starts.len()
    );
}

/// Streams simulated households through a loaded model and returns the
/// per-household JSON summary. `verify_equivalence` additionally re-scores
/// the first household through the windowed batch API (demo mode).
pub fn serve_households(
    model: &mut CamalModel,
    scale: &Scale,
    args: &[String],
    ckpt: &Path,
    verify_equivalence: bool,
) -> JsonValue {
    let houses = arg_usize(args, "--houses", 3);
    let days = arg_usize(args, "--days", 30);
    let input_step_s = arg_usize(args, "--input-step-s", 30) as u32;
    if houses == 0 || days == 0 || input_step_s == 0 {
        eprintln!("--houses, --days and --input-step-s must all be >= 1");
        std::process::exit(2);
    }
    let tmpl = refit();
    let households = simulated_households(houses, days, input_step_s, 0x5EBE);
    // The checkpoint records the window length the ensemble was trained at;
    // trust it over whatever scale flag this process happened to get.
    let window = match model.window() {
        0 => scale.window,
        w => {
            if w != scale.window {
                println!(
                    "note: checkpoint was trained at window {w}; ignoring scale window {}",
                    scale.window
                );
            }
            w
        }
    };
    let avg_power_w =
        case_avg_power(&Case { dataset: DatasetId::Refit, appliance: SERVE_APPLIANCE });
    let mut cfg = StreamConfig::for_appliance(window, tmpl.step_s, SERVE_APPLIANCE, avg_power_w);
    cfg.max_ffill_s = tmpl.max_ffill_s;
    println!(
        "serving {houses} households x {days} days @ {input_step_s} s input ({} samples each) ...",
        households[0].series.len()
    );
    let start = std::time::Instant::now();
    let timelines = serve(model, &households, &cfg);
    let secs = start.elapsed().as_secs_f64();
    let total_windows: usize = timelines.iter().map(|t| t.windows_scored).sum();
    println!(
        "scored {total_windows} windows in {secs:.2} s ({:.0} windows/s)",
        total_windows as f64 / secs.max(1e-9)
    );

    if verify_equivalence {
        verify_stream_equivalence(model, &households[0], &timelines[0], &cfg);
    }

    let hh_json: Vec<JsonValue> = timelines
        .iter()
        .map(|tl| {
            JsonValue::object([
                ("id", JsonValue::String(tl.id.clone())),
                ("step_s", JsonValue::Number(tl.step_s as f64)),
                ("samples", JsonValue::Number(tl.status.len() as f64)),
                ("windows_total", JsonValue::Number(tl.windows_total as f64)),
                ("windows_scored", JsonValue::Number(tl.windows_scored as f64)),
                ("windows_detected", JsonValue::Number(tl.windows_detected as f64)),
                ("on_fraction", JsonValue::Number(tl.on_fraction())),
                ("activations", JsonValue::Number(tl.activations() as f64)),
                ("energy_wh", JsonValue::Number(tl.energy_wh())),
            ])
        })
        .collect();
    JsonValue::object([
        ("appliance", JsonValue::String(SERVE_APPLIANCE.name().to_string())),
        ("checkpoint", JsonValue::String(ckpt.display().to_string())),
        ("scale", JsonValue::String(scale.name.to_string())),
        ("days", JsonValue::Number(days as f64)),
        ("input_step_s", JsonValue::Number(input_step_s as f64)),
        ("windows_per_second", JsonValue::Number(total_windows as f64 / secs.max(1e-9))),
        ("households", JsonValue::Array(hh_json)),
    ])
}

/// The full single-appliance demo: train, persist, reload, verify
/// bit-identity, stream, verify stream/batch equivalence, emit the
/// validated summary. This is what `camal_serve demo` and `run_all` run.
pub fn serve_demo(scale: &Scale, args: &[String]) {
    let ckpt = serve_ckpt_path(args);
    let mut trained = train_model(scale, &ckpt);
    let mut model =
        CamalModel::load(&ckpt).unwrap_or_else(|e| panic!("cannot load {}: {e}", ckpt.display()));
    verify_reload(&mut trained, &mut model, scale);
    let doc = serve_households(&mut model, scale, args, &ckpt, true);
    write_summary(&doc, args, "camal_serve");
}

// ---------------------------------------------------------------------------
// Multi-appliance fleet (`camal_fleet`)
// ---------------------------------------------------------------------------

/// The (dataset, appliance) pairs of the demo model zoo: three appliances
/// across two dataset templates, all sampled at 60 s so they can share one
/// fleet preprocessing pass.
pub fn fleet_zoo_keys() -> Vec<ModelKey> {
    vec![
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
        ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave),
        ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher),
    ]
}

/// Directory the fleet zoo checkpoints live in (`--zoo` override).
pub fn fleet_zoo_dir(args: &[String]) -> PathBuf {
    arg_value(args, "--zoo")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::results_dir(args).join("fleet_zoo"))
}

/// Trains one CamAL model per [`fleet_zoo_keys`] entry at `scale` — each
/// over the mixed ResNet + TransApp candidate grid, so the zoo can select
/// heterogeneous ensembles — saving each as `<dataset>_<appliance>.ckpt`
/// under the zoo directory. Returns the trained models, keyed, for
/// demo-mode verification.
pub fn fleet_train_all(scale: &Scale, args: &[String]) -> Vec<(ModelKey, CamalModel)> {
    let zoo = fleet_zoo_dir(args);
    std::fs::create_dir_all(&zoo).expect("create zoo directory");
    let keys = fleet_zoo_keys();
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let case = Case { dataset: key.dataset, appliance: key.appliance };
        println!("training zoo model ({}) on {} ...", scale.name, case.label());
        let (_, data) = build_case_data(&case, scale);
        let mut model =
            CamalModel::train(&scale.mixed_camal_config(), &data.train, &data.val, scale.threads);
        let path = zoo.join(key.file_name());
        model.save(&path).expect("write zoo checkpoint");
        println!(
            "  saved {} ({} members, backbones {:?})",
            path.display(),
            model.ensemble_size(),
            model.describe_members()
        );
        out.push((key, model));
    }
    out
}

/// Builds the simulated multi-dataset household fleet the scheduler serves:
/// `houses_per_template` households from every template the zoo keys draw
/// from.
pub fn fleet_households(
    keys: &[ModelKey],
    houses_per_template: usize,
    days: usize,
    seed: u64,
) -> Vec<HouseholdSeries> {
    let mut datasets: Vec<DatasetId> = keys.iter().map(|k| k.dataset).collect();
    datasets.sort();
    datasets.dedup();
    generate_fleet_scenario(&datasets, houses_per_template, days, seed)
        .iter()
        .map(|fh| HouseholdSeries { id: fh.label(), series: fh.house.aggregate.clone() })
        .collect()
}

/// Asserts the fleet's output for `key` is bit-identical to running the
/// single-appliance streaming service with the same settings — the N=1
/// equivalence the fleet path is built on. Demo-mode only.
fn verify_fleet_equivalence(
    registry: &mut ModelRegistry,
    key: ModelKey,
    households: &[HouseholdSeries],
    fleet: &FleetResult,
    cfg: &FleetConfig,
) {
    let model = registry.get_mut(key).expect("verified key is registered");
    let stream_cfg = StreamConfig {
        window: model.window(),
        step_s: cfg.step_s,
        max_ffill_s: cfg.max_ffill_s,
        batch: cfg.batch,
        appliance: cfg.apply_priors.then_some(key.appliance),
        avg_power_w: template(key.dataset)
            .case(key.appliance)
            .map(|c| c.avg_power_w)
            .unwrap_or(1000.0),
    };
    let solo = serve(model, households, &stream_cfg);
    for (hi, tl) in solo.iter().enumerate() {
        let ftl = fleet.timeline(hi, key).expect("fleet covers every household");
        assert_eq!(ftl.raw_status, tl.raw_status, "fleet/serve divergence at household {hi}");
        assert_eq!(ftl.status, tl.status, "fleet/serve post-prior divergence at household {hi}");
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ftl.power_w), bits(&tl.power_w));
        assert_eq!(bits(&ftl.detection_proba), bits(&tl.detection_proba));
    }
    println!(
        "equivalence check: fleet output for {key} matches camal::stream::serve bit-for-bit \
         across {} households",
        households.len()
    );
}

/// Serves the simulated fleet through the registry and returns the
/// validated JSON report document.
pub fn fleet_serve(
    registry: &mut ModelRegistry,
    scale: &Scale,
    args: &[String],
    verify_equivalence: bool,
) -> JsonValue {
    let keys = registry.keys();
    assert!(!keys.is_empty(), "the registry holds no models; run train-all first");
    let houses_per_template = arg_usize(args, "--houses", 2);
    let days = arg_usize(args, "--days", 3);
    let threads = arg_usize(args, "--threads", scale.threads);
    if houses_per_template == 0 || days == 0 {
        eprintln!("--houses and --days must be >= 1");
        std::process::exit(2);
    }
    // Every zoo template serves at its Table I step. One shared pass per
    // feed requires a single resolution, so reject zoos mixing sampling
    // steps (e.g. an Ideal 600 s model next to the 60 s REFIT/UKDALE ones):
    // checkpoints do not record their step, and scoring a model at the
    // wrong resolution degrades silently.
    let step_s = template(keys[0].dataset).step_s;
    for key in &keys {
        let s = template(key.dataset).step_s;
        assert_eq!(
            s,
            step_s,
            "zoo mixes sampling steps: {} runs at {s} s but {} runs at {step_s} s; \
             serve them as separate fleets",
            key.label(),
            keys[0].label()
        );
    }
    let cfg =
        FleetConfig { step_s, max_ffill_s: 3 * step_s, batch: 64, threads, apply_priors: true };
    let households = fleet_households(&keys, houses_per_template, days, 0xF1EE7);
    println!(
        "serving {} households x {days} days across {} appliance models ({} worker threads) ...",
        households.len(),
        keys.len(),
        threads
    );
    let fleet = serve_fleet(registry, &keys, &households, &cfg)
        .unwrap_or_else(|e| panic!("fleet pass failed: {e}"));
    let s = fleet.summary;
    println!(
        "scored {} windows/feed x {} appliances = {} inferences in {:.2} s ({:.0} windows/s, \
         {} shards)",
        s.feed_windows_scored,
        s.appliances,
        s.inferences,
        s.elapsed_s,
        s.windows_per_second,
        s.shards
    );

    if verify_equivalence {
        verify_fleet_equivalence(registry, keys[0], &households, &fleet, &cfg);
    }

    let manifest_json: Vec<JsonValue> = registry
        .manifest()
        .iter()
        .map(|m| {
            let members: Vec<JsonValue> = m
                .backbones
                .iter()
                .zip(&m.param_counts)
                .map(|(backbone, params)| {
                    JsonValue::object([
                        ("backbone", JsonValue::String(backbone.clone())),
                        ("params", JsonValue::Number(*params as f64)),
                    ])
                })
                .collect();
            JsonValue::object([
                ("key", JsonValue::String(m.key.label())),
                ("loaded", JsonValue::Bool(m.loaded)),
                ("window", JsonValue::Number(m.window as f64)),
                ("ensemble_size", JsonValue::Number(m.ensemble_size as f64)),
                ("members", JsonValue::Array(members)),
            ])
        })
        .collect();
    let hh_json: Vec<JsonValue> = fleet
        .households
        .iter()
        .map(|hh| {
            let per_appliance: BTreeMap<String, JsonValue> = fleet
                .appliances
                .iter()
                .zip(&hh.timelines)
                .map(|(key, tl)| {
                    (
                        key.label(),
                        JsonValue::object([
                            ("windows_detected", JsonValue::Number(tl.windows_detected as f64)),
                            ("on_fraction", JsonValue::Number(tl.on_fraction())),
                            ("activations", JsonValue::Number(tl.activations() as f64)),
                            ("energy_wh", JsonValue::Number(tl.energy_wh())),
                        ]),
                    )
                })
                .collect();
            JsonValue::object([
                ("id", JsonValue::String(hh.id.clone())),
                ("samples", JsonValue::Number(hh.timelines[0].status.len() as f64)),
                ("windows_scored", JsonValue::Number(hh.timelines[0].windows_scored as f64)),
                ("appliances", JsonValue::Object(per_appliance)),
            ])
        })
        .collect();
    let stats = registry.stats();
    JsonValue::object([
        ("scale", JsonValue::String(scale.name.to_string())),
        ("zoo", JsonValue::String(fleet_zoo_dir(args).display().to_string())),
        ("days", JsonValue::Number(days as f64)),
        ("step_s", JsonValue::Number(step_s as f64)),
        ("threads", JsonValue::Number(threads as f64)),
        ("models", JsonValue::Array(manifest_json)),
        (
            "registry_stats",
            JsonValue::object([
                ("hits", JsonValue::Number(stats.hits as f64)),
                ("loads", JsonValue::Number(stats.loads as f64)),
                ("evictions", JsonValue::Number(stats.evictions as f64)),
            ]),
        ),
        (
            "summary",
            JsonValue::object([
                ("households", JsonValue::Number(s.households as f64)),
                ("appliances", JsonValue::Number(s.appliances as f64)),
                ("window", JsonValue::Number(s.window as f64)),
                ("shards", JsonValue::Number(s.shards as f64)),
                ("feed_windows_total", JsonValue::Number(s.feed_windows_total as f64)),
                ("feed_windows_scored", JsonValue::Number(s.feed_windows_scored as f64)),
                ("inferences", JsonValue::Number(s.inferences as f64)),
                ("batches", JsonValue::Number(s.batches as f64)),
                ("elapsed_s", JsonValue::Number(s.elapsed_s)),
                ("windows_per_second", JsonValue::Number(s.windows_per_second)),
            ]),
        ),
        ("households", JsonValue::Array(hh_json)),
    ])
}

/// The full fleet demo: train the zoo, reload every model through the
/// registry (verifying checkpoint bit-stability), serve the simulated
/// fleet, verify the N=1 equivalence, and emit the validated report. This
/// is what `camal_fleet demo` and `run_all` run.
pub fn fleet_demo(scale: &Scale, args: &[String]) {
    let trained = fleet_train_all(scale, args);
    let zoo = fleet_zoo_dir(args);
    let mut registry = ModelRegistry::unbounded();
    let found = registry.register_dir(&zoo).expect("scan zoo directory");
    assert_eq!(found.len(), trained.len(), "registry must discover every trained checkpoint");
    // Reload check: every checkpoint loads through the registry, and a
    // reload re-serializes to the exact bytes the trained model produces
    // (persistence is bit-stable).
    for (key, mut model) in trained {
        registry.get_mut(key).expect("registered model loads");
        let mut reloaded = CamalModel::load(zoo.join(key.file_name())).expect("checkpoint loads");
        assert_eq!(reloaded.to_bytes(), model.to_bytes(), "{key}: reload is not bit-stable");
    }
    println!(
        "reload check: all {} zoo checkpoints are bit-stable through the registry",
        found.len()
    );
    let doc = fleet_serve(&mut registry, scale, args, true);
    write_summary(&doc, args, "camal_fleet");
}
