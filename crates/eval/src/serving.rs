//! Everything the `camal_gateway` binary runs — `train | serve | loadgen |
//! fleet | demo | chaos` — and `run_all`'s serving gate.
//!
//! There is one demo zoo ([`zoo_keys`], fitted by [`train_zoo`] into
//! [`zoo_dir`]) and one oracle: each appliance streamed on its own through
//! [`camal::stream::serve`] under [`oracle_config`], rendered as a localize
//! response by [`oracle_response`]. The in-process fleet pass, the HTTP
//! gateway and the chaos recovery gate are each held byte-identical to it,
//! which is the N=1 equivalence the fleet engine is built on. Every report
//! is [`nilm_json`]-validated before it is written under the results
//! directory. The server itself lives in [`nilm_serve`].

use crate::runner::{build_case_data, Case, Scale};
use camal::fleet::{serve_fleet, FleetConfig, FleetResult};
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::{serve, HouseholdSeries, StreamConfig};
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::generator::generate_fleet_scenario;
use nilm_data::preprocess::{forward_fill, resample, slice_windows};
use nilm_data::series::TimeSeries;
use nilm_data::templates::{template, DatasetId};
use nilm_data::windows::WindowSet;
use nilm_json::JsonValue;
use nilm_serve::http::read_response;
use nilm_serve::protocol::{localize_request, localize_response, Detail, HouseholdRow};
use nilm_serve::{
    run_loadgen, run_loadgen_with, Gateway, GatewayConfig, LoadgenOptions, LoadgenReport,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Windows per inference batch of the in-process fleet pass.
const FLEET_BATCH: usize = 64;

/// Returns the value following `flag` in `args`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Parses the value following `flag` (`None` when the flag is absent).
/// A value that does not parse fails naming both the flag and the value,
/// e.g. `--houses must be an integer, not "x"`.
pub fn arg_parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    // Float flags (`--max-p99-ms`) take any number; the rest are counts.
    let kind = if std::any::type_name::<T>().starts_with('f') { "a number" } else { "an integer" };
    arg_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} must be {kind}, not {v:?}")))
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

/// The demo zoo: three appliances across two dataset templates, all
/// sampled at 60 s so one fleet pass serves them together. The REFIT
/// kettle comes first; it is the model `loadgen` and `chaos` drive.
pub fn zoo_keys() -> [ModelKey; 3] {
    [
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
        ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave),
        ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher),
    ]
}

/// The zoo directory: `--zoo DIR`, else `zoo` under the results directory.
pub fn zoo_dir(args: &[String]) -> PathBuf {
    arg_value(args, "--zoo")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::results_dir(args).join("zoo"))
}

/// Trains one CamAL ensemble per key at `scale` — each over the mixed
/// ResNet + TransApp candidate grid, so the zoo holds heterogeneous
/// ensembles — and saves it as `<dataset>_<appliance>.ckpt` under `zoo`.
/// Returns the trained models for the demo's reload checks.
pub fn train_zoo(scale: &Scale, zoo: &Path, keys: &[ModelKey]) -> Vec<(ModelKey, CamalModel)> {
    std::fs::create_dir_all(zoo).expect("create zoo directory");
    keys.iter()
        .map(|&key| {
            let case = Case { dataset: key.dataset, appliance: key.appliance };
            println!("training CamAL ({}) on {} ...", scale.name, case.label());
            let (_, data) = build_case_data(&case, scale);
            let config = scale.mixed_camal_config();
            let mut model = CamalModel::train(&config, &data.train, &data.val, scale.threads);
            let path = zoo.join(key.file_name());
            model.save(&path).expect("write zoo checkpoint");
            println!(
                "  saved {} ({} members, backbones {:?})",
                path.display(),
                model.ensemble_size(),
                model.describe_members()
            );
            (key, model)
        })
        .collect()
}

/// The sampling step a zoo serves at: every key's Table I step, which must
/// agree. One shared fleet pass needs a single resolution, and checkpoints
/// do not record their step, so a zoo mixing steps (an IDEAL 600 s model
/// next to 60 s REFIT ones) is refused instead of silently scored at the
/// wrong resolution.
pub fn zoo_step_s(keys: &[ModelKey]) -> Result<u32, String> {
    let first = keys.first().ok_or_else(|| "the zoo holds no models".to_string())?;
    let step_s = template(first.dataset).step_s;
    match keys.iter().find(|k| template(k.dataset).step_s != step_s) {
        None => Ok(step_s),
        Some(k) => Err(format!(
            "zoo mixes sampling steps: {} runs at {} s but {} runs at {step_s} s; \
             serve them as separate fleets",
            k.label(),
            template(k.dataset).step_s,
            first.label()
        )),
    }
}

/// The oracle's settings for `key`: a single-appliance [`serve`] run with
/// the fleet's and the gateway's preprocessing (Table I step, 3-sample
/// forward-fill), the appliance's duration priors and its §IV-C average
/// power.
pub fn oracle_config(key: ModelKey, window: usize, batch: usize) -> StreamConfig {
    let tmpl = template(key.dataset);
    let avg_power_w = tmpl.case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0);
    StreamConfig {
        batch,
        ..StreamConfig::for_appliance(window, tmpl.step_s, key.appliance, avg_power_w)
    }
}

/// The oracle's localize response body: every model streamed over
/// `households` on its own through [`serve`] under [`oracle_config`], then
/// rendered exactly as the gateway renders a fleet pass.
pub fn oracle_response(
    models: &[(ModelKey, &CamalModel)],
    households: &[HouseholdSeries],
    batch: usize,
    detail: Detail,
) -> String {
    let keys: Vec<ModelKey> = models.iter().map(|&(key, _)| key).collect();
    let per_key: Vec<_> = models
        .iter()
        .map(|&(key, model)| serve(model, households, &oracle_config(key, model.window(), batch)))
        .collect();
    let rows: Vec<HouseholdRow> = households
        .iter()
        .enumerate()
        .map(|(hi, hh)| HouseholdRow {
            id: &hh.id,
            degraded: None,
            timelines: per_key.iter().map(|t| &t[hi]).collect(),
        })
        .collect();
    localize_response(&keys, &rows, detail).to_compact()
}

/// A fleet pass's households as localize response rows.
fn fleet_rows(fleet: &FleetResult) -> Vec<HouseholdRow<'_>> {
    fleet
        .households
        .iter()
        .map(|hh| HouseholdRow {
            id: &hh.id,
            degraded: hh.degraded.as_deref(),
            timelines: hh.timelines.iter().collect(),
        })
        .collect()
}

/// Serves a simulated fleet — `--houses` households per dataset template
/// (default 2) of `--days` days (default 3) — through one in-process
/// [`serve_fleet`] pass over every registered model, sharded over
/// `--threads` workers. Returns the households, the pass and its report.
pub fn fleet_serve(
    registry: &mut ModelRegistry,
    scale: &Scale,
    args: &[String],
) -> (Vec<HouseholdSeries>, FleetResult, JsonValue) {
    let keys = registry.keys();
    let houses: usize = arg_parse(args, "--houses").unwrap_or(2);
    let days: usize = arg_parse(args, "--days").unwrap_or(3);
    let threads = arg_parse(args, "--threads").unwrap_or(scale.threads);
    if houses == 0 || days == 0 {
        eprintln!("--houses and --days must be >= 1");
        std::process::exit(2);
    }
    let step_s = zoo_step_s(&keys).unwrap_or_else(|e| panic!("{e}"));
    let cfg = FleetConfig { batch: FLEET_BATCH, threads, ..FleetConfig::at_step(step_s) };
    let mut datasets: Vec<DatasetId> = keys.iter().map(|k| k.dataset).collect();
    datasets.sort();
    datasets.dedup();
    let households: Vec<HouseholdSeries> =
        generate_fleet_scenario(&datasets, houses, days, 0xF1EE7)
            .iter()
            .map(|fh| HouseholdSeries { id: fh.label(), series: fh.house.aggregate.clone() })
            .collect();
    println!(
        "fleet: {} households x {days} days across {} models ({threads} worker threads) ...",
        households.len(),
        keys.len()
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
    let num = |v: usize| JsonValue::Number(v as f64);
    let models: Vec<JsonValue> = registry
        .manifest()
        .iter()
        .map(|m| {
            let members = m.backbones.iter().zip(&m.param_counts).map(|(backbone, &params)| {
                JsonValue::object([
                    ("backbone", JsonValue::String(backbone.clone())),
                    ("params", num(params)),
                ])
            });
            JsonValue::object([
                ("key", JsonValue::String(m.key.label())),
                ("loaded", JsonValue::Bool(m.loaded)),
                ("window", num(m.window)),
                ("ensemble_size", num(m.ensemble_size)),
                ("members", JsonValue::Array(members.collect())),
            ])
        })
        .collect();
    let stats = registry.stats();
    let rows = localize_response(&fleet.appliances, &fleet_rows(&fleet), Detail::Summary);
    let doc = JsonValue::object([
        ("scale", JsonValue::String(scale.name.to_string())),
        ("zoo", JsonValue::String(zoo_dir(args).display().to_string())),
        ("days", num(days)),
        ("step_s", num(step_s as usize)),
        ("threads", num(threads)),
        ("models", JsonValue::Array(models)),
        (
            "registry_stats",
            JsonValue::object([
                ("hits", num(stats.hits as usize)),
                ("loads", num(stats.loads as usize)),
                ("evictions", num(stats.evictions as usize)),
            ]),
        ),
        (
            "summary",
            JsonValue::object([
                ("households", num(s.households)),
                ("appliances", num(s.appliances)),
                ("window", num(s.window)),
                ("shards", num(s.shards)),
                ("feed_windows_total", num(s.feed_windows_total)),
                ("feed_windows_scored", num(s.feed_windows_scored)),
                ("inferences", num(s.inferences)),
                ("batches", num(s.batches)),
                ("elapsed_s", JsonValue::Number(s.elapsed_s)),
                ("windows_per_second", JsonValue::Number(s.windows_per_second)),
            ]),
        ),
        ("households", rows.get("households").cloned().expect("response has households")),
    ]);
    (households, fleet, doc)
}

/// Builds the [`GatewayConfig`] from CLI flags (`--addr`, `--queue`,
/// `--max-coalesce`, `--batch`, `--deadline-ms`).
pub fn gateway_config(args: &[String]) -> GatewayConfig {
    let mut cfg = GatewayConfig::default();
    if let Some(addr) = arg_value(args, "--addr") {
        cfg.addr = addr;
    }
    cfg.queue_capacity = arg_parse(args, "--queue").unwrap_or(cfg.queue_capacity);
    cfg.max_coalesce = arg_parse(args, "--max-coalesce").unwrap_or(cfg.max_coalesce);
    cfg.batch_windows = arg_parse(args, "--batch").unwrap_or(cfg.batch_windows);
    cfg.deadline =
        arg_parse(args, "--deadline-ms").map(Duration::from_millis).unwrap_or(cfg.deadline);
    cfg
}

/// A deterministic synthetic household of `windows × window` samples at
/// `step_s`: square kettle-like plateaus over base load plus noise.
pub fn synth_household(windows: usize, window: usize, step_s: u32, seed: u64) -> HouseholdSeries {
    let mut rng = nilm_tensor::init::rng(seed);
    let values = (0..windows * window)
        .map(|t| {
            let base = if (t / 11) % 4 == (seed % 3) as usize { 2050.0 } else { 145.0 };
            base + nilm_tensor::init::randn(&mut rng).abs() * 22.0
        })
        .collect();
    HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, step_s) }
}

/// One blocking request against the gateway (`body` is sent when
/// non-empty); panics on transport errors, since these helpers drive demos
/// and CI gates, where failing loudly is the point.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("cannot connect to gateway at {addr}: {e}"));
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    let sized = if body.is_empty() {
        String::new()
    } else {
        format!("Content-Type: application/json\r\nContent-Length: {}\r\n", body.len())
    };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: gateway\r\n{sized}Connection: close\r\n\r\n{body}"
    );
    (&stream).write_all(request.as_bytes()).expect("send request");
    let response = read_response(&mut BufReader::new(&stream)).expect("read response");
    (response.status, response.body_str().expect("UTF-8 body").to_string())
}

/// A [`LoadgenReport`] as JSON.
pub fn loadgen_json(r: &LoadgenReport) -> JsonValue {
    let by_status = r.by_status.iter().map(|(s, &n)| (s.to_string(), JsonValue::Number(n as f64)));
    JsonValue::object([
        ("connections", JsonValue::Number(r.connections as f64)),
        ("ok", JsonValue::Number(r.ok as f64)),
        ("errors", JsonValue::Number(r.errors as f64)),
        ("by_status", JsonValue::Object(by_status.collect())),
        ("missing_retry_after", JsonValue::Number(r.missing_retry_after as f64)),
        ("elapsed_s", JsonValue::Number(r.elapsed_s)),
        ("requests_per_second", JsonValue::Number(r.requests_per_second)),
        ("p50_ms", JsonValue::Number(r.p50_ms)),
        ("p99_ms", JsonValue::Number(r.p99_ms)),
        ("mean_ms", JsonValue::Number(r.mean_ms)),
        ("body_bytes", JsonValue::Number(r.body_bytes as f64)),
    ])
}

/// The full latency distribution of a run as JSON: summary statistics plus
/// every nonzero HDR bucket (`le_ms` upper edge → cumulative-free count),
/// so offline tooling can compute any quantile without the raw samples.
pub fn latency_histogram_json(r: &LoadgenReport) -> JsonValue {
    let h = &r.latency;
    let buckets = h.nonzero_buckets().map(|(le_ms, count)| {
        JsonValue::object([
            ("le_ms", JsonValue::Number(le_ms)),
            ("count", JsonValue::Number(count as f64)),
        ])
    });
    JsonValue::object([
        ("count", JsonValue::Number(h.count() as f64)),
        ("mean_ms", JsonValue::Number(h.mean_ms())),
        ("min_ms", JsonValue::Number(h.min_ms())),
        ("max_ms", JsonValue::Number(h.max_ms())),
        ("p50_ms", JsonValue::Number(h.quantile_ms(0.50))),
        ("p90_ms", JsonValue::Number(h.quantile_ms(0.90))),
        ("p99_ms", JsonValue::Number(h.quantile_ms(0.99))),
        ("p999_ms", JsonValue::Number(h.quantile_ms(0.999))),
        ("buckets", JsonValue::Array(buckets.collect())),
    ])
}

fn print_report(label: &str, r: &LoadgenReport) {
    println!(
        "  {label:<12} {:2} conn  {:5} ok {:3} err  {:7.1} req/s  p50 {:7.2} ms  p99 {:7.2} ms",
        r.connections, r.ok, r.errors, r.requests_per_second, r.p50_ms, r.p99_ms
    );
}

/// Queries `GET /v1/models` and returns `(window, step_s)` of `key`,
/// panicking when the gateway does not serve it.
pub fn model_geometry(addr: &str, key: ModelKey) -> (usize, u32) {
    let (status, body) = http(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200, "GET /v1/models failed: {body}");
    let doc = nilm_json::parse(&body).expect("models response is valid JSON");
    let label = key.label();
    let row = doc
        .get("models")
        .and_then(JsonValue::as_array)
        .and_then(|rows| {
            rows.iter().find(|r| r.get("key").and_then(JsonValue::as_str) == Some(&label))
        })
        .unwrap_or_else(|| panic!("gateway does not serve {label}: {body}"));
    let window = row.get("window").and_then(JsonValue::as_usize).expect("window");
    let step_s = row.get("step_s").and_then(JsonValue::as_usize).expect("step_s") as u32;
    (window, step_s)
}

/// Runs the loadgen mode against a running gateway and returns the
/// validated report document. Flags: `--connections`, `--requests`,
/// `--houses`, `--request-windows`, `--detail full|summary`, `--pipeline`
/// (requests written per burst before reading responses), plus two
/// optional hard gates that make the run fail loudly for CI:
/// `--max-errors N` (non-200 count may not exceed N) and `--max-p99-ms F`
/// (p99 latency bound). `--latency-json PATH` additionally dumps the full
/// latency histogram (HDR buckets + p50/p90/p99/p999) to `PATH`.
pub fn loadgen_run(addr: &str, args: &[String]) -> JsonValue {
    let connections = arg_parse(args, "--connections").unwrap_or(4);
    let requests = arg_parse(args, "--requests").unwrap_or(64);
    let houses: usize = arg_parse(args, "--houses").unwrap_or(1);
    let windows: usize = arg_parse(args, "--request-windows").unwrap_or(8);
    let pipeline = arg_parse(args, "--pipeline").unwrap_or(1);
    let detail = match arg_value(args, "--detail").as_deref() {
        None | Some("full") => Detail::Full,
        Some("summary") => Detail::Summary,
        Some(other) => panic!("--detail must be full or summary, not {other:?}"),
    };
    let keep_alive = !args.iter().any(|a| a == "--no-keepalive");
    let key = zoo_keys()[0];
    let (window, step_s) = model_geometry(addr, key);
    let households: Vec<HouseholdSeries> =
        (0..houses).map(|i| synth_household(windows, window, step_s, 0x10AD + i as u64)).collect();
    let body = localize_request(&[key], &households, detail).to_compact();
    println!(
        "loadgen: {requests} requests x {houses} household(s) x {windows} windows over \
         {connections} {} connection(s) (pipeline depth {pipeline}) against {addr}",
        if keep_alive { "keep-alive" } else { "one-shot" }
    );
    let opts = LoadgenOptions {
        connections,
        total_requests: requests,
        keep_alive,
        pipeline,
        ..LoadgenOptions::default()
    };
    let report =
        run_loadgen_with(addr, &body, &opts).unwrap_or_else(|e| panic!("loadgen failed: {e}"));
    print_report("loadgen", &report);
    if let Some(max_errors) = arg_parse::<usize>(args, "--max-errors") {
        assert!(
            report.errors <= max_errors,
            "loadgen gate failed: {} non-200 responses (allowed {max_errors}): {:?}",
            report.errors,
            report.by_status
        );
    }
    if let Some(max_p99) = arg_parse::<f64>(args, "--max-p99-ms") {
        assert!(
            report.p99_ms <= max_p99,
            "loadgen gate failed: p99 {:.2}ms exceeds the {max_p99}ms bound",
            report.p99_ms
        );
    }
    if let Some(path) = arg_value(args, "--latency-json") {
        let text = latency_histogram_json(&report).to_pretty();
        nilm_json::validate(&text).expect("latency histogram must serialize to valid JSON");
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  latency histogram -> {path}");
    }
    JsonValue::object([
        ("schema", JsonValue::String("camal_gateway_loadgen/v1".into())),
        ("addr", JsonValue::String(addr.to_string())),
        ("requests", JsonValue::Number(requests as f64)),
        ("houses_per_request", JsonValue::Number(houses as f64)),
        ("windows_per_house", JsonValue::Number(windows as f64)),
        ("keep_alive", JsonValue::Bool(keep_alive)),
        ("pipeline", JsonValue::Number(pipeline as f64)),
        ("report", loadgen_json(&report)),
    ])
}

/// Gates 2 and 3 of [`demo`] on one fleet household fed at 30 s (twice
/// the model resolution, as a faster meter would deliver it): streaming it
/// scores exactly the windows `slice_windows` cuts and matches
/// `localize_set` pre-prior, and on those windows the reloaded model's
/// `localize_batch` and `detect_proba` are bit-identical to the trained
/// model's.
fn check_kettle(key: ModelKey, trained: &CamalModel, reloaded: &CamalModel, hh: &HouseholdSeries) {
    let values = hh.series.values.iter().flat_map(|&v| [v, v]).collect();
    let series = TimeSeries::new(values, hh.series.step_s / 2);
    let feed = HouseholdSeries { id: hh.id.clone(), series };
    let w = reloaded.window();
    let cfg = oracle_config(key, w, FLEET_BATCH);
    let timeline = &serve(reloaded, std::slice::from_ref(&feed), &cfg)[0];
    let agg = forward_fill(&resample(&feed.series, cfg.step_s), cfg.max_ffill_s);
    let set = WindowSet::new(slice_windows(&agg, None, 500.0, w, 0, false));
    assert_eq!(set.len(), timeline.scored_starts.len(), "stream scored a different window set");
    let loc = reloaded.localize_set(&set, 16);
    for (si, &start) in timeline.scored_starts.iter().enumerate() {
        let streamed = &timeline.raw_status[start..start + w];
        assert_eq!(streamed, &loc.status[si][..], "stream/batch divergence at sample {start}");
    }
    let x = set.batch_inputs(&(0..set.len().min(8)).collect::<Vec<_>>());
    let (a, b) = (trained.localize_batch(&x), reloaded.localize_batch(&x));
    let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.status, b.status, "reloaded statuses differ");
    assert!(a.scores.iter().zip(&b.scores).all(|(p, q)| bits(p) == bits(q)), "scores differ");
    assert_eq!(bits(&trained.detect_proba(&x)), bits(&reloaded.detect_proba(&x)));
    println!(
        "gates 2+3: {} streamed windows at 30 s input match localize_set; reloaded {key} is \
         bit-identical to the trained model",
        set.len()
    );
}

/// `models` as oracle input, in the appliance order of the response it
/// is compared with.
fn in_order<'a>(
    models: &'a [(ModelKey, CamalModel)],
    order: &[ModelKey],
) -> Vec<(ModelKey, &'a CamalModel)> {
    order.iter().map(|&k| (k, &models.iter().find(|(m, _)| *m == k).expect("zoo key").1)).collect()
}

/// The one end-to-end serving demo, run by `camal_gateway demo`, `run_all`
/// and CI. Trains the zoo once, then gates, in one process:
/// 1. `register_dir` finds every checkpoint and each reloads byte-stably;
/// 2. + 3. see `check_kettle` (reload bit-identity, stream == batch API);
/// 4. the fleet pass equals the oracle for every zoo key;
/// 5. `/healthz` answers 200 and `POST /v1/localize` naming every zoo key
///    is byte-identical to the oracle;
/// 6. concurrent keep-alive loadgen beats sequential single requests with
///    zero errors (medians of 3 alternating rounds);
/// 7. a zoo mixing sampling steps is rejected;
/// 8. every report is `nilm_json`-validated (`camal_gateway.json`).
pub fn demo(scale: &Scale, args: &[String]) {
    let zoo = zoo_dir(args);
    let keys = zoo_keys();
    let mut trained = train_zoo(scale, &zoo, &keys);
    let mut registry = ModelRegistry::unbounded();
    let found = registry.register_dir(&zoo).expect("scan zoo directory");
    assert_eq!(found.len(), keys.len(), "{} holds checkpoints beyond the demo zoo", zoo.display());
    let mut reloaded = Vec::new();
    for (key, model) in &mut trained {
        assert!(found.contains(key), "register_dir missed {key} under {}", zoo.display());
        let mut back = CamalModel::load(zoo.join(key.file_name())).expect("checkpoint loads");
        assert_eq!(back.to_bytes(), model.to_bytes(), "{key}: reload is not byte-stable");
        reloaded.push(back);
    }
    println!("gate 1: register_dir found all {} checkpoints; each reloads byte-stably", keys.len());

    let mixed = [keys[0], ModelKey::new(DatasetId::Ideal, ApplianceKind::Kettle)];
    assert_eq!(zoo_step_s(&keys), Ok(60));
    let refusal = zoo_step_s(&mixed).expect_err("a zoo mixing 60 s and 600 s must be refused");
    println!("gate 7: {refusal}");

    let (households, fleet, fleet_doc) = fleet_serve(&mut registry, scale, args);
    let fleet_body = localize_response(&fleet.appliances, &fleet_rows(&fleet), Detail::Full);
    let expected = oracle_response(
        &in_order(&trained, &fleet.appliances),
        &households,
        FLEET_BATCH,
        Detail::Full,
    );
    assert!(fleet_body.to_compact() == expected, "fleet pass diverges from stream::serve");
    println!("gate 4: fleet pass matches stream::serve bit-for-bit for all {} keys", keys.len());
    check_kettle(keys[0], &trained[0].1, &reloaded[0], &households[0]);

    let cfg = gateway_config(args);
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway must bind and warm up");
    let addr = gateway.addr().to_string();
    let (status, health) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz failed: {health}");
    let window = trained[0].1.window();
    let windows = arg_parse(args, "--request-windows").unwrap_or(8);
    let requested: Vec<HouseholdSeries> =
        (0..2).map(|i| synth_household(windows, window, 60, 7 + i)).collect();
    let body = localize_request(&keys, &requested, Detail::Full).to_compact();
    let (status, got) = http(&addr, "POST", "/v1/localize", &body);
    assert_eq!(status, 200, "localize failed: {got}");
    nilm_json::validate(&got).expect("localize response must be valid JSON");
    let expected = oracle_response(&in_order(&trained, &keys), &requested, batch, Detail::Full);
    assert!(got == expected, "gateway response differs from the stream::serve oracle");
    println!(
        "gate 5: /healthz 200 on {addr}; POST /v1/localize for every zoo key matches the oracle"
    );

    // Gate 6 — the baseline is the same workload as sequential single
    // requests, one connection each: TCP setup per request and no batcher
    // coalescing. Against it, `--connections` concurrent keep-alive
    // connections, which the batcher coalesces into shared fleet passes.
    // Sequential keep-alive is reported too, keeping the connection-reuse
    // and coalescing contributions apart.
    let requests: usize =
        arg_parse(args, "--requests").unwrap_or(if scale.name == "smoke" { 600 } else { 2000 });
    let bench_conns = arg_parse::<usize>(args, "--connections").unwrap_or(8).max(4);
    let bench_windows: usize = arg_parse(args, "--bench-windows").unwrap_or(1);
    let bench_body = localize_request(
        &keys[..1],
        &[synth_household(bench_windows, window, 60, 99)],
        Detail::Summary,
    )
    .to_compact();
    let mut runs: [Vec<LoadgenReport>; 3] = Default::default();
    for round in 0..3 {
        for (i, (label, conns, keep_alive)) in
            [("seq-single", 1, false), ("seq-ka", 1, true), ("concurrent", bench_conns, true)]
                .into_iter()
                .enumerate()
        {
            let r = run_loadgen(&addr, conns, requests, &bench_body, keep_alive)
                .unwrap_or_else(|e| panic!("{label} loadgen failed: {e}"));
            print_report(&format!("{label} #{round}"), &r);
            assert_eq!(r.errors, 0, "no request may be shed in the demo");
            runs[i].push(r);
        }
    }
    let [sequential, sequential_keepalive, concurrent] = runs.map(|mut rs| {
        rs.sort_by(|a, b| a.requests_per_second.total_cmp(&b.requests_per_second));
        rs.swap_remove(1)
    });
    let speedup = concurrent.requests_per_second / sequential.requests_per_second.max(1e-9);
    assert!(
        speedup > 1.0,
        "the concurrent gateway must beat sequential single requests: median {:.1} req/s at \
         {bench_conns} connections vs {:.1} req/s sequential",
        concurrent.requests_per_second,
        sequential.requests_per_second
    );
    println!("gate 6: {speedup:.2}x median requests/s at {bench_conns} connections vs sequential");

    let (status, metrics) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = JsonValue::object([
        ("schema", JsonValue::String("camal_gateway/v1".into())),
        ("scale", JsonValue::String(scale.name.to_string())),
        ("zoo", JsonValue::String(zoo.display().to_string())),
        ("window", JsonValue::Number(window as f64)),
        ("requests", JsonValue::Number(requests as f64)),
        ("windows_per_request", JsonValue::Number(bench_windows as f64)),
        ("sequential_single", loadgen_json(&sequential)),
        ("sequential_keepalive", loadgen_json(&sequential_keepalive)),
        ("concurrent", loadgen_json(&concurrent)),
        ("speedup", JsonValue::Number(speedup)),
        ("metrics", nilm_json::parse(&metrics).expect("metrics must be valid JSON")),
        ("fleet", fleet_doc),
    ]);
    gateway.shutdown();
    println!("gateway shut down cleanly");
    write_summary(&doc, args, "camal_gateway");
}

/// The chaos gate: train the kettle key → serve its checkpoint file-backed
/// → arm batcher panics and checkpoint-corruption faults (default 10%
/// each) → fire a `>= 200`-request loadgen → assert **zero hangs and zero
/// 500s** (every request answers 200 or 503, every 503 carries
/// `Retry-After`) → disarm → assert the gateway recovers to responses
/// **byte-identical** to the oracle. Flags: `--requests`, `--connections`,
/// `--rate-pct`, `--deadline-ms`, `--zoo`, `--out`.
pub fn chaos(scale: &Scale, args: &[String]) {
    let zoo = zoo_dir(args);
    let key = zoo_keys()[0];
    let (_, trained) = train_zoo(scale, &zoo, &[key]).pop().expect("one trained model");

    // File-backed on purpose: after an injected batcher panic the rebuilt
    // registry must reload from disk, which is where the corruption fault
    // bites.
    let mut registry = ModelRegistry::unbounded();
    registry.register_file(key, zoo.join(key.file_name()));
    let mut cfg = gateway_config(args);
    // Bound every request tightly so an injected wedge turns into a
    // timely 503 instead of a 60 s client timeout.
    cfg.deadline =
        arg_parse(args, "--deadline-ms").map_or(Duration::from_secs(10), Duration::from_millis);
    let batch = cfg.batch_windows;
    let gateway =
        Gateway::start(registry, cfg).unwrap_or_else(|e| panic!("cannot start gateway: {e}"));
    let addr = gateway.addr().to_string();
    println!("chaos gateway listening on {addr}");

    let households: Vec<HouseholdSeries> =
        (0..2).map(|i| synth_household(4, trained.window(), 60, 51 + i)).collect();
    let body = localize_request(&[key], &households, Detail::Full).to_compact();
    let expected = oracle_response(&[(key, &trained)], &households, batch, Detail::Full);

    // Pre-chaos sanity: healthy responses match the oracle byte-for-byte.
    let (status, got) = http(&addr, "POST", "/v1/localize", &body);
    assert_eq!(status, 200, "pre-chaos localize failed: {got}");
    assert_eq!(got, expected, "pre-chaos response differs from stream::serve");

    let requests = arg_parse::<usize>(args, "--requests").unwrap_or(240).max(200);
    let connections = arg_parse(args, "--connections").unwrap_or(4);
    let rate = arg_parse(args, "--rate-pct").unwrap_or(10usize).min(100) as f64 / 100.0;
    println!(
        "arming faults: batcher.panic and persist.load.corrupt at {:.0}%, \
         {requests} requests over {connections} keep-alive connections",
        rate * 100.0
    );
    nilm_fault::arm("batcher.panic", rate, 7);
    nilm_fault::arm("persist.load.corrupt", rate, 11);
    let report = run_loadgen(&addr, connections, requests, &body, true)
        .unwrap_or_else(|e| panic!("chaos loadgen failed (a connection died or hung): {e}"));
    nilm_fault::disarm_all();
    print_report("chaos", &report);

    // Hard gates: every request answered, nothing but 200/503, every 503
    // tells the client when to retry.
    let completed: usize = report.by_status.values().sum();
    assert_eq!(completed, requests, "every request must complete — zero hangs");
    assert!(
        report.by_status.keys().all(|s| *s == 200 || *s == 503),
        "only 200 and 503 are acceptable under chaos, got statuses {:?}",
        report.by_status
    );
    assert_eq!(report.missing_retry_after, 0, "every 503 must carry Retry-After");
    assert!(report.ok > 0, "the gateway must keep serving successes under chaos");
    let shed = report.by_status.get(&503).copied().unwrap_or(0);
    println!(
        "chaos verdict: {} x 200, {shed} x 503 (all with Retry-After), 0 x 500, 0 hangs",
        report.ok
    );

    // Recovery gate: with faults disarmed the gateway must return to
    // byte-identical responses. A quarantine window opened by the last
    // injected corruption may still be draining — poll briefly.
    let mut recovered = None;
    for _ in 0..40 {
        let (status, got) = http(&addr, "POST", "/v1/localize", &body);
        if status == 200 {
            recovered = Some(got);
            break;
        }
        assert_eq!(status, 503, "post-chaos recovery saw status {status}: {got}");
        std::thread::sleep(Duration::from_millis(250));
    }
    let recovered = recovered.expect("gateway did not recover to 200 within 10s of disarming");
    assert_eq!(recovered, expected, "post-chaos response differs from the stream::serve baseline");
    println!("recovery: fault-free response is byte-identical to camal::stream::serve");

    let (status, metrics) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics_doc = nilm_json::parse(&metrics).expect("metrics must be valid JSON");
    for counter in ["batcher_restarts", "deadline_timeouts", "shard_retries_total"] {
        let v = metrics_doc.get(counter).and_then(JsonValue::as_usize).expect("counter");
        println!("  {counter}: {v}");
    }
    let doc = JsonValue::object([
        ("schema", JsonValue::String("camal_gateway_chaos/v1".into())),
        ("scale", JsonValue::String(scale.name.to_string())),
        ("requests", JsonValue::Number(requests as f64)),
        ("fault_rate", JsonValue::Number(rate)),
        ("report", loadgen_json(&report)),
        ("recovered_byte_identical", JsonValue::Bool(true)),
        ("metrics", metrics_doc),
    ]);
    gateway.shutdown();
    println!("gateway shut down cleanly");
    write_summary(&doc, args, "camal_gateway_chaos");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_step_s_accepts_one_resolution_and_names_both_keys_of_a_mix() {
        let refit = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        let ukdale = ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher);
        let ideal = ModelKey::new(DatasetId::Ideal, ApplianceKind::Kettle);
        assert_eq!(zoo_step_s(&[refit, ukdale]), Ok(60));
        let err = zoo_step_s(&[refit, ideal]).unwrap_err();
        assert!(err.contains(&refit.label()) && err.contains(&ideal.label()), "{err}");
        assert!(zoo_step_s(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "--houses must be an integer, not \"x\"")]
    fn arg_parse_names_the_flag_and_the_value() {
        let args: Vec<String> = ["fleet", "--houses", "x"].map(String::from).to_vec();
        arg_parse::<usize>(&args, "--houses");
    }
}
