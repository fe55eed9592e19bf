//! Shared logic of the `camal_gateway` binary and `run_all`'s gateway
//! smoke gate: train-a-checkpoint, serve-it-over-HTTP, hammer-it-with-
//! loadgen, and the demo that does all three in one process and proves the
//! micro-batching win.
//!
//! The gateway itself lives in [`nilm_serve`]; this module provides the
//! operator-facing glue: zoo/checkpoint handling, synthetic request
//! bodies, single-shot HTTP helpers, loadgen report JSON and the
//! end-to-end demo with its two gates (byte-identical responses vs a
//! direct [`camal::stream::serve`] run, and concurrent loadgen beating the
//! same workload issued sequentially).

use crate::runner::Scale;
use crate::serving::{self, arg_usize, arg_value, SERVE_APPLIANCE};
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::{serve, HouseholdSeries, StreamConfig};
use nilm_data::series::TimeSeries;
use nilm_data::templates::{template, DatasetId};
use nilm_json::JsonValue;
use nilm_serve::http::read_response;
use nilm_serve::protocol::{localize_request, localize_response, Detail, HouseholdRow};
use nilm_serve::{
    run_loadgen, run_loadgen_with, Gateway, GatewayConfig, LoadgenOptions, LoadgenReport,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// The demo/CI gateway model: the Refit kettle case (same as
/// `camal_serve`).
pub fn gateway_key() -> ModelKey {
    ModelKey::new(DatasetId::Refit, SERVE_APPLIANCE)
}

/// Checkpoint directory the gateway serves from (`--zoo` override).
pub fn gateway_zoo_dir(args: &[String]) -> PathBuf {
    arg_value(args, "--zoo")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::results_dir(args).join("gateway_zoo"))
}

/// Builds the [`GatewayConfig`] from CLI flags (`--addr`, `--queue`,
/// `--max-coalesce`, `--batch`, `--deadline-ms`).
pub fn gateway_config(args: &[String]) -> GatewayConfig {
    let mut cfg = GatewayConfig::default();
    if let Some(addr) = arg_value(args, "--addr") {
        cfg.addr = addr;
    }
    cfg.queue_capacity = arg_usize(args, "--queue", cfg.queue_capacity);
    cfg.max_coalesce = arg_usize(args, "--max-coalesce", cfg.max_coalesce);
    cfg.batch_windows = arg_usize(args, "--batch", cfg.batch_windows);
    cfg.deadline =
        Duration::from_millis(
            arg_usize(args, "--deadline-ms", cfg.deadline.as_millis() as usize) as u64
        );
    cfg
}

/// A deterministic synthetic household of `windows × window` samples at
/// `step_s`: square kettle-like plateaus over base load plus noise.
pub fn synth_household(windows: usize, window: usize, step_s: u32, seed: u64) -> HouseholdSeries {
    let mut rng = nilm_tensor::init::rng(seed);
    let n = windows * window;
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let plateau = (t / 11) % 4 == (seed % 3) as usize;
        let base = if plateau { 2050.0 } else { 145.0 };
        values.push(base + nilm_tensor::init::randn(&mut rng).abs() * 22.0);
    }
    HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, step_s) }
}

/// The loadgen request body: `houses` synthetic households of
/// `windows_per_house` model windows each, against `keys`.
pub fn request_body(
    keys: &[ModelKey],
    houses: usize,
    windows_per_house: usize,
    window: usize,
    step_s: u32,
    seed: u64,
    detail: Detail,
) -> String {
    let households: Vec<HouseholdSeries> = (0..houses)
        .map(|i| synth_household(windows_per_house, window, step_s, seed + i as u64))
        .collect();
    localize_request(keys, &households, detail).to_compact()
}

/// One blocking GET against the gateway; panics on transport errors (these
/// helpers drive demos and CI gates, where failing loudly is the point).
pub fn http_get(addr: &str, path: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("cannot connect to gateway at {addr}: {e}"));
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let request = format!("GET {path} HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\r\n");
    (&stream).write_all(request.as_bytes()).expect("send request");
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader).expect("read response");
    (response.status, response.body_str().expect("UTF-8 body").to_string())
}

/// One blocking POST against the gateway.
pub fn http_post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("cannot connect to gateway at {addr}: {e}"));
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    (&stream).write_all(request.as_bytes()).expect("send request");
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader).expect("read response");
    (response.status, response.body_str().expect("UTF-8 body").to_string())
}

/// A [`LoadgenReport`] as JSON.
pub fn loadgen_json(r: &LoadgenReport) -> JsonValue {
    let by_status: std::collections::BTreeMap<String, JsonValue> = r
        .by_status
        .iter()
        .map(|(status, count)| (status.to_string(), JsonValue::Number(*count as f64)))
        .collect();
    JsonValue::object([
        ("connections", JsonValue::Number(r.connections as f64)),
        ("ok", JsonValue::Number(r.ok as f64)),
        ("errors", JsonValue::Number(r.errors as f64)),
        ("by_status", JsonValue::Object(by_status)),
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
    let buckets: Vec<JsonValue> = h
        .nonzero_buckets()
        .map(|(le_ms, count)| {
            JsonValue::object([
                ("le_ms", JsonValue::Number(le_ms)),
                ("count", JsonValue::Number(count as f64)),
            ])
        })
        .collect();
    JsonValue::object([
        ("count", JsonValue::Number(h.count() as f64)),
        ("mean_ms", JsonValue::Number(h.mean_ms())),
        ("min_ms", JsonValue::Number(h.min_ms())),
        ("max_ms", JsonValue::Number(h.max_ms())),
        ("p50_ms", JsonValue::Number(h.quantile_ms(0.50))),
        ("p90_ms", JsonValue::Number(h.quantile_ms(0.90))),
        ("p99_ms", JsonValue::Number(h.quantile_ms(0.99))),
        ("p999_ms", JsonValue::Number(h.quantile_ms(0.999))),
        ("buckets", JsonValue::Array(buckets)),
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
    let (status, body) = http_get(addr, "/v1/models");
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

/// Parses the `--detail full|summary` flag (default full).
pub fn arg_detail(args: &[String]) -> Detail {
    match arg_value(args, "--detail").as_deref() {
        None | Some("full") => Detail::Full,
        Some("summary") => Detail::Summary,
        Some(other) => panic!("--detail must be full or summary, not {other:?}"),
    }
}

/// Runs the loadgen mode against a running gateway and returns the
/// validated report document. Flags: `--connections`, `--requests`,
/// `--houses`, `--request-windows`, `--detail`, `--pipeline` (requests
/// written per burst before reading responses), plus two optional hard
/// gates that make the run fail loudly for CI: `--max-errors N` (non-200
/// count may not exceed N) and `--max-p99-ms F` (p99 latency bound).
/// `--latency-json PATH` additionally dumps the full latency histogram
/// (HDR buckets + p50/p90/p99/p999) to `PATH`.
pub fn loadgen_run(addr: &str, args: &[String]) -> JsonValue {
    let connections = arg_usize(args, "--connections", 4);
    let requests = arg_usize(args, "--requests", 64);
    let houses = arg_usize(args, "--houses", 1);
    let windows = arg_usize(args, "--request-windows", 8);
    let pipeline = arg_usize(args, "--pipeline", 1);
    let detail = arg_detail(args);
    let keep_alive = !args.iter().any(|a| a == "--no-keepalive");
    let key = gateway_key();
    let (window, step_s) = model_geometry(addr, key);
    let body = request_body(&[key], houses, windows, window, step_s, 0x10AD, detail);
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
    if let Some(max_errors) = arg_value(args, "--max-errors").map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| panic!("--max-errors must be an integer, not {v:?}"))
    }) {
        assert!(
            report.errors <= max_errors,
            "loadgen gate failed: {} non-200 responses (allowed {max_errors}): {:?}",
            report.errors,
            report.by_status
        );
    }
    if let Some(max_p99) = arg_value(args, "--max-p99-ms").map(|v| {
        v.parse::<f64>().unwrap_or_else(|_| panic!("--max-p99-ms must be a number, not {v:?}"))
    }) {
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

/// Trains the gateway checkpoint (Refit kettle at `scale`) into the zoo
/// directory under its registry file name, returning the trained model for
/// demo-mode verification.
pub fn train_gateway_zoo(scale: &Scale, args: &[String]) -> camal::CamalModel {
    let zoo = gateway_zoo_dir(args);
    std::fs::create_dir_all(&zoo).expect("create zoo directory");
    serving::train_model(scale, &zoo.join(gateway_key().file_name()))
}

/// The chaos gate: train → serve the checkpoint file-backed → arm batcher
/// panics and checkpoint-corruption faults (default 10% each) → fire a
/// `>= 200`-request loadgen → assert **zero hangs and zero 500s** (every
/// request answers 200 or 503, every 503 carries `Retry-After`) → disarm →
/// assert the gateway recovers to responses **byte-identical** to a direct
/// [`camal::stream::serve`] run. Flags: `--requests`, `--connections`,
/// `--rate-pct`, `--deadline-ms`, `--zoo`, `--out`.
///
/// This is what `camal_gateway chaos` and the CI chaos smoke stage run.
pub fn gateway_chaos(scale: &Scale, args: &[String]) {
    let trained = train_gateway_zoo(scale, args);
    let zoo = gateway_zoo_dir(args);
    let key = gateway_key();

    // File-backed on purpose: after an injected batcher panic the rebuilt
    // registry must reload from disk, which is where the corruption fault
    // bites.
    let mut registry = ModelRegistry::unbounded();
    registry.register_file(key, zoo.join(key.file_name()));
    let mut cfg = gateway_config(args);
    if arg_value(args, "--deadline-ms").is_none() {
        // Bound every request tightly so an injected wedge turns into a
        // timely 503 instead of a 60s client timeout.
        cfg.deadline = Duration::from_secs(10);
    }
    let batch = cfg.batch_windows;
    let gateway =
        Gateway::start(registry, cfg).unwrap_or_else(|e| panic!("cannot start gateway: {e}"));
    let addr = gateway.addr().to_string();
    println!("chaos gateway listening on {addr}");

    let window = trained.window();
    let tmpl = template(key.dataset);
    let households: Vec<HouseholdSeries> =
        (0..2).map(|i| synth_household(4, window, tmpl.step_s, 51 + i as u64)).collect();
    let body = localize_request(&[key], &households, Detail::Full).to_compact();
    let stream_cfg = StreamConfig {
        window,
        step_s: tmpl.step_s,
        max_ffill_s: 3 * tmpl.step_s,
        batch,
        appliance: Some(key.appliance),
        avg_power_w: tmpl.case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0),
    };
    let timelines = serve(&trained, &households, &stream_cfg);
    let rows: Vec<HouseholdRow> = households
        .iter()
        .zip(&timelines)
        .map(|(hh, tl)| HouseholdRow { id: &hh.id, degraded: None, timelines: vec![tl] })
        .collect();
    let expected = localize_response(&[key], &rows, Detail::Full).to_compact();

    // Pre-chaos sanity: healthy responses match the oracle byte-for-byte.
    let (status, got) = http_post(&addr, "/v1/localize", &body);
    assert_eq!(status, 200, "pre-chaos localize failed: {got}");
    assert_eq!(got, expected, "pre-chaos response differs from stream::serve");

    let requests = arg_usize(args, "--requests", 240).max(200);
    let connections = arg_usize(args, "--connections", 4);
    let rate = arg_usize(args, "--rate-pct", 10).min(100) as f64 / 100.0;
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
    let illegal: Vec<u16> =
        report.by_status.keys().copied().filter(|s| *s != 200 && *s != 503).collect();
    assert!(
        illegal.is_empty(),
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
        let (status, got) = http_post(&addr, "/v1/localize", &body);
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

    let (status, metrics) = http_get(&addr, "/metrics");
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
    serving::write_summary(&doc, args, "camal_gateway_chaos");
}

/// The full demo: train → serve over a real socket → verify one response
/// byte-identical to a direct `stream::serve` run → loadgen sequentially
/// and at 4 concurrent connections → assert the micro-batching win → emit
/// the validated JSON report. This is what `camal_gateway demo`, `run_all`
/// and CI run.
pub fn gateway_demo(scale: &Scale, args: &[String]) {
    let trained = train_gateway_zoo(scale, args);
    let zoo = gateway_zoo_dir(args);
    let key = gateway_key();
    let mut registry = ModelRegistry::unbounded();
    let found = registry.register_dir(&zoo).expect("scan zoo directory");
    assert!(found.contains(&key), "zoo {} lost its checkpoint", zoo.display());

    let gateway =
        Gateway::start(registry, gateway_config(args)).expect("gateway must bind and warm up");
    let addr = gateway.addr().to_string();
    println!("gateway listening on {addr} ({} model(s))", found.len());

    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "healthz failed: {health}");
    println!("healthz: {health}");

    // Gate 1 — one real round-trip, byte-identical to a direct serve.
    let window = trained.window();
    let tmpl = template(key.dataset);
    let houses = arg_usize(args, "--houses", 2);
    let windows = arg_usize(args, "--request-windows", 8);
    let households: Vec<HouseholdSeries> =
        (0..houses).map(|i| synth_household(windows, window, tmpl.step_s, 7 + i as u64)).collect();
    let body = localize_request(&[key], &households, Detail::Full).to_compact();
    let (status, got) = http_post(&addr, "/v1/localize", &body);
    assert_eq!(status, 200, "localize failed: {got}");
    nilm_json::validate(&got).expect("localize response must be valid JSON");
    let stream_cfg = StreamConfig {
        window,
        step_s: tmpl.step_s,
        max_ffill_s: 3 * tmpl.step_s,
        batch: gateway_config(args).batch_windows,
        appliance: Some(key.appliance),
        avg_power_w: tmpl.case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0),
    };
    let timelines = serve(&trained, &households, &stream_cfg);
    let rows: Vec<HouseholdRow> = households
        .iter()
        .zip(&timelines)
        .map(|(hh, tl)| HouseholdRow { id: &hh.id, degraded: None, timelines: vec![tl] })
        .collect();
    let expected = localize_response(&[key], &rows, Detail::Full).to_compact();
    assert_eq!(got, expected, "gateway response differs from the direct stream::serve baseline");
    println!(
        "equivalence check: gateway response is byte-identical to camal::stream::serve \
         ({} households x {} windows)",
        houses, windows
    );

    // Gate 2 — concurrency + micro-batching pays. Baseline: the same
    // workload issued as sequential single requests — one request at a
    // time, each on its own connection, the shape a naive integration (one
    // curl per household) produces, paying TCP setup and a fresh reactor
    // connection per request with zero batcher coalescing. Against it: the
    // same total workload over `--connections` concurrent keep-alive
    // connections, which the batcher coalesces into shared fleet passes.
    // A keep-alive sequential run is also measured and reported so the
    // connection-reuse and coalescing contributions stay visible
    // separately. Medians of 3 alternating rounds cancel machine drift.
    let requests = arg_usize(args, "--requests", if scale.name == "smoke" { 600 } else { 2000 });
    let bench_conns = arg_usize(args, "--connections", 8).max(4);
    let bench_windows = arg_usize(args, "--bench-windows", 1);
    let bench_body =
        request_body(&[key], 1, bench_windows, window, tmpl.step_s, 99, Detail::Summary);
    println!(
        "loadgen: {requests} requests x 1 household x {bench_windows} window(s), summary \
         detail, 3 alternating rounds: sequential single (1 conn/request) vs sequential \
         keep-alive vs {bench_conns} concurrent keep-alive connections"
    );
    let mut single_runs: Vec<LoadgenReport> = Vec::new();
    let mut seq_ka_runs: Vec<LoadgenReport> = Vec::new();
    let mut con_runs: Vec<LoadgenReport> = Vec::new();
    for round in 0..3 {
        let s = run_loadgen(&addr, 1, requests, &bench_body, false)
            .unwrap_or_else(|e| panic!("sequential-single loadgen failed: {e}"));
        print_report(&format!("seq-single #{round}"), &s);
        let k = run_loadgen(&addr, 1, requests, &bench_body, true)
            .unwrap_or_else(|e| panic!("sequential keep-alive loadgen failed: {e}"));
        print_report(&format!("seq-ka     #{round}"), &k);
        let c = run_loadgen(&addr, bench_conns, requests, &bench_body, true)
            .unwrap_or_else(|e| panic!("concurrent loadgen failed: {e}"));
        print_report(&format!("concurrent #{round}"), &c);
        assert_eq!(s.errors + k.errors + c.errors, 0, "no request may be shed in the demo");
        single_runs.push(s);
        seq_ka_runs.push(k);
        con_runs.push(c);
    }
    let median_run = |runs: &[LoadgenReport]| -> LoadgenReport {
        let mut sorted: Vec<&LoadgenReport> = runs.iter().collect();
        sorted.sort_by(|a, b| {
            a.requests_per_second.partial_cmp(&b.requests_per_second).expect("finite rps")
        });
        sorted[sorted.len() / 2].clone()
    };
    let sequential = median_run(&single_runs);
    let sequential_keepalive = median_run(&seq_ka_runs);
    let concurrent = median_run(&con_runs);
    assert!(
        concurrent.requests_per_second > sequential.requests_per_second,
        "the concurrent gateway must beat sequential single requests: median {:.1} req/s at \
         {bench_conns} connections vs {:.1} req/s sequential",
        concurrent.requests_per_second,
        sequential.requests_per_second
    );
    println!(
        "concurrency win: {:.2}x median requests/s at {bench_conns} connections vs \
         sequential single requests ({:.2}x vs sequential keep-alive)",
        concurrent.requests_per_second / sequential.requests_per_second,
        concurrent.requests_per_second / sequential_keepalive.requests_per_second.max(1e-9)
    );

    let (status, metrics) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let metrics_doc = nilm_json::parse(&metrics).expect("metrics must be valid JSON");

    let doc = JsonValue::object([
        ("schema", JsonValue::String("camal_gateway/v1".into())),
        ("scale", JsonValue::String(scale.name.to_string())),
        ("zoo", JsonValue::String(zoo.display().to_string())),
        ("window", JsonValue::Number(window as f64)),
        ("requests", JsonValue::Number(requests as f64)),
        // The loadgen workload the three sections below measured — NOT the
        // gate-1 verification request shape.
        ("windows_per_request", JsonValue::Number(bench_windows as f64)),
        ("sequential_single", loadgen_json(&sequential)),
        ("sequential_keepalive", loadgen_json(&sequential_keepalive)),
        ("concurrent", loadgen_json(&concurrent)),
        (
            "speedup",
            JsonValue::Number(
                concurrent.requests_per_second / sequential.requests_per_second.max(1e-9),
            ),
        ),
        ("metrics", metrics_doc),
    ]);
    gateway.shutdown();
    println!("gateway shut down cleanly");
    serving::write_summary(&doc, args, "camal_gateway");
}
