//! End-to-end observability acceptance: one traced localize request must
//! yield, via `GET /debug/trace`, a single connected trace covering the
//! whole socket-to-kernel pipeline — parse → queue_wait → decode → coalesce →
//! preprocess → infer (with kernel child spans naming op/shape/backend) →
//! stitch → write — every span parenting back to the root `request` span
//! and every duration fitting inside the client-observed wall time. With
//! tracing **on**, response bodies must stay byte-identical to a direct
//! `stream::serve` run. The stage histograms count every request whether
//! it is traced or not: tracing gates the spans only. Also pins `/readyz`
//! semantics (200 when servable, 503 + reason while the queue is
//! saturated) and the Prometheus exposition route.

use camal::config::CamalConfig;
use camal::ensemble::EnsembleMember;
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::{serve, HouseholdSeries, StreamConfig};
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::series::TimeSeries;
use nilm_data::templates::{template, DatasetId};
use nilm_json::JsonValue;
use nilm_models::detector::{build_from_spec, BackboneSpec};
use nilm_serve::gateway::{Gateway, GatewayConfig};
use nilm_serve::http::{read_response, Response};
use nilm_serve::protocol::{localize_request, localize_response, Detail, HouseholdRow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const WINDOW: usize = 32;

/// Tracing is process-global: tests that switch it hold this lock.
static TRACING: Mutex<()> = Mutex::new(());

fn tracing(on: bool) -> MutexGuard<'static, ()> {
    let guard = TRACING.lock().unwrap_or_else(PoisonError::into_inner);
    nilm_obs::trace::set_enabled(on);
    guard
}

fn random_model(kernels: &[usize], seed: u64) -> CamalModel {
    let cfg = CamalConfig {
        n_ensemble: kernels.len(),
        kernels: kernels.to_vec(),
        trials: 1,
        width_div: 16,
        ..Default::default()
    };
    let members = kernels
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let spec = BackboneSpec::ResNet { kernel: k, width_div: cfg.width_div };
            EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.5 + i as f32 }
        })
        .collect();
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(WINDOW);
    model
}

fn toy_household(n_windows: usize, seed: u64) -> HouseholdSeries {
    let mut rng = nilm_tensor::init::rng(seed);
    let n = n_windows * WINDOW + 3;
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let plateau = (t / 10) % 3 == 0;
        let base = if plateau { 2100.0 } else { 130.0 };
        values.push(base + nilm_tensor::init::randn(&mut rng).abs() * 20.0);
    }
    HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, 60) }
}

fn kettle() -> ModelKey {
    ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle)
}

fn test_config() -> GatewayConfig {
    GatewayConfig { read_timeout: Duration::from_secs(2), ..GatewayConfig::default() }
}

/// The response body a direct (un-batched) `stream::serve` run produces.
fn expected_body(
    keys: &[ModelKey],
    models: &mut [(ModelKey, CamalModel)],
    households: &[HouseholdSeries],
    batch: usize,
) -> String {
    let mut per_key = Vec::new();
    for &key in keys {
        let tmpl = template(key.dataset);
        let avg = tmpl.case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0);
        let cfg = StreamConfig {
            window: WINDOW,
            step_s: tmpl.step_s,
            max_ffill_s: 3 * tmpl.step_s,
            batch,
            appliance: Some(key.appliance),
            avg_power_w: avg,
        };
        let model = &mut models.iter_mut().find(|(k, _)| *k == key).expect("model for key").1;
        per_key.push(serve(model, households, &cfg));
    }
    let rows: Vec<HouseholdRow> = households
        .iter()
        .enumerate()
        .map(|(hi, hh)| HouseholdRow {
            id: &hh.id,
            degraded: None,
            timelines: per_key.iter().map(|tls| &tls[hi]).collect(),
        })
        .collect();
    localize_response(keys, &rows, Detail::Full).to_compact()
}

/// One blocking POST /v1/localize with an optional inbound trace ID,
/// returning the full response (headers included).
fn post_localize(addr: &str, body: &str, trace_id: Option<&str>) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let trace_header = trace_id.map(|id| format!("X-Camal-Trace-Id: {id}\r\n")).unwrap_or_default();
    let request = format!(
        "POST /v1/localize HTTP/1.1\r\nHost: t\r\n{trace_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    (&stream).write_all(request.as_bytes()).expect("send");
    let mut reader = BufReader::new(&stream);
    read_response(&mut reader).expect("response")
}

fn get(addr: &str, path: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
    (&stream).write_all(request.as_bytes()).expect("send");
    let mut reader = BufReader::new(&stream);
    read_response(&mut reader).expect("response")
}

/// One span row parsed back out of the /debug/trace JSON.
#[derive(Debug, Clone)]
struct Span {
    span: u64,
    parent: u64,
    name: String,
    detail: String,
    start_us: f64,
    dur_us: f64,
}

/// Polls `/debug/trace?id=` until the root `request` span lands (it is
/// recorded only after the response's last byte reaches the socket, so the
/// client can briefly outrun it).
fn poll_trace(addr: &str, id: &str) -> Vec<Span> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = get(addr, &format!("/debug/trace?id={id}"));
        if resp.status == 200 {
            let doc = nilm_json::parse(resp.body_str().expect("UTF-8")).expect("trace JSON");
            assert_eq!(doc.get("trace").and_then(JsonValue::as_str), Some(id));
            let spans: Vec<Span> = doc
                .get("spans")
                .and_then(JsonValue::as_array)
                .expect("spans array")
                .iter()
                .map(|s| Span {
                    span: s.get("span").and_then(JsonValue::as_usize).expect("span id") as u64,
                    parent: s.get("parent").and_then(JsonValue::as_usize).expect("parent") as u64,
                    name: s.get("name").and_then(JsonValue::as_str).expect("name").to_string(),
                    detail: s.get("detail").and_then(JsonValue::as_str).unwrap_or("").to_string(),
                    start_us: s.get("start_us").and_then(JsonValue::as_f64).expect("start_us"),
                    dur_us: s.get("dur_us").and_then(JsonValue::as_f64).expect("dur_us"),
                })
                .collect();
            if spans.iter().any(|s| s.name == "request") {
                return spans;
            }
        }
        assert!(Instant::now() < deadline, "root request span never appeared for trace {id}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn find<'s>(spans: &'s [Span], name: &str) -> &'s Span {
    let mut hits = spans.iter().filter(|s| s.name == name);
    let first = hits.next().unwrap_or_else(|| panic!("no {name:?} span in {spans:?}"));
    assert!(hits.next().is_none(), "more than one {name:?} span for a single request");
    first
}

#[test]
fn traced_localize_yields_a_connected_socket_to_kernel_trace() {
    let _tracing = tracing(true);
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5, 7], 1));
    let mut oracle = vec![(kettle(), random_model(&[5, 7], 1))];
    let cfg = test_config();
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(6, 42)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let expected = expected_body(&[kettle()], &mut oracle, &households, batch);

    // An inbound trace ID is honored and echoed; the body stays
    // byte-identical to the direct stream::serve baseline with tracing ON.
    let trace_hex = "00000000deadbeef";
    let wall = Instant::now();
    let resp = post_localize(&addr, &body, Some(trace_hex));
    let wall_us = wall.elapsed().as_micros() as f64;
    assert_eq!(resp.status, 200, "{:?}", resp.body_str());
    assert_eq!(resp.header("x-camal-trace-id"), Some(trace_hex));
    assert_eq!(
        resp.body_str().expect("UTF-8 body"),
        expected,
        "tracing must not change a single response byte"
    );

    // Without the header a fresh ID is minted and echoed.
    let resp = post_localize(&addr, &body, None);
    assert_eq!(resp.status, 200);
    let minted = resp.header("x-camal-trace-id").expect("minted trace id");
    assert_eq!(minted.len(), 16);
    assert!(minted.bytes().all(|b| b.is_ascii_hexdigit()));
    assert_ne!(minted, "0000000000000000");

    // The full pipeline, reassembled from the ring.
    let spans = poll_trace(&addr, trace_hex);
    let root = find(&spans, "request");
    assert_eq!(root.parent, 0, "the request span is the trace root");
    assert!(root.detail.contains("route=localize") && root.detail.contains("status=200"));

    // Every stage of the pipeline is present exactly once and parents to
    // the root request span.
    for name in
        ["parse", "queue_wait", "decode", "coalesce", "preprocess", "infer", "stitch", "write"]
    {
        let stage = find(&spans, name);
        assert_eq!(stage.parent, root.span, "{name} must parent to the request span");
    }
    // ... and at least one kernel execution parents into the infer stage,
    // naming its op, shape and backend.
    let infer = find(&spans, "infer");
    let kernels: Vec<&Span> = spans.iter().filter(|s| s.name == "kernel").collect();
    assert!(!kernels.is_empty(), "no kernel child spans in {spans:?}");
    for k in &kernels {
        assert_eq!(k.parent, infer.span, "kernel spans must nest under infer");
        assert!(k.detail.contains("op="), "kernel detail must name the op: {k:?}");
        assert!(k.detail.contains("backend="), "kernel detail must name the backend: {k:?}");
    }

    // The whole tree is connected: every parent link resolves to another
    // span of this trace (or 0 for the root).
    let ids: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.span, s)).collect();
    for s in &spans {
        assert!(
            s.parent == 0 || ids.contains_key(&s.parent),
            "span {s:?} has a dangling parent link"
        );
    }

    // Durations are sane: the root covers the dispatch-to-last-byte
    // interval, stages are sequential inside it, and everything fits the
    // client-observed wall time.
    assert!(root.dur_us <= wall_us, "request span {:.0}us > wall {:.0}us", root.dur_us, wall_us);
    let stage_sum: f64 =
        ["queue_wait", "decode", "coalesce", "preprocess", "infer", "stitch", "write"]
            .iter()
            .map(|n| find(&spans, n).dur_us)
            .sum();
    assert!(
        stage_sum <= wall_us,
        "stage durations sum to {stage_sum:.0}us, beyond the {wall_us:.0}us wall time"
    );
    let parse = find(&spans, "parse");
    let queue_wait = find(&spans, "queue_wait");
    let write = find(&spans, "write");
    assert!(parse.start_us <= queue_wait.start_us, "queue_wait cannot start before parse");
    // The pass loop decodes the request where its queue wait ends, and
    // coalesces it after. (1 ns of slack for the float microseconds.)
    let decode = find(&spans, "decode");
    let coalesce = find(&spans, "coalesce");
    assert!(
        queue_wait.start_us + queue_wait.dur_us <= decode.start_us + 1e-3,
        "decode starts before queue_wait ends: {queue_wait:?} {decode:?}"
    );
    assert!(decode.start_us <= coalesce.start_us, "coalesce starts before decode: {decode:?}");
    assert!(infer.start_us <= write.start_us, "write cannot start before infer");
    // The gateway-side stages after parse lie inside the root span, which
    // runs from dispatch to the last byte written (parse precedes it).
    for name in ["queue_wait", "decode", "coalesce", "write"] {
        let s = find(&spans, name);
        assert!(
            root.start_us <= s.start_us + 1e-3
                && s.start_us + s.dur_us <= root.start_us + root.dur_us + 1e-3,
            "{name} lies outside the request span: {s:?} {root:?}"
        );
    }

    // /debug/trace error paths: missing and malformed IDs are 400, an
    // unknown ID is 404.
    assert_eq!(get(&addr, "/debug/trace").status, 400);
    assert_eq!(get(&addr, "/debug/trace?id=zz").status, 400);
    assert_eq!(get(&addr, "/debug/trace?id=abcd1234abcd1234").status, 404);

    // Prometheus exposition alongside the JSON metrics.
    let resp = get(&addr, "/metrics?format=prometheus");
    assert_eq!(resp.status, 200);
    assert!(resp.header("content-type").unwrap_or("").starts_with("text/plain"));
    let text = resp.body_str().expect("UTF-8 exposition");
    assert!(text.contains("# TYPE nilm_request_duration_seconds histogram"));
    assert!(text.contains("route=\"localize\""));
    assert!(text.contains("nilm_stage_duration_seconds_bucket"));
    assert!(text.contains("stage=\"infer\""));
    assert!(text.contains("nilm_kernel_calls_total{"));
    // The JSON route still answers.
    let resp = get(&addr, "/metrics");
    assert_eq!(resp.status, 200);
    assert!(nilm_json::parse(resp.body_str().unwrap()).is_ok());

    // A warm gateway is ready.
    let resp = get(&addr, "/readyz");
    assert_eq!(resp.status, 200);
    let doc = nilm_json::parse(resp.body_str().unwrap()).unwrap();
    assert_eq!(doc.get("ready").and_then(JsonValue::as_bool), Some(true));
    assert!(doc.get("queue_capacity").and_then(JsonValue::as_usize).unwrap() > 0);

    gateway.shutdown();
}

/// `/metrics` sample counts of the pass-loop stages, in the order
/// `queue_wait`, `decode`, `coalesce` (0 before a stage's first sample).
fn stage_counts(addr: &str) -> [u64; 3] {
    let resp = get(addr, "/metrics");
    assert_eq!(resp.status, 200);
    let doc = nilm_json::parse(resp.body_str().expect("UTF-8")).expect("metrics JSON");
    ["queue_wait", "decode", "coalesce"].map(|stage| {
        let count = doc.get("stages").and_then(|s| s.get(stage)).and_then(|s| s.get("count"));
        count.and_then(JsonValue::as_usize).unwrap_or(0) as u64
    })
}

#[test]
fn stage_histograms_count_every_request_whether_traced_or_not() {
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 5));
    let gateway = Gateway::start(registry, test_config()).expect("gateway starts");
    let addr = gateway.addr().to_string();
    let households = vec![toy_household(2, 8)];
    let body = localize_request(&[kettle()], &households, Detail::Summary).to_compact();

    // One request at a time, so every pass serves exactly one request:
    // each stage sample is recorded before its request is answered.
    const N: u64 = 4;
    for on in [false, true] {
        let _tracing = tracing(on);
        let before = stage_counts(&addr);
        let ids: Vec<String> =
            (0..N).map(|i| format!("{:016x}", 0x5ca1e000 + 2 * i + on as u64)).collect();
        for id in &ids {
            assert_eq!(post_localize(&addr, &body, Some(id)).status, 200);
        }
        assert_eq!(
            stage_counts(&addr),
            before.map(|n| n + N),
            "tracing {on}: each stage histogram gains one sample per request"
        );
        // Only the spans follow the switch.
        if on {
            poll_trace(&addr, &ids[0]);
        } else {
            assert_eq!(get(&addr, &format!("/debug/trace?id={}", ids[0])).status, 404);
        }
    }
    gateway.shutdown();
}

#[test]
fn readyz_drops_to_503_while_the_queue_is_saturated_and_recovers() {
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5, 7, 9], 31));
    let cfg = GatewayConfig { queue_capacity: 1, ..test_config() };
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let resp = get(&addr, "/readyz");
    assert_eq!(resp.status, 200, "a fresh gateway must be ready");

    // Saturate: with a capacity-1 queue, a burst of heavy localize
    // requests keeps one job parked while the batcher grinds — /readyz
    // must report 503 "queue saturated" in that window. The window is
    // multi-millisecond but scheduler-dependent, so retry a few volleys.
    let households = vec![toy_household(24, 77)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let saw_saturated = Arc::new(AtomicBool::new(false));
    for _ in 0..5 {
        const M: usize = 6;
        let inflight = Arc::new(AtomicUsize::new(M));
        let barrier = Arc::new(Barrier::new(M + 1));
        std::thread::scope(|scope| {
            for _ in 0..M {
                let barrier = barrier.clone();
                let inflight = inflight.clone();
                let addr = addr.clone();
                let body = body.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let resp = post_localize(&addr, &body, None);
                    assert!(
                        resp.status == 200 || resp.status == 503,
                        "unexpected status {}",
                        resp.status
                    );
                    inflight.fetch_sub(1, Ordering::SeqCst);
                });
            }
            barrier.wait();
            while inflight.load(Ordering::SeqCst) > 0 {
                let resp = get(&addr, "/readyz");
                if resp.status == 503 {
                    let doc = nilm_json::parse(resp.body_str().unwrap()).unwrap();
                    assert_eq!(doc.get("ready").and_then(JsonValue::as_bool), Some(false));
                    assert_eq!(
                        doc.get("reason").and_then(JsonValue::as_str),
                        Some("queue saturated")
                    );
                    assert_eq!(resp.header("retry-after"), Some("1"));
                    saw_saturated.store(true, Ordering::SeqCst);
                }
            }
        });
        if saw_saturated.load(Ordering::SeqCst) {
            break;
        }
    }
    assert!(
        saw_saturated.load(Ordering::SeqCst),
        "a capacity-1 queue under a 6-way heavy burst never reported saturation"
    );

    // Once the burst drains, readiness recovers.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if get(&addr, "/readyz").status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "/readyz never recovered after the burst drained");
        std::thread::sleep(Duration::from_millis(20));
    }

    gateway.shutdown();
}
