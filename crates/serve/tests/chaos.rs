//! Chaos suite for the gateway: every fault point of the serving stack is
//! armed in turn and the gateway must answer **every** request — `200`s
//! and `503 + Retry-After`s only, never a `500` and never a hang — and
//! once the fault clears, responses must return to being byte-identical
//! to a direct `camal::stream::serve` baseline.
//!
//! The fault table is process-global, so this suite lives in its own test
//! binary and serializes every test on one mutex.

use camal::config::CamalConfig;
use camal::ensemble::EnsembleMember;
use camal::registry::{ModelKey, ModelRegistry, QuarantinePolicy};
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
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const WINDOW: usize = 32;

static SERIAL: Mutex<()> = Mutex::new(());

struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        nilm_fault::disarm_all();
    }
}

fn faults() -> FaultGuard {
    let g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    nilm_fault::disarm_all();
    FaultGuard { _serial: g }
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
    GatewayConfig { read_timeout: Duration::from_secs(5), ..GatewayConfig::default() }
}

/// The byte-exact body a direct `stream::serve` produces for one kettle
/// request over `households`.
fn expected_body(oracle: &mut CamalModel, households: &[HouseholdSeries], batch: usize) -> String {
    let key = kettle();
    let tmpl = template(key.dataset);
    let cfg = StreamConfig {
        window: WINDOW,
        step_s: tmpl.step_s,
        max_ffill_s: 3 * tmpl.step_s,
        batch,
        appliance: Some(key.appliance),
        avg_power_w: tmpl.case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0),
    };
    let timelines = serve(oracle, households, &cfg);
    let rows: Vec<HouseholdRow> = households
        .iter()
        .enumerate()
        .map(|(hi, hh)| HouseholdRow {
            id: &hh.id,
            degraded: None,
            timelines: vec![&timelines[hi]],
        })
        .collect();
    localize_response(&[key], &rows, Detail::Full).to_compact()
}

/// One blocking localize round-trip; returns the full response so callers
/// can inspect headers (`Retry-After`).
fn post_localize(addr: &str, body: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let request = format!(
        "POST /v1/localize HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    (&stream).write_all(request.as_bytes()).expect("send");
    let mut reader = BufReader::new(&stream);
    read_response(&mut reader).expect("response")
}

/// One blocking `GET path` round-trip on a fresh connection.
fn get(addr: &str, path: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (&stream)
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(&stream);
    read_response(&mut reader).expect("response")
}

fn metrics_doc(addr: &str) -> JsonValue {
    let response = get(addr, "/metrics");
    assert_eq!(response.status, 200);
    nilm_json::parse(response.body_str().expect("UTF-8")).expect("metrics JSON")
}

fn counter(doc: &JsonValue, name: &str) -> usize {
    doc.get(name).and_then(JsonValue::as_usize).unwrap_or_else(|| panic!("{name} in metrics"))
}

/// A `503` under chaos must always say when to come back.
fn assert_503_with_retry_after(response: &Response) {
    assert_eq!(response.status, 503, "{:?}", response.body_str());
    let retry = response.header("retry-after").expect("503 must carry Retry-After");
    assert!(retry.parse::<u64>().is_ok_and(|s| s >= 1), "Retry-After {retry:?}");
}

#[test]
fn batcher_panic_respawns_and_replies_identically() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5, 7], 1));
    let mut oracle = random_model(&[5, 7], 1);
    let cfg = test_config();
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(4, 42)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let expected = expected_body(&mut oracle, &households, batch);

    // Sanity: healthy round-trip first.
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_str().unwrap(), expected);

    // The next pass panics with our job in flight: the handler must get a
    // prompt 503 + Retry-After (reply channel dropped in the unwind), not
    // a hang and not a 500.
    nilm_fault::arm_limited("batcher.panic", 1.0, 7, Some(1));
    let start = Instant::now();
    let response = post_localize(&addr, &body);
    assert!(start.elapsed() < Duration::from_secs(10), "no timely reply after panic");
    assert_503_with_retry_after(&response);

    // The supervisor respawned the batcher with a rebuilt registry: the
    // very next request must succeed and be byte-identical to before.
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert_eq!(
        response.body_str().unwrap(),
        expected,
        "post-restart response must match the pre-fault baseline byte-for-byte"
    );

    let doc = metrics_doc(&addr);
    assert!(counter(&doc, "batcher_restarts") >= 1, "restart must be visible in metrics");
    let fired = doc
        .get("faults")
        .and_then(|f| f.get("batcher.panic"))
        .and_then(|p| p.get("fired"))
        .and_then(JsonValue::as_usize);
    assert_eq!(fired, Some(1), "fault counters must be exported");

    nilm_fault::disarm_all();
    gateway.shutdown();
}

#[test]
fn wedged_pass_hits_the_deadline_not_a_hang() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 3));
    // Tight deadline so the test is fast; the injected slow pass sleeps
    // 2x this, past every waiting handler's budget.
    let cfg = GatewayConfig { deadline: Duration::from_millis(250), ..test_config() };
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(2, 5)];
    let body = localize_request(&[kettle()], &households, Detail::Summary).to_compact();

    nilm_fault::arm_limited("gateway.slow_pass", 1.0, 9, Some(1));
    let start = Instant::now();
    let response = post_localize(&addr, &body);
    let elapsed = start.elapsed();
    assert_503_with_retry_after(&response);
    assert!(response.body_str().unwrap().contains("deadline"), "{:?}", response.body_str());
    assert!(
        elapsed >= Duration::from_millis(200) && elapsed < Duration::from_secs(5),
        "deadline reply took {elapsed:?}, want ~250ms"
    );

    // Once the slow pass drains (the injected nap is 2 x 250ms plus the
    // pass itself), the gateway serves normally again.
    std::thread::sleep(Duration::from_millis(700));
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert!(counter(&metrics_doc(&addr), "deadline_timeouts") >= 1);

    nilm_fault::disarm_all();
    gateway.shutdown();
}

#[test]
fn a_wedged_pass_stalls_another_connection_only_at_width_one() {
    // Request A's pass wedges past its deadline. Request B, sent on a
    // second connection once A's pass holds the fault, is a separate pass:
    // with two or more pass loops a free loop serves it at once; with one,
    // it waits behind A's pass and meets its own deadline.
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 3));
    let mut oracle = random_model(&[5], 3);
    let deadline = Duration::from_secs(1);
    let cfg = GatewayConfig { deadline, ..test_config() };
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let body_a =
        localize_request(&[kettle()], &[toy_household(2, 5)], Detail::Summary).to_compact();
    let households_b = vec![toy_household(3, 6)];
    let body_b = localize_request(&[kettle()], &households_b, Detail::Full).to_compact();
    let expected_b = expected_body(&mut oracle, &households_b, batch);

    nilm_fault::arm_limited("gateway.slow_pass", 1.0, 9, Some(1));
    let a_sent = Instant::now();
    let a = {
        let addr = addr.clone();
        std::thread::spawn(move || post_localize(&addr, &body_a))
    };
    let wedged = || {
        nilm_fault::stats().iter().any(|(point, s)| point == "gateway.slow_pass" && s.fired == 1)
    };
    while !wedged() {
        assert!(a_sent.elapsed() < Duration::from_secs(10), "A's pass never took the fault");
        std::thread::sleep(Duration::from_millis(1));
    }

    let b_sent = Instant::now();
    let b = post_localize(&addr, &body_b);
    let b_took = b_sent.elapsed();
    if camal::fleet::available_threads() >= 2 {
        assert_eq!(b.status, 200, "{:?}", b.body_str());
        assert_eq!(b.body_str().unwrap(), expected_b, "B must match the direct serve");
        assert!(
            b_took < deadline / 2 && a_sent.elapsed() < deadline,
            "B took {b_took:?}, {:?} after A was sent: it waited on A's wedged pass",
            a_sent.elapsed()
        );
    } else {
        assert_503_with_retry_after(&b);
        assert!(b.body_str().unwrap().contains("deadline"), "{:?}", b.body_str());
    }
    let a = a.join().expect("client A");
    assert_503_with_retry_after(&a);
    assert!(a.body_str().unwrap().contains("deadline"), "{:?}", a.body_str());

    nilm_fault::disarm_all();
    // Shutdown joins the wedged loop once its 2 s nap ends.
    gateway.shutdown();
}

#[test]
fn control_routes_answer_while_every_pass_loop_is_wedged() {
    // The control routes run inline on the reactor, never on the job
    // queue: with every pass loop asleep in a wedged pass, `/healthz`,
    // `/readyz` and `/metrics` must still answer at once.
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 3));
    let deadline = Duration::from_secs(2);
    let cfg = GatewayConfig { deadline, ..test_config() };
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();
    let body = localize_request(&[kettle()], &[toy_household(2, 5)], Detail::Summary).to_compact();

    let loops = camal::fleet::available_threads();
    nilm_fault::arm_limited("gateway.slow_pass", 1.0, 9, Some(loops as u64));
    let fired = || {
        nilm_fault::stats()
            .into_iter()
            .find(|(point, _)| point == "gateway.slow_pass")
            .map_or(0, |(_, s)| s.fired)
    };
    // One request at a time, each on its own connection, sent once the
    // previous one's pass took the fault: a wedged loop cannot take the
    // next request, so every loop wedges once.
    let sent = Instant::now();
    let clients: Vec<_> = (0..loops as u64)
        .map(|i| {
            let (addr, body) = (addr.clone(), body.clone());
            let client = std::thread::spawn(move || post_localize(&addr, &body));
            while fired() <= i {
                assert!(sent.elapsed() < deadline, "pass loop {i} never took the fault");
                std::thread::sleep(Duration::from_millis(1));
            }
            client
        })
        .collect();

    for path in ["/healthz", "/readyz", "/metrics"] {
        let start = Instant::now();
        let response = get(&addr, path);
        let took = start.elapsed();
        assert_eq!(response.status, 200, "{path}: {:?}", response.body_str());
        assert!(took < deadline / 10, "{path} took {took:?} with every pass loop wedged");
    }
    // Every loop naps 2x the deadline from when it fired, so all of them
    // were still wedged while the control routes answered.
    assert!(sent.elapsed() < deadline * 2, "the checks outlasted the wedge");
    for client in clients {
        let response = client.join().expect("localize client");
        assert_503_with_retry_after(&response);
        assert!(response.body_str().unwrap().contains("deadline"), "{:?}", response.body_str());
    }

    nilm_fault::disarm_all();
    // Shutdown joins every loop once its injected nap ends.
    gateway.shutdown();
}

#[test]
fn per_request_deadline_header_overrides_the_config() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 3));
    // Config deadline of 1s; the request's own 200ms header must win (the
    // injected slow pass sleeps 2x the config deadline, past both).
    let cfg = GatewayConfig { deadline: Duration::from_secs(1), ..test_config() };
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(2, 5)];
    let body = localize_request(&[kettle()], &households, Detail::Summary).to_compact();

    nilm_fault::arm_limited("gateway.slow_pass", 1.0, 9, Some(1));
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let request = format!(
        "POST /v1/localize HTTP/1.1\r\nHost: t\r\nX-Camal-Deadline-Ms: 200\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let start = Instant::now();
    (&stream).write_all(request.as_bytes()).expect("send");
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader).expect("response");
    let elapsed = start.elapsed();
    assert_503_with_retry_after(&response);
    assert!(
        elapsed < Duration::from_millis(900),
        "a 200ms header deadline must beat the 1s config deadline, took {elapsed:?}"
    );

    nilm_fault::disarm_all();
    // shutdown joins the batcher, which is still inside its 2s injected
    // nap — bounded, so the join is too.
    gateway.shutdown();
}

#[test]
fn checkpoint_corruption_becomes_503_retry_after_and_heals() {
    let _g = faults();
    let dir = std::env::temp_dir().join(format!("camal_chaos_gw_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(kettle().file_name());
    random_model(&[5], 21).save(&path).expect("save checkpoint");

    let mut registry = ModelRegistry::unbounded();
    registry.set_quarantine_policy(QuarantinePolicy {
        threshold: 2,
        base_backoff: Duration::from_millis(300),
        max_backoff: Duration::from_secs(2),
    });
    registry.register_file(kettle(), &path);
    let mut oracle = random_model(&[5], 21);
    let cfg = test_config();
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts (warm load is clean)");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(3, 8)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let expected = expected_body(&mut oracle, &households, batch);

    // Kill the batcher once so the rebuilt registry must reload the
    // checkpoint from disk — and make the next two reads corrupt.
    nilm_fault::arm_limited("batcher.panic", 1.0, 11, Some(1));
    nilm_fault::arm_limited("persist.load.corrupt", 1.0, 13, Some(2));
    let response = post_localize(&addr, &body);
    assert_503_with_retry_after(&response); // the panicked generation

    // Two corrupt reads: a Load failure (503), then the second failure
    // trips the threshold-2 quarantine (503 whose Retry-After covers the
    // backoff window). Neither may surface as 500.
    let response = post_localize(&addr, &body);
    assert_503_with_retry_after(&response);
    assert!(response.body_str().unwrap().contains("fleet pass failed"));
    let response = post_localize(&addr, &body);
    assert_503_with_retry_after(&response);

    // The quarantine window is open: even with storage healed the next
    // request inside the window is refused with a timed Retry-After.
    nilm_fault::disarm("persist.load.corrupt");
    let response = post_localize(&addr, &body);
    assert_503_with_retry_after(&response);
    assert!(response.body_str().unwrap().contains("quarantined"), "{:?}", response.body_str());

    // After the backoff expires the load retries, succeeds, and the
    // response is byte-identical to the healthy baseline.
    std::thread::sleep(Duration::from_millis(400));
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert_eq!(response.body_str().unwrap(), expected);

    let doc = metrics_doc(&addr);
    let registry_doc = doc.get("registry").expect("registry counters");
    assert!(counter(registry_doc, "load_failures") >= 2);
    assert!(counter(registry_doc, "quarantines") >= 1);

    nilm_fault::disarm_all();
    gateway.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_queue_full_sheds_cleanly() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 31));
    let gateway = Gateway::start(registry, test_config()).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(2, 6)];
    let body = localize_request(&[kettle()], &households, Detail::Summary).to_compact();

    nilm_fault::arm_limited("queue.full", 1.0, 17, Some(1));
    let response = post_localize(&addr, &body);
    assert_503_with_retry_after(&response);
    assert!(response.body_str().unwrap().contains("queue full"));

    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());

    nilm_fault::disarm_all();
    gateway.shutdown();
}

#[test]
fn reactor_panic_respawns_the_event_loop_and_serving_resumes() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5, 7], 51));
    let mut oracle = random_model(&[5, 7], 51);
    let cfg = test_config();
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(3, 12)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let expected = expected_body(&mut oracle, &households, batch);

    // Healthy baseline, and a keep-alive connection that will be live when
    // the event loop dies.
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_str().unwrap(), expected);
    let survivor = TcpStream::connect(&addr).expect("connect");
    survivor.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    (&survivor).write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut survivor_reader = BufReader::new(&survivor);
    assert_eq!(read_response(&mut survivor_reader).expect("pre-panic response").status, 200);

    // Kill the event loop once. The idle tick (<=25ms) trips it; the
    // supervisor respawns a fresh reactor on the same listener.
    nilm_fault::arm_limited("reactor.panic", 1.0, 43, Some(1));
    std::thread::sleep(Duration::from_millis(200));

    // The idle keep-alive connection was owned by the dead generation: it
    // must be closed cleanly (EOF or reset), never left hanging.
    let start = Instant::now();
    let gone = match std::io::Read::read(&mut survivor_reader, &mut [0u8; 16]) {
        Ok(0) | Err(_) => true,
        Ok(_) => false,
    };
    assert!(gone, "connections of the dead reactor generation must be closed");
    assert!(start.elapsed() < Duration::from_secs(5), "close must be prompt, not a timeout");

    // A reconnect+retry must land on the respawned reactor and be
    // byte-identical to the pre-panic baseline.
    let start = Instant::now();
    let response = post_localize(&addr, &body);
    assert!(start.elapsed() < Duration::from_secs(10), "no timely reply after reactor respawn");
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert_eq!(response.body_str().unwrap(), expected);

    let doc = metrics_doc(&addr);
    assert!(counter(&doc, "reactor_restarts") >= 1, "restart must be visible in metrics");
    let fired = doc
        .get("faults")
        .and_then(|f| f.get("reactor.panic"))
        .and_then(|p| p.get("fired"))
        .and_then(JsonValue::as_usize);
    assert_eq!(fired, Some(1), "fault counters must be exported");

    nilm_fault::disarm_all();
    gateway.shutdown();
}

#[test]
fn wedged_worker_is_answered_by_the_reactor_deadline() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5], 53));
    // The wedged decode naps 2x this deadline with the request checked
    // out; the reactor's deadline heap must answer the client anyway.
    let cfg = GatewayConfig { deadline: Duration::from_millis(250), ..test_config() };
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(2, 13)];
    let body = localize_request(&[kettle()], &households, Detail::Summary).to_compact();

    nilm_fault::arm("worker.wedge", 1.0, 47);
    let start = Instant::now();
    let response = post_localize(&addr, &body);
    let elapsed = start.elapsed();
    assert_503_with_retry_after(&response);
    assert!(response.body_str().unwrap().contains("deadline"), "{:?}", response.body_str());
    assert!(
        elapsed >= Duration::from_millis(200) && elapsed < Duration::from_secs(5),
        "deadline reply took {elapsed:?}, want ~250ms"
    );

    // Once the wedged pass loop wakes back up, it serves normally. (The
    // draw is per request, so the point is disarmed rather than limited.)
    nilm_fault::disarm("worker.wedge");
    std::thread::sleep(Duration::from_millis(700));
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert!(counter(&metrics_doc(&addr), "deadline_timeouts") >= 1);

    nilm_fault::disarm_all();
    gateway.shutdown();
}

#[test]
fn a_partial_wedge_hits_the_same_requests_whichever_worker_takes_them() {
    let _g = faults();
    const REQUESTS: usize = 6;
    let deadline = Duration::from_millis(300);
    let households = vec![toy_household(2, 15)];
    let body = localize_request(&[kettle()], &households, Detail::Summary).to_compact();
    let request = format!(
        "POST /v1/localize HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Two keep-alive clients take turns, one request in flight
    // gateway-wide: a wedged decode holds every request its loop drained
    // with it, so two requests in flight at once could make a request
    // that drew no wedge miss its deadline too. Which pass loop evaluates
    // each request's draw is still up to the scheduler. Returns, per
    // client, which of its requests were wedged.
    let run = || -> Vec<Vec<bool>> {
        let mut registry = ModelRegistry::unbounded();
        registry.insert(kettle(), random_model(&[5], 59));
        let cfg = GatewayConfig { deadline, ..test_config() };
        let gateway = Gateway::start(registry, cfg).expect("gateway starts");
        let addr = gateway.addr().to_string();
        nilm_fault::arm("worker.wedge", 0.35, 71);
        // Both connect before either sends: connection ids follow this
        // order on every run.
        let clients: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(&addr).expect("connect")).collect();
        let turn = Mutex::new(());
        let wedged = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .map(|stream| {
                    let (request, turn) = (&request, &turn);
                    s.spawn(move || {
                        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                        let mut reader = BufReader::new(stream);
                        (0..REQUESTS)
                            .map(|_| {
                                let _turn = turn.lock().unwrap_or_else(PoisonError::into_inner);
                                (&*stream).write_all(request.as_bytes()).expect("send");
                                let response = read_response(&mut reader).expect("response");
                                let wedged = response.status == 503;
                                if wedged {
                                    assert_503_with_retry_after(&response);
                                    let text = response.body_str().unwrap();
                                    assert!(text.contains("deadline"), "{text:?}");
                                    // Let the wedged loop wake before the next
                                    // request, so a free loop always exists and
                                    // only wedged requests miss their deadline.
                                    std::thread::sleep(deadline * 2 + deadline / 2);
                                } else {
                                    assert_eq!(response.status, 200, "{:?}", response.body_str());
                                }
                                wedged
                            })
                            .collect::<Vec<bool>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        nilm_fault::disarm_all();
        gateway.shutdown();
        wedged
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "a per-request wedge draw must not depend on the worker");
    let hits = first.iter().flatten().filter(|&&w| w).count();
    assert!(hits > 0 && hits < 2 * REQUESTS, "p = 0.35 should wedge some requests: {first:?}");
}

#[test]
fn forced_short_writes_still_deliver_byte_identical_responses() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5, 7], 57));
    let mut oracle = random_model(&[5, 7], 57);
    let cfg = test_config();
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(3, 14)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let expected = expected_body(&mut oracle, &households, batch);

    // Every flush now writes ONE byte and reports the socket as blocked,
    // forcing the reactor through the partial-write / re-register-WRITE /
    // resume path on every single response byte. The client must still see
    // the exact same bytes, just slower.
    nilm_fault::arm("conn.short_write", 1.0, 61);
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert_eq!(
        response.body_str().unwrap(),
        expected,
        "byte-at-a-time flushing must not corrupt or reorder the response"
    );
    nilm_fault::disarm("conn.short_write");

    assert!(
        counter(&metrics_doc(&addr), "partial_writes") >= 1,
        "the partial-write path must be visible in metrics"
    );

    // Fault cleared: healthy and still byte-identical.
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_str().unwrap(), expected);

    nilm_fault::disarm_all();
    gateway.shutdown();
}

#[test]
fn short_writes_hit_the_same_flushes_whichever_client_goes_first() {
    let _g = faults();
    const REQUESTS: usize = 4;
    let households = vec![toy_household(2, 16)];
    // A summary and a full-detail response. A forced short write sends one
    // byte, so a response's length caps how many of its flushes can go
    // short; at p = 0.999 that cap often binds, and a draw sequence shared
    // by both connections would give a different total depending on which
    // client goes first.
    let requests = [Detail::Summary, Detail::Full].map(|detail| {
        let body = localize_request(&[kettle()], &households, detail).to_compact();
        format!(
            "POST /v1/localize HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    });
    // Two keep-alive clients, each sending its requests one at a time, in
    // client `order`. Returns the gateway's `partial_writes` total and, per
    // client, its response bodies.
    let run = |order: [usize; 2]| -> (usize, Vec<Vec<String>>) {
        let mut registry = ModelRegistry::unbounded();
        registry.insert(kettle(), random_model(&[5], 63));
        let gateway = Gateway::start(registry, test_config()).expect("gateway starts");
        let addr = gateway.addr().to_string();
        nilm_fault::arm("conn.short_write", 0.999, 67);
        // Both connect before either sends: connection ids follow this
        // order on every run.
        let clients: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(&addr).expect("connect")).collect();
        let mut bodies = vec![Vec::new(), Vec::new()];
        for c in order {
            let stream = &clients[c];
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut reader = BufReader::new(stream);
            for _ in 0..REQUESTS {
                (&*stream).write_all(requests[c].as_bytes()).expect("send");
                let response = read_response(&mut reader).expect("response");
                assert_eq!(response.status, 200, "{:?}", response.body_str());
                bodies[c].push(response.body_str().expect("UTF-8 body").to_string());
            }
        }
        nilm_fault::disarm("conn.short_write");
        let partial_writes = counter(&metrics_doc(&addr), "partial_writes");
        gateway.shutdown();
        (partial_writes, bodies)
    };
    let first = run([0, 1]);
    let second = run([1, 0]);
    assert!(first.0 > 0, "p = 0.999 should force flushes short");
    assert_eq!(first.0, second.0, "a connection's short writes must not depend on the other's");
    assert_eq!(first.1, second.1, "short writes must not change a response byte");
    let mut oracle = random_model(&[5], 63);
    let expected = expected_body(&mut oracle, &households, test_config().batch_windows);
    assert!(first.1[1].iter().all(|b| *b == expected), "responses differ from the oracle");
}

#[test]
fn shard_panic_inside_the_gateway_retries_or_degrades() {
    let _g = faults();
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), random_model(&[5, 7], 41));
    let mut oracle = random_model(&[5, 7], 41);
    let cfg = test_config();
    let batch = cfg.batch_windows;
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    let households = vec![toy_household(3, 9)];
    let body = localize_request(&[kettle()], &households, Detail::Full).to_compact();
    let expected = expected_body(&mut oracle, &households, batch);

    // One panic: the shard retries on a fresh model copy; the client sees
    // a perfectly normal, byte-identical 200.
    nilm_fault::arm_limited("fleet.shard.panic", 1.0, 23, Some(1));
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    assert_eq!(response.body_str().unwrap(), expected);
    assert!(counter(&metrics_doc(&addr), "shard_retries_total") >= 1);

    // Persistent panics: attempt + retry both die, so the household comes
    // back as a structured degraded summary row — still a 200, the rest
    // of the response shape intact.
    nilm_fault::arm("fleet.shard.panic", 1.0, 29);
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200, "{:?}", response.body_str());
    let doc = nilm_json::parse(response.body_str().unwrap()).expect("valid JSON");
    let hh = doc.get("households").and_then(JsonValue::as_array).expect("households")[0].clone();
    let reason = hh.get("degraded").and_then(JsonValue::as_str).expect("degraded reason");
    assert!(reason.contains("injected fault"), "{reason}");
    assert!(counter(&metrics_doc(&addr), "households_degraded_total") >= 1);

    // Fault cleared: back to byte-identical healthy responses.
    nilm_fault::disarm_all();
    let response = post_localize(&addr, &body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_str().unwrap(), expected);

    gateway.shutdown();
}
