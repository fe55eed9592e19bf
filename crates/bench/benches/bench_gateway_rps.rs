//! Gateway throughput: socket-level loadgen against a running
//! `nilm_serve::Gateway` at 1 / 4 / 16 / 256 concurrent keep-alive
//! connections, plus the sequential-single-request baseline (one
//! connection per request, the naive-integration shape) — reporting
//! requests/s and p50/p99 latency — and an in-process measurement of the
//! micro-batcher's server-side coalescing win (one merged fleet pass for
//! K requests vs K single-request passes), which is deterministic because
//! no socket or scheduler noise is involved. The 256-connection row is
//! the epoll reactor's headline: a thread-per-connection gateway degrades
//! or sheds there, the event loop must hold rps with zero errors.
//!
//! Writes and validates `BENCH_gateway.json` (committed at the repo root
//! as the regression baseline, like `BENCH_conv_gemm.json`).
//!
//! ```text
//! cargo bench -p nilm_bench --bench bench_gateway_rps             # full
//! cargo bench -p nilm_bench --bench bench_gateway_rps -- --smoke  # CI, seconds
//! ```

use camal::ensemble::EnsembleMember;
use camal::fleet::{serve_fleet, FleetConfig};
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::HouseholdSeries;
use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;
use nilm_json::{validate, JsonValue};
use nilm_serve::protocol::{localize_request, Detail};
use nilm_serve::{
    run_loadgen, run_loadgen_with, Gateway, GatewayConfig, LoadgenOptions, LoadgenReport,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WINDOW: usize = 32;

fn kettle() -> ModelKey {
    ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle)
}

/// A tiny untrained single-member model recorded at `window`: scheduler
/// and gateway throughput do not depend on trained weights, so skipping
/// training keeps the fixture instant.
fn bench_fleet_model(window: usize, seed: u64) -> CamalModel {
    let cfg = CamalConfig {
        n_ensemble: 1,
        kernels: vec![5],
        trials: 1,
        width_div: 16,
        ..Default::default()
    };
    let mut rng = nilm_tensor::init::rng(seed);
    let spec = nilm_models::BackboneSpec::ResNet { kernel: 5, width_div: cfg.width_div };
    let member =
        EnsembleMember { net: nilm_models::build_from_spec(&mut rng, spec), spec, val_loss: 0.1 };
    let mut model = CamalModel::from_members(cfg, vec![member]);
    model.set_window(window);
    model
}

fn registry() -> ModelRegistry {
    let mut registry = ModelRegistry::unbounded();
    registry.insert(kettle(), bench_fleet_model(WINDOW, 17));
    registry
}

fn household(seed: u64, windows: usize) -> HouseholdSeries {
    let mut rng = nilm_tensor::init::rng(seed);
    let values: Vec<f32> = (0..windows * WINDOW)
        .map(|t| {
            let on = (t / 9) % 4 == 0;
            (if on { 2000.0 } else { 150.0 }) + nilm_tensor::init::randn(&mut rng).abs() * 25.0
        })
        .collect();
    HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, 60) }
}

fn report_json(r: &LoadgenReport) -> JsonValue {
    JsonValue::object([
        ("connections", JsonValue::Number(r.connections as f64)),
        ("requests_per_second", JsonValue::Number(r.requests_per_second)),
        ("p50_ms", JsonValue::Number(r.p50_ms)),
        ("p99_ms", JsonValue::Number(r.p99_ms)),
        ("ok", JsonValue::Number(r.ok as f64)),
        ("errors", JsonValue::Number(r.errors as f64)),
    ])
}

/// Best-of-5 loadgen runs by rps. Throughput on a shared 1-core box is
/// capacity minus whatever the scheduler stole that run, so the max is
/// the uncontended-capacity estimate (same reasoning as hyperfine's
/// min-time); a single ~10 ms preemption otherwise dominates a 250 ms
/// run. Tail latency is NOT taken from here — the paced measurement
/// owns that.
fn measure(
    addr: &str,
    connections: usize,
    requests: usize,
    body: &str,
    keep_alive: bool,
) -> LoadgenReport {
    let mut runs: Vec<LoadgenReport> = (0..5)
        .map(|_| run_loadgen(addr, connections, requests, body, keep_alive).expect("loadgen run"))
        .collect();
    best_by_rps(&mut runs)
}

fn best_by_rps(runs: &mut [LoadgenReport]) -> LoadgenReport {
    runs.sort_by(|a, b| {
        a.requests_per_second.partial_cmp(&b.requests_per_second).expect("finite rps")
    });
    runs.last().expect("at least one run").clone()
}

fn median_by_p99(runs: &mut [LoadgenReport]) -> LoadgenReport {
    runs.sort_by(|a, b| a.p99_ms.partial_cmp(&b.p99_ms).expect("finite p99"));
    runs[runs.len() / 2].clone()
}

/// One paced loadgen run: fixed aggregate offered load (`target_rps`)
/// spread evenly over `connections` connections (wrk2-style open loop,
/// latency from the scheduled send time). This is the measurement that
/// makes tail latency comparable *across* connection counts: a closed
/// loop at N connections keeps N requests in flight, so its latency
/// grows ~linearly in N by Little's law even when the server is
/// perfectly flat.
fn run_paced(
    addr: &str,
    connections: usize,
    requests: usize,
    body: &str,
    target_rps: f64,
) -> LoadgenReport {
    let opts = LoadgenOptions {
        connections,
        total_requests: requests,
        keep_alive: true,
        pipeline: 1,
        pace: Some(Duration::from_secs_f64(connections as f64 / target_rps)),
    };
    run_loadgen_with(addr, body, &opts).expect("paced loadgen run")
}

/// Server-side coalescing effect, no sockets: K requests' households
/// served as one merged fleet pass vs K single-household passes. Returns
/// (solo_us_per_request, coalesced_us_per_request).
fn coalescing_probe(reg: &mut ModelRegistry, windows: usize, coalesce: usize) -> (f64, f64) {
    let cfg = FleetConfig { batch: 64, ..FleetConfig::at_step(60) };
    let keys = [kettle()];
    let feeds: Vec<HouseholdSeries> =
        (0..coalesce).map(|i| household(40 + i as u64, windows)).collect();
    // Warm.
    let _ = serve_fleet(reg, &keys, &feeds, &cfg).unwrap();
    let reps = 256 / coalesce.max(1);
    let start = Instant::now();
    for _ in 0..reps {
        for feed in &feeds {
            let _ = std::hint::black_box(serve_fleet(reg, &keys, std::slice::from_ref(feed), &cfg));
        }
    }
    let solo = start.elapsed().as_secs_f64() * 1e6 / (reps * coalesce) as f64;
    let start = Instant::now();
    for _ in 0..reps {
        let _ = std::hint::black_box(serve_fleet(reg, &keys, &feeds, &cfg));
    }
    let merged = start.elapsed().as_secs_f64() * 1e6 / (reps * coalesce) as f64;
    (solo, merged)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Bench executables run with the package dir as CWD; default to the
    // workspace root so a plain `cargo bench` refreshes the committed
    // baseline in place.
    let out_dir: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let requests = if smoke { 300 } else { 1500 };
    let windows_per_request = 1usize;

    println!(
        "bench_gateway_rps: mode={} window={WINDOW} requests={requests} windows/request={windows_per_request}",
        if smoke { "smoke" } else { "full" }
    );

    let gateway = Gateway::start(registry(), GatewayConfig::default()).expect("gateway starts");
    let addr = gateway.addr().to_string();
    let body = localize_request(&[kettle()], &[household(9, windows_per_request)], Detail::Summary)
        .to_compact();

    let sequential_single = measure(&addr, 1, requests, &body, false);
    println!(
        "sequential-single  {:7.1} req/s  p50 {:6.2} ms  p99 {:6.2} ms (1 conn/request)",
        sequential_single.requests_per_second, sequential_single.p50_ms, sequential_single.p99_ms
    );

    // Tracing overhead: the closed-loop 4-connection workload with request
    // tracing off vs on (spans recorded socket-to-kernel into the bounded
    // ring). Rounds interleave off/on and ALTERNATE which side goes first
    // (off-on, on-off, ...) so monotonic drift — allocator aging, thermal —
    // cancels instead of landing on whichever side always ran second. Runs
    // *before* the concurrency sweep: the 256-connection row fragments the
    // heap, which adds noise larger than the delta being measured. The
    // claim is that the on/off delta stays within the box's ±10% run noise.
    let trace_requests = if smoke { 300 } else { 3000 };
    let mut trace_off_runs: Vec<LoadgenReport> = Vec::new();
    let mut trace_on_runs: Vec<LoadgenReport> = Vec::new();
    let mut trace_run = |on: bool| {
        nilm_obs::trace::set_enabled(on);
        let report = run_loadgen(&addr, 4, trace_requests, &body, true).expect("trace run");
        if on {
            trace_on_runs.push(report);
        } else {
            trace_off_runs.push(report);
        }
    };
    for round in 0..6 {
        let first_on = round % 2 == 1;
        trace_run(first_on);
        trace_run(!first_on);
    }
    nilm_obs::trace::set_enabled(false);
    let trace_off = best_by_rps(&mut trace_off_runs);
    let trace_on = best_by_rps(&mut trace_on_runs);
    let trace_overhead_pct =
        (trace_off.requests_per_second / trace_on.requests_per_second.max(1e-9) - 1.0) * 100.0;
    println!(
        "trace overhead:    {:7.1} req/s off vs {:7.1} req/s on = {trace_overhead_pct:+.1}% \
         (run noise ±10%)",
        trace_off.requests_per_second, trace_on.requests_per_second
    );
    // Well below the ~26k req/s closed-loop capacity of this box, so the
    // paced rows measure queueing behaviour, not saturation collapse.
    let paced_target_rps = 8000.0;
    let paced_requests = if smoke { 512 } else { 4096 };
    // Keep-alive rows run at ~20-27k req/s, so a run needs to be a few
    // hundred ms long or a single scheduler preemption (~10 ms on this
    // 1-core box) dominates the row. 6000 requests ≈ 250 ms per run.
    let ka_requests = if smoke { 300 } else { 6000 };
    // Runs are interleaved round-robin across connection counts (round 1
    // of every row, then round 2, ...) so minute-scale ambient drift on
    // this shared box lands on every row equally instead of on whichever
    // row happened to run during the bad minute — the rows are compared
    // against each other, so they must sample the same conditions.
    let conn_counts = [1usize, 4, 16, 256];
    let mut closed_runs: Vec<Vec<LoadgenReport>> = conn_counts.iter().map(|_| Vec::new()).collect();
    let mut paced_runs: Vec<Vec<LoadgenReport>> = conn_counts.iter().map(|_| Vec::new()).collect();
    for _round in 0..5 {
        for (i, &connections) in conn_counts.iter().enumerate() {
            // The 256-connection row needs enough requests for every
            // connection to cycle a few times.
            let n = ka_requests.max(connections * 4);
            closed_runs[i].push(
                run_loadgen(&addr, connections, n, &body, true).expect("keep-alive loadgen run"),
            );
        }
    }
    for _round in 0..7 {
        for (i, &connections) in conn_counts.iter().enumerate() {
            let n = paced_requests.max(connections * 4);
            paced_runs[i].push(run_paced(&addr, connections, n, &body, paced_target_rps));
        }
    }
    let mut keepalive_reports: Vec<(usize, LoadgenReport, LoadgenReport)> = Vec::new();
    for (i, &connections) in conn_counts.iter().enumerate() {
        let r = best_by_rps(&mut closed_runs[i]);
        let p = median_by_p99(&mut paced_runs[i]);
        println!(
            "keep-alive x{connections:<3}    {:7.1} req/s  p50 {:6.2} ms  p99 {:6.2} ms  {} err  | paced@{paced_target_rps:.0}: p50 {:6.3} ms  p99 {:6.3} ms  {} err",
            r.requests_per_second, r.p50_ms, r.p99_ms, r.errors, p.p50_ms, p.p99_ms, p.errors
        );
        keepalive_reports.push((connections, r, p));
    }

    gateway.shutdown();

    // Deterministic server-side coalescing effect (no sockets involved).
    let mut reg = registry();
    let (solo_us, merged_us) = coalescing_probe(&mut reg, windows_per_request, 8);
    let coalescing_speedup = solo_us / merged_us.max(1e-9);
    println!(
        "coalescing probe: {solo_us:.1} us/request solo vs {merged_us:.1} us/request merged \
         (8 requests/pass) = {coalescing_speedup:.2}x server-side"
    );

    let concurrency_speedup = keepalive_reports
        .iter()
        .find(|(c, _, _)| *c == 4)
        .map(|(_, r, _)| r.requests_per_second / sequential_single.requests_per_second.max(1e-9))
        .unwrap_or(0.0);

    let doc = JsonValue::object([
        ("schema", JsonValue::String("bench_gateway_rps/v1".into())),
        (
            "baseline_note",
            JsonValue::String(
                "Measured on a single-core container: keep-alive connection counts cannot add \
                 CPU, so the headline win is gateway-vs-naive-client (sequential_single issues \
                 one connection per request). The gateway front-end is an epoll reactor (one \
                 event-loop thread owning every connection), so connection counts cost no \
                 threads: rps must hold from 4 through 16 connections and the 256-connection \
                 row must complete with zero errors. Each row carries two latency measures. \
                 The top-level p50/p99 are CLOSED-LOOP (each connection fires its next request \
                 only after the previous response): they grow ~linearly with connections by \
                 Little's law (N in flight over a fixed-capacity server) and are NOT \
                 comparable across rows — they serve the rps/throughput criterion only. The \
                 'paced' sub-object is the cross-row tail-latency measure: a fixed aggregate \
                 offered load (target_rps) spread evenly over the row's connections, wrk2-style \
                 open loop with latency counted from the scheduled send time (coordinated- \
                 omission corrected). The flat-tail criterion is paced: p99 at 16 connections \
                 must stay within 2x the 4-connection paced p99. The coalescing section \
                 isolates the batcher's server-side saving (one merged fleet pass for 8 \
                 requests vs 8 solo passes) without socket or scheduler noise; on multi-core \
                 hosts the worker pool additionally scales decode/validate with cores. \
                 Throughput rows are best-of-5 runs (uncontended capacity — the max is the run \
                 the scheduler stole least from); paced latency is the median-of-7 by p99. \
                 Run-to-run noise on this box is ±10%."
                    .into(),
            ),
        ),
        ("mode", JsonValue::String(if smoke { "smoke" } else { "full" }.into())),
        ("window", JsonValue::Number(WINDOW as f64)),
        ("requests", JsonValue::Number(requests as f64)),
        ("windows_per_request", JsonValue::Number(windows_per_request as f64)),
        ("sequential_single", report_json(&sequential_single)),
        (
            "keep_alive",
            JsonValue::Array(
                keepalive_reports
                    .iter()
                    .map(|(_, r, p)| {
                        let JsonValue::Object(mut fields) = report_json(r) else { unreachable!() };
                        fields.insert(
                            "paced".into(),
                            JsonValue::object([
                                ("target_rps", JsonValue::Number(paced_target_rps)),
                                ("p50_ms", JsonValue::Number(p.p50_ms)),
                                ("p99_ms", JsonValue::Number(p.p99_ms)),
                                ("errors", JsonValue::Number(p.errors as f64)),
                            ]),
                        );
                        JsonValue::Object(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "trace_overhead",
            JsonValue::object([
                ("connections", JsonValue::Number(4.0)),
                ("requests", JsonValue::Number(trace_requests as f64)),
                ("off", report_json(&trace_off)),
                ("on", report_json(&trace_on)),
                ("overhead_pct", JsonValue::Number(trace_overhead_pct)),
                (
                    "note",
                    JsonValue::String(
                        "Closed-loop rps with NILM_TRACE off vs on (spans recorded for every \
                         request, socket to kernel). Best of 6 interleaved rounds with the \
                         off/on order alternating each round so drift cancels, measured \
                         before the concurrency sweep fragments the heap; the delta must \
                         sit within this box's ±10% run-to-run noise."
                            .into(),
                    ),
                ),
            ]),
        ),
        (
            "coalescing",
            JsonValue::object([
                ("requests_per_pass", JsonValue::Number(8.0)),
                ("solo_us_per_request", JsonValue::Number(solo_us)),
                ("merged_us_per_request", JsonValue::Number(merged_us)),
                ("speedup", JsonValue::Number(coalescing_speedup)),
            ]),
        ),
        ("concurrency_speedup_vs_single_at_4", JsonValue::Number(concurrency_speedup)),
    ]);
    let text = doc.to_pretty();
    validate(&text).expect("bench emitted invalid JSON");
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    let path = out_dir.join("BENCH_gateway.json");
    std::fs::write(&path, &text).expect("cannot write benchmark artifact");
    validate(&std::fs::read_to_string(&path).expect("re-read artifact"))
        .expect("benchmark artifact on disk is invalid JSON");
    println!("wrote {} (validated)", path.display());
}
