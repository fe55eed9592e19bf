//! CamAL benchmark: three workloads through the entry points users call.
//!
//! ```text
//! benchmark/run.sh --workload <live_small|bulk_localize|train_ensemble> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and then the traced in-process replay, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the report and the
//! host stamp go to standard error.

mod client;
mod gen;
mod host;
mod replay;
mod spans;
mod stats;
mod wait;
mod workload;

use client::Pool;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{Spec, Zoo};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse::<u64>().map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload: value("--workload")?, seed: number("--seed")?, seconds, trace })
}

/// Where runs keep checkpoints and traces: the build directory.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
}

/// Everything one run measured.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

/// Counts one checked operation.
fn tally(outcome: &mut Outcome, ok: bool, what: &str) {
    outcome.attempted += 1;
    if !ok {
        outcome.failed += 1;
        eprintln!("check failed: {what}");
    }
}

fn run(spec: &Spec, args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome { attempted: 0, failed: 0, metrics: BTreeMap::new() };
    let bodies = workload::request_bodies(spec, args.seed);
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| gen::http_request(b)).collect();

    // Each repetition trains the zoo from a cold autotuner, starts a fresh
    // gateway on it, warms it and measures its share of the segments, so
    // the reported medians span several gateway instances. `setup_s` is
    // the median over repetitions and `train_s` the sum over the zoo's
    // models of each model's median training time over all trainings;
    // every training's checkpoints must be byte-identical.
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut first_bytes: Option<Vec<Vec<u8>>> = None;
    let mut served = workload::Served::default();
    let mut live: Option<(nilm_serve::Gateway, Zoo, camal::ModelRegistry, Arc<Pool>)> = None;
    for rep in 0..spec.reps {
        if let Some((gateway, ..)) = live.take() {
            gateway.shutdown();
        }
        let rep_dir = dir.join(format!("rep{rep}"));
        std::fs::create_dir_all(&rep_dir).expect("create zoo directory");
        let start = Instant::now();
        let data: Vec<_> =
            spec.appliances.iter().map(|&k| workload::case_data(&spec.scale, k)).collect();
        let mut trained = None;
        // Training seconds outside set-up: every training on the training
        // workload, every training after the first elsewhere.
        let mut untimed = 0.0;
        for t in 0..spec.trainings {
            let (zoo, secs) = workload::train_zoo(spec, data.clone(), &rep_dir);
            if t > 0 || !spec.train_in_setup {
                untimed += secs.iter().sum::<f64>();
            }
            train_s.push(secs);
            match &first_bytes {
                Some(first) => {
                    tally(&mut out, *first == zoo.bytes, "two trainings gave different checkpoints")
                }
                None => first_bytes = Some(zoo.bytes.clone()),
            }
            trained.get_or_insert(zoo);
        }
        let zoo = trained.expect("at least one training");
        // The oracle is checking work, and on the training workload the
        // training is the measured operation: neither counts as set-up.
        let oracle_start = Instant::now();
        let mut registry = workload::registry(&zoo);
        let expected = workload::oracle(&mut registry, &bodies);
        untimed += oracle_start.elapsed().as_secs_f64();
        // The gateway starts from a cold autotuner too, so warm-up always
        // races every serving shape, whatever the oracle already ran.
        nilm_tensor::dispatch::clear_choices();
        host::release_free_memory();
        let gateway =
            nilm_serve::Gateway::start(workload::registry(&zoo), workload::gateway_config())
                .expect("gateway starts");
        let pool = Arc::new(Pool { requests: requests.clone(), expected });
        warm(&mut out, spec, &gateway, &mut registry, &zoo, &pool);
        setup_s.push(start.elapsed().as_secs_f64() - untimed);
        served.merge(workload::serve_timed(
            gateway.addr(),
            &pool,
            spec,
            args.seed.wrapping_add(rep as u64),
            args.seconds as f64 / spec.reps as f64,
        ));
        live = Some((gateway, zoo, registry, pool));
    }

    let (gateway, zoo, mut registry, pool) = live.expect("a gateway is running");
    out.attempted += served.attempted();
    out.failed += served.failed();
    if served.autotune_misses > 0 {
        eprintln!(
            "warning: {} shapes were autotuned inside the timed phase",
            served.autotune_misses
        );
    }
    for (i, seg) in served.segments.iter().enumerate() {
        let l = stats::sorted(seg.latency.latencies_ms.clone());
        eprintln!(
            "segment {i}: p50 {:.4} ms, p90 {:.4} ms, capacity phase {:.0} req/s",
            stats::percentile(&l, 0.5).unwrap_or(f64::NAN),
            stats::percentile(&l, 0.9).unwrap_or(f64::NAN),
            seg.capacity
                .as_ref()
                .map_or(f64::NAN, |c| (c.attempted - c.failed) as f64 / c.elapsed_s),
        );
    }
    eprintln!("set-up repetitions {setup_s:.3?} s, trainings {train_s:.3?} s");
    let p50 = served.latency_ms(0.50);
    let p90 = served.latency_ms(0.90);
    tally(&mut out, p50.is_some() && p90.is_some(), "too few samples for p50/p90");
    let (loc_f1, det_bacc) = workload::quality(&mut registry, &zoo);
    tally(&mut out, loc_f1 > 0.0 && det_bacc > 0.0, "model quality is zero");

    if args.trace {
        let trace_path =
            work_root().join("bench-traces").join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        let (layers, mismatches) = replay::run(
            replay::Inputs {
                spec,
                registry: &mut registry,
                zoo: &zoo,
                requests: &pool.requests,
                expected: &pool.expected,
                served: &served,
                client_p50_ms: p50.unwrap_or(0.0),
            },
            &trace_path,
        );
        tally(&mut out, mismatches == 0, "replayed responses differ from the oracle");
        eprintln!("spans written to {}", trace_path.display());
        out.metrics = layers;
    } else {
        let capacity_rps = served.capacity_rps();
        let m = &mut out.metrics;
        m.insert("setup_s".into(), (stats::median(&setup_s), "s"));
        m.insert("p50_ms".into(), (p50.unwrap_or(0.0), "ms"));
        m.insert("p90_ms".into(), (p90.unwrap_or(0.0), "ms"));
        m.insert("capacity_rps".into(), (capacity_rps, "req/s"));
        m.insert(
            "households_per_s".into(),
            (capacity_rps * spec.houses_per_request as f64, "households/s"),
        );
        let per_model = (0..spec.appliances.len())
            .map(|k| stats::median(&train_s.iter().map(|rep| rep[k]).collect::<Vec<f64>>()));
        m.insert("train_s".into(), (per_model.sum(), "s"));
        m.insert("loc_f1".into(), (loc_f1, "ratio"));
        m.insert("det_bacc".into(), (det_bacc, "ratio"));
        m.insert("peak_rss_mb".into(), (host::peak_rss_mb(), "MB"));
        eprintln!(
            "{}: {} timed requests in {} segments, {} capacity passes",
            spec.name,
            served.attempted(),
            served.segments.len(),
            served.capacity_counters.passes()
        );
    }
    gateway.shutdown();
    out
}

/// Warms a freshly started gateway: every batch shape in-process, then
/// real requests until the autotuner stops learning new shapes.
fn warm(
    out: &mut Outcome,
    spec: &Spec,
    gateway: &nilm_serve::Gateway,
    registry: &mut camal::ModelRegistry,
    zoo: &Zoo,
    pool: &Arc<Pool>,
) {
    workload::warm_shapes(registry, &zoo.keys, spec.scale.window, &workload::batch_sizes(spec));
    let (attempted, failed) = workload::warm_gateway(gateway.addr(), pool, spec);
    out.attempted += attempted;
    out.failed += failed;
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let set = host::guarded_env_set();
    if !set.is_empty() {
        eprintln!("refusing to run: {set:?} change the program under test; unset them");
        std::process::exit(2);
    }
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    eprintln!("host: {}", host::stamp(workload::gateway_config().reactor_workers));
    let dir = work_root().join("bench-run").join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create run directory");
    let started = Instant::now();
    let out = run(&spec, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("run took {:.1} s", started.elapsed().as_secs_f64());
    let correct = out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
