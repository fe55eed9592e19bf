//! The traced replay: the workload's inputs run in-process through each
//! layer's public functions, in the order the gateway calls them, with
//! every call wrapped in a benchmark-owned span. Nothing is traced inside
//! the program; the spans sit around the calls.

use crate::spans::{by_name, Recorder};
use crate::stats;
use crate::workload::{self, Served, Spec, Zoo};
use camal::fleet::serve_fleet;
use camal::localize::attention_status;
use camal::postprocess::apply_duration_prior;
use camal::registry::ModelRegistry;
use camal::{estimate_power, CamalModel};
use nilm_data::preprocess::{forward_fill, resample, valid_window_starts, INPUT_SCALE};
use nilm_serve::http::{encode_response_with, HttpLimits, RequestParser};
use nilm_serve::protocol::{localize_response, parse_localize, HouseholdRow, LocalizeRequest};
use nilm_tensor::layer::Mode;
use nilm_tensor::tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics, by name: (value, unit).
pub type LayerMetrics = BTreeMap<String, (f64, &'static str)>;

/// Everything the replay needs from the run that preceded it.
pub struct Inputs<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// In-process registry over the same checkpoints the gateway serves.
    pub registry: &'a mut ModelRegistry,
    /// The zoo.
    pub zoo: &'a Zoo,
    /// Raw HTTP requests of the pool.
    pub requests: &'a [Vec<u8>],
    /// Expected response bodies of the pool.
    pub expected: &'a [Vec<u8>],
    /// What the timed gateway phases observed.
    pub served: &'a Served,
    /// Client-measured median latency of the latency phase, ms.
    pub client_p50_ms: f64,
}

/// Requests the blocking replay covers, per workload.
fn replay_requests(spec: &Spec) -> usize {
    match spec.houses_per_request * spec.appliances.len() {
        1 if spec.summary => 3000,
        1 => 200,
        _ => 24,
    }
}

/// Pass sizes to replay, in proportion to the passes the gateway ran
/// during the latency phase, covering about `want` requests.
pub fn pass_sizes(observed: &BTreeMap<usize, u64>, want: usize) -> Vec<usize> {
    let requests: u64 = observed.iter().map(|(&k, &v)| k as u64 * v).sum();
    if requests == 0 {
        return vec![1; want];
    }
    let scale = want as f64 / requests as f64;
    let mut sizes = Vec::new();
    for (&k, &v) in observed {
        let n = (v as f64 * scale).round() as usize;
        sizes.extend(std::iter::repeat_n(k, n));
    }
    if sizes.is_empty() {
        let (&modal, _) = observed.iter().max_by_key(|(_, &v)| v).expect("nonempty");
        sizes = vec![modal; want.div_ceil(modal).max(1)];
    }
    // Interleave sizes so no layer sees one shape in a long run.
    let mut rng = crate::gen::Rng::new(sizes.len() as u64);
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.range(0, i));
    }
    sizes
}

/// Parses one raw request with the gateway's incremental parser.
fn parse_http(raw: &[u8]) -> Vec<u8> {
    let mut parser = RequestParser::new(HttpLimits::default());
    let mut offset = 0;
    loop {
        let (n, request) = parser.feed(&raw[offset..]).expect("generated requests parse");
        offset += n;
        if let Some(request) = request {
            return request.body;
        }
        assert!(n > 0, "parser made no progress");
    }
}

/// The response bytes the gateway's batcher and reactor build for one
/// request of a pass.
fn encode(req: &LocalizeRequest, result: &camal::FleetResult, range: (usize, usize)) -> Vec<u8> {
    let rows: Vec<HouseholdRow> = (range.0..range.0 + range.1)
        .map(|hi| {
            let hh = &result.households[hi];
            HouseholdRow {
                id: &hh.id,
                degraded: hh.degraded.as_deref(),
                timelines: req
                    .appliances
                    .iter()
                    .map(|&k| result.timeline(hi, k).expect("pass covers every key"))
                    .collect(),
            }
        })
        .collect();
    let body = localize_response(&req.appliances, &rows, req.detail).to_compact();
    encode_response_with(200, "OK", "application/json", body.as_bytes(), true, &[])
}

/// Result of one blocking replay.
struct Blocking {
    rec: Recorder,
    elapsed_s: f64,
    mismatches: usize,
    requests: usize,
}

/// The gateway's blocking path per pass: parse and decode each request,
/// one fleet pass over the merged households, then encode each answer.
fn blocking(inputs: &mut Inputs, sizes: &[usize], traced: bool) -> Blocking {
    let cfg = workload::fleet_config();
    let mut rec = Recorder::new(traced);
    let mut mismatches = 0;
    let mut cursor = 0usize;
    let pool = inputs.requests.len();
    let start = Instant::now();
    for (p, &k) in sizes.iter().enumerate() {
        let root = rec.enter("pass", p as u64);
        let entries: Vec<usize> = (0..k).map(|i| (cursor + i) % pool).collect();
        cursor += k;
        let mut bodies = Vec::with_capacity(k);
        for &e in &entries {
            let s = rec.enter("http.parse", p as u64);
            bodies.push(parse_http(&inputs.requests[e]));
            rec.exit(s);
        }
        let mut reqs = Vec::with_capacity(k);
        for body in &bodies {
            let s = rec.enter("protocol.decode", p as u64);
            reqs.push(parse_localize(body).expect("generated bodies decode"));
            rec.exit(s);
        }
        let mut group = reqs[0].appliances.clone();
        group.sort();
        let mut merged = Vec::new();
        let mut ranges = Vec::with_capacity(k);
        for r in &mut reqs {
            let households = std::mem::take(&mut r.households);
            ranges.push((merged.len(), households.len()));
            merged.extend(households);
        }
        let s = rec.enter("fleet.pass", p as u64);
        let result = serve_fleet(inputs.registry, &group, &merged, &cfg).expect("replay pass");
        rec.exit(s);
        for ((r, &range), &e) in reqs.iter().zip(&ranges).zip(&entries) {
            let s = rec.enter("protocol.encode", p as u64);
            let bytes = encode(r, &result, range);
            rec.exit(s);
            if !bytes.ends_with(&inputs.expected[e]) {
                mismatches += 1;
            }
        }
        rec.exit(root);
    }
    Blocking {
        rec,
        elapsed_s: start.elapsed().as_secs_f64(),
        mismatches,
        requests: sizes.iter().sum(),
    }
}

/// Counts of the decomposed fleet replay.
#[derive(Default)]
struct Decomposed {
    households: usize,
    windows: usize,
    detected: usize,
    timelines: usize,
    kernel_ns_in_localize: u64,
    batches: Vec<Tensor>,
}

fn kernel_ns() -> u64 {
    workload::kernel_totals().values().map(|&(ns, _)| ns).sum()
}

/// The inside of a fleet pass, call by call: per-household preprocessing,
/// `localize_batch` per GEMM batch and model (plus the attention step per
/// detected window), then duration priors and power per timeline.
fn decomposed(inputs: &mut Inputs, sizes: &[usize], rec: &mut Recorder) -> Decomposed {
    let cfg = workload::fleet_config();
    let w = inputs.spec.scale.window;
    let mut out = Decomposed::default();
    let mut cursor = 0usize;
    let pool = inputs.requests.len();
    let mut keys = inputs.zoo.keys.clone();
    keys.sort();
    for (p, &k) in sizes.iter().enumerate() {
        let households: Vec<_> = (0..k)
            .flat_map(|i| {
                let body = parse_http(&inputs.requests[(cursor + i) % pool]);
                parse_localize(&body).expect("decodes").households
            })
            .collect();
        cursor += k;
        let root = rec.enter("fleet.decomposed", p as u64);
        let mut aggregates = Vec::with_capacity(households.len());
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for (hi, hh) in households.iter().enumerate() {
            let s = rec.enter("data.preprocess", p as u64);
            let agg = forward_fill(&resample(&hh.series, cfg.step_s), cfg.max_ffill_s);
            let starts = valid_window_starts(&agg, w);
            rec.exit(s);
            jobs.extend(starts.into_iter().map(|start| (hi, start)));
            aggregates.push(agg);
        }
        out.households += households.len();
        let mut raw: Vec<Vec<Vec<u8>>> =
            keys.iter().map(|_| aggregates.iter().map(|a| vec![0u8; a.len()]).collect()).collect();
        for chunk in jobs.chunks(cfg.batch.max(1)) {
            let mut x = Tensor::zeros(&[chunk.len(), 1, w]);
            for (bi, &(hi, start)) in chunk.iter().enumerate() {
                let src = &aggregates[hi].values[start..start + w];
                for (d, &v) in x.data_mut()[bi * w..(bi + 1) * w].iter_mut().zip(src) {
                    *d = v * INPUT_SCALE;
                }
            }
            for (mi, &key) in keys.iter().enumerate() {
                let model = inputs.registry.get_mut(key).expect("zoo model loads");
                let (margin, attention) =
                    (model.config().attention_margin, model.config().use_attention);
                let k0 = kernel_ns();
                let s = rec.enter("model.localize", p as u64);
                let loc = model.localize_batch(&x);
                rec.exit(s);
                out.kernel_ns_in_localize += kernel_ns() - k0;
                out.windows += chunk.len();
                for (bi, &(hi, start)) in chunk.iter().enumerate() {
                    raw[mi][hi][start..start + w].copy_from_slice(&loc.status[bi]);
                    if loc.detected[bi] {
                        out.detected += 1;
                        if attention {
                            let s = rec.enter("localize.attention", p as u64);
                            std::hint::black_box(attention_status(
                                &loc.cam[bi],
                                x.row(bi, 0),
                                margin,
                            ));
                            rec.exit(s);
                        }
                    }
                }
            }
            if out.batches.len() < 16 {
                out.batches.push(x);
            }
        }
        for (mi, &key) in keys.iter().enumerate() {
            let avg_power = nilm_data::templates::template(key.dataset)
                .case(key.appliance)
                .map_or(1000.0, |c| c.avg_power_w);
            for (hi, agg) in aggregates.iter().enumerate() {
                let s = rec.enter("postprocess.stitch", p as u64);
                let mut status = raw[mi][hi].clone();
                if cfg.apply_priors {
                    apply_duration_prior(&mut status, key.appliance, cfg.step_s);
                }
                std::hint::black_box(estimate_power(&status, avg_power, &agg.values));
                rec.exit(s);
                out.timelines += 1;
            }
        }
        rec.exit(root);
    }
    out
}

/// Member forward and CAM per window, on detector copies rebuilt from the
/// checkpoint bytes. Returns windows × members covered.
fn detectors(zoo: &Zoo, batches: &[Tensor], rec: &mut Recorder) -> usize {
    let mut covered = 0;
    for bytes in &zoo.bytes {
        let model = CamalModel::from_bytes(bytes).expect("checkpoint bytes reload");
        for mut member in model.into_members() {
            for (i, x) in batches.iter().enumerate() {
                let root = rec.enter("detector", i as u64);
                let s = rec.enter("detector.forward", i as u64);
                std::hint::black_box(member.net.forward_features(x, Mode::Infer));
                rec.exit(s);
                let s = rec.enter("detector.cam", i as u64);
                std::hint::black_box(member.net.cam(1));
                rec.exit(s);
                rec.exit(root);
                covered += x.dims3().0;
            }
        }
    }
    covered
}

/// One training step per batch for each candidate spec, then the
/// validation loss. Returns (steps, evals).
fn training(zoo: &Zoo, spec: &Spec, rec: &mut Recorder) -> (usize, usize) {
    let cfg = workload::camal_config(&spec.scale);
    let data = &zoo.data[0];
    let batch = cfg.train.batch_size;
    let indices: Vec<usize> = (0..data.train.len()).collect();
    let (mut steps, mut evals) = (0, 0);
    let mut x = Tensor::zeros(&[0]);
    let mut labels = Vec::new();
    for (si, candidate) in cfg.candidate_specs().into_iter().enumerate() {
        let mut rng = nilm_tensor::init::rng(cfg.seed ^ si as u64);
        let mut net = nilm_models::build_from_spec(&mut rng, candidate);
        let mut opt = nilm_tensor::optim::Adam::new(cfg.train.lr);
        for (bi, chunk) in indices.chunks(batch).take(8).enumerate() {
            data.train.batch_inputs_into(chunk, &mut x);
            data.train.batch_weak_labels_into(chunk, &mut labels);
            let s = rec.enter("train.step", bi as u64);
            net.zero_grad();
            let logits = net.forward(&x, Mode::Train);
            let (_, grad) = nilm_tensor::loss::cross_entropy(&logits, &labels);
            net.backward(&grad);
            if cfg.train.clip > 0.0 {
                nilm_tensor::optim::clip_grad_norm(net.as_mut(), cfg.train.clip);
            }
            opt.step(net.as_mut());
            rec.exit(s);
            steps += 1;
        }
        let s = rec.enter("train.eval_loss", si as u64);
        std::hint::black_box(camal::ensemble::eval_loss(net.as_mut(), &data.val, batch));
        rec.exit(s);
        evals += 1;
    }
    (steps, evals)
}

/// Median milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// Runs the replay and returns the per-layer metrics plus the number of
/// replayed responses that differed from the oracle.
pub fn run(mut inputs: Inputs, trace_path: &std::path::Path) -> (LayerMetrics, usize) {
    let spec = inputs.spec;
    let served = inputs.served;
    let sizes = pass_sizes(&served.latency_counters.passes_by_size, replay_requests(spec));
    // Untraced and traced replays alternate; the difference of their
    // median wall times is the spans' cost.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut mismatches = 0;
    let mut last = None;
    for _ in 0..3 {
        let untraced = blocking(&mut inputs, &sizes, false);
        let traced = blocking(&mut inputs, &sizes, true);
        untraced_s.push(untraced.elapsed_s);
        traced_s.push(traced.elapsed_s);
        mismatches += untraced.mismatches + traced.mismatches;
        last = Some(traced);
    }
    let traced = last.expect("three rounds ran");
    let mut rec = traced.rec;
    let totals = by_name(rec.spans());
    let n_req = traced.requests as f64;
    let per_request_us =
        |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / n_req);
    // Every request waits for its whole pass.
    let pass_wait_us: f64 = {
        let passes: Vec<&crate::spans::Span> =
            rec.spans().iter().filter(|s| s.name == "fleet.pass").collect();
        passes
            .iter()
            .zip(&sizes)
            .map(|(s, &k)| (s.end_ns - s.start_ns) as f64 / 1e3 * k as f64)
            .sum::<f64>()
            / n_req
    };
    let parse_us = per_request_us("http.parse");
    let decode_us = per_request_us("protocol.decode");
    let encode_us = per_request_us("protocol.encode");
    let p50_us = inputs.client_p50_ms * 1e3;
    let unattributed_us = p50_us - parse_us - decode_us - pass_wait_us - encode_us;
    let pass_ms =
        totals.get("fleet.pass").map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count as f64);

    let parts = decomposed(&mut inputs, &sizes[..sizes.len().min(400)], &mut rec);
    let member_windows = detectors(inputs.zoo, &parts.batches, &mut rec);
    let (steps, evals) = training(inputs.zoo, spec, &mut rec);
    let totals = by_name(rec.spans());
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);

    let load_ms = stats::median(
        &inputs
            .zoo
            .paths
            .iter()
            .map(|p| median_ms(3, || drop(CamalModel::load(p).expect("checkpoint loads"))))
            .collect::<Vec<f64>>(),
    );
    let warm_ms = median_ms(3, || {
        let mut registry = workload::registry(inputs.zoo);
        for &key in &inputs.zoo.keys {
            registry.get_mut(key).expect("zoo model loads");
        }
    });

    let timed_requests = served.attempted() as f64;
    let (kernel_ns_timed, kernel_calls_timed) =
        served.kernels.values().fold((0u64, 0u64), |a, &(ns, c)| (a.0 + ns, a.1 + c));
    let threads = crate::host::nproc() as f64;
    let (cand_secs, wall_secs) = inputs
        .zoo
        .stats
        .iter()
        .fold((0.0, 0.0), |a, s| (a.0 + s.candidate_secs_total, a.1 + s.total_secs * threads));
    let cap = &served.capacity_counters;
    let late_sorted = stats::sorted(served.late_ms());

    let mut m = LayerMetrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (if value.is_finite() { value } else { 0.0 }, unit));
    };
    put("http.parse_us", parse_us, "us");
    put("protocol.decode_us", decode_us, "us");
    put("protocol.encode_us", encode_us, "us");
    put("gateway.unattributed_us", unattributed_us, "us");
    put("gateway.requests_per_pass", cap.requests() as f64 / cap.passes().max(1) as f64, "count");
    put("gateway.passes", cap.passes() as f64, "count");
    put("gateway.rss_growth_mb", served.rss_growth_mb, "MB");
    put("client.late_ms", stats::percentile(&late_sorted, 0.99).unwrap_or(0.0), "ms");
    put("fleet.pass_ms", pass_ms, "ms");
    put(
        "fleet.batch_fill",
        cap.windows as f64
            / cap.gemm_batches.max(1) as f64
            / workload::gateway_config().batch_windows as f64,
        "ratio",
    );
    put(
        "model.localize_us_per_window",
        total_ms("model.localize") * 1e3 / parts.windows.max(1) as f64,
        "us",
    );
    put("model.detected_ratio", parts.detected as f64 / parts.windows.max(1) as f64, "ratio");
    put(
        "localize.attention_us",
        total_ms("localize.attention") * 1e3 / parts.detected.max(1) as f64,
        "us",
    );
    put(
        "postprocess.stitch_us",
        total_ms("postprocess.stitch") * 1e3 / parts.timelines.max(1) as f64,
        "us",
    );
    put(
        "data.preprocess_us",
        total_ms("data.preprocess") * 1e3 / parts.households.max(1) as f64,
        "us",
    );
    put(
        "detector.forward_us",
        total_ms("detector.forward") * 1e3 / member_windows.max(1) as f64,
        "us",
    );
    put("detector.cam_us", total_ms("detector.cam") * 1e3 / member_windows.max(1) as f64, "us");
    put(
        "tensor.kernel_ms.conv_fwd",
        served.kernels.get("conv_fwd").map_or(0, |k| k.0) as f64 / 1e6 / timed_requests.max(1.0),
        "ms",
    );
    put("tensor.kernel_calls", kernel_calls_timed as f64 / timed_requests.max(1.0), "count");
    put(
        "tensor.us_per_kernel_call",
        kernel_ns_timed as f64 / 1e3 / kernel_calls_timed.max(1) as f64,
        "us",
    );
    put(
        "tensor.kernel_share",
        parts.kernel_ns_in_localize as f64 / 1e6 / total_ms("model.localize").max(1e-9),
        "ratio",
    );
    put("tensor.autotune_misses", served.autotune_misses as f64, "count");
    put("train.step_ms", total_ms("train.step") / steps.max(1) as f64, "ms");
    put("train.eval_loss_ms", total_ms("train.eval_loss") / evals.max(1) as f64, "ms");
    put("train.parallel_efficiency", cand_secs / wall_secs.max(1e-9), "ratio");
    put("persist.load_ms", load_ms, "ms");
    put("registry.warm_ms", warm_ms, "ms");
    put(
        "bench.trace_overhead_pct",
        (stats::median(&traced_s) / stats::median(&untraced_s) - 1.0) * 100.0,
        "%",
    );

    report(
        p50_us,
        &[
            ("http.parse", parse_us),
            ("protocol.decode", decode_us),
            ("fleet.pass", pass_wait_us),
            ("protocol.encode", encode_us),
        ],
        unattributed_us,
    );
    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(trace_path, rec.to_json_lines());
    (m, mismatches)
}

/// Prints each layer's share of the client-measured median latency, with
/// the unattributed remainder on its own row.
fn report(p50_us: f64, layers: &[(&str, f64)], unattributed_us: f64) {
    eprintln!("blocking time per request (client p50 {p50_us:.1} us):");
    for (name, us) in layers {
        eprintln!("  {name:<18} {us:>10.1} us  {:>5.1}%", us / p50_us * 100.0);
    }
    eprintln!(
        "  {:<18} {unattributed_us:>10.1} us  {:>5.1}%",
        "unattributed",
        unattributed_us / p50_us * 100.0
    );
}
