//! Perf harness for the convolution compute backends.
//!
//! Times the hot path of the reproduction — detector forward/backward, full
//! CamAL inference, and one ensemble-training epoch — under the naive
//! (shifted-axpy), SIMD (lowered convolution on the host's microkernel) and
//! Auto (shape-keyed autotuner) backends at [`Scale::bench`] geometry
//! (batch 16, window 128), and writes the results to `BENCH_conv_gemm.json`
//! so later PRs have a trajectory to regress against.
//!
//! Each column forces its backend process-wide with
//! [`dispatch::set_forced_backend`] (Auto forces none). Linear and
//! attention GEMMs always run the host's microkernel.
//!
//! ```text
//! cargo run --release -p nilm_eval --bin bench_conv_gemm            # paper-width ResNet
//! cargo run --release -p nilm_eval --bin bench_conv_gemm -- --smoke # CI-sized, seconds
//! cargo run --release -p nilm_eval --bin bench_conv_gemm -- --out results
//! ```
//!
//! Besides aggregate speedups, the artifact carries the autotuner's
//! **per-shape winner table** (which backend won each lowered-GEMM shape at
//! the measured thread count), so a future regression is attributable to a
//! specific layer shape rather than a mystery aggregate.
//!
//! The emitted file is re-read and checked with [`nilm_json`] before
//! the process exits, so a malformed artifact fails loudly (CI runs the
//! smoke mode for exactly this guarantee).

use camal::CamalModel;
use nilm_eval::runner::Scale;
use nilm_json::{validate, JsonValue};
use nilm_models::resnet::{ResNet, ResNetConfig};
use nilm_tensor::dispatch::{self, Backend};
use nilm_tensor::init::{randn_tensor, rng};
use nilm_tensor::layer::{Layer, Mode};
use nilm_tensor::loss::cross_entropy;
use std::path::PathBuf;
use std::time::Instant;

/// Batch size of every measurement (matches the training batch size).
const BATCH: usize = 16;

struct Timings {
    naive_ms: f64,
    simd_ms: f64,
    auto_ms: f64,
}

impl Timings {
    fn speedup_over_naive(&self, ms: f64) -> f64 {
        if ms > 0.0 {
            self.naive_ms / ms
        } else {
            f64::INFINITY
        }
    }

    /// Naive over the best dispatched backend — the number a serving stack
    /// actually gets, since Auto races all bit-identical candidates.
    fn speedup(&self) -> f64 {
        self.speedup_over_naive(self.simd_ms.min(self.auto_ms))
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("naive_ms", JsonValue::Number(self.naive_ms)),
            ("simd_ms", JsonValue::Number(self.simd_ms)),
            ("auto_ms", JsonValue::Number(self.auto_ms)),
            ("speedup_simd", JsonValue::Number(self.speedup_over_naive(self.simd_ms))),
            ("speedup_auto", JsonValue::Number(self.speedup_over_naive(self.auto_ms))),
            ("speedup", JsonValue::Number(self.speedup())),
        ])
    }
}

/// Median wall-clock milliseconds of `reps` runs of `f` under `backend`
/// (`None` = autotuned).
fn time_backend(backend: Option<Backend>, reps: usize, mut f: impl FnMut()) -> f64 {
    dispatch::set_forced_backend(backend);
    f(); // warm-up: page in buffers, settle caches (and, for Auto, tune)
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn measure(reps: usize, mut f: impl FnMut()) -> Timings {
    let naive_ms = time_backend(Some(Backend::Naive), reps, &mut f);
    let simd_ms = time_backend(Some(Backend::Simd), reps, &mut f);
    let auto_ms = time_backend(None, reps, &mut f);
    Timings { naive_ms, simd_ms, auto_ms }
}

fn print_timings(label: &str, t: &Timings, suffix: &str) {
    println!(
        "{label:<20} naive {:8.2} ms | simd {:8.2} ms ({:4.2}x) | auto {:8.2} ms ({:4.2}x){suffix}",
        t.naive_ms,
        t.simd_ms,
        t.speedup_over_naive(t.simd_ms),
        t.auto_ms,
        t.speedup_over_naive(t.auto_ms),
    );
}

/// The autotuner's tuned decisions as a JSON array (one row per shape key).
fn winner_table() -> JsonValue {
    JsonValue::Array(
        dispatch::tuned_entries()
            .into_iter()
            .map(|(key, winner)| {
                JsonValue::object([
                    ("op", JsonValue::String(key.op.into())),
                    ("m", JsonValue::Number(key.m as f64)),
                    ("n", JsonValue::Number(key.n as f64)),
                    ("k", JsonValue::Number(key.k as f64)),
                    ("threads", JsonValue::Number(key.threads as f64)),
                    ("winner", JsonValue::String(winner.as_str().into())),
                ])
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let scale = Scale::bench();
    let window = scale.window;
    // Smoke mode keeps CI at seconds scale with a width-reduced net; the
    // default run times the paper-width ResNet the claims are about.
    let (resnet_cfg, reps) =
        if smoke { (ResNetConfig::scaled(5, 8), 3) } else { (ResNetConfig::paper(5), 9) };

    println!(
        "bench_conv_gemm: mode={} window={window} batch={BATCH} resnet_channels={:?} \
         simd_available={} simd_exact={}",
        if smoke { "smoke" } else { "full" },
        resnet_cfg.channels,
        nilm_tensor::simd::simd_available(),
        nilm_tensor::simd::simd_exact(),
    );

    // --- detector forward / backward ------------------------------------
    let mut r = rng(0xBE);
    let mut net = ResNet::new(&mut r, resnet_cfg);
    let x = randn_tensor(&mut r, &[BATCH, 1, window], 1.0);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 2).collect();

    let forward = measure(reps, || {
        let _ = net.forward(&x, Mode::Train);
    });
    print_timings("resnet_forward", &forward, "");

    let (_, grad) = cross_entropy(&net.forward(&x, Mode::Train), &labels);
    let backward = measure(reps, || {
        net.zero_grad();
        let _ = net.backward(&grad);
    });
    print_timings("resnet_backward", &backward, "");

    // --- full CamAL inference and one ensemble-training epoch -----------
    let cfg = scale.camal_config();
    let case = nilm_eval::runner::build_case_data(&nilm_eval::runner::smoke_cases()[0], &scale).1;
    dispatch::set_forced_backend(Some(Backend::Simd));
    let model = CamalModel::train(&cfg, &case.train, &case.val, scale.threads);
    let inference = measure(reps.max(5), || {
        let _ = model.localize_set(&case.test, BATCH);
    });
    print_timings("camal_inference", &inference, &format!(" ({} windows)", case.test.len()));

    let train_reps = if smoke { 1 } else { 2 };
    let train_epoch = measure(train_reps, || {
        let _ = CamalModel::train(&cfg, &case.train, &case.val, scale.threads);
    });
    print_timings(
        "ensemble_train_epoch",
        &train_epoch,
        &format!(" ({} windows)", case.train.len()),
    );

    // --- artifact --------------------------------------------------------
    let threads = rayon::current_num_threads();
    let doc = JsonValue::object([
        ("schema", JsonValue::String("bench_conv_gemm/v3".into())),
        (
            "baseline_note",
            JsonValue::String(format!(
                "naive_ms runs the shifted-axpy reference backend inside the current \
                 build, so it already benefits from shared layer work (FMA \
                 accumulation, vectorized BatchNorm reductions, allocation trims, \
                 target-cpu codegen). simd_ms is the lowered convolution (im2col, \
                 or direct shifted windows for skinny stride-1 shapes) through the \
                 host's microkernel: the explicit AVX2/NEON kernels and the \
                 skinny-GEMM fast path when `simd_exact`, the portable packed \
                 microkernel otherwise; auto_ms is the shape-keyed autotuner racing \
                 naive and simd per layer shape (tuning happens in the warm-up run \
                 and is cached). Each section's `speedup` is naive over the best \
                 dispatched backend. Every section ran on {threads} worker threads \
                 (`RAYON_NUM_THREADS`), and `winner_table` records the autotuner's \
                 per-shape decisions at that count; re-record after kernel changes \
                 (see REPRODUCING.md)."
            )),
        ),
        ("mode", JsonValue::String(if smoke { "smoke" } else { "full" }.into())),
        ("window", JsonValue::Number(window as f64)),
        ("batch", JsonValue::Number(BATCH as f64)),
        ("threads", JsonValue::Number(threads as f64)),
        ("simd_available", JsonValue::Bool(nilm_tensor::simd::simd_available())),
        ("simd_exact", JsonValue::Bool(nilm_tensor::simd::simd_exact())),
        (
            "resnet_channels",
            JsonValue::Array(
                resnet_cfg.channels.iter().map(|&c| JsonValue::Number(c as f64)).collect(),
            ),
        ),
        (
            "sections",
            JsonValue::object([
                ("resnet_forward", forward.to_json()),
                ("resnet_backward", backward.to_json()),
                ("camal_inference", inference.to_json()),
                ("ensemble_train_epoch", train_epoch.to_json()),
            ]),
        ),
        ("winner_table", winner_table()),
    ]);
    let text = doc.to_pretty();
    validate(&text).expect("harness emitted invalid JSON");
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    let path = out_dir.join("BENCH_conv_gemm.json");
    std::fs::write(&path, &text).expect("cannot write benchmark artifact");
    let reread = std::fs::read_to_string(&path).expect("cannot re-read benchmark artifact");
    validate(&reread).expect("benchmark artifact on disk is invalid JSON");
    println!("wrote {} (validated)", path.display());
}
