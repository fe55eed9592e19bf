//! The speed claims of the exact dispatched backends, held as thresholds.
//!
//! Every backend is bit-identical to the naive oracle (`nilm_tensor`'s
//! kernel-oracle suites pin that); what the lowered convolution buys is
//! time. At [`Scale::bench`] geometry (batch 16, window 128) the lowered
//! path (`Backend::Simd`: im2col or direct shifted windows on the host's
//! microkernel) must run the paper-width ResNet's train-mode backward at
//! least 3× faster than the shifted-axpy reference (`Backend::Naive`), and
//! full CamAL inference more than 2× faster. (The train-mode forward is
//! not held to 3×: on a 2-vCPU host its ratio ranged from 2.2× to 5.1×
//! between processes.)
//!
//! The backends are forced process-wide through
//! [`dispatch::set_forced_backend`] and timed in alternation (naive, simd,
//! naive, simd, ...), so a slow stretch of the host lands on both sides of
//! a pair; each figure is the median of the per-pair ratios. Timing claims
//! only mean something optimized, so the file compiles to nothing in debug
//! builds:
//!
//! ```text
//! cargo test -p nilm_eval --release --test backend_speed
//! ```
#![cfg(not(debug_assertions))]

use camal::CamalModel;
use nilm_eval::runner::{build_case_data, smoke_cases, Scale};
use nilm_models::resnet::{ResNet, ResNetConfig};
use nilm_tensor::dispatch::{self, Backend};
use nilm_tensor::init::{randn_tensor, rng};
use nilm_tensor::layer::{Layer, Mode};
use nilm_tensor::loss::cross_entropy;
use std::hint::black_box;
use std::time::Instant;

/// Batch size of every measurement (the training batch size).
const BATCH: usize = 16;
/// Timed (naive, simd) pairs per measurement.
const PAIRS: usize = 5;

/// The median of `v`.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Naive over lowered: how many times faster the lowered backend runs `f`,
/// as the median ratio over [`PAIRS`] back-to-back (naive, simd) pairs,
/// after one warm-up run under each backend.
fn speedup(label: &str, mut f: impl FnMut()) -> f64 {
    let mut time_ms = |backend: Backend| {
        dispatch::set_forced_backend(Some(backend));
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    };
    time_ms(Backend::Naive);
    time_ms(Backend::Simd);
    let pairs: Vec<(f64, f64)> =
        (0..PAIRS).map(|_| (time_ms(Backend::Naive), time_ms(Backend::Simd))).collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|(naive, simd)| naive / simd).collect();
    ratios.sort_by(f64::total_cmp);
    let (lo, ratio, hi) = (ratios[0], ratios[PAIRS / 2], ratios[PAIRS - 1]);
    let naive = median(pairs.iter().map(|p| p.0).collect());
    let simd = median(pairs.iter().map(|p| p.1).collect());
    println!(
        "{label:<16} naive {naive:9.2} ms | simd {simd:8.2} ms | {ratio:5.2}x (pairs {lo:.2}x-{hi:.2}x)"
    );
    ratio
}

#[test]
fn lowered_backend_beats_the_naive_reference() {
    let scale = Scale::bench();
    let mut r = rng(0xBE);
    let mut net = ResNet::new(&mut r, ResNetConfig::paper(5));
    let x = randn_tensor(&mut r, &[BATCH, 1, scale.window], 1.0);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 2).collect();

    let (_, grad) = cross_entropy(&net.forward(&x, Mode::Train), &labels);
    let backward = speedup("resnet_backward", || {
        net.zero_grad();
        black_box(net.backward(&grad));
    });

    // Trains on the backend the backward timing left forced (simd).
    let case = build_case_data(&smoke_cases()[0], &scale).1;
    let model = CamalModel::train(&scale.camal_config(), &case.train, &case.val, scale.threads);
    let inference = speedup("camal_inference", || {
        black_box(model.localize_set(&case.test, BATCH));
    });

    assert!(backward >= 3.0, "lowered ResNet backward only {backward:.2}x naive (claim: >= 3x)");
    assert!(inference > 2.0, "lowered CamAL inference only {inference:.2}x naive (claim: > 2x)");
}
