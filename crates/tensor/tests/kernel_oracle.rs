//! Oracle-driven property suite for the dispatch layer: every compute
//! backend must reproduce the naive reference bit for bit across randomized
//! GEMM and convolution problems (see [`nilm_tensor::oracle`] for the
//! harness).
//!
//! The suite honours `NILM_BACKEND`: when the variable forces a backend,
//! only that backend is exercised — CI sweeps the suite once per value
//! (`naive`, `simd`), plus once with `NILM_SIMD=off` to pin the portable
//! microkernel, so every dispatch path is oracle-checked on every build.
//! Without the variable, one run covers both backends.

use nilm_tensor::conv::Padding;
use nilm_tensor::dispatch::{env_backend, Backend};
use nilm_tensor::gemm::Layout;
use nilm_tensor::oracle::{ConvSpec, GemmSpec};
use proptest::prelude::*;

/// Backends under test: the `NILM_BACKEND`-forced backend when set, every
/// backend otherwise.
fn backends_under_test() -> Vec<Backend> {
    match env_backend() {
        Some(b) => vec![b],
        None => Backend::all().to_vec(),
    }
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop_oneof![Just(Layout::Normal), Just(Layout::Transposed)]
}

fn padding_strategy() -> impl Strategy<Value = Padding> {
    prop_oneof![
        Just(Padding::Same).boxed(),
        Just(Padding::Valid).boxed(),
        (1usize..4).prop_map(Padding::Explicit).boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random GEMMs: sizes straddle the skinny fast path (`m <= 16`), the
    /// packed-panel blocking thresholds, and partial MR/NR edge tiles.
    #[test]
    fn every_backend_reproduces_the_gemm_oracle(
        seed in 0u64..1_000_000,
        m in 1usize..40,
        n in 1usize..70,
        k in 1usize..50,
        a_layout in layout_strategy(),
        b_layout in layout_strategy(),
        accumulate in prop_oneof![Just(true), Just(false)],
    ) {
        let spec = GemmSpec { m, n, k, a_layout, b_layout, accumulate, seed };
        for backend in backends_under_test() {
            spec.check(backend);
        }
    }

    /// Random convolutions (forward + both gradients) across strides,
    /// dilations and padding policies.
    #[test]
    fn every_backend_reproduces_the_conv_oracle(
        seed in 0u64..1_000_000,
        batch in 1usize..4,
        in_c in 1usize..5,
        out_c in 1usize..7,
        k in 1usize..8,
        stride in prop_oneof![Just(1usize), Just(2usize), Just(3usize)],
        dilation in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        padding in padding_strategy(),
        t_extra in 0usize..17,
        bias in prop_oneof![Just(true), Just(false)],
    ) {
        let spec = ConvSpec {
            in_c,
            out_c,
            k,
            stride,
            dilation,
            padding,
            batch,
            t_in: (k - 1) * dilation + 1 + stride * 2 + t_extra,
            bias,
            seed,
        };
        for backend in backends_under_test() {
            spec.check(backend);
        }
    }
}

/// The lowered-GEMM shapes the CamAL serving path actually emits (skinny
/// rows at bench width, paper-width rows, long streaming columns) — pinned
/// explicitly so a kernel regression on the shapes that matter cannot hide
/// behind proptest's randomness.
#[test]
fn serving_shapes_are_oracle_checked_on_every_backend() {
    let shapes: &[(usize, usize, usize)] = &[
        (4, 2048, 5),    // bench-width first conv, batch-wide columns
        (8, 2048, 40),   // bench-width mid conv
        (16, 128, 20),   // skinny-path boundary (m == SKINNY_MAX_M)
        (17, 128, 20),   // first non-skinny row count
        (64, 2048, 320), // paper-width conv
        (2, 16, 128),    // classifier head (classes x batch over channels)
    ];
    for &(m, n, k) in shapes {
        for layout in [Layout::Normal, Layout::Transposed] {
            let spec = GemmSpec {
                m,
                n,
                k,
                a_layout: layout,
                b_layout: Layout::Normal,
                accumulate: false,
                seed: (m * 31 + n * 7 + k) as u64,
            };
            for backend in backends_under_test() {
                spec.check(backend);
            }
        }
    }
}

/// The attention GEMM shapes a TransApp forward emits — per-head QKᵀ score
/// matrices, attention-weighted V products, the fused QKV/output projections
/// and the encoder feed-forward — at both smoke scale (d_model 16, 2 heads,
/// window 128/downsample 4) and paper scale (d_model 128, 8 heads, window
/// 510/downsample 4). Pinned so every forced backend stays bit-exact through
/// the attention path, not just the conv path.
#[test]
fn attention_shapes_are_oracle_checked_on_every_backend() {
    let shapes: &[(usize, usize, usize)] = &[
        // Smoke scale: td = 32, head_dim = 8.
        (32, 32, 8),  // QKᵀ scores per head
        (32, 8, 32),  // softmax(scores) · V per head
        (16, 32, 16), // Q/K/V and output projections over time columns
        (32, 32, 16), // feed-forward up-projection (d_ff x td over d_model)
        (16, 32, 32), // feed-forward down-projection
        // Paper scale: td = 128, head_dim = 16.
        (128, 128, 16),  // QKᵀ scores per head
        (128, 16, 128),  // softmax(scores) · V per head
        (128, 128, 128), // projections at paper width
        (256, 128, 128), // feed-forward up-projection
    ];
    for &(m, n, k) in shapes {
        for layout in [Layout::Normal, Layout::Transposed] {
            let spec = GemmSpec {
                m,
                n,
                k,
                a_layout: layout,
                b_layout: Layout::Normal,
                accumulate: false,
                seed: (m * 131 + n * 17 + k * 3) as u64,
            };
            for backend in backends_under_test() {
                spec.check(backend);
            }
        }
    }
}

/// The ResNet's conv geometries at bench scale, forward and backward.
#[test]
fn resnet_conv_geometries_are_oracle_checked() {
    for &(in_c, out_c, k) in
        &[(1usize, 4usize, 5usize), (4, 4, 5), (4, 4, 3), (1, 4, 1), (4, 8, 5), (8, 8, 3)]
    {
        let spec = ConvSpec {
            in_c,
            out_c,
            k,
            stride: 1,
            dilation: 1,
            padding: Padding::Same,
            batch: 3,
            t_in: 32,
            bias: false,
            seed: (in_c * 100 + out_c * 10 + k) as u64,
        };
        for backend in backends_under_test() {
            spec.check(backend);
        }
    }
}
