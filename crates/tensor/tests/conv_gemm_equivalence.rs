//! The safety net of the lowered (im2col + GEMM) convolution backend,
//! [`Backend::Simd`]: across random shapes, strides {1,2,3}, dilations
//! {1,2,4} and all three [`Padding`] variants, it must reproduce the
//! shifted-axpy reference path **bit for bit** — forward output, input
//! gradient and parameter gradients — whichever microkernel the host runs.
//!
//! Exactness (not a tolerance) is possible because both backends accumulate
//! every output element over `(c_in, tap)`, every weight-gradient element
//! over `(batch, t)`, and every input-gradient element over `(c_out, tap)`
//! in the same left-to-right order; see `nilm_tensor::gemm` for the
//! contract. A tolerance here would hide genuine indexing bugs (an
//! off-by-one pad produces small errors on smooth random inputs).

use nilm_tensor::conv::{Conv1d, Padding};
use nilm_tensor::dispatch::Backend;
use nilm_tensor::init::{randn_tensor, rng};
use nilm_tensor::layer::{Layer, Mode};
use nilm_tensor::tensor::Tensor;
use proptest::prelude::*;

/// One forward + backward pass on a fixed backend; returns
/// `(output, input_grad, param_grads)`.
fn run_pass(
    conv: &mut Conv1d,
    backend: Backend,
    x: &Tensor,
    upstream: &Tensor,
) -> (Tensor, Tensor, Vec<Tensor>) {
    conv.set_backend(Some(backend));
    let y = conv.forward(x, Mode::Train);
    conv.zero_grad();
    let dx = conv.backward(upstream);
    let mut grads = Vec::new();
    conv.visit_params(&mut |p| grads.push(p.grad.clone()));
    (y, dx, grads)
}

/// Regression: padding deeper than the input makes some kernel taps never
/// overlap it (`valid_out_range` returns an empty range with a negative
/// offset); both backends must treat those taps as pure zeros instead of
/// forming a wrapped slice.
#[test]
fn taps_fully_outside_the_input_are_zero_not_a_panic() {
    let mut r = rng(11);
    let mut conv = Conv1d::with_options(&mut r, 1, 1, 7, Padding::Explicit(3), 1, 1, false);
    let x = randn_tensor(&mut r, &[1, 1, 2], 1.0);
    let t_out = conv.out_len(2);
    let g = randn_tensor(&mut r, &[1, 1, t_out], 1.0);
    let (y_n, dx_n, g_n) = run_pass(&mut conv, Backend::Naive, &x, &g);
    let (y_s, dx_s, g_s) = run_pass(&mut conv, Backend::Simd, &x, &g);
    assert_eq!(y_n.data(), y_s.data());
    assert_eq!(dx_n.data(), dx_s.data());
    for (a, b) in g_n.iter().zip(&g_s) {
        assert_eq!(a.data(), b.data());
    }
}

fn padding_strategy() -> impl Strategy<Value = Padding> {
    prop_oneof![
        Just(Padding::Same).boxed(),
        Just(Padding::Valid).boxed(),
        (1usize..4).prop_map(Padding::Explicit).boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward, dX, dW and db agree bitwise between the two backends.
    #[test]
    fn gemm_path_bit_matches_naive_path(
        seed in 0u64..1_000_000,
        batch in 1usize..4,
        in_c in 1usize..5,
        out_c in 1usize..6,
        k in 1usize..8,
        stride in prop_oneof![Just(1usize), Just(2usize), Just(3usize)],
        dilation in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        padding in padding_strategy(),
        t_extra in 0usize..17,
        bias in prop_oneof![Just(true), Just(false)],
    ) {
        // Keep the input long enough for the receptive field under Valid
        // padding at the largest stride/dilation combination.
        let t_in = (k - 1) * dilation + 1 + stride * 2 + t_extra;
        let mut r = rng(seed);
        let mut conv =
            Conv1d::with_options(&mut r, in_c, out_c, k, padding, stride, dilation, bias);
        let x = randn_tensor(&mut r, &[batch, in_c, t_in], 1.0);
        let t_out = conv.out_len(t_in);
        let upstream = randn_tensor(&mut r, &[batch, out_c, t_out], 1.0);

        let (y_n, dx_n, g_n) = run_pass(&mut conv, Backend::Naive, &x, &upstream);
        let (y_s, dx_s, g_s) = run_pass(&mut conv, Backend::Simd, &x, &upstream);

        prop_assert_eq!(y_n.shape(), y_s.shape());
        prop_assert!(
            y_n.data() == y_s.data(),
            "forward mismatch: k={k} s={stride} d={dilation} pad={padding:?} t={t_in}"
        );
        prop_assert!(
            dx_n.data() == dx_s.data(),
            "dX mismatch: k={k} s={stride} d={dilation} pad={padding:?} t={t_in}"
        );
        prop_assert_eq!(g_n.len(), g_s.len());
        for (a, b) in g_n.iter().zip(&g_s) {
            prop_assert!(
                a.data() == b.data(),
                "param grad mismatch: k={k} s={stride} d={dilation} pad={padding:?} t={t_in}"
            );
        }
    }

    /// Repeated forward/backward cycles keep accumulating identically
    /// (gradient accumulation across calls must not diverge either).
    #[test]
    fn grad_accumulation_matches_across_two_steps(
        seed in 0u64..1_000_000,
        k in 1usize..6,
        padding in padding_strategy(),
    ) {
        let t_in = 24;
        let mut r = rng(seed ^ 0xACC);
        let mut conv = Conv1d::with_options(&mut r, 2, 3, k, padding, 1, 1, true);
        let x1 = randn_tensor(&mut r, &[2, 2, t_in], 1.0);
        let x2 = randn_tensor(&mut r, &[2, 2, t_in], 1.0);
        let t_out = conv.out_len(t_in);
        let g1 = randn_tensor(&mut r, &[2, 3, t_out], 1.0);
        let g2 = randn_tensor(&mut r, &[2, 3, t_out], 1.0);

        let mut accumulate = |backend: Backend| -> Vec<Tensor> {
            conv.set_backend(Some(backend));
            conv.zero_grad();
            let _ = conv.forward(&x1, Mode::Train);
            let _ = conv.backward(&g1);
            let _ = conv.forward(&x2, Mode::Train);
            let _ = conv.backward(&g2);
            let mut grads = Vec::new();
            conv.visit_params(&mut |p| grads.push(p.grad.clone()));
            grads
        };
        let gn = accumulate(Backend::Naive);
        let gs = accumulate(Backend::Simd);
        for (a, b) in gn.iter().zip(&gs) {
            prop_assert!(a.data() == b.data(), "accumulated grads diverged (k={k}, pad={padding:?})");
        }
    }
}
