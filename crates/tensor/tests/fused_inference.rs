//! The fused [`ConvBn`] block against the unfused `Conv1d` → `BatchNorm1d`
//! → `ReLU` chain, bit for bit, on every dispatch path. Inference (one
//! kernel plus one bias / batch-norm / ReLU pass per output) must equal the
//! chain's inference and eval-mode forwards; training (batch norm and ReLU
//! in place over the conv output, the ReLU mask folded into the batch-norm
//! backward) must give the chain's outputs, input gradients, parameter
//! gradients and running statistics step after step.
//!
//! The shapes reach each path the selector can take: a tiny problem below
//! the autotune floor (naive), `out_c ≤ 16` (direct SIMD under the Simd
//! backend on a SIMD host), `out_c > 16` (the lowered GEMM) and a batch
//! large enough to split into per-thread groups. Like the kernel oracle,
//! the suite honours `NILM_BACKEND`, and CI sweeps it once per backend plus
//! once with `NILM_SIMD=off`.

use nilm_tensor::init::{randn_tensor, rng};
use nilm_tensor::prelude::*;
use proptest::prelude::*;

/// `(batch, in_c, out_c, k, t)`.
const SHAPES: [(usize, usize, usize, usize, usize); 4] = [
    // 2·6·3 MACs per item: naive, never tuned.
    (1, 1, 2, 3, 6),
    // Skinny: the direct (im2col-free) SIMD kernel.
    (3, 4, 12, 5, 64),
    // Wide: the lowered GEMM.
    (2, 6, 24, 3, 48),
    // ≥ 2^20 MACs over the batch: one GEMM group per worker thread.
    (12, 8, 24, 5, 128),
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A block with non-trivial state: running statistics from a few
/// train-mode batches, then every parameter (bias, γ and β included)
/// jittered off its initial value.
fn trained_block(seed: u64, shape: usize, bias: bool, relu: bool) -> ConvBn {
    let (b, in_c, out_c, k, t) = SHAPES[shape];
    let mut r = rng(seed);
    let conv = Conv1d::with_options(&mut r, in_c, out_c, k, Padding::Same, 1, 1, bias);
    let mut block = ConvBn::from_parts(conv, BatchNorm1d::new(out_c), relu);
    for _ in 0..3 {
        let x = randn_tensor(&mut r, &[b, in_c, t], 1.0);
        let _ = block.forward(&x, Mode::Train);
    }
    block.visit_params(&mut |p| {
        let noise = randn_tensor(&mut r, p.value.shape(), 0.3);
        p.value.add_assign(&noise);
    });
    block
}

/// The same layers unfused, loaded from the block's own checkpoint (the
/// two share one state layout).
fn unfused_chain(block: &mut ConvBn, shape: usize, bias: bool, relu: bool) -> Sequential {
    let (_, in_c, out_c, k, _) = SHAPES[shape];
    let mut r = rng(0);
    let mut chain = Sequential::new()
        .push(Conv1d::with_options(&mut r, in_c, out_c, k, Padding::Same, 1, 1, bias))
        .push(BatchNorm1d::new(out_c));
    if relu {
        chain = chain.push(ReLU::default());
    }
    chain.load_state(&block.save_state()).expect("ConvBn state loads into conv → BN (→ ReLU)");
    chain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_bn_inference_is_bit_identical_to_the_unfused_chain(
        seed in 0u64..1_000_000,
        shape in 0usize..SHAPES.len(),
        bias in prop_oneof![Just(true), Just(false)],
        relu in prop_oneof![Just(true), Just(false)],
    ) {
        let mut block = trained_block(seed, shape, bias, relu);
        let mut chain = unfused_chain(&mut block, shape, bias, relu);
        let (b, in_c, _, _, t) = SHAPES[shape];
        let x = randn_tensor(&mut rng(seed ^ 0xF0), &[b, in_c, t], 1.0);

        let fused = bits(&block.infer(&x));
        prop_assert_eq!(&fused, &bits(&chain.infer(&x)), "infer vs unfused infer chain");
        prop_assert_eq!(&fused, &bits(&chain.forward(&x, Mode::Eval)), "vs unfused eval");
        prop_assert_eq!(&fused, &bits(&block.forward(&x, Mode::Eval)), "vs block eval");
        prop_assert_eq!(&fused, &bits(&block.forward(&x, Mode::Infer)), "vs block infer");
    }
}

/// Parameter gradients of every parameter of `layer`, as bits, in visit
/// order.
fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.push(bits(&p.grad)));
    grads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused train-mode block (one statistics read and one pass per row
    /// forward, the ReLU mask folded into the batch-norm gradient
    /// reduction backward) against the unfused chain, over several
    /// optimizer steps so later steps start from moved weights and running
    /// statistics. An eval-mode step rides along: it caches for backward
    /// too but normalizes with the running statistics.
    #[test]
    fn conv_bn_trains_exactly_like_the_unfused_chain(
        seed in 0u64..1_000_000,
        shape in 0usize..SHAPES.len(),
        bias in prop_oneof![Just(true), Just(false)],
        relu in prop_oneof![Just(true), Just(false)],
    ) {
        let mut block = trained_block(seed, shape, bias, relu);
        let mut chain = unfused_chain(&mut block, shape, bias, relu);
        let (b, in_c, out_c, _, t) = SHAPES[shape];
        let (mut opt_block, mut opt_chain) = (Adam::new(1e-2), Adam::new(1e-2));
        let mut r = rng(seed ^ 0x7A);
        for (step, mode) in [Mode::Train, Mode::Train, Mode::Eval, Mode::Train].into_iter().enumerate() {
            let x = randn_tensor(&mut r, &[b, in_c, t], 1.0);
            let g = randn_tensor(&mut r, &[b, out_c, t], 1.0);
            block.zero_grad();
            chain.zero_grad();
            let y = bits(&block.forward(&x, mode));
            prop_assert_eq!(&y, &bits(&chain.forward(&x, mode)), "step {} {:?} output", step, mode);
            let dx = bits(&block.backward(&g));
            prop_assert_eq!(&dx, &bits(&chain.backward(&g)), "step {} {:?} dX", step, mode);
            let grads = grad_bits(&mut block);
            prop_assert_eq!(&grads, &grad_bits(&mut chain), "step {} {:?} gradients", step, mode);
            opt_block.step(&mut block);
            opt_chain.step(&mut chain);
            // Weights, γ/β and the running statistics train-mode forwards
            // moved.
            prop_assert_eq!(block.save_state(), chain.save_state(), "step {} {:?} state", step, mode);
        }
    }
}

#[test]
#[should_panic(expected = "before forward")]
fn backward_after_an_infer_forward_panics() {
    let mut block = trained_block(5, 1, true, true);
    let (b, in_c, out_c, _, t) = SHAPES[1];
    let _ = block.forward(&Tensor::zeros(&[b, in_c, t]), Mode::Infer);
    let _ = block.backward(&Tensor::zeros(&[b, out_c, t]));
}
