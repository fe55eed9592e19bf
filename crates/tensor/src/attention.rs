//! Multi-head self-attention, sinusoidal positional encoding and a
//! post-norm transformer encoder block (the TransNILM substrate).

use crate::activation::{softmax_backward_rows, softmax_rows, Gelu};
use crate::layer::{Layer, Mode, Param};
use crate::linear::TimeDistributed;
use crate::norm::LayerNorm;
use crate::tensor::Tensor;
use rand::Rng;

/// Fixed sinusoidal positional encoding added to `[b, d, t]` inputs.
#[derive(Default)]
pub struct PositionalEncoding;

impl PositionalEncoding {
    /// The encoding value for channel `c` (of `d`) at position `t`.
    fn value(c: usize, d: usize, t: usize) -> f32 {
        let i = (c / 2) as f32;
        let angle = t as f32 / (10_000f32).powf(2.0 * i / d as f32);
        if c % 2 == 0 {
            angle.sin()
        } else {
            angle.cos()
        }
    }
}

impl Layer for PositionalEncoding {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, d, _t) = x.dims3();
        let mut out = x.clone();
        for bi in 0..b {
            for ci in 0..d {
                let row = out.row_mut(bi, ci);
                for (ti, v) in row.iter_mut().enumerate() {
                    *v += Self::value(ci, d, ti);
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone() // additive constant
    }
}

/// Per-batch caches for attention backward.
struct AttnCache {
    xt: Tensor,        // [t, d] input, time-major
    q: Tensor,         // [t, d]
    k: Tensor,         // [t, d]
    v: Tensor,         // [t, d]
    attn: Vec<Tensor>, // per head: [t, t] softmax rows
    concat: Tensor,    // [t, d] head outputs before the output projection
}

/// Multi-head self-attention over `[batch, d_model, time]`.
pub struct MultiHeadSelfAttention {
    d_model: usize,
    heads: usize,
    w_q: Param, // [d, d]
    w_k: Param,
    w_v: Param,
    w_o: Param,
    caches: Vec<AttnCache>,
    retain_attention: bool,
    retained: Vec<Tensor>,
}

impl MultiHeadSelfAttention {
    /// Creates an attention layer; `d_model` must be divisible by `heads`.
    pub fn new(rng: &mut impl Rng, d_model: usize, heads: usize) -> Self {
        assert!(
            heads > 0 && d_model % heads == 0,
            "d_model {d_model} not divisible by heads {heads}"
        );
        let mk = |rng: &mut dyn FnMut() -> Tensor| Param::new(rng());
        let mut sample = || crate::init::xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        MultiHeadSelfAttention {
            d_model,
            heads,
            w_q: mk(&mut sample),
            w_k: mk(&mut sample),
            w_v: mk(&mut sample),
            w_o: mk(&mut sample),
            caches: Vec::new(),
            retain_attention: false,
            retained: Vec::new(),
        }
    }

    /// When enabled, every forward pass (including [`Mode::Infer`]) keeps
    /// the head-averaged attention map per batch item, readable through
    /// [`MultiHeadSelfAttention::retained_attention`]. This is the hook for
    /// attention-rollout localization: the maps are forward products, not
    /// backward caches, so retaining them does not violate the `Infer`
    /// no-backward-bookkeeping contract.
    pub fn set_retain_attention(&mut self, retain: bool) {
        self.retain_attention = retain;
        if !retain {
            self.retained.clear();
        }
    }

    /// The head-averaged `[t, t]` attention map of each batch item from the
    /// most recent forward pass (empty unless
    /// [`MultiHeadSelfAttention::set_retain_attention`] was enabled).
    pub fn retained_attention(&self) -> &[Tensor] {
        &self.retained
    }

    /// `[b, d, t]` batch item -> time-major `[t, d]` matrix.
    fn to_time_major(x: &Tensor, bi: usize) -> Tensor {
        let (_, d, t) = x.dims3();
        let mut out = Tensor::zeros(&[t, d]);
        for ci in 0..d {
            let row = x.row(bi, ci);
            for (ti, &v) in row.iter().enumerate() {
                *out.at2_mut(ti, ci) = v;
            }
        }
        out
    }

    /// Copies a time-major `[t, d]` matrix into batch item `bi` of `[b, d, t]`.
    fn from_time_major(dst: &mut Tensor, src: &Tensor, bi: usize) {
        let (t, d) = src.dims2();
        for ci in 0..d {
            for ti in 0..t {
                *dst.at3_mut(bi, ci, ti) = src.at2(ti, ci);
            }
        }
    }

    /// Extracts head `h` columns: `[t, d] -> [t, dh]`.
    fn head(x: &Tensor, h: usize, dh: usize) -> Tensor {
        let (t, _) = x.dims2();
        let mut out = Tensor::zeros(&[t, dh]);
        for ti in 0..t {
            for j in 0..dh {
                *out.at2_mut(ti, j) = x.at2(ti, h * dh + j);
            }
        }
        out
    }

    /// Adds head `h` values back into the full-width matrix.
    fn add_head(dst: &mut Tensor, src: &Tensor, h: usize, dh: usize) {
        let (t, _) = src.dims2();
        for ti in 0..t {
            for j in 0..dh {
                *dst.at2_mut(ti, h * dh + j) += src.at2(ti, j);
            }
        }
    }
}

impl MultiHeadSelfAttention {
    /// Attends over every batch item, pushing the backward caches into
    /// `caches` and the head-averaged `[t, t]` attention map of each item
    /// into `maps` when they are given.
    fn attend(
        &self,
        x: &Tensor,
        mut caches: Option<&mut Vec<AttnCache>>,
        mut maps: Option<&mut Vec<Tensor>>,
    ) -> Tensor {
        let (b, d, t) = x.dims3();
        assert_eq!(d, self.d_model);
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut out = Tensor::zeros(&[b, d, t]);

        for bi in 0..b {
            let xt = Self::to_time_major(x, bi); // [t, d]
            let q = xt.matmul(&self.w_q.value.transpose2());
            let k = xt.matmul(&self.w_k.value.transpose2());
            let v = xt.matmul(&self.w_v.value.transpose2());
            let mut concat = Tensor::zeros(&[t, d]);
            let mut attn_maps = Vec::with_capacity(self.heads);
            for h in 0..self.heads {
                let qh = Self::head(&q, h, dh);
                let kh = Self::head(&k, h, dh);
                let vh = Self::head(&v, h, dh);
                let scores = qh.matmul(&kh.transpose2()).scale(scale); // [t, t]
                let attn = softmax_rows(&scores);
                let oh = attn.matmul(&vh); // [t, dh]
                Self::add_head(&mut concat, &oh, h, dh);
                attn_maps.push(attn);
            }
            let y = concat.matmul(&self.w_o.value.transpose2()); // [t, d]
            Self::from_time_major(&mut out, &y, bi);
            if let Some(maps) = &mut maps {
                let mut mean = Tensor::zeros(&[t, t]);
                for attn in &attn_maps {
                    mean.add_assign(attn);
                }
                maps.push(mean.scale(1.0 / self.heads as f32));
            }
            if let Some(caches) = &mut caches {
                caches.push(AttnCache { xt, q, k, v, attn: attn_maps, concat });
            }
        }
        out
    }
}

impl Layer for MultiHeadSelfAttention {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut caches = std::mem::take(&mut self.caches);
        let mut retained = std::mem::take(&mut self.retained);
        caches.clear();
        retained.clear();
        let out = self.attend(
            x,
            mode.caches_for_backward().then_some(&mut caches),
            self.retain_attention.then_some(&mut retained),
        );
        self.caches = caches;
        self.retained = retained;
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.attend(x, None, None)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (b, d, t) = grad.dims3();
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut dx = Tensor::zeros(&[b, d, t]);

        for bi in 0..b {
            let cache = self
                .caches
                .get(bi)
                .expect("MultiHeadSelfAttention backward before forward (or after Infer)");
            let dy = Self::to_time_major(grad, bi); // [t, d]
            self.w_o.grad.add_assign(&dy.transpose2().matmul(&cache.concat)); // y = concat W_o^T
            let dconcat = dy.matmul(&self.w_o.value); // [t, d]

            let mut dq = Tensor::zeros(&[t, d]);
            let mut dk = Tensor::zeros(&[t, d]);
            let mut dv = Tensor::zeros(&[t, d]);
            for h in 0..self.heads {
                let doh = Self::head(&dconcat, h, dh); // [t, dh]
                let attn = &cache.attn[h];
                let vh = Self::head(&cache.v, h, dh);
                let qh = Self::head(&cache.q, h, dh);
                let kh = Self::head(&cache.k, h, dh);
                // o = attn v
                let dattn = doh.matmul(&vh.transpose2()); // [t, t]
                let dvh = attn.transpose2().matmul(&doh); // [t, dh]
                let dscores = softmax_backward_rows(attn, &dattn).scale(scale);
                let dqh = dscores.matmul(&kh); // [t, dh]
                let dkh = dscores.transpose2().matmul(&qh);
                Self::add_head(&mut dq, &dqh, h, dh);
                Self::add_head(&mut dk, &dkh, h, dh);
                Self::add_head(&mut dv, &dvh, h, dh);
            }
            // q = x W_q^T etc.
            self.w_q.grad.add_assign(&dq.transpose2().matmul(&cache.xt));
            self.w_k.grad.add_assign(&dk.transpose2().matmul(&cache.xt));
            self.w_v.grad.add_assign(&dv.transpose2().matmul(&cache.xt));
            let mut dxt = dq.matmul(&self.w_q.value);
            dxt.add_assign(&dk.matmul(&self.w_k.value));
            dxt.add_assign(&dv.matmul(&self.w_v.value));
            Self::from_time_major(&mut dx, &dxt, bi);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_q);
        f(&mut self.w_k);
        f(&mut self.w_v);
        f(&mut self.w_o);
    }
}

/// Post-norm transformer encoder block:
/// `y = LN(x + MHSA(x)); z = LN(y + FFN(y))` with a GELU feed-forward.
pub struct TransformerEncoderLayer {
    attn: MultiHeadSelfAttention,
    norm1: LayerNorm,
    ff1: TimeDistributed,
    gelu: Gelu,
    ff2: TimeDistributed,
    norm2: LayerNorm,
}

impl TransformerEncoderLayer {
    /// Creates an encoder block with model width `d_model`, `heads` attention
    /// heads, and a feed-forward hidden width `d_ff`.
    pub fn new(rng: &mut impl Rng, d_model: usize, heads: usize, d_ff: usize) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadSelfAttention::new(rng, d_model, heads),
            norm1: LayerNorm::new(d_model),
            ff1: TimeDistributed::new(rng, d_model, d_ff),
            gelu: Gelu::default(),
            ff2: TimeDistributed::new(rng, d_ff, d_model),
            norm2: LayerNorm::new(d_model),
        }
    }

    /// Forwards to [`MultiHeadSelfAttention::set_retain_attention`] on the
    /// block's attention sublayer.
    pub fn set_retain_attention(&mut self, retain: bool) {
        self.attn.set_retain_attention(retain);
    }

    /// The retained head-averaged attention maps of the block's attention
    /// sublayer (see [`MultiHeadSelfAttention::retained_attention`]).
    pub fn retained_attention(&self) -> &[Tensor] {
        self.attn.retained_attention()
    }

    /// Stateless inference through the block, returning the attention
    /// sublayer's head-averaged `[t, t]` map of each batch item alongside
    /// the output — what attention rollout needs, without
    /// [`TransformerEncoderLayer::set_retain_attention`].
    pub fn infer_with_attention(&self, x: &Tensor) -> (Tensor, Vec<Tensor>) {
        let mut maps = Vec::with_capacity(x.dims3().0);
        let out = self.encode(x, Some(&mut maps));
        (out, maps)
    }

    /// The [`Layer::infer`] body, optionally collecting attention maps.
    fn encode(&self, x: &Tensor, maps: Option<&mut Vec<Tensor>>) -> Tensor {
        let a = self.attn.attend(x, None, maps);
        let y = self.norm1.infer(&x.add(&a));
        let f = self.ff2.infer(&self.gelu.infer(&self.ff1.infer(&y)));
        self.norm2.infer(&y.add(&f))
    }
}

impl Layer for TransformerEncoderLayer {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let a = self.attn.forward(x, mode);
        let y = self.norm1.forward(&x.add(&a), mode);
        let f = self.ff2.forward(&self.gelu.forward(&self.ff1.forward(&y, mode), mode), mode);
        self.norm2.forward(&y.add(&f), mode)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.encode(x, None)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let d2 = self.norm2.backward(grad);
        // z-input = y + f: gradient flows to both.
        let df = self.ff1.backward(&self.gelu.backward(&self.ff2.backward(&d2)));
        let dy = d2.add(&df);
        let d1 = self.norm1.backward(&dy);
        // y-input = x + a.
        let da = self.attn.backward(&d1);
        d1.add(&da)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit_params(f);
        self.norm1.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
        self.norm2.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.attn.visit_state(f);
        self.norm1.visit_state(f);
        self.ff1.visit_state(f);
        self.ff2.visit_state(f);
        self.norm2.visit_state(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn_tensor, rng};

    #[test]
    fn positional_encoding_is_additive_and_bounded() {
        let mut pe = PositionalEncoding;
        let x = Tensor::zeros(&[1, 4, 8]);
        let y = pe.forward(&x, Mode::Eval);
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
        // position 0, even channel: sin(0)=0; odd channel: cos(0)=1.
        assert_eq!(y.at3(0, 0, 0), 0.0);
        assert_eq!(y.at3(0, 1, 0), 1.0);
    }

    #[test]
    fn attention_shapes_roundtrip() {
        let mut r = rng(0);
        let mut attn = MultiHeadSelfAttention::new(&mut r, 8, 2);
        let x = randn_tensor(&mut r, &[2, 8, 6], 1.0);
        let y = attn.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 8, 6]);
        let gx = attn.backward(&Tensor::full(&[2, 8, 6], 0.1));
        assert_eq!(gx.shape(), &[2, 8, 6]);
        assert!(gx.all_finite());
    }

    #[test]
    fn attention_rows_mix_information_across_time() {
        // With identity-ish projections, changing the input at one timestep
        // should influence the output at other timesteps (unlike a conv with
        // kernel 1).
        let mut r = rng(1);
        let mut attn = MultiHeadSelfAttention::new(&mut r, 4, 1);
        let x1 = randn_tensor(&mut r, &[1, 4, 5], 1.0);
        let mut x2 = x1.clone();
        *x2.at3_mut(0, 0, 0) += 5.0;
        let y1 = attn.forward(&x1, Mode::Eval);
        let y2 = attn.forward(&x2, Mode::Eval);
        let delta_elsewhere: f32 = (0..4).map(|c| (y1.at3(0, c, 4) - y2.at3(0, c, 4)).abs()).sum();
        assert!(delta_elsewhere > 1e-6, "attention did not propagate along time");
    }

    #[test]
    fn encoder_layer_shapes() {
        let mut r = rng(2);
        let mut enc = TransformerEncoderLayer::new(&mut r, 8, 2, 16);
        let x = randn_tensor(&mut r, &[1, 8, 4], 1.0);
        let y = enc.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 8, 4]);
        let gx = enc.backward(&Tensor::full(&[1, 8, 4], 0.05));
        assert_eq!(gx.shape(), &[1, 8, 4]);
        assert!(gx.all_finite());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn attention_rejects_bad_head_count() {
        let mut r = rng(3);
        let _ = MultiHeadSelfAttention::new(&mut r, 6, 4);
    }

    #[test]
    fn encoder_infer_is_bit_identical_to_eval() {
        // The attention path (MHSA, LayerNorm, GELU, TimeDistributed) must
        // treat `Infer` as a pure cache-skipping knob: every output bit
        // matches an `Eval` forward of the same input.
        let _unforced = crate::dispatch::lock_forced_backend();
        let mut r = rng(4);
        let mut enc = TransformerEncoderLayer::new(&mut r, 8, 2, 16);
        let x = randn_tensor(&mut r, &[2, 8, 6], 1.0);
        let eval = enc.forward(&x, Mode::Eval);
        let infer = enc.forward(&x, Mode::Infer);
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&eval), bits(&infer), "Infer diverged from Eval through the encoder");
        assert_eq!(bits(&enc.infer(&x)), bits(&eval), "stateless infer diverged from Eval");
        enc.set_retain_attention(true);
        let _ = enc.forward(&x, Mode::Infer);
        let (out, maps) = enc.infer_with_attention(&x);
        assert_eq!(bits(&out), bits(&eval));
        for (a, b) in maps.iter().zip(enc.retained_attention()) {
            assert_eq!(bits(a), bits(b), "returned and retained attention maps differ");
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn attention_backward_after_infer_panics() {
        let mut r = rng(5);
        let mut attn = MultiHeadSelfAttention::new(&mut r, 8, 2);
        let x = randn_tensor(&mut r, &[1, 8, 4], 1.0);
        let _ = attn.forward(&x, Mode::Infer);
        let _ = attn.backward(&Tensor::full(&[1, 8, 4], 0.1));
    }

    #[test]
    fn retained_attention_survives_infer_and_is_row_stochastic() {
        let mut r = rng(6);
        let mut attn = MultiHeadSelfAttention::new(&mut r, 8, 2);
        attn.set_retain_attention(true);
        let x = randn_tensor(&mut r, &[2, 8, 5], 1.0);
        let _ = attn.forward(&x, Mode::Infer);
        let maps = attn.retained_attention();
        assert_eq!(maps.len(), 2, "one retained map per batch item");
        for map in maps {
            assert_eq!(map.shape(), &[5, 5]);
            for ti in 0..5 {
                let row_sum: f32 = (0..5).map(|tj| map.at2(ti, tj)).sum();
                assert!((row_sum - 1.0).abs() < 1e-5, "head-averaged rows must sum to 1");
            }
        }
        attn.set_retain_attention(false);
        assert!(attn.retained_attention().is_empty());
    }
}
