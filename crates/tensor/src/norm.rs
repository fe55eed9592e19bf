//! Normalization layers: per-channel batch normalization for conv stacks and
//! per-position layer normalization for transformer blocks.

use crate::activation::{relu, relu_grad};
use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;

/// Partial accumulators per batch-norm reduction: eight lanes per sum so
/// the reduction vectorizes (a single scalar accumulator is a serial
/// dependency chain the compiler cannot widen). Element `i` of a row's full
/// 8-chunks lands in lane `i % 8`, the remainder in lane 0, rows in batch
/// order.
const LANES: usize = 8;

/// Lane-wise `(Σx, Σx²)` over rows of a `[batch, channels, time]` tensor
/// for one channel.
fn channel_sums(x: &Tensor, b: usize, ci: usize) -> (f32, f32) {
    let mut s = [0.0f32; LANES];
    let mut q = [0.0f32; LANES];
    for bi in 0..b {
        let row = x.row(bi, ci);
        let mut chunks = row.chunks_exact(LANES);
        for chunk in &mut chunks {
            for l in 0..LANES {
                s[l] += chunk[l];
                q[l] += chunk[l] * chunk[l];
            }
        }
        for &v in chunks.remainder() {
            s[0] += v;
            q[0] += v * v;
        }
    }
    (s.iter().sum(), q.iter().sum())
}

/// Adds one row's `(Σdy, Σdy·x̂)` into the lane accumulators, in
/// [`channel_sums`]' lane order. `dy` is the upstream gradient `gr`, masked
/// by the ReLU mask `mr` when `MASKED` (`mr` is not read otherwise;
/// `relu_grad(g, true)` is `g` bit for bit).
#[inline(always)]
fn grad_sums<const MASKED: bool>(
    gr: &[f32],
    hr: &[f32],
    mr: &[bool],
    s: &mut [f32; LANES],
    q: &mut [f32; LANES],
) {
    let mut gc = gr.chunks_exact(LANES);
    let mut hc = hr.chunks_exact(LANES);
    let mut mc = mr.chunks_exact(LANES);
    for (gch, hch) in (&mut gc).zip(&mut hc) {
        let mch = if MASKED { mc.next().expect("mask covers the row") } else { &[true; LANES] };
        for l in 0..LANES {
            let gy = relu_grad(gch[l], mch[l]);
            s[l] += gy;
            q[l] += gy * hch[l];
        }
    }
    let mrem = if MASKED { mc.remainder() } else { &[] };
    for (i, (&g, &h)) in gc.remainder().iter().zip(hc.remainder()).enumerate() {
        let gy = relu_grad(g, !MASKED || mrem[i]);
        s[0] += gy;
        q[0] += gy * h;
    }
}

/// One channel's eval-mode batch-norm map: `γ · ((v − mean) · inv_std) + β`
/// with the running statistics frozen. The single source of that formula:
/// [`BatchNorm1d`]'s stateless inference and the fused convolution
/// epilogue ([`crate::conv::Conv1d::infer_with`]) both apply it, so they
/// stay bit-identical to each other and to an eval forward.
#[derive(Clone, Copy, Debug)]
pub struct ChannelAffine {
    /// Running mean of the channel.
    pub mean: f32,
    /// `1 / sqrt(running_var + eps)`.
    pub inv_std: f32,
    /// Scale γ.
    pub gamma: f32,
    /// Shift β.
    pub beta: f32,
}

impl ChannelAffine {
    /// Applies the map to one value, in the eval forward's operation order.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        self.gamma * ((v - self.mean) * self.inv_std) + self.beta
    }
}

/// Batch normalization over `[batch, channels, time]`: statistics are
/// computed per channel across the batch and time axes.
pub struct BatchNorm1d {
    pub(crate) channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    // Persistent buffers (part of the eval state, serialized by
    // `visit_state` alongside the trainable parameters).
    running_mean: Tensor,
    running_var: Tensor,
    // Caches for backward.
    pub(crate) xhat: Option<Tensor>,
    inv_std: Vec<f32>,
    last_mode: Mode,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm1d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            xhat: None,
            inv_std: vec![0.0; channels],
            last_mode: Mode::Train,
        }
    }

    /// The frozen eval-mode map of channel `ci`.
    pub fn eval_affine(&self, ci: usize) -> ChannelAffine {
        ChannelAffine {
            mean: self.running_mean.data()[ci],
            inv_std: 1.0 / (self.running_var.data()[ci] + self.eps).sqrt(),
            gamma: self.gamma.value.data()[ci],
            beta: self.beta.value.data()[ci],
        }
    }

    /// The caching (train or eval) forward over `y` in place, followed by a
    /// ReLU when `relu_mask` is given, which then records the ReLU's
    /// gradient mask. Per channel: train mode takes the batch statistics in
    /// one [`channel_sums`] read and folds them into the running ones, eval
    /// mode reads the running ones; then one pass per row writes x̂, the
    /// output and the mask. Per element that is `h = (v - mean) * inv_std;
    /// o = g * h + be; o = o.max(0.0)`, the unfused `BatchNorm1d` → `ReLU`
    /// chain's exact operations in the same order.
    pub(crate) fn forward_in_place(
        &mut self,
        y: &mut Tensor,
        mode: Mode,
        mut relu_mask: Option<&mut Vec<bool>>,
    ) {
        debug_assert!(mode.caches_for_backward(), "an Infer forward caches nothing");
        let (b, c, t) = y.dims3();
        assert_eq!(c, self.channels, "BatchNorm1d expected {} channels, got {c}", self.channels);
        let n = (b * t) as f32;
        self.last_mode = mode;
        // Reuse the previous call's cache allocations; contents are fully
        // overwritten below.
        let mut xhat = self.xhat.take().unwrap_or_else(|| Tensor::zeros(&[0]));
        xhat.resize(&[b, c, t]);
        if let Some(mask) = relu_mask.as_deref_mut() {
            mask.clear();
            mask.resize(y.len(), false);
        }
        for ci in 0..c {
            let (mean, var) = match mode {
                Mode::Train => {
                    let (sum, sumsq) = channel_sums(y, b, ci);
                    let mean = sum / n;
                    let var = (sumsq / n - mean * mean).max(0.0);
                    let rm = &mut self.running_mean.data_mut()[ci];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                    let rv = &mut self.running_var.data_mut()[ci];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
                    (mean, var)
                }
                Mode::Eval | Mode::Infer => {
                    (self.running_mean.data()[ci], self.running_var.data()[ci])
                }
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            self.inv_std[ci] = inv_std;
            let g = self.gamma.value.data()[ci];
            let be = self.beta.value.data()[ci];
            for bi in 0..b {
                let row = (bi * c + ci) * t..(bi * c + ci + 1) * t;
                let rows =
                    y.data_mut()[row.clone()].iter_mut().zip(&mut xhat.data_mut()[row.clone()]);
                match relu_mask.as_deref_mut() {
                    None => rows.for_each(|(o, h)| {
                        *h = (*o - mean) * inv_std;
                        *o = g * *h + be;
                    }),
                    Some(mask) => rows.zip(&mut mask[row]).for_each(|((o, h), m)| {
                        *h = (*o - mean) * inv_std;
                        let v = g * *h + be;
                        *m = v > 0.0;
                        *o = relu(v);
                    }),
                }
            }
        }
        self.xhat = Some(xhat);
    }

    /// Backward of [`Self::forward_in_place`]: the input gradient. With
    /// `relu_mask` the ReLU's gradient mask is applied to `grad` as it is
    /// read, both in the `Σdy` / `Σdy·x̂` reduction and in the pass that
    /// writes dX, so no masked-gradient tensor is built; the values, and the
    /// order they are summed in, are the unfused `ReLU` → `BatchNorm1d`
    /// backward's.
    pub(crate) fn backward_masked(&mut self, grad: &Tensor, relu_mask: Option<&[bool]>) -> Tensor {
        match relu_mask {
            Some(mask) => {
                assert_eq!(mask.len(), grad.len(), "ReLU backward before forward");
                self.backward_rows::<true>(grad, mask)
            }
            None => self.backward_rows::<false>(grad, &[]),
        }
    }

    /// [`Self::backward_masked`], monomorphized on whether `mask` applies so
    /// the per-element loops stay branch-free.
    fn backward_rows<const MASKED: bool>(&mut self, grad: &Tensor, mask: &[bool]) -> Tensor {
        let xhat = self.xhat.as_ref().expect("BatchNorm1d backward before forward");
        let (b, c, t) = grad.dims3();
        assert_eq!(xhat.shape(), grad.shape(), "BatchNorm1d gradient shape differs from forward");
        let n = (b * t) as f32;
        let mut dx = Tensor::zeros(&[b, c, t]);
        // One row's upstream gradient, x̂ and (when masked) ReLU mask.
        let row = |bi: usize, ci: usize| {
            let r = (bi * c + ci) * t;
            let mr = if MASKED { &mask[r..][..t] } else { &[][..] };
            (&grad.data()[r..][..t], &xhat.data()[r..][..t], mr)
        };
        let dy = |gr: &[f32], mr: &[bool], i: usize| relu_grad(gr[i], !MASKED || mr[i]);
        for ci in 0..c {
            let (mut s_dy, mut s_dyh) = ([0.0f32; LANES], [0.0f32; LANES]);
            for bi in 0..b {
                let (gr, hr, mr) = row(bi, ci);
                grad_sums::<MASKED>(gr, hr, mr, &mut s_dy, &mut s_dyh);
            }
            let sum_dy: f32 = s_dy.iter().sum();
            let sum_dy_xhat: f32 = s_dyh.iter().sum();
            self.beta.grad.data_mut()[ci] += sum_dy;
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat;

            let g = self.gamma.value.data()[ci];
            let inv_std = self.inv_std[ci];
            for bi in 0..b {
                let (gr, hr, mr) = row(bi, ci);
                let dxr = &mut dx.data_mut()[(bi * c + ci) * t..][..t];
                match self.last_mode {
                    Mode::Train => {
                        // Full backward through the batch statistics.
                        let k1 = g * inv_std / n;
                        for (i, d) in dxr.iter_mut().enumerate() {
                            *d = k1 * (n * dy(gr, mr, i) - sum_dy - hr[i] * sum_dy_xhat);
                        }
                    }
                    // Running stats are constants. (`Infer` is unreachable:
                    // its forward drops the x̂ cache, so backward panics
                    // above.)
                    Mode::Eval | Mode::Infer => {
                        let k = g * inv_std;
                        for (i, d) in dxr.iter_mut().enumerate() {
                            *d = k * dy(gr, mr, i);
                        }
                    }
                }
            }
        }
        dx
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Infer {
            // Backward after an `Infer` forward is a contract violation and
            // panics on the missing cache.
            self.xhat = None;
            return self.infer(x);
        }

        let mut out = x.clone();
        self.forward_in_place(&mut out, mode, None);
        out
    }

    /// Running statistics in one fused pass, with no normalized-input
    /// buffer. [`ChannelAffine::apply`] keeps the eval path's per-element
    /// operation order exactly — `g * ((v - mean) * inv_std) + be` — so the
    /// two stay bit-identical.
    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, c, t) = x.dims3();
        assert_eq!(c, self.channels, "BatchNorm1d expected {} channels, got {c}", self.channels);
        let mut out = Tensor::zeros(&[b, c, t]);
        for ci in 0..c {
            let affine = self.eval_affine(ci);
            for bi in 0..b {
                let xr = x.row(bi, ci);
                let or = out.row_mut(bi, ci);
                for (o, &v) in or.iter_mut().zip(xr) {
                    *o = affine.apply(v);
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_masked(grad, None)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.gamma.value);
        f(&mut self.beta.value);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

/// Layer normalization over the channel dimension of `[batch, channels, time]`
/// (one mean/variance per `(batch, time)` position) — the transformer flavor.
pub struct LayerNorm {
    dim: usize,
    eps: f32,
    gamma: Param,
    beta: Param,
    xhat: Option<Tensor>,
    inv_std: Vec<f32>, // one per (batch, time) position
}

impl LayerNorm {
    /// Creates a layer norm over `dim` channels.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            dim,
            eps: 1e-5,
            gamma: Param::new(Tensor::full(&[dim], 1.0)),
            beta: Param::new(Tensor::zeros(&[dim])),
            xhat: None,
            inv_std: Vec::new(),
        }
    }
}

impl LayerNorm {
    /// Normalizes every `(batch, time)` position, recording the normalized
    /// input and inverse standard deviations into `cache` when given. The
    /// per-element arithmetic is the same with or without a cache, so
    /// [`Layer::infer`] stays bit-identical to an `Eval` forward.
    fn normalize(&self, x: &Tensor, mut cache: Option<(&mut Tensor, &mut [f32])>) -> Tensor {
        let (b, c, t) = x.dims3();
        assert_eq!(c, self.dim, "LayerNorm expected {} channels, got {c}", self.dim);
        let mut out = Tensor::zeros(&[b, c, t]);
        for bi in 0..b {
            for ti in 0..t {
                let mut sum = 0.0f32;
                let mut sumsq = 0.0f32;
                for ci in 0..c {
                    let v = x.at3(bi, ci, ti);
                    sum += v;
                    sumsq += v * v;
                }
                let mean = sum / c as f32;
                let var = (sumsq / c as f32 - mean * mean).max(0.0);
                let inv_std = 1.0 / (var + self.eps).sqrt();
                if let Some((_, inv)) = &mut cache {
                    inv[bi * t + ti] = inv_std;
                }
                for ci in 0..c {
                    let h = (x.at3(bi, ci, ti) - mean) * inv_std;
                    if let Some((xh, _)) = &mut cache {
                        *xh.at3_mut(bi, ci, ti) = h;
                    }
                    *out.at3_mut(bi, ci, ti) =
                        self.gamma.value.data()[ci] * h + self.beta.value.data()[ci];
                }
            }
        }
        out
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // Under `Mode::Infer` the normalized-input buffer and inverse
        // standard deviations exist only for backward, so they are skipped.
        if !mode.caches_for_backward() {
            self.xhat = None;
            self.inv_std = Vec::new();
            return self.infer(x);
        }
        let (b, c, t) = x.dims3();
        let mut xhat = Tensor::zeros(&[b, c, t]);
        let mut inv_std = vec![0.0; b * t];
        let out = self.normalize(x, Some((&mut xhat, &mut inv_std)));
        self.xhat = Some(xhat);
        self.inv_std = inv_std;
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.normalize(x, None)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let xhat = self.xhat.as_ref().expect("LayerNorm backward before forward");
        let (b, c, t) = grad.dims3();
        let mut dx = Tensor::zeros(&[b, c, t]);
        let cf = c as f32;

        for bi in 0..b {
            for ti in 0..t {
                let inv_std = self.inv_std[bi * t + ti];
                let mut sum_dyg = 0.0f32;
                let mut sum_dyg_xhat = 0.0f32;
                for ci in 0..c {
                    let gy = grad.at3(bi, ci, ti);
                    let h = xhat.at3(bi, ci, ti);
                    let g = self.gamma.value.data()[ci];
                    self.beta.grad.data_mut()[ci] += gy;
                    self.gamma.grad.data_mut()[ci] += gy * h;
                    sum_dyg += gy * g;
                    sum_dyg_xhat += gy * g * h;
                }
                for ci in 0..c {
                    let gy = grad.at3(bi, ci, ti);
                    let h = xhat.at3(bi, ci, ti);
                    let g = self.gamma.value.data()[ci];
                    *dx.at3_mut(bi, ci, ti) =
                        inv_std / cf * (cf * gy * g - sum_dyg - h * sum_dyg_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batchnorm_train_normalizes_per_channel() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 4]);
        let y = bn.forward(&x, Mode::Train);
        // Each channel should have ~zero mean and ~unit variance.
        for ci in 0..2 {
            let row = y.row(0, ci);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        // Prime the running stats with several train batches.
        let x = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[1, 1, 4]);
        for _ in 0..200 {
            let _ = bn.forward(&x, Mode::Train);
        }
        let y = bn.forward(&x, Mode::Eval);
        // After convergence: mean~2, var~0 => output ~ 0 everywhere.
        assert!(y.data().iter().all(|v| v.abs() < 0.1), "{:?}", y);
    }

    #[test]
    fn batchnorm_constant_input_is_finite() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::full(&[2, 1, 3], 5.0);
        let y = bn.forward(&x, Mode::Train);
        assert!(y.all_finite());
    }

    #[test]
    fn layernorm_normalizes_each_position() {
        let mut ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 2]);
        let y = ln.forward(&x, Mode::Train);
        for ti in 0..2 {
            let vals: Vec<f32> = (0..3).map(|c| y.at3(0, c, ti)).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn norm_layers_expose_params() {
        let mut bn = BatchNorm1d::new(8);
        assert_eq!(bn.num_params(), 16);
        let mut ln = LayerNorm::new(8);
        assert_eq!(ln.num_params(), 16);
    }
}
