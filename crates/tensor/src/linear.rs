//! Fully connected layers: the plain [`Linear`] layer on `[batch, features]`
//! and the [`TimeDistributed`] variant that applies a linear map at every
//! timestep of a `[batch, channels, time]` tensor (per-timestep heads of the
//! sequence-to-sequence baselines).
//!
//! Both route their products through [`crate::gemm::gemm`], which runs the
//! host's microkernel ([`crate::gemm::host_kernel_mode`]): on a machine
//! where the SIMD kernels are bit-exact these layers use the explicit
//! AVX2/NEON microkernels with no call-site changes here.

use crate::gemm::{gemm, Layout};
use crate::init;
use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;
use rand::Rng;

/// Affine map `y = x W^T + b` on `[batch, in] -> [batch, out]`.
pub struct Linear {
    in_f: usize,
    out_f: usize,
    weight: Param, // [out, in]
    bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Xavier initialization.
    pub fn new(rng: &mut impl Rng, in_f: usize, out_f: usize) -> Self {
        Self::with_bias(rng, in_f, out_f, true)
    }

    /// Creates a linear layer, optionally without bias.
    pub fn with_bias(rng: &mut impl Rng, in_f: usize, out_f: usize, bias: bool) -> Self {
        let weight = Param::new(init::xavier_uniform(rng, &[out_f, in_f], in_f, out_f));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_f])));
        Linear { in_f, out_f, weight, bias, cached_input: None }
    }

    /// Immutable access to the weight matrix `[out, in]` (CAM needs the
    /// class-1 row).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let out = self.infer(x);
        self.cached_input = if mode.caches_for_backward() { Some(x.clone()) } else { None };
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, f) = x.dims2();
        assert_eq!(f, self.in_f, "Linear expected {} features, got {f}", self.in_f);
        // y[b, o] = sum_i x[b, i] * w[o, i] + bias[o] — one GEMM against the
        // transposed weight layout, no materialized transpose.
        let mut out = Tensor::zeros(&[b, self.out_f]);
        gemm(
            b,
            self.out_f,
            self.in_f,
            x.data(),
            Layout::Normal,
            self.weight.value.data(),
            Layout::Transposed,
            out.data_mut(),
            false,
        );
        if let Some(bias) = &self.bias {
            for bi in 0..b {
                for (o, &bv) in out.data_mut()[bi * self.out_f..(bi + 1) * self.out_f]
                    .iter_mut()
                    .zip(bias.value.data())
                {
                    *o += bv;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("Linear backward before forward");
        let (b, _) = grad.dims2();
        // dW += grad^T x  ([out, b] x [b, in]), accumulated in place.
        gemm(
            self.out_f,
            self.in_f,
            b,
            grad.data(),
            Layout::Transposed,
            x.data(),
            Layout::Normal,
            self.weight.grad.data_mut(),
            true,
        );
        if let Some(bias) = &mut self.bias {
            for bi in 0..b {
                for (g, &gy) in bias
                    .grad
                    .data_mut()
                    .iter_mut()
                    .zip(&grad.data()[bi * self.out_f..(bi + 1) * self.out_f])
                {
                    *g += gy;
                }
            }
        }
        // dX = grad W  ([b, out] x [out, in])
        grad.matmul(&self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

/// Applies an inner [`Linear`] independently at every timestep:
/// `[batch, c_in, time] -> [batch, c_out, time]`.
pub struct TimeDistributed {
    inner: Linear,
    time: usize,
    batch: usize,
}

impl TimeDistributed {
    /// Wraps a linear map over the channel axis.
    pub fn new(rng: &mut impl Rng, in_c: usize, out_c: usize) -> Self {
        TimeDistributed { inner: Linear::new(rng, in_c, out_c), time: 0, batch: 0 }
    }

    fn to_rows(x: &Tensor) -> Tensor {
        // [b, c, t] -> [b*t, c]
        let (b, c, t) = x.dims3();
        let mut out = Tensor::zeros(&[b * t, c]);
        for bi in 0..b {
            for ci in 0..c {
                let row = x.row(bi, ci);
                for (ti, &v) in row.iter().enumerate() {
                    out.data_mut()[(bi * t + ti) * c + ci] = v;
                }
            }
        }
        out
    }

    fn from_rows(x: &Tensor, b: usize, t: usize) -> Tensor {
        // [b*t, c] -> [b, c, t]
        let (_, c) = x.dims2();
        let mut out = Tensor::zeros(&[b, c, t]);
        for bi in 0..b {
            for ti in 0..t {
                for ci in 0..c {
                    *out.at3_mut(bi, ci, ti) = x.data()[(bi * t + ti) * c + ci];
                }
            }
        }
        out
    }
}

impl Layer for TimeDistributed {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (b, _, t) = x.dims3();
        self.batch = b;
        self.time = t;
        let rows = Self::to_rows(x);
        let y = self.inner.forward(&rows, mode);
        Self::from_rows(&y, b, t)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, _, t) = x.dims3();
        Self::from_rows(&self.inner.infer(&Self::to_rows(x)), b, t)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let rows = Self::to_rows(grad);
        let gx = self.inner.backward(&rows);
        Self::from_rows(&gx, self.batch, self.time)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.inner.visit_state(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    #[test]
    fn linear_matches_hand_computation() {
        let mut r = rng(0);
        let mut l = Linear::new(&mut r, 2, 2);
        l.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        if let Some(b) = &mut l.bias {
            b.value = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        }
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[13.0, 27.0]);
    }

    #[test]
    fn linear_backward_shapes() {
        let mut r = rng(1);
        let mut l = Linear::new(&mut r, 3, 5);
        let x = init::randn_tensor(&mut r, &[4, 3], 1.0);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[4, 5]);
        let gx = l.backward(&Tensor::full(&[4, 5], 1.0));
        assert_eq!(gx.shape(), &[4, 3]);
    }

    #[test]
    fn linear_param_count() {
        let mut r = rng(2);
        let mut l = Linear::new(&mut r, 128, 2);
        assert_eq!(l.num_params(), 128 * 2 + 2);
    }

    #[test]
    fn time_distributed_applies_same_map_everywhere() {
        let mut r = rng(3);
        let mut td = TimeDistributed::new(&mut r, 2, 1);
        td.inner.weight.value = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
        if let Some(b) = &mut td.inner.bias {
            b.value = Tensor::from_vec(vec![0.5], &[1]);
        }
        // x[ch0] = [1, 2], x[ch1] = [3, 4] -> y = x0 - x1 + 0.5 = [-1.5, -1.5]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let y = td.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[-1.5, -1.5]);
    }

    #[test]
    fn row_major_round_trip() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 3, 2]);
        let rows = TimeDistributed::to_rows(&x);
        let back = TimeDistributed::from_rows(&rows, 2, 2);
        assert_eq!(back, x);
    }
}
