//! Elementwise activation layers and stable softmax helpers.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Scalar ReLU, `v.max(0.0)`: the one formula behind [`ReLU`], the fused
/// convolution epilogue and in-place post-residual activations.
#[inline(always)]
pub fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// Scalar ReLU gradient: `g` where the forward input was positive (`keep`),
/// else `+0.0`. The one formula behind [`ReLU`]'s backward and the fused
/// batch-norm backward of [`crate::conv::ConvBn`]. Written as a bit mask so
/// it never compiles to a branch, which a mask of random signs would
/// mispredict about every other element.
#[inline(always)]
pub(crate) fn relu_grad(g: f32, keep: bool) -> f32 {
    f32::from_bits(g.to_bits() & (keep as u32).wrapping_neg())
}

/// Rectified linear unit: `max(0, x)`.
#[derive(Default)]
pub struct ReLU {
    pub(crate) mask: Vec<bool>,
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.mask.clear();
        if mode.caches_for_backward() {
            self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.map(relu)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.len(), self.mask.len(), "ReLU backward before forward");
        let data = grad.data().iter().zip(&self.mask).map(|(&g, &m)| relu_grad(g, m)).collect();
        Tensor::from_vec(data, grad.shape())
    }
}

/// Logistic sigmoid: `1 / (1 + e^-x)`.
#[derive(Default)]
pub struct Sigmoid {
    out: Vec<f32>,
}

/// Scalar sigmoid used by losses and post-processing.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        // Stable form for large negative x.
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let out = self.infer(x);
        self.out = if mode.caches_for_backward() { out.data().to_vec() } else { Vec::new() };
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.map(sigmoid)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.len(), self.out.len(), "Sigmoid backward before forward");
        let data = grad.data().iter().zip(&self.out).map(|(&g, &y)| g * y * (1.0 - y)).collect();
        Tensor::from_vec(data, grad.shape())
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    out: Vec<f32>,
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let out = self.infer(x);
        self.out = if mode.caches_for_backward() { out.data().to_vec() } else { Vec::new() };
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.map(f32::tanh)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.len(), self.out.len(), "Tanh backward before forward");
        let data = grad.data().iter().zip(&self.out).map(|(&g, &y)| g * (1.0 - y * y)).collect();
        Tensor::from_vec(data, grad.shape())
    }
}

/// Gaussian error linear unit, tanh approximation (used by transformer FFNs).
#[derive(Default)]
pub struct Gelu {
    input: Vec<f32>,
}

#[inline]
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

#[inline]
fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.input = if mode.caches_for_backward() { x.data().to_vec() } else { Vec::new() };
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.map(gelu_scalar)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.len(), self.input.len(), "Gelu backward before forward");
        let data =
            grad.data().iter().zip(&self.input).map(|(&g, &x)| g * gelu_grad_scalar(x)).collect();
        Tensor::from_vec(data, grad.shape())
    }
}

/// Numerically stable softmax over a slice, written into `out`.
pub fn softmax_into(xs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len());
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &x) in out.iter_mut().zip(xs) {
        let e = (x - max).exp();
        *o = e;
        sum += e;
    }
    let inv = if sum > 0.0 { 1.0 / sum } else { 0.0 };
    out.iter_mut().for_each(|o| *o *= inv);
}

/// Softmax over the last dimension of a rank-2 tensor (one distribution per row).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = x.dims2();
    let mut out = Tensor::zeros(&[rows, cols]);
    for r in 0..rows {
        let xs = &x.data()[r * cols..(r + 1) * cols];
        softmax_into(xs, &mut out.data_mut()[r * cols..(r + 1) * cols]);
    }
    out
}

/// Given softmax output `y` and upstream gradient `g` (both row-major, same
/// shape), computes the gradient with respect to the softmax input:
/// `dx_i = y_i * (g_i - sum_j g_j y_j)` per row.
pub fn softmax_backward_rows(y: &Tensor, g: &Tensor) -> Tensor {
    assert_eq!(y.shape(), g.shape());
    let (rows, cols) = y.dims2();
    let mut out = Tensor::zeros(&[rows, cols]);
    for r in 0..rows {
        let yr = &y.data()[r * cols..(r + 1) * cols];
        let gr = &g.data()[r * cols..(r + 1) * cols];
        let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
        for c in 0..cols {
            out.data_mut()[r * cols + c] = yr[c] * (gr[c] - dot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_masks() {
        let mut l = ReLU::default();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = l.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let y = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = y.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotone in the logits.
        assert!(y.at2(0, 2) > y.at2(0, 1));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0], &[1, 2]);
        let y = softmax_rows(&x);
        assert!((y.at2(0, 0) - 0.5).abs() < 1e-6);
        assert!(y.all_finite());
    }

    #[test]
    fn gelu_matches_known_values() {
        // GELU(0) = 0, GELU(large) ~ x, GELU(-large) ~ 0.
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
    }
}
