//! Pooling and resampling layers: max/average pooling, global average
//! pooling (the GAP layer that makes CAM possible), and nearest/linear
//! upsampling used by the UNet/TPNILM decoders.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Non-overlapping max pooling along time (`kernel == stride`).
pub struct MaxPool1d {
    k: usize,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool1d {
    /// Creates a max-pool with window and stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        MaxPool1d { k, argmax: Vec::new(), in_shape: Vec::new() }
    }

    /// Output length for input length `t` (floor division; tail dropped).
    pub fn out_len(&self, t: usize) -> usize {
        t / self.k
    }
}

impl MaxPool1d {
    /// Pools `x`, recording each output's source index into `argmax` when
    /// given (the backward routing table).
    fn pool(&self, x: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        let (b, c, t) = x.dims3();
        let to = self.out_len(t);
        assert!(to > 0, "MaxPool1d window {} longer than input {t}", self.k);
        let mut out = Tensor::zeros(&[b, c, to]);
        if let Some(am) = &mut argmax {
            am.clear();
            am.resize(b * c * to, 0);
        }
        for bi in 0..b {
            for ci in 0..c {
                let xr = x.row(bi, ci);
                let or = out.row_mut(bi, ci);
                for (toi, o) in or.iter_mut().enumerate() {
                    let start = toi * self.k;
                    let window = &xr[start..start + self.k];
                    let (mut best_i, mut best) = (0usize, f32::NEG_INFINITY);
                    for (i, &v) in window.iter().enumerate() {
                        if v > best {
                            best = v;
                            best_i = i;
                        }
                    }
                    *o = best;
                    if let Some(am) = &mut argmax {
                        am[(bi * c + ci) * to + toi] = start + best_i;
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.in_shape = x.shape().to_vec();
        let mut argmax = std::mem::take(&mut self.argmax);
        let out = self.pool(x, Some(&mut argmax));
        self.argmax = argmax;
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pool(x, None)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (b, c, to) = grad.dims3();
        let mut dx = Tensor::zeros(&self.in_shape);
        for bi in 0..b {
            for ci in 0..c {
                for toi in 0..to {
                    let src = self.argmax[(bi * c + ci) * to + toi];
                    dx.row_mut(bi, ci)[src] += grad.at3(bi, ci, toi);
                }
            }
        }
        dx
    }
}

/// Non-overlapping average pooling along time (`kernel == stride`).
pub struct AvgPool1d {
    k: usize,
    in_shape: Vec<usize>,
}

impl AvgPool1d {
    /// Creates an average pool with window and stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        AvgPool1d { k, in_shape: Vec::new() }
    }

    /// Output length for input length `t`.
    pub fn out_len(&self, t: usize) -> usize {
        t / self.k
    }
}

impl Layer for AvgPool1d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.in_shape = x.shape().to_vec();
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, c, t) = x.dims3();
        let to = self.out_len(t);
        assert!(to > 0, "AvgPool1d window {} longer than input {t}", self.k);
        let mut out = Tensor::zeros(&[b, c, to]);
        let inv = 1.0 / self.k as f32;
        for bi in 0..b {
            for ci in 0..c {
                let xr = x.row(bi, ci);
                let or = out.row_mut(bi, ci);
                for (toi, o) in or.iter_mut().enumerate() {
                    let start = toi * self.k;
                    *o = xr[start..start + self.k].iter().sum::<f32>() * inv;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (b, c, to) = grad.dims3();
        let mut dx = Tensor::zeros(&self.in_shape);
        let inv = 1.0 / self.k as f32;
        for bi in 0..b {
            for ci in 0..c {
                for toi in 0..to {
                    let g = grad.at3(bi, ci, toi) * inv;
                    let start = toi * self.k;
                    for d in &mut dx.row_mut(bi, ci)[start..start + self.k] {
                        *d += g;
                    }
                }
            }
        }
        dx
    }
}

/// Global average pooling over time: `[b, c, t] -> [b, c]`.
///
/// This is the layer that enables Class Activation Maps: the classifier that
/// follows sees only per-channel means, so its weights linearly score each
/// feature map (paper, Definition II.1).
#[derive(Default)]
pub struct GlobalAvgPool1d {
    in_shape: Vec<usize>,
}

impl Layer for GlobalAvgPool1d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.in_shape = x.shape().to_vec();
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, c, t) = x.dims3();
        let mut out = Tensor::zeros(&[b, c]);
        let inv = 1.0 / t as f32;
        for bi in 0..b {
            for ci in 0..c {
                *out.at2_mut(bi, ci) = x.row(bi, ci).iter().sum::<f32>() * inv;
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (b, c) = grad.dims2();
        let t = self.in_shape[2];
        let mut dx = Tensor::zeros(&self.in_shape);
        let inv = 1.0 / t as f32;
        for bi in 0..b {
            for ci in 0..c {
                let g = grad.at2(bi, ci) * inv;
                dx.row_mut(bi, ci).iter_mut().for_each(|d| *d += g);
            }
        }
        dx
    }
}

/// Upsampling mode for [`Upsample1d`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpsampleMode {
    /// Each input sample is repeated `factor` times.
    Nearest,
    /// Linear interpolation between input samples (align-corners=false style).
    Linear,
}

/// Upsamples the time axis by an integer factor.
pub struct Upsample1d {
    factor: usize,
    mode: UpsampleMode,
    in_shape: Vec<usize>,
}

impl Upsample1d {
    /// Creates an upsampler multiplying the time axis by `factor`.
    pub fn new(factor: usize, mode: UpsampleMode) -> Self {
        assert!(factor > 0);
        Upsample1d { factor, mode, in_shape: Vec::new() }
    }

    /// Source position and interpolation weight for output index `to`.
    /// Returns `(i0, i1, w1)` with `out = (1-w1)*x[i0] + w1*x[i1]`.
    fn linear_coords(&self, to: usize, t_in: usize) -> (usize, usize, f32) {
        let f = self.factor as f32;
        let src = (to as f32 + 0.5) / f - 0.5;
        let src = src.clamp(0.0, (t_in - 1) as f32);
        let i0 = src.floor() as usize;
        let i1 = (i0 + 1).min(t_in - 1);
        (i0, i1, src - i0 as f32)
    }
}

impl Layer for Upsample1d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.in_shape = x.shape().to_vec();
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, c, t) = x.dims3();
        let to = t * self.factor;
        let mut out = Tensor::zeros(&[b, c, to]);
        for bi in 0..b {
            for ci in 0..c {
                let xr = x.row(bi, ci);
                let or = out.row_mut(bi, ci);
                match self.mode {
                    UpsampleMode::Nearest => {
                        for (toi, o) in or.iter_mut().enumerate() {
                            *o = xr[toi / self.factor];
                        }
                    }
                    UpsampleMode::Linear => {
                        for toi in 0..to {
                            let (i0, i1, w1) = self.linear_coords(toi, t);
                            or[toi] = (1.0 - w1) * xr[i0] + w1 * xr[i1];
                        }
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (b, c, to) = grad.dims3();
        let t = self.in_shape[2];
        let mut dx = Tensor::zeros(&self.in_shape);
        for bi in 0..b {
            for ci in 0..c {
                let gr = grad.row(bi, ci);
                let dxr = dx.row_mut(bi, ci);
                match self.mode {
                    UpsampleMode::Nearest => {
                        for (toi, &g) in gr.iter().enumerate() {
                            dxr[toi / self.factor] += g;
                        }
                    }
                    UpsampleMode::Linear => {
                        for (toi, &g) in gr.iter().enumerate().take(to) {
                            let (i0, i1, w1) = self.linear_coords(toi, t);
                            dxr[i0] += (1.0 - w1) * g;
                            dxr[i1] += w1 * g;
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima_and_routes_grads() {
        let mut mp = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 0.0], &[1, 1, 4]);
        let y = mp.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[5.0, 2.0]);
        let g = mp.backward(&Tensor::from_vec(vec![1.0, 1.0], &[1, 1, 2]));
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_drops_tail() {
        let mut mp = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 9.0], &[1, 1, 3]);
        let y = mp.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 1]);
        assert_eq!(y.data(), &[2.0]);
    }

    #[test]
    fn avgpool_averages_and_spreads_grads() {
        let mut ap = AvgPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 4]);
        let y = ap.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[2.0, 6.0]);
        let g = ap.backward(&Tensor::from_vec(vec![2.0, 4.0], &[1, 1, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_reduces_time_axis() {
        let mut gap = GlobalAvgPool1d::default();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0], &[1, 2, 3]);
        let y = gap.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.0, 20.0]);
        let g = gap.backward(&Tensor::from_vec(vec![3.0, 6.0], &[1, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn nearest_upsample_repeats() {
        let mut up = Upsample1d::new(2, UpsampleMode::Nearest);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 2]);
        let y = up.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[1.0, 1.0, 2.0, 2.0]);
        let g = up.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]));
        assert_eq!(g.data(), &[3.0, 7.0]);
    }

    #[test]
    fn linear_upsample_interpolates_between_samples() {
        let mut up = Upsample1d::new(2, UpsampleMode::Linear);
        let x = Tensor::from_vec(vec![0.0, 4.0], &[1, 1, 2]);
        let y = up.forward(&x, Mode::Eval);
        // positions: src = (to+0.5)/2-0.5 -> [-0.25 clamp 0, 0.25, 0.75, 1.25 clamp 1]
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        assert!((y.data()[2] - 3.0).abs() < 1e-6);
        assert_eq!(y.data()[3], 4.0);
    }

    #[test]
    fn upsample_then_avgpool_is_identity() {
        let mut up = Upsample1d::new(3, UpsampleMode::Nearest);
        let mut ap = AvgPool1d::new(3);
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[1, 1, 3]);
        let y = ap.forward(&up.forward(&x, Mode::Eval), Mode::Eval);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
