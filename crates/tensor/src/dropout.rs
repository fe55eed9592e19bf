//! Inverted dropout: active only in [`Mode::Train`], identity in eval.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Inverted dropout with drop probability `p`.
///
/// Each layer owns its RNG (seeded at construction) so training runs are
/// reproducible without threading an RNG through every forward call.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Vec<f32>,
    train_pass: bool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1), got {p}");
        Dropout { p, rng: StdRng::seed_from_u64(seed), mask: Vec::new(), train_pass: false }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Eval | Mode::Infer => {
                self.train_pass = false;
                x.clone()
            }
            Mode::Train => {
                self.train_pass = true;
                if self.p == 0.0 {
                    self.mask = vec![1.0; x.len()];
                    return x.clone();
                }
                let keep = 1.0 - self.p;
                let inv_keep = 1.0 / keep;
                self.mask = (0..x.len())
                    .map(|_| if self.rng.random::<f32>() < keep { inv_keep } else { 0.0 })
                    .collect();
                let data = x.data().iter().zip(&self.mask).map(|(&v, &m)| v * m).collect();
                Tensor::from_vec(data, x.shape())
            }
        }
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        if !self.train_pass {
            return grad.clone();
        }
        assert_eq!(grad.len(), self.mask.len(), "Dropout backward before forward");
        let data = grad.data().iter().zip(&self.mask).map(|(&g, &m)| g * m).collect();
        Tensor::from_vec(data, grad.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::full(&[10_000], 1.0);
        let y = d.forward(&x, Mode::Train);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(&[64], 1.0);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::full(&[64], 1.0));
        // Wherever the output was zeroed, the gradient must be zeroed too.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_train() {
        let mut d = Dropout::new(0.0, 3);
        let x = Tensor::from_slice(&[1.0, -1.0]);
        assert_eq!(d.forward(&x, Mode::Train), x);
    }
}
