//! The convolutional ResNet classifier of the paper (Fig. 4): three residual
//! units with `{64, 128, 128}` filters and per-unit kernel sizes
//! `{k_p, 5, 3}`, followed by global average pooling and a linear softmax
//! head. The GAP→linear structure is what makes Class Activation Maps
//! available (Definition II.1): `CAM_c(t) = Σ_k w^k_c · f^k(t)`.

use crate::detector::{cached_cam, Detector, DetectorOutput};
use nilm_tensor::activation::relu;
use nilm_tensor::prelude::*;
use rand::Rng;

/// Architecture hyper-parameters for one ResNet.
#[derive(Clone, Copy, Debug)]
pub struct ResNetConfig {
    /// The variable first-conv kernel size k_p (CamAL sweeps {5,7,9,15,25}).
    pub kernel: usize,
    /// Filters of the three residual units; the paper uses `[64, 128, 128]`.
    pub channels: [usize; 3],
    /// Number of output classes (2 for appliance present/absent).
    pub num_classes: usize,
}

impl ResNetConfig {
    /// Paper-scale configuration (Fig. 4) for a given k_p.
    pub fn paper(kernel: usize) -> Self {
        ResNetConfig { kernel, channels: [64, 128, 128], num_classes: 2 }
    }

    /// Width-reduced configuration for laptop-scale experiments: channel
    /// counts divided by `div` (architecture unchanged).
    pub fn scaled(kernel: usize, div: usize) -> Self {
        let d = div.max(1);
        ResNetConfig {
            kernel,
            channels: [(64 / d).max(4), (128 / d).max(4), (128 / d).max(4)],
            num_classes: 2,
        }
    }
}

/// One residual unit: three [`ConvBn`] blocks (conv + BN, ReLU on the
/// first two) with kernels `{k_p, 5, 3}`, plus a projection shortcut (1x1
/// conv + BN) when channel counts change. Inference runs each block as one
/// fused kernel + epilogue pass; weights, RNG draws and the checkpoint
/// layout are those of the plain conv/BN/ReLU stack.
fn res_unit(rng: &mut impl Rng, in_c: usize, out_c: usize, kp: usize) -> Residual {
    let main = Sequential::new()
        .push(ConvBn::new(rng, in_c, out_c, kp, Padding::Same, true))
        .push(ConvBn::new(rng, out_c, out_c, 5, Padding::Same, true))
        .push(ConvBn::new(rng, out_c, out_c, 3, Padding::Same, false));
    if in_c == out_c {
        Residual::new(main)
    } else {
        let shortcut = ConvBn::new(rng, in_c, out_c, 1, Padding::Same, false);
        Residual::with_shortcut(main, shortcut)
    }
}

/// The CamAL ResNet detector. Also usable standalone as a time-series
/// classifier.
pub struct ResNet {
    cfg: ResNetConfig,
    units: Vec<Residual>,
    relus: Vec<ReLU>,
    gap: GlobalAvgPool1d,
    head: Linear,
    /// Output cached by [`Self::forward_features`] for CAM extraction.
    last: Option<DetectorOutput>,
}

impl ResNet {
    /// Builds a ResNet for univariate input.
    pub fn new(rng: &mut impl Rng, cfg: ResNetConfig) -> Self {
        let [c1, c2, c3] = cfg.channels;
        let units = vec![
            res_unit(rng, 1, c1, cfg.kernel),
            res_unit(rng, c1, c2, cfg.kernel),
            res_unit(rng, c2, c3, cfg.kernel),
        ];
        let head = Linear::new(rng, c3, cfg.num_classes);
        let relus = (0..units.len()).map(|_| ReLU::default()).collect();
        ResNet { cfg, units, relus, gap: GlobalAvgPool1d::default(), head, last: None }
    }

    /// Configuration used to build this network.
    pub fn config(&self) -> &ResNetConfig {
        &self.cfg
    }
}

impl Detector for ResNet {
    fn infer_features(&self, x: &Tensor) -> DetectorOutput {
        let mut cur: Option<Tensor> = None;
        for unit in &self.units {
            // The post-unit ReLU, in place on the residual sum.
            let mut y = unit.infer(cur.as_ref().unwrap_or(x));
            y.data_mut().iter_mut().for_each(|v| *v = relu(*v));
            cur = Some(y);
        }
        let features = cur.expect("ResNet has at least one residual unit");
        let logits = self.head.infer(&self.gap.infer(&features));
        DetectorOutput { features, logits, rollout: None }
    }

    fn forward_features(&mut self, x: &Tensor, mode: Mode) -> (Tensor, Tensor) {
        let mut cur: Option<Tensor> = None;
        for (unit, relu) in self.units.iter_mut().zip(&mut self.relus) {
            let y = unit.forward(cur.as_ref().unwrap_or(x), mode);
            cur = Some(relu.forward(&y, mode));
        }
        let features = cur.expect("ResNet has at least one residual unit");
        let pooled = self.gap.forward(&features, mode);
        let logits = self.head.forward(&pooled, mode);
        let out = DetectorOutput { features, logits, rollout: None };
        let pair = (out.features.clone(), out.logits.clone());
        self.last = Some(out);
        pair
    }

    fn cam(&self, class: usize) -> Tensor {
        cached_cam(&self.last, self.head.weight(), class)
    }

    fn head_weights(&self) -> &Tensor {
        self.head.weight()
    }
}

impl Layer for ResNet {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (_, logits) = self.forward_features(x, mode);
        logits
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_features(x).logits
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.head.backward(grad);
        let g = self.gap.backward(&g);
        let mut cur = g;
        for (unit, relu) in self.units.iter_mut().zip(&mut self.relus).rev() {
            cur = relu.backward(&cur);
            cur = unit.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for unit in &mut self.units {
            unit.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for unit in &mut self.units {
            unit.visit_state(f);
        }
        self.head.visit_state(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use nilm_tensor::init::{randn_tensor, rng};

    fn tiny() -> ResNetConfig {
        ResNetConfig { kernel: 5, channels: [4, 8, 8], num_classes: 2 }
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng(0);
        let mut net = ResNet::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[3, 1, 32], 1.0);
        let (features, logits) = net.forward_features(&x, Mode::Eval);
        assert_eq!(features.shape(), &[3, 8, 32]);
        assert_eq!(logits.shape(), &[3, 2]);
    }

    #[test]
    fn cam_shape_matches_input_time() {
        let mut r = rng(1);
        let mut net = ResNet::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[2, 1, 16], 1.0);
        let _ = net.forward_features(&x, Mode::Eval);
        let cam = net.cam(1);
        assert_eq!(cam.shape(), &[2, 16]);
        assert!(cam.all_finite());
    }

    #[test]
    fn cam_is_linear_in_head_weights() {
        // Doubling the class-1 head weights must double CAM_1.
        let mut r = rng(2);
        let mut net = ResNet::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[1, 1, 12], 1.0);
        let _ = net.forward_features(&x, Mode::Eval);
        let cam1 = net.cam(1);
        net.head.visit_params(&mut |p| {
            if p.value.rank() == 2 {
                // weight [2, c]: double row 1.
                let (classes, c) = p.value.dims2();
                assert_eq!(classes, 2);
                for ci in 0..c {
                    *p.value.at2_mut(1, ci) *= 2.0;
                }
            }
        });
        let _ = net.forward_features(&x, Mode::Eval);
        let cam2 = net.cam(1);
        for (a, b) in cam1.data().iter().zip(cam2.data()) {
            assert!((2.0 * a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mut r = rng(3);
        let net = ResNet::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[4, 1, 20], 1.0);
        let p = net.predict_proba(&x);
        for bi in 0..4 {
            let s = p.at2(bi, 0) + p.at2(bi, 1);
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn paper_config_param_count_is_in_expected_range() {
        // Table II reports ~570K per ResNet (averaged over kernels); the
        // kp=7 instance should be within [400K, 700K].
        let mut r = rng(4);
        let mut net = ResNet::new(&mut r, ResNetConfig::paper(7));
        let n = net.num_params();
        assert!((400_000..700_000).contains(&n), "param count {n}");
    }

    #[test]
    fn backward_runs_and_produces_input_grad() {
        let mut r = rng(5);
        let mut net = ResNet::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[2, 1, 16], 1.0);
        let logits = net.forward(&x, Mode::Train);
        let (_, g) = nilm_tensor::loss::cross_entropy(&logits, &[1, 0]);
        let gx = net.backward(&g);
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.all_finite());
        // Parameter grads must be non-trivially populated.
        let mut total = 0.0;
        net.visit_params(&mut |p| total += p.grad.norm());
        assert!(total > 0.0);
    }

    #[test]
    fn scaled_config_shrinks_params() {
        let mut r = rng(6);
        let mut big = ResNet::new(&mut r, ResNetConfig::paper(7));
        let mut small = ResNet::new(&mut r, ResNetConfig::scaled(7, 8));
        assert!(small.num_params() < big.num_params() / 10);
    }
}
