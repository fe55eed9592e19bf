//! TransApp-style attention detector (Petralia et al., the CamAL authors'
//! companion architecture for appliance detection, see PAPERS.md "ADF &
//! TransApp"): a convolutional embedding downsamples the window, sinusoidal
//! positions are added, transformer encoder blocks mix information globally,
//! and a GAP → linear head classifies appliance presence.
//!
//! Localization comes from **attention rollout** instead of a conv CAM: the
//! head-averaged attention maps of every encoder block (retained even under
//! [`Mode::Infer`] — they are forward products, not backward caches) are
//! composed as `R = Π_l (A_l + I)/2`, and the column mean of `R` scores how
//! much each downsampled position feeds the final representation. Upsampled
//! to the window length and multiplied with the classic GAP-head CAM of the
//! decoder features, this yields a class-specific per-timestep map with the
//! same contract as [`Detector::cam`], so the attention-sigmoid module,
//! duration priors, and §IV-C power estimation run unchanged downstream.

use crate::detector::{cached_cam, Detector, DetectorOutput};
use crate::unet_util::{match_len, match_len_backward};
use nilm_tensor::prelude::*;
use rand::Rng;

/// Architecture hyper-parameters of one TransApp detector — exactly the
/// fields of [`crate::detector::BackboneSpec::TransApp`].
#[derive(Clone, Copy, Debug)]
pub struct TransAppConfig {
    /// Embedding/model width (must be divisible by `heads`).
    pub d_model: usize,
    /// Attention heads per encoder block.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Number of transformer encoder blocks.
    pub layers: usize,
    /// Temporal downsampling before attention (keeps O(t²) in check).
    pub downsample: usize,
}

impl TransAppConfig {
    /// Full-scale configuration.
    pub fn paper() -> Self {
        TransAppConfig { d_model: 128, heads: 8, d_ff: 256, layers: 3, downsample: 4 }
    }

    /// Width-reduced configuration for laptop-scale experiments.
    pub fn scaled(div: usize) -> Self {
        let d = div.max(1);
        TransAppConfig {
            d_model: (128 / d).max(8),
            heads: 2,
            d_ff: (256 / d).max(16),
            layers: 2,
            downsample: 4,
        }
    }
}

/// The TransApp detector: conv embedding + transformer encoder + GAP/linear
/// head, with attention-rollout localization.
pub struct TransApp {
    cfg: TransAppConfig,
    embed: Sequential,
    pe: PositionalEncoding,
    blocks: Vec<TransformerEncoderLayer>,
    up: Upsample1d,
    gap: GlobalAvgPool1d,
    head: Linear,
    up_len: usize,
    /// Decoder features and attention rollout cached for [`Detector::cam`].
    last: Option<DetectorOutput>,
}

impl TransApp {
    /// Builds a TransApp detector for univariate input.
    pub fn new(rng: &mut impl Rng, cfg: TransAppConfig) -> Self {
        assert!(
            cfg.heads > 0 && cfg.d_model % cfg.heads == 0,
            "d_model {} not divisible by heads {}",
            cfg.d_model,
            cfg.heads
        );
        assert!(cfg.layers > 0, "TransApp needs at least one encoder block");
        let embed = Sequential::new()
            .push(Conv1d::new(rng, 1, cfg.d_model, 3, Padding::Same))
            .push(ReLU::default())
            .push(MaxPool1d::new(cfg.downsample.max(1)));
        let blocks: Vec<TransformerEncoderLayer> = (0..cfg.layers)
            .map(|_| {
                let mut block = TransformerEncoderLayer::new(rng, cfg.d_model, cfg.heads, cfg.d_ff);
                // Rollout needs the attention maps of every forward pass,
                // serving included.
                block.set_retain_attention(true);
                block
            })
            .collect();
        TransApp {
            cfg,
            embed,
            pe: PositionalEncoding,
            blocks,
            up: Upsample1d::new(cfg.downsample.max(1), UpsampleMode::Linear),
            gap: GlobalAvgPool1d::default(),
            head: Linear::new(rng, cfg.d_model, 2),
            up_len: 0,
            last: None,
        }
    }

    /// Configuration used to build this network.
    pub fn config(&self) -> &TransAppConfig {
        &self.cfg
    }

    /// Composes the blocks' head-averaged attention maps (`maps[block]
    /// [item]`, each `[td, td]`) into the per-timestep rollout map `[b, t]`
    /// (window length `t`, downsampled length `td`).
    fn rollout(&self, maps: &[&[Tensor]], b: usize, t: usize, td: usize) -> Tensor {
        let mut out = Tensor::zeros(&[b, t]);
        for bi in 0..b {
            // R starts as the identity; each block contributes (A + I)/2,
            // the residual-aware form of attention rollout.
            let mut r = Tensor::zeros(&[td, td]);
            for i in 0..td {
                *r.at2_mut(i, i) = 1.0;
            }
            for block_maps in maps {
                let a = &block_maps[bi];
                let mut mixed = Tensor::zeros(&[td, td]);
                for i in 0..td {
                    for j in 0..td {
                        *mixed.at2_mut(i, j) = 0.5 * a.at2(i, j) + if i == j { 0.5 } else { 0.0 };
                    }
                }
                r = mixed.matmul(&r);
            }
            // Column mean: how much each source position feeds the final
            // representations, i.e. the localization mass it receives.
            let inv = 1.0 / td as f32;
            let row = &mut out.data_mut()[bi * t..(bi + 1) * t];
            for (ti, o) in row.iter_mut().enumerate() {
                let j = (ti / self.cfg.downsample.max(1)).min(td - 1);
                let col_sum: f32 = (0..td).map(|i| r.at2(i, j)).sum();
                *o = col_sum * inv;
            }
        }
        out
    }
}

impl TransApp {
    /// Panics on windows the downsampling would empty.
    fn check_len(&self, t: usize) {
        assert!(
            t >= self.cfg.downsample.max(1),
            "window length {t} shorter than the downsample factor {}",
            self.cfg.downsample
        );
    }
}

impl Detector for TransApp {
    fn infer_features(&self, x: &Tensor) -> DetectorOutput {
        let (b, _, t) = x.dims3();
        self.check_len(t);
        let mut h = self.pe.infer(&self.embed.infer(x));
        let mut maps = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (out, block_maps) = block.infer_with_attention(&h);
            h = out;
            maps.push(block_maps);
        }
        let td = h.dims3().2;
        let features = match_len(&self.up.infer(&h), t);
        let logits = self.head.infer(&self.gap.infer(&features));
        let maps: Vec<&[Tensor]> = maps.iter().map(Vec::as_slice).collect();
        let rollout = Some(self.rollout(&maps, b, t, td));
        DetectorOutput { features, logits, rollout }
    }

    fn forward_features(&mut self, x: &Tensor, mode: Mode) -> (Tensor, Tensor) {
        let (b, _, t) = x.dims3();
        self.check_len(t);
        let mut h = self.embed.forward(x, mode);
        h = self.pe.forward(&h, mode);
        for block in &mut self.blocks {
            h = block.forward(&h, mode);
        }
        let td = h.dims3().2;
        let up = self.up.forward(&h, mode);
        self.up_len = up.dims3().2;
        let features = match_len(&up, t);
        let pooled = self.gap.forward(&features, mode);
        let logits = self.head.forward(&pooled, mode);
        let maps: Vec<&[Tensor]> = self.blocks.iter().map(|b| b.retained_attention()).collect();
        let rollout = Some(self.rollout(&maps, b, t, td));
        let pair = (features.clone(), logits.clone());
        self.last = Some(DetectorOutput { features, logits, rollout });
        pair
    }

    fn cam(&self, class: usize) -> Tensor {
        cached_cam(&self.last, self.head.weight(), class)
    }

    fn head_weights(&self) -> &Tensor {
        self.head.weight()
    }
}

impl Layer for TransApp {
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
        let g = match_len_backward(&g, self.up_len);
        let mut g = self.up.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(&g);
        }
        let g = self.pe.backward(&g);
        self.embed.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.embed.visit_state(f);
        for block in &mut self.blocks {
            block.visit_state(f);
        }
        self.head.visit_state(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilm_tensor::init::{randn_tensor, rng};
    use nilm_tensor::loss::cross_entropy;

    fn tiny() -> TransAppConfig {
        TransAppConfig { d_model: 8, heads: 2, d_ff: 16, layers: 2, downsample: 4 }
    }

    #[test]
    fn forward_shapes_and_cam() {
        let mut r = rng(0);
        let mut net = TransApp::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[3, 1, 32], 1.0);
        let (features, logits) = net.forward_features(&x, Mode::Eval);
        assert_eq!(features.shape(), &[3, 8, 32]);
        assert_eq!(logits.shape(), &[3, 2]);
        let cam = net.cam(1);
        assert_eq!(cam.shape(), &[3, 32]);
        assert!(cam.all_finite());
    }

    #[test]
    fn non_multiple_window_length_survives() {
        let mut r = rng(1);
        let mut net = TransApp::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[1, 1, 34], 1.0);
        let (features, logits) = net.forward_features(&x, Mode::Eval);
        assert_eq!(features.shape(), &[1, 8, 34]);
        assert_eq!(logits.shape(), &[1, 2]);
        assert_eq!(net.cam(1).shape(), &[1, 34]);
    }

    #[test]
    fn infer_forward_is_bit_identical_to_eval_and_cam_still_works() {
        // The serving path runs `Mode::Infer`; the attention rollout must
        // survive the cache-skipping mode and logits must not move a bit.
        let mut r = rng(2);
        let mut net = TransApp::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[2, 1, 32], 1.0);
        let (_, le) = net.forward_features(&x, Mode::Eval);
        let cam_eval = net.cam(1);
        let (_, li) = net.forward_features(&x, Mode::Infer);
        let cam_infer = net.cam(1);
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&le), bits(&li), "logits diverged between Eval and Infer");
        assert_eq!(bits(&cam_eval), bits(&cam_infer), "rollout CAM diverged under Infer");
    }

    #[test]
    fn rollout_modulates_the_gap_cam() {
        // The attention factor must actually participate: zeroing the
        // retained rollout (by scaling the cached map) changes the CAM.
        let mut r = rng(3);
        let mut net = TransApp::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[1, 1, 32], 1.0);
        let _ = net.forward_features(&x, Mode::Eval);
        let cam = net.cam(1);
        let last = net.last.as_mut().unwrap();
        let rollout = last.rollout.as_ref().unwrap();
        assert!(rollout.data().iter().all(|&v| v > 0.0), "rollout mass must be positive");
        last.rollout = Some(Tensor::full(&[1, 32], 1.0));
        let cam_flat = net.cam(1);
        assert_ne!(
            cam.data(),
            cam_flat.data(),
            "rollout map had no effect on the localization map"
        );
    }

    #[test]
    fn backward_trains_and_produces_finite_grads() {
        let mut r = rng(4);
        let mut net = TransApp::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[2, 1, 32], 1.0);
        let logits = net.forward(&x, Mode::Train);
        let (_, g) = cross_entropy(&logits, &[1, 0]);
        let gx = net.backward(&g);
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.all_finite());
        let mut total = 0.0;
        net.visit_params(&mut |p| total += p.grad.norm());
        assert!(total > 0.0, "no parameter gradient flowed");
    }

    #[test]
    fn state_roundtrip_is_bit_identical() {
        let mut r = rng(5);
        let mut a = TransApp::new(&mut r, tiny());
        let mut b = TransApp::new(&mut r, tiny());
        let blob = a.save_state();
        b.load_state(&blob).expect("same architecture must load");
        let x = randn_tensor(&mut r, &[1, 1, 32], 1.0);
        let (_, la) = a.forward_features(&x, Mode::Infer);
        let (_, lb) = b.forward_features(&x, Mode::Infer);
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&la), bits(&lb));
        assert_eq!(bits(&a.cam(1)), bits(&b.cam(1)));
    }

    #[test]
    fn scaled_config_shrinks_params() {
        let mut r = rng(6);
        let mut big = TransApp::new(&mut r, TransAppConfig::paper());
        let mut small = TransApp::new(&mut r, TransAppConfig::scaled(8));
        assert!(small.num_params() < big.num_params() / 4);
    }
}
