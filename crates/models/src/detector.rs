//! The [`Detector`] abstraction: a binary time-series classifier whose
//! architecture ends in global average pooling followed by a linear head —
//! exactly the shape that makes Class Activation Maps available
//! (Definition II.1). CamAL's ensemble is generic over this trait, which
//! lets the backbone ablation swap the paper's ResNet for InceptionTime.

use crate::inception::{InceptionConfig, InceptionTime};
use crate::resnet::{ResNet, ResNetConfig};
use crate::transapp::{TransApp, TransAppConfig};
use nilm_tensor::layer::{Layer, Mode};
use nilm_tensor::tensor::Tensor;
use rand::Rng;

/// What one detector forward produces: the trunk features the CAM is read
/// from, the class logits, and — for attention detectors — the rollout map
/// that modulates the CAM.
#[derive(Clone, Debug)]
pub struct DetectorOutput {
    /// Trunk features `[b, channels, t]` right before global average
    /// pooling.
    pub features: Tensor,
    /// Class logits `[b, num_classes]`.
    pub logits: Tensor,
    /// Attention-rollout map `[b, t]` ([`crate::transapp::TransApp`]);
    /// `None` for convolutional detectors.
    pub rollout: Option<Tensor>,
}

impl DetectorOutput {
    /// Class Activation Map `[b, t]` for `class`:
    /// [`cam_from_features`] with the detector's head weights, times the
    /// rollout map when there is one.
    pub fn cam(&self, head_weights: &Tensor, class: usize) -> Tensor {
        let mut cam = cam_from_features(&self.features, head_weights, class);
        if let Some(rollout) = &self.rollout {
            cam.data_mut().iter_mut().zip(rollout.data()).for_each(|(c, &r)| *c *= r);
        }
        cam
    }
}

/// A CAM-capable classifier: conv trunk → GAP → linear.
///
/// Two ways in. [`Detector::infer_features`] takes `&self` and returns
/// everything a localization needs, so one detector can serve several
/// threads at once. [`Detector::forward_features`] is the stateful forward
/// of training (and of layer-by-layer replays): it caches what `backward`
/// needs plus the output [`Detector::cam`] reads. Under [`Mode::Infer`]
/// every layer it runs computes through its own [`Layer::infer`], so the
/// two ways agree bit for bit.
pub trait Detector: Layer {
    /// Stateless inference: features, logits and (TransApp) rollout,
    /// bit-identical to a [`Mode::Infer`] `forward_features`.
    fn infer_features(&self, x: &Tensor) -> DetectorOutput;

    /// Runs the trunk and returns `(features, logits)`, caching the output
    /// for [`Detector::cam`].
    fn forward_features(&mut self, x: &Tensor, mode: Mode) -> (Tensor, Tensor);

    /// Class Activation Map `[b, t]` for `class`, from the output cached by
    /// the last [`Detector::forward_features`].
    fn cam(&self, class: usize) -> Tensor;

    /// The classifier-head weight matrix `[num_classes, channels]`.
    fn head_weights(&self) -> &Tensor;

    /// Class probabilities `[b, num_classes]` via softmax over the
    /// stateless [`Detector::infer_features`] logits.
    fn predict_proba(&self, x: &Tensor) -> Tensor {
        nilm_tensor::activation::softmax_rows(&self.infer_features(x).logits)
    }
}

/// The cached output behind every detector's [`Detector::cam`].
pub(crate) fn cached_cam(last: &Option<DetectorOutput>, head: &Tensor, class: usize) -> Tensor {
    last.as_ref().expect("cam() requires a prior forward_features call").cam(head, class)
}

/// The detector *family* used when CamAL expands its kernel grid into
/// candidates (the paper's §IV-A backbone ablation swaps this). Per-member
/// architecture is fully described by a [`BackboneSpec`]; `Backbone` only
/// names which family a `kernel` sweep instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backbone {
    /// The paper's choice (Fig. 4).
    ResNet,
    /// Multi-scale InceptionTime (paper §IV-A discusses it as the deeper
    /// general-purpose alternative) — used by the backbone ablation.
    InceptionTime,
}

/// The complete, serializable architecture of one ensemble member.
///
/// Unlike the `(Backbone, kernel)` pair this replaced, a spec carries the
/// full hyper-parameter set of its family, so members with genuinely
/// different spaces (convolutional kernel/width vs transformer
/// `d_model`/heads/layers) can coexist in one ensemble, one checkpoint,
/// and one serving zoo.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackboneSpec {
    /// The paper's residual conv net at kernel k_p, channels divided by
    /// `width_div` (1 = paper scale `[64, 128, 128]`).
    ResNet {
        /// First-conv kernel size k_p.
        kernel: usize,
        /// Channel-width divisor (1 = paper scale).
        width_div: usize,
    },
    /// Multi-scale InceptionTime with branch kernels `{k, 2k+1, 4k+1}`.
    InceptionTime {
        /// Base branch kernel k (expanded to the multi-scale set).
        kernel: usize,
        /// Filter-width divisor (1 = paper scale).
        width_div: usize,
    },
    /// TransApp-style attention detector: conv embedding + transformer
    /// encoder, localized via attention rollout (see
    /// [`crate::transapp::TransApp`]).
    TransApp {
        /// Embedding/model width (must be divisible by `heads`).
        d_model: usize,
        /// Attention heads per encoder block.
        heads: usize,
        /// Feed-forward hidden width.
        d_ff: usize,
        /// Number of transformer encoder blocks.
        layers: usize,
        /// Temporal downsampling before attention (keeps O(t²) in check).
        downsample: usize,
    },
}

impl BackboneSpec {
    /// The spec a `(family, kernel, width_div)` grid point denotes — the
    /// bridge from CamAL's historical kernel sweep to the spec world.
    pub fn from_kernel(backbone: Backbone, kernel: usize, width_div: usize) -> Self {
        match backbone {
            Backbone::ResNet => BackboneSpec::ResNet { kernel, width_div },
            Backbone::InceptionTime => BackboneSpec::InceptionTime { kernel, width_div },
        }
    }

    /// Short family name (`"resnet"`, `"inception"`, `"transapp"`), used by
    /// registry manifests and the gateway's `/v1/models` rows.
    pub fn family(&self) -> &'static str {
        match self {
            BackboneSpec::ResNet { .. } => "resnet",
            BackboneSpec::InceptionTime { .. } => "inception",
            BackboneSpec::TransApp { .. } => "transapp",
        }
    }

    /// A compact human-readable description of the full spec, e.g.
    /// `resnet(k5/div16)` or `transapp(d16xh2,ff32,l1,ds4)`.
    pub fn describe(&self) -> String {
        match *self {
            BackboneSpec::ResNet { kernel, width_div } => {
                format!("resnet(k{kernel}/div{width_div})")
            }
            BackboneSpec::InceptionTime { kernel, width_div } => {
                format!("inception(k{kernel}/div{width_div})")
            }
            BackboneSpec::TransApp { d_model, heads, d_ff, layers, downsample } => {
                format!("transapp(d{d_model}xh{heads},ff{d_ff},l{layers},ds{downsample})")
            }
        }
    }

    /// The conv kernel of convolutional specs (`None` for TransApp, whose
    /// hyper-parameter space has no k_p axis).
    pub fn kernel(&self) -> Option<usize> {
        match *self {
            BackboneSpec::ResNet { kernel, .. } | BackboneSpec::InceptionTime { kernel, .. } => {
                Some(kernel)
            }
            BackboneSpec::TransApp { .. } => None,
        }
    }
}

/// Builds a detector from its full architecture spec (the constructor used
/// by ensemble training *and* checkpoint loading, so both sides agree on
/// layer shapes). For ResNet, `kernel` is k_p; for InceptionTime it seeds
/// the multi-scale kernel set `{k, 2k+1, 4k+1}`, preserving CamAL's
/// receptive-field diversity; TransApp ignores the kernel axis entirely.
pub fn build_from_spec(rng: &mut impl Rng, spec: BackboneSpec) -> Box<dyn Detector> {
    match spec {
        BackboneSpec::ResNet { kernel, width_div } => {
            let cfg = if width_div <= 1 {
                ResNetConfig::paper(kernel)
            } else {
                ResNetConfig::scaled(kernel, width_div)
            };
            Box::new(ResNet::new(rng, cfg))
        }
        BackboneSpec::InceptionTime { kernel, width_div } => {
            let mut cfg = if width_div <= 1 {
                InceptionConfig::paper()
            } else {
                InceptionConfig::scaled(width_div)
            };
            cfg.kernels = [kernel, 2 * kernel + 1, 4 * kernel + 1];
            Box::new(InceptionTime::new(rng, cfg))
        }
        BackboneSpec::TransApp { d_model, heads, d_ff, layers, downsample } => {
            let cfg = TransAppConfig { d_model, heads, d_ff, layers, downsample };
            Box::new(TransApp::new(rng, cfg))
        }
    }
}

/// Computes a CAM from cached features and head weights (shared by all
/// GAP-linear detectors): `CAM_c(t) = Σ_k w_ck f_k(t)`.
pub fn cam_from_features(features: &Tensor, head_weights: &Tensor, class: usize) -> Tensor {
    let (b, c, t) = features.dims3();
    assert!(class < head_weights.dims2().0, "class {class} out of range");
    assert_eq!(head_weights.dims2().1, c, "head width mismatch");
    let mut out = Tensor::zeros(&[b, t]);
    for bi in 0..b {
        for ci in 0..c {
            let wv = head_weights.at2(class, ci);
            if wv == 0.0 {
                continue;
            }
            let row = features.row(bi, ci);
            let or = &mut out.data_mut()[bi * t..(bi + 1) * t];
            for (o, &f) in or.iter_mut().zip(row) {
                *o += wv * f;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilm_tensor::init::{randn_tensor, rng};

    #[test]
    fn all_backbones_build_and_expose_cams() {
        let mut r = rng(0);
        let x = randn_tensor(&mut r, &[1, 1, 32], 1.0);
        let specs = [
            BackboneSpec::ResNet { kernel: 5, width_div: 16 },
            BackboneSpec::InceptionTime { kernel: 5, width_div: 16 },
            BackboneSpec::TransApp { d_model: 8, heads: 2, d_ff: 16, layers: 1, downsample: 4 },
        ];
        for spec in specs {
            let mut det = build_from_spec(&mut r, spec);
            let (features, logits) = det.forward_features(&x, Mode::Eval);
            assert_eq!(logits.shape(), &[1, 2], "{spec:?}");
            assert_eq!(features.dims3().2, 32, "{spec:?}");
            let cam = det.cam(1);
            assert_eq!(cam.shape(), &[1, 32], "{spec:?}");
            let p = det.predict_proba(&x);
            assert!((p.at2(0, 0) + p.at2(0, 1) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn stateless_inference_matches_the_infer_forward_bit_for_bit() {
        // The serving path (`infer_features` + `DetectorOutput::cam`) must
        // give exactly the probabilities and CAMs of the stateful
        // `forward_features(.., Infer)` + `cam(1)` for every backbone.
        let mut r = rng(11);
        let x = randn_tensor(&mut r, &[3, 1, 32], 1.0);
        let specs = [
            BackboneSpec::ResNet { kernel: 5, width_div: 16 },
            BackboneSpec::InceptionTime { kernel: 3, width_div: 16 },
            BackboneSpec::TransApp { d_model: 8, heads: 2, d_ff: 16, layers: 2, downsample: 4 },
        ];
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        for spec in specs {
            let mut det = build_from_spec(&mut r, spec);
            let shared = det.infer_features(&x);
            let (features, logits) = det.forward_features(&x, Mode::Infer);
            assert_eq!(bits(&shared.features), bits(&features), "{spec:?} features");
            assert_eq!(bits(&shared.logits), bits(&logits), "{spec:?} logits");
            let proba = nilm_tensor::activation::softmax_rows(&logits);
            assert_eq!(bits(&det.predict_proba(&x)), bits(&proba), "{spec:?} probabilities");
            assert_eq!(bits(&shared.cam(det.head_weights(), 1)), bits(&det.cam(1)), "{spec:?} CAM");
            // Eval computes the same numbers through the caching layers.
            let (_, eval_logits) = det.forward_features(&x, Mode::Eval);
            assert_eq!(bits(&eval_logits), bits(&logits), "{spec:?} eval logits");
            assert_eq!(bits(&det.cam(1)), bits(&shared.cam(det.head_weights(), 1)));
        }
    }

    #[test]
    fn spec_descriptions_and_kernel_axis() {
        let r5 = BackboneSpec::from_kernel(Backbone::ResNet, 5, 16);
        assert_eq!(r5, BackboneSpec::ResNet { kernel: 5, width_div: 16 });
        assert_eq!(r5.family(), "resnet");
        assert_eq!(r5.kernel(), Some(5));
        assert_eq!(r5.describe(), "resnet(k5/div16)");
        let i7 = BackboneSpec::from_kernel(Backbone::InceptionTime, 7, 1);
        assert_eq!(i7.family(), "inception");
        assert_eq!(i7.kernel(), Some(7));
        let ta =
            BackboneSpec::TransApp { d_model: 16, heads: 2, d_ff: 32, layers: 1, downsample: 4 };
        assert_eq!(ta.family(), "transapp");
        assert_eq!(ta.kernel(), None);
        assert_eq!(ta.describe(), "transapp(d16xh2,ff32,l1,ds4)");
    }

    #[test]
    fn cam_from_features_is_weighted_sum() {
        // features: 2 channels over 3 timesteps; w[1] = [2, -1].
        let features = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 2, 3]);
        let w = Tensor::from_vec(vec![0.0, 0.0, 2.0, -1.0], &[2, 2]);
        let cam = cam_from_features(&features, &w, 1);
        assert_eq!(cam.data(), &[2.0 - 4.0, 4.0 - 5.0, 6.0 - 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cam_rejects_bad_class() {
        let features = Tensor::zeros(&[1, 2, 3]);
        let w = Tensor::zeros(&[2, 2]);
        let _ = cam_from_features(&features, &w, 5);
    }
}
