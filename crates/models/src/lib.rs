//! # nilm-models
//!
//! The NILM model zoo of the CamAL paper: the CamAL [`resnet::ResNet`]
//! detector (with CAM support), and the six comparison baselines of §V-C —
//! CRNN (strong and weak/MIL), BiGRU, UNet-NILM, TPNILM and TransNILM — all
//! producing per-timestep activation logits on `[batch, 1, time]` input,
//! plus the shared training loops (strong, weak-MIL, and soft-label).
//!
//! ## Example
//!
//! Build an (untrained) CAM-capable detector and pull a Class Activation Map
//! out of it — the core mechanism CamAL's localization relies on:
//!
//! ```
//! use nilm_models::{build_from_spec, BackboneSpec};
//! use nilm_tensor::layer::Mode;
//! use nilm_tensor::tensor::Tensor;
//!
//! let mut rng = nilm_tensor::init::rng(0);
//! let spec = BackboneSpec::ResNet { kernel: 5, width_div: 16 };
//! let mut detector = build_from_spec(&mut rng, spec);
//! let x = Tensor::zeros(&[2, 1, 64]); // [batch, channels, time]
//! let (_features, logits) = detector.forward_features(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[2, 2]);
//! // CAM for the "appliance on" class, one score per timestep.
//! assert_eq!(detector.cam(1).shape(), &[2, 64]);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod bigru;
pub mod co;
pub mod crnn;
pub mod detector;
pub mod inception;
pub mod resnet;
pub mod tpnilm;
pub mod train;
pub mod transapp;
pub mod transnilm;
pub mod unet;
pub(crate) mod unet_util;

pub use baselines::BaselineKind;
pub use co::{CoDisaggregator, LibraryEntry};
pub use detector::{
    build_from_spec, cam_from_features, Backbone, BackboneSpec, Detector, DetectorOutput,
};
pub use inception::{InceptionConfig, InceptionTime};
pub use resnet::{ResNet, ResNetConfig};
pub use train::{
    predict_proba_frames, proba_to_status, train_soft, train_strong, train_weak_mil, TrainConfig,
    TrainStats,
};
pub use transapp::{TransApp, TransAppConfig};
