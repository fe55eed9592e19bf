//! # camal
//!
//! Rust implementation of **CamAL** (Class Activation Map based Appliance
//! Localization), the weakly supervised NILM framework of Petralia et al.,
//! ICDE 2025. CamAL trains an ensemble of convolutional ResNet classifiers
//! on *weak* labels (one label per window — or one possession answer per
//! household), then localizes appliance activations by averaging the
//! ensemble's Class Activation Maps and applying them as an attention mask
//! over the input.
//!
//! Pipeline (paper Fig. 3):
//! 1. [`ensemble`] — Algorithm 1: train `|K_p| × trials` ResNet candidates,
//!    keep the `n` best by validation loss.
//! 2. [`localize`] — extract/normalize/average CAMs, attention-sigmoid.
//! 3. [`power`] — binary status → per-appliance power, clipped by the
//!    aggregate.
//!
//! Serving layers on top of the pipeline: [`persist`] checkpoints a trained
//! model, [`stream`] localizes one appliance over arbitrary-length household
//! feeds, [`registry`] holds the per-`(dataset, appliance)` checkpoint zoo,
//! and [`fleet`] fans every registered detector over shared preprocessed
//! feeds — the multi-appliance scale-out ([`stream::serve`] is its N=1
//! case).
//!
//! ## Example
//!
//! ```no_run
//! use camal::{CamalConfig, CamalModel};
//! use nilm_data::prelude::*;
//!
//! let ds = generate_dataset(&refit(), ScaleOverride::default(), 1);
//! let case = prepare_case(&ds, ApplianceKind::Kettle, 510, &SplitConfig::default());
//! let mut model = CamalModel::train(&CamalConfig::small(), &case.train, &case.val, 4);
//! let report = model.evaluate(&case.test, 2000.0, 16);
//! println!("localization F1 = {:.3}", report.localization.f1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod postprocess;

pub mod ensemble;
pub mod fleet;
pub mod localize;
pub mod model;
pub mod persist;
pub mod power;
pub mod registry;
pub mod stream;
#[cfg(test)]
pub(crate) mod test_support;

pub use config::{CamalConfig, DEFAULT_KERNELS};
pub use ensemble::{train_ensemble, EnsembleMember, EnsembleStats};
pub use fleet::{serve_fleet, FleetConfig, FleetError, FleetResult, FleetSummary};
pub use model::{report_from_status, CamalModel, CaseReport, Localization};
pub use power::estimate_power;
pub use registry::{ModelKey, ModelRegistry, RegistryError, RegistryStats};
pub use stream::{serve, HouseholdSeries, HouseholdTimeline, StreamConfig};
