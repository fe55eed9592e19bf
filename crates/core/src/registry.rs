//! Model registry: the checkpoint zoo of a multi-appliance deployment.
//!
//! A utility running CamAL at fleet scale holds one trained detector per
//! `(dataset template, appliance)` pair — the `refit:kettle` model, the
//! `ukdale:dishwasher` model, and so on. [`ModelRegistry`] owns that zoo:
//! models can be inserted directly after training (pinned in memory) or
//! registered as checkpoint files (loaded lazily on first use via
//! [`crate::persist`]), and a bounded registry evicts the least-recently-used
//! reloadable model when the resident count exceeds its budget. The
//! [`ModelRegistry::manifest`] listing is what a serving process reports to
//! operators, and [`ModelRegistry::stats`] counts hits / loads / evictions
//! plus load failures and quarantines.
//!
//! Checkpoints that repeatedly fail to load are **quarantined**: after
//! [`QuarantinePolicy::threshold`] consecutive failures the registry stops
//! touching the file for an exponentially growing backoff window and lookups
//! fail fast with [`RegistryError::Quarantined`] (which carries a
//! `retry_after` hint). A successful load after the window expires clears
//! the quarantine, so a checkpoint that is repaired on disk heals without a
//! restart.
//!
//! Resident models are held as `Arc<CamalModel>`: the registry is the model
//! source of the [`crate::fleet`] scheduler, whose worker shards all borrow
//! the same copy of each model (inference takes `&self`), and a fleet pass
//! keeps its `Arc`s alive even if the LRU budget evicts a model mid-pass.

use crate::model::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::templates::DatasetId;
use nilm_tensor::serialize::SerializeError;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identity of one deployed detector: the dataset template it was trained on
/// and the appliance it detects.
///
/// ```
/// use camal::registry::ModelKey;
/// use nilm_data::prelude::*;
///
/// let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
/// assert_eq!(key.label(), "refit:kettle");
/// assert_eq!(key.file_name(), "refit_kettle.ckpt");
/// assert_eq!(ModelKey::from_file_name(&key.file_name()), Some(key));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelKey {
    /// Dataset template the model was trained on (fixes ∆t and Table I
    /// thresholds).
    pub dataset: DatasetId,
    /// Appliance the model detects and localizes.
    pub appliance: ApplianceKind,
}

impl ModelKey {
    /// Builds a key.
    pub fn new(dataset: DatasetId, appliance: ApplianceKind) -> Self {
        ModelKey { dataset, appliance }
    }

    /// `dataset:appliance` display label (matches the evaluation cases).
    pub fn label(&self) -> String {
        format!("{}:{}", self.dataset.name(), self.appliance.name())
    }

    /// Canonical checkpoint file name, `<dataset>_<appliance>.ckpt`.
    pub fn file_name(&self) -> String {
        format!("{}_{}.ckpt", self.dataset.name(), self.appliance.name())
    }

    /// Parses a [`ModelKey::file_name`]-shaped name back into a key.
    /// Appliance names never contain `_`, so the split is unambiguous even
    /// for `edf_ev` / `edf_weak` datasets.
    pub fn from_file_name(name: &str) -> Option<Self> {
        let stem = name.strip_suffix(".ckpt")?;
        let (dataset, appliance) = stem.rsplit_once('_')?;
        Some(ModelKey {
            dataset: DatasetId::from_name(dataset)?,
            appliance: ApplianceKind::from_name(appliance)?,
        })
    }

    /// Parses a [`ModelKey::label`]-shaped `dataset:appliance` string back
    /// into a key — the wire format the network gateway accepts.
    ///
    /// ```
    /// use camal::registry::ModelKey;
    /// use nilm_data::prelude::*;
    ///
    /// let key = ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher);
    /// assert_eq!(ModelKey::from_label(&key.label()), Some(key));
    /// assert_eq!(ModelKey::from_label("mars:kettle"), None);
    /// assert_eq!(ModelKey::from_label("refit"), None);
    /// ```
    pub fn from_label(label: &str) -> Option<Self> {
        let (dataset, appliance) = label.split_once(':')?;
        Some(ModelKey {
            dataset: DatasetId::from_name(dataset)?,
            appliance: ApplianceKind::from_name(appliance)?,
        })
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Why a registry lookup failed.
#[derive(Debug)]
pub enum RegistryError {
    /// The key was never registered.
    Unknown(ModelKey),
    /// The backing checkpoint file could not be loaded.
    Load {
        /// Key whose load failed.
        key: ModelKey,
        /// Checkpoint path that was read.
        path: PathBuf,
        /// The underlying checkpoint error.
        source: SerializeError,
    },
    /// The backing checkpoint failed to load too many times in a row and is
    /// inside its quarantine backoff window; the file was not touched.
    Quarantined {
        /// Key whose checkpoint is quarantined.
        key: ModelKey,
        /// The quarantined checkpoint path.
        path: PathBuf,
        /// Time remaining until the registry will retry the load.
        retry_after: Duration,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Unknown(key) => write!(f, "model {key} is not registered"),
            RegistryError::Load { key, path, source } => {
                write!(f, "cannot load model {key} from {}: {source}", path.display())
            }
            RegistryError::Quarantined { key, path, retry_after } => write!(
                f,
                "model {key} ({}) is quarantined after repeated load failures; retry in {:.1}s",
                path.display(),
                retry_after.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Unknown(_) | RegistryError::Quarantined { .. } => None,
            RegistryError::Load { source, .. } => Some(source),
        }
    }
}

/// When and for how long the registry quarantines a failing checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Consecutive load failures before the first quarantine window opens.
    pub threshold: u32,
    /// Length of the first quarantine window; doubles with every further
    /// failure past the threshold.
    pub base_backoff: Duration,
    /// Upper bound on the backoff window.
    pub max_backoff: Duration,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 3,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(30),
        }
    }
}

impl QuarantinePolicy {
    /// Backoff window after `failures` consecutive failures (≥ threshold):
    /// `base_backoff * 2^(failures - threshold)`, capped at `max_backoff`.
    fn backoff(&self, failures: u32) -> Duration {
        let exp = failures.saturating_sub(self.threshold).min(16);
        let window = self.base_backoff.saturating_mul(1u32 << exp);
        window.min(self.max_backoff)
    }
}

/// Access counters of a registry (monotonic over its lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// `get_mut` calls served by an already-resident model.
    pub hits: u64,
    /// Checkpoint loads performed (first access or reload after eviction).
    pub loads: u64,
    /// Models dropped from memory by the LRU budget.
    pub evictions: u64,
    /// Checkpoint loads that failed (missing, torn or corrupt file).
    pub load_failures: u64,
    /// Quarantine windows opened by consecutive load failures.
    pub quarantines: u64,
}

/// One row of [`ModelRegistry::manifest`].
#[derive(Clone, Debug)]
pub struct ManifestEntry {
    /// The model's identity.
    pub key: ModelKey,
    /// Whether the model is currently resident in memory.
    pub loaded: bool,
    /// Backing checkpoint file, if the entry is reloadable.
    pub path: Option<PathBuf>,
    /// Training window length (0 until the model has been loaded once).
    pub window: usize,
    /// Ensemble size (0 until the model has been loaded once).
    pub ensemble_size: usize,
    /// Per-member backbone descriptions, e.g. `resnet(k5/div8)` (empty
    /// until the model has been loaded once).
    pub backbones: Vec<String>,
    /// Per-member trainable-parameter counts, aligned with `backbones`
    /// (empty until the model has been loaded once).
    pub param_counts: Vec<usize>,
}

struct Slot {
    /// Backing checkpoint; `None` for pinned in-memory models, which are
    /// never evicted.
    path: Option<PathBuf>,
    /// The resident model (`None` = registered but not loaded / evicted).
    model: Option<Arc<CamalModel>>,
    /// LRU clock value of the last access.
    last_used: u64,
    /// Metadata cached at insert/first-load time for the manifest.
    window: usize,
    ensemble_size: usize,
    backbones: Vec<String>,
    param_counts: Vec<usize>,
    /// Consecutive checkpoint load failures (reset on success).
    failures: u32,
    /// End of the current quarantine window, if one is open.
    quarantined_until: Option<Instant>,
}

/// Holds the per-appliance detector zoo of a serving process.
///
/// ```
/// use camal::ensemble::EnsembleMember;
/// use camal::registry::{ModelKey, ModelRegistry};
/// use camal::{CamalConfig, CamalModel};
/// use nilm_data::prelude::*;
/// use nilm_models::{build_from_spec, BackboneSpec};
///
/// // A tiny untrained single-member model stands in for a trained one.
/// let cfg = CamalConfig { n_ensemble: 1, kernels: vec![5], width_div: 16, ..Default::default() };
/// let mut rng = nilm_tensor::init::rng(7);
/// let spec = BackboneSpec::ResNet { kernel: 5, width_div: 16 };
/// let member = EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.1 };
/// let mut model = CamalModel::from_members(cfg, vec![member]);
/// model.set_window(64);
///
/// let mut registry = ModelRegistry::unbounded();
/// let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
/// registry.insert(key, model);
/// assert_eq!(registry.len(), 1);
/// assert_eq!(registry.get_mut(key).unwrap().window(), 64);
/// let manifest = registry.manifest();
/// assert!(manifest[0].loaded && manifest[0].path.is_none());
/// ```
pub struct ModelRegistry {
    slots: BTreeMap<ModelKey, Slot>,
    /// Maximum resident models (0 = unbounded).
    max_loaded: usize,
    clock: u64,
    stats: RegistryStats,
    quarantine: QuarantinePolicy,
}

impl ModelRegistry {
    /// A registry keeping at most `max_loaded` models resident (0 disables
    /// the budget). Only file-backed models count as evictable; models
    /// added with [`ModelRegistry::insert`] are pinned.
    pub fn new(max_loaded: usize) -> Self {
        ModelRegistry {
            slots: BTreeMap::new(),
            max_loaded,
            clock: 0,
            stats: RegistryStats::default(),
            quarantine: QuarantinePolicy::default(),
        }
    }

    /// Replaces the quarantine policy (default:
    /// [`QuarantinePolicy::default`]). Tests use tight windows; operators
    /// can widen them for slow shared storage.
    pub fn set_quarantine_policy(&mut self, policy: QuarantinePolicy) {
        self.quarantine = policy;
    }

    /// The active quarantine policy.
    pub fn quarantine_policy(&self) -> QuarantinePolicy {
        self.quarantine
    }

    /// A registry with no residency budget.
    pub fn unbounded() -> Self {
        ModelRegistry::new(0)
    }

    /// The residency budget this registry was built with (0 = unbounded).
    pub fn max_loaded(&self) -> usize {
        self.max_loaded
    }

    /// Number of registered models (resident or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of models currently resident in memory.
    pub fn loaded_count(&self) -> usize {
        self.slots.values().filter(|s| s.model.is_some()).count()
    }

    /// All registered keys, in sorted order.
    pub fn keys(&self) -> Vec<ModelKey> {
        self.slots.keys().copied().collect()
    }

    /// True when `key` is registered.
    pub fn contains(&self, key: ModelKey) -> bool {
        self.slots.contains_key(&key)
    }

    /// Access counters (hits / loads / evictions).
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Registers an in-memory model (e.g. straight out of training, or an
    /// `Arc` another registry already holds). The model is pinned: it has
    /// no backing file, so the LRU budget never evicts it. Replaces any
    /// previous entry under `key`.
    pub fn insert(&mut self, key: ModelKey, model: impl Into<Arc<CamalModel>>) {
        let model = model.into();
        self.clock += 1;
        let slot = Slot {
            path: None,
            window: model.window(),
            ensemble_size: model.ensemble_size(),
            backbones: model.describe_members(),
            param_counts: model.member_param_counts(),
            model: Some(model),
            last_used: self.clock,
            failures: 0,
            quarantined_until: None,
        };
        self.slots.insert(key, slot);
    }

    /// Registers a checkpoint file to be loaded lazily on first
    /// [`ModelRegistry::get_mut`]. The file is not touched here; a missing
    /// or corrupt checkpoint surfaces as [`RegistryError::Load`] at access
    /// time. Replaces any previous entry under `key`.
    pub fn register_file(&mut self, key: ModelKey, path: impl Into<PathBuf>) {
        self.clock += 1;
        let slot = Slot {
            path: Some(path.into()),
            model: None,
            last_used: self.clock,
            window: 0,
            ensemble_size: 0,
            backbones: Vec::new(),
            param_counts: Vec::new(),
            failures: 0,
            quarantined_until: None,
        };
        self.slots.insert(key, slot);
    }

    /// Scans `dir` for `<dataset>_<appliance>.ckpt` files (the
    /// [`ModelKey::file_name`] convention) and registers each lazily.
    /// Returns the keys found, sorted. Files with other names are ignored.
    pub fn register_dir(&mut self, dir: impl AsRef<Path>) -> std::io::Result<Vec<ModelKey>> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(key) = ModelKey::from_file_name(name) {
                self.register_file(key, entry.path());
                found.push(key);
            }
        }
        found.sort();
        Ok(found)
    }

    /// Returns the model for `key`, loading it from its checkpoint if it is
    /// not resident. `&mut self` because a lookup updates the LRU clock and,
    /// when a load pushes the resident count over the budget, evicts
    /// least-recently-used file-backed models until it fits again; the
    /// model itself is shared (clone the `Arc` to keep it past the borrow).
    ///
    /// Load failures count toward the quarantine policy: inside an open
    /// quarantine window the file is not touched and the lookup fails fast
    /// with [`RegistryError::Quarantined`]; a successful load clears the
    /// failure streak.
    pub fn get_mut(&mut self, key: ModelKey) -> Result<&Arc<CamalModel>, RegistryError> {
        if !self.slots.contains_key(&key) {
            return Err(RegistryError::Unknown(key));
        }
        self.clock += 1;
        let clock = self.clock;
        let resident = self.slots.get(&key).expect("checked above").model.is_some();
        if resident {
            self.stats.hits += 1;
        } else {
            let slot = self.slots.get(&key).expect("checked above");
            let path = slot.path.clone().expect("non-resident slot always has a backing path");
            if let Some(until) = slot.quarantined_until {
                let now = Instant::now();
                if now < until {
                    return Err(RegistryError::Quarantined { key, path, retry_after: until - now });
                }
            }
            match CamalModel::load(&path) {
                Ok(model) => {
                    let slot = self.slots.get_mut(&key).expect("checked above");
                    slot.window = model.window();
                    slot.ensemble_size = model.ensemble_size();
                    slot.backbones = model.describe_members();
                    slot.param_counts = model.member_param_counts();
                    slot.model = Some(Arc::new(model));
                    slot.last_used = clock;
                    slot.failures = 0;
                    slot.quarantined_until = None;
                    self.stats.loads += 1;
                    self.enforce_budget(key);
                }
                Err(source) => {
                    let policy = self.quarantine;
                    let slot = self.slots.get_mut(&key).expect("checked above");
                    slot.failures += 1;
                    self.stats.load_failures += 1;
                    if slot.failures >= policy.threshold {
                        slot.quarantined_until =
                            Some(Instant::now() + policy.backoff(slot.failures));
                        self.stats.quarantines += 1;
                    }
                    return Err(RegistryError::Load { key, path, source });
                }
            }
        }
        let slot = self.slots.get_mut(&key).expect("checked above");
        slot.last_used = clock;
        Ok(slot.model.as_ref().expect("slot resident after load"))
    }

    /// Drops `key`'s model from memory, keeping the registration. Returns
    /// `false` when the model is not resident or has no backing file (a
    /// pinned model cannot be evicted — it would be lost).
    pub fn evict(&mut self, key: ModelKey) -> bool {
        match self.slots.get_mut(&key) {
            Some(slot) if slot.model.is_some() && slot.path.is_some() => {
                slot.model = None;
                self.stats.evictions += 1;
                true
            }
            _ => false,
        }
    }

    /// Evicts LRU file-backed models (never `keep`) until the resident
    /// count fits the budget.
    fn enforce_budget(&mut self, keep: ModelKey) {
        if self.max_loaded == 0 {
            return;
        }
        while self.loaded_count() > self.max_loaded {
            let victim = self
                .slots
                .iter()
                .filter(|(k, s)| **k != keep && s.model.is_some() && s.path.is_some())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.slots.get_mut(&k).expect("victim exists").model = None;
                    self.stats.evictions += 1;
                }
                // Everything else is pinned: allow exceeding the budget
                // rather than dropping models that cannot be reloaded.
                None => break,
            }
        }
    }

    /// One row per registered model: residency, backing file and (once
    /// loaded at least once) window length, ensemble size and the
    /// per-member backbone descriptions with parameter counts.
    pub fn manifest(&self) -> Vec<ManifestEntry> {
        self.slots
            .iter()
            .map(|(key, slot)| ManifestEntry {
                key: *key,
                loaded: slot.model.is_some(),
                path: slot.path.clone(),
                window: slot.window,
                ensemble_size: slot.ensemble_size,
                backbones: slot.backbones.clone(),
                param_counts: slot.param_counts.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;
    use crate::ensemble::EnsembleMember;
    use nilm_models::detector::{build_from_spec, BackboneSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> CamalModel {
        let cfg = CamalConfig {
            n_ensemble: 1,
            kernels: vec![5],
            trials: 1,
            width_div: 16,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = BackboneSpec::ResNet { kernel: 5, width_div: cfg.width_div };
        let member = EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.1 };
        let mut model = CamalModel::from_members(cfg, vec![member]);
        model.set_window(32);
        model
    }

    fn temp_zoo(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("camal_registry_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn save_tiny(dir: &Path, key: ModelKey, seed: u64) -> PathBuf {
        let path = dir.join(key.file_name());
        tiny_model(seed).save(&path).unwrap();
        path
    }

    #[test]
    fn key_file_name_roundtrips_for_every_pair() {
        for dataset in DatasetId::all() {
            for appliance in [
                ApplianceKind::Kettle,
                ApplianceKind::Microwave,
                ApplianceKind::Dishwasher,
                ApplianceKind::WashingMachine,
                ApplianceKind::Shower,
                ApplianceKind::ElectricVehicle,
            ] {
                let key = ModelKey::new(dataset, appliance);
                assert_eq!(ModelKey::from_file_name(&key.file_name()), Some(key));
            }
        }
        assert_eq!(ModelKey::from_file_name("notacheckpoint.bin"), None);
        assert_eq!(ModelKey::from_file_name("mars_kettle.ckpt"), None);
    }

    #[test]
    fn lazy_load_and_hit_counters() {
        let dir = temp_zoo("lazy");
        let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        save_tiny(&dir, key, 1);
        let mut reg = ModelRegistry::unbounded();
        reg.register_file(key, dir.join(key.file_name()));
        assert_eq!(reg.loaded_count(), 0, "registration must not load");
        assert_eq!(reg.get_mut(key).unwrap().window(), 32);
        assert_eq!(reg.loaded_count(), 1);
        let _ = reg.get_mut(key).unwrap();
        let stats = reg.stats();
        assert_eq!((stats.loads, stats.hits, stats.evictions), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-member mixed ResNet + TransApp model for manifest tests.
    fn mixed_model(seed: u64) -> CamalModel {
        let specs = [
            BackboneSpec::ResNet { kernel: 5, width_div: 16 },
            BackboneSpec::TransApp { d_model: 16, heads: 2, d_ff: 32, layers: 1, downsample: 4 },
        ];
        let cfg = CamalConfig {
            n_ensemble: specs.len(),
            kernels: vec![5],
            candidates: vec![specs[1]],
            trials: 1,
            width_div: 16,
            ..Default::default()
        };
        let members = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let mut rng = StdRng::seed_from_u64(seed + i as u64);
                EnsembleMember {
                    net: build_from_spec(&mut rng, spec),
                    spec,
                    val_loss: 0.1 * (i + 1) as f32,
                }
            })
            .collect();
        let mut model = CamalModel::from_members(cfg, members);
        model.set_window(32);
        model
    }

    #[test]
    fn manifest_reports_backbones_and_param_counts() {
        let dir = temp_zoo("backbones");
        let pinned = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        let lazy = ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher);
        let expected = mixed_model(11);
        let expected_backbones = expected.describe_members();
        let expected_params = expected.member_param_counts();
        mixed_model(11).save(dir.join(lazy.file_name())).unwrap();

        let mut reg = ModelRegistry::unbounded();
        reg.insert(pinned, mixed_model(11));
        reg.register_file(lazy, dir.join(lazy.file_name()));

        // Pinned models report their zoo immediately; lazy ones only after
        // the first load.
        let manifest = reg.manifest();
        let row = manifest.iter().find(|m| m.key == pinned).unwrap();
        assert_eq!(row.backbones, expected_backbones);
        assert_eq!(row.param_counts, expected_params);
        assert!(row.backbones.iter().any(|b| b.starts_with("transapp(")), "{:?}", row.backbones);
        let row = manifest.iter().find(|m| m.key == lazy).unwrap();
        assert!(row.backbones.is_empty() && row.param_counts.is_empty());

        let _ = reg.get_mut(lazy).unwrap();
        let manifest = reg.manifest();
        let row = manifest.iter().find(|m| m.key == lazy).unwrap();
        assert_eq!(row.backbones, expected_backbones);
        assert_eq!(row.param_counts, expected_params);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let dir = temp_zoo("lru");
        let k1 = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        let k2 = ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave);
        let k3 = ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher);
        let mut reg = ModelRegistry::new(2);
        for (key, seed) in [(k1, 1), (k2, 2), (k3, 3)] {
            save_tiny(&dir, key, seed);
            reg.register_file(key, dir.join(key.file_name()));
        }
        let _ = reg.get_mut(k1).unwrap();
        let _ = reg.get_mut(k2).unwrap();
        // k1 is LRU; loading k3 must push it out.
        let _ = reg.get_mut(k3).unwrap();
        assert_eq!(reg.loaded_count(), 2);
        let resident: Vec<ModelKey> =
            reg.manifest().iter().filter(|m| m.loaded).map(|m| m.key).collect();
        assert!(resident.contains(&k2) && resident.contains(&k3), "{resident:?}");
        assert_eq!(reg.stats().evictions, 1);
        // The evicted model transparently reloads.
        assert_eq!(reg.get_mut(k1).unwrap().window(), 32);
        assert_eq!(reg.stats().loads, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_models_are_never_evicted() {
        let dir = temp_zoo("pinned");
        let pinned = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        let filed = ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave);
        let mut reg = ModelRegistry::new(1);
        reg.insert(pinned, tiny_model(9));
        save_tiny(&dir, filed, 10);
        reg.register_file(filed, dir.join(filed.file_name()));
        let _ = reg.get_mut(filed).unwrap();
        // Budget is 1 but both stay: the pinned model cannot be dropped and
        // the just-loaded one is protected.
        assert_eq!(reg.loaded_count(), 2);
        assert!(!reg.evict(pinned), "pinned model must refuse manual eviction");
        assert!(reg.evict(filed));
        assert_eq!(reg.loaded_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_corrupt_entries_error() {
        let dir = temp_zoo("err");
        let key = ModelKey::new(DatasetId::EdfEv, ApplianceKind::ElectricVehicle);
        let mut reg = ModelRegistry::unbounded();
        assert!(matches!(reg.get_mut(key), Err(RegistryError::Unknown(k)) if k == key));
        let path = dir.join(key.file_name());
        std::fs::write(&path, b"not a checkpoint").unwrap();
        reg.register_file(key, &path);
        assert!(matches!(reg.get_mut(key), Err(RegistryError::Load { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_load_failures_quarantine_then_heal() {
        let dir = temp_zoo("quarantine");
        let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        let path = dir.join(key.file_name());
        std::fs::write(&path, b"garbage, not a checkpoint").unwrap();
        let mut reg = ModelRegistry::unbounded();
        reg.set_quarantine_policy(QuarantinePolicy {
            threshold: 2,
            base_backoff: std::time::Duration::from_millis(40),
            max_backoff: std::time::Duration::from_secs(1),
        });
        reg.register_file(key, &path);
        // Failures below the threshold keep hitting the disk.
        assert!(matches!(reg.get_mut(key), Err(RegistryError::Load { .. })));
        // The second failure reaches the threshold and opens the window.
        assert!(matches!(reg.get_mut(key), Err(RegistryError::Load { .. })));
        match reg.get_mut(key) {
            Err(RegistryError::Quarantined { retry_after, .. }) => {
                assert!(retry_after <= std::time::Duration::from_millis(40));
            }
            other => panic!("expected Quarantined, got {:?}", other.map(|_| ())),
        }
        let stats = reg.stats();
        assert_eq!((stats.load_failures, stats.quarantines), (2, 1));
        // Repair the checkpoint on disk; after the window expires the next
        // lookup retries, succeeds and clears the streak.
        tiny_model(3).save(&path).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(reg.get_mut(key).unwrap().window(), 32);
        assert_eq!(reg.stats().loads, 1);
        // The healed entry quarantines again only after fresh failures.
        assert!(reg.get_mut(key).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn register_dir_discovers_checkpoints() {
        let dir = temp_zoo("scan");
        let k1 = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
        let k2 = ModelKey::new(DatasetId::EdfEv, ApplianceKind::ElectricVehicle);
        save_tiny(&dir, k1, 4);
        save_tiny(&dir, k2, 5);
        std::fs::write(dir.join("README.txt"), b"ignored").unwrap();
        let mut reg = ModelRegistry::unbounded();
        let found = reg.register_dir(&dir).unwrap();
        assert_eq!(found, vec![k1, k2].into_iter().collect::<Vec<_>>());
        assert_eq!(reg.len(), 2);
        assert!(reg.get_mut(k2).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
