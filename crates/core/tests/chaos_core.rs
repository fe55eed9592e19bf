//! Chaos suite for the core crate's fault points: torn checkpoint saves,
//! corrupt checkpoint loads (through registry quarantine), and panicking
//! fleet shards. Every injected failure must be contained — old data
//! stays intact, errors are typed, and fleet passes still answer for
//! every household.
//!
//! The fault table is process-global, so every test serializes on one
//! mutex and disarms all points on entry and exit.

use camal::config::CamalConfig;
use camal::ensemble::EnsembleMember;
use camal::fleet::{serve_fleet, FleetConfig};
use camal::registry::{ModelKey, ModelRegistry, QuarantinePolicy, RegistryError};
use camal::stream::HouseholdSeries;
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::series::TimeSeries;
use nilm_data::templates::DatasetId;
use nilm_models::detector::{build_from_spec, BackboneSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const WINDOW: usize = 32;

/// Serializes tests (the fault table is shared by the whole process) and
/// guarantees a clean table on entry; `FaultGuard` cleans up on exit even
/// when the test panics.
static SERIAL: Mutex<()> = Mutex::new(());

struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        nilm_fault::disarm_all();
    }
}

fn faults() -> FaultGuard {
    let g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    nilm_fault::disarm_all();
    FaultGuard { _serial: g }
}

fn tiny_model(seed: u64) -> CamalModel {
    resnet_model(seed, 16)
}

/// A one-member ResNet model at channel divisor `width_div` (1 = paper
/// width: about 14 M convolution MACs per window).
fn resnet_model(seed: u64, width_div: usize) -> CamalModel {
    let cfg =
        CamalConfig { n_ensemble: 1, kernels: vec![5], trials: 1, width_div, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = BackboneSpec::ResNet { kernel: 5, width_div: cfg.width_div };
    let member = EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.1 };
    let mut model = CamalModel::from_members(cfg, vec![member]);
    model.set_window(WINDOW);
    model
}

fn toy_household(n_windows: usize, seed: u64) -> HouseholdSeries {
    let mut rng = nilm_tensor::init::rng(seed);
    let n = n_windows * WINDOW;
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let plateau = (t / 12) % 3 == 0;
        let base = if plateau { 1900.0 } else { 140.0 };
        values.push(base + nilm_tensor::init::randn(&mut rng).abs() * 25.0);
    }
    HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, 60) }
}

fn kettle() -> ModelKey {
    ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camal_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn torn_save_never_clobbers_the_previous_checkpoint() {
    let _g = faults();
    let dir = temp_dir("torn");
    let path = dir.join(kettle().file_name());
    let mut v1 = tiny_model(1);
    v1.save(&path).expect("clean save");
    let v1_bytes = std::fs::read(&path).unwrap();

    // Every save attempt now crashes after a partial temp write.
    nilm_fault::arm("persist.save.torn", 1.0, 7);
    let err = tiny_model(2).save(&path).expect_err("torn save must error");
    assert!(err.to_string().contains("injected"), "unexpected error: {err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        v1_bytes,
        "a torn save must leave the previous checkpoint byte-identical"
    );
    // The interrupted file, if any survives, is a temp sibling — and the
    // real path still loads.
    assert_eq!(CamalModel::load(&path).unwrap().window(), WINDOW);

    // Disarmed, the same save goes through and the new checkpoint loads.
    nilm_fault::disarm_all();
    tiny_model(2).save(&path).expect("save after disarm");
    assert_ne!(std::fs::read(&path).unwrap(), v1_bytes);
    assert_eq!(CamalModel::load(&path).unwrap().window(), WINDOW);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_loads_quarantine_then_heal() {
    let _g = faults();
    let dir = temp_dir("quarantine");
    let key = kettle();
    let path = dir.join(key.file_name());
    tiny_model(3).save(&path).unwrap();

    let mut reg = ModelRegistry::unbounded();
    reg.set_quarantine_policy(QuarantinePolicy {
        threshold: 2,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_secs(1),
    });
    reg.register_file(key, &path);

    // Every load reads corrupt data: two failures open the quarantine.
    nilm_fault::arm("persist.load.corrupt", 1.0, 11);
    for attempt in 0..2 {
        match reg.get_mut(key) {
            Err(RegistryError::Load { .. }) => {}
            Err(other) => panic!("attempt {attempt}: expected Load error, got {other}"),
            Ok(_) => panic!("attempt {attempt}: load must fail under the corrupt fault"),
        }
    }
    match reg.get_mut(key) {
        Err(RegistryError::Quarantined { retry_after, .. }) => {
            assert!(retry_after <= Duration::from_secs(1), "{retry_after:?}");
        }
        Err(other) => panic!("expected Quarantined, got {other}"),
        Ok(_) => panic!("expected Quarantined, load succeeded"),
    }
    let stats = reg.stats();
    assert_eq!(stats.load_failures, 2);
    assert_eq!(stats.quarantines, 1);

    // Storage heals (fault disarmed). After the backoff window the next
    // access retries, succeeds, and clears the quarantine — no restart.
    nilm_fault::disarm_all();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(reg.get_mut(key).expect("healed load").window(), WINDOW);
    assert_eq!(reg.get_mut(key).expect("resident hit").window(), WINDOW);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_panic_retries_to_an_identical_result() {
    let _g = faults();
    let key = kettle();
    let households = vec![toy_household(3, 1), toy_household(4, 2)];
    let cfg = FleetConfig { batch: 4, ..FleetConfig::at_step(60) };

    // Fault-free baseline.
    let mut reg = ModelRegistry::unbounded();
    reg.insert(key, tiny_model(5));
    let baseline = serve_fleet(&mut reg, &[key], &households, &cfg).unwrap();
    assert_eq!(baseline.summary.shard_retries, 0);
    assert_eq!(baseline.summary.households_degraded, 0);

    // One injected panic: the shard retries on a fresh model copy and the
    // localization output is identical to the fault-free run.
    nilm_fault::arm_limited("fleet.shard.panic", 1.0, 13, Some(1));
    let mut reg = ModelRegistry::unbounded();
    reg.insert(key, tiny_model(5));
    let recovered = serve_fleet(&mut reg, &[key], &households, &cfg).unwrap();
    assert_eq!(recovered.summary.shard_retries, 1);
    assert_eq!(recovered.summary.households_degraded, 0);
    for (hi, hh) in recovered.households.iter().enumerate() {
        assert!(hh.degraded.is_none(), "household {hi} must not be degraded");
        assert_eq!(
            recovered.timeline(hi, key).unwrap().raw_status,
            baseline.timeline(hi, key).unwrap().raw_status,
            "household {hi}: retried shard must reproduce the baseline"
        );
    }
}

#[test]
fn persistent_shard_panic_degrades_households_instead_of_failing() {
    let _g = faults();
    let key = kettle();
    let households = vec![toy_household(3, 1), toy_household(2, 2)];
    let cfg = FleetConfig { batch: 4, ..FleetConfig::at_step(60) };

    // Unlimited panics: the retry panics too, so the shard's households
    // come back as explicit degraded placeholders, not an error.
    nilm_fault::arm("fleet.shard.panic", 1.0, 17);
    let mut reg = ModelRegistry::unbounded();
    reg.insert(key, tiny_model(5));
    let out = serve_fleet(&mut reg, &[key], &households, &cfg)
        .expect("a doubly-panicking shard degrades, it does not error");
    assert_eq!(out.summary.shard_retries, 1);
    assert_eq!(out.summary.households_degraded, households.len());
    for (hi, hh) in out.households.iter().enumerate() {
        let reason = hh.degraded.as_deref().expect("degraded reason");
        assert!(reason.contains("injected fault"), "household {hi}: {reason}");
        let tl = out.timeline(hi, key).unwrap();
        assert_eq!(tl.raw_status.len(), households[hi].series.len());
        assert!(tl.raw_status.iter().all(|&s| s == 0), "placeholder must be all-off");
    }
}

#[test]
fn multi_shard_panic_only_degrades_the_hit_shard() {
    let _g = faults();
    let key = kettle();
    // A paper-width model gives four 2-window households two shards' worth
    // of work (`SHARD_MIN_MACS`), so the pass really splits.
    let households: Vec<HouseholdSeries> = (0..4).map(|i| toy_household(2, i as u64)).collect();
    let cfg = FleetConfig { batch: 4, threads: 2, ..FleetConfig::at_step(60) };

    // The shard index is the fault site, and sites draw independently: at
    // rate 0.5, seed 13 fires on the first two trials of site 1 (the second
    // shard's attempt and retry) and not on the first trial of site 0.
    // The decision cannot depend on how the two shards interleave.
    nilm_fault::arm_limited("fleet.shard.panic", 0.5, 13, Some(2));
    let mut reg = ModelRegistry::unbounded();
    reg.insert(key, resnet_model(5, 1));
    let out = serve_fleet(&mut reg, &[key], &households, &cfg).unwrap();
    assert_eq!(out.summary.shards, 2);
    assert_eq!(out.summary.shard_retries, 1, "only the hit shard retries");
    let degraded: Vec<bool> = out.households.iter().map(|h| h.degraded.is_some()).collect();
    assert_eq!(degraded, [false, false, true, true], "exactly the second shard degrades");
    assert_eq!(out.summary.households_degraded, 2);
    assert_eq!(out.households.len(), households.len(), "every household is answered");
}
