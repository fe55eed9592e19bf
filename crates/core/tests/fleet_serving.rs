//! Cross-module contracts of the fleet-serving subsystem: the registry
//! round-trips checkpoints lazily, the single-appliance fleet is
//! bit-identical to `camal::stream::serve`, sharding across worker threads
//! is invisible in the output, the shared preprocessing pass scores the
//! same windows the single-appliance service does, and coalescing
//! households into one pass saves kernel calls without changing a bit.

use camal::ensemble::EnsembleMember;
use camal::fleet::{serve_fleet, FleetConfig};
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::{serve, HouseholdSeries, StreamConfig};
use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;
use nilm_models::{build_from_spec, BackboneSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock};

const WINDOW: usize = 32;

/// `nilm_obs::kernel` keeps one process-wide table. Every test here takes
/// this lock shared; the test that counts kernel calls takes it exclusive,
/// so no other test's kernels land in its count.
static KERNEL_TABLE: RwLock<()> = RwLock::new(());

fn random_model(kernels: &[usize], seed: u64) -> CamalModel {
    resnet_model(kernels, 16, seed)
}

/// A paper-width ResNet model: about 14 M convolution MACs per window, so
/// a few households give a pass several shards' worth of work
/// (`camal::fleet::SHARD_MIN_MACS`).
fn heavy_model(seed: u64) -> CamalModel {
    resnet_model(&[5], 1, seed)
}

fn resnet_model(kernels: &[usize], width_div: usize, seed: u64) -> CamalModel {
    let cfg = CamalConfig {
        n_ensemble: kernels.len(),
        kernels: kernels.to_vec(),
        trials: 1,
        width_div,
        ..Default::default()
    };
    let members = kernels
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(97 * i as u64));
            let spec = BackboneSpec::ResNet { kernel: k, width_div: cfg.width_div };
            EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.3 + i as f32 }
        })
        .collect();
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(WINDOW);
    model
}

/// An untrained heterogeneous model: a ResNet member plus a TransApp member,
/// as a mixed-candidate sweep would select.
fn random_mixed_model(seed: u64) -> CamalModel {
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
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(31 * i as u64));
            EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.3 + i as f32 }
        })
        .collect();
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(WINDOW);
    model
}

/// A household with spiky plateaus and one unfillable NaN gap, so the
/// shared pass must exercise the window-skip path too.
fn gappy_household(n_windows: usize, seed: u64) -> HouseholdSeries {
    let mut rng = nilm_tensor::init::rng(seed);
    let n = n_windows * WINDOW + 3;
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let plateau = (t / 10) % 4 == (seed % 3) as usize;
        let base = if plateau { 2100.0 } else { 110.0 };
        values.push(base + nilm_tensor::init::randn(&mut rng).abs() * 20.0);
    }
    if n_windows > 2 {
        // Poison the second window beyond any forward-fill bound.
        for v in values[WINDOW + 4..WINDOW + 24].iter_mut() {
            *v = f32::NAN;
        }
    }
    HouseholdSeries { id: format!("fleet-h{seed}"), series: TimeSeries::new(values, 60) }
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|p| p.to_bits()).collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camal_fleet_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The headline equivalence: a fleet with exactly one registered appliance
/// reproduces `stream::serve` bit-for-bit — statuses, priors, detection
/// probabilities, power estimates and coverage bookkeeping.
#[test]
fn fleet_of_one_is_bit_identical_to_stream_serve() {
    let _kernels = KERNEL_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Dishwasher);
    let avg_power_w = template(key.dataset).case(key.appliance).unwrap().avg_power_w;
    let model = random_model(&[5, 7], 51);
    let households: Vec<HouseholdSeries> =
        (0..3).map(|i| gappy_household(4 + i, 60 + i as u64)).collect();
    let stream_cfg = StreamConfig {
        window: WINDOW,
        step_s: 60,
        max_ffill_s: 120,
        batch: 5, // unaligned with window counts on purpose
        appliance: Some(key.appliance),
        avg_power_w,
    };
    let solo = serve(&model, &households, &stream_cfg);

    let mut registry = ModelRegistry::unbounded();
    registry.insert(key, model);
    let fleet_cfg =
        FleetConfig { step_s: 60, max_ffill_s: 120, batch: 5, threads: 1, apply_priors: true };
    let fleet = serve_fleet(&mut registry, &[key], &households, &fleet_cfg).unwrap();

    assert_eq!(fleet.summary.feed_windows_scored, solo.iter().map(|t| t.windows_scored).sum());
    for (hi, tl) in solo.iter().enumerate() {
        let ftl = fleet.timeline(hi, key).expect("fleet covers every household");
        assert_eq!(ftl.id, tl.id);
        assert_eq!(ftl.raw_status, tl.raw_status, "pre-prior status differs at household {hi}");
        assert_eq!(ftl.status, tl.status, "post-prior status differs at household {hi}");
        assert_eq!(f32_bits(&ftl.detection_proba), f32_bits(&tl.detection_proba));
        assert_eq!(f32_bits(&ftl.power_w), f32_bits(&tl.power_w));
        assert_eq!(ftl.scored_starts, tl.scored_starts);
        assert_eq!(
            (ftl.windows_total, ftl.windows_scored, ftl.windows_detected),
            (tl.windows_total, tl.windows_scored, tl.windows_detected)
        );
    }
}

/// Sharding invariance: the same fleet served with 1 and 4 worker threads
/// produces identical per-household, per-appliance timelines — thread count
/// is a throughput knob, never a semantics knob.
#[test]
fn worker_thread_count_is_invisible_in_fleet_output() {
    let _kernels = KERNEL_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    let keys = [
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
        ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher),
        ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave),
    ];
    let mut registry = ModelRegistry::unbounded();
    registry.insert(keys[0], heavy_model(70));
    for (i, &key) in keys.iter().enumerate().skip(1) {
        registry.insert(key, random_model(&[5 + 2 * (i % 2)], 70 + i as u64));
    }
    let households: Vec<HouseholdSeries> =
        (0..4).map(|i| gappy_household(2 + i % 2, 80 + i as u64)).collect();
    let base =
        FleetConfig { step_s: 60, max_ffill_s: 120, batch: 4, threads: 1, apply_priors: true };
    let one = serve_fleet(&mut registry, &keys, &households, &base).unwrap();
    let four = serve_fleet(&mut registry, &keys, &households, &FleetConfig { threads: 4, ..base })
        .unwrap();

    assert_eq!(one.summary.shards, 1);
    assert!(four.summary.shards > 1, "4 heavy households over 4 threads must use several shards");
    assert_eq!(one.summary.inferences, four.summary.inferences);
    assert_eq!(one.households.len(), four.households.len());
    for (a, b) in one.households.iter().zip(&four.households) {
        assert_eq!(a.id, b.id, "household order must be preserved across shards");
        for (ta, tb) in a.timelines.iter().zip(&b.timelines) {
            assert_eq!(ta.raw_status, tb.raw_status);
            assert_eq!(ta.status, tb.status);
            assert_eq!(f32_bits(&ta.detection_proba), f32_bits(&tb.detection_proba));
            assert_eq!(f32_bits(&ta.power_w), f32_bits(&tb.power_w));
        }
    }
}

/// Sharding invariance holds for a heterogeneous zoo too: mixing TransApp
/// members into some of the fleet's models must not open any thread-count
/// dependence, and a mixed fleet-of-one still reproduces `stream::serve`
/// bit-for-bit.
#[test]
fn mixed_backbone_zoo_is_shard_invariant_and_matches_stream_serve() {
    let _kernels = KERNEL_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    let keys = [
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
        ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher),
        ModelKey::new(DatasetId::Refit, ApplianceKind::Microwave),
    ];
    let mut registry = ModelRegistry::unbounded();
    registry.insert(keys[0], random_mixed_model(71));
    registry.insert(keys[1], heavy_model(72)); // pure ResNet neighbour, heavy enough to shard
    registry.insert(keys[2], random_mixed_model(73));
    let households: Vec<HouseholdSeries> =
        (0..4).map(|i| gappy_household(2 + i % 2, 180 + i as u64)).collect();
    let base =
        FleetConfig { step_s: 60, max_ffill_s: 120, batch: 4, threads: 1, apply_priors: true };
    let one = serve_fleet(&mut registry, &keys, &households, &base).unwrap();
    let four = serve_fleet(&mut registry, &keys, &households, &FleetConfig { threads: 4, ..base })
        .unwrap();
    assert!(four.summary.shards > 1, "4 heavy households over 4 threads must use several shards");
    for (a, b) in one.households.iter().zip(&four.households) {
        assert_eq!(a.id, b.id);
        for (ta, tb) in a.timelines.iter().zip(&b.timelines) {
            assert_eq!(ta.raw_status, tb.raw_status);
            assert_eq!(ta.status, tb.status);
            assert_eq!(f32_bits(&ta.detection_proba), f32_bits(&tb.detection_proba));
            assert_eq!(f32_bits(&ta.power_w), f32_bits(&tb.power_w));
        }
    }

    // Mixed fleet-of-one vs direct stream::serve, bit-for-bit.
    let key = keys[0];
    let avg_power_w = template(key.dataset).case(key.appliance).unwrap().avg_power_w;
    let solo_model = random_mixed_model(71);
    let stream_cfg = StreamConfig {
        window: WINDOW,
        step_s: 60,
        max_ffill_s: 120,
        batch: 5,
        appliance: Some(key.appliance),
        avg_power_w,
    };
    let solo = serve(&solo_model, &households, &stream_cfg);
    let fleet_cfg = FleetConfig { batch: 5, ..base };
    let fleet = serve_fleet(&mut registry, &[key], &households, &fleet_cfg).unwrap();
    for (hi, tl) in solo.iter().enumerate() {
        let ftl = fleet.timeline(hi, key).expect("fleet covers every household");
        assert_eq!(ftl.raw_status, tl.raw_status, "mixed stream/fleet divergence at {hi}");
        assert_eq!(ftl.status, tl.status);
        assert_eq!(f32_bits(&ftl.detection_proba), f32_bits(&tl.detection_proba));
        assert_eq!(f32_bits(&ftl.power_w), f32_bits(&tl.power_w));
    }
}

/// End-to-end zoo flow: save per-appliance checkpoints, discover them with
/// `register_dir`, lazily load through a bounded registry while serving,
/// and verify the served output matches the in-memory models.
#[test]
fn checkpoint_zoo_roundtrips_through_bounded_registry() {
    let _kernels = KERNEL_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    let dir = temp_dir("zoo");
    let keys = [
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
        ModelKey::new(DatasetId::UkDale, ApplianceKind::Microwave),
    ];
    let mut in_memory = ModelRegistry::unbounded();
    for (i, &key) in keys.iter().enumerate() {
        let mut model = random_model(&[7], 90 + i as u64);
        model.save(dir.join(key.file_name())).unwrap();
        in_memory.insert(key, model);
    }

    let mut from_disk = ModelRegistry::new(1);
    let found = from_disk.register_dir(&dir).unwrap();
    assert_eq!(found.len(), 2);
    assert_eq!(from_disk.loaded_count(), 0, "register_dir must stay lazy");

    let households = vec![gappy_household(4, 100), gappy_household(5, 101)];
    let cfg =
        FleetConfig { step_s: 60, max_ffill_s: 120, batch: 8, threads: 2, apply_priors: true };
    let a = serve_fleet(&mut in_memory, &keys, &households, &cfg).unwrap();
    let b = serve_fleet(&mut from_disk, &keys, &households, &cfg).unwrap();
    for (ha, hb) in a.households.iter().zip(&b.households) {
        for (ta, tb) in ha.timelines.iter().zip(&hb.timelines) {
            assert_eq!(ta.raw_status, tb.raw_status);
            assert_eq!(f32_bits(&ta.power_w), f32_bits(&tb.power_w));
        }
    }
    // The budget of 1 forced an eviction while fetching both models; the
    // pass kept serving the evicted one from its own `Arc`.
    assert!(from_disk.loaded_count() <= 1);
    assert!(from_disk.stats().evictions >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fleet scenario generator feeds straight into the scheduler: every
/// simulated household gets a timeline per registered appliance, even for
/// appliances the household does not own (the detector simply reports what
/// it sees).
#[test]
fn fleet_scenario_households_serve_end_to_end() {
    let _kernels = KERNEL_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    let keys = [
        ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle),
        ModelKey::new(DatasetId::UkDale, ApplianceKind::Dishwasher),
    ];
    let mut registry = ModelRegistry::unbounded();
    for (i, &key) in keys.iter().enumerate() {
        registry.insert(key, random_model(&[5], 110 + i as u64));
    }
    let scenario = generate_fleet_scenario(&[DatasetId::Refit, DatasetId::UkDale], 2, 1, 7);
    let households: Vec<HouseholdSeries> = scenario
        .iter()
        .map(|fh| HouseholdSeries { id: fh.label(), series: fh.house.aggregate.clone() })
        .collect();
    let cfg =
        FleetConfig { step_s: 60, max_ffill_s: 180, batch: 16, threads: 2, apply_priors: true };
    let out = serve_fleet(&mut registry, &keys, &households, &cfg).unwrap();
    assert_eq!(out.households.len(), 4);
    for (hh, fh) in out.households.iter().zip(&scenario) {
        assert_eq!(hh.id, fh.label());
        assert_eq!(hh.timelines.len(), keys.len());
        for tl in &hh.timelines {
            assert_eq!(tl.raw_status.len(), fh.house.aggregate.len());
            assert_eq!(tl.power_w.len(), tl.status.len());
        }
    }
    assert!(out.summary.windows_per_second > 0.0);
}

/// `conv_fwd` calls recorded so far in the process-wide kernel table.
fn conv_fwd_calls() -> u64 {
    nilm_obs::kernel::stats()
        .iter()
        .filter(|(key, _)| key.op == "conv_fwd")
        .map(|(_, stat)| stat.calls)
        .sum()
}

/// The micro-batcher's server-side saving, counted instead of timed: eight
/// single-window households served in one merged pass fill one batch where
/// eight solo passes fill eight, so the merged pass makes 1/8 of their
/// convolution calls, and every household's timeline is bit-identical to
/// its solo pass. (The wall-clock effect is measured end to end by the
/// benchmark's `gateway.requests_per_pass` and `capacity_rps`.)
#[test]
fn coalesced_pass_makes_one_eighth_of_the_solo_kernel_calls() {
    let _kernels = KERNEL_TABLE.write().unwrap_or_else(PoisonError::into_inner);
    let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
    let mut registry = ModelRegistry::unbounded();
    registry.insert(key, random_model(&[5], 17));
    let households: Vec<HouseholdSeries> = (0..8).map(|i| gappy_household(1, 40 + i)).collect();
    let cfg = FleetConfig { batch: 64, ..FleetConfig::at_step(60) };

    let calls_before = conv_fwd_calls();
    let solo: Vec<_> = households
        .iter()
        .map(|h| serve_fleet(&mut registry, &[key], std::slice::from_ref(h), &cfg).unwrap())
        .collect();
    let solo_calls = conv_fwd_calls() - calls_before;
    let merged = serve_fleet(&mut registry, &[key], &households, &cfg).unwrap();
    let merged_calls = conv_fwd_calls() - calls_before - solo_calls;

    assert_eq!(solo.iter().map(|s| s.summary.batches).sum::<usize>(), 8);
    assert_eq!(merged.summary.feed_windows_scored, 8);
    assert_eq!(merged.summary.batches, 1, "8 single-window households fill one batch");
    assert!(merged_calls > 0);
    assert_eq!(8 * merged_calls, solo_calls, "the merged pass makes 1/8 of the solo conv calls");
    for (hi, alone) in solo.iter().enumerate() {
        let (a, b) = (alone.timeline(0, key).unwrap(), merged.timeline(hi, key).unwrap());
        assert_eq!(a.id, b.id);
        assert_eq!((&a.raw_status, &a.status), (&b.raw_status, &b.status), "household {hi}");
        assert_eq!(f32_bits(&a.detection_proba), f32_bits(&b.detection_proba));
        assert_eq!(f32_bits(&a.power_w), f32_bits(&b.power_w));
        assert_eq!(a.scored_starts, b.scored_starts);
    }
}
