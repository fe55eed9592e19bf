//! Cross-module properties of the persistence + streaming subsystem:
//! checkpoint round-trips are bit-identical for every backbone/kernel
//! combination, every structural corruption is rejected, and the streaming
//! service is output-equivalent to the windowed batch API.

use camal::ensemble::EnsembleMember;
use camal::stream::{serve, HouseholdSeries, StreamConfig};
use camal::{CamalConfig, CamalModel};
use nilm_data::preprocess::Window;
use nilm_data::series::TimeSeries;
use nilm_data::windows::WindowSet;
use nilm_models::{build_from_spec, Backbone, BackboneSpec};
use nilm_tensor::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WINDOW: usize = 32;

/// A model with randomly initialized (untrained) members — weights are
/// arbitrary, which is exactly what a round-trip test wants.
fn random_model(backbone: Backbone, kernels: &[usize], seed: u64) -> CamalModel {
    let cfg = CamalConfig {
        n_ensemble: kernels.len(),
        kernels: kernels.to_vec(),
        trials: 1,
        width_div: 16,
        backbone,
        ..Default::default()
    };
    let members = kernels
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let spec = BackboneSpec::from_kernel(backbone, k, cfg.width_div);
            EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.5 + i as f32 }
        })
        .collect();
    CamalModel::from_members(cfg, members)
}

/// A model with randomly initialized members over an arbitrary spec mix.
fn random_mixed_model(specs: &[BackboneSpec], seed: u64) -> CamalModel {
    let cfg = CamalConfig {
        n_ensemble: specs.len(),
        kernels: Vec::new(),
        candidates: specs.to_vec(),
        trials: 1,
        ..Default::default()
    };
    let members = specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.5 + i as f32 }
        })
        .collect();
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(WINDOW);
    model
}

/// Deterministic pseudo-random `[b, 1, WINDOW]` batch.
fn probe_batch(b: usize, seed: u64) -> Tensor {
    let mut rng = nilm_tensor::init::rng(seed);
    nilm_tensor::init::randn_tensor(&mut rng, &[b, 1, WINDOW], 1.0)
}

fn f32_bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
}

fn backbone_strategy() -> impl Strategy<Value = Backbone> {
    prop_oneof![Just(Backbone::ResNet), Just(Backbone::InceptionTime)]
}

fn kernel_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_oneof![Just(3usize), Just(5), Just(7), Just(9)], 1..3)
}

/// One backbone spec of any of the three families, at smoke-test scale.
fn spec_strategy() -> impl Strategy<Value = BackboneSpec> {
    prop_oneof![
        prop_oneof![Just(3usize), Just(5), Just(9)]
            .prop_map(|kernel| BackboneSpec::ResNet { kernel, width_div: 16 }),
        prop_oneof![Just(3usize), Just(5), Just(7)]
            .prop_map(|kernel| BackboneSpec::InceptionTime { kernel, width_div: 16 }),
        prop_oneof![Just((8usize, 2usize)), Just((16, 2)), Just((12, 4))].prop_map(
            |(d_model, heads)| BackboneSpec::TransApp {
                d_model,
                heads,
                d_ff: 2 * d_model,
                layers: 1,
                downsample: 4,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// save -> load -> bit-identical `detect_proba` and `localize_batch`,
    /// for both backbones and arbitrary kernel grids.
    #[test]
    fn checkpoint_roundtrip_is_bit_identical(
        backbone in backbone_strategy(),
        kernels in kernel_strategy(),
        seed in 0u64..1_000,
    ) {
        let mut model = random_model(backbone, &kernels, seed);
        let bytes = model.to_bytes();
        let mut back = CamalModel::from_bytes(&bytes).expect("roundtrip load");
        prop_assert_eq!(back.ensemble_size(), kernels.len());
        let specs: Vec<BackboneSpec> =
            kernels.iter().map(|&k| BackboneSpec::from_kernel(backbone, k, 16)).collect();
        prop_assert_eq!(back.member_specs(), specs);
        let x = probe_batch(4, seed ^ 0xF00D);
        let pa: Vec<u32> = model.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u32> = back.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(pa, pb, "detect_proba differs after reload");
        let a = model.localize_batch(&x);
        let b = back.localize_batch(&x);
        prop_assert_eq!(a.status, b.status, "statuses differ after reload");
        prop_assert_eq!(f32_bits(&a.scores), f32_bits(&b.scores), "scores differ after reload");
        prop_assert_eq!(f32_bits(&a.cam), f32_bits(&b.cam), "CAMs differ after reload");
        // And the reloaded model re-serializes to the very same bytes.
        prop_assert_eq!(back.to_bytes(), bytes, "re-serialization unstable");
    }

    /// v3 checkpoints round-trip bit-identically for arbitrary mixes of all
    /// three backbone families — the heterogeneous-zoo persistence contract.
    #[test]
    fn mixed_spec_checkpoint_roundtrip_is_bit_identical(
        specs in proptest::collection::vec(spec_strategy(), 1..4),
        seed in 0u64..1_000,
    ) {
        let mut model = random_mixed_model(&specs, seed);
        let bytes = model.to_bytes();
        let mut back = CamalModel::from_bytes(&bytes).expect("mixed roundtrip load");
        prop_assert_eq!(back.member_specs(), specs.clone());
        let x = probe_batch(3, seed ^ 0xBEEF);
        let pa: Vec<u32> = model.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u32> = back.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(pa, pb, "detect_proba differs after mixed reload");
        let a = model.localize_batch(&x);
        let b = back.localize_batch(&x);
        prop_assert_eq!(a.status, b.status, "statuses differ after mixed reload");
        prop_assert_eq!(f32_bits(&a.cam), f32_bits(&b.cam), "CAMs differ after mixed reload");
        prop_assert_eq!(back.to_bytes(), bytes, "mixed re-serialization unstable");
    }

    /// Any strict prefix of a checkpoint is rejected — truncated files can
    /// never half-load.
    #[test]
    fn truncated_checkpoints_are_rejected(cut_ppm in 0u64..1_000_000) {
        let mut model = random_model(Backbone::ResNet, &[5], 1);
        let bytes = model.to_bytes();
        let cut = (cut_ppm as usize * (bytes.len() - 1)) / 1_000_000;
        prop_assert!(
            CamalModel::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes was accepted",
            bytes.len()
        );
    }
}

#[test]
fn checkpoint_file_roundtrip_across_model_instances() {
    let dir = std::env::temp_dir().join("camal_persist_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    let mut model = random_model(Backbone::ResNet, &[5, 9], 7);
    model.save(&path).expect("save");
    let back = CamalModel::load(&path).expect("load");
    let x = probe_batch(6, 99);
    assert_eq!(model.localize_batch(&x).status, back.localize_batch(&x).status);
    assert_eq!(back.config().kernels, vec![5, 9], "config kernel grid preserved");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_and_foreign_files_are_rejected() {
    let mut model = random_model(Backbone::ResNet, &[5], 3);
    let bytes = model.to_bytes();
    // Version bump.
    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&0xFFu32.to_le_bytes());
    assert!(CamalModel::from_bytes(&wrong_version).is_err());
    // A raw tensor-state blob is not a checkpoint.
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = build_from_spec(&mut rng, BackboneSpec::ResNet { kernel: 5, width_div: 16 });
    assert!(CamalModel::from_bytes(&net.save_state()).is_err());
    // Garbage.
    assert!(CamalModel::from_bytes(b"definitely not a checkpoint").is_err());
    assert!(CamalModel::from_bytes(&[]).is_err());
}

/// Builds a long household series whose windows are also returned as a
/// `WindowSet`, so streaming and batch outputs can be compared 1:1.
fn household_and_windows(n_windows: usize, seed: u64) -> (HouseholdSeries, WindowSet) {
    let mut rng = nilm_tensor::init::rng(seed);
    let n = n_windows * WINDOW;
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let plateau = (t / 16) % 3 == 0;
        let base = if plateau { 1800.0 } else { 120.0 };
        values.push(base + nilm_tensor::init::randn(&mut rng).abs() * 30.0);
    }
    let series = TimeSeries::new(values.clone(), 60);
    let windows = (0..n_windows)
        .map(|wi| {
            let agg = &values[wi * WINDOW..(wi + 1) * WINDOW];
            Window {
                input: agg.iter().map(|v| v / 1000.0).collect(),
                aggregate_w: agg.to_vec(),
                status: Vec::new(),
                appliance_w: Vec::new(),
                weak_label: 0,
                house_id: 0,
            }
        })
        .collect();
    (HouseholdSeries { id: format!("house-{seed}"), series }, WindowSet::new(windows))
}

#[test]
fn streaming_equals_windowed_batch_before_priors() {
    let model = random_model(Backbone::ResNet, &[5, 7], 11);
    let (household, set) = household_and_windows(9, 5);
    let cfg = StreamConfig {
        window: WINDOW,
        step_s: 60,
        max_ffill_s: 180,
        batch: 4, // unaligned with both window count and household size
        appliance: None,
        avg_power_w: 2000.0,
    };
    let out = serve(&model, std::slice::from_ref(&household), &cfg);
    let loc = model.localize_set(&set, 16);
    assert_eq!(out[0].windows_scored, set.len());
    for (wi, st) in loc.status.iter().enumerate() {
        assert_eq!(
            &out[0].raw_status[wi * WINDOW..(wi + 1) * WINDOW],
            &st[..],
            "stream/batch divergence at window {wi}"
        );
    }
    assert_eq!(out[0].status, out[0].raw_status, "no prior configured");
}

#[test]
fn streaming_batches_across_households() {
    // Two households served together must produce the same timelines as
    // each served alone: cross-household batching is invisible.
    let model = random_model(Backbone::ResNet, &[5], 13);
    let (h0, _) = household_and_windows(5, 21);
    let (h1, _) = household_and_windows(7, 22);
    let cfg = StreamConfig {
        window: WINDOW,
        step_s: 60,
        max_ffill_s: 180,
        batch: 3,
        appliance: None,
        avg_power_w: 2000.0,
    };
    let joint = serve(&model, &[h0.clone(), h1.clone()], &cfg);
    let solo0 = serve(&model, std::slice::from_ref(&h0), &cfg);
    let solo1 = serve(&model, std::slice::from_ref(&h1), &cfg);
    assert_eq!(joint[0].raw_status, solo0[0].raw_status);
    assert_eq!(joint[1].raw_status, solo1[0].raw_status);
    assert_eq!(joint[0].detection_proba, solo0[0].detection_proba);
    assert_eq!(joint[1].detection_proba, solo1[0].detection_proba);
}
