//! Backward compatibility of the checkpoint format: a committed v2 file
//! (written before [`BackboneSpec`] existed, when members stored a bare
//! kernel) must keep loading — with the kernel widened into a ResNet spec —
//! and must serve bit-identically to the model that produced it.
//!
//! The fixture was generated by the v2 writer from an untrained two-member
//! ResNet model (kernels 5 and 9, `width_div` 16, member RNG seeds `42 + i`,
//! window 64), which is why the expected model can be reconstructed here
//! instead of shipping golden outputs.

use camal::ensemble::EnsembleMember;
use camal::{persist, CamalConfig, CamalModel};
use nilm_models::{build_from_spec, Backbone, BackboneSpec};
use nilm_tensor::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &[u8] = include_bytes!("fixtures/v2_resnet.ckpt");

/// Rebuilds the exact (untrained) model the fixture was serialized from.
fn fixture_source_model() -> CamalModel {
    let kernels = [5usize, 9];
    let cfg = CamalConfig {
        n_ensemble: kernels.len(),
        kernels: kernels.to_vec(),
        trials: 1,
        width_div: 16,
        backbone: Backbone::ResNet,
        ..Default::default()
    };
    let members = kernels
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut rng = StdRng::seed_from_u64(42 + i as u64);
            let spec = BackboneSpec::ResNet { kernel: k, width_div: cfg.width_div };
            EnsembleMember {
                net: build_from_spec(&mut rng, spec),
                spec,
                val_loss: 0.1 * (i + 1) as f32,
            }
        })
        .collect();
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(64);
    model
}

fn probe_batch(b: usize, seed: u64) -> Tensor {
    let mut rng = nilm_tensor::init::rng(seed);
    nilm_tensor::init::randn_tensor(&mut rng, &[b, 1, 64], 1.0)
}

fn f32_bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn fixture_really_is_version_2() {
    assert_eq!(&FIXTURE[..8], b"CAMALCKP");
    let version = u32::from_le_bytes(FIXTURE[8..12].try_into().unwrap());
    assert_eq!(version, 2, "fixture must stay a genuine v2 file");
}

#[test]
fn v2_checkpoint_loads_with_resnet_specs() {
    let back = CamalModel::from_bytes(FIXTURE).expect("v2 fixture must keep loading");
    assert_eq!(
        back.member_specs(),
        vec![
            BackboneSpec::ResNet { kernel: 5, width_div: 16 },
            BackboneSpec::ResNet { kernel: 9, width_div: 16 },
        ],
        "v2 member kernels must widen into ResNet specs"
    );
    assert_eq!(back.window(), 64);
    assert_eq!(back.config().kernels, vec![5, 9]);
    assert!(back.config().candidates.is_empty(), "v2 predates the candidate grid");
}

#[test]
fn v2_checkpoint_serves_bit_identically_to_its_source_model() {
    let expected = fixture_source_model();
    let back = CamalModel::from_bytes(FIXTURE).expect("v2 fixture must keep loading");
    let x = probe_batch(5, 0xC0FFEE);
    let pa: Vec<u32> = expected.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
    let pb: Vec<u32> = back.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
    assert_eq!(pa, pb, "detect_proba changed across the v2 -> v3 format migration");
    let a = expected.localize_batch(&x);
    let b = back.localize_batch(&x);
    assert_eq!(a.status, b.status);
    assert_eq!(f32_bits(&a.scores), f32_bits(&b.scores));
    assert_eq!(f32_bits(&a.cam), f32_bits(&b.cam));
}

/// FNV-1a over a stream of words.
fn digest(words: impl Iterator<Item = u32>) -> u64 {
    words
        .flat_map(u32::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

fn bits_digest(rows: &[Vec<f32>]) -> u64 {
    digest(rows.iter().flatten().map(|v| v.to_bits()))
}

/// Golden outputs of the fixture on a fixed probe, recorded before the
/// ResNet's conv blocks were fused for inference: how a model is built and
/// run may change, what an old checkpoint says may not.
#[test]
fn v2_checkpoint_answers_match_the_recorded_golden_bits() {
    const PROBA_BITS: [u32; 6] =
        [1057227549, 1056578721, 1057543278, 1057259934, 1057585848, 1057644891];
    const STATUS_DIGEST: u64 = 15951105495025067029;
    const SCORES_DIGEST: u64 = 9083235962300723153;
    const CAM_DIGEST: u64 = 16089798595046478323;

    let back = CamalModel::from_bytes(FIXTURE).expect("v2 fixture must keep loading");
    let x = probe_batch(6, 0x601D);
    let proba: Vec<u32> = back.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
    let out = back.localize_batch(&x);
    let status = digest(out.status.iter().flatten().map(|&s| s as u32));
    let actual = (proba, status, bits_digest(&out.scores), bits_digest(&out.cam));
    let golden = (PROBA_BITS.to_vec(), STATUS_DIGEST, SCORES_DIGEST, CAM_DIGEST);
    assert_eq!(actual, golden, "the v2 fixture's answers changed");
}

#[test]
fn v2_checkpoint_resaves_as_v3_and_still_serves_identically() {
    let mut back = CamalModel::from_bytes(FIXTURE).expect("v2 fixture must keep loading");
    let upgraded = back.to_bytes();
    let version = u32::from_le_bytes(upgraded[8..12].try_into().unwrap());
    assert_eq!(version, persist::CHECKPOINT_VERSION, "re-save must upgrade the format");
    let v3 = CamalModel::from_bytes(&upgraded).expect("upgraded checkpoint must load");
    assert_eq!(v3.member_specs(), back.member_specs());
    let x = probe_batch(4, 0xFEED);
    let pa: Vec<u32> = back.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
    let pb: Vec<u32> = v3.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
    assert_eq!(pa, pb, "upgrade round-trip changed inference");
}

#[test]
fn corrupted_v2_checkpoint_is_still_crc_rejected() {
    // v2 files keep their CRC gate after the format bump: a flipped payload
    // bit must be rejected as a checksum mismatch, not load as a subtly
    // different model.
    let mut bad = FIXTURE.to_vec();
    bad[40] ^= 0x10;
    let err = match CamalModel::from_bytes(&bad) {
        Err(e) => e,
        Ok(_) => panic!("corrupted v2 fixture was accepted"),
    };
    assert!(format!("{err}").contains("CRC"), "{err}");
}
