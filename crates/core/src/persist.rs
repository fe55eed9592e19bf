//! Checkpointing: save a trained [`CamalModel`] to a single binary file and
//! reload it in a fresh process with bit-identical inference behaviour.
//!
//! A checkpoint is the full [`CamalConfig`] plus, per ensemble member, the
//! member metadata (architecture spec, validation loss) and the backbone's
//! tensor-state blob in the [`nilm_tensor::serialize`] format. Loading
//! rebuilds each backbone through [`build_from_spec`] (the same constructor
//! used by training) and then overwrites every parameter and batch-norm
//! buffer from the blob, so the reconstructed ensemble reproduces
//! `detect_proba` and `localize_batch` bit-for-bit.
//!
//! ```
//! use camal::ensemble::EnsembleMember;
//! use camal::{CamalConfig, CamalModel};
//! use nilm_models::{build_from_spec, BackboneSpec};
//!
//! // A tiny untrained model round-trips bit-for-bit through bytes.
//! let cfg = CamalConfig { n_ensemble: 1, kernels: vec![5], width_div: 16, ..Default::default() };
//! let mut rng = nilm_tensor::init::rng(3);
//! let spec = BackboneSpec::ResNet { kernel: 5, width_div: 16 };
//! let member = EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.2 };
//! let mut model = CamalModel::from_members(cfg, vec![member]);
//! model.set_window(64);
//! let bytes = model.to_bytes();
//! let mut back = CamalModel::from_bytes(&bytes).unwrap();
//! assert_eq!(back.window(), 64);
//! assert_eq!(back.to_bytes(), bytes);
//! ```
//!
//! Layout (little-endian throughout; format v3):
//!
//! ```text
//! magic    [8]  b"CAMALCKP"
//! version  u32  CHECKPOINT_VERSION
//! config       backbone:u8, width_div:u32, n_ensemble:u32, trials:u32,
//!              detection_threshold:f32, attention_margin:f32,
//!              use_attention:u8, balance:u8,
//!              kernels: count:u32 + u32 each,
//!              candidates: count:u32 + spec each          (v3+)
//!              train: epochs:u32, batch_size:u32, lr:f32, clip:f32, seed:u64,
//!              seed:u64
//! window   u32 training window length (0 = unknown)
//! members  u32 count, then per member:
//!              spec, val_loss:f32, blob: len:u64 + bytes
//! crc      u32 IEEE CRC-32 of every preceding byte (magic through members)
//! ```
//!
//! where a `spec` record is a tag byte (0 = ResNet, 1 = InceptionTime,
//! 2 = TransApp) followed by the variant's fields as u32s (`kernel,
//! width_div` for the conv families; `d_model, heads, d_ff, layers,
//! downsample` for TransApp).
//!
//! Version history: v2 appended the IEEE CRC-32 footer and stored a bare
//! per-member `kernel:u32`; v3 replaced it with the full per-member spec
//! (and added the config's extra-candidate grid), so heterogeneous
//! ensembles persist. [`from_bytes`] still accepts v2 files — the stored
//! kernel is widened into a spec through the config's `backbone`/`width_div`,
//! which is exactly how v2 loading reconstructed members.
//!
//! The CRC footer (new in v2) is verified by [`from_bytes`] before any
//! payload parsing, so a torn or bit-flipped file fails loudly as a checksum
//! mismatch instead of as a confusing parse error deep in a member blob.
//! [`save`] writes through a same-directory temp file with `sync_all` and an
//! atomic rename, so a crash mid-save can never leave a partial checkpoint
//! at the target path.

use crate::config::CamalConfig;
use crate::ensemble::EnsembleMember;
use crate::model::CamalModel;
use nilm_models::detector::{build_from_spec, BackboneSpec};
use nilm_models::{Backbone, TrainConfig};
use nilm_tensor::serialize::{ByteReader, ByteWriter, SerializeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// File magic of a CamAL checkpoint.
pub const MAGIC: [u8; 8] = *b"CAMALCKP";

/// Current checkpoint version; bumped on any layout change.
/// v2 appended the IEEE CRC-32 footer; v3 replaced the per-member kernel
/// with a full [`BackboneSpec`] record (still loadable: see
/// [`MIN_SUPPORTED_VERSION`]).
pub const CHECKPOINT_VERSION: u32 = 3;

/// Oldest checkpoint version [`from_bytes`] still loads (v2: CRC-gated,
/// kernel-only member records).
pub const MIN_SUPPORTED_VERSION: u32 = 2;

/// IEEE CRC-32 (the zlib/ethernet polynomial, reflected) of `bytes`.
///
/// Exposed so tooling can recompute or verify the checkpoint footer without
/// a full [`from_bytes`] parse.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn backbone_tag(b: Backbone) -> u8 {
    match b {
        Backbone::ResNet => 0,
        Backbone::InceptionTime => 1,
    }
}

fn backbone_from_tag(tag: u8) -> Result<Backbone, SerializeError> {
    match tag {
        0 => Ok(Backbone::ResNet),
        1 => Ok(Backbone::InceptionTime),
        other => Err(SerializeError::Format(format!("unknown backbone tag {other}"))),
    }
}

fn write_spec(w: &mut ByteWriter, spec: BackboneSpec) {
    match spec {
        BackboneSpec::ResNet { kernel, width_div } => {
            w.put_u8(0);
            w.put_u32(kernel as u32);
            w.put_u32(width_div as u32);
        }
        BackboneSpec::InceptionTime { kernel, width_div } => {
            w.put_u8(1);
            w.put_u32(kernel as u32);
            w.put_u32(width_div as u32);
        }
        BackboneSpec::TransApp { d_model, heads, d_ff, layers, downsample } => {
            w.put_u8(2);
            w.put_u32(d_model as u32);
            w.put_u32(heads as u32);
            w.put_u32(d_ff as u32);
            w.put_u32(layers as u32);
            w.put_u32(downsample as u32);
        }
    }
}

fn read_spec(r: &mut ByteReader) -> Result<BackboneSpec, SerializeError> {
    match r.get_u8("spec tag")? {
        0 => Ok(BackboneSpec::ResNet {
            kernel: r.get_u32("spec kernel")? as usize,
            width_div: r.get_u32("spec width_div")? as usize,
        }),
        1 => Ok(BackboneSpec::InceptionTime {
            kernel: r.get_u32("spec kernel")? as usize,
            width_div: r.get_u32("spec width_div")? as usize,
        }),
        2 => Ok(BackboneSpec::TransApp {
            d_model: r.get_u32("spec d_model")? as usize,
            heads: r.get_u32("spec heads")? as usize,
            d_ff: r.get_u32("spec d_ff")? as usize,
            layers: r.get_u32("spec layers")? as usize,
            downsample: r.get_u32("spec downsample")? as usize,
        }),
        other => Err(SerializeError::Format(format!("unknown backbone spec tag {other}"))),
    }
}

fn write_config(w: &mut ByteWriter, cfg: &CamalConfig) {
    w.put_u8(backbone_tag(cfg.backbone));
    w.put_u32(cfg.width_div as u32);
    w.put_u32(cfg.n_ensemble as u32);
    w.put_u32(cfg.trials as u32);
    w.put_f32(cfg.detection_threshold);
    w.put_f32(cfg.attention_margin);
    w.put_u8(cfg.use_attention as u8);
    w.put_u8(cfg.balance as u8);
    w.put_u32(cfg.kernels.len() as u32);
    for &k in &cfg.kernels {
        w.put_u32(k as u32);
    }
    w.put_u32(cfg.candidates.len() as u32);
    for &spec in &cfg.candidates {
        write_spec(w, spec);
    }
    w.put_u32(cfg.train.epochs as u32);
    w.put_u32(cfg.train.batch_size as u32);
    w.put_f32(cfg.train.lr);
    w.put_f32(cfg.train.clip);
    w.put_u64(cfg.train.seed);
    w.put_u64(cfg.seed);
}

fn read_config(r: &mut ByteReader, version: u32) -> Result<CamalConfig, SerializeError> {
    let backbone = backbone_from_tag(r.get_u8("backbone tag")?)?;
    let width_div = r.get_u32("width_div")? as usize;
    let n_ensemble = r.get_u32("n_ensemble")? as usize;
    let trials = r.get_u32("trials")? as usize;
    let detection_threshold = r.get_f32("detection_threshold")?;
    let attention_margin = r.get_f32("attention_margin")?;
    let use_attention = r.get_u8("use_attention")? != 0;
    let balance = r.get_u8("balance")? != 0;
    let n_kernels = r.get_u32("kernel count")? as usize;
    if n_kernels > r.remaining() / 4 {
        // Guard before allocating: a corrupted count must become an error,
        // not a huge `with_capacity` request that aborts the process.
        return Err(SerializeError::Format(format!(
            "kernel count {n_kernels} exceeds remaining payload"
        )));
    }
    let mut kernels = Vec::with_capacity(n_kernels);
    for _ in 0..n_kernels {
        kernels.push(r.get_u32("kernel")? as usize);
    }
    let candidates = if version >= 3 {
        let n_candidates = r.get_u32("candidate count")? as usize;
        // Smallest spec record is tag + two u32 fields (conv families).
        if n_candidates > r.remaining() / 9 {
            return Err(SerializeError::Format(format!(
                "candidate count {n_candidates} exceeds remaining payload"
            )));
        }
        let mut candidates = Vec::with_capacity(n_candidates);
        for _ in 0..n_candidates {
            candidates.push(read_spec(r)?);
        }
        candidates
    } else {
        // v2 predates the extra-candidate grid: the kernel sweep was the
        // whole candidate set.
        Vec::new()
    };
    let train = TrainConfig {
        epochs: r.get_u32("epochs")? as usize,
        batch_size: r.get_u32("batch_size")? as usize,
        lr: r.get_f32("lr")?,
        clip: r.get_f32("clip")?,
        seed: r.get_u64("train seed")?,
    };
    let seed = r.get_u64("seed")?;
    Ok(CamalConfig {
        n_ensemble,
        kernels,
        trials,
        detection_threshold,
        attention_margin,
        use_attention,
        width_div,
        backbone,
        candidates,
        train,
        balance,
        seed,
    })
}

/// Serializes a model into checkpoint bytes (see the module docs for the
/// layout). `&mut` because walking layer state requires mutable access.
pub fn to_bytes(model: &mut CamalModel) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(CHECKPOINT_VERSION);
    write_config(&mut w, model.config());
    w.put_u32(model.window() as u32);
    let members = model.members_mut();
    w.put_u32(members.len() as u32);
    for member in members {
        write_spec(&mut w, member.spec);
        w.put_f32(member.val_loss);
        let blob = member.net.save_state();
        w.put_u64(blob.len() as u64);
        w.put_bytes(&blob);
    }
    let mut bytes = w.finish();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Reconstructs a model from checkpoint bytes. Rejects bad magic, unknown
/// versions, truncated or trailing data, and any member blob whose tensor
/// shapes do not match the architecture implied by the stored config.
pub fn from_bytes(bytes: &[u8]) -> Result<CamalModel, SerializeError> {
    // Probe magic and version first for precise error messages, then verify
    // the CRC footer over everything before it, and only then parse the
    // payload — any torn or bit-flipped file is caught as a checksum
    // mismatch rather than a parse error deep in a member blob.
    let mut probe = ByteReader::new(bytes);
    let magic = probe.get_bytes(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(SerializeError::Format(format!(
            "bad magic {magic:02x?}, expected {MAGIC:02x?} — not a CamAL checkpoint"
        )));
    }
    let version = probe.get_u32("version")?;
    if !(MIN_SUPPORTED_VERSION..=CHECKPOINT_VERSION).contains(&version) {
        return Err(SerializeError::Format(format!(
            "unsupported checkpoint version {version}, \
             expected {MIN_SUPPORTED_VERSION}..={CHECKPOINT_VERSION}"
        )));
    }
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(SerializeError::Format("checkpoint truncated before CRC footer".into()));
    }
    let (payload, footer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(footer.try_into().expect("footer is 4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(SerializeError::Format(format!(
            "checkpoint CRC mismatch: stored {stored:08x}, computed {computed:08x} — \
             file is torn or corrupt"
        )));
    }
    let mut r = ByteReader::new(payload);
    r.get_bytes(MAGIC.len(), "magic")?;
    r.get_u32("version")?;
    let cfg = read_config(&mut r, version)?;
    let window = r.get_u32("window length")? as usize;
    let n_members = r.get_u32("member count")? as usize;
    if n_members == 0 {
        return Err(SerializeError::Format("checkpoint holds no ensemble members".into()));
    }
    // Each member record is at least spec (or v2 kernel) + val_loss + blob
    // length.
    if n_members > r.remaining() / 16 {
        return Err(SerializeError::Format(format!(
            "member count {n_members} exceeds remaining payload"
        )));
    }
    let mut members = Vec::with_capacity(n_members);
    for i in 0..n_members {
        let spec = if version >= 3 {
            read_spec(&mut r)?
        } else {
            // v2 stored a bare kernel; the member architecture was implied by
            // the config's backbone family and width divisor, so widening it
            // into a spec reconstructs exactly what v2 loading built.
            let kernel = r.get_u32("member kernel")? as usize;
            BackboneSpec::from_kernel(cfg.backbone, kernel, cfg.width_div)
        };
        let val_loss = r.get_f32("member val_loss")?;
        let blob_len = r.get_u64("member state length")? as usize;
        let blob = r.get_bytes(blob_len, "member state")?;
        // The RNG only seeds the soon-overwritten init, but keep it
        // deterministic anyway so partial failures are reproducible.
        let mut rng = StdRng::seed_from_u64(0x10AD ^ i as u64);
        let mut net = build_from_spec(&mut rng, spec);
        net.load_state(blob).map_err(|e| match e {
            SerializeError::Format(msg) => {
                SerializeError::Format(format!("member {i} ({}): {msg}", spec.describe()))
            }
            io => io,
        })?;
        members.push(EnsembleMember { net, spec, val_loss });
    }
    r.expect_end()?;
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(window);
    Ok(model)
}

/// Sibling path used for the write-then-rename dance: same directory (so
/// the rename cannot cross filesystems), file name suffixed with `.tmp`.
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("checkpoint"));
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes a checkpoint file at `path` crash-safely: the bytes go to a
/// same-directory temp file, are flushed with `sync_all`, and only then
/// atomically renamed over `path`. A crash (or the injected
/// `persist.save.torn` fault) at any point leaves the previous checkpoint at
/// `path` untouched — never a partial file.
///
/// ```no_run
/// # fn trained_model() -> camal::CamalModel { unimplemented!() }
/// let mut model = trained_model();
/// camal::persist::save(&mut model, "refit_kettle.ckpt").unwrap();
/// ```
pub fn save(model: &mut CamalModel, path: impl AsRef<Path>) -> Result<(), SerializeError> {
    let path = path.as_ref();
    let bytes = to_bytes(model);
    let tmp = temp_sibling(path);
    if nilm_fault::fires("persist.save.torn") {
        // Simulate a crash mid-write: a truncated temp file is left behind
        // (as a real crash would) but the target path is never touched.
        let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
        return Err(SerializeError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected fault: persist.save.torn",
        )));
    }
    let result = (|| -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(SerializeError::from)
}

/// Loads a checkpoint file written by [`save`], verifying the CRC footer.
///
/// ```no_run
/// let mut model = camal::persist::load("refit_kettle.ckpt").unwrap();
/// assert!(model.ensemble_size() > 0);
/// ```
pub fn load(path: impl AsRef<Path>) -> Result<CamalModel, SerializeError> {
    let bytes = std::fs::read(&path)?;
    if nilm_fault::fires("persist.load.corrupt") {
        return Err(SerializeError::Format(format!(
            "injected fault: persist.load.corrupt while reading {}",
            path.as_ref().display()
        )));
    }
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::toy_set;

    fn untrained_model(backbone: Backbone, kernels: &[usize]) -> CamalModel {
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
                let mut rng = StdRng::seed_from_u64(42 + i as u64);
                let spec = BackboneSpec::from_kernel(backbone, k, cfg.width_div);
                EnsembleMember {
                    net: build_from_spec(&mut rng, spec),
                    spec,
                    val_loss: 0.1 * (i + 1) as f32,
                }
            })
            .collect();
        CamalModel::from_members(cfg, members)
    }

    /// An untrained model over an arbitrary spec list — the heterogeneous
    /// sibling of [`untrained_model`].
    fn untrained_model_from_specs(specs: &[BackboneSpec]) -> CamalModel {
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
                let mut rng = StdRng::seed_from_u64(42 + i as u64);
                EnsembleMember {
                    net: build_from_spec(&mut rng, spec),
                    spec,
                    val_loss: 0.1 * (i + 1) as f32,
                }
            })
            .collect();
        CamalModel::from_members(cfg, members)
    }

    #[test]
    fn roundtrip_preserves_config_and_members() {
        let mut model = untrained_model(Backbone::ResNet, &[5, 9]);
        model.set_window(96);
        let bytes = to_bytes(&mut model);
        let mut back = from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.ensemble_size(), 2);
        assert_eq!(
            back.member_specs(),
            vec![
                BackboneSpec::ResNet { kernel: 5, width_div: 16 },
                BackboneSpec::ResNet { kernel: 9, width_div: 16 },
            ]
        );
        assert_eq!(back.config().width_div, 16);
        assert_eq!(back.window(), 96, "training window length must survive the roundtrip");
        assert_eq!(to_bytes(&mut back), bytes, "re-serialization must be stable");
    }

    #[test]
    fn heterogeneous_roundtrip_preserves_specs_and_candidates() {
        let specs = [
            BackboneSpec::ResNet { kernel: 5, width_div: 16 },
            BackboneSpec::TransApp { d_model: 8, heads: 2, d_ff: 16, layers: 1, downsample: 4 },
            BackboneSpec::InceptionTime { kernel: 7, width_div: 16 },
        ];
        let mut model = untrained_model_from_specs(&specs);
        model.set_window(64);
        let bytes = to_bytes(&mut model);
        let mut back = from_bytes(&bytes).expect("heterogeneous roundtrip");
        assert_eq!(back.member_specs(), specs.to_vec());
        assert_eq!(back.config().candidates, specs.to_vec());
        assert_eq!(to_bytes(&mut back), bytes, "re-serialization must be stable");
    }

    #[test]
    fn roundtrip_localization_is_bit_identical() {
        let set = toy_set(6, 32, 21);
        let idx: Vec<usize> = (0..set.len()).collect();
        let x = set.batch_inputs(&idx);
        let mut model = untrained_model(Backbone::ResNet, &[5, 7]);
        let bytes = to_bytes(&mut model);
        let back = from_bytes(&bytes).unwrap();
        let a = model.localize_batch(&x);
        let b = back.localize_batch(&x);
        assert_eq!(a.status, b.status);
        let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
            v.iter().map(|r| r.iter().map(|s| s.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&a.scores), bits(&b.scores));
        assert_eq!(bits(&a.cam), bits(&b.cam));
        let pa: Vec<u32> = model.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u32> = back.detect_proba(&x).iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn wrong_magic_version_and_truncation_are_rejected() {
        let mut model = untrained_model(Backbone::ResNet, &[5]);
        let bytes = to_bytes(&mut model);
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0x55;
        assert!(from_bytes(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(from_bytes(&bad_version).is_err());
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(from_bytes(&trailing).is_err());
    }

    /// Recomputes the CRC footer after a test deliberately edits the payload,
    /// so the edit reaches the parser instead of tripping the checksum.
    fn refresh_crc(bytes: &mut [u8]) {
        let n = bytes.len() - 4;
        let crc = crc32(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn member_architecture_mismatch_is_rejected() {
        // Corrupt the stored kernel of member 0's spec record: the rebuilt
        // backbone then has different conv shapes than the blob and the load
        // must fail instead of silently mis-assigning weights.
        let mut model = untrained_model(Backbone::ResNet, &[5]);
        let mut bytes = to_bytes(&mut model);
        let kernel_pos = bytes.len()
            - 4  // CRC footer
            - model.members_mut()[0].net.save_state().len()
            - 8  // blob length
            - 4  // val_loss
            - 4  // spec width_div
            - 4; // spec kernel
        bytes[kernel_pos..kernel_pos + 4].copy_from_slice(&25u32.to_le_bytes());
        refresh_crc(&mut bytes);
        let err = match from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("mismatched member architecture was accepted"),
        };
        assert!(format!("{err}").contains("member 0"), "{err}");
    }

    #[test]
    fn unknown_spec_tag_is_rejected() {
        let mut model = untrained_model(Backbone::ResNet, &[5]);
        let mut bytes = to_bytes(&mut model);
        let tag_pos = bytes.len()
            - 4  // CRC footer
            - model.members_mut()[0].net.save_state().len()
            - 8  // blob length
            - 4  // val_loss
            - 8  // spec kernel + width_div
            - 1; // spec tag
        bytes[tag_pos] = 9;
        refresh_crc(&mut bytes);
        let err = match from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("unknown spec tag was accepted"),
        };
        assert!(format!("{err}").contains("spec tag"), "{err}");
    }

    #[test]
    fn pre_crc_versions_are_rejected() {
        // v1 files carried no CRC footer; loading one must fail on the
        // version gate, never by misreading payload bytes as a checksum.
        let mut model = untrained_model(Backbone::ResNet, &[5]);
        let mut bytes = to_bytes(&mut model);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = match from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("version 1 was accepted"),
        };
        assert!(format!("{err}").contains("unsupported checkpoint version"), "{err}");
    }

    #[test]
    fn crc_footer_detects_any_bit_flip() {
        let mut model = untrained_model(Backbone::ResNet, &[5]);
        let bytes = to_bytes(&mut model);
        // Flip one bit at a sampling of payload offsets past the version
        // field; every flip must be rejected as a CRC mismatch, not survive
        // as a silently different model.
        for pos in (13..bytes.len() - 4).step_by(101) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            let err = match from_bytes(&bad) {
                Err(e) => e,
                Ok(_) => panic!("bit flip at {pos} was accepted"),
            };
            assert!(format!("{err}").contains("CRC"), "offset {pos}: {err}");
        }
    }

    #[test]
    fn save_renames_atomically_and_cleans_temp() {
        let dir = std::env::temp_dir().join(format!("camal_persist_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let mut model = untrained_model(Backbone::ResNet, &[5]);
        save(&mut model, &path).unwrap();
        let mut back = load(&path).unwrap();
        assert_eq!(to_bytes(&mut back), to_bytes(&mut model));
        // No temp debris after a clean save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
