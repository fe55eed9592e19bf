//! Algorithm 1: training and selection of the CamAL ensemble.
//!
//! For each candidate architecture spec (the kernel grid expanded through
//! the configured backbone family, plus any explicit extra candidates —
//! e.g. a TransApp attention detector) and each trial, a detector is
//! trained on an 80% sub-split of the training windows (cross-entropy on
//! the weak labels); candidates are ranked by loss on the validation set
//! and the best `n` are kept, regardless of family. Candidate training runs
//! on parallel threads, each on serial kernels.

use crate::config::CamalConfig;
use nilm_data::windows::WindowSet;
use nilm_models::detector::{build_from_spec, BackboneSpec, Detector};
use nilm_tensor::layer::Mode;
use nilm_tensor::loss::cross_entropy;
use nilm_tensor::optim::{clip_grad_norm, Adam};
use nilm_tensor::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One trained candidate/member of the ensemble.
pub struct EnsembleMember {
    /// The trained detector.
    pub net: Box<dyn Detector>,
    /// The full architecture spec this member was built from.
    pub spec: BackboneSpec,
    /// Cross-entropy loss on the validation windows (selection criterion).
    pub val_loss: f32,
}

/// Statistics of one ensemble training run.
#[derive(Clone, Debug, Default)]
pub struct EnsembleStats {
    /// Candidates trained ( |candidate specs| × trials ).
    pub candidates: usize,
    /// Members selected.
    pub selected: usize,
    /// Validation losses of the selected members (ascending).
    pub selected_losses: Vec<f32>,
    /// Wall-clock seconds for the whole Algorithm 1 run.
    pub total_secs: f64,
    /// Sum over candidates of per-candidate training seconds (CPU work).
    pub candidate_secs_total: f64,
}

/// Trains one candidate of architecture `spec` on `train` and scores it on
/// `val`.
fn train_candidate(
    spec: BackboneSpec,
    cfg: &CamalConfig,
    train: &WindowSet,
    val: &WindowSet,
    seed: u64,
) -> (Box<dyn Detector>, f32, f64) {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = build_from_spec(&mut rng, spec);
    let mut opt = Adam::new(cfg.train.lr);
    let mut order_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    // Scratch buffers hoisted out of the epoch × batch loop: every chunk
    // refills the same tensor instead of allocating a fresh one.
    let mut x = Tensor::zeros(&[0]);
    let mut labels = Vec::new();
    for _ in 0..cfg.train.epochs {
        let order = train.shuffled_indices(&mut order_rng);
        for chunk in order.chunks(cfg.train.batch_size.max(1)) {
            train.batch_inputs_into(chunk, &mut x);
            train.batch_weak_labels_into(chunk, &mut labels);
            net.zero_grad();
            let logits = net.forward(&x, Mode::Train);
            let (_, grad) = cross_entropy(&logits, &labels);
            net.backward(&grad);
            if cfg.train.clip > 0.0 {
                clip_grad_norm(net.as_mut(), cfg.train.clip);
            }
            opt.step(net.as_mut());
        }
    }
    let val_loss = eval_loss(net.as_ref(), val, cfg.train.batch_size);
    (net, val_loss, start.elapsed().as_secs_f64())
}

/// Mean cross-entropy of `net` on `data` (weak labels), through stateless
/// inference: bit-identical to an eval-mode forward, without filling the
/// backward caches validation never reads.
pub fn eval_loss(net: &dyn Detector, data: &WindowSet, batch: usize) -> f32 {
    if data.is_empty() {
        return f32::INFINITY;
    }
    let indices: Vec<usize> = (0..data.len()).collect();
    let mut total = 0.0f64;
    let mut n = 0usize;
    let mut x = Tensor::zeros(&[0]);
    let mut labels = Vec::new();
    for chunk in indices.chunks(batch.max(1)) {
        data.batch_inputs_into(chunk, &mut x);
        data.batch_weak_labels_into(chunk, &mut labels);
        let logits = net.infer(&x);
        let (loss, _) = cross_entropy(&logits, &labels);
        total += loss as f64 * chunk.len() as f64;
        n += chunk.len();
    }
    (total / n as f64) as f32
}

/// Runs Algorithm 1 and returns the selected members (ascending val loss)
/// plus run statistics.
///
/// `threads` caps the number of concurrently training candidates
/// (1 = sequential, useful for timing experiments). Training uses one level
/// of parallelism: with more than one worker every candidate runs its
/// kernels serially ([`nilm_tensor::dispatch::with_serial_kernels`]), and a
/// single worker lets each kernel fan out over the pool instead. Either way
/// the members are bit-identical.
pub fn train_ensemble(
    cfg: &CamalConfig,
    train_set: &WindowSet,
    val_set: &WindowSet,
    threads: usize,
) -> (Vec<EnsembleMember>, EnsembleStats) {
    assert!(!train_set.is_empty(), "cannot train the ensemble on an empty training set");
    let start = Instant::now();
    // Algorithm 1 line 1: split D_train into 80% train-sub / 20% val-sub to
    // monitor training; selection uses the separate validation dataset.
    let mut split_rng = StdRng::seed_from_u64(cfg.seed ^ 0x80);
    let balanced;
    let train_for_members = if cfg.balance {
        balanced = train_set.balance_undersample(&mut split_rng);
        &balanced
    } else {
        train_set
    };
    let (train_sub, _val_sub) = train_for_members.split_train_val(0.2, &mut split_rng);

    // Candidate grid: every spec × every trial. Salts are a pure function
    // of the grid definition, never of scheduling: kernel-grid candidates
    // keep the historical `(kernel << 32) | trial` salt (so pure-ResNet
    // configs reproduce pre-spec checkpoints exactly), while extra spec
    // candidates salt by their position in `cfg.candidates` under a
    // distinct high tag that cannot collide with any 32-bit kernel.
    let kernel_specs = cfg.kernels.len();
    let salted: Vec<(BackboneSpec, u64)> = cfg
        .candidate_specs()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let base = match spec.kernel() {
                Some(k) if i < kernel_specs => (k as u64) << 32,
                _ => 0xB5ACu64 << 48 | ((i - kernel_specs) as u64) << 32,
            };
            (spec, base)
        })
        .collect();
    let jobs: Vec<(BackboneSpec, u64)> = salted
        .iter()
        .flat_map(|&(spec, base)| (0..cfg.trials.max(1)).map(move |t| (spec, base | t as u64)))
        .collect();

    // Shared work queue over one thread scope: each worker pops the next
    // job index as soon as it finishes its previous candidate, so a slow
    // candidate never idles the remaining cores (the old implementation
    // barriered on `chunks(threads)`). Each job's RNG seed depends only on
    // its (kernel, trial) salt and results land in per-job slots, so the
    // outcome is identical for any thread count.
    let threads = threads.max(1).min(jobs.len().max(1));
    // One level of parallelism: with several workers the candidates already
    // occupy the cores, so each trains on serial kernels (as fleet shards
    // do); a lone worker keeps the kernels' own fan-out.
    let run_job = |spec, salt| {
        let train = || train_candidate(spec, cfg, &train_sub, val_set, cfg.seed ^ salt);
        if threads > 1 {
            nilm_tensor::dispatch::with_serial_kernels(train)
        } else {
            train()
        }
    };
    let slots: Mutex<Vec<Option<(BackboneSpec, Box<dyn Detector>, f32, f64)>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let next_job = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(&(spec, salt)) = jobs.get(i) else {
                    break;
                };
                let (net, loss, secs) = run_job(spec, salt);
                slots.lock().expect("result slots poisoned")[i] = Some((spec, net, loss, secs));
            });
        }
    });
    let mut results: Vec<(BackboneSpec, Box<dyn Detector>, f32, f64)> = slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("worker completed every popped job"))
        .collect();

    let candidate_secs_total: f64 = results.iter().map(|r| r.3).sum();
    let candidates = results.len();
    // Rank by validation loss (NaN losses sink to the end).
    results.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Greater));
    results.truncate(cfg.n_ensemble.max(1));

    let selected_losses: Vec<f32> = results.iter().map(|r| r.2).collect();
    let members = results
        .into_iter()
        .map(|(spec, net, val_loss, _)| EnsembleMember { net, spec, val_loss })
        .collect::<Vec<_>>();
    let stats = EnsembleStats {
        candidates,
        selected: members.len(),
        selected_losses,
        total_secs: start.elapsed().as_secs_f64(),
        candidate_secs_total,
    };
    (members, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;
    use crate::test_support::toy_set;
    use nilm_models::TrainConfig;

    fn fast_cfg() -> CamalConfig {
        CamalConfig {
            n_ensemble: 2,
            kernels: vec![5, 9],
            trials: 1,
            width_div: 16,
            train: TrainConfig { epochs: 3, batch_size: 8, lr: 2e-3, clip: 0.0, seed: 3 },
            ..Default::default()
        }
    }

    #[test]
    fn algorithm1_selects_n_members_sorted_by_val_loss() {
        let train = toy_set(24, 32, 1);
        let val = toy_set(8, 32, 2);
        let (members, stats) = train_ensemble(&fast_cfg(), &train, &val, 2);
        assert_eq!(members.len(), 2);
        assert_eq!(stats.candidates, 2);
        assert!(members[0].val_loss <= members[1].val_loss);
        assert!(stats.total_secs > 0.0);
    }

    #[test]
    fn trained_ensemble_detects_toy_signal() {
        let train = toy_set(32, 32, 3);
        let val = toy_set(8, 32, 4);
        let mut cfg = fast_cfg();
        cfg.train.epochs = 8;
        let (members, _) = train_ensemble(&cfg, &train, &val, 2);
        // Evaluate detection accuracy on fresh data.
        let test = toy_set(16, 32, 5);
        let idx: Vec<usize> = (0..test.len()).collect();
        let x = test.batch_inputs(&idx);
        let mut correct = 0;
        let probs = members[0].net.predict_proba(&x);
        for (i, w) in test.windows.iter().enumerate() {
            let p1 = probs.at2(i, 1);
            if (p1 > 0.5) == (w.weak_label == 1) {
                correct += 1;
            }
        }
        assert!(correct >= 12, "detection too weak: {correct}/16");
    }

    #[test]
    fn eval_loss_empty_set_is_infinite() {
        let train = toy_set(8, 16, 6);
        let cfg = fast_cfg();
        let (members, _) = train_ensemble(&cfg, &train, &train, 1);
        let empty = WindowSet::default();
        assert_eq!(eval_loss(members[0].net.as_ref(), &empty, 4), f32::INFINITY);
    }

    #[test]
    fn selection_is_invariant_to_thread_count() {
        // The work-queue scheduler must be a pure performance knob: member
        // selection (kernels, losses, weights) is bit-identical whether the
        // candidates trained on 1 thread or 4.
        let train = toy_set(24, 32, 11);
        let val = toy_set(8, 32, 12);
        let mut cfg = fast_cfg();
        cfg.kernels = vec![5, 7, 9];
        cfg.trials = 2;
        cfg.n_ensemble = 3;
        let (m1, s1) = train_ensemble(&cfg, &train, &val, 1);
        let (m4, s4) = train_ensemble(&cfg, &train, &val, 4);
        assert_eq!(s1.candidates, s4.candidates);
        let summary = |ms: &[EnsembleMember]| -> Vec<(BackboneSpec, u32)> {
            ms.iter().map(|m| (m.spec, m.val_loss.to_bits())).collect()
        };
        assert_eq!(summary(&m1), summary(&m4), "selection depends on thread count");
        for (mut a, mut b) in m1.into_iter().zip(m4) {
            assert_eq!(a.net.save_state(), b.net.save_state(), "member weights differ");
        }
    }

    #[test]
    fn several_workers_train_on_serial_kernels() {
        // One level of parallelism: with two workers every convolution of
        // every candidate runs on one kernel thread, and the members equal
        // the single-worker run's (whose kernels fan out). No other test
        // uses this window length, so the kernel-table rows with
        // `n = batch · WINDOW` (batch ≤ 8) are this test's alone.
        const WINDOW: usize = 41;
        let train = toy_set(16, WINDOW, 31);
        let val = toy_set(8, WINDOW, 32);
        let cfg = fast_cfg();
        let (m2, s2) = train_ensemble(&cfg, &train, &val, 2);
        let rows: Vec<_> = nilm_obs::kernel::stats()
            .into_iter()
            .filter(|(k, _)| k.op == "conv_fwd" && k.n % WINDOW == 0 && k.n <= 8 * WINDOW)
            .collect();
        assert!(!rows.is_empty(), "no conv_fwd row at window {WINDOW}");
        for (key, _) in &rows {
            assert_eq!(key.threads, 1, "a candidate's kernel fanned out: {key:?}");
        }
        let (m1, s1) = train_ensemble(&cfg, &train, &val, 1);
        assert_eq!(s1.selected_losses, s2.selected_losses);
        for (mut a, mut b) in m1.into_iter().zip(m2) {
            assert_eq!((a.spec, a.val_loss.to_bits()), (b.spec, b.val_loss.to_bits()));
            assert_eq!(a.net.save_state(), b.net.save_state(), "member weights differ");
        }
    }

    #[test]
    fn mixed_spec_selection_is_invariant_to_thread_count() {
        // The heterogeneous grid (ResNet kernels + an explicit TransApp
        // candidate) must select identically — specs, losses, and weights
        // bit-for-bit — whether candidates trained on 1 thread or 4.
        let train = toy_set(24, 32, 15);
        let val = toy_set(8, 32, 16);
        let mut cfg = fast_cfg();
        cfg.kernels = vec![5, 9];
        cfg.candidates = vec![BackboneSpec::TransApp {
            d_model: 8,
            heads: 2,
            d_ff: 16,
            layers: 1,
            downsample: 4,
        }];
        cfg.trials = 2;
        cfg.n_ensemble = 4;
        let (m1, s1) = train_ensemble(&cfg, &train, &val, 1);
        let (m4, s4) = train_ensemble(&cfg, &train, &val, 4);
        assert_eq!(s1.candidates, 6, "3 specs x 2 trials");
        assert_eq!(s1.candidates, s4.candidates);
        let summary = |ms: &[EnsembleMember]| -> Vec<(BackboneSpec, u32)> {
            ms.iter().map(|m| (m.spec, m.val_loss.to_bits())).collect()
        };
        assert_eq!(summary(&m1), summary(&m4), "mixed selection depends on thread count");
        for (mut a, mut b) in m1.into_iter().zip(m4) {
            assert_eq!(a.net.save_state(), b.net.save_state(), "member weights differ");
        }
    }

    #[test]
    fn extra_candidates_enter_the_sweep_and_can_be_selected() {
        // With the TransApp candidate as the only spec, every selected
        // member must be a transformer.
        let train = toy_set(16, 32, 17);
        let mut cfg = fast_cfg();
        cfg.kernels = Vec::new();
        cfg.candidates = vec![BackboneSpec::TransApp {
            d_model: 8,
            heads: 2,
            d_ff: 16,
            layers: 1,
            downsample: 4,
        }];
        cfg.n_ensemble = 1;
        let (members, stats) = train_ensemble(&cfg, &train, &train, 2);
        assert_eq!(stats.candidates, 1);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].spec.family(), "transapp");
    }

    #[test]
    fn gradient_clipping_changes_training_when_enabled() {
        // `train_candidate` must honor `cfg.train.clip` (the historical bug
        // silently ignored it): an aggressively small clip produces
        // different weights than no clip under the same seed.
        let train = toy_set(16, 32, 13);
        let val = toy_set(8, 32, 14);
        let mut clipped = fast_cfg();
        clipped.train.clip = 1e-3;
        let mut unclipped = clipped.clone();
        unclipped.train.clip = 0.0;
        let (mut mc, _) = train_ensemble(&clipped, &train, &val, 1);
        let (mut mu, _) = train_ensemble(&unclipped, &train, &val, 1);
        assert_ne!(
            mc[0].net.save_state(),
            mu[0].net.save_state(),
            "clip had no effect on training"
        );
    }

    #[test]
    fn kernel_grid_times_trials_candidates() {
        let train = toy_set(12, 16, 7);
        let mut cfg = fast_cfg();
        cfg.kernels = vec![5, 7, 9];
        cfg.trials = 2;
        cfg.n_ensemble = 4;
        let (members, stats) = train_ensemble(&cfg, &train, &train, 3);
        assert_eq!(stats.candidates, 6);
        assert_eq!(members.len(), 4);
    }
}
