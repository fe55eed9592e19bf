//! Cross-crate integration tests: simulator → preprocessing → CamAL →
//! metrics, exercised end to end at smoke scale.

use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;
use nilm_models::TrainConfig;

fn fast_cfg() -> CamalConfig {
    CamalConfig {
        n_ensemble: 2,
        kernels: vec![5, 9],
        trials: 1,
        width_div: 16,
        train: TrainConfig { epochs: 6, batch_size: 16, lr: 2e-3, clip: 0.0, seed: 1 },
        ..CamalConfig::default()
    }
}

fn small_dataset(seed: u64) -> Dataset {
    let scale =
        ScaleOverride { submetered_houses: Some(6), days_per_house: Some(3), ..Default::default() };
    generate_dataset(&refit(), scale, seed)
}

#[test]
fn camal_beats_trivial_baselines_on_simulated_refit() {
    let ds = small_dataset(99);
    let case = prepare_case(&ds, ApplianceKind::Kettle, 128, &SplitConfig::default());
    let model = CamalModel::train(&fast_cfg(), &case.train, &case.val, 4);
    let report = model.evaluate(&case.test, 2000.0, 16);

    // Trivial baselines computed on the same test windows.
    let mut all_on = nilm_metrics::Confusion::default();
    let mut all_off = nilm_metrics::Confusion::default();
    for w in &case.test.windows {
        for &t in &w.status {
            all_on.push(true, t != 0);
            all_off.push(false, t != 0);
        }
    }
    assert!(
        report.localization.f1 > all_on.f1(),
        "CamAL F1 {:.3} must beat always-ON {:.3}",
        report.localization.f1,
        all_on.f1()
    );
    assert!(report.detection.balanced_accuracy > 0.6);
}

#[test]
fn pipeline_is_deterministic_given_seeds() {
    let ds = small_dataset(5);
    let case = prepare_case(&ds, ApplianceKind::Kettle, 128, &SplitConfig::default());
    let cfg = fast_cfg();
    let m1 = CamalModel::train(&cfg, &case.train, &case.val, 1);
    let m2 = CamalModel::train(&cfg, &case.train, &case.val, 1);
    let r1 = m1.evaluate(&case.test, 2000.0, 16);
    let r2 = m2.evaluate(&case.test, 2000.0, 16);
    assert_eq!(r1.localization.f1, r2.localization.f1);
    assert_eq!(r1.energy.mae, r2.energy.mae);
}

#[test]
fn power_estimates_never_exceed_aggregate() {
    let ds = small_dataset(17);
    let case = prepare_case(&ds, ApplianceKind::Dishwasher, 128, &SplitConfig::default());
    let model = CamalModel::train(&fast_cfg(), &case.train, &case.val, 4);
    let loc = model.localize_set(&case.test, 16);
    for (i, w) in case.test.windows.iter().enumerate() {
        let est = camal::estimate_power(&loc.status[i], 800.0, &w.aggregate_w);
        for (p, x) in est.iter().zip(&w.aggregate_w) {
            assert!(*p <= x.max(0.0) + 1e-3, "estimate {p} exceeds aggregate {x}");
        }
    }
}

#[test]
fn weak_labels_are_consistent_with_strong_labels() {
    let ds = small_dataset(31);
    for kind in [ApplianceKind::Kettle, ApplianceKind::Dishwasher] {
        let case = prepare_case(&ds, kind, 128, &SplitConfig::default());
        for split in [&case.train, &case.val, &case.test] {
            for w in &split.windows {
                let any_on = w.status.iter().any(|&s| s == 1);
                assert_eq!(any_on, w.weak_label == 1, "weak label inconsistent");
            }
        }
    }
}

#[test]
fn soft_label_round_trip_trains_a_baseline() {
    use nilm_eval::runner::evaluate_frame_model;
    use nilm_models::baselines::BaselineKind;
    use nilm_models::train_soft;

    let ds = small_dataset(43);
    let case = prepare_case(&ds, ApplianceKind::Kettle, 128, &SplitConfig::default());
    let camal_model = CamalModel::train(&fast_cfg(), &case.train, &case.val, 4);
    let soft = camal_model.soft_labels(&case.train, 16);
    assert_eq!(soft.len(), case.train.len());

    let mut rng = nilm_tensor::init::rng(3);
    let mut baseline = BaselineKind::TpNilm.build(&mut rng, 16);
    let cfg = TrainConfig { epochs: 2, ..Default::default() };
    let stats = train_soft(baseline.as_mut(), &case.train, &soft, &cfg);
    assert!(stats.final_loss().is_finite());
    let report = evaluate_frame_model(baseline.as_mut(), &case.test, 2000.0);
    assert!(report.localization.f1.is_finite());
}

/// Serving equivalence across compute backends: the streaming service, the
/// fleet scheduler and the HTTP gateway must each return **byte-identical**
/// response JSON whether the kernels underneath are naive or lowered. The
/// backend is flipped with [`set_forced_backend`] rather than the
/// `NILM_BACKEND` env var (which is latched once per process); the flip is
/// process-global, but both backends are bit-identical on every build, so
/// concurrently running tests cannot observe a numeric difference.
#[test]
fn serving_surfaces_are_backend_invariant() {
    use camal::ensemble::EnsembleMember;
    use camal::fleet::{serve_fleet, FleetConfig};
    use camal::registry::{ModelKey, ModelRegistry};
    use camal::stream::{serve, HouseholdSeries, StreamConfig};
    use nilm_data::series::TimeSeries;
    use nilm_data::templates::{template, DatasetId};
    use nilm_models::detector::{build_from_spec, BackboneSpec};
    use nilm_serve::gateway::{Gateway, GatewayConfig};
    use nilm_serve::http::read_response;
    use nilm_serve::protocol::{localize_request, localize_response, Detail, HouseholdRow};
    use nilm_tensor::dispatch::{set_forced_backend, Backend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    const WINDOW: usize = 32;

    /// Untrained-but-deterministic model: same seed → identical weights, so
    /// each serving surface gets its own equal copy. Deliberately
    /// heterogeneous — two ResNets plus a TransApp — so the invariance check
    /// also covers the attention GEMMs (QKᵀ, attention-weighted V, and the
    /// feed-forward projections).
    fn model(seed: u64) -> CamalModel {
        let specs = [
            BackboneSpec::ResNet { kernel: 5, width_div: 16 },
            BackboneSpec::ResNet { kernel: 9, width_div: 16 },
            BackboneSpec::TransApp { d_model: 16, heads: 2, d_ff: 32, layers: 1, downsample: 4 },
        ];
        let cfg = CamalConfig {
            n_ensemble: specs.len(),
            kernels: vec![5, 9],
            candidates: vec![specs[2]],
            trials: 1,
            width_div: 16,
            ..CamalConfig::default()
        };
        let members = specs
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
                EnsembleMember {
                    net: build_from_spec(&mut rng, spec),
                    spec,
                    val_loss: 0.5 + i as f32,
                }
            })
            .collect();
        let mut m = CamalModel::from_members(cfg, members);
        m.set_window(WINDOW);
        m
    }

    fn household(n_windows: usize, seed: u64) -> HouseholdSeries {
        let mut rng = nilm_tensor::init::rng(seed);
        let n = n_windows * WINDOW + 3;
        let values = (0..n)
            .map(|t| {
                let base = if (t / 10) % 3 == 0 { 2100.0 } else { 130.0 };
                base + nilm_tensor::init::randn(&mut rng).abs() * 20.0
            })
            .collect();
        HouseholdSeries { id: format!("house-{seed}"), series: TimeSeries::new(values, 60) }
    }

    // Restores autotuned dispatch even if an assertion below panics.
    struct RestoreBackend;
    impl Drop for RestoreBackend {
        fn drop(&mut self) {
            set_forced_backend(None);
        }
    }
    let _restore = RestoreBackend;

    let key = ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle);
    let keys = [key];
    let households = vec![household(4, 42), household(3, 7)];
    let tmpl = template(key.dataset);
    let avg = tmpl.case(key.appliance).map(|c| c.avg_power_w).unwrap_or(1000.0);

    let stream_model = model(1);
    let stream_cfg = StreamConfig {
        window: WINDOW,
        step_s: tmpl.step_s,
        max_ffill_s: 3 * tmpl.step_s,
        batch: 16,
        appliance: Some(key.appliance),
        avg_power_w: avg,
    };

    let mut fleet_registry = ModelRegistry::unbounded();
    fleet_registry.insert(key, model(1));
    let fleet_cfg = FleetConfig::at_step(tmpl.step_s);

    let mut gateway_registry = ModelRegistry::unbounded();
    gateway_registry.insert(key, model(1));
    let gateway = Gateway::start(
        gateway_registry,
        GatewayConfig { read_timeout: Duration::from_secs(5), ..GatewayConfig::default() },
    )
    .expect("gateway starts");
    let addr = gateway.addr().to_string();
    let request_body = localize_request(&keys, &households, Detail::Full).to_compact();

    let backends = Backend::all();
    let mut per_backend: Vec<(String, String, String)> = Vec::new();
    for &backend in &backends {
        set_forced_backend(Some(backend));

        let timelines = serve(&stream_model, &households, &stream_cfg);
        let rows: Vec<HouseholdRow> = households
            .iter()
            .enumerate()
            .map(|(hi, hh)| HouseholdRow {
                id: &hh.id,
                degraded: None,
                timelines: vec![&timelines[hi]],
            })
            .collect();
        let stream_body = localize_response(&keys, &rows, Detail::Full).to_compact();

        let result =
            serve_fleet(&mut fleet_registry, &keys, &households, &fleet_cfg).expect("fleet pass");
        let rows: Vec<HouseholdRow> = households
            .iter()
            .enumerate()
            .map(|(hi, hh)| HouseholdRow {
                id: &hh.id,
                degraded: None,
                timelines: vec![result.timeline(hi, key).expect("timeline")],
            })
            .collect();
        let fleet_body = localize_response(&keys, &rows, Detail::Full).to_compact();

        let stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let request = format!(
            "POST /v1/localize HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{request_body}",
            request_body.len()
        );
        (&stream).write_all(request.as_bytes()).expect("send");
        let mut reader = BufReader::new(&stream);
        let response = read_response(&mut reader).expect("response");
        assert_eq!(response.status, 200, "{backend:?}");
        let gateway_body = response.body_str().expect("UTF-8 body").to_string();

        per_backend.push((stream_body, fleet_body, gateway_body));
    }
    set_forced_backend(None);
    gateway.shutdown();

    let (s0, f0, g0) = &per_backend[0];
    assert!(s0.contains("\"status\""), "stream response looks empty: {s0}");
    for (i, (s, f, g)) in per_backend.iter().enumerate() {
        let b = backends[i];
        assert_eq!(s, s0, "stream::serve diverged on {b:?} vs {:?}", backends[0]);
        assert_eq!(f, f0, "serve_fleet diverged on {b:?} vs {:?}", backends[0]);
        assert_eq!(g, g0, "gateway diverged on {b:?} vs {:?}", backends[0]);
    }
}

#[test]
fn possession_only_training_works_end_to_end() {
    let scale = ScaleOverride {
        submetered_houses: Some(4),
        possession_only_houses: Some(12),
        days_per_house: Some(3),
    };
    let ds = generate_dataset(&ideal(), scale, 8);
    let case = prepare_possession_case(&ds, ApplianceKind::Shower, 64, &SplitConfig::default());
    assert!(case.train.positives() > 0, "need positive survey houses");
    assert!(case.train.positives() < case.train.len(), "need negative survey houses");
    let model = CamalModel::train(&fast_cfg(), &case.train, &case.val, 4);
    let report = model.evaluate(&case.test, 8000.0, 16);
    assert!(report.localization.f1.is_finite());
    assert!(report.detection.balanced_accuracy >= 0.4);
}
