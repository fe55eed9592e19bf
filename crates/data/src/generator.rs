//! Household simulator: composes appliance signatures, base load and noise
//! into aggregate smart-meter series with per-appliance ground truth,
//! following the additive model of the paper (Eq. 1):
//! `x(t) = Σ_j a_j(t) + ε(t)`.

use crate::appliance::ApplianceKind;
use crate::series::TimeSeries;
use crate::templates::{template, DatasetId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Base simulation resolution: one minute.
pub const BASE_STEP_S: u32 = 60;

/// Tunables for the household simulator.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Days of data to simulate per house.
    pub days: usize,
    /// Standard deviation of the measurement noise ε(t), in Watts.
    pub noise_w: f32,
    /// Probability per sample of starting a missing-data gap.
    pub missing_rate: f64,
    /// Mean missing-gap length in samples (geometric).
    pub mean_gap: f64,
    /// Mean base (always-on) load in Watts.
    pub base_load_w: f32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            days: 14,
            noise_w: 25.0,
            missing_rate: 0.0005,
            mean_gap: 3.0,
            base_load_w: 150.0,
        }
    }
}

/// One simulated household: aggregate signal, per-appliance ground truth and
/// the possession (ownership) set used for survey-style weak labels.
#[derive(Clone, Debug)]
pub struct House {
    /// Identifier unique within its dataset.
    pub id: usize,
    /// Mains signal at [`BASE_STEP_S`] resolution (NaN = missing).
    pub aggregate: TimeSeries,
    /// Ground-truth per-appliance power (only for owned appliances).
    pub submeters: BTreeMap<ApplianceKind, TimeSeries>,
    /// Appliances present in the household.
    pub possession: BTreeSet<ApplianceKind>,
}

impl House {
    /// True when the house owns `kind`.
    pub fn owns(&self, kind: ApplianceKind) -> bool {
        self.possession.contains(&kind)
    }
}

/// Draws an activation start hour from the appliance's diurnal profile.
fn sample_start_minute(rng: &mut StdRng, kind: ApplianceKind, day: usize) -> usize {
    let weights = kind.hour_weights();
    let total: f32 = weights.iter().sum();
    let mut pick = rng.random::<f32>() * total;
    let mut hour = 23;
    for (h, &w) in weights.iter().enumerate() {
        if pick < w {
            hour = h;
            break;
        }
        pick -= w;
    }
    let minute = rng.random_range(0..60);
    day * 24 * 60 + hour * 60 + minute
}

/// Simulates the always-cycling fridge over `n` minutes.
fn simulate_fridge(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    let mut t = 0usize;
    while t < n {
        let cycle = ApplianceKind::Fridge.signature(rng);
        for (i, &v) in cycle.iter().enumerate() {
            if t + i < n {
                out[t + i] = v;
            }
        }
        // Off period between compressor cycles.
        t += cycle.len() + rng.random_range(20..45);
    }
    out
}

/// Simulates one appliance's ground-truth power trace over `n` minutes.
fn simulate_appliance(rng: &mut StdRng, kind: ApplianceKind, days: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    for day in 0..days {
        let count = nilm_tensor::init::poisson(rng, kind.activations_per_day());
        for _ in 0..count {
            let start = sample_start_minute(rng, kind, day);
            let sig = kind.signature(rng);
            for (i, &v) in sig.iter().enumerate() {
                if start + i < n {
                    // Overlapping activations keep the maximum (a device
                    // cannot run two programs at once).
                    out[start + i] = out[start + i].max(v);
                }
            }
        }
    }
    out
}

/// Slowly varying residual base load (lighting, electronics, standby).
fn simulate_base_load(rng: &mut StdRng, base_w: f32, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
    let mut drift = 0.0f32;
    for t in 0..n {
        // Daily rhythm: more load in the evening.
        let day_pos = (t % (24 * 60)) as f32 / (24.0 * 60.0) * std::f32::consts::TAU;
        let daily = 0.5 + 0.35 * (day_pos - std::f32::consts::PI * 1.2 + phase).sin();
        drift = 0.995 * drift + 2.0 * (rng.random::<f32>() - 0.5);
        out.push((base_w * daily + drift * 5.0).max(10.0));
    }
    out
}

/// Injects NaN gaps into a series (meter outages / transmission losses).
fn inject_missing(rng: &mut StdRng, values: &mut [f32], rate: f64, mean_gap: f64) {
    let mut t = 0usize;
    while t < values.len() {
        if rng.random_bool(rate.clamp(0.0, 1.0)) {
            // Geometric gap length with the requested mean.
            let p = 1.0 / mean_gap.max(1.0);
            let mut len = 1usize;
            while !rng.random_bool(p) && len < 500 {
                len += 1;
            }
            let end = (t + len).min(values.len());
            for v in values[t..end].iter_mut() {
                *v = f32::NAN;
            }
            t += len;
        }
        t += 1;
    }
}

/// Simulates one household owning exactly `owned`.
pub fn generate_house(
    id: usize,
    owned: &BTreeSet<ApplianceKind>,
    cfg: &SimConfig,
    seed: u64,
) -> House {
    let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = cfg.days * 24 * 60;
    let mut aggregate = simulate_base_load(&mut rng, cfg.base_load_w, n);

    // Fridge contributes to every house but is not a localization target.
    let fridge = simulate_fridge(&mut rng, n);
    for (a, f) in aggregate.iter_mut().zip(&fridge) {
        *a += f;
    }

    let mut submeters = BTreeMap::new();
    for &kind in owned {
        if kind == ApplianceKind::Fridge {
            continue;
        }
        let trace = simulate_appliance(&mut rng, kind, cfg.days, n);
        for (a, v) in aggregate.iter_mut().zip(&trace) {
            *a += v;
        }
        submeters.insert(kind, TimeSeries::new(trace, BASE_STEP_S));
    }

    // Measurement noise, clipped at zero (meters never report negative W).
    for a in aggregate.iter_mut() {
        let eps = nilm_tensor::init::randn(&mut rng) * cfg.noise_w;
        *a = (*a + eps).max(0.0);
    }
    inject_missing(&mut rng, &mut aggregate, cfg.missing_rate, cfg.mean_gap);

    let mut possession = owned.clone();
    possession.insert(ApplianceKind::Fridge);
    House { id, aggregate: TimeSeries::new(aggregate, BASE_STEP_S), submeters, possession }
}

/// Samples an ownership set from per-appliance ownership probabilities,
/// forcing `forced` to be present when given.
pub fn sample_ownership(
    rng: &mut StdRng,
    candidates: &[ApplianceKind],
    forced: Option<ApplianceKind>,
) -> BTreeSet<ApplianceKind> {
    let mut owned = BTreeSet::new();
    for &k in candidates {
        if rng.random_bool(k.ownership_probability()) {
            owned.insert(k);
        }
    }
    if let Some(f) = forced {
        owned.insert(f);
    }
    owned
}

/// One household of a multi-dataset fleet scenario: the dataset template it
/// was drawn from (fixing its sampling step and appliance mix) plus the
/// simulated house itself.
#[derive(Clone, Debug)]
pub struct FleetHousehold {
    /// Template the household was simulated from.
    pub dataset: DatasetId,
    /// The simulated house (aggregate, submeters, possession set).
    pub house: House,
}

impl FleetHousehold {
    /// Stable identifier of the household within a scenario, e.g.
    /// `refit-h3`.
    pub fn label(&self) -> String {
        format!("{}-h{}", self.dataset.name(), self.house.id)
    }
}

/// Generates a multi-appliance serving scenario: `houses_per_template`
/// households from **each** of the given dataset templates, with ownership
/// sampled from the template's own appliance cases via [`sample_ownership`].
///
/// Every template's case appliance is round-robin forced into one household
/// in turn, so each (dataset, appliance) pair that a fleet might serve is
/// guaranteed at least one positive household — the same trick
/// [`crate::templates::generate_dataset`] uses. House ids are globally
/// unique across templates so fleet timelines can be keyed by label.
///
/// This is the workload the `camal::fleet` scheduler ingests: one feed per
/// household, many appliance detectors fanned out over it.
pub fn generate_fleet_scenario(
    ids: &[DatasetId],
    houses_per_template: usize,
    days: usize,
    seed: u64,
) -> Vec<FleetHousehold> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    let cfg = SimConfig { days, ..SimConfig::default() };
    let mut out = Vec::with_capacity(ids.len() * houses_per_template);
    let mut next_id = 0usize;
    for &id in ids {
        let tmpl = template(id);
        let candidates: Vec<ApplianceKind> = tmpl.cases.iter().map(|c| c.kind).collect();
        for i in 0..houses_per_template {
            let forced = Some(candidates[i % candidates.len()]);
            let owned = sample_ownership(&mut rng, &candidates, forced);
            out.push(FleetHousehold {
                dataset: id,
                house: generate_house(next_id, &owned, &cfg, seed.wrapping_add(3)),
            });
            next_id += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        SimConfig { days: 2, ..SimConfig::default() }
    }

    fn owned_set(kinds: &[ApplianceKind]) -> BTreeSet<ApplianceKind> {
        kinds.iter().copied().collect()
    }

    #[test]
    fn house_covers_requested_duration() {
        let house = generate_house(0, &owned_set(&[ApplianceKind::Kettle]), &small_cfg(), 42);
        assert_eq!(house.aggregate.len(), 2 * 24 * 60);
        assert_eq!(house.aggregate.step_s, BASE_STEP_S);
    }

    #[test]
    fn aggregate_dominates_submeters() {
        // Where not missing, aggregate ≥ submeter - noise margin (Eq. 1).
        let house = generate_house(1, &owned_set(&[ApplianceKind::Dishwasher]), &small_cfg(), 43);
        let sub = &house.submeters[&ApplianceKind::Dishwasher];
        let mut violations = 0;
        for (a, s) in house.aggregate.values.iter().zip(&sub.values) {
            if !a.is_nan() && *a + 200.0 < *s {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
    }

    #[test]
    fn unowned_appliances_have_no_submeter() {
        let house = generate_house(2, &owned_set(&[ApplianceKind::Kettle]), &small_cfg(), 44);
        assert!(house.submeters.get(&ApplianceKind::ElectricVehicle).is_none());
        assert!(house.owns(ApplianceKind::Kettle));
        assert!(!house.owns(ApplianceKind::ElectricVehicle));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        // Compare bit patterns so NaN gaps compare equal to themselves.
        fn bits(s: &TimeSeries) -> Vec<u32> {
            s.values.iter().map(|v| v.to_bits()).collect()
        }
        let owned = owned_set(&[ApplianceKind::Kettle, ApplianceKind::Dishwasher]);
        let a = generate_house(3, &owned, &small_cfg(), 7);
        let b = generate_house(3, &owned, &small_cfg(), 7);
        assert_eq!(bits(&a.aggregate), bits(&b.aggregate));
        let c = generate_house(3, &owned, &small_cfg(), 8);
        assert_ne!(bits(&a.aggregate), bits(&c.aggregate));
    }

    #[test]
    fn owned_appliance_actually_runs() {
        // Over 2 days a kettle (4/day Poisson) almost surely activates.
        let house = generate_house(4, &owned_set(&[ApplianceKind::Kettle]), &small_cfg(), 45);
        let sub = &house.submeters[&ApplianceKind::Kettle];
        let on = sub.values.iter().filter(|&&v| v > 500.0).count();
        assert!(on > 0, "kettle never ran in two days");
    }

    #[test]
    fn missing_rate_controls_gaps() {
        let mut cfg = small_cfg();
        cfg.missing_rate = 0.0;
        let clean = generate_house(5, &owned_set(&[ApplianceKind::Kettle]), &cfg, 46);
        assert_eq!(clean.aggregate.missing_count(), 0);
        cfg.missing_rate = 0.01;
        let gappy = generate_house(5, &owned_set(&[ApplianceKind::Kettle]), &cfg, 46);
        assert!(gappy.aggregate.missing_count() > 0);
    }

    #[test]
    fn fleet_scenario_covers_every_template_case() {
        let ids = [DatasetId::Refit, DatasetId::UkDale];
        let fleet = generate_fleet_scenario(&ids, 4, 2, 17);
        assert_eq!(fleet.len(), 8);
        // House ids are globally unique, labels carry the dataset.
        let mut seen = BTreeSet::new();
        for fh in &fleet {
            assert!(seen.insert(fh.house.id), "duplicate house id {}", fh.house.id);
            assert!(fh.label().starts_with(fh.dataset.name()));
        }
        // Round-robin forcing: every case appliance of each template owns at
        // least one household from that template.
        for &id in &ids {
            for case in &template(id).cases {
                let owners =
                    fleet.iter().filter(|fh| fh.dataset == id && fh.house.owns(case.kind)).count();
                assert!(owners > 0, "{:?}:{:?} has no positive household", id, case.kind);
            }
        }
    }

    #[test]
    fn fleet_scenario_is_deterministic_per_seed() {
        let ids = [DatasetId::Refit];
        let bits = |f: &[FleetHousehold]| -> Vec<Vec<u32>> {
            f.iter()
                .map(|fh| fh.house.aggregate.values.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let a = generate_fleet_scenario(&ids, 3, 2, 5);
        let b = generate_fleet_scenario(&ids, 3, 2, 5);
        assert_eq!(bits(&a), bits(&b));
        let c = generate_fleet_scenario(&ids, 3, 2, 6);
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn ownership_sampling_respects_forced() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let owned = sample_ownership(
                &mut r,
                ApplianceKind::targets(),
                Some(ApplianceKind::ElectricVehicle),
            );
            assert!(owned.contains(&ApplianceKind::ElectricVehicle));
        }
    }
}
