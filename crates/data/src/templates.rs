//! Dataset templates replicating Table I of the paper: UKDALE, REFIT, IDEAL
//! (39 submetered + 216 possession-only), EDF EV, and the survey-only
//! EDF Weak. Each template fixes the house count, resampling interval ∆t,
//! the forward-fill bound, and per-appliance ON-threshold / average power.
//!
//! The real datasets are private or large; the templates drive the
//! [`crate::generator`] simulator to produce synthetic datasets with the same
//! shape (see DESIGN.md §2 for the substitution rationale).

use crate::appliance::ApplianceKind;
use crate::generator::{generate_house, sample_ownership, House, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One appliance row of Table I: the localization case for a dataset.
#[derive(Clone, Copy, Debug)]
pub struct ApplianceCase {
    /// Target appliance.
    pub kind: ApplianceKind,
    /// "ON" threshold in Watts used to derive ground-truth status s(t).
    pub on_threshold_w: f32,
    /// Average running power P_a in Watts, used by the binary→power step.
    pub avg_power_w: f32,
}

/// Identifier for the five datasets of the paper.
///
/// Ordered (`Ord`) so it can key the sorted maps of `camal`'s model
/// registry; the derived order is the declaration order below, which is the
/// Table I row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DatasetId {
    /// UK-DALE: 5 houses, small appliances.
    UkDale,
    /// REFIT: 20 houses, four appliance cases.
    Refit,
    /// IDEAL: 39 submetered houses + 216 possession-only houses.
    Ideal,
    /// EDF EV: 24 houses with EV-charger submeters at 30-minute sampling.
    EdfEv,
    /// EDF Weak: 558 houses, possession labels only.
    EdfWeak,
}

impl DatasetId {
    /// Lowercase name used in CSVs and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::UkDale => "ukdale",
            DatasetId::Refit => "refit",
            DatasetId::Ideal => "ideal",
            DatasetId::EdfEv => "edf_ev",
            DatasetId::EdfWeak => "edf_weak",
        }
    }

    /// Parses [`Self::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "ukdale" => DatasetId::UkDale,
            "refit" => DatasetId::Refit,
            "ideal" => DatasetId::Ideal,
            "edf_ev" => DatasetId::EdfEv,
            "edf_weak" => DatasetId::EdfWeak,
            _ => return None,
        })
    }

    /// All five dataset identifiers, in Table I row order.
    pub fn all() -> [DatasetId; 5] {
        [
            DatasetId::UkDale,
            DatasetId::Refit,
            DatasetId::Ideal,
            DatasetId::EdfEv,
            DatasetId::EdfWeak,
        ]
    }
}

/// A dataset template: everything Table I specifies, plus the simulator
/// scale knobs used to synthesize it.
#[derive(Clone, Debug)]
pub struct DatasetTemplate {
    /// Which dataset this mirrors.
    pub id: DatasetId,
    /// Houses with submeter ground truth.
    pub submetered_houses: usize,
    /// Additional houses with possession labels only (IDEAL's 216, all of
    /// EDF Weak).
    pub possession_only_houses: usize,
    /// Resampling interval ∆t in seconds.
    pub step_s: u32,
    /// Maximum forward-fill gap in seconds (Table I "Max. ffill").
    pub max_ffill_s: u32,
    /// The appliance cases evaluated on this dataset.
    pub cases: Vec<ApplianceCase>,
    /// Days simulated per house (scaled-down stand-in for recording length).
    pub days_per_house: usize,
}

impl DatasetTemplate {
    /// Looks up a case by appliance kind.
    pub fn case(&self, kind: ApplianceKind) -> Option<&ApplianceCase> {
        self.cases.iter().find(|c| c.kind == kind)
    }
}

fn case(kind: ApplianceKind, on_threshold_w: f32, avg_power_w: f32) -> ApplianceCase {
    ApplianceCase { kind, on_threshold_w, avg_power_w }
}

/// The UKDALE template (Table I row 1): 5 houses, 3-min ffill,
/// dishwasher/microwave/kettle.
pub fn ukdale() -> DatasetTemplate {
    DatasetTemplate {
        id: DatasetId::UkDale,
        submetered_houses: 5,
        possession_only_houses: 0,
        step_s: 60,
        max_ffill_s: 3 * 60,
        cases: vec![
            case(ApplianceKind::Dishwasher, 300.0, 800.0),
            case(ApplianceKind::Microwave, 200.0, 1000.0),
            case(ApplianceKind::Kettle, 500.0, 2000.0),
        ],
        days_per_house: 10,
    }
}

/// The REFIT template (Table I row 2): 20 houses, four cases.
pub fn refit() -> DatasetTemplate {
    DatasetTemplate {
        id: DatasetId::Refit,
        submetered_houses: 20,
        possession_only_houses: 0,
        step_s: 60,
        max_ffill_s: 3 * 60,
        cases: vec![
            case(ApplianceKind::Dishwasher, 300.0, 800.0),
            case(ApplianceKind::WashingMachine, 300.0, 500.0),
            case(ApplianceKind::Microwave, 200.0, 1000.0),
            case(ApplianceKind::Kettle, 500.0, 2000.0),
        ],
        days_per_house: 6,
    }
}

/// The IDEAL template (Table I row 3): 39 submetered houses plus 216
/// possession-only houses, 30-min ffill, ∆t = 10 minutes.
pub fn ideal() -> DatasetTemplate {
    DatasetTemplate {
        id: DatasetId::Ideal,
        submetered_houses: 39,
        possession_only_houses: 216,
        step_s: 600,
        max_ffill_s: 30 * 60,
        cases: vec![
            case(ApplianceKind::Dishwasher, 300.0, 800.0),
            case(ApplianceKind::WashingMachine, 300.0, 500.0),
            case(ApplianceKind::Shower, 1000.0, 8000.0),
        ],
        days_per_house: 20,
    }
}

/// The EDF EV template (Table I row 4): 24 houses, 30-minute readings,
/// 1h30 ffill, electric-vehicle charger.
pub fn edf_ev() -> DatasetTemplate {
    DatasetTemplate {
        id: DatasetId::EdfEv,
        submetered_houses: 24,
        possession_only_houses: 0,
        step_s: 1800,
        max_ffill_s: 90 * 60,
        cases: vec![case(ApplianceKind::ElectricVehicle, 1000.0, 4000.0)],
        days_per_house: 40,
    }
}

/// The EDF Weak template (Table I row 5): survey-only, 558 houses, EV
/// possession labels, no submeters.
pub fn edf_weak() -> DatasetTemplate {
    DatasetTemplate {
        id: DatasetId::EdfWeak,
        submetered_houses: 0,
        possession_only_houses: 558,
        step_s: 1800,
        max_ffill_s: 90 * 60,
        cases: vec![case(ApplianceKind::ElectricVehicle, 1000.0, 4000.0)],
        days_per_house: 40,
    }
}

/// Looks up a template by id.
pub fn template(id: DatasetId) -> DatasetTemplate {
    match id {
        DatasetId::UkDale => ukdale(),
        DatasetId::Refit => refit(),
        DatasetId::Ideal => ideal(),
        DatasetId::EdfEv => edf_ev(),
        DatasetId::EdfWeak => edf_weak(),
    }
}

/// A generated dataset: simulated houses plus the template that shaped them.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The template this dataset instantiates.
    pub template: DatasetTemplate,
    /// Houses with submeter ground truth (first `submetered_houses`).
    pub houses: Vec<House>,
    /// Possession-only houses (no submeter traces retained).
    pub survey_houses: Vec<House>,
}

/// Scale overrides so experiments and tests can shrink datasets.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScaleOverride {
    /// Override the number of submetered houses.
    pub submetered_houses: Option<usize>,
    /// Override the number of possession-only houses.
    pub possession_only_houses: Option<usize>,
    /// Override days per house.
    pub days_per_house: Option<usize>,
}

/// Simulates a dataset from its template.
///
/// Half the houses are forced to own each case appliance in turn (so every
/// case has positive houses); the rest sample ownership from the appliance
/// priors — this mirrors the real datasets, where not every house owns every
/// monitored appliance.
pub fn generate_dataset(tmpl: &DatasetTemplate, scale: ScaleOverride, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_sub = scale.submetered_houses.unwrap_or(tmpl.submetered_houses);
    let n_survey = scale.possession_only_houses.unwrap_or(tmpl.possession_only_houses);
    let days = scale.days_per_house.unwrap_or(tmpl.days_per_house);
    let cfg = SimConfig { days, ..SimConfig::default() };
    let candidates: Vec<ApplianceKind> = tmpl.cases.iter().map(|c| c.kind).collect();

    let mut houses = Vec::with_capacity(n_sub);
    for i in 0..n_sub {
        // Round-robin forcing guarantees every case has positive houses.
        let forced = if i % 2 == 0 { Some(candidates[i / 2 % candidates.len()]) } else { None };
        let owned = sample_ownership(&mut rng, &candidates, forced);
        houses.push(generate_house(i, &owned, &cfg, seed.wrapping_add(1)));
    }

    let mut survey_houses = Vec::with_capacity(n_survey);
    for i in 0..n_survey {
        let forced = if i % 2 == 0 { Some(candidates[i / 2 % candidates.len()]) } else { None };
        let owned = sample_ownership(&mut rng, &candidates, forced);
        let mut house = generate_house(n_sub + i, &owned, &cfg, seed.wrapping_add(2));
        // Survey houses never expose submeter ground truth.
        house.submeters.clear();
        survey_houses.push(house);
    }

    Dataset { template: tmpl.clone(), houses, survey_houses }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters_match_paper() {
        let uk = ukdale();
        assert_eq!(uk.submetered_houses, 5);
        assert_eq!(uk.max_ffill_s, 180);
        assert_eq!(uk.case(ApplianceKind::Kettle).unwrap().on_threshold_w, 500.0);
        assert_eq!(uk.case(ApplianceKind::Kettle).unwrap().avg_power_w, 2000.0);

        let rf = refit();
        assert_eq!(rf.submetered_houses, 20);
        assert_eq!(rf.cases.len(), 4);
        assert_eq!(rf.case(ApplianceKind::WashingMachine).unwrap().avg_power_w, 500.0);

        let id = ideal();
        assert_eq!(id.submetered_houses, 39);
        assert_eq!(id.possession_only_houses, 216);
        assert_eq!(id.max_ffill_s, 1800);
        assert_eq!(id.case(ApplianceKind::Shower).unwrap().avg_power_w, 8000.0);

        let ev = edf_ev();
        assert_eq!(ev.submetered_houses, 24);
        assert_eq!(ev.max_ffill_s, 5400);
        assert_eq!(ev.case(ApplianceKind::ElectricVehicle).unwrap().on_threshold_w, 1000.0);

        let weak = edf_weak();
        assert_eq!(weak.possession_only_houses, 558);
        assert_eq!(weak.submetered_houses, 0);
    }

    #[test]
    fn names_roundtrip() {
        for id in [
            DatasetId::UkDale,
            DatasetId::Refit,
            DatasetId::Ideal,
            DatasetId::EdfEv,
            DatasetId::EdfWeak,
        ] {
            assert_eq!(DatasetId::from_name(id.name()), Some(id));
        }
    }

    #[test]
    fn generated_dataset_respects_scale_override() {
        let tmpl = refit();
        let scale = ScaleOverride {
            submetered_houses: Some(4),
            possession_only_houses: Some(2),
            days_per_house: Some(2),
        };
        let ds = generate_dataset(&tmpl, scale, 11);
        assert_eq!(ds.houses.len(), 4);
        assert_eq!(ds.survey_houses.len(), 2);
        assert_eq!(ds.houses[0].aggregate.len(), 2 * 24 * 60);
    }

    #[test]
    fn survey_houses_hide_submeters() {
        let tmpl = edf_weak();
        let scale = ScaleOverride {
            possession_only_houses: Some(3),
            days_per_house: Some(2),
            ..Default::default()
        };
        let ds = generate_dataset(&tmpl, scale, 12);
        for house in &ds.survey_houses {
            assert!(house.submeters.is_empty());
            assert!(!house.possession.is_empty()); // fridge at least
        }
    }

    #[test]
    fn every_case_has_positive_houses() {
        let tmpl = refit();
        let scale = ScaleOverride {
            submetered_houses: Some(8),
            days_per_house: Some(1),
            ..Default::default()
        };
        let ds = generate_dataset(&tmpl, scale, 13);
        for c in &tmpl.cases {
            let owners = ds.houses.iter().filter(|h| h.owns(c.kind)).count();
            assert!(owners > 0, "{:?} has no positive houses", c.kind);
        }
    }
}
