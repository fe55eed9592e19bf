//! The three workloads: their models, their requests, set-up, the
//! oracle, warm-up and the timed phases through the real gateway.

use crate::client::{self, Pace, PhaseResult, Pool};
use crate::gen::{self, FeedShape, Rng};
use crate::stats;
use camal::fleet::{serve_fleet, FleetConfig};
use camal::registry::{ModelKey, ModelRegistry};
use camal::{CamalConfig, CamalModel, EnsembleStats};
use nilm_data::appliance::ApplianceKind;
use nilm_data::pipeline::{prepare_case, CaseData, SplitConfig};
use nilm_data::templates::{generate_dataset, template, DatasetId, ScaleOverride};
use nilm_json::JsonValue;
use nilm_models::TrainConfig;
use nilm_serve::protocol::{localize_response, parse_localize, HouseholdRow};
use nilm_serve::GatewayConfig;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model size and training data size of a workload's zoo.
#[derive(Clone, Copy, Debug)]
pub struct ModelScale {
    /// Window length w.
    pub window: usize,
    /// Channel-width divisor.
    pub width_div: usize,
    /// Algorithm 1 kernel grid.
    pub kernels: &'static [usize],
    /// Ensemble size n.
    pub n_ensemble: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Trials per kernel.
    pub trials: usize,
    /// Divisor on the REFIT template's house count.
    pub houses_div: usize,
    /// Divisor on the REFIT template's days per house.
    pub days_div: usize,
}

/// How the timed phase loads the gateway.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// An open loop at `rate` req/s for a share of the run, then a closed
    /// capacity phase of `capacity_per_s × seconds` requests at `depth`
    /// per connection.
    OpenThenCapacity {
        /// Offered rate, req/s.
        rate: f64,
        /// Share of `--seconds` the open loop runs.
        open_share: f64,
        /// Capacity-phase requests per second of `--seconds`.
        capacity_per_s: usize,
        /// Pipeline depth per connection in the capacity phase.
        depth: usize,
    },
    /// A closed loop of `per_s × seconds` requests, one in flight per
    /// connection.
    Closed {
        /// Requests per second of `--seconds`.
        per_s: usize,
    },
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Zoo scale.
    pub scale: ModelScale,
    /// REFIT appliances served (one model each).
    pub appliances: &'static [ApplianceKind],
    /// Train the zoo during set-up (serving workloads) or in the timed
    /// phase (the training workload).
    pub train_in_setup: bool,
    /// Households per request.
    pub houses_per_request: usize,
    /// Shape of each household feed.
    pub feed: FeedShape,
    /// `"detail":"summary"` instead of full detail.
    pub summary: bool,
    /// Distinct request bodies (each has its own oracle answer).
    pub pool: usize,
    /// Timed load.
    pub load: Load,
    /// Repetitions of set-up and measurement per run (see `main`).
    pub reps: usize,
    /// Trainings of the zoo per repetition. `train_s` is a median over all
    /// trainings of a run, so more, shorter trainings spread across the run
    /// leave it less exposed to a burst of noise on the host than a few
    /// long ones. Only the first training of a repetition counts as set-up.
    pub trainings: usize,
    /// Segments each repetition's timed phase is split into. Open-loop and
    /// capacity segments alternate, and the run reports medians over all
    /// segments, so a burst of noise on the host moves a few segments, not
    /// the result.
    pub segments: usize,
}

const SMOKE: ModelScale = ModelScale {
    window: 128,
    width_div: 16,
    kernels: &[5, 9],
    n_ensemble: 2,
    epochs: 3,
    trials: 1,
    houses_div: 1,
    days_div: 1,
};

const QUICK: ModelScale = ModelScale {
    window: 256,
    width_div: 8,
    kernels: &[5, 9, 15],
    n_ensemble: 3,
    epochs: 6,
    trials: 2,
    houses_div: 2,
    days_div: 2,
};

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    use ApplianceKind::{Dishwasher, Kettle, Microwave};
    let spec = match name {
        "live_small" => Spec {
            name: "live_small",
            scale: SMOKE,
            appliances: &[Kettle],
            train_in_setup: true,
            houses_per_request: 1,
            feed: FeedShape { minutes: 128, fine_share: 0.0, null_rate: 0.0 },
            summary: true,
            pool: 256,
            load: Load::OpenThenCapacity {
                // About a quarter of the capacity phase's rate, so the
                // open loop stays clear of saturation (where its p90 grows
                // without bound) even while the host runs at half speed.
                rate: 4000.0,
                open_share: 0.5,
                capacity_per_s: 6000,
                depth: 16,
            },
            reps: 5,
            trainings: 1,
            segments: 3,
        },
        "bulk_localize" => Spec {
            name: "bulk_localize",
            scale: QUICK,
            appliances: &[Kettle, Microwave, Dishwasher],
            train_in_setup: true,
            houses_per_request: 4,
            feed: FeedShape { minutes: 1440, fine_share: 0.25, null_rate: 0.01 },
            summary: false,
            pool: 24,
            load: Load::Closed { per_s: 40 },
            reps: 3,
            trainings: 2,
            segments: 2,
        },
        "train_ensemble" => Spec {
            name: "train_ensemble",
            scale: QUICK,
            appliances: &[Kettle],
            train_in_setup: false,
            houses_per_request: 1,
            feed: FeedShape { minutes: 1440, fine_share: 0.25, null_rate: 0.01 },
            summary: false,
            pool: 24,
            load: Load::Closed { per_s: 150 },
            reps: 4,
            trainings: 3,
            segments: 6,
        },
        _ => return None,
    };
    Some(spec)
}

/// Client connections (and client threads) of every gateway phase.
pub fn connections() -> usize {
    crate::host::nproc().clamp(1, 2)
}

/// The gateway configuration every workload serves with: defaults, with
/// the decode pool sized to the machine explicitly.
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig { reactor_workers: crate::host::nproc(), ..GatewayConfig::default() }
}

/// The Algorithm 1 configuration of a workload's zoo.
pub fn camal_config(scale: &ModelScale) -> CamalConfig {
    CamalConfig {
        n_ensemble: scale.n_ensemble,
        kernels: scale.kernels.to_vec(),
        trials: scale.trials,
        width_div: scale.width_div,
        train: TrainConfig {
            epochs: scale.epochs,
            batch_size: 16,
            lr: 1e-3,
            clip: 5.0,
            seed: 0xE1,
        },
        seed: 0xE1,
        ..CamalConfig::default()
    }
}

/// Seed of the REFIT training cases. The cases are pinned, not drawn
/// from `--seed`, so that `loc_f1` and `det_bacc` are a deterministic
/// quality gate: a change that alters what the model says moves them on
/// every run, instead of hiding inside the spread between training sets.
const CASE_SEED: u64 = 0xCA5E;

/// The pinned REFIT case of `kind` at the workload's scale.
pub fn case_data(scale: &ModelScale, kind: ApplianceKind) -> CaseData {
    let t = template(DatasetId::Refit);
    let ds = generate_dataset(
        &t,
        ScaleOverride {
            submetered_houses: Some((t.submetered_houses / scale.houses_div).clamp(4, 20)),
            possession_only_houses: Some(0),
            days_per_house: Some((t.days_per_house / scale.days_div).max(2)),
        },
        CASE_SEED ^ ((kind as u64) << 40),
    );
    prepare_case(&ds, kind, scale.window, &SplitConfig::default())
}

/// The registry key of a REFIT appliance.
pub fn key(kind: ApplianceKind) -> ModelKey {
    ModelKey::new(DatasetId::Refit, kind)
}

/// The fleet configuration the gateway derives for a REFIT pass.
pub fn fleet_config() -> FleetConfig {
    let step_s = template(DatasetId::Refit).step_s;
    let cfg = gateway_config();
    FleetConfig {
        step_s,
        max_ffill_s: 3 * step_s,
        batch: cfg.batch_windows,
        threads: 1,
        apply_priors: cfg.apply_priors,
    }
}

/// The request pool: bodies generated from `seed`, before any model
/// exists. Expected answers are filled in by [`oracle`].
pub fn request_bodies(spec: &Spec, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0xB0D1E5);
    let labels: Vec<String> = spec.appliances.iter().map(|&k| key(k).label()).collect();
    (0..spec.pool)
        .map(|r| {
            let feeds: Vec<gen::Feed> = (0..spec.houses_per_request)
                .map(|h| gen::feed(&mut rng, format!("s{seed:x}-r{r}-h{h}"), spec.feed))
                .collect();
            gen::request_body(&labels, &feeds, spec.summary)
        })
        .collect()
}

/// The in-process oracle: for every body, the answer `serve_fleet` plus
/// `localize_response` give on the gateway's fleet configuration.
pub fn oracle(registry: &mut ModelRegistry, bodies: &[String]) -> Vec<Vec<u8>> {
    let cfg = fleet_config();
    let mut expected = Vec::with_capacity(bodies.len());
    for body in bodies {
        let req = parse_localize(body.as_bytes()).expect("generated bodies are valid requests");
        let mut group = req.appliances.clone();
        group.sort();
        let result = serve_fleet(registry, &group, &req.households, &cfg)
            .expect("oracle fleet pass succeeds");
        let rows: Vec<HouseholdRow> = result
            .households
            .iter()
            .enumerate()
            .map(|(hi, hh)| HouseholdRow {
                id: &hh.id,
                degraded: hh.degraded.as_deref(),
                timelines: req
                    .appliances
                    .iter()
                    .map(|&k| result.timeline(hi, k).expect("pass covers every key"))
                    .collect(),
            })
            .collect();
        expected
            .push(localize_response(&req.appliances, &rows, req.detail).to_compact().into_bytes());
    }
    expected
}

/// A file-backed registry over the zoo's checkpoints.
pub fn registry(zoo: &Zoo) -> ModelRegistry {
    let mut registry = ModelRegistry::unbounded();
    for (key, path) in zoo.keys.iter().zip(&zoo.paths) {
        registry.register_file(*key, path.clone());
    }
    registry
}

/// A trained zoo on disk.
pub struct Zoo {
    /// Served keys, in request order.
    pub keys: Vec<ModelKey>,
    /// Checkpoint of each key.
    pub paths: Vec<PathBuf>,
    /// Training data of each key.
    pub data: Vec<CaseData>,
    /// Algorithm 1 statistics of each key's training.
    pub stats: Vec<EnsembleStats>,
    /// Checkpoint bytes of each key.
    pub bytes: Vec<Vec<u8>>,
}

/// Trains one model per appliance, saves it under `dir` and returns the
/// zoo plus the seconds each model spent inside `CamalModel::train`.
pub fn train_zoo(spec: &Spec, data: Vec<CaseData>, dir: &Path) -> (Zoo, Vec<f64>) {
    let cfg = camal_config(&spec.scale);
    let mut zoo = Zoo {
        keys: Vec::new(),
        paths: Vec::new(),
        data: Vec::new(),
        stats: Vec::new(),
        bytes: Vec::new(),
    };
    let mut train_s = Vec::new();
    for (&kind, data) in spec.appliances.iter().zip(data) {
        // Every training races the autotuner afresh, as the first training
        // in a process does, so all of a run's trainings are alike.
        nilm_tensor::dispatch::clear_choices();
        crate::host::release_free_memory();
        let start = Instant::now();
        let mut model = CamalModel::train(&cfg, &data.train, &data.val, crate::host::nproc());
        train_s.push(start.elapsed().as_secs_f64());
        let key = key(kind);
        let path = dir.join(key.file_name());
        model.save(&path).expect("write checkpoint");
        zoo.keys.push(key);
        zoo.paths.push(path);
        zoo.stats.push(model.train_stats.clone());
        zoo.bytes.push(model.to_bytes());
        zoo.data.push(data);
    }
    (zoo, train_s)
}

/// Test-split localization F1 and detection balanced accuracy, averaged
/// over the zoo's models.
pub fn quality(registry: &mut ModelRegistry, zoo: &Zoo) -> (f64, f64) {
    let mut f1 = 0.0;
    let mut bacc = 0.0;
    for (key, data) in zoo.keys.iter().zip(&zoo.data) {
        let avg_power = template(key.dataset).case(key.appliance).map_or(1000.0, |c| c.avg_power_w);
        let model = registry.get_mut(*key).expect("zoo model loads");
        let report = model.evaluate(&data.test, avg_power, 16);
        f1 += report.localization.f1;
        bacc += report.detection.balanced_accuracy;
    }
    let n = zoo.keys.len() as f64;
    (f1 / n, bacc / n)
}

/// Most requests a pass can coalesce under a workload's load.
fn max_in_flight(spec: &Spec) -> usize {
    let cfg = gateway_config();
    let per_conn = match spec.load {
        Load::OpenThenCapacity { .. } => cfg.max_pipeline,
        Load::Closed { .. } => 1,
    };
    (per_conn * connections()).min(cfg.max_coalesce)
}

/// Every GEMM batch size a pass of this workload can assemble. Every
/// window of a generated feed is valid (see `gen::feed`), so a pass of `k`
/// requests scores `k` times a request's windows, split into
/// `batch_windows` chunks.
pub fn batch_sizes(spec: &Spec) -> Vec<usize> {
    let batch = gateway_config().batch_windows;
    let step_min = (template(DatasetId::Refit).step_s / 60) as usize;
    let per_request = spec.houses_per_request * (spec.feed.minutes / step_min / spec.scale.window);
    let mut sizes: Vec<usize> = (1..=max_in_flight(spec))
        .flat_map(|k| {
            let total = k * per_request;
            [(total >= batch).then_some(batch), Some(total % batch).filter(|&r| r > 0)]
        })
        .flatten()
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Runs every model once at every batch size the workload can produce, so
/// the autotuner has raced each shape before any timed request.
pub fn warm_shapes(
    registry: &mut ModelRegistry,
    keys: &[ModelKey],
    window: usize,
    sizes: &[usize],
) {
    for &b in sizes {
        let mut x = nilm_tensor::tensor::Tensor::zeros(&[b, 1, window]);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = 0.15 + 0.002 * (i % 97) as f32;
        }
        for &key in keys {
            registry.get_mut(key).expect("zoo model loads").localize_batch(&x);
        }
    }
}

/// Drives the gateway in rounds of rising pipeline depth until a round
/// adds no autotuned shape. Returns (requests attempted, failed).
pub fn warm_gateway(addr: SocketAddr, pool: &Arc<Pool>, spec: &Spec) -> (usize, usize) {
    let depths: &[usize] = match spec.load {
        Load::OpenThenCapacity { depth, .. } => &[1, 2, 4, 8, depth],
        Load::Closed { .. } => &[1],
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut cursor = 0usize;
    for round in 0..20 {
        let before = nilm_tensor::dispatch::tuned_entries().len();
        for &depth in depths {
            let orders: Vec<Vec<usize>> = (0..connections())
                .map(|_| {
                    (0..depth * 4)
                        .map(|_| {
                            cursor += 1;
                            cursor % pool.requests.len()
                        })
                        .collect()
                })
                .collect();
            let r =
                client::run(addr, pool, &orders, Pace::Closed { depth }, Duration::from_secs(60));
            attempted += r.attempted;
            failed += r.failed;
        }
        if round >= 1 && nilm_tensor::dispatch::tuned_entries().len() == before {
            break;
        }
    }
    (attempted, failed)
}

/// Seeded request orders: `per_conn` pool entries for each connection.
pub fn orders(seed: u64, pool: usize, per_conn: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed ^ 0x0D0E);
    (0..connections()).map(|_| (0..per_conn).map(|_| rng.range(0, pool - 1)).collect()).collect()
}

/// Counters read from `GET /metrics`.
#[derive(Clone, Debug, Default)]
pub struct GatewayCounters {
    /// Passes by number of coalesced requests.
    pub passes_by_size: BTreeMap<usize, u64>,
    /// GEMM batches assembled.
    pub gemm_batches: u64,
    /// Windows scored.
    pub windows: u64,
}

impl GatewayCounters {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &GatewayCounters) -> GatewayCounters {
        let mut passes_by_size = BTreeMap::new();
        for (&k, &v) in &self.passes_by_size {
            let d = v - before.passes_by_size.get(&k).copied().unwrap_or(0);
            if d > 0 {
                passes_by_size.insert(k, d);
            }
        }
        GatewayCounters {
            passes_by_size,
            gemm_batches: self.gemm_batches - before.gemm_batches,
            windows: self.windows - before.windows,
        }
    }

    /// Passes run.
    pub fn passes(&self) -> u64 {
        self.passes_by_size.values().sum()
    }

    /// Adds another interval's growth to this one.
    pub fn add(&mut self, other: &GatewayCounters) {
        for (&k, &v) in &other.passes_by_size {
            *self.passes_by_size.entry(k).or_default() += v;
        }
        self.gemm_batches += other.gemm_batches;
        self.windows += other.windows;
    }

    /// Requests served by those passes.
    pub fn requests(&self) -> u64 {
        self.passes_by_size.iter().map(|(&k, &v)| k as u64 * v).sum()
    }
}

/// Reads the pass counters from the gateway's `GET /metrics`.
pub fn gateway_counters(addr: SocketAddr) -> GatewayCounters {
    let mut stream = TcpStream::connect(addr).expect("connect for /metrics");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("send /metrics");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read /metrics");
    let mut framer = client::Framer::default();
    framer.push(&raw);
    let (status, body) = framer.next().expect("complete response").expect("valid HTTP");
    assert_eq!(status, 200, "GET /metrics failed");
    let doc = nilm_json::parse(std::str::from_utf8(&body).expect("UTF-8")).expect("JSON");
    let number = |name: &str| doc.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    let passes_by_size = doc
        .get("batch_requests_histogram")
        .and_then(JsonValue::as_object)
        .map(|h| {
            h.iter()
                .filter_map(|(k, v)| Some((k.parse::<usize>().ok()?, v.as_f64()? as u64)))
                .collect()
        })
        .unwrap_or_default();
    GatewayCounters {
        passes_by_size,
        gemm_batches: number("gemm_batches_total"),
        windows: number("windows_scored_total"),
    }
}

/// Kernel time and calls recorded so far, summed over shapes, per op.
pub fn kernel_totals() -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (key, stat) in nilm_obs::kernel::stats() {
        let e = out.entry(key.op).or_default();
        e.0 += stat.total_ns;
        e.1 += stat.calls;
    }
    out
}

/// One segment of the timed phase.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// The phase whose latency is reported (the open loop on
    /// `live_small`, the closed loop elsewhere).
    pub latency: PhaseResult,
    /// The capacity phase, when it is separate from the latency phase.
    pub capacity: Option<PhaseResult>,
}

impl Segment {
    fn capacity_phase(&self) -> &PhaseResult {
        self.capacity.as_ref().unwrap_or(&self.latency)
    }
}

/// What the timed gateway phases observed.
#[derive(Clone, Debug, Default)]
pub struct Served {
    /// The segments, in order.
    pub segments: Vec<Segment>,
    /// Counter growth over the latency phases.
    pub latency_counters: GatewayCounters,
    /// Counter growth over the capacity phases.
    pub capacity_counters: GatewayCounters,
    /// Kernel (ns, calls) growth per op over all timed phases.
    pub kernels: BTreeMap<&'static str, (u64, u64)>,
    /// Autotuned shapes added during the timed phases.
    pub autotune_misses: usize,
    /// Resident-set growth over the timed phases, MB.
    pub rss_growth_mb: f64,
}

impl Served {
    /// Appends another gateway's timed phases.
    pub fn merge(&mut self, other: Served) {
        self.segments.extend(other.segments);
        self.latency_counters.add(&other.latency_counters);
        self.capacity_counters.add(&other.capacity_counters);
        for (op, (ns, calls)) in other.kernels {
            let e = self.kernels.entry(op).or_default();
            e.0 += ns;
            e.1 += calls;
        }
        self.autotune_misses += other.autotune_misses;
        self.rss_growth_mb += other.rss_growth_mb;
    }

    fn phases(&self) -> impl Iterator<Item = &PhaseResult> {
        self.segments.iter().flat_map(|s| std::iter::once(&s.latency).chain(&s.capacity))
    }

    /// Requests sent in the timed phases.
    pub fn attempted(&self) -> usize {
        self.phases().map(|p| p.attempted).sum()
    }

    /// Timed requests that failed.
    pub fn failed(&self) -> usize {
        self.phases().map(|p| p.failed).sum()
    }

    /// Median over segments of each segment's `q` latency percentile, ms;
    /// `None` when a segment has too few samples for it.
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        let per_segment: Option<Vec<f64>> = self
            .segments
            .iter()
            .map(|s| stats::percentile(&stats::sorted(s.latency.latencies_ms.clone()), q))
            .collect();
        per_segment.filter(|v| !v.is_empty()).map(|v| stats::median(&v))
    }

    /// Median over segments of successful requests per second of the
    /// capacity phase.
    pub fn capacity_rps(&self) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| {
                let p = s.capacity_phase();
                (p.attempted - p.failed) as f64 / p.elapsed_s
            })
            .collect();
        stats::median(&rates)
    }

    /// Lateness of every open-loop send, ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.segments.iter().flat_map(|s| s.latency.late_ms.iter().copied()).collect()
    }
}

/// Runs the timed phases of `spec` against the gateway at `addr`.
pub fn serve_timed(
    addr: SocketAddr,
    pool: &Arc<Pool>,
    spec: &Spec,
    seed: u64,
    seconds: f64,
) -> Served {
    let conns = connections();
    let entries = pool.requests.len();
    let tuned_before = nilm_tensor::dispatch::tuned_entries().len();
    let kernels_before = kernel_totals();
    let rss_before = crate::host::rss_mb();
    let mut served = Served::default();
    let segment_s = seconds / spec.segments as f64;
    for seg in 0..spec.segments as u64 {
        let seed = seed.wrapping_add(seg << 32);
        let c0 = gateway_counters(addr);
        let segment = match spec.load {
            Load::OpenThenCapacity { rate, open_share, capacity_per_s, depth } => {
                let open_s = open_share * segment_s;
                let open_orders = orders(seed, entries, (rate * open_s) as usize / conns);
                let deadline = Duration::from_secs_f64(open_s + 30.0);
                let latency = client::run(addr, pool, &open_orders, Pace::Open { rate }, deadline);
                let c1 = gateway_counters(addr);
                let cap_count = (capacity_per_s as f64 * segment_s) as usize / conns;
                let cap_orders = orders(seed ^ 1, entries, cap_count);
                let capacity = client::run(
                    addr,
                    pool,
                    &cap_orders,
                    Pace::Closed { depth },
                    Duration::from_secs(60),
                );
                served.latency_counters.add(&c1.since(&c0));
                served.capacity_counters.add(&gateway_counters(addr).since(&c1));
                Segment { latency, capacity: Some(capacity) }
            }
            Load::Closed { per_s } => {
                // Enough requests for a p90 in every segment.
                let count = ((per_s as f64 * segment_s) as usize).max(110) / conns;
                let orders = orders(seed, entries, count);
                let latency = client::run(
                    addr,
                    pool,
                    &orders,
                    Pace::Closed { depth: 1 },
                    Duration::from_secs(60),
                );
                let grown = gateway_counters(addr).since(&c0);
                served.latency_counters.add(&grown);
                served.capacity_counters.add(&grown);
                Segment { latency, capacity: None }
            }
        };
        served.segments.push(segment);
    }
    for (op, (ns, calls)) in kernel_totals() {
        let (ns0, calls0) = kernels_before.get(op).copied().unwrap_or_default();
        served.kernels.insert(op, (ns - ns0, calls - calls0));
    }
    served.autotune_misses = nilm_tensor::dispatch::tuned_entries().len() - tuned_before;
    served.rss_growth_mb = crate::host::rss_mb() - rss_before;
    served
}
