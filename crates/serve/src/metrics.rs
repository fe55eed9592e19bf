//! Operational metrics of the gateway, served as JSON on `GET /metrics`
//! and in Prometheus text exposition on `GET /metrics?format=prometheus`.
//!
//! **Recording.** Counters sit behind one mutex (the gateway records a
//! handful of updates per request — contention is negligible next to
//! inference). Latencies live in [`nilm_obs::hist::Histogram`]s —
//! log-linear HDR-style histograms with bounded memory and a ~0.4%
//! quantile error — one per route (dispatch → reply) and one per pipeline
//! stage, so the full distribution survives indefinitely. A gateway-side
//! stage (`parse`, `queue_wait`, `decode`, `coalesce`, `write`) is one
//! [`Metrics::stage`] call per request, with its start and end on the
//! trace clock ([`nilm_obs::trace::now_ns`]): the call always records the
//! histogram sample and records the span only when the request is traced.
//! Route latency runs on the same clock. The fleet-internal stages
//! (`preprocess`, `infer`, `stitch`) are shard-summed CPU time, recorded
//! once per pass by [`Metrics::pass`] with the pass's work and recovery
//! counters.
//!
//! **Exporting.** Both exporters walk one ordered list of metric families
//! (name, type, help, labelled values), read once under the lock. The
//! exposition writes each family as one group, `# HELP` and `# TYPE`
//! first, then all of its samples. The JSON document keys each family it
//! carries by its JSON name; a few JSON shapes stay hand-written for
//! dashboard continuity: `requests_total`, the `latency_ms` headline,
//! `ready_events_per_wake`, the zero-padded `batch_requests_histogram`
//! keys, and the nested `faults` and `trace` objects.
//!
//! Recovery is observable, not just tested: pass-loop restarts, deadline
//! timeouts, fleet shard retries and degraded households, the registry's
//! load-failure / quarantine counters (monotonic across registry
//! rebuilds: each replaced registry's totals fold into a base), and — when
//! fault injection is armed — per-point trial/fire counts from
//! [`nilm_fault::stats`]. Pass overlap shows as a gauge of fleet passes in
//! flight and a counter of passes that started while another was running.
//! Cumulative per-`(op, shape, backend)` kernel timings come from
//! [`nilm_obs::kernel::stats`].

use camal::fleet::FleetSummary;
use camal::registry::RegistryStats;
use nilm_json::JsonValue;
use nilm_obs::hist::Histogram;
use nilm_obs::kernel::{KernelKey, KernelStat};
use nilm_obs::prom::PromWriter;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Default)]
struct Inner {
    requests_total: u64,
    /// Requests by route label (`localize`, `healthz`, `metrics`, ...).
    by_route: BTreeMap<&'static str, u64>,
    /// Responses by status code.
    by_status: BTreeMap<u16, u64>,
    /// `503` responses from a full queue specifically.
    shed_total: u64,
    /// Requests coalesced per batcher pass → number of passes with that
    /// many requests. THE micro-batching histogram: `{1: n}` only means no
    /// cross-request batching ever happened.
    batch_requests_hist: BTreeMap<usize, u64>,
    /// GEMM batch tensors assembled across all passes (from the fleet
    /// summary), and windows scored.
    gemm_batches_total: u64,
    windows_scored_total: u64,
    inferences_total: u64,
    /// Peak queue depth observed at enqueue time.
    queue_peak: u64,
    /// End-to-end latency distribution per route (dispatch → reply).
    latency: BTreeMap<&'static str, Histogram>,
    /// Per-pipeline-stage duration distributions (`parse`, `queue_wait`,
    /// `decode`, `coalesce`, `preprocess`, `infer`, `stitch`, `write`).
    stages: BTreeMap<&'static str, Histogram>,
    /// Fleet passes running now, and passes that started while another
    /// was running (the pass loops' overlap).
    passes_in_flight: u64,
    passes_overlapped: u64,
    /// Pass-loop restarts after a panic.
    batcher_restarts: u64,
    /// Localize requests answered 503 because the per-request deadline
    /// expired before the batcher replied.
    deadline_timeouts: u64,
    /// Fleet shards retried on fresh model copies after a panic.
    shard_retries: u64,
    /// Households answered with degraded placeholder rows.
    households_degraded: u64,
    /// Registry counters folded in from registries rebuilt after a pass
    /// loop panicked; `registry_current` is the live registry.
    registry_base: RegistryStats,
    registry_current: RegistryStats,
    /// `epoll_wait` returns in the reactor (each is one wake of the event
    /// loop), and the total readiness events those wakes delivered — the
    /// ratio `ready_events_per_wake` is the batching efficiency of the
    /// event loop itself.
    epoll_wakeups: u64,
    ready_events: u64,
    /// Response writes that could not complete in one `write` call
    /// (`EWOULDBLOCK` or a short write) and parked bytes in the outbox
    /// until the socket signalled writable again.
    partial_writes: u64,
    /// Largest per-connection in-flight pipeline (requests parsed but not
    /// yet answered) observed on any connection.
    conn_backlog_peak: u64,
    /// Reactor generations respawned after an event-loop panic.
    reactor_restarts: u64,
}

/// `a + b` per counter (RegistryStats has no Add impl of its own).
fn add_stats(a: RegistryStats, b: RegistryStats) -> RegistryStats {
    RegistryStats {
        hits: a.hits + b.hits,
        loads: a.loads + b.loads,
        evictions: a.evictions + b.evictions,
        load_failures: a.load_failures + b.load_failures,
        quarantines: a.quarantines + b.quarantines,
    }
}

/// Shared metrics sink. All methods take `&self`.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// The counters. Every update is a few plain field writes, so a panic
    /// elsewhere cannot leave them half-written: a poisoned lock is taken
    /// as is (a pass guard dropping during an unwind still counts down).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one request hitting `route`.
    pub fn request(&self, route: &'static str) {
        let mut m = self.lock();
        m.requests_total += 1;
        *m.by_route.entry(route).or_insert(0) += 1;
    }

    /// Counts one response with `status`.
    pub fn response(&self, status: u16) {
        *self.lock().by_status.entry(status).or_insert(0) += 1;
    }

    /// Counts one load-shedding rejection (a `503` from a full queue; the
    /// response itself is counted by [`Metrics::response`]).
    pub fn shed(&self) {
        self.lock().shed_total += 1;
    }

    /// Records the queue depth observed right after an enqueue.
    pub fn queue_depth(&self, depth: usize) {
        let mut m = self.lock();
        m.queue_peak = m.queue_peak.max(depth as u64);
    }

    /// Records one request's end-to-end latency under its route label.
    pub fn latency_ms(&self, route: &'static str, ms: f64) {
        self.lock().latency.entry(route).or_default().record_ms(ms);
    }

    /// Records stage `name` of one request, which ran from `start_ns` to
    /// `end_ns` on the trace clock ([`nilm_obs::trace::now_ns`]): always as
    /// a sample of the stage's histogram, and as a span under the
    /// request's root span when the request is traced (`trace` is its
    /// `(trace_id, root_span_id)`, and the root span is 0 when it is not).
    /// `detail` is built only for the span.
    pub fn stage(
        &self,
        name: &'static str,
        trace: (u64, u64),
        start_ns: u64,
        end_ns: u64,
        detail: impl FnOnce() -> String,
    ) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.stage_ms(name, dur_ns as f64 / 1e6);
        if trace.1 != 0 && nilm_obs::trace::enabled() {
            let id = nilm_obs::trace::TraceId(trace.0);
            nilm_obs::trace::record_span(id, trace.1, name, detail(), start_ns, dur_ns.max(1));
        }
    }

    /// Records one fleet pass that answered `requests` coalesced requests:
    /// its size, its work and recovery counters, and its in-fleet stages
    /// (`preprocess`, `infer`, `stitch`: CPU time summed over shards, one
    /// sample per pass).
    pub fn pass(&self, requests: usize, s: &FleetSummary) {
        self.batch(requests, s.batches, s.feed_windows_scored, s.inferences);
        self.shard_recovery(s.shard_retries, s.households_degraded);
        for (stage, secs) in
            [("preprocess", s.preprocess_s), ("infer", s.infer_s), ("stitch", s.stitch_s)]
        {
            self.stage_ms(stage, secs * 1e3);
        }
    }

    fn batch(&self, requests: usize, gemm_batches: usize, windows: usize, inferences: usize) {
        let mut m = self.lock();
        *m.batch_requests_hist.entry(requests).or_insert(0) += 1;
        m.gemm_batches_total += gemm_batches as u64;
        m.windows_scored_total += windows as u64;
        m.inferences_total += inferences as u64;
    }

    fn shard_recovery(&self, retries: usize, degraded: usize) {
        let mut m = self.lock();
        m.shard_retries += retries as u64;
        m.households_degraded += degraded as u64;
    }

    fn stage_ms(&self, stage: &'static str, ms: f64) {
        self.lock().stages.entry(stage).or_default().record_ms(ms);
    }

    /// Marks one fleet pass in flight until the returned guard drops (an
    /// unwinding pass included), counting it as overlapped when another
    /// pass was already running.
    pub fn pass_begin(&self) -> PassInFlight<'_> {
        let mut m = self.lock();
        if m.passes_in_flight > 0 {
            m.passes_overlapped += 1;
        }
        m.passes_in_flight += 1;
        PassInFlight(self)
    }

    /// Counts one pass-loop restart after a panic.
    pub fn batcher_restart(&self) {
        self.lock().batcher_restarts += 1;
    }

    /// Counts one localize request that hit its deadline before its pass
    /// replied (answered `503` + `Retry-After`).
    pub fn deadline_timeout(&self) {
        self.lock().deadline_timeouts += 1;
    }

    /// Updates the live registry counters.
    pub fn set_registry_current(&self, stats: RegistryStats) {
        self.lock().registry_current = stats;
    }

    /// Folds a replaced registry's final counters into the base, so the
    /// exported totals stay monotonic across rebuilds. The fresh registry
    /// starts from zero.
    pub fn roll_registry(&self, last_seen: RegistryStats) {
        let mut m = self.lock();
        m.registry_base = add_stats(m.registry_base, last_seen);
        m.registry_current = RegistryStats::default();
    }

    /// Records one reactor wake and how many readiness events it carried.
    pub fn reactor_wake(&self, ready_events: usize) {
        let mut m = self.lock();
        m.epoll_wakeups += 1;
        m.ready_events += ready_events as u64;
    }

    /// Counts one response write parked on `EWOULDBLOCK` / a short write.
    pub fn partial_write(&self) {
        self.lock().partial_writes += 1;
    }

    /// Records a connection's in-flight pipeline depth; keeps the peak.
    pub fn conn_backlog(&self, depth: usize) {
        let mut m = self.lock();
        m.conn_backlog_peak = m.conn_backlog_peak.max(depth as u64);
    }

    /// Counts one reactor respawn after an event-loop panic.
    pub fn reactor_restart(&self) {
        self.lock().reactor_restarts += 1;
    }

    /// Snapshot as the `GET /metrics` JSON document. `queue_depth` is the
    /// live depth sampled by the caller.
    pub fn to_json(&self, queue_depth: usize) -> JsonValue {
        let m = self.lock();
        let kernels = nilm_obs::kernel::stats();
        let mut doc: BTreeMap<String, JsonValue> = families(&m, queue_depth, &kernels)
            .into_iter()
            .filter_map(|f| Some((f.json?.to_string(), f.into_json())))
            .collect();
        let count = |n: u64| JsonValue::Number(n as f64);
        // Localize end-to-end latency, the headline series. Kept at the top
        // level (and in this shape) for dashboard continuity;
        // `latency_by_route` has every route.
        let localize = m.latency.get("localize");
        let headline = |f: fn(&Histogram) -> f64| JsonValue::Number(localize.map_or(0.0, f));
        let per_wake = m.ready_events as f64 / m.epoll_wakeups.max(1) as f64;
        let padded = m.batch_requests_hist.iter().map(|(k, v)| (format!("{k:04}"), count(*v)));
        let faults = nilm_fault::stats().into_iter().map(|(point, s)| {
            (point, JsonValue::object([("trials", count(s.trials)), ("fired", count(s.fired))]))
        });
        let trace = JsonValue::object([
            ("enabled", JsonValue::Bool(nilm_obs::trace::enabled())),
            ("ring_spans", count(nilm_obs::trace::ring_len() as u64)),
        ]);
        let explicit = [
            ("requests_total", count(m.requests_total)),
            ("batch_requests_histogram", JsonValue::Object(padded.collect())),
            (
                "latency_ms",
                JsonValue::object([
                    ("count", headline(|h| h.count() as f64)),
                    ("mean", headline(Histogram::mean_ms)),
                    ("p50", headline(|h| h.quantile_ms(0.50))),
                    ("p99", headline(|h| h.quantile_ms(0.99))),
                ]),
            ),
            ("ready_events_per_wake", JsonValue::Number(per_wake)),
            ("faults", JsonValue::Object(faults.collect())),
            ("trace", trace),
        ];
        doc.extend(explicit.map(|(k, v)| (k.to_string(), v)));
        JsonValue::Object(doc)
    }

    /// Snapshot as a Prometheus text-exposition (0.0.4) body, for
    /// `GET /metrics?format=prometheus`.
    pub fn to_prometheus(&self, queue_depth: usize) -> String {
        let m = self.lock();
        let kernels = nilm_obs::kernel::stats();
        let mut w = PromWriter::new();
        for family in families(&m, queue_depth, &kernels) {
            family.write(&mut w);
        }
        w.into_string()
    }
}

/// A fleet pass in flight; see [`Metrics::pass_begin`].
pub struct PassInFlight<'a>(&'a Metrics);

impl Drop for PassInFlight<'_> {
    fn drop(&mut self) {
        self.0.lock().passes_in_flight -= 1;
    }
}

/// One metric family, as both exporters see it.
struct Family<'a> {
    /// Exposition name, type (`counter`, `gauge`, `histogram`) and help.
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    /// The family's key in the JSON document; `None` for families the
    /// document shows in a shape of its own, or not at all.
    json: Option<&'static str>,
    values: Values<'a>,
}

/// The samples of one [`Family`].
enum Values<'a> {
    /// One unlabelled value.
    One(u64),
    /// One value per value of the named label.
    By(&'static str, Vec<(String, u64)>),
    /// One histogram per value of the named label.
    Hists(&'static str, &'a BTreeMap<&'static str, Histogram>),
    /// One value per kernel series (the given field of its stats),
    /// labelled by the series key. In the JSON document a kernel family
    /// shows every series as one object of calls and total time, keyed by
    /// a readable `op MxNxK tT backend` label.
    Kernels(&'a [(KernelKey, KernelStat)], fn(&KernelStat) -> f64),
}

impl<'a> Family<'a> {
    fn new(kind: &'static str, name: &'static str, values: Values<'a>) -> Self {
        Family { name, kind, help: "", json: None, values }
    }

    fn help(self, help: &'static str) -> Self {
        Family { help, ..self }
    }

    /// Carries the family in the JSON document under `key`.
    fn json(self, key: &'static str) -> Self {
        Family { json: Some(key), ..self }
    }

    /// Writes the family to the exposition.
    fn write(&self, w: &mut PromWriter) {
        let name = self.name;
        w.family(name, self.kind, self.help);
        match &self.values {
            Values::One(v) => w.sample(name, &[], *v as f64),
            Values::By(label, rows) => {
                for (value, v) in rows {
                    w.sample(name, &[(label, value)], *v as f64);
                }
            }
            Values::Hists(label, hists) => {
                for (value, h) in hists.iter() {
                    w.histogram(name, &[(label, value)], h);
                }
            }
            Values::Kernels(rows, value) => {
                for (key, stat) in rows.iter() {
                    let [m, n, k, t] = [key.m, key.n, key.k, key.threads].map(|d| d.to_string());
                    let labels = [
                        ("op", key.op),
                        ("m", &m),
                        ("n", &n),
                        ("k", &k),
                        ("threads", &t),
                        ("backend", key.backend),
                    ];
                    w.sample(name, &labels, value(stat));
                }
            }
        }
    }

    /// The family's values as they appear in the JSON document.
    fn into_json(self) -> JsonValue {
        let number = |v: u64| JsonValue::Number(v as f64);
        match self.values {
            Values::One(v) => number(v),
            Values::By(_, rows) => {
                JsonValue::Object(rows.into_iter().map(|(k, v)| (k, number(v))).collect())
            }
            Values::Hists(_, hists) => JsonValue::Object(
                hists.iter().map(|(k, h)| (k.to_string(), hist_json(h))).collect(),
            ),
            Values::Kernels(rows, _) => JsonValue::Object(
                rows.iter()
                    .map(|(key, stat)| {
                        let label = format!(
                            "{} {}x{}x{} t{} {}",
                            key.op, key.m, key.n, key.k, key.threads, key.backend
                        );
                        let row = JsonValue::object([
                            ("calls", number(stat.calls)),
                            ("total_ms", JsonValue::Number(stat.total_ns as f64 / 1e6)),
                        ]);
                        (label, row)
                    })
                    .collect(),
            ),
        }
    }
}

/// Every family both exporters carry, in exposition order: the counters in
/// `m` (read under the caller's lock), the kernel table snapshot `kernels`,
/// and the fault and trace state.
fn families<'a>(
    m: &'a Inner,
    queue_depth: usize,
    kernels: &'a [(KernelKey, KernelStat)],
) -> Vec<Family<'a>> {
    use Values::{By, Hists, Kernels, One};
    fn rows<K: ToString>(map: &BTreeMap<K, u64>) -> Vec<(String, u64)> {
        map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }
    let counter = |name, values| Family::new("counter", name, values);
    let gauge = |name, values| Family::new("gauge", name, values);
    let reg = add_stats(m.registry_base, m.registry_current);
    let registry = [
        ("hits", reg.hits),
        ("loads", reg.loads),
        ("evictions", reg.evictions),
        ("load_failures", reg.load_failures),
        ("quarantines", reg.quarantines),
    ];
    let mut families = vec![
        counter("nilm_requests_total", By("route", rows(&m.by_route)))
            .json("requests_by_route")
            .help("Requests received, by route."),
        counter("nilm_responses_total", By("status", rows(&m.by_status)))
            .json("responses_by_status")
            .help("Responses sent, by HTTP status."),
        counter("nilm_shed_total", One(m.shed_total))
            .json("shed_total")
            .help("Requests shed by the full queue."),
        counter("nilm_batch_passes_total", By("requests", rows(&m.batch_requests_hist)))
            .help("Batcher passes, by number of coalesced requests."),
        counter("nilm_gemm_batches_total", One(m.gemm_batches_total))
            .json("gemm_batches_total")
            .help("GEMM batch tensors assembled."),
        counter("nilm_windows_scored_total", One(m.windows_scored_total))
            .json("windows_scored_total")
            .help("Detector windows scored."),
        counter("nilm_inferences_total", One(m.inferences_total))
            .json("inferences_total")
            .help("Ensemble-member inferences run."),
        gauge("nilm_queue_depth", One(queue_depth as u64))
            .json("queue_depth")
            .help("Jobs waiting in the batcher queue now."),
        gauge("nilm_queue_peak", One(m.queue_peak))
            .json("queue_peak")
            .help("Peak queue depth observed at enqueue."),
        Family::new("histogram", "nilm_request_duration_seconds", Hists("route", &m.latency))
            .json("latency_by_route")
            .help("End-to-end request latency (dispatch to reply), by route."),
        Family::new("histogram", "nilm_stage_duration_seconds", Hists("stage", &m.stages))
            .json("stages")
            .help(
                "Per-pipeline-stage duration (parse, queue_wait, decode, coalesce, preprocess, \
                 infer, stitch, write).",
            ),
        counter("nilm_kernel_calls_total", Kernels(kernels, |s| s.calls as f64))
            .json("kernels")
            .help(
                "Production kernel invocations, by op, GEMM shape, keyed pool width, and backend.",
            ),
        counter("nilm_kernel_seconds_total", Kernels(kernels, |s| s.total_ns as f64 / 1e9))
            .help("Cumulative time inside production kernels, by op, shape, and backend."),
        counter("nilm_epoll_wakeups_total", One(m.epoll_wakeups))
            .json("epoll_wakeups")
            .help("Reactor event-loop wakeups."),
        counter("nilm_ready_events_total", One(m.ready_events))
            .help("Readiness events delivered to the loop."),
        counter("nilm_partial_writes_total", One(m.partial_writes))
            .json("partial_writes")
            .help("Response writes parked on EWOULDBLOCK."),
        gauge("nilm_conn_backlog_peak", One(m.conn_backlog_peak))
            .json("conn_backlog_peak")
            .help("Largest per-connection pipeline observed."),
        counter("nilm_reactor_restarts_total", One(m.reactor_restarts))
            .json("reactor_restarts")
            .help("Reactor respawns after a panic."),
        gauge("nilm_passes_in_flight", One(m.passes_in_flight))
            .json("passes_in_flight")
            .help("Fleet passes running now."),
        counter("nilm_passes_overlapped_total", One(m.passes_overlapped))
            .json("passes_overlapped_total")
            .help("Fleet passes that started while another pass was running."),
        counter("nilm_batcher_restarts_total", One(m.batcher_restarts))
            .json("batcher_restarts")
            .help("Pass-loop restarts after a panic."),
        counter("nilm_deadline_timeouts_total", One(m.deadline_timeouts))
            .json("deadline_timeouts")
            .help("Requests answered 503 by the reactor deadline."),
        counter("nilm_shard_retries_total", One(m.shard_retries))
            .json("shard_retries_total")
            .help("Fleet shards retried after a panic."),
        counter("nilm_households_degraded_total", One(m.households_degraded))
            .json("households_degraded_total")
            .help("Households answered with degraded placeholder rows."),
        counter(
            "nilm_registry_events_total",
            By("event", registry.map(|(e, n)| (e.to_string(), n)).to_vec()),
        )
        .json("registry")
        .help("Model registry events across every registry rebuild."),
    ];
    let faults = nilm_fault::stats();
    if !faults.is_empty() {
        let points = |n: fn(&nilm_fault::PointStats) -> u64| {
            By("point", faults.iter().map(|(p, s)| (p.clone(), n(s))).collect())
        };
        families.extend([
            counter("nilm_fault_trials_total", points(|s| s.trials))
                .help("Fault-point evaluations."),
            counter("nilm_fault_fired_total", points(|s| s.fired))
                .help("Fault-point injections fired."),
        ]);
    }
    families.extend([
        gauge("nilm_trace_enabled", One(nilm_obs::trace::enabled().into()))
            .help("Whether NILM_TRACE span recording is on."),
        gauge("nilm_trace_ring_spans", One(nilm_obs::trace::ring_len() as u64))
            .help("Spans currently held in the trace ring."),
    ]);
    families
}

/// One histogram as a JSON summary object.
fn hist_json(h: &Histogram) -> JsonValue {
    JsonValue::object([
        ("count", JsonValue::Number(h.count() as f64)),
        ("mean_ms", JsonValue::Number(h.mean_ms())),
        ("p50_ms", JsonValue::Number(h.quantile_ms(0.50))),
        ("p99_ms", JsonValue::Number(h.quantile_ms(0.99))),
        ("max_ms", JsonValue::Number(h.max_ms())),
    ])
}

/// Nearest-rank percentile of `samples` (0.0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn snapshot_counts_and_validates() {
        let m = Metrics::default();
        m.request("localize");
        m.request("healthz");
        m.response(200);
        m.response(503);
        m.shed();
        m.queue_depth(5);
        m.batch(4, 2, 48, 96);
        m.latency_ms("localize", 10.0);
        m.latency_ms("localize", 30.0);
        m.stage_ms("infer", 8.5);
        let first = m.pass_begin();
        drop(m.pass_begin());
        drop(m.pass_begin());
        let doc = m.to_json(1);
        assert_eq!(doc.get("passes_in_flight").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(doc.get("passes_overlapped_total").and_then(JsonValue::as_f64), Some(2.0));
        drop(first);
        drop(m.pass_begin());
        assert_eq!(
            m.to_json(1).get("passes_overlapped_total").and_then(JsonValue::as_f64),
            Some(2.0),
            "a pass that starts alone does not overlap"
        );
        nilm_json::validate(&doc.to_pretty()).unwrap();
        assert_eq!(doc.get("requests_total").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(doc.get("shed_total").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            doc.get("batch_requests_histogram")
                .and_then(|h| h.get("0004"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(doc.get("queue_peak").and_then(JsonValue::as_f64), Some(5.0));
        let lat = doc.get("latency_ms").unwrap();
        assert_eq!(lat.get("count").and_then(JsonValue::as_f64), Some(2.0));
        // Histogram quantiles report the bucket midpoint: within the
        // documented ~0.4% bound of the exact 30 ms sample, not exact.
        let p99 = lat.get("p99").and_then(JsonValue::as_f64).unwrap();
        assert!((p99 - 30.0).abs() <= 30.0 / 256.0 + 0.001, "p99 {p99} drifted from 30 ms");
        let stage = doc.get("stages").and_then(|s| s.get("infer")).unwrap();
        assert_eq!(stage.get("count").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn latency_histograms_keep_every_sample() {
        // The old last-4096 ring forgot early samples; the histogram must
        // keep every one (count is exact, quantiles within bound).
        let m = Metrics::default();
        for i in 0..10_000u64 {
            m.latency_ms("localize", i as f64 / 10.0);
            m.latency_ms("healthz", 0.05);
        }
        let doc = m.to_json(0);
        let lat = doc.get("latency_ms").unwrap();
        assert_eq!(lat.get("count").and_then(JsonValue::as_f64), Some(10_000.0));
        let p99 = lat.get("p99").and_then(JsonValue::as_f64).unwrap();
        let exact = 990.0;
        assert!((p99 - exact).abs() <= exact / 256.0 + 0.001, "p99 {p99} vs ~{exact}");
        let hz = doc.get("latency_by_route").and_then(|r| r.get("healthz")).unwrap();
        assert_eq!(hz.get("count").and_then(JsonValue::as_f64), Some(10_000.0));
    }

    /// Records the process-global rows both exporters read besides
    /// `Metrics` itself — two kernel series and one armed fault point with
    /// a trial and a fire count — exactly once per test binary, so every
    /// test that renders them sees the same rows whichever runs first. No
    /// other test in this binary records kernel rows or arms faults.
    fn global_rows() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            use nilm_obs::kernel::{record, KernelKey};
            let key = |op, m, backend| KernelKey { op, m, n: 512, k: 45, threads: 2, backend };
            record(key("conv_fwd", 8, "simd"), 1_500_000);
            record(key("conv_fwd", 8, "simd"), 500_000);
            record(key("gemm", 16, "naive"), 250_000);
            nilm_fault::arm_limited("metrics.golden", 1.0, 7, Some(2));
            for _ in 0..3 {
                nilm_fault::fires("metrics.golden");
            }
        });
    }

    /// Both `/metrics` documents, byte for byte, for a fixed set of
    /// recordings that touches every family. The trace gauges are
    /// process-global, so they are spliced in as read.
    #[test]
    fn exporters_match_the_golden_documents() {
        global_rows();
        let m = Metrics::default();
        for route in ["localize", "localize", "localize", "healthz", "metrics", "other"] {
            m.request(route);
        }
        for status in [200, 200, 200, 404, 503, 503] {
            m.response(status);
        }
        m.shed();
        for depth in [3, 7, 2] {
            m.queue_depth(depth);
        }
        m.batch(1, 1, 4, 8);
        m.batch(3, 2, 12, 36);
        m.batch(3, 1, 6, 18);
        for (route, ms) in
            [("localize", 1.25), ("localize", 40.0), ("localize", 7.5), ("healthz", 0.05)]
        {
            m.latency_ms(route, ms);
        }
        for (stage, ms) in [
            ("parse", 0.012),
            ("queue_wait", 0.5),
            ("decode", 0.2),
            ("coalesce", 0.002),
            ("preprocess", 1.5),
            ("infer", 12.0),
            ("infer", 3.0),
            ("stitch", 0.75),
            ("write", 0.03),
        ] {
            m.stage_ms(stage, ms);
        }
        let first = m.pass_begin();
        drop(m.pass_begin());
        let _live = m.pass_begin();
        drop(first);
        m.batcher_restart();
        m.deadline_timeout();
        m.deadline_timeout();
        m.shard_recovery(1, 2);
        m.shard_recovery(0, 0);
        let stats = |hits, loads, evictions, load_failures, quarantines| RegistryStats {
            hits,
            loads,
            evictions,
            load_failures,
            quarantines,
        };
        m.set_registry_current(stats(5, 3, 1, 2, 1));
        m.roll_registry(stats(6, 3, 1, 2, 1));
        m.set_registry_current(stats(2, 1, 0, 0, 0));
        for events in [3, 0, 4] {
            m.reactor_wake(events);
        }
        m.partial_write();
        for depth in [2, 5, 1] {
            m.conn_backlog(depth);
        }
        m.reactor_restart();

        let on = nilm_obs::trace::enabled();
        let ring = nilm_obs::trace::ring_len().to_string();
        let json = include_str!("../tests/golden/metrics.json")
            .replace("@TRACE_ENABLED@", if on { "true" } else { "false" })
            .replace("@RING_SPANS@", &ring);
        let prom = include_str!("../tests/golden/metrics.prom")
            .replace("@TRACE_ENABLED@", if on { "1" } else { "0" })
            .replace("@RING_SPANS@", &ring);
        assert_eq!(m.to_json(4).to_pretty(), json);
        assert_eq!(m.to_prometheus(4), prom);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        global_rows();
        let m = Metrics::default();
        m.request("localize");
        m.response(200);
        m.latency_ms("localize", 12.5);
        m.latency_ms("healthz", 0.2);
        m.stage_ms("infer", 9.0);
        m.stage_ms("write", 0.1);
        m.batch(2, 1, 10, 20);
        let text = m.to_prometheus(3);
        // Every series line's family was declared with HELP + TYPE, no
        // series repeats, and each family's lines form one group, HELP and
        // TYPE first — the invariants the CI gate re-checks over a live
        // gateway. The global rows put two kernel series and an armed fault
        // point in, so the two-family kernel and fault tables are covered.
        let mut declared = std::collections::BTreeSet::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut groups: Vec<String> = Vec::new();
        for line in text.lines() {
            let family = if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(declared.insert(name.clone()), "{name} declared twice");
                name
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert_eq!(groups.last().map(String::as_str), Some(name), "TYPE apart from HELP");
                continue;
            } else {
                let series = line.rsplit_once(' ').unwrap().0.to_string();
                let family = series.split('{').next().unwrap();
                let base = family
                    .strip_suffix("_bucket")
                    .or_else(|| family.strip_suffix("_sum"))
                    .or_else(|| family.strip_suffix("_count"))
                    .filter(|b| declared.contains(*b))
                    .unwrap_or(family);
                assert!(declared.contains(base), "undeclared family for {series}");
                assert!(seen.insert(series.clone()), "duplicate series {series}");
                base.to_string()
            };
            if groups.last() != Some(&family) {
                assert!(!groups.contains(&family), "{family} is split by another family");
                groups.push(family);
            }
        }
        for family in ["nilm_kernel_seconds_total", "nilm_fault_fired_total"] {
            assert!(text.contains(&format!("\n{family}{{")), "no {family} sample");
        }
        assert!(text.contains("nilm_request_duration_seconds_bucket{route=\"localize\","));
        assert!(text.contains("le=\"+Inf\"}"));
        assert!(text.contains("nilm_stage_duration_seconds_count{stage=\"infer\"} 1"));
        assert!(text.contains("nilm_queue_depth 3"));
        assert!(text.contains("nilm_passes_in_flight 0"));
        assert!(text.contains("nilm_passes_overlapped_total 0"));
    }
}
