//! Operational metrics of the gateway, served as JSON on `GET /metrics`
//! and in Prometheus text exposition on `GET /metrics?format=prometheus`.
//!
//! Counters are grouped behind one mutex (the gateway records a handful of
//! updates per request — contention is negligible next to inference) and
//! snapshot into a [`JsonValue`] document or an exposition body on demand.
//! Latencies live in [`nilm_obs::hist::Histogram`]s — log-linear HDR-style
//! histograms with bounded memory and a ~0.4% quantile error — keyed by
//! route, plus one histogram per pipeline stage (`parse`, `queue_wait`,
//! `decode`, `coalesce`, `preprocess`, `infer`, `stitch`, `write`), so the
//! full latency distribution survives indefinitely instead of a lossy
//! last-N window.
//!
//! Recovery is observable, not just tested: the document carries pass-loop
//! restarts (`batcher_restarts`), per-request deadline timeouts, fleet
//! shard retries and degraded households, the registry's load-failure /
//! quarantine counters (kept monotonic across registry rebuilds by folding
//! each replaced registry's totals into a base), and — when fault
//! injection is armed —
//! per-point trial/fire counts from [`nilm_fault::stats`]. Pass overlap
//! shows as a gauge of fleet passes in flight and a counter of passes that
//! started while another was running. Cumulative
//! per-`(op, shape, backend)` kernel timings from
//! [`nilm_obs::kernel::stats`] ride along in both exporters.

use camal::registry::RegistryStats;
use nilm_json::JsonValue;
use nilm_obs::hist::Histogram;
use nilm_obs::prom::PromWriter;
use std::collections::BTreeMap;
use std::sync::Mutex;

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
    queue_peak: usize,
    /// End-to-end latency distribution per route (dispatch → reply).
    latency: BTreeMap<&'static str, Histogram>,
    /// Per-pipeline-stage duration distributions (`parse`, `queue_wait`,
    /// `decode`, `coalesce`, `preprocess`, `infer`, `stitch`, `write`).
    stages: BTreeMap<&'static str, Histogram>,
    /// Fleet passes running now, and passes that started while another
    /// was running (the pass loops' overlap).
    passes_in_flight: usize,
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
    conn_backlog_peak: usize,
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
    /// A fresh, zeroed sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one request hitting `route`.
    pub fn request(&self, route: &'static str) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.requests_total += 1;
        *m.by_route.entry(route).or_insert(0) += 1;
    }

    /// Counts one response with `status`.
    pub fn response(&self, status: u16) {
        let mut m = self.inner.lock().expect("metrics lock");
        *m.by_status.entry(status).or_insert(0) += 1;
    }

    /// Counts one load-shedding rejection (a `503` from a full queue; the
    /// response itself is counted by [`Metrics::response`]).
    pub fn shed(&self) {
        self.inner.lock().expect("metrics lock").shed_total += 1;
    }

    /// Records the queue depth observed right after an enqueue.
    pub fn queue_depth(&self, depth: usize) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.queue_peak = m.queue_peak.max(depth);
    }

    /// Records one fleet pass: how many requests it coalesced and the
    /// fleet-pass work counters.
    pub fn batch(&self, requests: usize, gemm_batches: usize, windows: usize, inferences: usize) {
        let mut m = self.inner.lock().expect("metrics lock");
        *m.batch_requests_hist.entry(requests).or_insert(0) += 1;
        m.gemm_batches_total += gemm_batches as u64;
        m.windows_scored_total += windows as u64;
        m.inferences_total += inferences as u64;
    }

    /// Records one request's end-to-end latency under its route label.
    pub fn latency_ms(&self, route: &'static str, ms: f64) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.latency.entry(route).or_default().record_ms(ms);
    }

    /// Records one pipeline-stage duration sample.
    pub fn stage_ms(&self, stage: &'static str, ms: f64) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.stages.entry(stage).or_default().record_ms(ms);
    }

    /// Marks one fleet pass in flight until the returned guard drops (an
    /// unwinding pass included), counting it as overlapped when another
    /// pass was already running.
    pub fn pass_begin(&self) -> PassInFlight<'_> {
        let mut m = self.inner.lock().expect("metrics lock");
        if m.passes_in_flight > 0 {
            m.passes_overlapped += 1;
        }
        m.passes_in_flight += 1;
        PassInFlight(self)
    }

    /// Counts one pass-loop restart after a panic.
    pub fn batcher_restart(&self) {
        self.inner.lock().expect("metrics lock").batcher_restarts += 1;
    }

    /// Counts one localize request that hit its deadline before its pass
    /// replied (answered `503` + `Retry-After`).
    pub fn deadline_timeout(&self) {
        self.inner.lock().expect("metrics lock").deadline_timeouts += 1;
    }

    /// Records one fleet pass's recovery counters: shards retried after a
    /// panic and households answered with degraded rows.
    pub fn shard_recovery(&self, retries: usize, degraded: usize) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.shard_retries += retries as u64;
        m.households_degraded += degraded as u64;
    }

    /// Updates the live registry counters.
    pub fn set_registry_current(&self, stats: RegistryStats) {
        self.inner.lock().expect("metrics lock").registry_current = stats;
    }

    /// Folds a replaced registry's final counters into the base, so the
    /// exported totals stay monotonic across rebuilds. The fresh registry
    /// starts from zero.
    pub fn roll_registry(&self, last_seen: RegistryStats) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.registry_base = add_stats(m.registry_base, last_seen);
        m.registry_current = RegistryStats::default();
    }

    /// Records one reactor wake and how many readiness events it carried.
    pub fn reactor_wake(&self, ready_events: usize) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.epoll_wakeups += 1;
        m.ready_events += ready_events as u64;
    }

    /// Counts one response write parked on `EWOULDBLOCK` / a short write.
    pub fn partial_write(&self) {
        self.inner.lock().expect("metrics lock").partial_writes += 1;
    }

    /// Records a connection's in-flight pipeline depth; keeps the peak.
    pub fn conn_backlog(&self, depth: usize) {
        let mut m = self.inner.lock().expect("metrics lock");
        m.conn_backlog_peak = m.conn_backlog_peak.max(depth);
    }

    /// Counts one reactor respawn after an event-loop panic.
    pub fn reactor_restart(&self) {
        self.inner.lock().expect("metrics lock").reactor_restarts += 1;
    }

    /// Snapshot as the `GET /metrics` JSON document. `queue_depth` is the
    /// live depth sampled by the caller.
    pub fn to_json(&self, queue_depth: usize) -> JsonValue {
        let m = self.inner.lock().expect("metrics lock");
        let routes: BTreeMap<String, JsonValue> =
            m.by_route.iter().map(|(k, v)| (k.to_string(), JsonValue::Number(*v as f64))).collect();
        let statuses: BTreeMap<String, JsonValue> = m
            .by_status
            .iter()
            .map(|(k, v)| (k.to_string(), JsonValue::Number(*v as f64)))
            .collect();
        let hist: BTreeMap<String, JsonValue> = m
            .batch_requests_hist
            .iter()
            .map(|(k, v)| (format!("{k:04}"), JsonValue::Number(*v as f64)))
            .collect();
        let localize = m.latency.get("localize");
        let by_route: BTreeMap<String, JsonValue> =
            m.latency.iter().map(|(k, h)| (k.to_string(), hist_json(h))).collect();
        let stages: BTreeMap<String, JsonValue> =
            m.stages.iter().map(|(k, h)| (k.to_string(), hist_json(h))).collect();
        JsonValue::object([
            ("requests_total", JsonValue::Number(m.requests_total as f64)),
            ("requests_by_route", JsonValue::Object(routes)),
            ("responses_by_status", JsonValue::Object(statuses)),
            ("shed_total", JsonValue::Number(m.shed_total as f64)),
            ("batch_requests_histogram", JsonValue::Object(hist)),
            ("gemm_batches_total", JsonValue::Number(m.gemm_batches_total as f64)),
            ("windows_scored_total", JsonValue::Number(m.windows_scored_total as f64)),
            ("inferences_total", JsonValue::Number(m.inferences_total as f64)),
            ("queue_depth", JsonValue::Number(queue_depth as f64)),
            ("queue_peak", JsonValue::Number(m.queue_peak as f64)),
            (
                // Localize end-to-end latency, the headline series. Kept at
                // the top level (and in this shape) for dashboard
                // continuity; `latency_by_route` has every route.
                "latency_ms",
                JsonValue::object([
                    (
                        "count",
                        JsonValue::Number(localize.map(Histogram::count).unwrap_or(0) as f64),
                    ),
                    ("mean", JsonValue::Number(localize.map(Histogram::mean_ms).unwrap_or(0.0))),
                    (
                        "p50",
                        JsonValue::Number(localize.map(|h| h.quantile_ms(0.50)).unwrap_or(0.0)),
                    ),
                    (
                        "p99",
                        JsonValue::Number(localize.map(|h| h.quantile_ms(0.99)).unwrap_or(0.0)),
                    ),
                ]),
            ),
            ("latency_by_route", JsonValue::Object(by_route)),
            ("stages", JsonValue::Object(stages)),
            ("kernels", kernels_json()),
            ("epoll_wakeups", JsonValue::Number(m.epoll_wakeups as f64)),
            (
                "ready_events_per_wake",
                JsonValue::Number(if m.epoll_wakeups > 0 {
                    m.ready_events as f64 / m.epoll_wakeups as f64
                } else {
                    0.0
                }),
            ),
            ("partial_writes", JsonValue::Number(m.partial_writes as f64)),
            ("conn_backlog_peak", JsonValue::Number(m.conn_backlog_peak as f64)),
            ("reactor_restarts", JsonValue::Number(m.reactor_restarts as f64)),
            ("passes_in_flight", JsonValue::Number(m.passes_in_flight as f64)),
            ("passes_overlapped_total", JsonValue::Number(m.passes_overlapped as f64)),
            ("batcher_restarts", JsonValue::Number(m.batcher_restarts as f64)),
            ("deadline_timeouts", JsonValue::Number(m.deadline_timeouts as f64)),
            ("shard_retries_total", JsonValue::Number(m.shard_retries as f64)),
            ("households_degraded_total", JsonValue::Number(m.households_degraded as f64)),
            ("registry", registry_json(add_stats(m.registry_base, m.registry_current))),
            ("faults", faults_json()),
            (
                "trace",
                JsonValue::object([
                    ("enabled", JsonValue::Bool(nilm_obs::trace::enabled())),
                    ("ring_spans", JsonValue::Number(nilm_obs::trace::ring_len() as f64)),
                ]),
            ),
        ])
    }

    /// Snapshot as a Prometheus text-exposition (0.0.4) body, for
    /// `GET /metrics?format=prometheus`.
    pub fn to_prometheus(&self, queue_depth: usize) -> String {
        let m = self.inner.lock().expect("metrics lock");
        let mut w = PromWriter::new();

        w.family("nilm_requests_total", "counter", "Requests received, by route.");
        for (route, n) in &m.by_route {
            w.sample("nilm_requests_total", &[("route", route)], *n as f64);
        }
        w.family("nilm_responses_total", "counter", "Responses sent, by HTTP status.");
        for (status, n) in &m.by_status {
            w.sample("nilm_responses_total", &[("status", &status.to_string())], *n as f64);
        }
        w.family("nilm_shed_total", "counter", "Requests shed by the full queue.");
        w.sample("nilm_shed_total", &[], m.shed_total as f64);

        w.family(
            "nilm_batch_passes_total",
            "counter",
            "Batcher passes, by number of coalesced requests.",
        );
        for (requests, n) in &m.batch_requests_hist {
            w.sample("nilm_batch_passes_total", &[("requests", &requests.to_string())], *n as f64);
        }
        w.family("nilm_gemm_batches_total", "counter", "GEMM batch tensors assembled.");
        w.sample("nilm_gemm_batches_total", &[], m.gemm_batches_total as f64);
        w.family("nilm_windows_scored_total", "counter", "Detector windows scored.");
        w.sample("nilm_windows_scored_total", &[], m.windows_scored_total as f64);
        w.family("nilm_inferences_total", "counter", "Ensemble-member inferences run.");
        w.sample("nilm_inferences_total", &[], m.inferences_total as f64);

        w.family("nilm_queue_depth", "gauge", "Jobs waiting in the batcher queue now.");
        w.sample("nilm_queue_depth", &[], queue_depth as f64);
        w.family("nilm_queue_peak", "gauge", "Peak queue depth observed at enqueue.");
        w.sample("nilm_queue_peak", &[], m.queue_peak as f64);

        w.family(
            "nilm_request_duration_seconds",
            "histogram",
            "End-to-end request latency (dispatch to reply), by route.",
        );
        for (route, h) in &m.latency {
            w.histogram("nilm_request_duration_seconds", &[("route", route)], h);
        }
        w.family(
            "nilm_stage_duration_seconds",
            "histogram",
            "Per-pipeline-stage duration (parse, queue_wait, decode, coalesce, preprocess, \
             infer, stitch, write).",
        );
        for (stage, h) in &m.stages {
            w.histogram("nilm_stage_duration_seconds", &[("stage", stage)], h);
        }

        w.family(
            "nilm_kernel_calls_total",
            "counter",
            "Production kernel invocations (an autotuner race counts once), by op, GEMM shape, keyed pool width, and backend.",
        );
        w.family(
            "nilm_kernel_seconds_total",
            "counter",
            "Cumulative time inside production kernels, by op, shape, and backend.",
        );
        for (key, stat) in nilm_obs::kernel::stats() {
            let (m_s, n_s, k_s, t_s) =
                (key.m.to_string(), key.n.to_string(), key.k.to_string(), key.threads.to_string());
            let labels: [(&str, &str); 6] = [
                ("op", key.op),
                ("m", &m_s),
                ("n", &n_s),
                ("k", &k_s),
                ("threads", &t_s),
                ("backend", key.backend),
            ];
            w.sample("nilm_kernel_calls_total", &labels, stat.calls as f64);
            w.sample("nilm_kernel_seconds_total", &labels, stat.total_ns as f64 / 1e9);
        }

        w.family("nilm_epoll_wakeups_total", "counter", "Reactor event-loop wakeups.");
        w.sample("nilm_epoll_wakeups_total", &[], m.epoll_wakeups as f64);
        w.family("nilm_ready_events_total", "counter", "Readiness events delivered to the loop.");
        w.sample("nilm_ready_events_total", &[], m.ready_events as f64);
        w.family("nilm_partial_writes_total", "counter", "Response writes parked on EWOULDBLOCK.");
        w.sample("nilm_partial_writes_total", &[], m.partial_writes as f64);
        w.family("nilm_conn_backlog_peak", "gauge", "Largest per-connection pipeline observed.");
        w.sample("nilm_conn_backlog_peak", &[], m.conn_backlog_peak as f64);

        w.family("nilm_reactor_restarts_total", "counter", "Reactor respawns after a panic.");
        w.sample("nilm_reactor_restarts_total", &[], m.reactor_restarts as f64);
        w.family("nilm_passes_in_flight", "gauge", "Fleet passes running now.");
        w.sample("nilm_passes_in_flight", &[], m.passes_in_flight as f64);
        w.family(
            "nilm_passes_overlapped_total",
            "counter",
            "Fleet passes that started while another pass was running.",
        );
        w.sample("nilm_passes_overlapped_total", &[], m.passes_overlapped as f64);
        w.family("nilm_batcher_restarts_total", "counter", "Pass-loop restarts after a panic.");
        w.sample("nilm_batcher_restarts_total", &[], m.batcher_restarts as f64);
        w.family(
            "nilm_deadline_timeouts_total",
            "counter",
            "Requests answered 503 by the reactor deadline.",
        );
        w.sample("nilm_deadline_timeouts_total", &[], m.deadline_timeouts as f64);
        w.family("nilm_shard_retries_total", "counter", "Fleet shards retried after a panic.");
        w.sample("nilm_shard_retries_total", &[], m.shard_retries as f64);
        w.family(
            "nilm_households_degraded_total",
            "counter",
            "Households answered with degraded placeholder rows.",
        );
        w.sample("nilm_households_degraded_total", &[], m.households_degraded as f64);

        let reg = add_stats(m.registry_base, m.registry_current);
        w.family(
            "nilm_registry_events_total",
            "counter",
            "Model registry events across every registry rebuild.",
        );
        for (event, n) in [
            ("hits", reg.hits),
            ("loads", reg.loads),
            ("evictions", reg.evictions),
            ("load_failures", reg.load_failures),
            ("quarantines", reg.quarantines),
        ] {
            w.sample("nilm_registry_events_total", &[("event", event)], n as f64);
        }

        let faults = nilm_fault::stats();
        if !faults.is_empty() {
            w.family("nilm_fault_trials_total", "counter", "Fault-point evaluations.");
            w.family("nilm_fault_fired_total", "counter", "Fault-point injections fired.");
            for (point, s) in &faults {
                w.sample("nilm_fault_trials_total", &[("point", point)], s.trials as f64);
            }
            for (point, s) in &faults {
                w.sample("nilm_fault_fired_total", &[("point", point)], s.fired as f64);
            }
        }

        w.family("nilm_trace_enabled", "gauge", "Whether NILM_TRACE span recording is on.");
        w.sample("nilm_trace_enabled", &[], if nilm_obs::trace::enabled() { 1.0 } else { 0.0 });
        w.family("nilm_trace_ring_spans", "gauge", "Spans currently held in the trace ring.");
        w.sample("nilm_trace_ring_spans", &[], nilm_obs::trace::ring_len() as f64);

        w.into_string()
    }
}

/// A fleet pass in flight; see [`Metrics::pass_begin`].
pub struct PassInFlight<'a>(&'a Metrics);

impl Drop for PassInFlight<'_> {
    fn drop(&mut self) {
        let mut m = self.0.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        m.passes_in_flight -= 1;
    }
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

/// Cumulative kernel timings as a JSON object keyed by a readable
/// `op MxNxK tT backend` label.
fn kernels_json() -> JsonValue {
    let rows: BTreeMap<String, JsonValue> = nilm_obs::kernel::stats()
        .into_iter()
        .map(|(key, stat)| {
            (
                format!(
                    "{} {}x{}x{} t{} {}",
                    key.op, key.m, key.n, key.k, key.threads, key.backend
                ),
                JsonValue::object([
                    ("calls", JsonValue::Number(stat.calls as f64)),
                    ("total_ms", JsonValue::Number(stat.total_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    JsonValue::Object(rows)
}

/// Registry totals (all batcher generations combined) as a JSON object.
fn registry_json(s: RegistryStats) -> JsonValue {
    JsonValue::object([
        ("hits", JsonValue::Number(s.hits as f64)),
        ("loads", JsonValue::Number(s.loads as f64)),
        ("evictions", JsonValue::Number(s.evictions as f64)),
        ("load_failures", JsonValue::Number(s.load_failures as f64)),
        ("quarantines", JsonValue::Number(s.quarantines as f64)),
    ])
}

/// Per-point fault-injection counters; an empty object when no fault
/// point is (or ever was) armed.
fn faults_json() -> JsonValue {
    let points: BTreeMap<String, JsonValue> = nilm_fault::stats()
        .into_iter()
        .map(|(name, s)| {
            (
                name,
                JsonValue::object([
                    ("trials", JsonValue::Number(s.trials as f64)),
                    ("fired", JsonValue::Number(s.fired as f64)),
                ]),
            )
        })
        .collect();
    JsonValue::Object(points)
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
        let m = Metrics::new();
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
        let m = Metrics::new();
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

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::new();
        m.request("localize");
        m.response(200);
        m.latency_ms("localize", 12.5);
        m.latency_ms("healthz", 0.2);
        m.stage_ms("infer", 9.0);
        m.stage_ms("write", 0.1);
        m.batch(2, 1, 10, 20);
        let text = m.to_prometheus(3);
        // Every series line's family was declared with HELP + TYPE, and no
        // series repeats — the two invariants the CI gate re-checks over
        // a live gateway.
        let mut declared = std::collections::BTreeSet::new();
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                declared.insert(rest.split(' ').next().unwrap().to_string());
            } else if line.starts_with('#') {
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
            }
        }
        assert!(text.contains("nilm_request_duration_seconds_bucket{route=\"localize\","));
        assert!(text.contains("le=\"+Inf\"}"));
        assert!(text.contains("nilm_stage_duration_seconds_count{stage=\"infer\"} 1"));
        assert!(text.contains("nilm_queue_depth 3"));
        assert!(text.contains("nilm_passes_in_flight 0"));
        assert!(text.contains("nilm_passes_overlapped_total 0"));
    }
}
