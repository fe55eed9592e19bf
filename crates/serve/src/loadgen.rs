//! Socket-level load generator for the gateway.
//!
//! Opens `connections` real TCP connections, fires `total_requests`
//! `POST /v1/localize` requests split across them (each connection sends
//! its next request only after reading the previous response —
//! per-connection closed-loop, so `connections = 1` measures strictly
//! sequential serving and `connections = N` measures the concurrency the
//! micro-batcher can coalesce), and reports requests/s plus latency
//! percentiles.
//!
//! `keep_alive = false` opens a **fresh connection per request** — the
//! "sequential single requests" shape a naive integration (one curl per
//! household) issues, paying TCP setup and the reactor's accept and
//! registration of a new connection every time. That is the baseline the demo's throughput gate compares
//! against; `keep_alive = true` is the production client shape.

use crate::http::{read_response, HttpError};
use crate::metrics::percentile;
use nilm_obs::hist::Histogram;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Result of one load generation run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Concurrent connections used.
    pub connections: usize,
    /// Requests completed with a 200 response.
    pub ok: usize,
    /// Requests answered with a non-200 status (e.g. shed with 503).
    pub errors: usize,
    /// Completed requests by HTTP status code. The chaos gate reads this:
    /// under fault injection every request must land in 200 or 503 —
    /// a single 500 (or a hang, which shows up as a connection error)
    /// fails the run.
    pub by_status: BTreeMap<u16, usize>,
    /// `503` responses that arrived without a `Retry-After` header. The
    /// recovery contract says every `503` tells the client when to come
    /// back; this counts violations (should be 0).
    pub missing_retry_after: usize,
    /// Wall-clock seconds of the whole run.
    pub elapsed_s: f64,
    /// Completed requests (any status) per second.
    pub requests_per_second: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Mean request latency in milliseconds.
    pub mean_ms: f64,
    /// Total response body bytes read.
    pub body_bytes: usize,
    /// Full latency distribution (log-linear HDR buckets, every sample
    /// retained at ~1% value resolution) — `--latency-json` dumps this, and
    /// it answers any quantile the three summary fields above don't.
    pub latency: Histogram,
}

/// Errors the load generator can hit (connection-level; HTTP error
/// *statuses* are counted in the report instead).
#[derive(Debug)]
pub enum LoadgenError {
    /// Could not connect to the gateway.
    Connect(std::io::Error),
    /// A connection died mid-run.
    Http(HttpError),
}

impl std::fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadgenError::Connect(e) => write!(f, "cannot connect: {e}"),
            LoadgenError::Http(e) => write!(f, "connection failed mid-run: {e}"),
        }
    }
}

impl std::error::Error for LoadgenError {}

/// Knobs for [`run_loadgen_with`]. [`run_loadgen`] is the
/// closed-loop (`pipeline = 1`) shorthand.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub total_requests: usize,
    /// Persistent connections (`false` = fresh connection per request).
    pub keep_alive: bool,
    /// Requests written back-to-back before the first response is read
    /// (HTTP/1.1 pipelining). `1` is the classic closed loop; higher
    /// depths exercise the reactor's per-connection in-flight pipeline
    /// and in-order response writer. Ignored when `keep_alive` is off.
    pub pipeline: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions { connections: 1, total_requests: 1, keep_alive: true, pipeline: 1 }
    }
}

/// Fires `total_requests` requests with body `body` at
/// `addr`/`/v1/localize` over `connections` connections (keep-alive when
/// `keep_alive`, one fresh connection per request otherwise). Requests
/// are split as evenly as possible; each worker thread runs its own
/// closed loop and records per-request latency.
pub fn run_loadgen(
    addr: &str,
    connections: usize,
    total_requests: usize,
    body: &str,
    keep_alive: bool,
) -> Result<LoadgenReport, LoadgenError> {
    run_loadgen_with(
        addr,
        body,
        &LoadgenOptions { connections, total_requests, keep_alive, ..LoadgenOptions::default() },
    )
}

/// [`run_loadgen`] with explicit [`LoadgenOptions`] — in particular a
/// pipelining depth: each connection writes `pipeline` requests in one
/// burst, then reads that many responses in order (latency is measured
/// per request from its wave's first byte out). Pipelined waves are what
/// force the gateway to hold several decoded requests in flight per
/// connection and still answer strictly in order.
pub fn run_loadgen_with(
    addr: &str,
    body: &str,
    opts: &LoadgenOptions,
) -> Result<LoadgenReport, LoadgenError> {
    let connections = opts.connections.max(1);
    let total_requests = opts.total_requests;
    let keep_alive = opts.keep_alive;
    let pipeline = opts.pipeline.max(1);
    let request = format!(
        "POST /v1/localize HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n{body}",
        body.len(),
        if keep_alive { "" } else { "Connection: close\r\n" },
    );
    let per_conn: Vec<usize> = (0..connections)
        .map(|c| total_requests / connections + usize::from(c < total_requests % connections))
        .collect();

    let start = Instant::now();
    let results: Vec<Result<WorkerTally, LoadgenError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|&n| {
                let request = request.as_str();
                scope.spawn(move || worker(addr, n, request, keep_alive, pipeline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::with_capacity(total_requests);
    let (mut ok, mut errors, mut body_bytes) = (0usize, 0usize, 0usize);
    let mut by_status: BTreeMap<u16, usize> = BTreeMap::new();
    let mut missing_retry_after = 0usize;
    for r in results {
        let tally = r?;
        latencies.extend(tally.latencies_ms);
        ok += tally.ok;
        errors += tally.errors;
        body_bytes += tally.body_bytes;
        missing_retry_after += tally.missing_retry_after;
        for (status, count) in tally.by_status {
            *by_status.entry(status).or_insert(0) += count;
        }
    }
    let completed = ok + errors;
    let mut latency = Histogram::new();
    for &ms in &latencies {
        latency.record_ms(ms);
    }
    Ok(LoadgenReport {
        connections,
        ok,
        errors,
        by_status,
        missing_retry_after,
        elapsed_s,
        requests_per_second: completed as f64 / elapsed_s.max(1e-9),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        mean_ms: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
        body_bytes,
        latency,
    })
}

/// What one worker thread measured.
#[derive(Default)]
struct WorkerTally {
    latencies_ms: Vec<f64>,
    ok: usize,
    errors: usize,
    body_bytes: usize,
    by_status: BTreeMap<u16, usize>,
    missing_retry_after: usize,
}

impl WorkerTally {
    fn record(&mut self, start: Instant, response: &crate::http::Response) {
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if response.status == 200 {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
        *self.by_status.entry(response.status).or_insert(0) += 1;
        if response.status == 503 && response.header("retry-after").is_none() {
            self.missing_retry_after += 1;
        }
        self.body_bytes += response.body.len();
    }
}

/// One worker: `n` request/response cycles, either over one persistent
/// connection (optionally pipelined `depth` at a time) or over a fresh
/// connection each cycle.
fn worker(
    addr: &str,
    n: usize,
    request: &str,
    keep_alive: bool,
    depth: usize,
) -> Result<WorkerTally, LoadgenError> {
    let mut tally = WorkerTally::default();
    if n == 0 {
        return Ok(tally);
    }
    let connect = || -> Result<TcpStream, LoadgenError> {
        let stream = TcpStream::connect(addr).map_err(LoadgenError::Connect)?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(LoadgenError::Connect)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    };
    tally.latencies_ms.reserve(n);
    if keep_alive {
        let stream = connect()?;
        let mut reader = BufReader::new(&stream);
        let mut remaining = n;
        while remaining > 0 {
            let wave = depth.min(remaining);
            remaining -= wave;
            let start = Instant::now();
            let burst = request.repeat(wave);
            (&stream)
                .write_all(burst.as_bytes())
                .map_err(|e| LoadgenError::Http(HttpError::Io(e)))?;
            for _ in 0..wave {
                let response = read_response(&mut reader).map_err(LoadgenError::Http)?;
                tally.record(start, &response);
            }
        }
    } else {
        for _ in 0..n {
            let start = Instant::now();
            let stream = connect()?;
            (&stream)
                .write_all(request.as_bytes())
                .map_err(|e| LoadgenError::Http(HttpError::Io(e)))?;
            let mut reader = BufReader::new(&stream);
            let response = read_response(&mut reader).map_err(LoadgenError::Http)?;
            tally.record(start, &response);
        }
    }
    Ok(tally)
}
