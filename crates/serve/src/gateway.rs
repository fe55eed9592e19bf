//! The gateway server: the epoll reactor front end and the
//! micro-batching pass loops.
//!
//! Connections are owned by one event-loop thread (the **reactor**, see
//! the private `reactor` module): readiness-driven incremental parsing, pipelined
//! in-order responses, non-blocking writes, per-connection backpressure,
//! and per-request deadlines all live there. The reactor answers the cheap
//! routes (health, readiness, metrics, model listing, traces, shutdown)
//! inline and puts each `POST /v1/localize` request, body still undecoded,
//! on the bounded [`JobQueue`] — one hand-off to a pass loop, and one back.
//!
//! Localize jobs are served by **pass loops** (the batcher): one
//! persistent thread per `rayon` pool slot
//! ([`camal::fleet::available_threads`]), all popping from the one queue.
//! A loop pops the first waiting job, drains whatever else queued up
//! behind it (the concurrent backlog), decodes and validates each request
//! it took (answering malformed ones `400` and unknown models `404`
//! itself), groups the rest by requested key set, and serves each group as
//! **one** fleet pass with every job's households merged — so windows from
//! different requests share GEMM batches — then renders and sends the
//! responses itself. While one loop runs a pass, the
//! others keep taking jobs, so a request never waits out another
//! connection's pass while a core is free. All loops share **one**
//! [`ModelRegistry`] behind a mutex, held only to resolve a pass's keys
//! into shared model handles ([`camal::fleet::resolve_fleet`]: load,
//! evict, quarantine) and read its counters; the pass itself
//! ([`camal::fleet::run_fleet`]) runs without it. A pass may use every
//! core: the fleet splits a large pass into household shards over one
//! shared copy of each model ([`camal::fleet::SHARD_MIN_MACS`]). Before
//! it runs, a pass leases one core per shard from a budget of one core
//! per loop, in arrival order: small passes overlap on idle cores, while a
//! pass sharded over every core waits for them instead of doubling up on
//! busy ones (on a 2-vCPU host, letting two such passes overlap raised
//! the bulk benchmark's p90 latency and peak RSS). Because
//! window scoring is row-independent (eval-mode BatchNorm, per-row GEMM
//! tiles), coalescing never changes a response: each one is bit-identical
//! to a direct [`camal::stream::serve`] call, which the concurrency tests
//! pin, and the reactor's per-connection outbox puts responses that finish
//! out of order back in request order.
//!
//! Overload: a full queue answers `503` immediately (load shedding), a
//! full per-connection pipeline drops read interest (backpressure), and a
//! connection flood past `max_connections` sheds with `503` at accept.
//! Shutdown: [`Gateway::shutdown`] (or `POST /admin/shutdown`) closes the
//! listener first, lets live connections drain their in-flight requests
//! (bounded by their deadlines), then lets the last pass loop close the
//! queue — reactor → pass loops, in order.
//!
//! Failure is a first-class input, not an afterthought. Each pass loop
//! runs under a supervisor (`supervise_passes`): a panic anywhere in a
//! decode or a pass is caught, the shared registry is rebuilt under its
//! lock from the startup `RegistrySpec` (file-backed checkpoints
//! re-register their paths, pinned models are re-inserted from the `Arc`s
//! taken at warm time — inference never writes to a model, so a panic
//! cannot have damaged them), and only then are that loop's in-flight jobs
//! (decoded or not) answered `503` + `Retry-After` (their `ReplyHandle`s
//! drop) instead of hanging or `500`ing, so a client that retries reaches
//! the rebuilt registry. Passes on other loops keep their model handles
//! and finish; the panicked loop restarts. The reactor arms a deadline per
//! request ([`GatewayConfig::deadline`], overridable via the
//! `X-Camal-Deadline-Ms` header), so even a wedged decode or batcher pass
//! turns into a timely `503` + `Retry-After`. The reactor itself is
//! supervised too: an event-loop panic closes that generation's sockets
//! cleanly and respawns the loop. Registry load failures and quarantines
//! surface as `503` + `Retry-After` — `500` is reserved for genuine
//! programming errors.

use crate::http::{HttpLimits, Request};
use crate::metrics::Metrics;
use crate::protocol::{
    error_body, localize_response, parse_localize, Detail, HouseholdRow, LocalizeRequest,
};
use crate::queue::{JobQueue, PushError};
use crate::reactor::ReplyHandle;
use crate::sys::Waker;
use camal::fleet::{available_threads, resolve_fleet, run_fleet, FleetConfig, FleetError};
use camal::registry::{ModelKey, ModelRegistry, QuarantinePolicy, RegistryError};
use camal::stream::HouseholdSeries;
use camal::CamalModel;
use nilm_json::JsonValue;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of a [`Gateway`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Bounded queue capacity; a full queue sheds load with `503`.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batcher pass.
    pub max_coalesce: usize,
    /// Windows per GEMM batch inside a fleet pass.
    pub batch_windows: usize,
    /// Maximum open connections the reactor holds; connections beyond it
    /// are answered `503` and closed immediately.
    pub max_connections: usize,
    /// Socket read timeout; an idle keep-alive connection is closed after
    /// this long.
    pub read_timeout: Duration,
    /// HTTP parsing limits.
    pub limits: HttpLimits,
    /// Apply Table I duration priors on stitched timelines.
    pub apply_priors: bool,
    /// How long the reactor waits for a request's reply before answering
    /// `503` + `Retry-After` on its own. Overridable per request with the
    /// `X-Camal-Deadline-Ms` header. This is the anti-wedge bound: no
    /// request ever outlives it, whatever the decode or batcher are
    /// doing.
    pub deadline: Duration,
    /// Has no effect. It sized a decode worker pool that no longer exists:
    /// the pass loops decode localize requests themselves. Kept only so
    /// configurations that still set it keep compiling.
    pub reactor_workers: usize,
    /// Per-connection in-flight pipeline bound. A connection with this
    /// many unanswered requests stops being read (backpressure) until
    /// responses drain.
    pub max_pipeline: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 256,
            max_coalesce: 64,
            batch_windows: 64,
            max_connections: 1024,
            read_timeout: Duration::from_secs(5),
            limits: HttpLimits::default(),
            apply_priors: true,
            deadline: Duration::from_secs(30),
            reactor_workers: 0,
            max_pipeline: 32,
        }
    }
}

/// What the serving side knows about one registered model, captured at
/// startup for lock-free request validation in the pass loops' decode
/// step.
#[derive(Clone, Debug)]
pub struct ModelMeta {
    /// Sampling step of the model's dataset template.
    pub step_s: u32,
    /// Training window length.
    pub window: usize,
    /// Per-member backbone descriptions, e.g. `resnet(k5/div8)` — a mixed
    /// zoo shows heterogeneous entries here.
    pub backbones: Vec<String>,
    /// Per-member trainable-parameter counts, aligned with `backbones`.
    pub param_counts: Vec<usize>,
}

/// A computed HTTP response: status line plus body, with an optional
/// `Retry-After` value (seconds) that `503`s carry so clients can back
/// off deliberately instead of guessing. The reactor turns it into wire
/// bytes with [`crate::http::encode_response_with`].
#[derive(Clone, Debug)]
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) reason: &'static str,
    pub(crate) body: String,
    pub(crate) retry_after: Option<u64>,
    pub(crate) content_type: &'static str,
}

impl Reply {
    /// A JSON reply with no extra headers.
    pub(crate) fn new(status: u16, reason: &'static str, body: String) -> Reply {
        Reply { status, reason, body, retry_after: None, content_type: "application/json" }
    }

    /// A `200` with a non-JSON body (the Prometheus exposition).
    pub(crate) fn plain_text(body: String, content_type: &'static str) -> Reply {
        Reply { status: 200, reason: "OK", body, retry_after: None, content_type }
    }

    /// A `503` carrying `Retry-After: {retry_after_s}`.
    pub(crate) fn unavailable(message: &str, retry_after_s: u64) -> Reply {
        Reply {
            status: 503,
            reason: "Service Unavailable",
            body: error_body(message),
            retry_after: Some(retry_after_s.max(1)),
            content_type: "application/json",
        }
    }
}

/// How to recreate one registry entry after a pass loop panics.
enum RebuildEntry {
    /// File-backed checkpoint: re-register the path, reload lazily.
    File(PathBuf),
    /// Pinned in-memory model: re-insert the same shared model (pinned
    /// models have no backing file to reload from).
    Pinned(Arc<CamalModel>),
}

/// Everything needed to rebuild the pass loops' shared [`ModelRegistry`]
/// from scratch, captured once at [`Gateway::start`]. A supervisor replays
/// it after a panic so the loops go on serving the same model set with the
/// same budget and quarantine policy.
struct RegistrySpec {
    entries: Vec<(ModelKey, RebuildEntry)>,
    max_loaded: usize,
    quarantine: QuarantinePolicy,
}

impl RegistrySpec {
    /// Captures the rebuild recipe from a warmed registry.
    fn capture(registry: &mut ModelRegistry) -> RegistrySpec {
        let mut entries = Vec::new();
        for row in registry.manifest() {
            let rebuild = match row.path {
                Some(path) => RebuildEntry::File(path),
                None => RebuildEntry::Pinned(Arc::clone(
                    registry.get_mut(row.key).expect("pinned model is always resident"),
                )),
            };
            entries.push((row.key, rebuild));
        }
        RegistrySpec {
            entries,
            max_loaded: registry.max_loaded(),
            quarantine: registry.quarantine_policy(),
        }
    }

    /// Builds a fresh registry from the recipe.
    fn build(&self) -> ModelRegistry {
        let mut registry = ModelRegistry::new(self.max_loaded);
        registry.set_quarantine_policy(self.quarantine);
        for (key, entry) in &self.entries {
            match entry {
                RebuildEntry::File(path) => registry.register_file(*key, path.clone()),
                RebuildEntry::Pinned(model) => registry.insert(*key, Arc::clone(model)),
            }
        }
        registry
    }
}

/// The cores fleet passes may occupy at once, one per pass loop. A pass
/// leases as many as it has household shards before it runs, waiting in
/// arrival order until they are free, so overlapping passes fill idle
/// cores without piling sharded passes onto busy ones. Kernels inside a
/// pass are not counted: they keep `dispatch::kernel_threads()`.
struct CoreBudget {
    total: usize,
    /// `(free cores, next ticket, ticket now served)`.
    state: Mutex<(usize, u64, u64)>,
    changed: Condvar,
}

impl CoreBudget {
    fn new(total: usize) -> CoreBudget {
        CoreBudget { total, state: Mutex::new((total, 0, 0)), changed: Condvar::new() }
    }

    /// Blocks until every earlier lease is granted and `cores` (at most
    /// the whole budget) are free.
    fn lease(&self, cores: usize) -> CoreLease<'_> {
        let cores = cores.min(self.total);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = state.1;
        state.1 += 1;
        while state.2 != ticket || state.0 < cores {
            state = self.changed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.0 -= cores;
        state.2 += 1;
        self.changed.notify_all();
        CoreLease { budget: self, cores }
    }
}

/// Cores held by one running pass; returned to the budget on drop.
struct CoreLease<'a> {
    budget: &'a CoreBudget,
    cores: usize,
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        self.budget.state.lock().unwrap_or_else(PoisonError::into_inner).0 += self.cores;
        self.budget.changed.notify_all();
    }
}

/// One localize request on its way through a pass loop. The reactor queues
/// it with only `body` set; the loop that takes it fills the decoded
/// fields in [`decode`].
pub(crate) struct Job {
    /// The raw request body, taken (and freed) by [`decode`].
    body: Vec<u8>,
    /// Requested keys, deduplicated, in request order (response order).
    keys: Vec<ModelKey>,
    /// Sorted copy of `keys` — the coalescing identity: jobs wanting the
    /// same model set share one fleet pass.
    group: Vec<ModelKey>,
    households: Vec<HouseholdSeries>,
    detail: Detail,
    /// The request's `(trace_id, root_span_id)`: pass-loop stage spans
    /// (queue-wait, decode, coalesce, fleet stages) parent to the root
    /// span.
    trace: (u64, u64),
    /// When the job entered the queue, on the trace clock
    /// ([`nilm_obs::trace::now_ns`]) — the queue-wait stage starts here.
    enqueued_ns: u64,
    /// Exactly-once reply channel back to the reactor, taken by
    /// [`Job::answer`]; dropping it unanswered (a panicked pass loop's
    /// supervisor clearing its in-flight jobs) answers the connection
    /// `503` + `Retry-After` automatically.
    reply: Option<ReplyHandle>,
}

impl Job {
    /// Answers the request; later calls do nothing.
    fn answer(&mut self, reply: Reply) {
        if let Some(handle) = self.reply.take() {
            handle.send(reply);
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: GatewayConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) models: BTreeMap<ModelKey, ModelMeta>,
    pub(crate) queue: JobQueue<Job>,
    /// The one registry every pass loop resolves its models from. Held
    /// only to resolve keys and read counters, never across a pass.
    registry: Mutex<ModelRegistry>,
    /// How to rebuild `registry` after a pass loop panics.
    spec: RegistrySpec,
    /// The cores running passes hold.
    cores: CoreBudget,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    /// Flipped true once every model is warm and the serving threads are
    /// up — the `/readyz` warm gate.
    pub(crate) ready: AtomicBool,
    /// Pass loops inside their serving loop. It starts at the loop count
    /// (so a fresh gateway whose threads are not scheduled yet is not
    /// reported down), drops by one while a loop rebuilds the registry
    /// after a panic and for good when a loop exits on shutdown.
    /// `/readyz` reports 503 "batcher is restarting" only while it is 0.
    pub(crate) passes_alive: AtomicUsize,
    /// One slot per pass loop: when its current pass began
    /// ([`nilm_obs::trace::now_ns`] plus one), or 0 while the loop waits
    /// for work. A pass runs from the pop of its first job to its last
    /// answer.
    pass_started: Box<[AtomicU64]>,
    /// Interrupts the reactor's `epoll_wait`: completions, shutdown. The
    /// pipe lives here so it outlives reactor generations (the supervisor
    /// re-registers it after a respawn).
    pub(crate) waker: Waker,
}

impl Shared {
    /// The pass loops' registry. A poisoned lock is taken as is: the
    /// panicking loop's supervisor rebuilds the registry under it next.
    fn registry(&self) -> MutexGuard<'_, ModelRegistry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether every pass loop has been inside one pass for longer than the
    /// configured deadline: no loop can take a new job in time.
    fn passes_wedged(&self) -> bool {
        let (now, limit) = (nilm_obs::trace::now_ns() + 1, self.cfg.deadline.as_nanos() as u64);
        self.pass_started.iter().all(|started| {
            let started = started.load(Ordering::Relaxed);
            started != 0 && now.saturating_sub(started) > limit
        })
    }

    /// Flags shutdown and pokes the reactor awake.
    pub(crate) fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.handle().wake();
    }
}

/// A running gateway. Dropping it without [`Gateway::shutdown`] leaves the
/// server threads running for the rest of the process.
pub struct Gateway {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    passes: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds, warms every registered model (lazy checkpoints load now, so
    /// corrupt files fail fast instead of per-request), and spawns the
    /// reactor and one pass loop per `rayon` pool slot.
    /// The registry moves behind the pass loops' shared lock — only they
    /// touch models afterwards.
    ///
    /// # Panics
    ///
    /// When `NILM_BACKEND` holds a value other than `naive`, `simd` or
    /// `auto` (see [`nilm_tensor::dispatch::env_backend`]).
    pub fn start(mut registry: ModelRegistry, cfg: GatewayConfig) -> std::io::Result<Gateway> {
        // Start-up runs no inference, so read `NILM_BACKEND` here: a bad
        // value panics on the caller's thread instead of inside every
        // respawn of the supervised pass loops.
        nilm_tensor::dispatch::env_backend();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut models = BTreeMap::new();
        for key in registry.keys() {
            let model = registry
                .get_mut(key)
                .map_err(|e| std::io::Error::other(format!("cannot warm model {key}: {e}")))?;
            let window = model.window();
            if window == 0 {
                return Err(std::io::Error::other(format!(
                    "model {key} does not record its training window"
                )));
            }
            let step_s = nilm_data::templates::template(key.dataset).step_s;
            let backbones = model.describe_members();
            let param_counts = model.member_param_counts();
            models.insert(key, ModelMeta { step_s, window, backbones, param_counts });
        }
        if models.is_empty() {
            return Err(std::io::Error::other("gateway needs at least one registered model"));
        }
        // Capture the rebuild recipe while every model is warm, so a
        // supervisor can rebuild the registry after a panic without help.
        let spec = RegistrySpec::capture(&mut registry);
        let loops = available_threads();
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            registry: Mutex::new(registry),
            spec,
            cores: CoreBudget::new(loops),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            passes_alive: AtomicUsize::new(loops),
            pass_started: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            waker: Waker::new()?,
            cfg,
            addr,
            models,
        });

        let passes = (0..loops)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gateway-pass-{i}"))
                    .spawn(move || supervise_passes(&shared, i))
                    .expect("spawn pass loop thread")
            })
            .collect();
        let reactor = crate::reactor::spawn(shared.clone(), listener)?;
        // Models are warm (loaded above) and every serving thread is up.
        shared.ready.store(true, Ordering::SeqCst);
        Ok(Gateway { shared, reactor: Some(reactor), passes })
    }

    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests shutdown and joins every server thread: the reactor first
    /// (it closes the listener, drains live connections bounded by their
    /// deadlines, then exits), then the pass loops (drain the queue).
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.join_all();
    }

    /// Blocks until someone requests shutdown (e.g. `POST
    /// /admin/shutdown`), then joins every thread like
    /// [`Gateway::shutdown`].
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        // Ordered teardown: reactor (accept + connections) → pass loops.
        // The reactor exits only once every connection drained, so nothing
        // pushes to the queue afterwards; the last pass loop to find it
        // empty closes it.
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.passes.drain(..) {
            let _ = h.join();
        }
    }
}

/// Metrics route label for one `(method, path)` pair; the query string is
/// ignored. The reactor counts every request under this label at parse
/// time and stamps it on the request, so the per-route request counter,
/// the latency histogram and the slow-request log agree with the dispatch
/// below.
pub(crate) fn route_label(method: &str, path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or(path);
    match (method, path) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/readyz") => "readyz",
        ("GET", "/metrics") => "metrics",
        ("GET", "/v1/models") => "models",
        ("GET", "/debug/trace") => "debug_trace",
        ("POST", "/v1/localize") => "localize",
        ("POST", "/admin/shutdown") => "shutdown",
        _ => "other",
    }
}

/// The value of query parameter `key` in `query` (no percent-decoding —
/// the gateway's parameters are plain hex IDs and format names).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// Dispatches one request: computes the reply (or enqueues a pass-loop job
/// that will) and answers through `reply`. Runs on the reactor thread, so
/// every arm must stay cheap: a localize request is queued undecoded.
pub(crate) fn route(request: Request, shared: &Arc<Shared>, reply: ReplyHandle) {
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let doc = JsonValue::object([
                ("status", JsonValue::String("ok".into())),
                ("models", JsonValue::Number(shared.models.len() as f64)),
                ("queue_depth", JsonValue::Number(shared.queue.depth() as f64)),
                ("shutting_down", JsonValue::Bool(shared.shutdown.load(Ordering::SeqCst))),
            ]);
            reply.send(Reply::new(200, "OK", doc.to_compact()));
        }
        ("GET", "/readyz") => reply.send(readyz_reply(shared)),
        ("GET", "/metrics") => {
            if query_param(query, "format") == Some("prometheus") {
                reply.send(Reply::plain_text(
                    shared.metrics.to_prometheus(shared.queue.depth()),
                    "text/plain; version=0.0.4",
                ));
            } else {
                reply.send(Reply::new(
                    200,
                    "OK",
                    shared.metrics.to_json(shared.queue.depth()).to_pretty(),
                ));
            }
        }
        ("GET", "/debug/trace") => reply.send(debug_trace_reply(query)),
        ("GET", "/v1/models") => {
            let rows: Vec<JsonValue> = shared
                .models
                .iter()
                .map(|(key, meta)| {
                    let members: Vec<JsonValue> = meta
                        .backbones
                        .iter()
                        .zip(&meta.param_counts)
                        .map(|(backbone, &params)| {
                            JsonValue::object([
                                ("backbone", JsonValue::String(backbone.clone())),
                                ("params", JsonValue::Number(params as f64)),
                            ])
                        })
                        .collect();
                    JsonValue::object([
                        ("key", JsonValue::String(key.label())),
                        ("step_s", JsonValue::Number(meta.step_s as f64)),
                        ("window", JsonValue::Number(meta.window as f64)),
                        ("members", JsonValue::Array(members)),
                    ])
                })
                .collect();
            reply.send(Reply::new(
                200,
                "OK",
                JsonValue::object([("models", JsonValue::Array(rows))]).to_compact(),
            ));
        }
        ("POST", "/v1/localize") => queue_localize(request.body, shared, reply),
        ("POST", "/admin/shutdown") => {
            shared.request_shutdown();
            reply.send(Reply::new(
                200,
                "OK",
                JsonValue::object([("ok", JsonValue::Bool(true))]).to_compact(),
            ));
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/models" | "/v1/localize" | "/admin/shutdown"
            | "/debug/trace",
        ) => reply.send(Reply::new(
            405,
            "Method Not Allowed",
            error_body("method not allowed for this path"),
        )),
        _ => reply.send(Reply::new(404, "Not Found", error_body("no such route"))),
    }
}

/// Computes the `/readyz` answer: `200` when the gateway can serve a
/// localize request right now, else `503` with a JSON reason. Liveness
/// (`/healthz`) stays `200` in states where readiness correctly drops —
/// draining on shutdown, every pass loop respawning, every pass loop stuck
/// in one pass past [`GatewayConfig::deadline`], queue saturated.
fn readyz_reply(shared: &Arc<Shared>) -> Reply {
    let depth = shared.queue.depth();
    let reason = if shared.shutdown.load(Ordering::SeqCst) {
        Some("shutting down")
    } else if !shared.ready.load(Ordering::SeqCst) {
        Some("models not warm yet")
    } else if shared.passes_alive.load(Ordering::SeqCst) == 0 {
        Some("batcher is restarting")
    } else if shared.passes_wedged() {
        Some("pass loops wedged")
    } else if depth >= shared.cfg.queue_capacity {
        Some("queue saturated")
    } else {
        None
    };
    let doc = JsonValue::object([
        ("ready", JsonValue::Bool(reason.is_none())),
        (
            "reason",
            match reason {
                Some(r) => JsonValue::String(r.into()),
                None => JsonValue::Null,
            },
        ),
        ("queue_depth", JsonValue::Number(depth as f64)),
        ("queue_capacity", JsonValue::Number(shared.cfg.queue_capacity as f64)),
    ]);
    match reason {
        None => Reply::new(200, "OK", doc.to_compact()),
        Some(_) => Reply {
            status: 503,
            reason: "Service Unavailable",
            body: doc.to_compact(),
            retry_after: Some(1),
            content_type: "application/json",
        },
    }
}

/// Computes the `GET /debug/trace?id=<hex>` answer: the recorded spans of
/// one trace as a JSON timeline, sorted by start time.
fn debug_trace_reply(query: &str) -> Reply {
    let Some(id) = query_param(query, "id") else {
        return Reply::new(400, "Bad Request", error_body("missing query parameter id=<trace-id>"));
    };
    let Some(trace) = nilm_obs::trace::TraceId::parse(id) else {
        return Reply::new(400, "Bad Request", error_body("id must be 1-16 hex digits, nonzero"));
    };
    let mut spans = nilm_obs::trace::trace_spans(trace);
    if spans.is_empty() {
        let hint = if nilm_obs::trace::enabled() {
            "unknown trace id, or its spans were evicted from the ring"
        } else {
            "tracing is off (set NILM_TRACE=1 or --trace); no spans are recorded"
        };
        return Reply::new(404, "Not Found", error_body(hint));
    }
    spans.sort_by_key(|s| (s.start_ns, s.span));
    let rows: Vec<JsonValue> = spans
        .iter()
        .map(|s| {
            JsonValue::object([
                ("span", JsonValue::Number(s.span as f64)),
                ("parent", JsonValue::Number(s.parent as f64)),
                ("name", JsonValue::String(s.name.into())),
                ("detail", JsonValue::String(s.detail.to_string())),
                ("start_us", JsonValue::Number(s.start_ns as f64 / 1e3)),
                ("dur_us", JsonValue::Number(s.dur_ns as f64 / 1e3)),
            ])
        })
        .collect();
    let doc = JsonValue::object([
        ("trace", JsonValue::String(trace.to_hex())),
        ("spans", JsonValue::Array(rows)),
    ]);
    Reply::new(200, "OK", doc.to_pretty())
}

/// Enqueues a localize request, body undecoded, for the pass loops, which
/// decode and answer it through the job's [`ReplyHandle`]. The reactor
/// armed this request's deadline at dispatch, so nothing here (or
/// downstream) can strand the connection.
fn queue_localize(body: Vec<u8>, shared: &Arc<Shared>, reply: ReplyHandle) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return reply.send(Reply::unavailable("gateway is shutting down", 1));
    }
    let job = Job {
        body,
        keys: Vec::new(),
        group: Vec::new(),
        households: Vec::new(),
        detail: Detail::Full,
        trace: reply.trace,
        enqueued_ns: nilm_obs::trace::now_ns(),
        reply: Some(reply),
    };
    match shared.queue.push(job) {
        Ok(()) => {
            shared.metrics.queue_depth(shared.queue.depth());
        }
        Err((mut job, PushError::Full)) => {
            shared.metrics.shed();
            job.answer(Reply::unavailable("queue full, retry later", 1));
        }
        // The pass loops already exited; a job pushed now would never be
        // served, so answer immediately.
        Err((mut job, PushError::Closed)) => {
            job.answer(Reply::unavailable("gateway is shutting down", 1));
        }
    }
}

/// Parses a localize body and validates it against the model snapshot, so
/// decoding never touches the registry: every key must be registered, and
/// one pass needs a single resolution and window across its models.
fn validate_localize(shared: &Shared, body: &[u8]) -> Result<LocalizeRequest, Reply> {
    let parsed =
        parse_localize(body).map_err(|e| Reply::new(400, "Bad Request", error_body(&e)))?;
    let mut step_s = 0u32;
    let mut window = 0usize;
    for key in &parsed.appliances {
        let Some(meta) = shared.models.get(key) else {
            return Err(Reply::new(
                404,
                "Not Found",
                error_body(&format!("model {key} is not registered")),
            ));
        };
        if step_s == 0 {
            (step_s, window) = (meta.step_s, meta.window);
        } else if meta.step_s != step_s || meta.window != window {
            return Err(Reply::new(
                400,
                "Bad Request",
                error_body(&format!(
                    "model {key} runs at step {} s / window {} and cannot share a pass with \
                     step {step_s} s / window {window}; request them separately",
                    meta.step_s, meta.window
                )),
            ));
        }
    }
    Ok(parsed)
}

/// The decode step of a pass loop, for one job it took: closes the job's
/// queue-wait stage, decodes and validates its body, and records the
/// decode stage. A valid request fills the job's decoded fields and
/// returns `true`; an invalid one is answered `400`/`404` here and
/// returns `false`.
fn decode(shared: &Shared, job: &mut Job) -> bool {
    let start = nilm_obs::trace::now_ns();
    shared.metrics.stage("queue_wait", job.trace, job.enqueued_ns, start, String::new);
    // A wedged decode: sleeps past the request's deadline, proving the
    // reactor-side timer answers even when decode itself is stuck. The
    // draw is keyed by the request, `(conn_id, seq)`, so the same requests
    // wedge whichever pass loop takes them.
    if let Some(reply) = &job.reply {
        if nilm_fault::fires_at("worker.wedge", reply.fault_site()) {
            std::thread::sleep(reply.deadline.saturating_mul(2));
        }
    }
    let body = std::mem::take(&mut job.body);
    let outcome = validate_localize(shared, &body);
    let end = nilm_obs::trace::now_ns();
    shared.metrics.stage("decode", job.trace, start, end, || format!("bytes={}", body.len()));
    match outcome {
        Ok(parsed) => {
            job.group = parsed.appliances.clone();
            job.group.sort();
            job.keys = parsed.appliances;
            job.households = parsed.households;
            job.detail = parsed.detail;
            true
        }
        Err(reply) => {
            job.answer(reply);
            false
        }
    }
}

/// Closes the queue and answers every job that raced in before the close.
fn close_queue(shared: &Shared) {
    for mut job in shared.queue.close() {
        job.answer(Reply::unavailable("gateway is shutting down", 1));
    }
}

/// Runs one pass loop under a panic supervisor. On a panic it counts a
/// restart, rebuilds the shared registry from the startup spec under its
/// lock (folding the old registry's counters into the metrics base so
/// `/metrics` stays monotonic), and only then answers the loop's in-flight
/// jobs `503` + `Retry-After`, so a client retrying on that answer reaches
/// the rebuilt registry. Jobs still sitting in the queue are untouched;
/// this loop, once restarted, or any other serves them. Passes running on
/// other loops keep their own model handles and finish.
///
/// A loop leaves on shutdown once it finds the queue empty; the last one
/// to leave closes the queue. A loop that panics during shutdown closes it
/// too: closing twice is harmless.
fn supervise_passes(shared: &Arc<Shared>, slot: usize) {
    // Jobs this loop took off the queue and has not answered. They live
    // here, outside the unwind, so their 503s go out after the rebuild.
    let mut in_flight: Vec<Job> = Vec::new();
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| pass_loop(shared, slot, &mut in_flight)));
        shared.pass_started[slot].store(0, Ordering::Relaxed);
        let alive = shared.passes_alive.fetch_sub(1, Ordering::SeqCst) - 1;
        if outcome.is_ok() {
            // `pass_loop` only returns on shutdown with the queue empty.
            if alive == 0 {
                close_queue(shared);
            }
            return;
        }
        shared.metrics.batcher_restart();
        {
            let mut registry = shared.registry();
            shared.metrics.roll_registry(registry.stats());
            *registry = shared.spec.build();
        }
        in_flight.clear();
        if shared.shutdown.load(Ordering::SeqCst) {
            close_queue(shared);
            return;
        }
        shared.passes_alive.fetch_add(1, Ordering::SeqCst);
    }
}

/// One micro-batching pass loop: pops a job, drains the backlog behind
/// it, decodes each job, and serves each key set as one fleet pass. Every
/// job it takes sits in `in_flight`, from before its decode until it is
/// answered. Publishes when each pass began in its `slot` of
/// `pass_started`, for `/readyz`. Returns on shutdown once the queue is
/// empty.
fn pass_loop(shared: &Arc<Shared>, slot: usize, in_flight: &mut Vec<Job>) {
    loop {
        let Some(first) = shared.queue.pop_wait(Duration::from_millis(50)) else {
            if shared.shutdown.load(Ordering::SeqCst) && shared.queue.depth() == 0 {
                return;
            }
            continue;
        };
        shared.pass_started[slot].store(nilm_obs::trace::now_ns() + 1, Ordering::Relaxed);
        in_flight.push(first);
        in_flight.extend(shared.queue.drain(shared.cfg.max_coalesce.saturating_sub(1)));
        // Deliberately after the drain: the injected panic hits with jobs
        // in flight, which is exactly the case supervision must recover.
        nilm_fault::maybe_panic("batcher.panic");
        // Decode in place: a job answered 400/404 leaves `in_flight`, and
        // one not yet decoded when a panic unwinds stays there, so the
        // supervisor answers it 503 like the rest.
        in_flight.retain_mut(|job| decode(shared, job));

        // Group by requested key set; each group becomes one fleet pass,
        // in key-set order. The sort is stable, so a group's jobs keep
        // their queue order.
        in_flight.sort_by(|a, b| a.group.cmp(&b.group));
        for jobs in in_flight.chunk_by_mut(|a, b| a.group == b.group) {
            serve_group(shared, jobs);
        }
        in_flight.clear();
        shared.pass_started[slot].store(0, Ordering::Relaxed);
    }
}

/// Serves one group of jobs that requested the same model set: merges all
/// their households into one fleet pass and answers each job its slice.
fn serve_group(shared: &Arc<Shared>, jobs: &mut [Job]) {
    let keys = jobs[0].group.clone();
    let meta = &shared.models[&keys[0]];
    let cfg = FleetConfig {
        step_s: meta.step_s,
        max_ffill_s: 3 * meta.step_s,
        batch: shared.cfg.batch_windows,
        threads: available_threads(),
        apply_priors: shared.cfg.apply_priors,
    };
    // The coalesce stage (merging households into one pass) starts here.
    let coalesce_start = nilm_obs::trace::now_ns();
    let mut merged: Vec<HouseholdSeries> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(jobs.len());
    for job in jobs.iter_mut() {
        // Move, don't clone: the series buffers are not needed in the job
        // after merging, and copying them would double peak memory on the
        // pass-loop hot path for long feeds.
        let households = std::mem::take(&mut job.households);
        ranges.push((merged.len(), households.len()));
        merged.extend(households);
    }
    let coalesce_end = nilm_obs::trace::now_ns();
    for job in jobs.iter() {
        shared.metrics.stage("coalesce", job.trace, coalesce_start, coalesce_end, || {
            format!("jobs={} households={}", jobs.len(), merged.len())
        });
    }
    // The pass is in flight (the `/metrics` overlap gauge) from here until
    // its jobs are answered.
    let _in_flight = shared.metrics.pass_begin();
    // Emulates a pass stuck on slow storage or a runaway computation:
    // sleeps past every waiting handler's deadline, so the requests are
    // answered `503` + `Retry-After` by the deadline path, not by luck.
    if nilm_fault::fires("gateway.slow_pass") {
        std::thread::sleep(shared.cfg.deadline.saturating_mul(2));
    }
    // The registry lock covers the resolve (load, evict, quarantine) and
    // the counter snapshot, never the pass.
    let resolved = {
        let mut registry = shared.registry();
        let resolved = resolve_fleet(&mut registry, &keys, &cfg);
        shared.metrics.set_registry_current(registry.stats());
        resolved
    };
    // The fleet pass runs with every job's trace in context: the stage
    // spans recorded inside `run_fleet` (preprocess, infer + kernel
    // children, stitch) are duplicated per coalesced request.
    let ctx: Vec<nilm_obs::trace::CtxEntry> = if nilm_obs::trace::enabled() {
        jobs.iter().filter(|j| j.trace.1 != 0).map(|j| j.trace).collect()
    } else {
        Vec::new()
    };
    // The context ends with the pass, flushing the spans it buffered, before
    // any reply goes out: a client holding its response finds every stage
    // span of its trace in the ring.
    let outcome = {
        let _ctx = nilm_obs::trace::set_context(&ctx);
        resolved.map(|fleet| {
            let _cores = shared.cores.lease(fleet.shards(&merged, &cfg));
            run_fleet(&fleet, &merged, &cfg)
        })
    };
    match outcome {
        Ok(result) => {
            shared.metrics.pass(jobs.len(), &result.summary);
            for (job, (start, len)) in jobs.iter_mut().zip(ranges) {
                let rows: Vec<HouseholdRow> = (start..start + len)
                    .map(|hi| {
                        let hh = &result.households[hi];
                        HouseholdRow {
                            id: &hh.id,
                            degraded: hh.degraded.as_deref(),
                            timelines: job
                                .keys
                                .iter()
                                .map(|&k| {
                                    result
                                        .timeline(hi, k)
                                        .expect("fleet pass covers every requested key")
                                })
                                .collect(),
                        }
                    })
                    .collect();
                let body = localize_response(&job.keys, &rows, job.detail).to_compact();
                job.answer(Reply::new(200, "OK", body));
            }
        }
        Err(e) => {
            // Registry trouble is recoverable operator territory — answer
            // `503` + `Retry-After` (quarantine windows know exactly how
            // long). `500` stays reserved for genuine programming errors.
            let reply = match &e {
                FleetError::Registry(RegistryError::Quarantined { retry_after, .. }) => {
                    Reply::unavailable(&format!("fleet pass failed: {e}"), retry_after.as_secs())
                }
                FleetError::Registry(RegistryError::Load { .. }) => {
                    Reply::unavailable(&format!("fleet pass failed: {e}"), 1)
                }
                _ => Reply::new(
                    500,
                    "Internal Server Error",
                    error_body(&format!("fleet pass failed: {e}")),
                ),
            };
            for job in jobs.iter_mut() {
                job.answer(reply.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn core_leases_are_granted_in_arrival_order() {
        let budget = Arc::new(CoreBudget::new(2));
        let held = budget.lease(1);
        let (tx, rx) = mpsc::channel();
        // A wide lease waits for both cores; a later narrow one, which
        // would fit in the free core, must queue behind it, not starve it.
        let spawn = |name: &'static str, cores: usize| {
            let (budget, tx) = (budget.clone(), tx.clone());
            std::thread::spawn(move || {
                let lease = budget.lease(cores);
                tx.send(name).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                drop(lease);
            })
        };
        let wide = spawn("wide", 2);
        std::thread::sleep(Duration::from_millis(50));
        let narrow = spawn("narrow", 1);
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "a lease jumped the queue");
        drop(held);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("wide"));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("narrow"));
        wide.join().unwrap();
        narrow.join().unwrap();
        assert_eq!(budget.lease(5).cores, 2, "a lease is capped at the whole budget");
    }
}
