//! The gateway's epoll reactor: one event-loop thread multiplexing every
//! connection. It parses requests, answers the cheap routes inline, and
//! hands each localize request, undecoded, to the pass loops.
//!
//! ```text
//!            epoll_wait                       JobQueue
//!  sockets ─────────────▶ reactor thread ─────────────────▶ pass loops
//!            readiness     │  ▲   parse/write     localize    decode+validate
//!                          │  │   state machines  (raw body)  fleet passes
//!                          │  │   control routes
//!                          │  │   answered inline
//!                          │  └──────────────────────────────────┘
//!                          │     completions channel + wake pipe
//!                          ▼
//!                     responses, in request order per connection
//! ```
//!
//! A request crosses two hand-offs: reactor → pass loop (the `JobQueue`)
//! and pass loop → reactor (the completions channel). The reactor thread
//! owns the listener, the [`Poller`], and every [`Conn`]. Each wake it:
//! accepts new sockets (shedding over `max_connections` with a canned
//! 503), pumps readable connections through the incremental parser and
//! dispatches complete requests, drains the completions channel back into
//! connection outboxes, expires per-request deadlines, reaps idle
//! connections (slow-loris gets a 408; a never-wrote-anything connection
//! is closed silently), and flushes outboxes — parking on `EWOULDBLOCK`
//! with write-interest re-registration. Connections are visited in
//! rotating order with a per-wake read cap, so one flooding client cannot
//! monopolize a wake.
//!
//! Dispatch never blocks the loop. Health, readiness, metrics, model
//! listing, traces, shutdown and 404/405 answers are computed inline (they
//! are cheap, and must not wait behind a wedged pass). A localize request
//! goes onto the queue with its body still raw: a body may be up to
//! `HttpLimits::max_body` bytes, and decoding it here would stall every
//! connection's I/O. The pass loop that takes it decodes, validates and
//! answers it. Replies flow back through one completions channel; the wake
//! pipe interrupts `epoll_wait` so a completion is written the moment it
//! exists. Deadlines are armed in the *reactor* at dispatch time, so a
//! wedged decode or pass still turns into a timely `503` — nothing
//! downstream of the loop is trusted to be alive.
//!
//! The loop runs under a supervisor: a panic (the `reactor.panic` fault
//! point injects one) drops the generation's poller and connections —
//! closing every socket cleanly — and respawns a fresh loop on the same
//! listener, waker, and channel. In-flight batcher work completes into
//! the new generation and is dropped as stale; clients reconnect and
//! retry. Shutdown is ordered: the listener closes first, live
//! connections drain (bounded by their deadlines), then the loop exits,
//! and the last pass loop closes the queue.

use crate::conn::{Conn, WriteProgress};
use crate::gateway::{Reply, Shared};
use crate::http::encode_response_with;
use crate::protocol::error_body;
use crate::sys::{Interest, Poller};
use nilm_obs::trace::TraceId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll-set token of the listener socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poll-set token of the wake pipe's read end.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Per-connection read budget per wake — the fairness bound: a flooder's
/// extra bytes wait for the next rotation instead of starving its peers.
const READ_BUDGET: usize = 64 * 1024;
/// Upper bound on one epoll wait; idle ticks also drive fault-free
/// deadline/reaper scans when no readiness arrives.
const MAX_WAIT: Duration = Duration::from_millis(25);

/// One finished request: which connection/slot it answers, and the reply.
pub(crate) struct Completion {
    conn_id: u64,
    seq: u64,
    reply: Reply,
}

/// Clonable sender half of the completions channel; every send also wakes
/// the reactor so the response goes out immediately.
#[derive(Clone)]
pub(crate) struct CompletionSender {
    tx: mpsc::Sender<Completion>,
    wake: crate::sys::WakeHandle,
}

impl CompletionSender {
    fn send(&self, conn_id: u64, seq: u64, reply: Reply) {
        // A dead receiver means the gateway is gone; nothing to answer.
        let _ = self.tx.send(Completion { conn_id, seq, reply });
        self.wake.wake();
    }
}

/// The per-request reply channel handed to routes and batcher jobs.
///
/// Exactly one reply reaches the reactor per handle: either an explicit
/// [`ReplyHandle::send`], or — if the handle is dropped unanswered, which
/// is what a panicked pass loop's supervisor does to its in-flight jobs,
/// once it has rebuilt the registry — an automatic
/// `503 Retry-After` so the waiting connection learns about the fault
/// immediately instead of burning its full deadline.
pub(crate) struct ReplyHandle {
    sender: CompletionSender,
    conn_id: u64,
    seq: u64,
    /// The request's `(trace_id, root_span_id)`, minted at parse time.
    /// Rides the handle so batcher jobs can parent their stage spans
    /// (queue-wait, decode, coalesce, fleet stages) to the request's root
    /// span.
    pub(crate) trace: (u64, u64),
    /// The request's effective deadline, already armed reactor-side (the
    /// `worker.wedge` fault sleeps past it to prove the deadline answers).
    pub(crate) deadline: Duration,
    sent: bool,
}

impl ReplyHandle {
    /// A fault-injection site unique to this request, `(conn_id, seq)`
    /// folded into one `u64`: a draw keyed by it hits the same requests
    /// whichever pass loop evaluates it.
    pub(crate) fn fault_site(&self) -> u64 {
        self.conn_id.rotate_left(32) ^ self.seq
    }

    /// Answers the request.
    pub fn send(mut self, reply: Reply) {
        self.sent = true;
        self.sender.send(self.conn_id, self.seq, reply);
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.sent {
            self.sender.send(
                self.conn_id,
                self.seq,
                Reply::unavailable("batcher restarting after a fault, retry shortly", 1),
            );
        }
    }
}

/// Spawns the supervised reactor thread on `listener`.
pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
    let completions = CompletionSender { tx: completion_tx, wake: shared.waker.handle() };
    Ok(std::thread::Builder::new()
        .name("gateway-reactor".into())
        .spawn(move || supervise_reactor(&shared, listener, &completion_rx, &completions))
        .expect("spawn gateway reactor"))
}

/// Runs the event loop under a panic supervisor. A clean return is
/// shutdown; a panic drops the generation's poller and connections (every
/// socket closes cleanly) and respawns the loop on the surviving listener,
/// waker, and channels.
fn supervise_reactor(
    shared: &Arc<Shared>,
    listener: TcpListener,
    completion_rx: &mpsc::Receiver<Completion>,
    completions: &CompletionSender,
) {
    let mut listener = Some(listener);
    let mut next_conn_id: u64 = 0;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_reactor(shared, &mut listener, completion_rx, completions, &mut next_conn_id)
        }));
        match outcome {
            Ok(()) => return,
            Err(_) => {
                shared.metrics.reactor_restart();
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Brief pause so a persistently failing environment (e.g.
                // epoll fd exhaustion) cannot respawn-spin a core.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// One reactor generation: owns the poller and the connection table for
/// its lifetime. Unwinding out of here closes every connection.
fn run_reactor(
    shared: &Arc<Shared>,
    listener: &mut Option<TcpListener>,
    completion_rx: &mpsc::Receiver<Completion>,
    completions: &CompletionSender,
    next_conn_id: &mut u64,
) {
    let poller = Poller::new().expect("create epoll instance");
    if let Some(l) = listener.as_ref() {
        poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ).expect("register listener");
    }
    // The wake pipe is edge-triggered: it is drained to empty every wake,
    // so a level re-arm would only produce redundant wakeups.
    poller
        .register(shared.waker.read_fd(), TOKEN_WAKER, Interest::READ.edge())
        .expect("register wake pipe");

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // Registered interest per connection, to skip no-op re-registrations.
    let mut interests: HashMap<u64, Interest> = HashMap::new();
    // Pending per-request deadlines: (expiry, conn, seq, deadline-ms).
    let mut deadlines: BinaryHeap<Reverse<(Instant, u64, u64, u64)>> = BinaryHeap::new();
    let mut events: Vec<crate::sys::Event> = Vec::new();
    let mut rotate: usize = 0;

    loop {
        // The injected event-loop panic: lands between waits, with the
        // connection table live — exactly what supervision must survive.
        nilm_fault::maybe_panic("reactor.panic");

        let now = Instant::now();
        let mut timeout = MAX_WAIT;
        if let Some(Reverse((t, ..))) = deadlines.peek() {
            timeout = timeout.min(t.saturating_duration_since(now));
        }
        events.clear();
        let n = poller.wait(&mut events, Some(timeout)).expect("epoll_wait");
        shared.metrics.reactor_wake(n);
        shared.waker.drain();
        let now = Instant::now();

        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            if let Some(l) = listener.take() {
                // Stop accepting before draining: shutdown order is
                // accept → connections → pass loops.
                let _ = poller.deregister(l.as_raw_fd());
            }
        }

        // Readiness, visited in rotating order for inter-connection
        // fairness.
        let len = events.len();
        if len > 0 {
            rotate = rotate.wrapping_add(1) % len;
        }
        for k in 0..len {
            let ev = events[(k + rotate) % len];
            match ev.token {
                TOKEN_WAKER => {}
                TOKEN_LISTENER => accept_ready(
                    shared,
                    listener,
                    &poller,
                    &mut conns,
                    &mut interests,
                    next_conn_id,
                    now,
                ),
                id => {
                    let Some(conn) = conns.get_mut(&id) else { continue };
                    let mut dead = false;
                    if ev.readable() {
                        match conn.read_some(READ_BUDGET, now) {
                            Ok(_) => {}
                            Err(_) => dead = true,
                        }
                    }
                    if !dead && ev.writable() && conn.wants_write() {
                        dead = flush_conn(shared, conn, id);
                    }
                    if dead {
                        drop_conn(&poller, &mut conns, &mut interests, id);
                    }
                }
            }
        }

        // Pump every connection with buffered input or freshly-ready
        // output. (Cheap when idle: the table is small and the checks are
        // a few flag reads.)
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in ids {
            let keep = pump_conn(shared, &mut conns, id, completions, &mut deadlines, now);
            if !keep {
                drop_conn(&poller, &mut conns, &mut interests, id);
            }
        }

        // Route completions (batcher replies, inline answers) into their
        // pipeline slots and flush what became ready.
        while let Ok(done) = completion_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.conn_id) else { continue };
            let (keep_alive, trace) = {
                let slot = conn.pipeline.iter().find(|f| f.seq == done.seq);
                (
                    slot.map(|f| f.keep_alive).unwrap_or(false)
                        && !shared.shutdown.load(Ordering::SeqCst),
                    slot.map(|f| f.trace).unwrap_or(0),
                )
            };
            let bytes = encode_reply(&done.reply, keep_alive, trace);
            if let Some((route, dispatched_ns)) =
                conn.complete(done.seq, bytes, keep_alive, done.reply.status)
            {
                answered(shared, route, done.reply.status, dispatched_ns);
            }
            let keep =
                pump_conn(shared, &mut conns, done.conn_id, completions, &mut deadlines, now);
            if !keep {
                drop_conn(&poller, &mut conns, &mut interests, done.conn_id);
            }
        }

        // Expired deadlines answer their slot with the timeout 503; a
        // completion arriving later finds the slot filled and is dropped.
        while let Some(Reverse((t, ..))) = deadlines.peek() {
            if *t > now {
                break;
            }
            let Reverse((_, conn_id, seq, deadline_ms)) = deadlines.pop().expect("peeked");
            let Some(conn) = conns.get_mut(&conn_id) else { continue };
            let reply = Reply::unavailable(
                &format!(
                    "deadline of {deadline_ms} ms expired before the batcher replied, retry later"
                ),
                1,
            );
            let (keep_alive, trace) = {
                let slot = conn.pipeline.iter().find(|f| f.seq == seq);
                match slot {
                    Some(f) if f.response.is_none() => {
                        (f.keep_alive && !shared.shutdown.load(Ordering::SeqCst), f.trace)
                    }
                    // Already answered (or gone): nothing to expire.
                    _ => {
                        continue;
                    }
                }
            };
            let bytes = encode_reply(&reply, keep_alive, trace);
            if let Some((route, dispatched_ns)) =
                conn.complete(seq, bytes, keep_alive, reply.status)
            {
                shared.metrics.deadline_timeout();
                answered(shared, route, reply.status, dispatched_ns);
            }
            let keep = pump_conn(shared, &mut conns, conn_id, completions, &mut deadlines, now);
            if !keep {
                drop_conn(&poller, &mut conns, &mut interests, conn_id);
            }
        }

        // Idle reaping. A connection that never sent a byte of the next
        // request is closed silently (keep-alive expiry); one that went
        // quiet mid-request is a slow-loris and gets a 408 first.
        let idle_cut = shared.cfg.read_timeout;
        let idle_ids: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.is_quiescent() && now.duration_since(c.last_activity) >= idle_cut)
            .map(|(id, _)| *id)
            .collect();
        for id in idle_ids {
            let conn = conns.get_mut(&id).expect("idle conn exists");
            if conn.parser.is_idle() && !conn.has_buffered_input() {
                drop_conn(&poller, &mut conns, &mut interests, id);
            } else {
                shared.metrics.response(408);
                conn.push_synthetic_response(
                    encode_response_with(
                        408,
                        "Request Timeout",
                        "application/json",
                        error_body("idle deadline expired before the request completed").as_bytes(),
                        false,
                        &[],
                    ),
                    408,
                );
                conn.poison_input();
                conn.promote();
                if flush_conn(shared, conn, id) || conn.is_quiescent() {
                    drop_conn(&poller, &mut conns, &mut interests, id);
                }
            }
        }

        if shutting_down {
            // Quiescent connections close now; ones with in-flight work
            // drain first (bounded by their deadlines).
            let done_ids: Vec<u64> =
                conns.iter().filter(|(_, c)| c.is_quiescent()).map(|(id, _)| *id).collect();
            for id in done_ids {
                drop_conn(&poller, &mut conns, &mut interests, id);
            }
            if conns.is_empty() {
                return;
            }
        }

        // Re-register interest where it changed.
        for (id, conn) in conns.iter() {
            let want = Interest {
                readable: conn.wants_read(shared.cfg.max_pipeline),
                writable: conn.wants_write(),
                edge: false,
            };
            let current = interests.get(id).copied();
            if current != Some(want) {
                if poller.reregister(conn.stream.as_raw_fd(), *id, want).is_ok() {
                    interests.insert(*id, want);
                }
            }
        }
    }
}

/// Accepts every pending connection; over `max_connections` each extra
/// socket gets a best-effort canned `503` + `Retry-After` and is dropped.
fn accept_ready(
    shared: &Arc<Shared>,
    listener: &Option<TcpListener>,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    interests: &mut HashMap<u64, Interest>,
    next_conn_id: &mut u64,
    now: Instant,
) {
    let Some(listener) = listener.as_ref() else { return };
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            // Transient accept errors (EMFILE under fd pressure): leave
            // the remainder for the next wake instead of spinning.
            Err(_) => return,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            continue;
        }
        if conns.len() >= shared.cfg.max_connections {
            shared.metrics.shed();
            shared.metrics.response(503);
            let _ = stream.set_nonblocking(true);
            let body = error_body("connection limit reached, retry later");
            let bytes = encode_response_with(
                503,
                "Service Unavailable",
                "application/json",
                body.as_bytes(),
                false,
                &[("Retry-After", "1".into())],
            );
            let mut stream = stream;
            let _ = std::io::Write::write(&mut stream, &bytes);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = *next_conn_id;
        *next_conn_id += 1;
        if poller.register(stream.as_raw_fd(), id, Interest::READ).is_err() {
            continue;
        }
        interests.insert(id, Interest::READ);
        conns.insert(id, Conn::new(stream, shared.cfg.limits, now));
    }
}

/// Parses buffered input into requests (up to the pipeline bound),
/// arms their deadlines, dispatches them through `gateway::route`, promotes ready
/// responses, and flushes. Returns `false` when the connection must close.
fn pump_conn(
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
    completions: &CompletionSender,
    deadlines: &mut BinaryHeap<Reverse<(Instant, u64, u64, u64)>>,
    now: Instant,
) -> bool {
    let Some(conn) = conns.get_mut(&id) else { return true };
    while !conn.close_after_flush && conn.pipeline.len() < shared.cfg.max_pipeline {
        let parse_start = nilm_obs::trace::now_ns();
        match conn.parse_next() {
            Ok(Some(request)) => {
                let parsed = nilm_obs::trace::now_ns();
                let deadline = request
                    .header("x-camal-deadline-ms")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(Duration::from_millis)
                    .unwrap_or(shared.cfg.deadline)
                    .max(Duration::from_millis(1));
                let keep_alive = request.keep_alive();
                // Accept an inbound trace ID (client-stitched traces) or
                // mint one; either way the response echoes it back in
                // `X-Camal-Trace-Id`.
                let trace_id = request
                    .header("x-camal-trace-id")
                    .and_then(TraceId::parse)
                    .unwrap_or_else(nilm_obs::trace::mint_trace_id);
                // 0 when tracing is off — which also gates every stage span
                // of the request, so no detail string is built for nothing.
                let root_span = nilm_obs::trace::mint_span_id();
                let trace = (trace_id.0, root_span);
                shared.metrics.stage("parse", trace, parse_start, parsed, || {
                    format!("method={} path={}", request.method, request.path)
                });
                let route = crate::gateway::route_label(&request.method, &request.path);
                shared.metrics.request(route);
                let seq = conn.begin_request(keep_alive, route, trace_id.0, root_span, parsed);
                shared.metrics.conn_backlog(conn.pipeline.len());
                deadlines.push(Reverse((now + deadline, id, seq, deadline.as_millis() as u64)));
                let reply = ReplyHandle {
                    sender: completions.clone(),
                    conn_id: id,
                    seq,
                    trace,
                    deadline,
                    sent: false,
                };
                crate::gateway::route(request, shared, reply);
            }
            Ok(None) => break,
            Err(e) => {
                // Framing is unreliable after a parse error: answer a
                // best-effort 4xx in order, drop buffered input, close.
                if let Some((status, reason)) = e.error.status() {
                    shared.metrics.response(status);
                    conn.push_synthetic_response(
                        encode_response_with(
                            status,
                            reason,
                            "application/json",
                            error_body(&e.error.to_string()).as_bytes(),
                            false,
                            &[],
                        ),
                        status,
                    );
                }
                conn.poison_input();
                break;
            }
        }
    }
    // Peer EOF with a request half-parsed: answer what the truncation
    // maps to (400 for a cut line/headers, silence for a cut body) and
    // close once flushed — same contract as the blocking reader.
    if conn.peer_eof
        && !conn.close_after_flush
        && !conn.has_buffered_input()
        && conn.pipeline.is_empty()
        && !conn.parser.is_idle()
        && !conn.parser.failed()
    {
        let err = conn.parser.eof_error();
        if let Some((status, reason)) = err.status() {
            shared.metrics.response(status);
            // The synthetic response closes the connection itself once it
            // flushes (setting close_after_flush here would gate promote).
            conn.push_synthetic_response(
                encode_response_with(
                    status,
                    reason,
                    "application/json",
                    error_body(&err.to_string()).as_bytes(),
                    false,
                    &[],
                ),
                status,
            );
        } else {
            // A body truncated mid-stream: nothing useful to say, close.
            conn.close_after_flush = true;
        }
    }
    conn.promote();
    if conn.wants_write() && flush_conn(shared, conn, id) {
        return false;
    }
    if conn.close_after_flush && conn.outbox_empty() {
        return false;
    }
    if conn.peer_eof && conn.is_quiescent() && !conn.has_buffered_input() {
        return false;
    }
    true
}

/// Flushes connection `id`'s outbox. Returns `true` when the connection
/// died.
fn flush_conn(shared: &Arc<Shared>, conn: &mut Conn, id: u64) -> bool {
    // Keyed by connection, so which of its flushes are forced short does
    // not depend on how other connections' events interleave with its own.
    let force_short = nilm_fault::fires_at("conn.short_write", id);
    let progress = conn.write_some(force_short);
    for write in conn.take_completed_writes() {
        finish_write(shared, &write);
    }
    match progress {
        WriteProgress::Flushed => false,
        WriteProgress::Partial => {
            shared.metrics.partial_write();
            false
        }
        WriteProgress::PeerGone => true,
    }
}

/// Counts one answered request: its status, and its route latency from
/// dispatch to now on the trace clock.
fn answered(shared: &Shared, route: &'static str, status: u16, dispatched_ns: u64) {
    shared.metrics.response(status);
    let ms = nilm_obs::trace::now_ns().saturating_sub(dispatched_ns) as f64 / 1e6;
    shared.metrics.latency_ms(route, ms);
}

/// One response fully handed to the socket: closes out the request's
/// observability — the `write` stage (sample and span), the root "request"
/// span (under the ID minted at parse time, so every stage recorded in
/// between already parents to it), and the slow-request log line.
fn finish_write(shared: &Arc<Shared>, write: &crate::conn::PendingWrite) {
    let now_ns = nilm_obs::trace::now_ns();
    let trace = (write.trace, write.root_span);
    shared
        .metrics
        .stage("write", trace, write.promoted_ns, now_ns, || format!("bytes={}", write.bytes));
    if write.root_span != 0 {
        nilm_obs::trace::record_span_with_id(
            TraceId(write.trace),
            0,
            write.root_span,
            "request",
            request_detail(write.route, write.status),
            write.dispatched_ns,
            now_ns.saturating_sub(write.dispatched_ns).max(1),
        );
    }
    if let Some(threshold) = nilm_obs::slowlog::threshold_ms() {
        let ms = |start_ns: u64| now_ns.saturating_sub(start_ns) as f64 / 1e6;
        let total_ms = ms(write.dispatched_ns);
        if total_ms >= threshold && write.trace != 0 {
            nilm_obs::slowlog::emit(&format!(
                "route={} status={} total_ms={total_ms:.1} write_ms={:.1} trace={}",
                write.route,
                write.status,
                ms(write.promoted_ns),
                TraceId(write.trace).to_hex(),
            ));
        }
    }
}

/// Interned `route=... status=...` detail for the root "request" span.
/// The (route, status) space is small and fixed — route labels are
/// `&'static str` from `route_label` — so each combination formats once
/// per process and every later record is allocation-free.
fn request_detail(route: &'static str, status: u16) -> &'static str {
    use std::collections::HashMap as Map;
    use std::sync::OnceLock;
    static DETAILS: OnceLock<Mutex<Map<(&'static str, u16), &'static str>>> = OnceLock::new();
    let mut map =
        DETAILS.get_or_init(|| Mutex::new(Map::new())).lock().unwrap_or_else(|p| p.into_inner());
    map.entry((route, status))
        .or_insert_with(|| Box::leak(format!("route={route} status={status}").into_boxed_str()))
}

/// Removes a connection from the poll set and the table (closing it).
fn drop_conn(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    interests: &mut HashMap<u64, Interest>,
    id: u64,
) {
    if let Some(conn) = conns.remove(&id) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    interests.remove(&id);
}

/// Encodes a [`Reply`] through [`encode_response_with`], the one framing
/// implementation, so the body goes out byte-for-byte as the route built
/// it; `trace` (when nonzero) adds the `X-Camal-Trace-Id` echo header.
fn encode_reply(reply: &Reply, keep_alive: bool, trace: u64) -> Vec<u8> {
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = reply.retry_after {
        extra.push(("Retry-After", secs.to_string()));
    }
    if trace != 0 {
        extra.push(("X-Camal-Trace-Id", TraceId(trace).to_hex()));
    }
    encode_response_with(
        reply.status,
        reply.reason,
        reply.content_type,
        reply.body.as_bytes(),
        keep_alive,
        &extra,
    )
}
