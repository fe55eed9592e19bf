//! Per-connection readiness state machine for the gateway reactor.
//!
//! A [`Conn`] owns one non-blocking socket plus everything needed to make
//! progress on it one readiness event at a time: the incremental
//! [`RequestParser`], an input buffer for bytes read ahead of the parser
//! (backpressure parks them here when the pipeline is full), the in-flight
//! request pipeline, and a write outbox with a cursor so a response
//! interrupted by `EWOULDBLOCK` resumes exactly where it stopped.
//!
//! **Ordering invariant.** Pipelined requests are answered strictly in
//! request order even though the batcher completes them out of order:
//! completions land in their [`InFlight`] slot by sequence number, and
//! [`Conn::promote`] moves responses into the outbox only from the front
//! of the pipeline. A completion for a request that is no longer tracked
//! (connection died, deadline already answered it) is dropped harmlessly.
//!
//! The struct is pure state + socket I/O — it never touches the queue,
//! the metrics sink, or the poller. The reactor decides *when* to call
//! these methods and what the outcomes mean; that split keeps the state
//! machine unit-testable over plain socket pairs.

use crate::http::{ParseError, Request, RequestParser};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One request that has been parsed and dispatched but not yet answered
/// on the wire.
#[derive(Debug)]
pub(crate) struct InFlight {
    /// Connection-local sequence number (response order).
    pub seq: u64,
    /// The request's own keep-alive wish (`Connection` header semantics);
    /// the reactor combines it with the shutdown flag at encode time.
    pub keep_alive: bool,
    /// Route label (`"localize"`, `"healthz"`, ...) — keys the per-route
    /// latency histogram and rides into the slow-request log.
    pub route: &'static str,
    /// Trace ID minted (or accepted inbound) at parse time; echoed on the
    /// response as `X-Camal-Trace-Id`. Never 0 for a parsed request.
    pub trace: u64,
    /// Pre-minted root "request" span ID (0 when tracing is off); every
    /// stage span of this request parents to it.
    pub root_span: u64,
    /// When the reactor parsed the request and dispatched it (answered
    /// inline, or queued for a pass loop), on the trace clock
    /// ([`nilm_obs::trace::now_ns`]); route latency and the root span are
    /// measured from here.
    pub dispatched_ns: u64,
    /// HTTP status of the completion that filled the slot (0 while empty).
    pub status: u16,
    /// Encoded response bytes once the completion (or deadline) arrived.
    pub response: Option<Vec<u8>>,
    /// Whether the encoded response announced `Connection: keep-alive`;
    /// `false` closes the connection once the response is flushed.
    pub effective_keep_alive: bool,
}

/// One response whose bytes have been promoted into the outbox; resolved
/// into a completed-write record once the socket has taken all of them.
/// The reactor turns completed writes into the `write` stage metric, the
/// closing trace spans, and the slow-request log line.
#[derive(Debug)]
pub(crate) struct PendingWrite {
    /// The response is fully written once `Conn::bytes_sent` reaches this.
    end_at: u64,
    /// Route label of the request being answered.
    pub route: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// Trace ID (0 for synthetic responses with no parsed request).
    pub trace: u64,
    /// Root span ID (0 when tracing is off).
    pub root_span: u64,
    /// When the request was dispatched, on the trace clock (end-to-end
    /// latency start).
    pub dispatched_ns: u64,
    /// When the response entered the outbox, on the trace clock
    /// (write-stage start).
    pub promoted_ns: u64,
    /// Encoded response size in bytes.
    pub bytes: usize,
}

/// How far a [`Conn::write_some`] call got.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WriteProgress {
    /// The outbox is empty (nothing was pending, or it all went out).
    Flushed,
    /// Bytes remain parked in the outbox; the reactor must register write
    /// interest and retry on the next writable event.
    Partial,
    /// The socket is dead; drop the connection.
    PeerGone,
}

/// One live connection owned by the reactor.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// The incremental request parser (one per connection, survives
    /// across keep-alive requests).
    pub parser: RequestParser,
    /// Bytes read off the socket but not yet consumed by the parser.
    inbuf: Vec<u8>,
    /// Encoded responses waiting to go out, in response order.
    outbox: Vec<u8>,
    /// How much of `outbox` has already been written.
    outpos: usize,
    /// Parsed-but-unanswered requests, front = oldest.
    pub pipeline: VecDeque<InFlight>,
    /// Promoted responses not yet fully written, front = oldest.
    pending_writes: VecDeque<PendingWrite>,
    /// Total response bytes ever moved into the outbox.
    bytes_queued: u64,
    /// Total response bytes ever accepted by the socket.
    bytes_sent: u64,
    next_seq: u64,
    /// Set when the connection must close once the outbox drains: a
    /// `Connection: close` response, a parse error's 4xx, shutdown.
    pub close_after_flush: bool,
    /// The peer's read half returned EOF (full close or `shutdown(SHUT_WR)`
    /// half close). Responses still in flight are flushed before reaping.
    pub peer_eof: bool,
    /// When the connection last sat at a request boundary — connect time,
    /// reset when the first byte of a new request arrives. The idle reaper
    /// measures from here, so the *whole* request must arrive within the
    /// read timeout: a slow-loris dripping one header byte per tick cannot
    /// keep resetting the clock.
    pub last_activity: Instant,
}

impl Conn {
    /// Wraps an accepted (already non-blocking) socket.
    pub fn new(stream: TcpStream, limits: crate::http::HttpLimits, now: Instant) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(limits),
            inbuf: Vec::new(),
            outbox: Vec::new(),
            outpos: 0,
            pipeline: VecDeque::new(),
            pending_writes: VecDeque::new(),
            bytes_queued: 0,
            bytes_sent: 0,
            next_seq: 0,
            close_after_flush: false,
            peer_eof: false,
            last_activity: now,
        }
    }

    /// Reads whatever the socket has ready (up to `cap` bytes this call —
    /// the reactor's per-wake fairness bound) into the input buffer.
    /// Returns `Ok(true)` if any byte or an EOF arrived. Level-triggered
    /// polling re-delivers readability for bytes left beyond `cap`.
    pub fn read_some(&mut self, cap: usize, now: Instant) -> std::io::Result<bool> {
        let mut scratch = [0u8; 16 * 1024];
        let mut progressed = false;
        let mut taken = 0usize;
        while taken < cap && !self.peer_eof {
            let want = scratch.len().min(cap - taken);
            match self.stream.read(&mut scratch[..want]) {
                Ok(0) => {
                    self.peer_eof = true;
                    progressed = true;
                }
                Ok(n) => {
                    // Only the FIRST byte of a request restarts the idle
                    // clock; later drips do not (slow-loris defense).
                    if self.parser.is_idle() && self.inbuf.is_empty() {
                        self.last_activity = now;
                    }
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    taken += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }

    /// Advances the parser over the buffered input. `Ok(None)` means more
    /// bytes are needed (or parsing is paused); `Ok(Some)` is one complete
    /// request, with any pipelined remainder still buffered for the next
    /// call. On `Err` the buffered input is poisoned — the caller answers
    /// a best-effort 4xx and closes.
    pub fn parse_next(&mut self) -> Result<Option<Request>, ParseError> {
        if self.inbuf.is_empty() || self.parser.failed() {
            return Ok(None);
        }
        let (consumed, request) = self.parser.feed(&self.inbuf)?;
        self.inbuf.drain(..consumed);
        Ok(request)
    }

    /// True while buffered input may still contain a parseable request.
    pub fn has_buffered_input(&self) -> bool {
        !self.inbuf.is_empty()
    }

    /// Drops buffered input (after a parse error — framing is unreliable).
    pub fn poison_input(&mut self) {
        self.inbuf.clear();
    }

    /// Registers a dispatched request in the pipeline and returns its
    /// sequence number.
    pub fn begin_request(
        &mut self,
        keep_alive: bool,
        route: &'static str,
        trace: u64,
        root_span: u64,
        now_ns: u64,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pipeline.push_back(InFlight {
            seq,
            keep_alive,
            route,
            trace,
            root_span,
            dispatched_ns: now_ns,
            status: 0,
            response: None,
            effective_keep_alive: keep_alive,
        });
        seq
    }

    /// Enqueues an already-encoded response that has no pipeline slot (a
    /// parse error's 4xx, the slow-loris 408). It must still respect
    /// response order, so it rides the pipeline as a pre-completed entry.
    pub fn push_synthetic_response(&mut self, bytes: Vec<u8>, status: u16) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pipeline.push_back(InFlight {
            seq,
            keep_alive: false,
            route: "error",
            trace: 0,
            root_span: 0,
            dispatched_ns: nilm_obs::trace::now_ns(),
            status,
            response: Some(bytes),
            effective_keep_alive: false,
        });
    }

    /// Fills the pipeline slot `seq` with its encoded response. Returns
    /// the slot's route and dispatch time if it was still waiting — `None`
    /// means the completion was stale (already answered by the deadline
    /// path, or the slot was discarded) and must be dropped.
    pub fn complete(
        &mut self,
        seq: u64,
        bytes: Vec<u8>,
        effective_keep_alive: bool,
        status: u16,
    ) -> Option<(&'static str, u64)> {
        let slot = self.pipeline.iter_mut().find(|f| f.seq == seq)?;
        if slot.response.is_some() {
            return None;
        }
        slot.response = Some(bytes);
        slot.effective_keep_alive = effective_keep_alive;
        slot.status = status;
        Some((slot.route, slot.dispatched_ns))
    }

    /// Moves consecutively-ready responses from the pipeline front into
    /// the outbox (strict request order). A non-keep-alive response marks
    /// the connection close-after-flush and discards everything pipelined
    /// behind it: a response that announced `Connection: close` is the
    /// last one the peer may read, so no request after it is answered.
    pub fn promote(&mut self) {
        while let Some(front) = self.pipeline.front() {
            if front.response.is_none() || self.close_after_flush {
                break;
            }
            let front = self.pipeline.pop_front().expect("front exists");
            let bytes = front.response.as_deref().unwrap_or_default();
            self.outbox.extend_from_slice(bytes);
            self.bytes_queued += bytes.len() as u64;
            self.pending_writes.push_back(PendingWrite {
                end_at: self.bytes_queued,
                route: front.route,
                status: front.status,
                trace: front.trace,
                root_span: front.root_span,
                dispatched_ns: front.dispatched_ns,
                promoted_ns: nilm_obs::trace::now_ns(),
                bytes: bytes.len(),
            });
            if !front.effective_keep_alive {
                self.close_after_flush = true;
                self.pipeline.clear();
                self.inbuf.clear();
            }
        }
    }

    /// Drains the responses whose last byte has been accepted by the
    /// socket since the previous call. The reactor records each as one
    /// completed `write` stage.
    pub fn take_completed_writes(&mut self) -> Vec<PendingWrite> {
        let mut done = Vec::new();
        while let Some(front) = self.pending_writes.front() {
            if front.end_at > self.bytes_sent {
                break;
            }
            done.push(self.pending_writes.pop_front().expect("front exists"));
        }
        done
    }

    /// Writes as much of the outbox as the socket accepts. `force_short`
    /// caps the write at one byte and parks the rest — the deterministic
    /// handle for the `conn.short_write` fault point, so tests can drive
    /// the partial-write path without fighting kernel buffer sizes.
    pub fn write_some(&mut self, force_short: bool) -> WriteProgress {
        while self.outpos < self.outbox.len() {
            let end = if force_short { self.outpos + 1 } else { self.outbox.len() };
            match self.stream.write(&self.outbox[self.outpos..end]) {
                Ok(0) => return WriteProgress::PeerGone,
                Ok(n) => {
                    self.outpos += n;
                    self.bytes_sent += n as u64;
                    if force_short && self.outpos < self.outbox.len() {
                        // One byte went out; park the rest for the next
                        // writable event, as a genuinely full socket would.
                        return WriteProgress::Partial;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteProgress::Partial;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteProgress::PeerGone,
            }
        }
        self.outbox.clear();
        self.outpos = 0;
        WriteProgress::Flushed
    }

    /// True when every queued response byte has hit the socket.
    pub fn outbox_empty(&self) -> bool {
        self.outpos >= self.outbox.len()
    }

    /// True when the connection wants read readiness: it can still accept
    /// request bytes and has pipeline room (`max_pipeline` is the
    /// backpressure bound — a full pipeline drops read interest until
    /// responses drain).
    pub fn wants_read(&self, max_pipeline: usize) -> bool {
        !self.peer_eof
            && !self.close_after_flush
            && !self.parser.failed()
            && self.pipeline.len() < max_pipeline
    }

    /// True when unflushed response bytes are parked in the outbox.
    pub fn wants_write(&self) -> bool {
        !self.outbox_empty()
    }

    /// True when nothing is pending in either direction — the state in
    /// which the idle reaper (or shutdown) may close the connection.
    pub fn is_quiescent(&self) -> bool {
        self.pipeline.is_empty() && self.outbox_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{encode_response_with, HttpLimits};
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (Conn::new(server, HttpLimits::default(), Instant::now()), client)
    }

    fn drain_client(client: &mut TcpStream, want: usize) -> Vec<u8> {
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut out = vec![0u8; want];
        client.read_exact(&mut out).unwrap();
        out
    }

    #[test]
    fn out_of_order_completions_are_written_in_request_order() {
        let (mut conn, mut client) = pair();
        let a = conn.begin_request(true, "other", 0, 0, 0);
        let b = conn.begin_request(true, "other", 0, 0, 0);
        // Complete the *second* request first: nothing may flush yet.
        assert!(conn.complete(b, b"B".to_vec(), true, 200).is_some());
        conn.promote();
        assert!(conn.outbox_empty(), "response B must wait behind unanswered A");
        assert!(conn.complete(a, b"A".to_vec(), true, 200).is_some());
        conn.promote();
        assert_eq!(conn.write_some(false), WriteProgress::Flushed);
        assert_eq!(drain_client(&mut client, 2), b"AB");
    }

    #[test]
    fn stale_completions_are_dropped() {
        let (mut conn, _client) = pair();
        let a = conn.begin_request(true, "other", 0, 0, 0);
        assert!(conn.complete(a, b"first".to_vec(), true, 200).is_some());
        assert!(
            conn.complete(a, b"late duplicate".to_vec(), true, 200).is_none(),
            "a second completion for the same seq must be ignored"
        );
        assert!(conn.complete(999, b"unknown".to_vec(), true, 200).is_none());
    }

    #[test]
    fn forced_short_writes_resume_where_they_stopped() {
        let (mut conn, mut client) = pair();
        let seq = conn.begin_request(true, "other", 0, 0, 0);
        let body = encode_response_with(200, "OK", "application/json", b"{\"ok\":true}", true, &[]);
        let total = body.len();
        conn.complete(seq, body, true, 200);
        conn.promote();
        // Drip the response one byte per "writable event".
        let mut rounds = 0;
        while conn.write_some(true) == WriteProgress::Partial {
            rounds += 1;
            assert!(rounds < 10_000, "short writes must make progress");
        }
        assert!(rounds >= total - 1, "every byte but the last took its own write");
        assert_eq!(drain_client(&mut client, total).len(), total);
    }

    #[test]
    fn completed_writes_resolve_only_when_the_last_byte_leaves() {
        let (mut conn, mut client) = pair();
        let seq = conn.begin_request(true, "localize", 42, 7, 123);
        conn.complete(seq, b"hello".to_vec(), true, 200);
        conn.promote();
        assert!(conn.take_completed_writes().is_empty(), "nothing written yet");
        // Drip one byte per "writable event": the pending write must not
        // resolve until the final byte is accepted.
        let mut rounds = 0;
        while conn.write_some(true) == WriteProgress::Partial {
            assert!(conn.take_completed_writes().is_empty(), "write is still partial");
            rounds += 1;
            assert!(rounds < 100, "short writes must make progress");
        }
        let done = conn.take_completed_writes();
        assert_eq!(done.len(), 1);
        let w = &done[0];
        assert_eq!((w.route, w.status, w.trace, w.root_span, w.bytes), ("localize", 200, 42, 7, 5));
        assert_eq!(drain_client(&mut client, 5), b"hello");
    }

    #[test]
    fn close_response_discards_pipelined_leftovers() {
        let (mut conn, mut client) = pair();
        let a = conn.begin_request(false, "other", 0, 0, 0);
        let _b = conn.begin_request(true, "other", 0, 0, 0);
        conn.complete(a, b"bye".to_vec(), false, 200);
        conn.promote();
        assert!(conn.close_after_flush);
        assert!(conn.pipeline.is_empty(), "requests behind a close response are discarded");
        assert!(!conn.wants_read(64));
        assert_eq!(conn.write_some(false), WriteProgress::Flushed);
        assert_eq!(drain_client(&mut client, 3), b"bye");
    }

    #[test]
    fn backpressure_drops_read_interest_at_the_pipeline_bound() {
        let (mut conn, _client) = pair();
        assert!(conn.wants_read(2));
        conn.begin_request(true, "other", 0, 0, 0);
        assert!(conn.wants_read(2));
        let a = conn.begin_request(true, "other", 0, 0, 0);
        assert!(!conn.wants_read(2), "a full pipeline must stop reading");
        conn.complete(a, b"x".to_vec(), true, 200);
        // Still full until the front drains too — order, not count alone.
        assert!(!conn.wants_read(2));
    }
}
