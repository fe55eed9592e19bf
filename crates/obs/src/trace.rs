//! Structured request tracing with a bounded span ring.
//!
//! A *trace* is one request's journey through the stack, identified by a
//! 64-bit ID minted at the gateway (or accepted inbound via
//! `X-Camal-Trace-Id`). A *span* is one named stage of that journey with a
//! monotonic start, a duration, and a parent link. Spans from every thread
//! land in one bounded ring ([`RING_CAPACITY`] entries, oldest evicted) so
//! `GET /debug/trace?id=<trace>` can reassemble a timeline after the fact.
//!
//! Tracing is **off by default**. It turns on via `NILM_TRACE=1|on|true`
//! (or [`set_enabled`] programmatically); when off, every entry point
//! bails after a single relaxed atomic load — the same discipline
//! `nilm_fault` uses, so leaving the hooks compiled into hot paths is
//! free.
//!
//! Cross-thread propagation: the *context* (which traces the current
//! thread is working for, and the parent span of each) lives in a
//! thread-local. Because the batcher coalesces several requests into one
//! fleet pass, a context carries a **set** of `(trace, parent)` entries
//! and each recorded span is duplicated per entry — every coalesced
//! request sees the full stage breakdown in its own trace. Capture the
//! context with [`snapshot`], re-establish it on a worker thread with
//! [`set_context`], and time a stage with [`span`].

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans retained in the global ring before the oldest are evicted.
///
/// Sized so the ring's resident set (~160 KiB at ~80 bytes/span) stays
/// cache-friendly: a fully traced request records ~20 spans, so this
/// keeps the last ~100 requests inspectable via `/debug/trace` while the
/// steady-state ring writes land in warm lines. (A 16 K-span ring was
/// measured at >10% gateway throughput overhead on a 1-core box — the
/// cold 1.3 MiB write cycle evicted the serving working set — where this
/// size measures within run-to-run noise.)
pub const RING_CAPACITY: usize = 2 * 1024;

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits on the
/// wire (`X-Camal-Trace-Id`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Wire form: 16 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form (any-case hex, optional shorter strings).
    /// Returns `None` for empty, oversized, or non-hex input and for the
    /// reserved all-zero ID.
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        let v = u64::from_str_radix(s, 16).ok()?;
        if v == 0 {
            None
        } else {
            Some(TraceId(v))
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's ID (unique per process, never 0).
    pub span: u64,
    /// Parent span ID, or 0 for a root span.
    pub parent: u64,
    /// Stage name (`"parse"`, `"infer"`, `"kernel"`, ...).
    pub name: &'static str,
    /// Free-form detail (`"op=conv_fwd m=8 n=512 k=45 backend=simd"`).
    /// `Cow` so repeated details (kernel spans cache theirs per shape)
    /// duplicate across coalesced traces without allocating.
    pub detail: Cow<'static, str>,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(1024)))
}

fn lock_ring() -> std::sync::MutexGuard<'static, VecDeque<SpanRecord>> {
    match ring().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Whether tracing is enabled. One relaxed atomic load on the hot path;
/// the first call parses `NILM_TRACE` from the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("NILM_TRACE")
        .map(|v| matches!(v.trim(), "1" | "on" | "true" | "ON" | "TRUE"))
        .unwrap_or(false);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Force tracing on or off (tests, `camal_gateway` flags). Overrides the
/// environment.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Mints a fresh trace ID: unique per process, never 0, bit-mixed so IDs
/// from concurrent connections don't look sequential on the wire.
pub fn mint_trace_id() -> TraceId {
    // splitmix64 finalizer over a process-wide counter.
    let mut z = NEXT_TRACE.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    TraceId(z | 1)
}

fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Mints a span ID without recording anything, or 0 when tracing is off.
///
/// For call sites that must hand the ID to children *before* the span
/// itself can be recorded — the gateway mints the root "request" span ID
/// at parse time so every stage parents to it, and records the span via
/// [`record_span_with_id`] only after the response bytes hit the socket.
pub fn mint_span_id() -> u64 {
    if enabled() {
        next_span_id()
    } else {
        0
    }
}

/// Records one finished span under a pre-minted ID (see [`mint_span_id`]).
/// A no-op when tracing is off or `span` is 0.
pub fn record_span_with_id(
    trace: TraceId,
    parent: u64,
    span: u64,
    name: &'static str,
    detail: impl Into<Cow<'static, str>>,
    start_ns: u64,
    dur_ns: u64,
) {
    if !enabled() || span == 0 {
        return;
    }
    buffer_or_push(SpanRecord {
        trace: trace.0,
        span,
        parent,
        name,
        detail: detail.into(),
        start_ns,
        dur_ns,
    });
}

/// Records one finished span directly (for call sites that measured the
/// interval themselves, e.g. the reactor). Returns the span's ID so it can
/// be used as a parent, or 0 when tracing is off.
pub fn record_span(
    trace: TraceId,
    parent: u64,
    name: &'static str,
    detail: impl Into<Cow<'static, str>>,
    start_ns: u64,
    dur_ns: u64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let span = next_span_id();
    buffer_or_push(SpanRecord {
        trace: trace.0,
        span,
        parent,
        name,
        detail: detail.into(),
        start_ns,
        dur_ns,
    });
    span
}

fn push(rec: SpanRecord) {
    let mut ring = lock_ring();
    if ring.len() >= RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(rec);
}

thread_local! {
    /// Spans recorded while the thread holds a context accumulate here and
    /// flush to the global ring in one batch when the outermost
    /// [`CtxGuard`] drops (i.e. once per fleet pass) — kernel-dense stages
    /// pay one ring lock per pass instead of one per span.
    static BUF: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

/// Local-buffer high-water mark before an early flush (keeps a pass with
/// thousands of kernel spans from holding the ring's memory bound hostage).
const BUF_FLUSH_LEN: usize = 256;

fn buffer_or_push(rec: SpanRecord) {
    let buffered = CTX.with(|c| !c.borrow().is_empty());
    if !buffered {
        push(rec);
        return;
    }
    let full = BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.push(rec);
        b.len() >= BUF_FLUSH_LEN
    });
    if full {
        flush_buffer();
    }
}

fn flush_buffer() {
    // Drain in place so the buffer keeps its capacity across passes —
    // `mem::take` here would re-grow the Vec from zero every flush.
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if b.is_empty() {
            return;
        }
        let mut ring = lock_ring();
        for rec in b.drain(..) {
            if ring.len() >= RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(rec);
        }
    });
}

/// All spans recorded for `trace`, in recording order. Empty when the
/// trace is unknown or has been evicted from the ring.
pub fn trace_spans(trace: TraceId) -> Vec<SpanRecord> {
    lock_ring().iter().filter(|s| s.trace == trace.0).cloned().collect()
}

/// Number of spans currently held in the ring.
pub fn ring_len() -> usize {
    lock_ring().len()
}

/// Drops every recorded span (tests).
pub fn clear() {
    lock_ring().clear();
}

// ---------------------------------------------------------------------------
// Thread-local context + scoped spans
// ---------------------------------------------------------------------------

/// One `(trace, parent span)` entry of a context. A context holds one
/// entry per request currently being served by the running code — several
/// when the batcher coalesced requests into one fleet pass.
pub type CtxEntry = (u64, u64);

thread_local! {
    static CTX: RefCell<Vec<CtxEntry>> = const { RefCell::new(Vec::new()) };
}

/// Snapshot of the current thread's context, for re-establishing on
/// another thread (fleet shard workers) via [`set_context`].
pub fn snapshot() -> Vec<CtxEntry> {
    if !enabled() {
        return Vec::new();
    }
    CTX.with(|c| c.borrow().clone())
}

/// Guard returned by [`set_context`]; restores the previous context on
/// drop.
pub struct CtxGuard {
    prev: Vec<CtxEntry>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let outermost = self.prev.is_empty();
        CTX.with(|c| *c.borrow_mut() = std::mem::take(&mut self.prev));
        if outermost {
            flush_buffer();
        }
    }
}

/// Replaces the current thread's context with `entries`, restoring the
/// previous one when the guard drops.
pub fn set_context(entries: &[CtxEntry]) -> CtxGuard {
    let prev = CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), entries.to_vec()));
    CtxGuard { prev }
}

/// Context entries a [`SpanHandle`] keeps inline before spilling to the
/// heap — covers every coalesced batch the gateway produces in practice,
/// so the scoped-span hot path allocates nothing.
const INLINE_ENTRIES: usize = 8;

/// A live scoped span: created by [`span`], records on [`SpanHandle::finish`]
/// or drop. While live, nested [`span`] calls on the same thread parent to
/// it (per context entry).
pub struct SpanHandle {
    name: &'static str,
    detail: Cow<'static, str>,
    start_ns: u64,
    /// `(trace, saved_parent, my_span_id)` per context entry; the first
    /// [`INLINE_ENTRIES`] live inline, the rest spill to `overflow`.
    inline: [(u64, u64, u64); INLINE_ENTRIES],
    inline_len: usize,
    overflow: Vec<(u64, u64, u64)>,
    done: bool,
}

/// Starts a span named `name` for every trace in the current context.
/// Returns `None` (no allocation, no lock) when tracing is off or the
/// thread has no context.
pub fn span(name: &'static str) -> Option<SpanHandle> {
    if !enabled() {
        return None;
    }
    let mut handle = SpanHandle {
        name,
        detail: Cow::Borrowed(""),
        start_ns: 0,
        inline: [(0, 0, 0); INLINE_ENTRIES],
        inline_len: 0,
        overflow: Vec::new(),
        done: false,
    };
    // Rather than swapping the context Vec out and back (two allocations
    // per span), mutate each entry's parent in place and remember the old
    // parent in the handle; `close` restores it.
    let any = CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        if ctx.is_empty() {
            return false;
        }
        for entry in ctx.iter_mut() {
            let span_id = next_span_id();
            let triple = (entry.0, entry.1, span_id);
            if handle.inline_len < INLINE_ENTRIES {
                handle.inline[handle.inline_len] = triple;
                handle.inline_len += 1;
            } else {
                handle.overflow.push(triple);
            }
            entry.1 = span_id;
        }
        true
    });
    if !any {
        return None;
    }
    handle.start_ns = now_ns();
    Some(handle)
}

impl SpanHandle {
    /// Attaches free-form detail text recorded with the span. Pass a
    /// `&'static str` (e.g. an interned per-shape kernel description) to
    /// keep the record allocation-free.
    pub fn set_detail(&mut self, detail: impl Into<Cow<'static, str>>) {
        self.detail = detail.into();
    }

    /// Ends the span now (otherwise it ends when dropped).
    pub fn finish(mut self) {
        self.close();
    }

    fn entries(&self) -> impl Iterator<Item = &(u64, u64, u64)> {
        self.inline[..self.inline_len].iter().chain(self.overflow.iter())
    }

    fn close(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        // Restore the parents this span replaced when it opened.
        CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            for (i, &(trace, parent, _)) in
                self.inline[..self.inline_len].iter().chain(self.overflow.iter()).enumerate()
            {
                if let Some(entry) = ctx.get_mut(i) {
                    debug_assert_eq!(entry.0, trace);
                    entry.1 = parent;
                }
            }
        });
        // A span only exists inside a context, so the records land in the
        // thread-local buffer: no ring lock until the owning `CtxGuard`
        // drops.
        let full = BUF.with(|b| {
            let mut b = b.borrow_mut();
            for &(trace, parent, span) in self.entries() {
                b.push(SpanRecord {
                    trace,
                    span,
                    parent,
                    name: self.name,
                    detail: self.detail.clone(),
                    start_ns: self.start_ns,
                    dur_ns,
                });
            }
            b.len() >= BUF_FLUSH_LEN
        });
        if full {
            flush_buffer();
        }
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The ring and the enabled flag are process-global; serialize tests.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        match GATE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn trace_id_round_trips_and_rejects_junk() {
        let id = mint_trace_id();
        assert_eq!(TraceId::parse(&id.to_hex()), Some(id));
        assert_eq!(TraceId::parse("  ABCD  "), Some(TraceId(0xabcd)));
        for bad in ["", "0", "xyz", "112233445566778899", "0x12"] {
            assert_eq!(TraceId::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = mint_trace_id();
            assert_ne!(id.0, 0);
            assert!(seen.insert(id.0), "duplicate trace id");
        }
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = serial();
        set_enabled(false);
        clear();
        let t = mint_trace_id();
        assert_eq!(record_span(t, 0, "parse", String::new(), 0, 10), 0);
        let _ctx = set_context(&[(t.0, 0)]);
        assert!(span("infer").is_none());
        assert!(trace_spans(t).is_empty());
    }

    #[test]
    fn scoped_spans_nest_and_duplicate_per_context_entry() {
        let _g = serial();
        set_enabled(true);
        clear();
        let (a, b) = (mint_trace_id(), mint_trace_id());
        {
            let _ctx = set_context(&[(a.0, 7), (b.0, 9)]);
            let outer = span("infer").expect("tracing on");
            let mut inner = span("kernel").expect("nested");
            inner.set_detail("backend=simd");
            inner.finish();
            outer.finish();
        }
        set_enabled(false);
        for (t, root) in [(a, 7u64), (b, 9u64)] {
            let spans = trace_spans(t);
            assert_eq!(spans.len(), 2, "{spans:?}");
            let outer = spans.iter().find(|s| s.name == "infer").unwrap();
            let inner = spans.iter().find(|s| s.name == "kernel").unwrap();
            assert_eq!(outer.parent, root);
            assert_eq!(inner.parent, outer.span, "kernel must parent to infer");
            assert_eq!(inner.detail, "backend=simd");
            assert!(outer.dur_ns >= inner.dur_ns);
        }
    }

    #[test]
    fn ring_is_bounded() {
        let _g = serial();
        set_enabled(true);
        clear();
        let t = mint_trace_id();
        for i in 0..(RING_CAPACITY + 100) {
            record_span(t, 0, "parse", String::new(), i as u64, 1);
        }
        assert_eq!(ring_len(), RING_CAPACITY);
        set_enabled(false);
        clear();
    }
}
