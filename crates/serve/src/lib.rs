//! # nilm_serve
//!
//! The networked inference gateway of the CamAL reproduction: a
//! dependency-free HTTP/1.1 service (`std::net` only) that exposes the
//! model registry and the fleet engine over a socket, with **cross-request
//! micro-batching** — windows from concurrently arriving requests are
//! coalesced into shared GEMM passes, so throughput under concurrency
//! beats issuing the same requests one at a time.
//!
//! ```text
//!   TCP clients ══ epoll ══▶ reactor thread (owns every connection)
//!                               │ incremental parse / in-order write
//!                               │ state machines, backpressure,
//!                               │ per-request deadlines, fairness,
//!                               │ control routes answered inline
//!                               ▼
//!                          bounded job queue ──(full)→ 503
//!                               │ localize requests, body undecoded
//!                               ▼
//!                          pass loops, one per rayon pool slot
//!                               │ each: pop + drain queue, decode +
//!                               │ validate (400/404 answered here),
//!                               │ group by key set, merge households
//!                               ▼
//!                  camal::fleet::resolve_fleet (shared ModelRegistry,
//!                               │ locked for the resolve only)
//!                               ▼
//!                  camal::fleet::run_fleet (ONE pass, shared GEMM
//!                               │ batches), split per request
//!                               ▼
//!                  completions channel ──▶ reactor ──▶ HTTP responses
//! ```
//!
//! Modules:
//! - [`http`] — minimal HTTP/1.1 layer around an **incremental**,
//!   chunking-invariant request parser ([`http::RequestParser`]),
//!   `Content-Length` bodies, keep-alive, hard limits that map to 4xx
//!   statuses. Never panics on malformed input.
//! - [`sys`] — the vendored epoll + wake-pipe shim (no `libc` crate):
//!   level/edge-triggered readiness polling and cross-thread wakeups.
//! - [`protocol`] — the `POST /v1/localize` JSON request/response schemas
//!   over [`nilm_json`].
//! - [`queue`] — the bounded job queue between the reactor and the
//!   pass loops (load shedding with 503 when full).
//! - [`metrics`] — request counters, micro-batch size histogram, pass
//!   overlap, reactor counters (`epoll_wakeups`, `partial_writes`, backlog
//!   peaks), queue depth and latency percentiles, served as JSON on
//!   `GET /metrics`.
//! - [`gateway`] — the server: configuration, routing, the pass loops,
//!   supervision, graceful shutdown.
//! - [`loadgen`] — a real-socket load generator (optionally pipelined)
//!   measuring requests/s and latency percentiles against a running
//!   gateway.
//!
//! (The reactor event loop and per-connection state machines live in the
//! crate-private `reactor` and `conn` modules.)
//!
//! Micro-batching never changes results: the fleet engine scores each
//! window independently (eval-mode BatchNorm, row-independent GEMMs), so a
//! response is bit-identical to a direct [`camal::stream::serve`] call on
//! the same household — the concurrency tests pin exactly that.

#![warn(missing_docs)]

mod conn;
pub mod gateway;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod queue;
mod reactor;
pub mod sys;

pub use gateway::{Gateway, GatewayConfig};
pub use loadgen::{run_loadgen, run_loadgen_with, LoadgenOptions, LoadgenReport};
