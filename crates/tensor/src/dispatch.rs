//! Backend dispatch for the compute kernels.
//!
//! Two backends implement every convolution:
//!
//! - [`Backend::Naive`] — the scalar reference path (shifted-axpy
//!   convolution). Always available, always the correctness oracle.
//! - [`Backend::Simd`] — the lowered path: im2col (or, for skinny
//!   stride-1 shapes, direct shifted windows) + cache-blocked GEMM through
//!   the host's microkernel ([`crate::gemm::host_kernel_mode`]): the
//!   explicit `std::arch` kernels (AVX2/FMA on x86-64, NEON on aarch64)
//!   when they are available and bit-identical to the portable chain, the
//!   portable microkernel otherwise.
//!
//! Both are bit-identical on every build, so which one runs never changes
//! a computed value. Plain GEMMs (linear and attention layers) have no
//! naive twin: they always run the host's microkernel.
//!
//! One selector picks a convolution's backend, from strongest to weakest:
//!
//! 1. a per-layer override ([`crate::conv::Conv1d::set_backend`]);
//! 2. the process-wide forced backend — [`set_forced_backend`] from code, or
//!    the `NILM_BACKEND` environment variable (`naive`, `simd` or `auto`;
//!    any other value panics, see [`env_backend`]) read once at first use;
//! 3. a fixed shape rule (`auto`): naive when the lowered GEMM's inner
//!    dimension `in_c·k` is 1 (up to 9 on the portable microkernel) or the
//!    call is too small to lower, simd otherwise (see `Conv1d`'s backend
//!    selection in [`crate::conv`]).
//!    The rule reads only the call's shape, so it costs nothing at run
//!    time and picks the same backend in every process.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One of the interchangeable compute implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Scalar reference path (the oracle).
    Naive,
    /// Lowered convolution + blocked GEMM on the host's microkernel.
    Simd,
}

impl Backend {
    /// Every backend, in oracle-first order.
    pub fn all() -> [Backend; 2] {
        [Backend::Naive, Backend::Simd]
    }

    /// Lower-case name used by `NILM_BACKEND` and benchmark artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Simd => "simd",
        }
    }

    /// Parses a backend name (the inverse of [`Backend::as_str`]).
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::all().into_iter().find(|b| b.as_str() == s)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Programmatic process-wide override: a [`Backend`] discriminant, or
/// `u8::MAX` when unset.
static FORCED: AtomicU8 = AtomicU8::new(u8::MAX);

/// Parses a `NILM_BACKEND` value: unset or `auto` forces nothing
/// (`Ok(None)`, the shape rule decides),
/// a backend name forces that backend, and anything else is an error that
/// names the accepted values.
pub fn parse_env_backend(value: Option<&str>) -> Result<Option<Backend>, String> {
    match value {
        None | Some("auto") => Ok(None),
        Some(name) => Backend::parse(name).map(Some).ok_or_else(|| {
            let accepted: Vec<_> = Backend::all().iter().map(|b| b.as_str()).collect();
            format!("NILM_BACKEND={name:?} is not one of {} or auto", accepted.join(", "))
        }),
    }
}

/// The backend forced by the `NILM_BACKEND` environment variable, if any
/// (read once; unset or `auto` forces nothing).
///
/// # Panics
///
/// On any other value, so a typo (or a removed backend) fails loudly
/// instead of silently falling back to the shape rule.
pub fn env_backend() -> Option<Backend> {
    static ENV: OnceLock<Option<Backend>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let value = std::env::var("NILM_BACKEND").ok();
        parse_env_backend(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Sets (or with `None`, clears) the process-wide forced backend. A set
/// value takes precedence over `NILM_BACKEND`; clearing restores the
/// environment override (if present) and the shape rule otherwise.
pub fn set_forced_backend(backend: Option<Backend>) {
    FORCED.store(backend.map_or(u8::MAX, |b| b as u8), Ordering::Relaxed);
}

/// The process-wide forced backend: the programmatic override if set, else
/// the `NILM_BACKEND` environment variable, else `None` (= the shape rule).
pub fn forced_backend() -> Option<Backend> {
    match Backend::all().get(FORCED.load(Ordering::Relaxed) as usize) {
        Some(&b) => Some(b),
        None => env_backend(),
    }
}

/// Serializes the unit tests that set the forced backend or rely on its
/// absence. The guard clears the forced backend before it releases the lock,
/// also when the test panics, so a poisoned lock guards nothing stale.
#[cfg(test)]
pub(crate) fn lock_forced_backend() -> impl Drop {
    struct Unforce {
        _lock: std::sync::MutexGuard<'static, ()>,
    }
    impl Drop for Unforce {
        fn drop(&mut self) {
            set_forced_backend(None);
        }
    }
    static LOCK: Mutex<()> = Mutex::new(());
    Unforce { _lock: LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) }
}

thread_local! {
    /// Set while the current thread runs inside [`with_serial_kernels`].
    static SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Worker threads a kernel may fan out over: the pool width
/// (`rayon::current_num_threads()`, i.e. `RAYON_NUM_THREADS` or the core
/// count), or 1 inside [`with_serial_kernels`]. The convolution batch
/// split, the GEMM row-block split and [`ShapeKey`] all read this one
/// value, so a kernel never fans out where its caller already did: the
/// process uses one level of parallelism at a time, either across work
/// items (fleet shards, Algorithm 1 candidates) or inside the kernels.
pub fn kernel_threads() -> usize {
    if SERIAL.with(Cell::get) {
        1
    } else {
        rayon::current_num_threads()
    }
}

/// Runs `f` with [`kernel_threads`] pinned to 1 on the calling thread: the
/// caller has already split the work across the cores, so a nested fan-out
/// would find the pool's workers busy with the sibling items and only add
/// hand-off overhead. Two callers do: a fleet pass runs one household
/// shard per core (through [`fan_out`]), and
/// `camal::ensemble::train_ensemble` trains one Algorithm 1 candidate per
/// worker. Results do not depend on it: every
/// kernel is bit-identical at any width.
pub fn with_serial_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SERIAL.with(|s| s.replace(true)));
    f()
}

/// Runs `job` on every item and returns the results in item order: spread
/// over the calling thread and the `rayon` pool's workers when there are
/// several (one contiguous run of items per thread), each under
/// [`with_serial_kernels`] since the items already occupy the cores, and
/// inline on the caller when there is one. Every item runs with a copy of
/// the caller's trace context, so the spans recorded inside (stages,
/// kernel children) land in the caller's traces on whichever thread ran it.
pub fn fan_out<I: Sync, T: Send>(items: &[I], job: impl Fn(&I) -> T + Sync) -> Vec<T> {
    use rayon::prelude::*;
    let trace_ctx = nilm_obs::trace::snapshot();
    let several = items.len() > 1;
    items
        .par_chunks(1)
        .map(|one| {
            let _ctx = nilm_obs::trace::set_context(&trace_ctx);
            if several {
                with_serial_kernels(|| job(&one[0]))
            } else {
                job(&one[0])
            }
        })
        .collect()
}

/// Identity of one kernel call's shape, as the cumulative kernel table
/// ([`nilm_obs::kernel`]) and the `"kernel"` trace span name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Operation tag (e.g. `"conv_fwd"`): different lowerings of the same
    /// `(m, n, k)` are separate rows.
    pub op: &'static str,
    /// Output rows of the lowered GEMM.
    pub m: usize,
    /// Output columns of the lowered GEMM.
    pub n: usize,
    /// Inner (accumulation) dimension.
    pub k: usize,
    /// Worker-pool width the call ran under ([`kernel_threads`]): the
    /// kernel may fan out this wide. It keys only the kernel table; the
    /// backend choice does not read it.
    pub threads: usize,
}

impl ShapeKey {
    /// Key for `op` at `(m, n, k)` with the current [`kernel_threads`].
    pub fn with_current_threads(op: &'static str, m: usize, n: usize, k: usize) -> Self {
        ShapeKey { op, m, n, k, threads: kernel_threads() }
    }
}

/// Converts a [`ShapeKey`] + the backend that ran into the observability key
/// the cumulative kernel table is indexed by.
fn obs_key(key: ShapeKey, backend: Backend) -> nilm_obs::kernel::KernelKey {
    nilm_obs::kernel::KernelKey {
        op: key.op,
        m: key.m,
        n: key.n,
        k: key.k,
        threads: key.threads,
        backend: backend.as_str(),
    }
}

/// Runs one production kernel execution under observation: the elapsed
/// time lands in the cumulative per-`(op, shape, backend)` table
/// ([`nilm_obs::kernel`]) surfaced by the gateway's `/metrics` exporters,
/// and — when the calling thread carries a trace context (`NILM_TRACE=on`
/// inside a traced request) — a `"kernel"` child span naming
/// op/shape/backend is recorded under the enclosing stage span.
///
/// Kernel executions are coarse (one per layer forward), so the always-on
/// table costs one short mutex acquisition per call; the span path is
/// gated to a single relaxed atomic load when tracing is off.
pub fn observe<R>(key: ShapeKey, backend: Backend, run: impl FnOnce() -> R) -> R {
    let mut span = nilm_obs::trace::span("kernel");
    let start = Instant::now();
    let out = run();
    let dur_ns = start.elapsed().as_nanos() as u64;
    nilm_obs::kernel::record(obs_key(key, backend), dur_ns);
    if let Some(span) = span.as_mut() {
        span.set_detail(span_detail(key, backend));
    }
    out
}

/// The `"kernel"` span detail for a shape, interned so the trace hot path
/// formats each distinct `(shape, backend)` once per process and records a
/// `&'static str` thereafter. Shapes are bounded (the kernel table keys
/// the same space), so the leak is bounded too.
fn span_detail(key: ShapeKey, backend: Backend) -> &'static str {
    static DETAILS: OnceLock<Mutex<HashMap<(ShapeKey, Backend), &'static str>>> = OnceLock::new();
    let mut map = DETAILS.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
    map.entry((key, backend)).or_insert_with(|| {
        Box::leak(
            format!(
                "op={} m={} n={} k={} threads={} backend={}",
                key.op, key.m, key.n, key.k, key.threads, backend
            )
            .into_boxed_str(),
        )
    })
}

/// Does nothing: kept for the benchmark, which clears the autotuner cache
/// that once raced both backends per shape. The backend now comes from a
/// fixed shape rule, so there is nothing to clear. Goes with the next
/// benchmark-side change.
pub fn clear_choices() {}

/// Always empty: kept for the benchmark, which counts this list's growth
/// as cold autotuner races (`tensor.autotune_misses`). No shape is raced
/// any more, so that count is 0. Goes with the next benchmark-side change.
pub fn tuned_entries() -> Vec<(ShapeKey, Backend)> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_backends_in_oracle_first_order_round_trip_their_names() {
        // Two backends on every build, oracle first.
        assert_eq!(Backend::all(), [Backend::Naive, Backend::Simd]);
        let names: Vec<_> = Backend::all().iter().map(|b| b.as_str()).collect();
        assert_eq!(names, ["naive", "simd"]);
        for b in Backend::all() {
            assert_eq!(Backend::parse(b.as_str()), Some(b));
        }
        assert_eq!(Backend::parse("auto"), None);
        assert_eq!(Backend::parse("gemm"), None);
    }

    #[test]
    fn env_parser_accepts_auto_and_the_backends_and_rejects_the_rest() {
        assert_eq!(parse_env_backend(None), Ok(None));
        assert_eq!(parse_env_backend(Some("auto")), Ok(None));
        assert_eq!(parse_env_backend(Some("naive")), Ok(Some(Backend::Naive)));
        assert_eq!(parse_env_backend(Some("simd")), Ok(Some(Backend::Simd)));
        for bad in ["gemm", "", "SIMD", "simd "] {
            let err = parse_env_backend(Some(bad)).unwrap_err();
            assert!(err.contains("naive, simd or auto"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn forced_backend_set_and_clear() {
        let _forced = lock_forced_backend();
        set_forced_backend(Some(Backend::Naive));
        assert_eq!(forced_backend(), Some(Backend::Naive));
        set_forced_backend(Some(Backend::Simd));
        assert_eq!(forced_backend(), Some(Backend::Simd));
        set_forced_backend(None);
        assert_eq!(forced_backend(), env_backend());
    }

    #[test]
    fn serial_kernels_pin_the_width_to_one_and_restore_it() {
        let outside = kernel_threads();
        assert_eq!(outside, rayon::current_num_threads());
        with_serial_kernels(|| {
            assert_eq!(kernel_threads(), 1);
            assert_eq!(ShapeKey::with_current_threads("t", 1, 1, 1).threads, 1);
            with_serial_kernels(|| assert_eq!(kernel_threads(), 1));
            assert_eq!(kernel_threads(), 1, "a nested scope must not end the outer one");
        });
        assert_eq!(kernel_threads(), outside);
        let _ = std::panic::catch_unwind(|| with_serial_kernels(|| panic!("unwind")));
        assert_eq!(kernel_threads(), outside, "an unwind must restore the width");
    }

    #[test]
    fn fan_out_keeps_order_and_runs_several_jobs_with_serial_kernels() {
        let width = rayon::current_num_threads();
        assert_eq!(fan_out(&[7], |&i| (i, kernel_threads())), vec![(7, width)]);
        let jobs = fan_out(&[0, 1, 2], |&i| (i, kernel_threads()));
        assert_eq!(jobs, vec![(0, 1), (1, 1), (2, 1)]);
        assert_eq!(kernel_threads(), width, "the caller keeps its width");
    }
}
