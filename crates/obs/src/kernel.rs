//! Cumulative per-`(op, shape, backend)` kernel timing.
//!
//! `nilm_tensor::dispatch` calls [`record`] once per production kernel
//! invocation. A call that misses the autotuner cache runs a race of every
//! candidate instead; the race counts as one row of the winner, timed at
//! its best rep, and the losing and repeated runs are not recorded. The
//! serving layer surfaces the table through both the JSON and Prometheus
//! exporters, so a dispatch regression ("why did `conv_fwd 8×512×45` fall
//! back to naive?") is visible without re-running the autotuner offline.
//!
//! The table is always on: kernel calls are coarse (one per layer forward,
//! not per element), so one short mutex acquisition each is noise next to
//! the GEMM it just timed.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Identity of one kernel timing series.
///
/// All fields are `Copy` so the always-on [`record`] path allocates
/// nothing: a map lookup under a short mutex and two additions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct KernelKey {
    /// Operation name (`"conv_fwd"`, `"gemm"`, ...).
    pub op: &'static str,
    /// GEMM-equivalent M dimension.
    pub m: usize,
    /// GEMM-equivalent N dimension.
    pub n: usize,
    /// GEMM-equivalent K dimension.
    pub k: usize,
    /// Worker-pool width the shape was keyed under: the kernel may fan out
    /// this wide, not the number of groups this call split into.
    pub threads: usize,
    /// Winning backend (`"naive"` or `"simd"`).
    pub backend: &'static str,
}

/// Cumulative totals for one [`KernelKey`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStat {
    /// Number of kernel invocations.
    pub calls: u64,
    /// Total time spent inside the kernel, nanoseconds.
    pub total_ns: u64,
}

fn table() -> &'static Mutex<BTreeMap<KernelKey, KernelStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<KernelKey, KernelStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<KernelKey, KernelStat>> {
    match table().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Adds one kernel invocation of `dur_ns` nanoseconds to the series.
pub fn record(key: KernelKey, dur_ns: u64) {
    let mut t = lock();
    let stat = t.entry(key).or_default();
    stat.calls += 1;
    stat.total_ns = stat.total_ns.saturating_add(dur_ns);
}

/// Snapshot of every kernel series, sorted by key.
pub fn stats() -> Vec<(KernelKey, KernelStat)> {
    lock().iter().map(|(k, v)| (*k, *v)).collect()
}

/// Drops all recorded kernel series (tests).
pub fn clear() {
    lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(backend: &'static str) -> KernelKey {
        KernelKey { op: "conv_fwd", m: 8, n: 512, k: 45, threads: 4, backend }
    }

    #[test]
    fn record_accumulates_per_key() {
        clear();
        record(key("simd"), 1_000);
        record(key("simd"), 2_000);
        record(key("naive"), 5_000);
        let stats = stats();
        let simd = stats.iter().find(|(k, _)| k.backend == "simd").unwrap();
        assert_eq!(simd.1, KernelStat { calls: 2, total_ns: 3_000 });
        let naive = stats.iter().find(|(k, _)| k.backend == "naive").unwrap();
        assert_eq!(naive.1.calls, 1);
        clear();
        assert!(super::stats().is_empty());
    }
}
