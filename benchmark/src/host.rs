//! Host stamp and environment guard.

/// Environment variables that change the program under test; the
/// benchmark refuses to run while any of them is set.
pub const GUARDED_ENV: [&str; 6] =
    ["NILM_FAULTS", "NILM_TRACE", "NILM_LOG", "NILM_BACKEND", "NILM_CONV_BACKEND", "NILM_SIMD"];

/// The guarded variables that are set, if any.
pub fn guarded_env_set() -> Vec<&'static str> {
    GUARDED_ENV.iter().copied().filter(|name| std::env::var_os(name).is_some()).collect()
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host stamp as one JSON object: CPU model, `nproc`, SIMD state and
/// the thread settings the measured program runs with.
pub fn stamp(reactor_workers: usize) -> String {
    let cpu = cpu_model().replace('"', "'");
    format!(
        "{{\"cpu_model\":\"{cpu}\",\"nproc\":{},\"simd_available\":{},\"simd_exact\":{},\"rayon_threads\":{},\"reactor_workers\":{reactor_workers}}}",
        nproc(),
        nilm_tensor::simd::simd_available(),
        nilm_tensor::simd::simd_exact(),
        rayon::current_num_threads(),
    )
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Hands the allocator's free pages back to the kernel. Called before each
/// training so that memory an earlier training freed, but glibc kept in
/// one of its per-thread arenas, does not add a varying amount to
/// `peak_rss_mb`.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns free heap pages to the kernel;
        // it takes no pointers and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Current resident set of the process, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}
