//! # nilm_fault
//!
//! Deterministic fault injection for the serving stack.
//!
//! Production code marks **named fault points** — places where a realistic
//! deployment can fail (a checkpoint read, a worker thread, a queue push) —
//! by calling [`fires`] (or the [`maybe_panic`] convenience) with the
//! point's name, or [`fires_at`] / [`maybe_panic_at`] when the caller can
//! name a deterministic **site** (a fleet shard index, a request sequence
//! number). Unarmed, a fault point is a single relaxed atomic load
//! and a predictable branch: it costs nothing measurable and injects
//! nothing. Armed, the point fails a deterministic pseudo-random fraction
//! of its executions, so chaos tests and CI sweeps reproduce exactly.
//!
//! Arming happens two ways:
//!
//! - **Environment** — `NILM_FAULTS=<point>:<rate>:<seed>[:<max>][,...]`,
//!   parsed once on first use. `rate` is the failure probability in
//!   `[0, 1]`, `seed` makes the decision sequence deterministic, and the
//!   optional `max` bounds how many times the point may fire at each site.
//!   Example: `NILM_FAULTS=batcher.panic:0.1:7,persist.load.corrupt:0.1:11`.
//! - **Programmatic** — [`arm`] / [`arm_limited`] / [`disarm`] /
//!   [`disarm_all`], which tests use to sweep points one at a time.
//!
//! Decisions are derived from a splitmix64 hash of `(seed, site, trial
//! index at that site)`, and fire limits count per site, so each site's
//! fire/no-fire sequence depends only on the seed and how many times that
//! site has been evaluated — never on wall-clock time, thread scheduling,
//! other sites, or other points. [`fires`] is site 0: callers that
//! evaluate one point from several threads at once must pass distinct
//! sites, or the interleaving decides which of them sees which trial.
//!
//! The registered fault points of this workspace (the chaos suites sweep
//! every one):
//!
//! | point                  | armed effect                                       |
//! |------------------------|----------------------------------------------------|
//! | `persist.load.corrupt` | checkpoint file read yields a corrupt-data error   |
//! | `persist.save.torn`    | checkpoint save crashes after a partial temp write |
//! | `fleet.shard.panic`    | a fleet worker shard panics mid-pass               |
//! | `batcher.panic`        | a gateway pass loop panics with jobs in flight     |
//! | `gateway.slow_pass`    | a gateway pass stalls past the request deadline    |
//! | `queue.full`           | a queue push reports `Full` (load shed)            |
//! | `reactor.panic`        | the gateway's epoll event loop panics mid-tick     |
//! | `worker.wedge`         | a pass loop naps in decode past the deadline       |
//! | `conn.short_write`     | socket flushes write 1 byte then report blocked    |
//!
//! ```
//! // Unarmed points never fire.
//! assert!(!nilm_fault::fires("docs.example"));
//! // Armed at rate 1.0 they always fire (until the optional limit).
//! nilm_fault::arm_limited("docs.example", 1.0, 42, Some(2));
//! assert!(nilm_fault::fires("docs.example"));
//! assert!(nilm_fault::fires("docs.example"));
//! assert!(!nilm_fault::fires("docs.example"), "fire limit reached");
//! nilm_fault::disarm_all();
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Global arming state: the fast path reads this one atomic.
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// One armed fault point.
#[derive(Clone, Debug)]
struct Point {
    /// Failure probability per evaluation, in `[0, 1]`.
    rate: f64,
    /// Seed of the deterministic decision sequence.
    seed: u64,
    /// Maximum times this point may fire at each site (`None` =
    /// unlimited).
    max_fires: Option<u64>,
    /// `(evaluations, fires)` so far, per site.
    sites: BTreeMap<u64, (u64, u64)>,
}

/// Counters of one fault point, for metrics export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PointStats {
    /// How many times the point was evaluated while armed.
    pub trials: u64,
    /// How many times it fired (injected its failure).
    pub fired: u64,
}

static TABLE: OnceLock<Mutex<BTreeMap<String, Point>>> = OnceLock::new();

fn table() -> MutexGuard<'static, BTreeMap<String, Point>> {
    // A panic while holding this short lock cannot leave the table in a
    // broken state (every critical section is a few plain field updates),
    // so poisoning is cleared instead of propagated — fault injection must
    // keep working inside the very unwinds it causes.
    let lock = TABLE.get_or_init(|| Mutex::new(BTreeMap::new()));
    lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Parses `NILM_FAULTS` into the table. Called once, lazily, from the
/// first evaluation or arming call.
fn init_from_env() {
    let mut t = table();
    if STATE.load(Ordering::Acquire) != STATE_UNINIT {
        return; // Another thread initialized while we waited on the lock.
    }
    let mut armed = false;
    if let Ok(spec) = std::env::var("NILM_FAULTS") {
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            match parse_entry(entry) {
                Some((name, point)) => {
                    t.insert(name, point);
                    armed = true;
                }
                None => eprintln!(
                    "nilm_fault: ignoring malformed NILM_FAULTS entry {entry:?} \
                     (want point:rate:seed[:max])"
                ),
            }
        }
    }
    STATE.store(if armed { STATE_ON } else { STATE_OFF }, Ordering::Release);
}

fn parse_entry(entry: &str) -> Option<(String, Point)> {
    let mut parts = entry.split(':');
    let name = parts.next()?.trim();
    let rate: f64 = parts.next()?.trim().parse().ok()?;
    let seed: u64 = parts.next()?.trim().parse().ok()?;
    let max_fires = match parts.next() {
        Some(m) => Some(m.trim().parse::<u64>().ok()?),
        None => None,
    };
    if parts.next().is_some() || name.is_empty() || !(0.0..=1.0).contains(&rate) {
        return None;
    }
    Some((name.to_string(), Point { rate, seed, max_fires, sites: BTreeMap::new() }))
}

/// splitmix64: a well-mixed 64-bit hash of the (seed, trial) pair.
fn mix(seed: u64, trial: u64) -> u64 {
    let mut z = seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Evaluates the fault point `name` at site 0: returns `true` when the
/// point is armed and its deterministic draw says this execution fails.
/// Unarmed points cost one atomic load.
pub fn fires(name: &str) -> bool {
    fires_at(name, 0)
}

/// Evaluates the fault point `name` at `site`: the draw depends only on
/// the point's seed, the site, and how many times this site has been
/// evaluated, so concurrent callers that pass distinct sites (a fleet
/// passes its shard index) get the same decisions under any thread
/// schedule. Unarmed points cost one atomic load.
pub fn fires_at(name: &str, site: u64) -> bool {
    match STATE.load(Ordering::Acquire) {
        STATE_OFF => return false,
        STATE_UNINIT => init_from_env(),
        _ => {}
    }
    if STATE.load(Ordering::Acquire) != STATE_ON {
        return false;
    }
    let mut t = table();
    let Some(point) = t.get_mut(name) else { return false };
    let (rate, max_fires) = (point.rate, point.max_fires);
    // Site 0 keeps the seed as is, so `fires` replays the sequences it
    // drew before sites existed.
    let seed = point.seed ^ site.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let (trials, fired) = point.sites.entry(site).or_default();
    let trial = *trials;
    *trials += 1;
    if max_fires.is_some_and(|m| *fired >= m) {
        return false;
    }
    // Top 53 bits -> uniform in [0, 1); exact at rate 0.0 and 1.0.
    let draw = (mix(seed, trial) >> 11) as f64 / (1u64 << 53) as f64;
    let fire = rate >= 1.0 || draw < rate;
    if fire {
        *fired += 1;
    }
    fire
}

/// Panics with `injected fault: <name>` when [`fires`]`(name)`. The
/// standard way to mark a crash-shaped fault point.
pub fn maybe_panic(name: &str) {
    maybe_panic_at(name, 0);
}

/// Panics with `injected fault: <name>` when [`fires_at`]`(name, site)`.
pub fn maybe_panic_at(name: &str, site: u64) {
    if fires_at(name, site) {
        panic!("injected fault: {name}");
    }
}

/// Arms `name` at `rate` with `seed`, unlimited fires. Resets the point's
/// counters if it was already armed.
pub fn arm(name: &str, rate: f64, seed: u64) {
    arm_limited(name, rate, seed, None);
}

/// Arms `name` at `rate` with `seed`, firing at most `max_fires` times at
/// each site (`None` = unlimited).
pub fn arm_limited(name: &str, rate: f64, seed: u64, max_fires: Option<u64>) {
    if STATE.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    let mut t = table();
    t.insert(
        name.to_string(),
        Point { rate: rate.clamp(0.0, 1.0), seed, max_fires, sites: BTreeMap::new() },
    );
    STATE.store(STATE_ON, Ordering::Release);
}

/// Disarms `name`; other points stay armed.
pub fn disarm(name: &str) {
    if STATE.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    let mut t = table();
    t.remove(name);
    if t.is_empty() {
        STATE.store(STATE_OFF, Ordering::Release);
    }
}

/// Disarms every fault point and clears all counters. Tests call this in
/// their set-up and tear-down so points never leak between cases.
pub fn disarm_all() {
    let mut t = table();
    t.clear();
    STATE.store(STATE_OFF, Ordering::Release);
}

/// True when at least one fault point is armed.
pub fn armed() -> bool {
    if STATE.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    STATE.load(Ordering::Acquire) == STATE_ON
}

/// Snapshot of every armed point's counters (summed over sites), sorted
/// by name. Exported on the gateway's `GET /metrics` so injected chaos is
/// observable.
pub fn stats() -> Vec<(String, PointStats)> {
    if STATE.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    table()
        .iter()
        .map(|(name, p)| {
            let (trials, fired) =
                p.sites.values().fold((0, 0), |(t, f), &(st, sf)| (t + st, f + sf));
            (name.clone(), PointStats { trials, fired })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The fault table is process-global; unit tests serialize on this.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        disarm_all();
        g
    }

    #[test]
    fn unarmed_points_never_fire() {
        let _g = guard();
        for _ in 0..100 {
            assert!(!fires("never.armed"));
        }
        assert!(!armed());
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never() {
        let _g = guard();
        arm("t.always", 1.0, 1);
        arm("t.never", 0.0, 1);
        for _ in 0..50 {
            assert!(fires("t.always"));
            assert!(!fires("t.never"));
        }
        let s: std::collections::BTreeMap<_, _> = stats().into_iter().collect();
        assert_eq!(s["t.always"], PointStats { trials: 50, fired: 50 });
        assert_eq!(s["t.never"], PointStats { trials: 50, fired: 0 });
        disarm_all();
    }

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let _g = guard();
        let run = |seed: u64| -> Vec<bool> {
            arm("t.det", 0.3, seed);
            (0..64).map(|_| fires("t.det")).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay the same decisions");
        assert_ne!(a, c, "different seeds must diverge");
        let hits = a.iter().filter(|&&f| f).count();
        assert!((5..=35).contains(&hits), "rate 0.3 over 64 trials fired {hits} times");
        disarm_all();
    }

    #[test]
    fn fire_limit_bounds_injections() {
        let _g = guard();
        arm_limited("t.lim", 1.0, 3, Some(2));
        assert!(fires("t.lim"));
        assert!(fires("t.lim"));
        for _ in 0..10 {
            assert!(!fires("t.lim"), "limit of 2 must stop further fires");
        }
        let s: std::collections::BTreeMap<_, _> = stats().into_iter().collect();
        assert_eq!(s["t.lim"].fired, 2);
        disarm_all();
    }

    #[test]
    fn disarm_and_maybe_panic() {
        let _g = guard();
        arm("t.panic", 1.0, 1);
        let err = std::panic::catch_unwind(|| maybe_panic("t.panic"))
            .expect_err("armed point must panic");
        let msg = err.downcast_ref::<String>().expect("panic payload");
        assert!(msg.contains("injected fault: t.panic"), "{msg}");
        disarm("t.panic");
        maybe_panic("t.panic"); // Disarmed: must not panic.
        assert!(!armed());
    }

    #[test]
    fn sites_draw_and_limit_independently() {
        let _g = guard();
        let run = |order: &[u64]| -> Vec<(u64, bool)> {
            arm_limited("t.sites", 0.5, 5, Some(1));
            order.iter().map(|&s| (s, fires_at("t.sites", s))).collect()
        };
        // Interleaving the sites differently must not change any site's
        // own decision sequence.
        let mut a = run(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let mut b = run(&[2, 2, 2, 1, 1, 1, 0, 0, 0]);
        a.sort_by_key(|&(s, _)| s);
        b.sort_by_key(|&(s, _)| s);
        assert_eq!(a, b);
        for site in 0..3 {
            let fires = a.iter().filter(|&&(s, f)| s == site && f).count();
            assert!(fires <= 1, "site {site} fired {fires} times past its limit of 1");
        }
        // Site 0 is the plain `fires` sequence.
        arm("t.site0", 0.5, 9);
        let plain: Vec<bool> = (0..32).map(|_| fires("t.site0")).collect();
        arm("t.site0", 0.5, 9);
        let at0: Vec<bool> = (0..32).map(|_| fires_at("t.site0", 0)).collect();
        assert_eq!(plain, at0);
        disarm_all();
    }

    #[test]
    fn env_entry_parser_accepts_and_rejects() {
        let _g = guard();
        let (name, p) = parse_entry("batcher.panic:0.25:7").expect("valid entry");
        assert_eq!(name, "batcher.panic");
        assert_eq!((p.rate, p.seed, p.max_fires), (0.25, 7, None));
        let (_, p) = parse_entry(" queue.full : 1.0 : 3 : 5 ").expect("spaces + max");
        assert_eq!((p.rate, p.seed, p.max_fires), (1.0, 3, Some(5)));
        for bad in ["", "noseed:0.5", "p:1.5:1", "p:x:1", "p:0.5:1:2:3", ":0.5:1"] {
            assert!(parse_entry(bad).is_none(), "{bad:?} must be rejected");
        }
    }
}
