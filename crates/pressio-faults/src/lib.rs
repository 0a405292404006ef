//! Deterministic failpoint registry.
//!
//! Production code marks *injection sites* with [`check`] or [`inject`].
//! With no faults configured the whole machinery collapses to a single
//! relaxed atomic load per site — no locking, no allocation, no branch on
//! anything but one `u8`. A chaos run activates a schedule either through
//! the `PRESSIO_FAULTS` environment variable or programmatically via
//! [`configure`], and every decision a site makes is a pure function of
//! (site name, per-site hit index, schedule seed), so the same schedule
//! replays the same faults run after run.
//!
//! # Spec syntax
//!
//! A schedule is `;`-separated entries, each `site=action[,key=val...]`:
//!
//! ```text
//! store:put.io=err,times=1;queue:task.panic=panic,after=3,times=1
//! serve:conn.drop=drop,every=5;queue:task.delay=delay,ms=20,p=0.25,seed=7
//! ```
//!
//! Actions: `err`, `panic`, `delay` (with `ms=N`), `torn`, `corrupt`,
//! `drop`, `crash`, `stall` (with `ms=N`). `err`/`panic`/`delay` are
//! interpreted directly by [`inject`]; the rest are site-specific — the
//! code hosting the site decides what "torn" or "drop" means there.
//!
//! Modifiers (all optional, combinable):
//! - `times=N` — fire at most N times, then go quiet.
//! - `after=K` — ignore the first K hits of the site.
//! - `every=N` — of the hits remaining after `after`, fire every Nth
//!   (the 1st, N+1st, ...).
//! - `p=F` — fire with probability F, decided deterministically from
//!   `seed` and the hit index (same schedule → same decisions).
//! - `seed=S` — seed for `p` decisions (default 0).
//! - `ms=N` — duration for `delay`/`stall` (default 10).
//!
//! Every fired fault increments the `pressio-obs` counter `faults:<site>`
//! and the registry's own [`fired`] tally, so chaos tests can assert that
//! the schedule actually exercised what it claims to.

use pressio_core::error::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// What a firing failpoint asks the site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with an injected error.
    Error,
    /// Panic (exercises catch_unwind containment / supervisors).
    Panic,
    /// Sleep for the given milliseconds, then proceed normally.
    Delay(u64),
    /// Site-specific: persist/transmit only a prefix of the payload.
    Torn,
    /// Site-specific: flip bytes in the payload.
    Corrupt,
    /// Site-specific: sever the connection / discard the response.
    Drop,
    /// Site-specific: die without cleanup (worker thread exit, abandoned
    /// temp file, ...), as a crash at this point would.
    Crash,
    /// Site-specific: hold the resource for the given milliseconds
    /// (slow client, straggler worker).
    Stall(u64),
}

impl FaultAction {
    fn name(self) -> &'static str {
        match self {
            FaultAction::Error => "err",
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::Torn => "torn",
            FaultAction::Corrupt => "corrupt",
            FaultAction::Drop => "drop",
            FaultAction::Crash => "crash",
            FaultAction::Stall(_) => "stall",
        }
    }
}

struct SiteConfig {
    action: FaultAction,
    times: Option<u64>,
    after: u64,
    every: u64,
    p: Option<f64>,
    seed: u64,
    hits: u64,
    fires: u64,
}

#[derive(Default)]
struct Registry {
    sites: HashMap<String, SiteConfig>,
}

// Fast-path state: a single relaxed load decides whether any site can
// possibly fire. UNINIT lazily reads PRESSIO_FAULTS exactly once.
const UNINIT: u8 = 0;
const DISABLED: u8 = 1;
const ENABLED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Env var holding the default fault schedule.
pub const ENV_VAR: &str = "PRESSIO_FAULTS";
/// Options key carrying a fault schedule (e.g. from `pressio --faults`).
pub const OPTION_KEY: &str = "pressio:faults";

/// FNV-1a over `bytes` — the stable hash behind per-site decisions, also
/// exported for deterministic retry jitter.
pub fn hash64(bytes: &[u8]) -> u64 {
    pressio_core::hash::fnv1a64(bytes)
}

/// SplitMix64 finalizer — a cheap, high-quality mix for turning counters
/// into decisions without any global RNG state.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Exponential backoff with deterministic jitter, shared by the queue's
/// task retries and the serve client's reconnect policy. Attempt 1 (the
/// first try) waits 0; attempt `n ≥ 2` waits uniformly in
/// `[d/2, d]` where `d = min(base_ms · 2^(n-2), max_ms)`. The jitter is a
/// pure function of `(key, n)`, so a replayed schedule waits identically.
pub fn backoff_ms(base_ms: u64, max_ms: u64, attempt: usize, key: &str) -> u64 {
    if base_ms == 0 || attempt <= 1 {
        return 0;
    }
    let exp = (attempt - 2).min(16) as u32;
    let raw = base_ms.saturating_mul(1u64 << exp).min(max_ms.max(base_ms));
    let jitter = splitmix64(hash64(key.as_bytes()) ^ attempt as u64) % (raw / 2 + 1);
    raw / 2 + jitter
}

fn parse_u64(site: &str, key: &str, val: &str) -> Result<u64> {
    val.parse::<u64>().map_err(|_| Error::InvalidValue {
        key: OPTION_KEY.into(),
        reason: format!("{site}: {key}={val} is not an integer"),
    })
}

fn parse_entry(entry: &str) -> Result<(String, SiteConfig)> {
    let (site, rest) = entry.split_once('=').ok_or_else(|| Error::InvalidValue {
        key: OPTION_KEY.into(),
        reason: format!("'{entry}' is not site=action[,key=val...]"),
    })?;
    let site = site.trim();
    if site.is_empty() {
        return Err(Error::InvalidValue {
            key: OPTION_KEY.into(),
            reason: format!("'{entry}' has an empty site name"),
        });
    }
    let mut parts = rest.split(',').map(str::trim);
    let action_name = parts.next().unwrap_or("");
    let mut ms = 10u64;
    let mut times = None;
    let mut after = 0u64;
    let mut every = 1u64;
    let mut p = None;
    let mut seed = 0u64;
    for kv in parts {
        let (k, v) = kv.split_once('=').ok_or_else(|| Error::InvalidValue {
            key: OPTION_KEY.into(),
            reason: format!("{site}: modifier '{kv}' is not key=val"),
        })?;
        match k {
            "ms" => ms = parse_u64(site, k, v)?,
            "times" => times = Some(parse_u64(site, k, v)?),
            "after" => after = parse_u64(site, k, v)?,
            "every" => every = parse_u64(site, k, v)?.max(1),
            "seed" => seed = parse_u64(site, k, v)?,
            "p" => {
                let f = v.parse::<f64>().ok().filter(|f| (0.0..=1.0).contains(f));
                p = Some(f.ok_or_else(|| Error::InvalidValue {
                    key: OPTION_KEY.into(),
                    reason: format!("{site}: p={v} must be a probability in [0, 1]"),
                })?);
            }
            other => {
                return Err(Error::InvalidValue {
                    key: OPTION_KEY.into(),
                    reason: format!("{site}: unknown modifier '{other}'"),
                })
            }
        }
    }
    let action = match action_name {
        "err" | "error" => FaultAction::Error,
        "panic" => FaultAction::Panic,
        "delay" => FaultAction::Delay(ms),
        "torn" => FaultAction::Torn,
        "corrupt" => FaultAction::Corrupt,
        "drop" => FaultAction::Drop,
        "crash" => FaultAction::Crash,
        "stall" => FaultAction::Stall(ms),
        other => {
            return Err(Error::InvalidValue {
                key: OPTION_KEY.into(),
                reason: format!("{site}: unknown action '{other}'"),
            })
        }
    };
    Ok((
        site.to_string(),
        SiteConfig {
            action,
            times,
            after,
            every,
            p,
            seed,
            hits: 0,
            fires: 0,
        },
    ))
}

/// Replace the active schedule with `spec`. An empty (or all-whitespace)
/// spec disables every site. Invalid specs leave the previous schedule
/// untouched and return an error.
pub fn configure(spec: &str) -> Result<()> {
    let mut sites = HashMap::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, config) = parse_entry(entry)?;
        sites.insert(site, config);
    }
    let enabled = !sites.is_empty();
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *registry = Some(Registry { sites });
    STATE.store(if enabled { ENABLED } else { DISABLED }, Ordering::Release);
    Ok(())
}

/// Load the schedule from `PRESSIO_FAULTS` (no-op if unset or empty).
/// A malformed env spec is reported, not ignored.
pub fn configure_from_env() -> Result<()> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => configure(&spec),
        _ => {
            // Only settle the fast path; don't clobber an explicit configure.
            let _ = STATE.compare_exchange(UNINIT, DISABLED, Ordering::AcqRel, Ordering::Acquire);
            Ok(())
        }
    }
}

/// Load a schedule from an options bag's `pressio:faults` key, if present.
/// Returns whether a schedule was found.
pub fn configure_from_options(options: &pressio_core::Options) -> Result<bool> {
    match options.get_str_opt(OPTION_KEY)? {
        Some(spec) => {
            configure(spec)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Deactivate every failpoint and drop the schedule.
pub fn clear() {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *registry = Some(Registry::default());
    STATE.store(DISABLED, Ordering::Release);
}

/// Whether any schedule is active (false ⇒ every [`check`] is one atomic
/// load returning `None`).
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) == ENABLED
}

#[cold]
fn init_from_env_once() {
    // Racing initializers both read the same env var; last store wins with
    // identical content, so the race is benign.
    if STATE.load(Ordering::Acquire) == UNINIT {
        let _ = configure_from_env();
    }
}

#[cold]
fn check_slow(site: &str) -> Option<FaultAction> {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let config = registry.as_mut()?.sites.get_mut(site)?;
    let index = config.hits;
    config.hits += 1;
    if index < config.after {
        return None;
    }
    if (index - config.after) % config.every != 0 {
        return None;
    }
    if let Some(times) = config.times {
        if config.fires >= times {
            return None;
        }
    }
    if let Some(p) = config.p {
        let u = splitmix64(config.seed ^ hash64(site.as_bytes()) ^ index);
        if (u >> 11) as f64 / (1u64 << 53) as f64 >= p {
            return None;
        }
    }
    config.fires += 1;
    let action = config.action;
    drop(registry);
    pressio_obs::add_counter(&format!("faults:{site}"), 1);
    Some(action)
}

/// Ask whether the failpoint `site` fires at this hit. The disabled path
/// is a single relaxed atomic load.
#[inline]
pub fn check(site: &str) -> Option<FaultAction> {
    match STATE.load(Ordering::Relaxed) {
        DISABLED => None,
        UNINIT => {
            init_from_env_once();
            if STATE.load(Ordering::Relaxed) == ENABLED {
                check_slow(site)
            } else {
                None
            }
        }
        _ => check_slow(site),
    }
}

/// The error every `err`-action failpoint produces, so tests and retry
/// classifiers can recognize injected failures.
pub fn injected_error(site: &str) -> Error {
    Error::Io(format!("injected fault at {site}"))
}

/// Convenience for plain fallible sites: `err` returns the injected
/// error, `panic` panics, `delay`/`stall` sleep then succeed. Any other
/// configured action also maps to the injected error — a site that wants
/// torn/corrupt/drop/crash semantics must use [`check`] directly.
#[inline]
pub fn inject(site: &str) -> Result<()> {
    match check(site) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("injected panic at {site}"),
        Some(FaultAction::Delay(ms)) | Some(FaultAction::Stall(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(_) => Err(injected_error(site)),
    }
}

/// How many times `site` has fired under the current schedule.
pub fn fired(site: &str) -> u64 {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    registry
        .as_ref()
        .and_then(|r| r.sites.get(site))
        .map_or(0, |c| c.fires)
}

/// Total fires across all sites under the current schedule.
pub fn fired_total() -> u64 {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    registry
        .as_ref()
        .map_or(0, |r| r.sites.values().map(|c| c.fires).sum())
}

/// One `(site, action-name, fires)` row per configured site, sorted by
/// site — for logging what a chaos run actually injected.
pub fn report() -> Vec<(String, &'static str, u64)> {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<_> = registry
        .as_ref()
        .map(|r| {
            r.sites
                .iter()
                .map(|(site, c)| (site.clone(), c.action.name(), c.fires))
                .collect()
        })
        .unwrap_or_default();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests that configure it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_never_fires() {
        let _g = lock();
        clear();
        assert!(!enabled());
        for _ in 0..100 {
            assert_eq!(check("store:put.io"), None);
            assert!(inject("store:put.io").is_ok());
        }
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn times_and_after_shape_the_schedule() {
        let _g = lock();
        configure("s=err,after=2,times=3").unwrap();
        let fires: Vec<bool> = (0..8).map(|_| check("s").is_some()).collect();
        assert_eq!(
            fires,
            vec![false, false, true, true, true, false, false, false]
        );
        assert_eq!(fired("s"), 3);
        clear();
    }

    #[test]
    fn every_fires_periodically() {
        let _g = lock();
        configure("s=err,every=3").unwrap();
        let fires: Vec<bool> = (0..7).map(|_| check("s").is_some()).collect();
        assert_eq!(fires, vec![true, false, false, true, false, false, true]);
        clear();
    }

    #[test]
    fn probabilistic_fires_are_deterministic_and_seed_sensitive() {
        let _g = lock();
        let run = |spec: &str| -> Vec<bool> {
            configure(spec).unwrap();
            (0..64).map(|_| check("s").is_some()).collect()
        };
        let a = run("s=err,p=0.5,seed=1");
        let b = run("s=err,p=0.5,seed=1");
        let c = run("s=err,p=0.5,seed=2");
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seed must differ");
        let hits = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64: {hits}");
        let none = run("s=err,p=0.0");
        assert!(none.iter().all(|&f| !f));
        let all = run("s=err,p=1.0");
        assert!(all.iter().all(|&f| f));
        clear();
    }

    #[test]
    fn actions_parse_and_inject_behaves() {
        let _g = lock();
        configure("a=delay,ms=1;b=err;c=torn;d=stall,ms=2").unwrap();
        assert_eq!(check("a"), Some(FaultAction::Delay(1)));
        assert!(matches!(inject("b"), Err(Error::Io(m)) if m.contains("injected fault at b")));
        assert_eq!(check("c"), Some(FaultAction::Torn));
        // site-specific action through inject degrades to the error
        assert!(inject("c").is_err());
        assert_eq!(check("d"), Some(FaultAction::Stall(2)));
        assert!(inject("a").is_ok(), "delay proceeds normally");
        clear();
    }

    #[test]
    #[should_panic(expected = "injected panic at boom")]
    fn panic_action_panics() {
        // under the lock like every test that configures the registry: a
        // concurrent `clear()` would otherwise unschedule the panic.
        // `lock()` tolerates the poison this leaves behind.
        let _g = lock();
        configure("boom=panic").unwrap();
        let _ = inject("boom");
    }

    #[test]
    fn invalid_specs_are_rejected_and_preserve_previous_schedule() {
        let _g = lock();
        configure("keep=err,times=1").unwrap();
        for bad in [
            "nosuch",
            "s=frobnicate",
            "s=err,p=2.0",
            "s=err,times=x",
            "s=err,bogus=1",
            "=err",
        ] {
            assert!(configure(bad).is_err(), "{bad} should not parse");
        }
        assert!(check("keep").is_some(), "failed configure must not clobber");
        clear();
    }

    #[test]
    fn unknown_sites_do_not_fire_and_report_lists_activity() {
        let _g = lock();
        configure("x=err,times=1;y=corrupt").unwrap();
        assert_eq!(check("z"), None);
        let _ = check("x");
        let _ = check("y");
        assert_eq!(
            report(),
            vec![("x".to_string(), "err", 1), ("y".to_string(), "corrupt", 1)]
        );
        assert_eq!(fired_total(), 2);
        clear();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        assert_eq!(backoff_ms(0, 1000, 5, "t"), 0, "disabled");
        assert_eq!(backoff_ms(10, 1000, 1, "t"), 0, "first attempt is free");
        let a2 = backoff_ms(10, 1000, 2, "t");
        let a5 = backoff_ms(10, 1000, 5, "t");
        assert!((5..=10).contains(&a2), "{a2}");
        assert!((40..=80).contains(&a5), "{a5}");
        assert_eq!(a2, backoff_ms(10, 1000, 2, "t"), "deterministic");
        // different keys get different jitter; the [40,80] window at
        // attempt 5 is wide enough that 8 keys can't all collide
        let by_key: std::collections::HashSet<u64> = (0..8)
            .map(|i| backoff_ms(10, 1000, 5, &format!("key-{i}")))
            .collect();
        assert!(by_key.len() > 1, "jitter ignores the key: {by_key:?}");
        assert!(backoff_ms(10, 50, 9, "t") <= 50, "cap respected");
    }

    #[test]
    fn empty_spec_disables() {
        let _g = lock();
        configure("s=err").unwrap();
        assert!(enabled());
        configure("  ;  ").unwrap();
        assert!(!enabled());
        assert_eq!(check("s"), None);
        clear();
    }

    #[test]
    fn options_key_activates() {
        let _g = lock();
        let opts = pressio_core::Options::new().with(OPTION_KEY, "o=err,times=1");
        assert!(configure_from_options(&opts).unwrap());
        assert_eq!(check("o"), Some(FaultAction::Error));
        assert!(!configure_from_options(&pressio_core::Options::new()).unwrap());
        clear();
    }
}
