//! Deterministic kill-anywhere crash hook for durability testing.
//!
//! Crash-consistency claims ("a `kill -9` at any point leaves the cache
//! loadable") are only testable if the process can be made to die at
//! *chosen, repeatable* points. This module provides that: named crash
//! sites are compiled into the snapshot write path (see
//! [`crate::snapshot::write_bytes_atomic`]), and a plan — `<site>@<n>`,
//! parsed from the `MIDAS_CRASHPOINT` environment variable — aborts the
//! process on the `n`-th time the named site is reached. `abort` (not
//! `panic!`) so no destructor, buffer flush, or cleanup handler softens the
//! crash: the test observes exactly what a power cut at that instant would
//! leave on disk.
//!
//! Modeled on the fault-injection harness (`midas-core::faultinject`): a
//! relaxed-atomic fast path keeps the hooks free when disarmed (the only
//! production state), and plans install either programmatically
//! ([`install`]) or from the environment (read once, on first hit). Sites
//! are named `<prefix>.<stage>` — e.g. `snap.tmp.partial` is "the corpus
//! snapshot's temp file is half-written" — so one plan string pins one
//! instant in one write path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

/// One armed crash site: abort on the `remaining`-th future hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Full site name, `<prefix>.<stage>`.
    pub site: String,
    /// Hits left before the abort fires (counts down).
    pub remaining: u64,
}

impl CrashPlan {
    /// Parses a `<site>@<n>` spec (e.g. `snap.renamed@2`). `n` must be a
    /// positive hit count; the abort fires on the `n`-th hit of `site`.
    pub fn parse(spec: &str) -> Result<CrashPlan, String> {
        let (site, n) = spec
            .rsplit_once('@')
            .ok_or_else(|| format!("crashpoint spec '{spec}' missing '@' (site@n)"))?;
        let remaining: u64 = n
            .trim()
            .parse()
            .map_err(|_| format!("invalid hit count '{n}' in crashpoint spec '{spec}'"))?;
        if site.trim().is_empty() || remaining == 0 {
            return Err(format!(
                "crashpoint spec '{spec}' needs a non-empty site and n >= 1"
            ));
        }
        Ok(CrashPlan {
            site: site.trim().to_string(),
            remaining,
        })
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<CrashPlan>> = Mutex::new(None);
static ENV_ONCE: Once = Once::new();

/// Installs `plan` process-wide, replacing any previous plan.
pub fn install(plan: CrashPlan) {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ARMED.store(true, Ordering::Release);
}

/// Removes the installed plan; every hook returns to its no-op fast path.
pub fn clear() {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
    ARMED.store(false, Ordering::Release);
}

/// Whether a plan is currently installed.
pub fn armed() -> bool {
    ensure_env_loaded();
    ARMED.load(Ordering::Acquire)
}

/// Loads the plan from `MIDAS_CRASHPOINT` exactly once per process. A
/// malformed spec is reported and ignored — a test that relies on it will
/// then fail loudly because the expected abort never happens.
fn ensure_env_loaded() {
    ENV_ONCE.call_once(|| {
        if let Ok(spec) = std::env::var("MIDAS_CRASHPOINT") {
            match CrashPlan::parse(&spec) {
                Ok(plan) => install(plan),
                Err(e) => eprintln!("warning: MIDAS_CRASHPOINT ignored: {e}"),
            }
        }
    });
}

/// Crash hook: aborts the process if the installed plan targets
/// `<prefix>.<stage>` and this is its `n`-th hit. Disarmed cost is one
/// atomic load; nothing is even formatted.
pub fn hit(prefix: &str, stage: &str) {
    if !armed() {
        return;
    }
    let mut guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let Some(plan) = guard.as_mut() else { return };
    let matches = plan
        .site
        .strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix('.'))
        .is_some_and(|rest| rest == stage);
    if !matches {
        return;
    }
    plan.remaining -= 1;
    if plan.remaining == 0 {
        // Flush the reason to stderr (unbuffered) and die hard: abort skips
        // atexit handlers, Drop impls, and stdio flushing on purpose.
        eprintln!("crashpoint: aborting at {prefix}.{stage}");
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests mutate process-global state; they must not run while any
    // other test arms a plan. The only other user is the forked-CLI crash
    // harness, which arms plans in child processes only. The test harness
    // runs tests on parallel threads, so the ones that install a plan hold
    // this lock for their whole body.
    static PLAN_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        assert_eq!(
            CrashPlan::parse("snap.tmp.partial@3").unwrap(),
            CrashPlan {
                site: "snap.tmp.partial".into(),
                remaining: 3
            }
        );
        assert!(CrashPlan::parse("no-at-sign").is_err());
        assert!(CrashPlan::parse("site@zero").is_err());
        assert!(CrashPlan::parse("site@0").is_err());
        assert!(CrashPlan::parse("@1").is_err());
    }

    #[test]
    fn non_matching_hits_never_consume_the_plan() {
        let _serial = PLAN_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        install(CrashPlan {
            site: "snap.renamed".into(),
            remaining: 1,
        });
        // Prefix/stage must match exactly at the '.' boundary.
        hit("snap", "tmp.partial");
        hit("snapshot", "renamed");
        hit("snap.renamed", "extra");
        let remaining = PLAN
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|p| p.remaining);
        assert_eq!(remaining, Some(1), "only snap.renamed may count down");
        clear();
        assert!(!ARMED.load(Ordering::Acquire));
        hit("snap", "renamed"); // disarmed: no-op, certainly no abort
    }

    #[test]
    fn countdown_decrements_without_firing_early() {
        let _serial = PLAN_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        install(CrashPlan {
            site: "unit.stage".into(),
            remaining: 3,
        });
        hit("unit", "stage");
        hit("unit", "stage");
        // Two of three hits consumed; the third would abort, so stop here.
        let remaining = PLAN
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|p| p.remaining);
        assert_eq!(remaining, Some(1));
        clear();
    }
}
