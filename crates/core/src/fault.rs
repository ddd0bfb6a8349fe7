//! Feature-gated fault-injection hooks for robustness testing.
//!
//! Production code calls the `fire_*` probes at well-known sites; with the
//! `fault-injection` feature disabled they compile to no-ops. With the
//! feature enabled, tests arm a site with [`arm`] and the next `times`
//! probe hits take the configured [`FaultAction`] — panic, surface an
//! injected error, or truncate a write — exercising exactly the recovery
//! paths (panic isolation, dead-letter quarantine, checkpoint skip) that
//! are unreachable from well-formed inputs.
//!
//! Sites currently probed:
//!
//! | site                 | probe                  | effect when armed |
//! |----------------------|------------------------|-------------------|
//! | `refine::start`      | [`fire_panic`]         | panic mid-refinement |
//! | `session::ingest`    | [`fire_error`]         | submission rejected |
//! | `session::deadline`  | [`fire_error`]         | queued command treated as expired |
//! | `admission::admit`   | [`fire_error`]         | request shed with RetryAfter |
//! | `frontdoor::accept`  | [`fire_error`]         | accepted connection dropped |
//! | `frontdoor::parse`   | [`fire_error`]         | request rejected as malformed (400) |
//! | `checkpoint::write`  | [`fire_truncation`]    | checkpoint file cut short |
//!
//! The registry is process-global (tests touching it must not run the
//! same site concurrently); [`disarm_all`] resets it between tests.

/// What an armed site does when its probe fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognizable message (`injected fault at <site>`).
    Panic,
    /// Make the site report an injected error instead of proceeding.
    Error,
    /// Truncate the payload about to be written to `keep_bytes`.
    Truncate(usize),
}

#[cfg(feature = "fault-injection")]
mod registry {
    use super::FaultAction;
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct Plan {
        action: FaultAction,
        remaining: usize,
    }

    static PLANS: Mutex<Option<HashMap<&'static str, Plan>>> = Mutex::new(None);

    pub fn arm(site: &'static str, action: FaultAction, times: usize) {
        let mut guard = PLANS.lock().expect("fault registry poisoned");
        guard
            .get_or_insert_with(HashMap::new)
            .insert(site, Plan { action, remaining: times });
    }

    pub fn disarm_all() {
        let mut guard = PLANS.lock().expect("fault registry poisoned");
        *guard = None;
    }

    /// Consumes one hit of the plan armed at `site`, if any.
    pub fn take(site: &str) -> Option<FaultAction> {
        let mut guard = PLANS.lock().expect("fault registry poisoned");
        let plans = guard.as_mut()?;
        let plan = plans.get_mut(site)?;
        if plan.remaining == 0 {
            return None;
        }
        plan.remaining -= 1;
        Some(plan.action)
    }
}

/// Arms `site` so its next `times` probe hits perform `action`.
#[cfg(feature = "fault-injection")]
pub fn arm(site: &'static str, action: FaultAction, times: usize) {
    registry::arm(site, action, times);
}

/// Clears every armed site (call between tests).
#[cfg(feature = "fault-injection")]
pub fn disarm_all() {
    registry::disarm_all();
}

/// Probe: panics if `site` is armed with [`FaultAction::Panic`].
#[inline]
pub(crate) fn fire_panic(site: &str) {
    #[cfg(feature = "fault-injection")]
    // The panic IS the product here: a deliberately injected fault
    // proving the session quarantine survives engine panics.
    // lint:allow(hot-path-blocking) — gated behind `fault-injection`:
    // the registry lock is compiled out of production builds.
    if registry::take(site) == Some(FaultAction::Panic) {
        panic!("injected fault at {site}");
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = site;
}

/// Probe: returns `true` if `site` is armed with [`FaultAction::Error`] —
/// the caller surfaces its injected-error variant.
#[inline]
pub(crate) fn fire_error(site: &str) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        // lint:allow(panic-reachability) — test-only probe body: the
        // registry (and its lock-poisoning expects) is compiled out of
        // production builds without the `fault-injection` feature.
        // lint:allow(hot-path-blocking) — same gate; without the
        // feature this fn is a constant `false`.
        registry::take(site) == Some(FaultAction::Error)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        false
    }
}

/// Probe: returns the number of bytes to keep if `site` is armed with
/// [`FaultAction::Truncate`] — the caller cuts the payload short,
/// simulating a crash mid-write.
#[inline]
pub(crate) fn fire_truncation(site: &str) -> Option<usize> {
    #[cfg(feature = "fault-injection")]
    // lint:allow(panic-reachability) — test-only probe body; the
    // registry is compiled out of production builds without the
    // `fault-injection` feature.
    if let Some(FaultAction::Truncate(keep)) = registry::take(site) {
        return Some(keep);
    }
    let _ = site;
    None
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    // These tests use unique site names and avoid disarm_all(): the
    // registry is process-global and the test harness runs in parallel.
    #[test]
    fn armed_sites_fire_the_requested_number_of_times() {
        arm("unit::counted", FaultAction::Error, 2);
        assert!(fire_error("unit::counted"));
        assert!(fire_error("unit::counted"));
        assert!(!fire_error("unit::counted"), "plan exhausted");
        assert!(!fire_error("unit::unarmed"), "unarmed site is silent");
    }

    #[test]
    fn truncation_plans_report_the_keep_length() {
        arm("unit::trunc", FaultAction::Truncate(7), 1);
        assert_eq!(fire_truncation("unit::trunc"), Some(7));
        assert_eq!(fire_truncation("unit::trunc"), None);
    }
}
