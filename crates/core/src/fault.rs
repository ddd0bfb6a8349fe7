//! Feature-gated fault-injection hooks for robustness testing.
//!
//! Production code calls the `fire_*` probes at well-known sites; with the
//! `fault-injection` feature disabled they compile to no-ops. With the
//! feature enabled, tests arm a site with `FaultPlan::arm` and the next `times`
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
//! Each engine owns its plan (`EngineStats::faults`): a site armed on
//! one engine fires for that engine, its session and its front door
//! only, so tests arming faults run concurrently without serialising.

use crate::stats::EngineStats;

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

/// One engine's armed sites: each maps to an action and the number of
/// probe hits it still applies to.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Default)]
pub struct FaultPlan(
    std::sync::Mutex<std::collections::HashMap<&'static str, (FaultAction, usize)>>,
);

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// Arms `site` so its next `times` probe hits perform `action`.
    pub fn arm(&self, site: &'static str, action: FaultAction, times: usize) {
        let mut plans = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        plans.insert(site, (action, times));
    }

    /// Consumes one hit of the plan armed at `site`, if any.
    fn take(&self, site: &str) -> Option<FaultAction> {
        let mut plans = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (action, remaining) = plans.get_mut(site)?;
        *remaining = remaining.checked_sub(1)?;
        Some(*action)
    }
}

/// Probe: panics if `site` is armed with [`FaultAction::Panic`].
#[inline]
pub(crate) fn fire_panic(stats: &EngineStats, site: &str) {
    #[cfg(feature = "fault-injection")]
    // The panic IS the product here: a deliberately injected fault
    // proving the session quarantine survives engine panics.
    // lint:allow(hot-path-blocking) — gated behind `fault-injection`:
    // the plan's lock is compiled out of production builds.
    if stats.faults().take(site) == Some(FaultAction::Panic) {
        panic!("injected fault at {site}");
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = (stats, site);
}

/// Probe: returns `true` if `site` is armed with [`FaultAction::Error`] —
/// the caller surfaces its injected-error variant.
#[inline]
pub(crate) fn fire_error(stats: &EngineStats, site: &str) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        // lint:allow(hot-path-blocking) — gated behind `fault-injection`;
        // without the feature this fn is a constant `false`.
        stats.faults().take(site) == Some(FaultAction::Error)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (stats, site);
        false
    }
}

/// Probe: returns the number of bytes to keep if `site` is armed with
/// [`FaultAction::Truncate`] — the caller cuts the payload short,
/// simulating a crash mid-write.
#[inline]
pub(crate) fn fire_truncation(stats: &EngineStats, site: &str) -> Option<usize> {
    #[cfg(feature = "fault-injection")]
    if let Some(FaultAction::Truncate(keep)) = stats.faults().take(site) {
        return Some(keep);
    }
    let _ = (stats, site);
    None
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn armed_sites_fire_the_requested_number_of_times() {
        let stats = EngineStats::new();
        stats.faults().arm("unit::counted", FaultAction::Error, 2);
        assert!(
            !fire_error(&EngineStats::new(), "unit::counted"),
            "other plans are silent"
        );
        assert!(fire_error(&stats, "unit::counted"));
        assert!(fire_error(&stats, "unit::counted"));
        assert!(!fire_error(&stats, "unit::counted"), "plan exhausted");
        assert!(
            !fire_error(&stats, "unit::unarmed"),
            "unarmed site is silent"
        );
    }

    #[test]
    fn truncation_plans_report_the_keep_length() {
        let stats = EngineStats::new();
        stats
            .faults()
            .arm("unit::trunc", FaultAction::Truncate(7), 1);
        assert_eq!(fire_truncation(&stats, "unit::trunc"), Some(7));
        assert_eq!(fire_truncation(&stats, "unit::trunc"), None);
    }
}
