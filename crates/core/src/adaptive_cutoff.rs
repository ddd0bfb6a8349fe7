//! Adaptive horizontal cut-off (`c_k`) selection.
//!
//! The paper's §4.2 horizontal pruning fixes the cut-off `k` up front:
//! aggregations are tracked for iterations `1..=k` and refinement
//! switches to hybrid execution past it. Because refinement results are
//! exactly equal to a from-scratch run *regardless* of where the cut-off
//! sits, the choice is a pure performance knob — which makes it a
//! candidate for the same online-cost-model treatment as the sparse /
//! dense direction decision ([`graphbolt_engine::adaptive`]).
//!
//! When [`EngineOptions::horizontal_cutoff`](crate::EngineOptions) is
//! unset and `adaptive_cutoff` is on (the default), the tracking run
//! stops recording once the per-iteration changed-vertex count has
//! *peaked and quieted down*: after at least one iteration exceeded the
//! changed threshold, [`PATIENCE`] consecutive iterations at or below it
//! cap the store. The rationale:
//!
//! * Early iterations with large changed sets are where the store's
//!   memory and the refinement loop's per-iteration cost concentrate —
//!   and where refinement saves the most over recompute.
//! * A long quiet tail contributes little history worth refining
//!   against; hybrid frontier execution covers it at almost the same
//!   cost, without the tag/propagate/apply bookkeeping.
//! * Requiring a peak first protects workloads whose changed counts are
//!   small *throughout* (short frontiers, e.g. path algorithms): their
//!   store is cheap anyway, so capping would only give up refinement
//!   precision for nothing.
//!
//! The threshold itself is a changed *fraction* of `|V|`, scaled by an
//! observed cost ratio: per-iteration refinement phase time (tag +
//! propagate + apply, from the §10 telemetry timings) over per-iteration
//! hybrid time. When refining an iteration costs more than the hybrid
//! path that would replace it, the threshold rises and tracking stops
//! earlier; when refinement is comparatively cheap, tracking runs
//! longer. Estimates are EWMA-smoothed and process-global, mirroring the
//! direction controller.

use std::sync::OnceLock;

use graphbolt_engine::adaptive::CostCell;

/// Baseline quiet threshold: an iteration changing at most `|V| / 256`
/// vertices is "quiet" when refinement and hybrid cost the same.
const BASE_FRACTION: f64 = 1.0 / 256.0;

/// Cost-ratio-scaled threshold clamp, so a wild early estimate can never
/// cap tracking at the first ripple nor keep a dead store growing.
const MIN_FRACTION: f64 = 1.0 / 4096.0;
const MAX_FRACTION: f64 = 1.0 / 16.0;

/// Consecutive quiet iterations (after a peak) before tracking stops.
pub const PATIENCE: usize = 2;

/// EWMA smoothing factor for per-iteration cost observations.
const EWMA_ALPHA: f64 = 0.25;

/// How far the refine/hybrid cost ratio may scale the base fraction.
const MAX_RATIO: f64 = 16.0;

/// Process-global per-iteration cost estimates for the two execution
/// regimes a tracked iteration can fall into.
#[derive(Debug, Default)]
pub struct CutoffCostModel {
    /// Nanoseconds per refined iteration (tag + propagate + apply).
    refine_ns_per_iter: CostCell,
    /// Nanoseconds per hybrid (frontier recompute) iteration.
    hybrid_ns_per_iter: CostCell,
}

impl CutoffCostModel {
    /// Feeds an observed per-iteration refinement cost.
    pub fn observe_refine(&self, ns_per_iter: u64) {
        self.refine_ns_per_iter
            .blend(ns_per_iter.max(1) as f64, EWMA_ALPHA);
    }

    /// Feeds an observed per-iteration hybrid-execution cost.
    pub fn observe_hybrid(&self, ns_per_iter: u64) {
        self.hybrid_ns_per_iter
            .blend(ns_per_iter.max(1) as f64, EWMA_ALPHA);
    }

    /// Refine-over-hybrid cost ratio, clamped to
    /// `[1/MAX_RATIO, MAX_RATIO]`; `1.0` until both are measured.
    pub fn ratio(&self) -> f64 {
        match (self.refine_ns_per_iter.get(), self.hybrid_ns_per_iter.get()) {
            (Some(r), Some(h)) => (r / h).clamp(1.0 / MAX_RATIO, MAX_RATIO),
            _ => 1.0,
        }
    }
}

static COST_MODEL: OnceLock<CutoffCostModel> = OnceLock::new();

/// The process-global cost model fed by `refine` and consulted by the
/// tracking run.
pub fn cost_model() -> &'static CutoffCostModel {
    COST_MODEL.get_or_init(CutoffCostModel::default)
}

/// Changed-count threshold below which an iteration counts as quiet for
/// an `n`-vertex graph, under the current cost ratio. Floors to zero on
/// tiny graphs, where the cap can only fire on fully-converged
/// iterations.
pub fn changed_threshold(n: usize) -> usize {
    let fraction = (BASE_FRACTION * cost_model().ratio()).clamp(MIN_FRACTION, MAX_FRACTION);
    (n as f64 * fraction) as usize
}

/// Peak-then-quiet streak detector driven by the tracking loop; one per
/// `run_tracking` call.
#[derive(Debug)]
pub struct CapTracker {
    /// `None` disables the tracker (explicit cut-off or opt-out).
    threshold: Option<usize>,
    seen_peak: bool,
    quiet_streak: usize,
    capped: bool,
}

impl CapTracker {
    /// A tracker over `threshold` (`None` = never caps).
    pub fn new(threshold: Option<usize>) -> Self {
        Self {
            threshold,
            seen_peak: false,
            quiet_streak: 0,
            capped: false,
        }
    }

    /// Whether tracking has been capped.
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// Feeds one iteration's changed-vertex count; returns the updated
    /// capped state.
    pub fn observe(&mut self, changed: usize) -> bool {
        let Some(threshold) = self.threshold else {
            return false;
        };
        if self.capped {
            return true;
        }
        if changed > threshold {
            self.seen_peak = true;
            self.quiet_streak = 0;
        } else if self.seen_peak {
            self.quiet_streak += 1;
            if self.quiet_streak >= PATIENCE {
                self.capped = true;
            }
        }
        self.capped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_scales_with_graph_size_and_floors_to_zero() {
        assert_eq!(changed_threshold(5), 0);
        let big = changed_threshold(1 << 20);
        assert!(big >= (1 << 20) / 4096);
        assert!(big <= (1 << 20) / 16);
    }

    #[test]
    fn ratio_defaults_to_one_and_clamps() {
        let m = CutoffCostModel::default();
        assert_eq!(m.ratio(), 1.0);
        m.observe_refine(1_000_000_000);
        assert_eq!(m.ratio(), 1.0, "one-sided observations keep ratio 1");
        m.observe_hybrid(1);
        assert_eq!(m.ratio(), MAX_RATIO);
    }

    #[test]
    fn cap_requires_peak_then_patience() {
        let mut t = CapTracker::new(Some(10));
        // Quiet from the start: never caps (no peak seen).
        for _ in 0..20 {
            assert!(!t.observe(3));
        }
        // Peak, one quiet, a relapse resets the streak.
        assert!(!t.observe(100));
        assert!(!t.observe(5));
        assert!(!t.observe(50));
        assert!(!t.observe(4));
        assert!(t.observe(4), "second consecutive quiet iteration caps");
        assert!(t.capped());
        // Disabled tracker never caps.
        let mut off = CapTracker::new(None);
        assert!(!off.observe(0));
        assert!(!off.capped());
    }
}
