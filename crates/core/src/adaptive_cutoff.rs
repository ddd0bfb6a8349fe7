//! Peak-then-quiet horizontal cut-off (`c_k`) selection.
//!
//! The paper's §4.2 horizontal pruning fixes the cut-off `k` up front:
//! aggregations are tracked for iterations `1..=k` and refinement
//! switches to hybrid execution past it. Because refinement results are
//! exactly equal to a from-scratch run *regardless* of where the cut-off
//! sits, the choice is a pure performance knob.
//!
//! When [`EngineOptions::horizontal_cutoff`](crate::EngineOptions) is
//! unset, the tracking run stops recording once the per-iteration
//! changed-vertex count has *peaked and quieted down*: after at least
//! one iteration exceeded [`changed_threshold`], [`PATIENCE`]
//! consecutive iterations at or below it cap the store. The rationale:
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
//! The threshold is a fixed fraction of `|V|`, so where tracking stops
//! is a pure function of (graph, algorithm, options). An explicit
//! `.cutoff(k)` — `.cutoff(max_iterations)` to track everything —
//! disables the cap.

/// Quiet threshold: an iteration changing at most `|V| / 256` vertices
/// is "quiet".
const BASE_FRACTION: f64 = 1.0 / 256.0;

/// Consecutive quiet iterations (after a peak) before tracking stops.
pub const PATIENCE: usize = 2;

/// Changed-count threshold below which an iteration counts as quiet for
/// an `n`-vertex graph. Floors to zero on tiny graphs, where the cap can
/// only fire on fully-converged iterations.
pub fn changed_threshold(n: usize) -> usize {
    (n as f64 * BASE_FRACTION) as usize
}

/// Peak-then-quiet streak detector driven by the tracking loop; one per
/// `run_tracking` call.
#[derive(Debug)]
pub struct CapTracker {
    /// `None` disables the tracker (explicit cut-off).
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
        assert_eq!(changed_threshold(1 << 20), (1 << 20) / 256);
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
