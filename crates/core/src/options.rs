//! Engine configuration.

/// How a from-scratch BSP execution processes each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Recompute every vertex's aggregation from all in-edges, every
    /// iteration — the plain Ligra baseline of the evaluation ("restarts
    /// computation upon graph mutations", §5.1).
    Full,
    /// Frontier-driven selective scheduling: only propagate (deltas of)
    /// values that changed — the "GB-Reset" baseline, equivalent to
    /// PageRankDelta in Ligra.
    Incremental,
}

/// Configuration of [`StreamingEngine`](crate::StreamingEngine) and the
/// from-scratch runners.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Number of BSP iterations `L` per epoch. The paper's evaluation runs
    /// a fixed 10 iterations for all algorithms except Triangle Counting.
    pub max_iterations: usize,
    /// Horizontal-pruning cut-off `k`: aggregations are tracked for
    /// iterations `1..=k`; past it, refinement switches to hybrid
    /// execution. `None` tracks up to `max_iterations`, with the
    /// tracking run free to stop earlier once the changed count has
    /// peaked and gone quiet (see
    /// [`adaptive_cutoff`](crate::adaptive_cutoff)); results are
    /// unaffected — the cut-off is a pure performance knob.
    /// `Some(max_iterations)` tracks everything.
    pub horizontal_cutoff: Option<usize>,
    /// Vertical pruning: stop a vertex's history once its aggregation
    /// stabilizes (default on).
    pub vertical_pruning: bool,
    /// Route the incremental BSP step's delta-push vs pull-recompute
    /// choice through a per-run measured cost model
    /// ([`graphbolt_engine::adaptive`]) instead of always pushing deltas
    /// for decomposable aggregations. Results are unaffected — both
    /// directions compute the same aggregations; only the traversal
    /// order (and float rounding) differs. Default on.
    pub adaptive_direction: bool,
    /// Use the fused change-in-contribution ([`Decomposable::delta`](crate::Decomposable::delta)) when available. Disabling forces the
    /// explicit retract+propagate pair — the "GraphBolt-RP" configuration
    /// of Figure 8.
    pub fused_delta: bool,
    /// Stop early when an iteration changes no vertex value.
    pub convergence_exit: bool,
    /// Upper bound, in bytes, on the dependency store's memory footprint
    /// (as measured by
    /// [`StreamingEngine::dependency_memory_bytes`](crate::StreamingEngine::dependency_memory_bytes)).
    /// When exceeded, the engine degrades progressively — tighter pruning,
    /// then dropping the store entirely in favour of per-batch recompute —
    /// while every result stays equal to a from-scratch run (the BSP
    /// guarantee is degradation-invariant). `None` disables the watchdog.
    pub memory_budget: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            max_iterations: 10,
            horizontal_cutoff: None,
            vertical_pruning: true,
            adaptive_direction: true,
            fused_delta: true,
            convergence_exit: false,
            memory_budget: None,
        }
    }
}

impl EngineOptions {
    /// Options running `l` iterations with full tracking.
    pub fn with_iterations(l: usize) -> Self {
        Self {
            max_iterations: l,
            ..Self::default()
        }
    }

    /// Sets the horizontal-pruning cut-off.
    pub fn cutoff(mut self, k: usize) -> Self {
        self.horizontal_cutoff = Some(k);
        self
    }

    /// Enables or disables vertical pruning.
    pub fn vertical(mut self, on: bool) -> Self {
        self.vertical_pruning = on;
        self
    }

    /// Enables or disables adaptive direction selection for the
    /// incremental BSP step (delta-push vs pull-recompute).
    pub fn adaptive_direction(mut self, on: bool) -> Self {
        self.adaptive_direction = on;
        self
    }

    /// Enables or disables fused deltas (GraphBolt vs GraphBolt-RP).
    pub fn fused(mut self, on: bool) -> Self {
        self.fused_delta = on;
        self
    }

    /// Sets the dependency-store memory budget in bytes.
    pub fn budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Effective tracked-iteration bound `min(L, k)`.
    pub fn effective_cutoff(&self) -> usize {
        self.horizontal_cutoff
            .map_or(self.max_iterations, |k| k.min(self.max_iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tracks_all_iterations() {
        let o = EngineOptions::with_iterations(7);
        assert_eq!(o.effective_cutoff(), 7);
    }

    #[test]
    fn cutoff_clamps_to_max_iterations() {
        let o = EngineOptions::with_iterations(5).cutoff(9);
        assert_eq!(o.effective_cutoff(), 5);
        let o = EngineOptions::with_iterations(10).cutoff(4);
        assert_eq!(o.effective_cutoff(), 4);
    }

    #[test]
    fn builders_flip_flags() {
        let o = EngineOptions::default().vertical(false).fused(false);
        assert!(!o.vertical_pruning);
        assert!(!o.fused_delta);
    }

    #[test]
    fn adaptive_direction_defaults_on_and_is_settable() {
        assert!(EngineOptions::default().adaptive_direction);
        let o = EngineOptions::default().adaptive_direction(false);
        assert!(!o.adaptive_direction);
    }

    #[test]
    fn budget_defaults_off_and_is_settable() {
        assert_eq!(EngineOptions::default().memory_budget, None);
        let o = EngineOptions::default().budget(1 << 20);
        assert_eq!(o.memory_budget, Some(1 << 20));
    }
}
