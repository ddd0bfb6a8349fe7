//! Execution statistics and the engine's telemetry handle.
//!
//! The paper's Figure 6 / Table 7 report the *number of edge computations*
//! performed by GraphBolt relative to the GB-Reset baseline — the
//! machine-independent measure of incremental savings. Every evaluation of
//! a contribution, delta, or retraction counts as one edge computation.
//!
//! [`EngineStats`] is also the one owner of everything an engine reports:
//! its metrics registry, whose `graphbolt_{edge,vertex}_computations_total`
//! and `graphbolt_iterations_total` counters *are* the work counters above
//! (no second copy exists), its span recorder, and, under the
//! `fault-injection` feature, its fault plan. It is a cheaply clonable
//! shared handle: the engine, its session's producer side, the front door
//! and the metrics endpoint hold clones of one handle, while two engines
//! never share a cell.

use std::sync::Arc;
use std::time::Duration;

use crate::telemetry::span::{SpanRecorder, Spans};
use crate::telemetry::MetricsRegistry;

/// Shared handle to one engine's counters, span recorder and (under
/// `fault-injection`) fault plan; clones observe the same cells.
///
/// Each registry counter sits on its own cache line: workers bumping
/// `edge_computations` would otherwise invalidate the line under
/// `iterations`/`vertex_computations` readers (false sharing), turning
/// independent counters into a single contention point.
#[derive(Debug, Clone)]
pub struct EngineStats(Arc<Owned>);

#[derive(Debug)]
struct Owned {
    metrics: MetricsRegistry,
    spans: SpanRecorder,
    #[cfg(feature = "fault-injection")]
    faults: crate::fault::FaultPlan,
}

impl Default for EngineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineStats {
    /// Creates zeroed counters, an idle span recorder and (under
    /// `fault-injection`) an empty fault plan. Allocates the registry
    /// only: no file, no thread, no ring.
    pub fn new() -> Self {
        Self(Arc::new(Owned {
            metrics: MetricsRegistry::new(),
            spans: SpanRecorder::new(),
            #[cfg(feature = "fault-injection")]
            faults: crate::fault::FaultPlan::default(),
        }))
    }

    /// Adds `n` edge computations.
    #[inline]
    pub fn add_edge_computations(&self, n: u64) {
        self.0.metrics.edge_computations.add(n);
    }

    /// Adds `n` vertex computations.
    #[inline]
    pub fn add_vertex_computations(&self, n: u64) {
        self.0.metrics.vertex_computations.add(n);
    }

    /// Marks one completed iteration.
    #[inline]
    pub fn add_iteration(&self) {
        self.0.metrics.iterations.inc();
    }

    /// Total edge computations so far.
    pub fn edge_computations(&self) -> u64 {
        self.0.metrics.edge_computations.get()
    }

    /// Total vertex computations so far.
    pub fn vertex_computations(&self) -> u64 {
        self.0.metrics.vertex_computations.get()
    }

    /// Total iterations so far.
    pub fn iterations(&self) -> u64 {
        self.0.metrics.iterations.get()
    }

    /// Snapshot of the counters as plain integers; the difference of two
    /// snapshots is the work done in between.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            edge_computations: self.edge_computations(),
            vertex_computations: self.vertex_computations(),
            iterations: self.iterations(),
        }
    }

    /// This engine's metrics registry (`/metrics`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.0.metrics
    }

    /// This engine's span recorder (`/debug/flight`, `/debug/critical`).
    pub fn spans(&self) -> Spans<'_> {
        Spans::new(&self.0.spans, &self.0.metrics)
    }

    /// This engine's fault plan: sites armed here fire for this engine,
    /// its session and its front door only.
    #[cfg(feature = "fault-injection")]
    pub fn faults(&self) -> &crate::fault::FaultPlan {
        &self.0.faults
    }

    /// Publishes the degrade level and the dependency-store footprint
    /// gauges.
    pub(crate) fn publish_store_gauges(&self, degrade: u8, bytes: usize, entries: usize) {
        let m = &self.0.metrics;
        m.degrade_level.set(u64::from(degrade));
        m.store_bytes.set(bytes as u64);
        m.stored_aggregations.set(entries as u64);
    }
}

/// Plain-value snapshot of [`EngineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Contribution / delta / retraction evaluations.
    pub edge_computations: u64,
    /// `∮` evaluations.
    pub vertex_computations: u64,
    /// Iterations executed.
    pub iterations: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: Self) -> Self {
        Self {
            edge_computations: self.edge_computations - rhs.edge_computations,
            vertex_computations: self.vertex_computations - rhs.vertex_computations,
            iterations: self.iterations - rhs.iterations,
        }
    }
}

/// Outcome of one refinement pass ([`StreamingEngine::apply_batch`](crate::StreamingEngine::apply_batch)).
#[derive(Debug, Clone, Default)]
pub struct RefineReport {
    /// Wall-clock duration of graph mutation + refinement.
    pub duration: Duration,
    /// Of which, time spent adjusting the graph structure.
    pub structure_duration: Duration,
    /// Vertices whose aggregation was refined in any tracked iteration.
    pub refined_vertices: usize,
    /// Vertices whose *final* value changed.
    pub changed_final_values: usize,
    /// Edge computations spent by this refinement (incl. hybrid phase).
    pub edge_computations: u64,
    /// Tracked iterations refined via dependency-driven refinement.
    pub refined_iterations: usize,
    /// Iterations executed by hybrid (frontier recompute) execution.
    pub hybrid_iterations: usize,
    /// Whether this batch was served by the degraded per-batch full
    /// recompute path (dependency store dropped under memory pressure)
    /// rather than dependency-driven refinement.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = EngineStats::new();
        s.add_edge_computations(5);
        s.add_edge_computations(7);
        s.add_vertex_computations(2);
        s.add_iteration();
        assert_eq!(s.edge_computations(), 12);
        assert_eq!(s.vertex_computations(), 2);
        assert_eq!(s.iterations(), 1);
    }

    #[test]
    fn work_counters_are_the_exported_metrics() {
        let s = EngineStats::new();
        s.add_edge_computations(5);
        s.add_iteration();
        let clone = s.clone();
        clone.add_vertex_computations(3);
        let m = s.metrics();
        assert_eq!(m.edge_computations.get(), 5);
        assert_eq!(m.vertex_computations.get(), 3, "clones share cells");
        assert_eq!(m.iterations.get(), 1);
        assert_eq!(EngineStats::new().edge_computations(), 0, "engines do not");
    }

    #[test]
    fn snapshot_subtraction_gives_deltas() {
        let s = EngineStats::new();
        s.add_edge_computations(10);
        let before = s.snapshot();
        s.add_edge_computations(3);
        s.add_iteration();
        let delta = s.snapshot() - before;
        assert_eq!(delta.edge_computations, 3);
        assert_eq!(delta.iterations, 1);
    }
}
