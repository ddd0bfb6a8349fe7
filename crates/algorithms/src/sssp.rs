//! Single-Source Shortest Paths (SSSP) — the paper's non-decomposable
//! `min` aggregation (§5.4), used for the KickStarter comparison.

use graphbolt_core::{Algorithm, Selective};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// Bellman–Ford-shaped SSSP in the GraphBolt model.
///
/// * aggregation: `g_i(v) = min_{(u,v)} ( c_{i-1}(u) + w )` — `min` is
///   **non-decomposable** (§3.3): a deleted or increased contribution
///   cannot be removed from a scalar minimum, so the engine re-evaluates
///   impacted aggregations by pulling the full in-neighborhood from the
///   CSC index (the re-evaluation strategy the paper describes for
///   min/max),
/// * `∮`: `c_i(v) = min(g_i(v), source-clamp)` — the source is pinned to
///   distance 0.
///
/// Distances converge to true shortest paths once the iteration count
/// reaches the graph's (weighted-path hop) eccentricity.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source vertex.
    pub source: VertexId,
    /// When set, every edge counts hop 1 regardless of weight (BFS).
    pub unweighted: bool,
}

impl ShortestPaths {
    /// Weighted SSSP from `source`.
    pub fn new(source: VertexId) -> Self {
        Self {
            source,
            unweighted: false,
        }
    }

    /// Unweighted BFS hop counts from `source`.
    pub fn bfs(source: VertexId) -> Self {
        Self {
            source,
            unweighted: true,
        }
    }
}

impl Algorithm for ShortestPaths {
    type Value = f64;
    type Agg = f64;
    type Kind = Selective;

    fn initial_value(&self, v: VertexId) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn identity(&self) -> f64 {
        f64::INFINITY
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        cu: &f64,
    ) -> f64 {
        let step = if self.unweighted { 1.0 } else { w };
        cu + step
    }

    fn combine(&self, agg: &mut f64, contrib: &f64) {
        if *contrib < *agg {
            *agg = *contrib;
        }
    }

    fn compute(&self, v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
        if v == self.source {
            0.0
        } else {
            *agg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
    use graphbolt_core::{EngineOptions as Opts, StreamingEngine};
    use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};

    fn weighted_graph() -> graphbolt_graph::GraphSnapshot {
        GraphBuilder::new(5)
            .add_edge(0, 1, 2.0)
            .add_edge(0, 2, 5.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 2.0)
            .add_edge(1, 3, 7.0)
            .add_edge(3, 4, 1.0)
            .build()
    }

    #[test]
    fn computes_weighted_shortest_paths() {
        let out = run_bsp(
            &ShortestPaths::new(0),
            &weighted_graph(),
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals, vec![0.0, 2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn bfs_counts_hops() {
        let out = run_bsp(
            &ShortestPaths::bfs(0),
            &weighted_graph(),
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals, vec![0.0, 1.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).build();
        let out = run_bsp(
            &ShortestPaths::new(0),
            &g,
            &EngineOptions::with_iterations(5),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert!(out.vals[2].is_infinite());
    }

    #[test]
    fn edge_deletion_lengthens_paths_via_reevaluation() {
        let mut engine = StreamingEngine::new(
            weighted_graph(),
            ShortestPaths::new(0),
            Opts::with_iterations(10),
        );
        engine.run_initial();
        assert_eq!(engine.values()[3], 5.0);
        // Deleting the cheap 2→3 edge forces the 1→3 (weight 7) detour.
        let mut batch = MutationBatch::new();
        batch.delete(Edge::new(2, 3, 2.0));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.values()[3], 9.0);
        assert_eq!(engine.values()[4], 10.0);
    }

    #[test]
    fn edge_addition_shortens_paths() {
        let mut engine = StreamingEngine::new(
            weighted_graph(),
            ShortestPaths::new(0),
            Opts::with_iterations(10),
        );
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 4, 1.5));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.values()[4], 1.5);
    }
}
