//! PageRank (PR) — Table 4: `⊕ = Σ c(u) / out_degree(u)`.

use graphbolt_core::{Algorithm, Decomposable, Refining, Sum};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// Synchronous PageRank with damping, expressed in the GraphBolt
/// incremental model (Algorithm 1 / Algorithm 3 of the paper).
///
/// * aggregation: `g_i(v) = Σ_{(u,v)} c_{i-1}(u) / out_degree(u)`
///   (decomposable sum; `propagateDelta` is the fused difference of
///   Algorithm 3),
/// * `∮`: `c_i(v) = (1 - d) + d · g_i(v)`.
///
/// The contribution divides by the source's out-degree, so PageRank is
/// *source-structure-dependent*: refinement re-derives contributions of
/// every surviving out-edge of a vertex whose degree changed
/// (`oldpr/old_degree` vs `newpr/new_degree` in Algorithm 3).
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Damping factor (paper uses 0.85).
    pub damping: f64,
    /// Selective-scheduling tolerance: value changes below it do not
    /// propagate.
    pub tolerance: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tolerance: 1e-6,
        }
    }
}

impl PageRank {
    /// PageRank with a custom scheduling tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }
}

impl Algorithm for PageRank {
    type Value = f64;
    type Agg = f64;
    type Kind = Sum;

    fn initial_value(&self, _v: VertexId) -> f64 {
        1.0
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn contribution(
        &self,
        g: &GraphSnapshot,
        u: VertexId,
        _v: VertexId,
        _w: Weight,
        cu: &f64,
    ) -> f64 {
        cu / g.out_degree(u).max(1) as f64
    }

    fn combine(&self, agg: &mut f64, contrib: &f64) {
        *agg += contrib;
    }

    fn compute(&self, _v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
        (1.0 - self.damping) + self.damping * agg
    }

    fn changed(&self, old: &f64, new: &f64) -> bool {
        (old - new).abs() > self.tolerance
    }

    fn source_structure_dependent(&self) -> bool {
        true
    }
}

impl Decomposable for PageRank {
    fn retract(&self, _: Refining, agg: &mut f64, contrib: &f64) {
        *agg -= contrib;
    }

    fn delta(
        &self,
        _: Refining,
        g: &GraphSnapshot,
        u: VertexId,
        _v: VertexId,
        _w: Weight,
        old: &f64,
        new: &f64,
    ) -> Option<f64> {
        Some((new - old) / g.out_degree(u).max(1) as f64)
    }

    fn delta_structural(
        &self,
        _: Refining,
        old_g: &GraphSnapshot,
        new_g: &GraphSnapshot,
        u: VertexId,
        _v: VertexId,
        _w: Weight,
        old: &f64,
        new: &f64,
    ) -> Option<f64> {
        // Algorithm 3's propagateDelta: newpr/new_degree − oldpr/old_degree.
        Some(new / new_g.out_degree(u).max(1) as f64 - old / old_g.out_degree(u).max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
    use graphbolt_graph::GraphBuilder;

    fn triangle() -> GraphSnapshot {
        GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 0, 1.0)
            .build()
    }

    #[test]
    fn symmetric_cycle_keeps_uniform_ranks() {
        let g = triangle();
        let out = run_bsp(
            &PageRank::default(),
            &g,
            &EngineOptions::with_iterations(20),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..3 {
            assert!((out.vals[v] - 1.0).abs() < 1e-9, "rank {}", out.vals[v]);
        }
    }

    #[test]
    fn sink_heavy_vertex_ranks_higher() {
        // 0 → 2, 1 → 2: vertex 2 collects rank.
        let g = GraphBuilder::new(3)
            .add_edge(0, 2, 1.0)
            .add_edge(1, 2, 1.0)
            .build();
        let out = run_bsp(
            &PageRank::default(),
            &g,
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert!(out.vals[2] > out.vals[0]);
        assert!(out.vals[2] > out.vals[1]);
    }

    #[test]
    fn ranks_sum_is_conserved_without_sinks() {
        // Strongly connected: total rank ≈ n at fixpoint.
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 0, 1.0)
            .add_edge(0, 2, 1.0)
            .add_edge(2, 0, 1.0)
            .build();
        let out = run_bsp(
            &PageRank::default(),
            &g,
            &EngineOptions::with_iterations(60),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        let total: f64 = out.vals.iter().sum();
        assert!((total - 4.0).abs() < 1e-6, "total {total}");
    }
}
