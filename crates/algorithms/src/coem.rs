//! Co-Training Expectation Maximization (CoEM) — Table 4:
//! `⊕ = Σ c(u)·weight(u,v) / Σ weight(w,v)`.

use std::sync::Arc;

use graphbolt_core::{Algorithm, Decomposable, Refining, Sum};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// CoEM semi-supervised learning for named-entity recognition
/// (Nigam & Ghani): each vertex holds the probability of belonging to the
/// positive class; unlabeled vertices average their in-neighbors'
/// probabilities, weighted by edge weight and normalized by the total
/// incoming weight.
///
/// The normalization denominator `Σ weight(w, v)` lives on the
/// *destination* and is part of `∮`, so CoEM is
/// *target-structure-dependent*: mutation targets recompute their value
/// at every tracked iteration even when the raw sum is unchanged.
#[derive(Debug, Clone)]
pub struct CoEm {
    /// `labels[v] = Some(p)` clamps vertex `v` to probability `p`
    /// (1.0 = positive seed, 0.0 = negative seed).
    labels: Arc<Vec<Option<f64>>>,
    /// Selective-scheduling tolerance.
    pub tolerance: f64,
}

impl CoEm {
    /// Creates an instance from explicit seed labels.
    pub fn new(labels: Vec<Option<f64>>) -> Self {
        Self {
            labels: Arc::new(labels),
            tolerance: 1e-6,
        }
    }

    /// Synthetic seeding: every `stride`-th vertex is labeled, alternating
    /// positive / negative.
    pub fn with_synthetic_seeds(n: usize, stride: usize) -> Self {
        let labels = (0..n)
            .map(|v| {
                (v % stride == 0).then(|| if (v / stride).is_multiple_of(2) { 1.0 } else { 0.0 })
            })
            .collect();
        Self::new(labels)
    }

    fn seed_of(&self, v: VertexId) -> Option<f64> {
        self.labels.get(v as usize).copied().flatten()
    }
}

impl Algorithm for CoEm {
    type Value = f64;
    type Agg = f64;
    type Kind = Sum;

    fn initial_value(&self, v: VertexId) -> f64 {
        self.seed_of(v).unwrap_or(0.5)
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        cu: &f64,
    ) -> f64 {
        cu * w
    }

    fn combine(&self, agg: &mut f64, contrib: &f64) {
        *agg += contrib;
    }

    fn compute(&self, v: VertexId, agg: &f64, g: &GraphSnapshot) -> f64 {
        if let Some(p) = self.seed_of(v) {
            return p;
        }
        let denom = g.in_weight_sum(v);
        if denom <= 1e-300 {
            0.5
        } else {
            agg / denom
        }
    }

    fn changed(&self, old: &f64, new: &f64) -> bool {
        (old - new).abs() > self.tolerance
    }

    fn target_structure_dependent(&self) -> bool {
        true
    }
}

impl Decomposable for CoEm {
    fn retract(&self, _: Refining, agg: &mut f64, contrib: &f64) {
        *agg -= contrib;
    }

    fn delta(
        &self,
        _: Refining,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        old: &f64,
        new: &f64,
    ) -> Option<f64> {
        Some((new - old) * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
    use graphbolt_graph::GraphBuilder;

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let g = GraphBuilder::new(5)
            .symmetric(true)
            .add_edge(0, 1, 0.8)
            .add_edge(1, 2, 0.6)
            .add_edge(2, 3, 0.4)
            .add_edge(3, 4, 0.9)
            .build();
        let coem = CoEm::new(vec![Some(1.0), None, None, None, Some(0.0)]);
        let out = run_bsp(
            &coem,
            &g,
            &EngineOptions::with_iterations(15),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..5 {
            assert!(
                (0.0..=1.0).contains(&out.vals[v]),
                "p[{v}] = {}",
                out.vals[v]
            );
        }
        // Positive seed dominates its neighbor.
        assert!(out.vals[1] > out.vals[3]);
    }

    #[test]
    fn seeds_are_clamped() {
        let g = GraphBuilder::new(3)
            .symmetric(true)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .build();
        let coem = CoEm::new(vec![Some(1.0), None, Some(0.0)]);
        let out = run_bsp(
            &coem,
            &g,
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals[0], 1.0);
        assert_eq!(out.vals[2], 0.0);
        assert!((out.vals[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn normalization_uses_incoming_weight() {
        // v2 gets 1.0·0.3 from a positive seed and 0.0·0.7 from a
        // negative one → 0.3 / (0.3 + 0.7) = 0.3.
        let g = GraphBuilder::new(3)
            .add_edge(0, 2, 0.3)
            .add_edge(1, 2, 0.7)
            .build();
        let coem = CoEm::new(vec![Some(1.0), Some(0.0), None]);
        let out = run_bsp(
            &coem,
            &g,
            &EngineOptions::with_iterations(3),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert!((out.vals[2] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unreached_vertices_stay_neutral() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).build();
        let coem = CoEm::new(vec![Some(1.0), None, None]);
        let out = run_bsp(
            &coem,
            &g,
            &EngineOptions::with_iterations(5),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals[2], 0.5);
    }
}
