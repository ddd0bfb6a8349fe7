//! Connected Components (CC) — label-propagation with the `min`
//! aggregation.
//!
//! Like SSSP, the aggregation is **non-decomposable** (§3.3): deleting an
//! edge can disconnect a region, and a scalar minimum cannot "forget" a
//! retracted label, so the engine re-evaluates impacted aggregations by
//! pulling the full in-neighborhood. KickStarter-class systems treat CC
//! as their second flagship monotonic algorithm; here it doubles as a
//! second exerciser of GraphBolt's re-evaluation path.
//!
//! Components are defined over *directed reachability through min-label
//! exchange*: on a symmetrized graph this is exactly undirected connected
//! components once the iteration count reaches the diameter.

use graphbolt_core::{Algorithm, Selective};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// Min-label connected components.
#[derive(Debug, Clone, Default)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Creates the algorithm (no parameters: labels are vertex ids).
    pub fn new() -> Self {
        Self
    }

    /// Counts distinct component labels in a result slice.
    pub fn component_count(labels: &[f64]) -> usize {
        let mut seen: Vec<u32> = labels.iter().map(|&l| l as u32).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

impl Algorithm for ConnectedComponents {
    /// The label is carried as `f64` for uniformity with the scalar
    /// engine plumbing; it is always an exact small integer (vertex id).
    type Value = f64;
    type Agg = f64;
    type Kind = Selective;

    fn initial_value(&self, v: VertexId) -> f64 {
        v as f64
    }

    fn identity(&self) -> f64 {
        f64::INFINITY
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        _w: Weight,
        cu: &f64,
    ) -> f64 {
        *cu
    }

    fn combine(&self, agg: &mut f64, contrib: &f64) {
        if *contrib < *agg {
            *agg = *contrib;
        }
    }

    fn compute(&self, v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
        // A vertex belongs at least to its own singleton component.
        agg.min(v as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode, StreamingEngine};
    use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};

    fn two_components() -> graphbolt_graph::GraphSnapshot {
        GraphBuilder::new(6)
            .symmetric(true)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(3, 4, 1.0)
            .add_edge(4, 5, 1.0)
            .build()
    }

    #[test]
    fn labels_converge_to_component_minima() {
        let out = run_bsp(
            &ConnectedComponents::new(),
            &two_components(),
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals, vec![0.0, 0.0, 0.0, 3.0, 3.0, 3.0]);
        assert_eq!(ConnectedComponents::component_count(&out.vals), 2);
    }

    #[test]
    fn edge_addition_merges_components() {
        let mut engine = StreamingEngine::new(
            two_components(),
            ConnectedComponents::new(),
            EngineOptions::with_iterations(10),
        );
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch
            .add(Edge::unweighted(2, 3))
            .add(Edge::unweighted(3, 2));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(ConnectedComponents::component_count(engine.values()), 1);
        assert!(engine.values().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn edge_deletion_splits_components() {
        let g = GraphBuilder::new(4)
            .symmetric(true)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .build();
        let mut engine = StreamingEngine::new(
            g,
            ConnectedComponents::new(),
            EngineOptions::with_iterations(10),
        );
        engine.run_initial();
        assert_eq!(ConnectedComponents::component_count(engine.values()), 1);
        let mut batch = MutationBatch::new();
        batch
            .delete(Edge::unweighted(1, 2))
            .delete(Edge::unweighted(2, 1));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.values(), &[0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn refinement_matches_scratch_on_random_mutations() {
        use rand::{Rng, SeedableRng};
        for seed in 0..20 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(5..25usize);
            let mut b = GraphBuilder::new(n).symmetric(true);
            for _ in 0..n {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v {
                    b = b.add_edge(u, v, 1.0);
                }
            }
            let g = b.build();
            let opts = EngineOptions::with_iterations(n);
            let mut engine = StreamingEngine::new(g, ConnectedComponents::new(), opts);
            engine.run_initial();
            // Flip a couple of symmetric pairs.
            let mut batch = MutationBatch::new();
            for _ in 0..3 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u == v {
                    continue;
                }
                if engine.graph().has_edge(u, v) {
                    batch.delete(Edge::unweighted(u, v));
                    if engine.graph().has_edge(v, u) {
                        batch.delete(Edge::unweighted(v, u));
                    }
                } else if !engine.graph().has_edge(v, u) {
                    batch.add(Edge::unweighted(u, v));
                    batch.add(Edge::unweighted(v, u));
                }
            }
            let batch = batch.normalize_against(engine.graph());
            if batch.is_empty() {
                continue;
            }
            engine.apply_batch(&batch).unwrap();
            let scratch = run_bsp(
                &ConnectedComponents::new(),
                engine.graph(),
                &opts,
                ExecutionMode::Full,
                &EngineStats::new(),
            );
            assert_eq!(engine.values(), &scratch.vals[..], "seed {seed}");
        }
    }
}
