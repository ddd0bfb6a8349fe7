//! Single-Source Widest Paths (SSWP) — `max` of `min(bottleneck)`.
//!
//! The bottleneck (maximum-capacity) path problem: the width of a path is
//! its minimum edge weight; each vertex seeks the maximum width over
//! paths from the source. SSWP is KickStarter's third flagship monotonic
//! algorithm (alongside SSSP and WCC); here it exercises GraphBolt's
//! non-decomposable path with a `max` aggregation — the mirror image of
//! SSSP's `min` (§3.3: "min and max … non-decomposable").

use graphbolt_core::{Algorithm, Selective};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// Widest-path widths from a source vertex.
///
/// * aggregation: `g_i(v) = max_{(u,v)} min(c_{i-1}(u), w)` —
///   non-decomposable `max`, refined by re-evaluation,
/// * `∮`: the source is pinned to `+∞` width; unreached vertices hold 0.
#[derive(Debug, Clone)]
pub struct WidestPaths {
    /// Source vertex.
    pub source: VertexId,
}

impl WidestPaths {
    /// SSWP from `source`.
    pub fn new(source: VertexId) -> Self {
        Self { source }
    }
}

impl Algorithm for WidestPaths {
    type Value = f64;
    type Agg = f64;
    type Kind = Selective;

    fn initial_value(&self, v: VertexId) -> f64 {
        if v == self.source {
            f64::INFINITY
        } else {
            0.0
        }
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
        cu.min(w)
    }

    fn combine(&self, agg: &mut f64, contrib: &f64) {
        if *contrib > *agg {
            *agg = *contrib;
        }
    }

    fn compute(&self, v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
        if v == self.source {
            f64::INFINITY
        } else {
            *agg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode, StreamingEngine};
    use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};

    fn sample() -> GraphSnapshot {
        // Two routes 0 → 3: wide-then-narrow (min 2) vs narrow-then-wide
        // (min 3).
        GraphBuilder::new(5)
            .add_edge(0, 1, 5.0)
            .add_edge(1, 3, 2.0)
            .add_edge(0, 2, 3.0)
            .add_edge(2, 3, 4.0)
            .add_edge(3, 4, 1.0)
            .build()
    }

    #[test]
    fn computes_bottleneck_widths() {
        let out = run_bsp(
            &WidestPaths::new(0),
            &sample(),
            &EngineOptions::with_iterations(8),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert!(out.vals[0].is_infinite());
        assert_eq!(out.vals[1], 5.0);
        assert_eq!(out.vals[2], 3.0);
        assert_eq!(out.vals[3], 3.0, "the narrow-then-wide route wins");
        assert_eq!(out.vals[4], 1.0);
    }

    #[test]
    fn unreached_vertices_have_zero_width() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 2.0).build();
        let out = run_bsp(
            &WidestPaths::new(0),
            &g,
            &EngineOptions::with_iterations(4),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals[2], 0.0);
    }

    #[test]
    fn deletion_narrows_via_reevaluation() {
        let mut engine = StreamingEngine::new(
            sample(),
            WidestPaths::new(0),
            EngineOptions::with_iterations(8),
        );
        engine.run_initial();
        assert_eq!(engine.values()[3], 3.0);
        // Removing the winning route's first hop drops 3's width to 2.
        let mut batch = MutationBatch::new();
        batch.delete(Edge::new(0, 2, 3.0));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.values()[3], 2.0);
    }

    #[test]
    fn addition_widens() {
        let mut engine = StreamingEngine::new(
            sample(),
            WidestPaths::new(0),
            EngineOptions::with_iterations(8),
        );
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 3, 9.0));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.values()[3], 9.0);
        assert_eq!(engine.values()[4], 1.0, "downstream bottleneck unchanged");
    }

    #[test]
    fn refinement_matches_scratch_on_random_streams() {
        use rand::{Rng, SeedableRng};
        for seed in 0..15 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(5..18usize);
            let mut b = GraphBuilder::new(n);
            for _ in 0..n * 2 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v {
                    b = b.add_edge(u, v, (rng.gen_range(1..20) as f64) * 0.5);
                }
            }
            let g = b.build();
            let opts = EngineOptions::with_iterations(n);
            let mut engine = StreamingEngine::new(g, WidestPaths::new(0), opts);
            engine.run_initial();
            for _ in 0..3 {
                let mut batch = MutationBatch::new();
                for _ in 0..rng.gen_range(1..4) {
                    let u = rng.gen_range(0..n) as VertexId;
                    let v = rng.gen_range(0..n) as VertexId;
                    if u == v {
                        continue;
                    }
                    if engine.graph().has_edge(u, v) {
                        batch.delete(Edge::new(u, v, engine.graph().edge_weight(u, v).unwrap()));
                    } else {
                        batch.add(Edge::new(u, v, (rng.gen_range(1..20) as f64) * 0.5));
                    }
                }
                let batch = batch.normalize_against(engine.graph());
                if batch.is_empty() {
                    continue;
                }
                engine.apply_batch(&batch).unwrap();
                let scratch = run_bsp(
                    &WidestPaths::new(0),
                    engine.graph(),
                    &opts,
                    ExecutionMode::Full,
                    &EngineStats::new(),
                );
                for v in 0..n {
                    let (a, b) = (engine.values()[v], scratch.vals[v]);
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-12,
                        "seed {seed} vertex {v}: {a} vs {b}"
                    );
                }
            }
        }
    }
}
