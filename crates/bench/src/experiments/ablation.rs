//! Ablation studies on GraphBolt's design choices (DESIGN.md §5):
//! vertical pruning, the horizontal cut-off / hybrid execution, and
//! fused deltas vs retract+propagate.

use graphbolt_algorithms::{LabelPropagation, PageRank};
use graphbolt_core::{Algorithm, EngineOptions, StreamingEngine};
use graphbolt_graph::{GraphSnapshot, MutationBatch, WorkloadBias};

use super::common::ITERS;
use super::suite::draw_batches;
use crate::harness::time;
use crate::report::{fmt_count, fmt_secs, Table};
use crate::workloads::{standard_stream, GraphSpec};

fn refine_cost<A: Algorithm + Clone>(
    g0: &GraphSnapshot,
    alg: A,
    opts: EngineOptions,
    batch: &MutationBatch,
) -> (f64, u64, usize) {
    let mut engine = StreamingEngine::new(g0.clone(), alg, opts);
    engine.run_initial();
    let stored = engine.stored_aggregations();
    let before = engine.stats().snapshot();
    let t = time(|| engine.apply_batch(batch).unwrap());
    let work = engine.stats().snapshot() - before;
    (t.secs(), work.edge_computations, stored)
}

/// Vertical pruning: tracked entries and refinement cost with pruning on
/// vs off.
pub fn vertical_pruning(spec: GraphSpec, batch_size: usize) -> Table {
    let mut stream = standard_stream(spec, WorkloadBias::Uniform);
    let g0 = stream.initial_snapshot();
    let batch = draw_batches(&mut stream, &g0, &[batch_size])
        .into_iter()
        .next()
        .expect("stream capacity");
    let mut t = Table::new(
        "Ablation: vertical pruning (PR)",
        vec!["pruning", "stored aggs", "refine time", "edge comps"],
    );
    for (label, on) in [("on", true), ("off", false)] {
        let opts = EngineOptions::with_iterations(ITERS).vertical(on);
        let alg = PageRank::with_tolerance(super::suite::BENCH_TOLERANCE);
        let (secs, edges, stored) = refine_cost(&g0, alg, opts, &batch);
        t.row(vec![
            label.to_string(),
            fmt_count(stored as u64),
            fmt_secs(secs),
            fmt_count(edges),
        ]);
    }
    t
}

/// Horizontal cut-off sweep: dependency-refined iterations vs hybrid
/// recomputation.
pub fn horizontal_cutoff(spec: GraphSpec, batch_size: usize) -> Table {
    let mut stream = standard_stream(spec, WorkloadBias::Uniform);
    let g0 = stream.initial_snapshot();
    let n = g0.num_vertices();
    let batch = draw_batches(&mut stream, &g0, &[batch_size])
        .into_iter()
        .next()
        .expect("stream capacity");
    let mut t = Table::new(
        "Ablation: horizontal cut-off (LP, 10 iterations total)",
        vec!["cut-off k", "stored aggs", "refine time", "edge comps"],
    );
    for k in [2usize, 4, 6, 8, 10] {
        let opts = EngineOptions::with_iterations(ITERS).cutoff(k);
        let mut alg = LabelPropagation::with_synthetic_seeds(4, n, 10);
        alg.tolerance = super::suite::BENCH_TOLERANCE;
        let (secs, edges, stored) = refine_cost(&g0, alg, opts, &batch);
        t.row(vec![
            format!("{k}"),
            fmt_count(stored as u64),
            fmt_secs(secs),
            fmt_count(edges),
        ]);
    }
    t
}

/// Fused `propagateDelta` vs explicit retract+propagate.
pub fn fused_delta(spec: GraphSpec, batch_size: usize) -> Table {
    let mut stream = standard_stream(spec, WorkloadBias::Uniform);
    let g0 = stream.initial_snapshot();
    let batch = draw_batches(&mut stream, &g0, &[batch_size])
        .into_iter()
        .next()
        .expect("stream capacity");
    let mut t = Table::new(
        "Ablation: fused delta vs retract+propagate (PR)",
        vec!["mode", "refine time", "edge comps"],
    );
    for (label, fused) in [
        ("fused (GraphBolt)", true),
        ("retract+propagate (RP)", false),
    ] {
        let opts = EngineOptions::with_iterations(ITERS).fused(fused);
        let alg = PageRank::with_tolerance(super::suite::BENCH_TOLERANCE);
        let (secs, edges, _) = refine_cost(&g0, alg, opts, &batch);
        t.row(vec![label.to_string(), fmt_secs(secs), fmt_count(edges)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_pruning_reduces_storage() {
        let t = vertical_pruning(GraphSpec::at_scale(8), 10);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cutoff_sweep_renders_all_points() {
        let t = horizontal_cutoff(GraphSpec::at_scale(7), 10);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn fused_does_fewer_edge_computations() {
        let t = fused_delta(GraphSpec::at_scale(8), 10);
        assert_eq!(t.len(), 2);
    }
}

/// Non-decomposable `min` strategies: re-evaluation (default) vs the
/// §5.4 ordered-map extension — faster deletions, more storage.
pub fn min_strategies(spec: GraphSpec, batch_size: usize) -> Table {
    use graphbolt_algorithms::{ShortestPaths, ShortestPathsMultiset};
    let mut stream = standard_stream(spec, WorkloadBias::Uniform);
    let g0 = stream.initial_snapshot();
    let batch = draw_batches(&mut stream, &g0, &[batch_size])
        .into_iter()
        .next()
        .expect("stream capacity");
    let source = (0..g0.num_vertices() as u32)
        .max_by_key(|&v| g0.out_degree(v))
        .unwrap_or(0);
    let mut t = Table::new(
        "Ablation: min aggregation — re-evaluation vs ordered map (SSSP)",
        vec!["strategy", "refine time", "edge comps", "store bytes"],
    );
    {
        let mut engine = StreamingEngine::new(
            g0.clone(),
            ShortestPaths::new(source),
            EngineOptions::with_iterations(ITERS),
        );
        engine.run_initial();
        let before = engine.stats().snapshot();
        let secs = time(|| engine.apply_batch(&batch).unwrap()).secs();
        let work = engine.stats().snapshot() - before;
        t.row(vec![
            "re-evaluation".to_string(),
            fmt_secs(secs),
            fmt_count(work.edge_computations),
            fmt_count(engine.dependency_memory_bytes() as u64),
        ]);
    }
    {
        let mut engine = StreamingEngine::new(
            g0,
            ShortestPathsMultiset::new(source),
            EngineOptions::with_iterations(ITERS),
        );
        engine.run_initial();
        let before = engine.stats().snapshot();
        let secs = time(|| engine.apply_batch(&batch).unwrap()).secs();
        let work = engine.stats().snapshot() - before;
        t.row(vec![
            "ordered map (§5.4)".to_string(),
            fmt_secs(secs),
            fmt_count(work.edge_computations),
            fmt_count(engine.dependency_memory_bytes() as u64),
        ]);
    }
    t
}

#[cfg(test)]
mod min_tests {
    use super::*;

    #[test]
    fn min_strategy_ablation_renders() {
        let t = min_strategies(GraphSpec::at_scale(8), 10);
        assert_eq!(t.len(), 2);
    }
}
