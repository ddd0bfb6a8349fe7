//! Graph-structure sensitivity (§5.2's closing observation: *"the impact
//! of edge mutations varies based on the structure of the graph and also
//! the nature of graph algorithm"*): the same algorithm and batch size
//! measured across three structurally different inputs.
//!
//! Expected shape: incremental savings are largest where mutation impact
//! stays local (grids: huge diameter, slow waves truncated by the
//! iteration budget; skewed R-MAT: hubs attenuate) and smallest on
//! small-world graphs, whose rewired shortcuts spread every change across
//! the whole vertex set within a few hops.

use graphbolt_algorithms::LabelPropagation;
use graphbolt_core::{EngineOptions, EngineStats, ExecutionMode, StreamingEngine};
use graphbolt_graph::generators::{grid, rmat, watts_strogatz, RmatConfig};
use graphbolt_graph::{Edge, MutationStream, StreamConfig, WorkloadBias};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::common::{bench_options, ITERS};
use super::suite::{draw_batches, BENCH_TOLERANCE};
use crate::harness::time;
use crate::report::{fmt_secs, Table};
use crate::workloads::GraphSpec;

fn families(spec: GraphSpec) -> Vec<(&'static str, Vec<Edge>)> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let n = 1usize << spec.scale;
    let side = (n as f64).sqrt() as usize;
    vec![
        (
            "R-MAT (skewed)",
            rmat(&RmatConfig::new(spec.scale, spec.edge_factor), &mut rng),
        ),
        ("grid (mesh)", grid(side, side, true, spec.seed)),
        (
            "small-world",
            watts_strogatz(n, spec.edge_factor / 2, 0.1, true, &mut rng),
        ),
    ]
}

/// Renders the structure-sensitivity table (LP, one batch size).
pub fn structure(spec: GraphSpec, batch_size: usize) -> Table {
    let mut t = Table::new(
        format!("Structure sensitivity: LP, {batch_size} mutations across graph families"),
        vec![
            "family",
            "|V|",
            "|E|",
            "GB-Reset",
            "GraphBolt",
            "speedup",
            "edge ratio",
        ],
    );
    for (name, edges) in families(spec) {
        let cfg = StreamConfig {
            bias: WorkloadBias::Uniform,
            seed: spec.seed ^ 0x57,
            ..StreamConfig::default()
        };
        let mut stream = MutationStream::new(edges, cfg);
        let g0 = stream.initial_snapshot();
        let Some(batch) = draw_batches(&mut stream, &g0, &[batch_size])
            .into_iter()
            .next()
        else {
            continue;
        };
        let n = g0.num_vertices();
        let mut alg = LabelPropagation::with_synthetic_seeds(4, n, 10);
        alg.tolerance = BENCH_TOLERANCE;

        let g1 = g0.apply(&batch).expect("batch validates");
        let reset_stats = EngineStats::new();
        let reset = time(|| {
            graphbolt_core::run_bsp(
                &alg,
                &g1,
                &bench_options(),
                ExecutionMode::Incremental,
                &reset_stats,
            )
        });

        let mut engine = StreamingEngine::new(g0, alg, EngineOptions::with_iterations(ITERS));
        engine.run_initial();
        let before = engine.stats().snapshot();
        let report = engine.apply_batch(&batch).expect("batch validates");
        let work = engine.stats().snapshot() - before;
        let refine_secs = (report.duration - report.structure_duration).as_secs_f64();

        t.row(vec![
            name.to_string(),
            format!("{n}"),
            format!("{}", g1.num_edges()),
            fmt_secs(reset.secs()),
            fmt_secs(refine_secs),
            format!("{:.2}×", reset.secs() / refine_secs.max(1e-12)),
            format!(
                "{:.4}",
                work.edge_computations as f64 / reset_stats.edge_computations().max(1) as f64
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_graph::GraphSnapshot;

    #[test]
    fn structure_table_covers_three_families() {
        let t = structure(GraphSpec::at_scale(8), 10);
        assert_eq!(t.len(), 3);
        let text = t.render();
        assert!(text.contains("R-MAT"));
        assert!(text.contains("grid"));
        assert!(text.contains("small-world"));
    }

    #[test]
    fn families_are_nonempty_and_distinct() {
        let fams = families(GraphSpec::at_scale(8));
        assert_eq!(fams.len(), 3);
        for (name, edges) in &fams {
            assert!(!edges.is_empty(), "{name} generated no edges");
        }
        let g0: GraphSnapshot = {
            let (_, e) = &fams[0];
            GraphSnapshot::from_edges(graphbolt_graph::generators::vertex_count(e), e)
        };
        assert!(g0.num_edges() > 0);
    }
}
