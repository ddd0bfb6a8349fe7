//! Perf-smoke regression guards (run by the CI `perf-smoke` job).
//!
//! Both tests are `#[ignore]` because they assert on wall-clock ratios:
//! meaningful in a release build on a quiet machine (`cargo test -p
//! graphbolt-bench --release --test perf_smoke -- --ignored
//! --test-threads 1`), noise in a debug parallel test run.

use std::time::Instant;

use graphbolt_bench::experiments::scaling::run_scaling;
use graphbolt_bench::workloads::{standard_graph, GraphSpec};
use graphbolt_engine::{edge_map, EdgeMapOptions, VertexSubset};
use graphbolt_graph::{GraphSnapshot, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SCALE: u32 = 14;
const DENSITIES: &[f64] = &[0.001, 0.01, 0.1, 1.0];

/// Auto must land within this factor of the better forced path…
const MAX_RATIO: f64 = 1.5;
/// …plus this much absolute slack, so sub-100µs rows aren't decided by
/// scheduler jitter.
const SLACK_SECS: f64 = 100e-6;

fn make_frontier(n: usize, density: f64) -> VertexSubset {
    if density >= 1.0 {
        return VertexSubset::full(n);
    }
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let ids: Vec<VertexId> = (0..n as VertexId)
        .filter(|_| rng.gen_bool(density))
        .collect();
    VertexSubset::from_ids(n, ids)
}

fn traverse(g: &GraphSnapshot, frontier: &VertexSubset, opts: EdgeMapOptions) -> u64 {
    let work = graphbolt_engine::parallel::WorkCounter::new();
    let next = edge_map(
        g,
        frontier,
        |u, v, _w| (u ^ v) & 1 == 0,
        |_| true,
        opts,
        &work,
    );
    work.get() + next.len() as u64
}

fn median_secs(g: &GraphSnapshot, frontier: &VertexSubset, opts: EdgeMapOptions) -> f64 {
    const RUNS: usize = 5;
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(traverse(g, frontier, opts));
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[RUNS / 2]
}

/// The regression the adaptive controller exists to prevent: auto must
/// track the better of the forced paths at every frontier density
/// (the static heuristic was 4.6x off at 10% density on this graph).
#[test]
#[ignore = "wall-clock assertion; run in release via the perf-smoke job"]
fn auto_stays_within_factor_of_best_forced_path() {
    let g = standard_graph(GraphSpec::at_scale(SCALE));
    for &density in DENSITIES {
        let frontier = make_frontier(g.num_vertices(), density);
        // Warm the controller: cold start + probe + converge.
        for _ in 0..4 {
            traverse(&g, &frontier, EdgeMapOptions::adaptive());
        }
        let sparse = median_secs(&g, &frontier, EdgeMapOptions::sparse());
        let dense = median_secs(&g, &frontier, EdgeMapOptions::dense());
        let auto = median_secs(&g, &frontier, EdgeMapOptions::adaptive());
        let best = sparse.min(dense);
        assert!(
            auto <= best * MAX_RATIO + SLACK_SECS,
            "density {density}: auto {:.3}ms > {MAX_RATIO}x best {:.3}ms \
             (sparse {:.3}ms, dense {:.3}ms)",
            auto * 1e3,
            best * 1e3,
            sparse * 1e3,
            dense * 1e3,
        );
    }
}

/// The scaling sweep must produce one row per thread count with a
/// non-empty per-phase breakdown — the artifact CI uploads.
#[test]
#[ignore = "multi-second sweep; run in release via the perf-smoke job"]
fn thread_sweep_produces_per_phase_rows() {
    let threads = [1usize, 4];
    let rows = match run_scaling(GraphSpec::at_scale(12), &threads, 2, 64) {
        Ok(rows) => rows,
        Err(refusal) => {
            eprintln!("no sweep to check: {refusal}");
            return;
        }
    };
    assert_eq!(rows.len(), threads.len());
    for (row, &t) in rows.iter().zip(&threads) {
        assert_eq!(row.threads, t);
        assert!(row.initial_secs > 0.0);
        assert!(
            row.phases.total() > 0,
            "t={t}: no tag/propagate/apply time recorded"
        );
    }
}
