//! Perf-smoke guard (run by the CI `perf-smoke` job).
//!
//! `#[ignore]` because it is a multi-second sweep: meaningful in a
//! release build on a quiet machine (`cargo test -p graphbolt-bench
//! --release --test perf_smoke -- --ignored --test-threads 1`), noise in
//! a debug parallel test run.

use graphbolt_bench::experiments::scaling::run_scaling;
use graphbolt_bench::workloads::GraphSpec;

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
