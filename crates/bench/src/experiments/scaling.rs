//! Thread-scaling sweep: the first multicore story (DESIGN.md §3.6).
//!
//! Runs the standard streaming PageRank workload — initial execution
//! plus a fixed batch schedule — once per requested worker-thread count
//! inside a scoped rayon pool, and reports wall-clock plus the tagging /
//! propagation / application phase breakdown read from the
//! `graphbolt_refine_{tag,propagate,apply}_ns` histogram sums. Every
//! row builds its own engine, and an engine run owns its direction
//! controller, so the order of the rows does not affect their results.
//!
//! A sweep on a one-thread parallel backend (a one-core host, or the
//! sequential `vendor-stubs/rayon`) would run every row on one thread and
//! report a flat curve by construction, so [`run_scaling`] refuses.

use graphbolt_core::{MetricsRegistry, StreamingEngine};
use graphbolt_engine::parallel;
use graphbolt_graph::WorkloadBias;

use crate::experiments::common::bench_options;
use crate::harness::time;
use crate::workloads::{standard_stream, GraphSpec};

/// Nanoseconds per refinement phase, summed over all tracked iterations
/// of all batches in one sweep configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseNanos {
    /// Impacted-set derivation.
    pub tag: u64,
    /// Union passes over impacted edges.
    pub propagate: u64,
    /// Committing refined aggregations and values.
    pub apply: u64,
}

impl PhaseNanos {
    /// Sum of the three phases.
    pub fn total(&self) -> u64 {
        self.tag + self.propagate + self.apply
    }

    /// Phase totals from one engine's refinement histograms.
    fn of(m: &MetricsRegistry) -> Self {
        Self {
            tag: m.refine_tag_ns.sum(),
            propagate: m.refine_propagate_ns.sum(),
            apply: m.refine_apply_ns.sum(),
        }
    }
}

/// One row of the scaling sweep: everything measured at one thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Worker threads the scoped pool was built with.
    pub threads: usize,
    /// Initial (pre-mutation) execution wall-clock seconds.
    pub initial_secs: f64,
    /// Total refinement wall-clock seconds across all batches.
    pub refine_secs: f64,
    /// Batches applied.
    pub batches: usize,
    /// Per-phase nanoseconds from the refinement histograms.
    pub phases: PhaseNanos,
}

/// Runs the sweep: one [`ScalingRow`] per entry of `threads`.
///
/// # Errors
///
/// Refuses when the parallel backend has one worker thread: every row
/// would run on that thread and the curve would measure nothing.
pub fn run_scaling(
    spec: GraphSpec,
    threads: &[usize],
    batches: usize,
    batch_size: usize,
) -> Result<Vec<ScalingRow>, String> {
    if parallel::default_threads() == 1 {
        return Err(
            "the parallel backend reports one worker thread (a one-core host or the \
             sequential vendor-stubs/rayon), so a thread sweep would measure nothing; \
             run on a multicore host with the real rayon"
                .to_string(),
        );
    }
    Ok(sweep(spec, threads, batches, batch_size))
}

/// The sweep proper. Each configuration rebuilds the stream and engine
/// from scratch so the rows face identical work.
fn sweep(spec: GraphSpec, threads: &[usize], batches: usize, batch_size: usize) -> Vec<ScalingRow> {
    let mut rows = Vec::with_capacity(threads.len());
    for &t in threads {
        let (initial_secs, refine_secs, phases) = parallel::with_threads(t, || {
            let mut stream = standard_stream(spec, WorkloadBias::Uniform);
            let g = stream.initial_snapshot();
            let opts = bench_options();
            let mut engine =
                StreamingEngine::new(g, graphbolt_algorithms::PageRank::default(), opts);
            let initial = time(|| {
                engine.run_initial();
            });
            let mut refine_secs = 0.0;
            for _ in 0..batches {
                let Some(batch) = stream.next_batch(engine.graph(), batch_size) else {
                    break;
                };
                let report = engine.apply_batch(&batch).expect("bench batch validates");
                refine_secs += (report.duration - report.structure_duration).as_secs_f64();
            }
            let phases = PhaseNanos::of(engine.stats().metrics());
            (initial.secs(), refine_secs, phases)
        });
        rows.push(ScalingRow {
            threads: t,
            initial_secs,
            refine_secs,
            batches,
            phases,
        });
    }
    rows
}

/// Renders the rows as the `BENCH_scaling.json` document.
pub fn to_json(spec: GraphSpec, batch_size: usize, rows: &[ScalingRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"threads\": {}, \"initial_secs\": {:.6}, ",
                    "\"refine_secs\": {:.6}, \"batches\": {}, ",
                    "\"tag_ms\": {:.4}, \"propagate_ms\": {:.4}, ",
                    "\"apply_ms\": {:.4}}}"
                ),
                r.threads,
                r.initial_secs,
                r.refine_secs,
                r.batches,
                r.phases.tag as f64 / 1e6,
                r.phases.propagate as f64 / 1e6,
                r.phases.apply as f64 / 1e6,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n  \"bench\": \"scaling\",\n  \"algorithm\": \"pagerank\",\n",
            "  \"graph\": {{\"generator\": \"rmat\", \"scale\": {}}},\n",
            "  \"batch_size\": {},\n  \"host_threads\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        spec.scale,
        batch_size,
        parallel::default_threads(),
        entries.join(",\n"),
    )
}

/// Renders the rows as a `repro` console table.
pub fn table(rows: &[ScalingRow]) -> crate::report::Table {
    let mut t = crate::report::Table::new(
        "Thread scaling — streaming PageRank (initial + refinement, per-phase)",
        vec![
            "threads",
            "initial",
            "refine",
            "tag ms",
            "propagate ms",
            "apply ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.threads.to_string(),
            crate::report::fmt_secs(r.initial_secs),
            crate::report::fmt_secs(r.refine_secs),
            format!("{:.1}", r.phases.tag as f64 / 1e6),
            format!("{:.1}", r.phases.propagate as f64 / 1e6),
            format!("{:.1}", r.phases.apply as f64 / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scaling_refuses_exactly_when_the_backend_has_one_thread() {
        let outcome = run_scaling(GraphSpec::at_scale(8), &[1, 2], 1, 16);
        assert_eq!(outcome.is_err(), parallel::default_threads() == 1);
    }

    #[test]
    fn sweep_produces_per_phase_rows() {
        let rows = sweep(GraphSpec::at_scale(8), &[1, 2], 2, 16);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.initial_secs > 0.0);
            assert!(row.batches == 2);
            // Refinement ran, so phase time was recorded.
            assert!(row.phases.total() > 0, "no phase time recorded");
        }
        let json = to_json(GraphSpec::at_scale(8), 16, &rows);
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("propagate_ms"));
    }
}
