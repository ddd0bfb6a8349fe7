//! End-to-end telemetry: metrics registry, structured tracing, and
//! exposition (DESIGN.md §10).
//!
//! The paper's whole evaluation (§5, Figure 6 / Table 7) is an
//! observability argument — edge-computation counts, per-batch
//! refinement latency, dependency-store footprint. This module makes
//! those first-class: a [`MetricsRegistry`] of lock-free counters,
//! gauges, and log-scale [`Histogram`]s built on the engine's padded
//! [`WorkCounter`] primitive, request- and batch-scoped [`span`] trees,
//! Prometheus/JSON [`encode`]rs, and a tiny std-only [`http`] responder
//! for `/metrics` + `/healthz`.
//!
//! There is no process-global state. Each engine's
//! [`EngineStats`](crate::EngineStats) handle owns one registry and one
//! span recorder; its session, front door and metrics endpoint reach them
//! through clones of that handle, so two sessions in one process report
//! independently.
//!
//! Everything is dependency-free and pay-for-what-you-use: with no HTTP
//! server bound and span recording off, instrumented sites cost one
//! padded relaxed counter update (metrics) or one load-and-branch
//! (tracing).
//!
//! Metric names follow `graphbolt_[a-z_]+` and must be documented in
//! DESIGN.md §10.1 — both checked against the live registry by
//! `tests/metric_inventory.rs`.

pub mod encode;
pub mod hist;
pub mod http;
pub mod span;

use std::time::Duration;

use graphbolt_engine::parallel::WorkCounter;

pub use hist::{BucketCount, Histogram, HistogramSnapshot};
pub use span::TraceCtx;

/// A monotonically increasing counter with a registered name.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    cell: WorkCounter,
}

impl Counter {
    /// Creates a zeroed counter under `name` (must match
    /// `graphbolt_[a-z_]+`; checked by `tests/metric_inventory.rs`).
    pub fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            cell: WorkCounter::new(),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Human-readable description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.add(delta);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// A last-value-wins gauge with a registered name.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    cell: WorkCounter,
}

impl Gauge {
    /// Creates a zeroed gauge under `name` (must match
    /// `graphbolt_[a-z_]+`; checked by `tests/metric_inventory.rs`).
    pub fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            cell: WorkCounter::new(),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Human-readable description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.set(value);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// Plain-value copy of one counter or gauge.
#[derive(Debug, Clone, Copy)]
pub struct MetricValue {
    /// Metric name (`graphbolt_*`).
    pub name: &'static str,
    /// Human-readable description.
    pub help: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time copy of the whole registry; input to the encoders and
/// the `stats` CLI surface. Values are read per-metric (each exact);
/// the set is not a cross-metric consistent cut.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All registered counters, registration order.
    pub counters: Vec<MetricValue>,
    /// All registered gauges, registration order.
    pub gauges: Vec<MetricValue>,
    /// All registered histograms, registration order.
    pub histograms: Vec<HistogramSnapshot>,
}

/// The fixed set of one engine's metrics. Fields are typed and named
/// (no string lookup on the hot path); the name table is documented in
/// DESIGN.md §10.1 and checked against this registry by
/// `tests/metric_inventory.rs`.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Batches committed by `apply_batch` (refined or degraded path).
    pub batches_applied: Counter,
    /// Mutations contained in committed batches.
    pub mutations_applied: Counter,
    /// Batches moved to the dead-letter queue after a refinement panic.
    pub batches_quarantined: Counter,
    /// Refinement panics caught and recovered by session workers.
    pub panics_recovered: Counter,
    /// Non-blocking submissions rejected by a full ingestion queue.
    pub backpressure_rejections: Counter,
    /// Session checkpoints successfully written.
    pub checkpoints_written: Counter,
    /// Session checkpoint attempts that failed.
    pub checkpoint_failures: Counter,
    /// Contribution / delta / retraction evaluations (paper Figure 6);
    /// the cell [`EngineStats`](crate::EngineStats) counts into.
    pub edge_computations: Counter,
    /// `∮` (vertex compute) evaluations.
    pub vertex_computations: Counter,
    /// BSP iterations executed (initial + refinement + hybrid).
    pub iterations: Counter,
    /// Front-door requests admitted, per client class (indexed by
    /// `admission::ClientClass::index`: interactive, bulk, best-effort).
    pub admit: [Counter; 3],
    /// Front-door requests shed by admission control, per client class.
    pub shed: [Counter; 3],
    /// Typed RetryAfter responses issued, per client class.
    pub retry_after: [Counter; 3],
    /// Commands shed because their deadline expired before service.
    pub deadline_shed: Counter,
    /// Singleton updates served by the batch-bypass fast path.
    pub singleton_fast_path: Counter,
    /// Span trees completed into the flight recorder.
    pub span_trees_completed: Counter,
    /// Span recordings that referenced a trace no longer (or never)
    /// active — should stay zero; the CI overload gate asserts on it.
    pub span_orphans: Counter,
    /// Automatic flight-recorder dumps triggered (quarantine, shed
    /// spike, SLO breach).
    pub span_flight_dumps: Counter,

    /// Commands currently queued for the session worker.
    pub queue_occupancy: Gauge,
    /// Memory-budget degrade level (0 none, 1 pruned, 2 dropped).
    pub degrade_level: Gauge,
    /// Aggregation records currently held by the dependency store.
    pub stored_aggregations: Gauge,
    /// Dependency-store footprint in bytes; set together with
    /// `stored_aggregations` from one store walk on batch commit and on
    /// degrade transitions.
    pub store_bytes: Gauge,
    /// Wall-clock-dominant phase of the latest batch (0 tag,
    /// 1 propagate, 2 apply, 3 structure), from the critical-path report.
    pub span_critical_phase: Gauge,

    /// Per-batch end-to-end refinement latency (ns).
    pub batch_refine_ns: Histogram,
    /// Per-iteration BSP step latency (ns).
    pub bsp_iteration_ns: Histogram,
    /// Refinement tag phase (impacted-set derivation) latency (ns).
    pub refine_tag_ns: Histogram,
    /// Refinement propagate phase (⊎/⋃-/⋃△ unions) latency (ns).
    pub refine_propagate_ns: Histogram,
    /// Refinement apply phase (commit loop) latency (ns).
    pub refine_apply_ns: Histogram,
    /// Ingestion-queue depth sampled at each worker dequeue.
    pub queue_depth: Histogram,
    /// Per-checkpoint serialize + persist latency (ns).
    pub checkpoint_write_ns: Histogram,
    /// Per-mutation time spent waiting in the session queue (ns), from
    /// the span layer's queue/service decomposition.
    pub span_queue_ns: Histogram,
    /// Per-mutation service time — worker dequeue to value visible
    /// (ns), from the span layer's queue/service decomposition.
    pub span_service_ns: Histogram,
    /// End-to-end submit-accepted → value-visible latency (ns) per
    /// mutation; the SLO the overload CI gate enforces at p99.
    pub ingest_visible_latency_ns: Histogram,
}

impl MetricsRegistry {
    pub(crate) fn new() -> Self {
        Self {
            batches_applied: Counter::new(
                "graphbolt_batches_applied_total",
                "Mutation batches committed (refined or degraded path)",
            ),
            mutations_applied: Counter::new(
                "graphbolt_mutations_applied_total",
                "Edge mutations contained in committed batches",
            ),
            batches_quarantined: Counter::new(
                "graphbolt_batches_quarantined_total",
                "Batches dead-lettered after a refinement panic",
            ),
            panics_recovered: Counter::new(
                "graphbolt_panics_recovered_total",
                "Refinement panics caught and recovered by session workers",
            ),
            backpressure_rejections: Counter::new(
                "graphbolt_backpressure_rejections_total",
                "Non-blocking submissions rejected by a full queue",
            ),
            checkpoints_written: Counter::new(
                "graphbolt_checkpoints_written_total",
                "Session checkpoints successfully written",
            ),
            checkpoint_failures: Counter::new(
                "graphbolt_checkpoint_failures_total",
                "Session checkpoint attempts that failed",
            ),
            edge_computations: Counter::new(
                "graphbolt_edge_computations_total",
                "Contribution / delta / retraction evaluations",
            ),
            vertex_computations: Counter::new(
                "graphbolt_vertex_computations_total",
                "Vertex compute evaluations",
            ),
            iterations: Counter::new(
                "graphbolt_iterations_total",
                "BSP iterations executed (initial + refinement + hybrid)",
            ),
            admit: [
                Counter::new(
                    "graphbolt_admit_interactive_total",
                    "Interactive-class requests admitted by the front door",
                ),
                Counter::new(
                    "graphbolt_admit_bulk_total",
                    "Bulk-class requests admitted by the front door",
                ),
                Counter::new(
                    "graphbolt_admit_best_effort_total",
                    "Best-effort-class requests admitted by the front door",
                ),
            ],
            shed: [
                Counter::new(
                    "graphbolt_shed_interactive_total",
                    "Interactive-class requests shed by admission control",
                ),
                Counter::new(
                    "graphbolt_shed_bulk_total",
                    "Bulk-class requests shed by admission control",
                ),
                Counter::new(
                    "graphbolt_shed_best_effort_total",
                    "Best-effort-class requests shed by admission control",
                ),
            ],
            retry_after: [
                Counter::new(
                    "graphbolt_retry_after_interactive_total",
                    "Typed RetryAfter responses issued to interactive clients",
                ),
                Counter::new(
                    "graphbolt_retry_after_bulk_total",
                    "Typed RetryAfter responses issued to bulk clients",
                ),
                Counter::new(
                    "graphbolt_retry_after_best_effort_total",
                    "Typed RetryAfter responses issued to best-effort clients",
                ),
            ],
            deadline_shed: Counter::new(
                "graphbolt_deadline_shed_total",
                "Commands shed because their deadline expired before service",
            ),
            singleton_fast_path: Counter::new(
                "graphbolt_singleton_fast_path_total",
                "Singleton updates served by the batch-bypass fast path",
            ),
            span_trees_completed: Counter::new(
                "graphbolt_span_trees_completed_total",
                "Span trees completed into the flight recorder",
            ),
            span_orphans: Counter::new(
                "graphbolt_span_orphans_total",
                "Span recordings referencing a trace no longer active",
            ),
            span_flight_dumps: Counter::new(
                "graphbolt_span_flight_dumps_total",
                "Automatic flight-recorder dumps triggered",
            ),
            queue_occupancy: Gauge::new(
                "graphbolt_queue_occupancy",
                "Commands currently queued for the session worker",
            ),
            degrade_level: Gauge::new(
                "graphbolt_degrade_level",
                "Memory-budget degrade level (0 none, 1 pruned, 2 dropped)",
            ),
            stored_aggregations: Gauge::new(
                "graphbolt_stored_aggregations",
                "Aggregation records held by the dependency store",
            ),
            store_bytes: Gauge::new(
                "graphbolt_store_bytes",
                "Dependency-store footprint in bytes",
            ),
            span_critical_phase: Gauge::new(
                "graphbolt_span_critical_phase",
                "Dominant phase of the latest batch (0 tag, 1 propagate, 2 apply, 3 structure)",
            ),
            batch_refine_ns: Histogram::new(
                "graphbolt_batch_refine_ns",
                "Per-batch end-to-end refinement latency in nanoseconds",
            ),
            bsp_iteration_ns: Histogram::new(
                "graphbolt_bsp_iteration_ns",
                "Per-iteration BSP step latency in nanoseconds",
            ),
            refine_tag_ns: Histogram::new(
                "graphbolt_refine_tag_ns",
                "Refinement tag phase latency in nanoseconds",
            ),
            refine_propagate_ns: Histogram::new(
                "graphbolt_refine_propagate_ns",
                "Refinement propagate phase latency in nanoseconds",
            ),
            refine_apply_ns: Histogram::new(
                "graphbolt_refine_apply_ns",
                "Refinement apply phase latency in nanoseconds",
            ),
            queue_depth: Histogram::new(
                "graphbolt_queue_depth",
                "Ingestion-queue depth sampled at each worker dequeue",
            ),
            checkpoint_write_ns: Histogram::new(
                "graphbolt_checkpoint_write_ns",
                "Per-checkpoint serialize and persist latency in nanoseconds",
            ),
            span_queue_ns: Histogram::new(
                "graphbolt_span_queue_ns",
                "Per-mutation session-queue wait in nanoseconds",
            ),
            span_service_ns: Histogram::new(
                "graphbolt_span_service_ns",
                "Per-mutation dequeue-to-visible service time in nanoseconds",
            ),
            ingest_visible_latency_ns: Histogram::new(
                "graphbolt_ingest_visible_latency_ns",
                "Submit-accepted to value-visible latency in nanoseconds",
            ),
        }
    }

    /// All counters, registration order.
    pub fn counters(&self) -> [&Counter; 24] {
        [
            &self.batches_applied,
            &self.mutations_applied,
            &self.batches_quarantined,
            &self.panics_recovered,
            &self.backpressure_rejections,
            &self.checkpoints_written,
            &self.checkpoint_failures,
            &self.edge_computations,
            &self.vertex_computations,
            &self.iterations,
            &self.admit[0],
            &self.admit[1],
            &self.admit[2],
            &self.shed[0],
            &self.shed[1],
            &self.shed[2],
            &self.retry_after[0],
            &self.retry_after[1],
            &self.retry_after[2],
            &self.deadline_shed,
            &self.singleton_fast_path,
            &self.span_trees_completed,
            &self.span_orphans,
            &self.span_flight_dumps,
        ]
    }

    /// All gauges, registration order.
    pub fn gauges(&self) -> [&Gauge; 5] {
        [
            &self.queue_occupancy,
            &self.degrade_level,
            &self.stored_aggregations,
            &self.store_bytes,
            &self.span_critical_phase,
        ]
    }

    /// All histograms, registration order.
    pub fn histograms(&self) -> [&Histogram; 10] {
        [
            &self.batch_refine_ns,
            &self.bsp_iteration_ns,
            &self.refine_tag_ns,
            &self.refine_propagate_ns,
            &self.refine_apply_ns,
            &self.queue_depth,
            &self.checkpoint_write_ns,
            &self.span_queue_ns,
            &self.span_service_ns,
            &self.ingest_visible_latency_ns,
        ]
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters()
                .iter()
                .map(|c| MetricValue {
                    name: c.name(),
                    help: c.help(),
                    value: c.get(),
                })
                .collect(),
            gauges: self
                .gauges()
                .iter()
                .map(|g| MetricValue {
                    name: g.name(),
                    help: g.help(),
                    value: g.get(),
                })
                .collect(),
            histograms: self.histograms().iter().map(|h| h.snapshot()).collect(),
        }
    }

    /// Prometheus text-format exposition of the current state.
    pub fn render_prometheus(&self) -> String {
        encode::prometheus(&self.snapshot())
    }

    /// JSON exposition of the current state.
    pub fn render_json(&self) -> String {
        encode::json(&self.snapshot())
    }
}

/// `Duration` → saturated nanoseconds for histogram recording.
#[inline]
pub fn saturating_nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let m = MetricsRegistry::new();
        let mut names: Vec<&str> = Vec::new();
        for c in m.counters() {
            names.push(c.name());
        }
        for g in m.gauges() {
            names.push(g.name());
        }
        for h in m.histograms() {
            names.push(h.name());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name registered");
        for name in names {
            let rest = name.strip_prefix("graphbolt_").unwrap_or_else(|| {
                panic!("metric `{name}` missing graphbolt_ prefix")
            });
            assert!(
                !rest.is_empty()
                    && rest.bytes().all(|b| b == b'_' || b.is_ascii_lowercase()),
                "metric `{name}` violates graphbolt_[a-z_]+"
            );
        }
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = Counter::new("graphbolt_test_total", "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new("graphbolt_test_gauge", "test");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn snapshot_covers_every_registered_metric() {
        let m = MetricsRegistry::new();
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), m.counters().len());
        assert_eq!(snap.gauges.len(), m.gauges().len());
        assert_eq!(snap.histograms.len(), m.histograms().len());
    }
}
