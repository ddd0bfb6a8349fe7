//! Request-scoped causal tracing: span trees, a flight recorder of
//! recently completed traces, and per-batch critical-path attribution
//! (DESIGN.md §10.2).
//!
//! A [`TraceCtx`] is minted at the front door (honoring an
//! `X-Request-Id` header, else drawn from a seeded splitmix64 stream)
//! and propagated through admission → session queue → worker dequeue →
//! refinement batch → tag/propagate/apply phases → checkpoint. Every request
//! yields one rooted span tree with queue time and service time
//! attributed separately; a refinement batch gets its *own* trace whose
//! root records **follows-from** links to the many request traces it
//! serves — fan-in is causality, not parentage, so request trees stay
//! trees.
//!
//! Each engine owns one recorder, reached through
//! [`EngineStats::spans`](crate::EngineStats::spans); its session and
//! front door record into the same one, and no other engine's traces
//! ever appear in it.
//!
//! Cost model: a disabled recorder costs each instrumented site one
//! padded relaxed load of a handle the caller already holds. When
//! recording is on ([`Spans::enable`]), sites take the recorder's short
//! mutex — request-rate work, never per-edge work.
//!
//! The **flight recorder** is a fixed-size ring of completed traces,
//! served on demand at `/debug/flight` (and `gbolt trace`), and dumped
//! to JSONL automatically on quarantine, on a deadline-shed spike, or
//! on an SLO breach when a dump path is configured. Independently of
//! the ring, every completed trace can be teed to a file as it
//! completes, in the same one-object-per-line schema — see
//! [`FlightConfig`].

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use graphbolt_engine::parallel::WorkCounter;

use crate::laws::SplitMix64;
use crate::telemetry::MetricsRegistry;

/// Seed of the trace-id stream: fixed, so replays mint reproducible ids.
const SPAN_SEED: u64 = 0x0000_05EE_D50F_50DA;

/// Default flight-recorder capacity (completed traces retained).
const DEFAULT_RING: usize = 64;

/// Width of the deadline-shed spike window in nanoseconds (1 s).
const SHED_WINDOW_NS: u64 = 1_000_000_000;

/// Request-scoped causal context: which trace a unit of work belongs to
/// and which span is its parent. `Copy` so it rides inside queued
/// commands for free; a zero `trace_id` means tracing was off (or the
/// caller opted out) when the request entered — every recording call is
/// a no-op for such a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace identifier (0 = disabled context).
    pub trace_id: u64,
    /// Span to parent new child spans under (the root span for contexts
    /// minted at the front door).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// The inert context: recording calls against it do nothing.
    pub const fn disabled() -> Self {
        Self {
            trace_id: 0,
            parent_span_id: 0,
        }
    }

    /// True when this context belongs to a live trace.
    pub fn is_active(self) -> bool {
        self.trace_id != 0
    }
}

/// One completed span inside a trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within its trace (the root is always 1).
    pub span_id: u64,
    /// Parent span id (0 only for the root).
    pub parent_span_id: u64,
    /// Stable span name (`request`, `admit`, `queue`, `service`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
    /// Refinement iteration for phase spans (0 when not applicable).
    pub iteration: u64,
}

/// What kind of work a trace covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A front-door request (update, batch, or query).
    Request,
    /// A coalesced refinement batch (fan-in of many requests).
    Batch,
}

impl TraceKind {
    /// Stable lower-case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Request => "request",
            TraceKind::Batch => "batch",
        }
    }
}

/// A finished span tree held by the flight recorder.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// Trace identifier.
    pub trace_id: u64,
    /// Request or batch.
    pub kind: TraceKind,
    /// Terminal status: `ok`, `degraded` (a batch served by the
    /// full-recompute path), `shed`, `quarantined`, or an abandon reason
    /// (`bad_request`, `session_error`, ...).
    pub status: &'static str,
    /// Total nanoseconds spent waiting in the session queue.
    pub queue_ns: u64,
    /// Total nanoseconds of service (refinement reflected the work).
    pub service_ns: u64,
    /// Root span duration in nanoseconds.
    pub total_ns: u64,
    /// Trace ids of the request traces a batch trace serves
    /// (follows-from links; empty for request traces).
    pub follows_from: Vec<u64>,
    /// Every span of the tree, root first.
    pub spans: Vec<SpanRecord>,
}

/// Per-batch critical-path attribution: which refinement phase
/// dominated and how wide the request fan-in was.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathReport {
    /// Batches attributed so far (0 means the report is empty).
    pub batches: u64,
    /// Trace id of the batch the rest of the fields describe.
    pub trace_id: u64,
    /// Root span duration of that batch trace.
    pub total_ns: u64,
    /// Nanoseconds adjusting the graph structure (applying the batch to
    /// the snapshot) before refinement.
    pub structure_ns: u64,
    /// Nanoseconds in the tag phase across tracked iterations.
    pub tag_ns: u64,
    /// Nanoseconds in the propagate phase.
    pub propagate_ns: u64,
    /// Nanoseconds in the apply phase.
    pub apply_ns: u64,
    /// Request traces the batch served (follows-from width).
    pub fan_in: u64,
    /// Nanoseconds spent writing the post-batch checkpoint (0 = none).
    pub checkpoint_ns: u64,
}

impl CriticalPathReport {
    /// Index of the wall-clock-dominant phase (0 tag, 1 propagate,
    /// 2 apply, 3 structure), also exported as the
    /// `graphbolt_span_critical_phase` gauge.
    pub fn dominant_phase_index(&self) -> u64 {
        let mut best = (0u64, self.tag_ns);
        for (i, ns) in [
            (1, self.propagate_ns),
            (2, self.apply_ns),
            (3, self.structure_ns),
        ] {
            if ns > best.1 {
                best = (i, ns);
            }
        }
        best.0
    }

    /// Name of the dominant phase.
    pub fn dominant_phase(&self) -> &'static str {
        match self.dominant_phase_index() {
            0 => "tag",
            1 => "propagate",
            2 => "apply",
            _ => "structure",
        }
    }
}

/// Flight-recorder tuning: when the ring dumps itself to JSONL, and
/// where completed traces are teed.
#[derive(Debug, Clone, Default)]
pub struct FlightConfig {
    /// Create (truncating) this file and append every completed trace to
    /// it, one JSON object per line, as it completes (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Append automatic dumps (and on-trigger snapshots) here; `None`
    /// disables automatic dumping (the `/debug/flight` route still
    /// serves the ring).
    pub dump_path: Option<PathBuf>,
    /// Dump when a completing request exceeds this many nanoseconds
    /// end to end (the ingest→visible SLO).
    pub slo_ns: Option<u64>,
    /// Dump when this many deadline sheds land within one second
    /// (0 disables the spike trigger).
    pub shed_spike: u64,
}

/// Accumulated engine-side attribution for one in-flight batch trace.
#[derive(Debug, Clone, Copy, Default)]
struct BatchAccum {
    structure_ns: u64,
    tag_ns: u64,
    propagate_ns: u64,
    apply_ns: u64,
    checkpoint_ns: u64,
}

/// One live (not yet completed) trace.
struct ActiveTrace {
    kind: TraceKind,
    start_ns: u64,
    next_span: u64,
    /// Outstanding mutations enqueued under this trace; the tree
    /// completes when the last one becomes visible (or is shed).
    pending: u64,
    queue_ns: u64,
    service_ns: u64,
    shed: bool,
    follows_from: Vec<u64>,
    spans: Vec<SpanRecord>,
    accum: BatchAccum,
}

impl ActiveTrace {
    /// A tree holding only its root span (id 1), opened at `start_ns`.
    fn new(kind: TraceKind, root: &'static str, start_ns: u64, follows_from: Vec<u64>) -> Self {
        Self {
            kind,
            start_ns,
            next_span: 2,
            pending: 0,
            queue_ns: 0,
            service_ns: 0,
            shed: false,
            follows_from,
            accum: BatchAccum::default(),
            spans: vec![SpanRecord {
                span_id: 1,
                parent_span_id: 0,
                name: root,
                start_ns,
                end_ns: start_ns,
                iteration: 0,
            }],
        }
    }
}

/// The flight recorder proper, guarded by the recorder's mutex.
struct Recorder {
    rng: SplitMix64,
    active: HashMap<u64, ActiveTrace>,
    ring: VecDeque<CompletedTrace>,
    capacity: usize,
    /// Completed traces evicted from the ring.
    evicted: u64,
    last_dump: Option<&'static str>,
    critical: CriticalPathReport,
    config: FlightConfig,
    /// Open `config.trace_out` file.
    tee: Option<File>,
    shed_window_start: Option<Instant>,
    shed_in_window: u64,
    /// The batch trace the engine is refining under, read by the phase
    /// attribution hook (one engine is refined by one thread at a time).
    current_batch: TraceCtx,
}

/// One engine's span recorder, owned by its
/// [`EngineStats`](crate::EngineStats) and used through [`Spans`].
/// Creating one allocates nothing: the ring grows as traces complete.
pub(crate) struct SpanRecorder {
    /// 1 while recording; a padded relaxed load gates every site.
    enabled: WorkCounter,
    /// Epoch every span timestamp is relative to.
    epoch: Instant,
    inner: Mutex<Recorder>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &(self.enabled.get() != 0))
            .finish_non_exhaustive()
    }
}

impl SpanRecorder {
    pub(crate) fn new() -> Self {
        Self {
            enabled: WorkCounter::new(),
            epoch: Instant::now(),
            inner: Mutex::new(Recorder {
                rng: SplitMix64::new(SPAN_SEED),
                active: HashMap::new(),
                ring: VecDeque::new(),
                capacity: DEFAULT_RING,
                evicted: 0,
                last_dump: None,
                critical: CriticalPathReport::default(),
                config: FlightConfig::default(),
                tee: None,
                shed_window_start: None,
                shed_in_window: 0,
                current_batch: TraceCtx::disabled(),
            }),
        }
    }

    fn guard(&self) -> MutexGuard<'_, Recorder> {
        // lint:allow(hot-path-blocking) — every recorder site is gated
        // behind `enabled()` (one relaxed load when tracing is off) and
        // runs at phase/batch/request granularity, never inside the
        // per-edge inner loops; contention is bounded by request rate.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn nanos(&self, t: Instant) -> u64 {
        nanos_since(self.epoch, t)
    }
}

/// An engine's span recorder together with the registry its
/// `graphbolt_span_*` metrics land in: the whole recording API.
#[derive(Debug, Clone, Copy)]
pub struct Spans<'a> {
    rec: &'a SpanRecorder,
    metrics: &'a MetricsRegistry,
}

fn nanos_since(epoch: Instant, t: Instant) -> u64 {
    crate::telemetry::saturating_nanos(t.saturating_duration_since(epoch))
}

/// Derives a trace id from a client-supplied `X-Request-Id` via the
/// splitmix64 finalizer, so one request id always maps to one trace id.
fn hash_request_id(id: &str) -> u64 {
    let mut h: u64 = SPAN_SEED;
    for b in id.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    let out = SplitMix64::new(h).next_u64();
    if out == 0 {
        1
    } else {
        out
    }
}

impl<'a> Spans<'a> {
    pub(crate) fn new(rec: &'a SpanRecorder, metrics: &'a MetricsRegistry) -> Self {
        Self { rec, metrics }
    }

    /// Turns span recording on (idempotent). The front door calls this at
    /// bind time, so live requests are traced by default; engine-only
    /// paths never enable it and pay a single branch per site.
    pub fn enable(self) {
        self.rec.enabled.set(1);
    }

    /// Turns recording off. Already-recorded traces stay readable.
    pub fn disable(self) {
        self.rec.enabled.set(0);
    }

    /// True while span recording is on. One padded relaxed load — the
    /// whole cost of an unsubscribed instrumented site.
    #[inline]
    pub fn enabled(self) -> bool {
        self.rec.enabled.get() != 0
    }

    /// Installs flight-recorder triggers (dump path, SLO, shed spike) and
    /// the completed-trace tee, replacing the previous configuration.
    ///
    /// # Errors
    ///
    /// The I/O error from creating `config.trace_out`; the previous
    /// configuration stays installed.
    pub fn configure(self, config: FlightConfig) -> std::io::Result<()> {
        let tee = config.trace_out.as_ref().map(File::create).transpose()?;
        let mut g = self.rec.guard();
        g.tee = tee;
        g.config = config;
        Ok(())
    }

    /// Mints a trace at the front door: honors `request_id` when the
    /// client sent one, else draws from the seeded stream. The returned
    /// context parents all of the request's child spans under the root
    /// (span 1). Returns the disabled context when recording is off.
    pub fn mint(self, request_id: Option<&str>) -> TraceCtx {
        if !self.enabled() {
            return TraceCtx::disabled();
        }
        let start_ns = self.rec.nanos(Instant::now());
        let mut g = self.rec.guard();
        let trace_id = match request_id {
            Some(id) => hash_request_id(id),
            None => {
                let draw = g.rng.next_u64();
                if draw == 0 {
                    1
                } else {
                    draw
                }
            }
        };
        // A client reusing an in-flight request id restarts its trace;
        // the old tree is flushed to the ring rather than silently lost.
        if let Some(stale) = g.active.remove(&trace_id) {
            self.finish_into_ring(&mut g, trace_id, stale, "superseded", start_ns);
        }
        g.active.insert(
            trace_id,
            ActiveTrace::new(TraceKind::Request, "request", start_ns, Vec::new()),
        );
        TraceCtx {
            trace_id,
            parent_span_id: 1,
        }
    }

    /// Records one completed child span under `ctx`'s parent span.
    /// Unknown trace ids count into `graphbolt_span_orphans_total` — a
    /// span that outlived (or never had) its tree is a bug worth
    /// surfacing.
    pub fn child(self, ctx: TraceCtx, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled() || !ctx.is_active() {
            return;
        }
        let span = (self.rec.nanos(start), self.rec.nanos(end));
        self.push_span(&mut self.rec.guard(), ctx, name, span, 0);
    }

    /// Appends one span to `ctx`'s live tree and returns the tree; an
    /// unknown trace counts as an orphan instead.
    fn push_span<'g>(
        self,
        g: &'g mut Recorder,
        ctx: TraceCtx,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        iteration: u64,
    ) -> Option<&'g mut ActiveTrace> {
        let Some(t) = g.active.get_mut(&ctx.trace_id) else {
            self.metrics.span_orphans.inc();
            return None;
        };
        let span_id = t.next_span;
        t.next_span += 1;
        t.spans.push(SpanRecord {
            span_id,
            parent_span_id: ctx.parent_span_id,
            name,
            start_ns,
            end_ns,
            iteration,
        });
        Some(t)
    }

    /// Notes one mutation enqueued under `ctx`: the request tree stays
    /// open until a matching [`Spans::queue_service`] or [`Spans::shed`]
    /// lands for each.
    pub fn note_enqueued(self, ctx: TraceCtx) {
        if !self.enabled() || !ctx.is_active() {
            return;
        }
        if let Some(t) = self.rec.guard().active.get_mut(&ctx.trace_id) {
            t.pending += 1;
        }
    }

    /// Records the queue-wait and service spans of one mutation that just
    /// became visible, and completes the request tree when it was the
    /// last outstanding one. Also feeds `graphbolt_span_queue_ns` /
    /// `graphbolt_span_service_ns` and arms the SLO dump trigger.
    pub fn queue_service(
        self,
        ctx: TraceCtx,
        submitted: Instant,
        dequeued: Instant,
        visible: Instant,
    ) {
        if !self.enabled() || !ctx.is_active() {
            return;
        }
        let sub_ns = self.rec.nanos(submitted);
        let deq_ns = self.rec.nanos(dequeued);
        let vis_ns = self.rec.nanos(visible);
        let queue_ns = deq_ns.saturating_sub(sub_ns);
        let service_ns = vis_ns.saturating_sub(deq_ns);
        self.metrics.span_queue_ns.record(queue_ns);
        self.metrics.span_service_ns.record(service_ns);
        let mut g = self.rec.guard();
        let Some(t) = g.active.get_mut(&ctx.trace_id) else {
            return; // trace abandoned earlier; not an orphan span
        };
        let queue_id = t.next_span;
        t.next_span += 2;
        t.spans.push(SpanRecord {
            span_id: queue_id,
            parent_span_id: ctx.parent_span_id,
            name: "queue",
            start_ns: sub_ns,
            end_ns: deq_ns,
            iteration: 0,
        });
        t.spans.push(SpanRecord {
            span_id: queue_id + 1,
            parent_span_id: ctx.parent_span_id,
            name: "service",
            start_ns: deq_ns,
            end_ns: vis_ns,
            iteration: 0,
        });
        t.queue_ns = t.queue_ns.saturating_add(queue_ns);
        t.service_ns = t.service_ns.saturating_add(service_ns);
        t.pending = t.pending.saturating_sub(1);
        if t.pending == 0 {
            if let Some(done) = g.active.remove(&ctx.trace_id) {
                self.finish_into_ring(&mut g, ctx.trace_id, done, "ok", vis_ns);
                self.maybe_slo_dump(&mut g, vis_ns.saturating_sub(sub_ns));
            }
        }
    }

    /// Records a shed (deadline or admission) against `ctx` and completes
    /// the tree. Also advances the shed-spike dump trigger.
    pub fn shed(self, ctx: TraceCtx, stage: &'static str) {
        if !self.enabled() {
            return;
        }
        let now_ns = self.rec.nanos(Instant::now());
        let mut g = self.rec.guard();
        self.note_shed_spike(&mut g);
        if !ctx.is_active() {
            return;
        }
        let Some(mut t) = g.active.remove(&ctx.trace_id) else {
            return;
        };
        let span_id = t.next_span;
        t.next_span += 1;
        t.spans.push(SpanRecord {
            span_id,
            parent_span_id: ctx.parent_span_id,
            name: stage,
            start_ns: now_ns,
            end_ns: now_ns,
            iteration: 0,
        });
        t.shed = true;
        t.pending = t.pending.saturating_sub(1);
        if t.pending == 0 {
            self.finish_into_ring(&mut g, ctx.trace_id, t, "shed", now_ns);
        } else {
            g.active.insert(ctx.trace_id, t);
        }
    }

    /// Force-completes `ctx`'s tree now with `status` (query success,
    /// parse failure, session error, quarantine). A no-op for unknown
    /// traces — the tree may have completed through the visibility path
    /// already.
    pub fn complete(self, ctx: TraceCtx, status: &'static str) {
        if !self.enabled() || !ctx.is_active() {
            return;
        }
        let now_ns = self.rec.nanos(Instant::now());
        let mut g = self.rec.guard();
        if let Some(t) = g.active.remove(&ctx.trace_id) {
            self.finish_into_ring(&mut g, ctx.trace_id, t, status, now_ns);
            if status == "quarantined" {
                self.dump(&mut g, "quarantine");
            }
        }
    }

    /// Opens a batch trace serving the given request contexts; its root
    /// records follows-from links to each (fan-in is causality, not
    /// parentage). The new context also becomes the engine's current
    /// batch, so phase samples attribute to it. Returns the disabled
    /// context when recording is off.
    pub fn begin_batch(self, follows: &[TraceCtx]) -> TraceCtx {
        if !self.enabled() {
            return TraceCtx::disabled();
        }
        let start_ns = self.rec.nanos(Instant::now());
        let mut g = self.rec.guard();
        let draw = g.rng.next_u64();
        let trace_id = if draw == 0 { 1 } else { draw };
        // Dedup: a batch request contributes one mutation per edge but
        // all on the same trace; the fan-in link is per *request*, not
        // per edge.
        let mut follows_from: Vec<u64> = follows
            .iter()
            .filter(|c| c.is_active())
            .map(|c| c.trace_id)
            .collect();
        follows_from.sort_unstable();
        follows_from.dedup();
        g.active.insert(
            trace_id,
            ActiveTrace::new(TraceKind::Batch, "refine_batch", start_ns, follows_from),
        );
        let ctx = TraceCtx {
            trace_id,
            parent_span_id: 1,
        };
        g.current_batch = ctx;
        ctx
    }

    /// Records one phase timing that just ended (`structure`, or `tag` /
    /// `propagate` / `apply` of refinement iteration `iteration`) against
    /// the engine's current batch: a phase span plus the critical-path
    /// accumulator.
    pub fn batch_phase(self, iteration: u64, phase: &'static str, nanos: u64) {
        if !self.enabled() {
            return;
        }
        let end_ns = self.rec.nanos(Instant::now());
        let mut g = self.rec.guard();
        let ctx = g.current_batch;
        if !ctx.is_active() {
            return;
        }
        let span = (end_ns.saturating_sub(nanos), end_ns);
        let Some(t) = self.push_span(&mut g, ctx, phase, span, iteration) else {
            return;
        };
        let slot = match phase {
            "structure" => &mut t.accum.structure_ns,
            "tag" => &mut t.accum.tag_ns,
            "propagate" => &mut t.accum.propagate_ns,
            _ => &mut t.accum.apply_ns,
        };
        *slot = slot.saturating_add(nanos);
    }

    /// Records the post-batch checkpoint span against the batch trace.
    pub fn batch_checkpoint(self, ctx: TraceCtx, start: Instant, end: Instant) {
        if !self.enabled() || !ctx.is_active() {
            return;
        }
        let (start_ns, end_ns) = (self.rec.nanos(start), self.rec.nanos(end));
        let mut g = self.rec.guard();
        if let Some(t) = self.push_span(&mut g, ctx, "checkpoint", (start_ns, end_ns), 0) {
            t.accum.checkpoint_ns = t.accum.checkpoint_ns.saturating_add(end_ns - start_ns);
        }
    }

    /// Closes a batch trace: publishes the per-batch critical-path
    /// report, updates the `graphbolt_span_*` summary metrics, and clears
    /// the engine's current batch. `status` is `ok`, `degraded` or
    /// `quarantined`.
    pub fn end_batch(self, ctx: TraceCtx, status: &'static str) {
        if !ctx.is_active() {
            return;
        }
        let now_ns = self.rec.nanos(Instant::now());
        let mut g = self.rec.guard();
        g.current_batch = TraceCtx::disabled();
        let Some(t) = g.active.remove(&ctx.trace_id) else {
            return;
        };
        let report = CriticalPathReport {
            batches: g.critical.batches + 1,
            trace_id: ctx.trace_id,
            total_ns: now_ns.saturating_sub(t.start_ns),
            structure_ns: t.accum.structure_ns,
            tag_ns: t.accum.tag_ns,
            propagate_ns: t.accum.propagate_ns,
            apply_ns: t.accum.apply_ns,
            fan_in: t.follows_from.len() as u64,
            checkpoint_ns: t.accum.checkpoint_ns,
        };
        self.metrics
            .span_critical_phase
            .set(report.dominant_phase_index());
        g.critical = report;
        self.finish_into_ring(&mut g, ctx.trace_id, t, status, now_ns);
        if status == "quarantined" {
            self.dump(&mut g, "quarantine");
        }
    }

    /// Moves one active trace into the ring as completed, teeing it to
    /// the `trace_out` file when one is configured. Write errors are
    /// dropped: trace output must never take down the session it
    /// observes.
    fn finish_into_ring(
        self,
        g: &mut Recorder,
        trace_id: u64,
        mut t: ActiveTrace,
        status: &'static str,
        end_ns: u64,
    ) {
        if let Some(root) = t.spans.first_mut() {
            root.end_ns = end_ns.max(root.start_ns);
        }
        let completed = CompletedTrace {
            trace_id,
            kind: t.kind,
            status,
            queue_ns: t.queue_ns,
            service_ns: t.service_ns,
            total_ns: end_ns.saturating_sub(t.start_ns),
            follows_from: t.follows_from,
            spans: t.spans,
        };
        if let Some(f) = &mut g.tee {
            let _ = writeln!(f, "{}", trace_json(&completed, None));
        }
        if g.ring.len() == g.capacity {
            g.ring.pop_front();
            g.evicted += 1;
        }
        g.ring.push_back(completed);
        self.metrics.span_trees_completed.inc();
    }

    /// SLO-breach trigger: a completing request blew the configured
    /// budget.
    fn maybe_slo_dump(self, g: &mut Recorder, total_ns: u64) {
        if g.config.slo_ns.is_some_and(|slo| total_ns > slo) {
            self.dump(g, "slo_breach");
        }
    }

    /// Shed-spike trigger bookkeeping, shared by every shed site.
    fn note_shed_spike(self, g: &mut Recorder) {
        if g.config.shed_spike == 0 {
            return;
        }
        let now = Instant::now();
        let fresh = match g.shed_window_start {
            Some(start) => nanos_since(start, now) > SHED_WINDOW_NS,
            None => true,
        };
        if fresh {
            g.shed_window_start = Some(now);
            g.shed_in_window = 0;
        }
        g.shed_in_window += 1;
        if g.shed_in_window == g.config.shed_spike {
            self.dump(g, "shed_spike");
        }
    }

    /// Appends the ring to the configured dump path as JSONL (one trace
    /// per line, tagged with the trigger). No path configured → the
    /// trigger is still counted in `last_dump` and the metrics, so
    /// operators see that a dump-worthy condition occurred.
    fn dump(self, g: &mut Recorder, reason: &'static str) {
        g.last_dump = Some(reason);
        self.metrics.span_flight_dumps.inc();
        let Some(path) = g.config.dump_path.clone() else {
            return;
        };
        // lint:allow(deadline-propagation) — dumps fire only on rare
        // trigger conditions (quarantine, SLO breach, shed spike) and
        // append a bounded ring (≤ capacity traces) to a local file; the
        // one-off append is the flight recorder's documented trade-off.
        let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) else {
            return;
        };
        for trace in &g.ring {
            let _ = writeln!(f, "{}", trace_json(trace, Some(reason)));
        }
    }

    /// Copies out the flight recorder's completed traces, oldest first.
    pub fn flight_traces(self) -> Vec<CompletedTrace> {
        self.rec.guard().ring.iter().cloned().collect()
    }

    /// The latest critical-path report (`batches == 0` when empty).
    pub fn critical_report(self) -> CriticalPathReport {
        self.rec.guard().critical.clone()
    }

    /// The `/debug/flight` JSON body: the ring plus bookkeeping the CI
    /// overload gate asserts on (orphan count, evictions, last dump).
    pub fn flight_json(self) -> String {
        let g = self.rec.guard();
        let mut s = String::with_capacity(1024);
        s.push_str("{\"traces\":[");
        for (i, t) in g.ring.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&trace_json(t, None));
        }
        s.push_str(&format!(
            "],\"orphans\":{},\"evicted\":{},\"last_dump\":",
            self.metrics.span_orphans.get(),
            g.evicted
        ));
        match g.last_dump {
            Some(reason) => s.push_str(&format!("\"{reason}\"")),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }

    /// The `/debug/critical` JSON body: the latest per-batch critical
    /// path.
    pub fn critical_json(self) -> String {
        let r = self.critical_report();
        format!(
            "{{\"batches\":{},\"trace_id\":{},\"total_ns\":{},\"structure_ns\":{},\"tag_ns\":{},\"propagate_ns\":{},\"apply_ns\":{},\"dominant_phase\":\"{}\",\"fan_in\":{},\"checkpoint_ns\":{}}}",
            r.batches,
            r.trace_id,
            r.total_ns,
            r.structure_ns,
            r.tag_ns,
            r.propagate_ns,
            r.apply_ns,
            r.dominant_phase(),
            r.fan_in,
            r.checkpoint_ns,
        )
    }
}

/// Renders one completed trace as a JSON object.
fn trace_json(t: &CompletedTrace, dump_reason: Option<&str>) -> String {
    let mut s = String::with_capacity(256);
    s.push_str(&format!(
        "{{\"trace_id\":{},\"kind\":\"{}\",\"status\":\"{}\",\"queue_ns\":{},\"service_ns\":{},\"total_ns\":{}",
        t.trace_id,
        t.kind.name(),
        t.status,
        t.queue_ns,
        t.service_ns,
        t.total_ns,
    ));
    if let Some(reason) = dump_reason {
        s.push_str(&format!(",\"dump_reason\":\"{reason}\""));
    }
    s.push_str(",\"follows_from\":[");
    for (i, id) in t.follows_from.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&id.to_string());
    }
    s.push_str("],\"spans\":[");
    for (i, span) in t.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"span_id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"iteration\":{}}}",
            span.span_id,
            span.parent_span_id,
            span.name,
            span.start_ns,
            span.end_ns,
            span.iteration,
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A fresh engine handle with recording on.
    fn setup() -> crate::EngineStats {
        let stats = crate::EngineStats::new();
        stats.spans().enable();
        stats
    }

    #[test]
    fn disabled_context_records_nothing() {
        let stats = setup();
        let sp = stats.spans();
        sp.disable();
        let ctx = sp.mint(None);
        assert!(!ctx.is_active());
        sp.child(ctx, "admit", Instant::now(), Instant::now());
        sp.enable();
        assert!(sp.flight_traces().is_empty());
    }

    #[test]
    fn request_id_header_is_honored_and_stable() {
        let stats = setup();
        let sp = stats.spans();
        let a = sp.mint(Some("req-7"));
        sp.complete(a, "ok");
        let b = sp.mint(Some("req-7"));
        sp.complete(b, "ok");
        assert_eq!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id, 0);
        let c = sp.mint(Some("req-8"));
        sp.complete(c, "ok");
        assert_ne!(c.trace_id, a.trace_id);
    }

    #[test]
    fn queue_and_service_complete_a_rooted_tree() {
        let stats = setup();
        let sp = stats.spans();
        let ctx = sp.mint(None);
        let t0 = Instant::now();
        sp.child(ctx, "admit", t0, t0 + Duration::from_micros(5));
        sp.note_enqueued(ctx);
        let submitted = t0 + Duration::from_micros(10);
        let dequeued = submitted + Duration::from_micros(40);
        let visible = dequeued + Duration::from_micros(100);
        sp.queue_service(ctx, submitted, dequeued, visible);
        let traces = sp.flight_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.status, "ok");
        assert_eq!(t.kind, TraceKind::Request);
        // Rooted: exactly one span with parent 0, and every other
        // parent id resolves inside the tree.
        let roots: Vec<_> = t.spans.iter().filter(|s| s.parent_span_id == 0).collect();
        assert_eq!(roots.len(), 1);
        for s in &t.spans {
            assert!(
                s.parent_span_id == 0
                    || t.spans.iter().any(|p| p.span_id == s.parent_span_id)
            );
        }
        // Queue + service fit inside the root span.
        assert!((t.queue_ns + t.service_ns) <= t.total_ns);
        assert!(t.queue_ns >= 39_000 && t.queue_ns <= 60_000, "{}", t.queue_ns);
        assert!(t.service_ns >= 99_000, "{}", t.service_ns);
    }

    #[test]
    fn batch_trace_links_requests_as_follows_from() {
        let stats = setup();
        let sp = stats.spans();
        let a = sp.mint(None);
        let b = sp.mint(None);
        let batch = sp.begin_batch(&[a, b, TraceCtx::disabled()]);
        sp.batch_phase(0, "structure", 3_000);
        sp.batch_phase(1, "tag", 1_000);
        sp.batch_phase(1, "propagate", 5_000);
        sp.batch_phase(1, "apply", 2_000);
        sp.end_batch(batch, "ok");
        sp.complete(a, "ok");
        sp.complete(b, "ok");
        let traces = sp.flight_traces();
        let bt = traces
            .iter()
            .find(|t| t.kind == TraceKind::Batch)
            .expect("batch trace");
        let mut expected = vec![a.trace_id, b.trace_id];
        expected.sort_unstable();
        assert_eq!(bt.follows_from, expected);
        assert_eq!(bt.spans[0].name, "refine_batch");
        let r = sp.critical_report();
        assert_eq!(r.batches, 1);
        assert_eq!(r.structure_ns, 3_000);
        assert_eq!(r.dominant_phase(), "propagate");
        assert_eq!(r.fan_in, 2);
        assert!(
            !sp.rec.guard().current_batch.is_active(),
            "end_batch clears the current batch"
        );
    }

    #[test]
    fn shed_completes_the_tree_with_shed_status() {
        let stats = setup();
        let sp = stats.spans();
        let ctx = sp.mint(None);
        sp.note_enqueued(ctx);
        sp.shed(ctx, "deadline_shed");
        let traces = sp.flight_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].status, "shed");
    }

    #[test]
    fn orphan_spans_are_counted_not_recorded() {
        let stats = setup();
        let sp = stats.spans();
        let ghost = TraceCtx {
            trace_id: 0xDEAD_BEEF,
            parent_span_id: 1,
        };
        sp.child(ghost, "admit", Instant::now(), Instant::now());
        assert_eq!(stats.metrics().span_orphans.get(), 1);
        assert!(sp.flight_traces().is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let stats = setup();
        let sp = stats.spans();
        for _ in 0..(DEFAULT_RING + 3) {
            let ctx = sp.mint(None);
            sp.complete(ctx, "ok");
        }
        let (traces, json) = (sp.flight_traces(), sp.flight_json());
        assert_eq!(traces.len(), DEFAULT_RING);
        assert!(json.contains("\"evicted\":3"), "{json}");
    }

    #[test]
    fn quarantine_trigger_dumps_jsonl() {
        let stats = setup();
        let sp = stats.spans();
        let path = std::env::temp_dir().join("graphbolt-span-dump-test.jsonl");
        let _ = std::fs::remove_file(&path);
        sp.configure(FlightConfig {
            dump_path: Some(path.clone()),
            ..FlightConfig::default()
        })
        .expect("no trace_out to create");
        let ctx = sp.mint(None);
        sp.complete(ctx, "ok");
        let batch = sp.begin_batch(&[ctx]);
        sp.end_batch(batch, "quarantined");
        let dumped = std::fs::read_to_string(&path).expect("dump written");
        assert!(dumped.contains("\"dump_reason\":\"quarantine\""), "{dumped}");
        assert!(dumped.lines().count() >= 2, "{dumped}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_out_tees_each_completed_tree_and_nothing_while_disabled() {
        let stats = setup();
        let sp = stats.spans();
        let path = std::env::temp_dir().join("graphbolt-span-tee-test.jsonl");
        sp.configure(FlightConfig {
            trace_out: Some(path.clone()),
            ..FlightConfig::default()
        })
        .expect("create tee file");
        sp.disable();
        sp.complete(sp.mint(None), "ok");
        let batch = sp.begin_batch(&[]);
        sp.batch_phase(0, "structure", 10);
        sp.end_batch(batch, "ok");
        let teed = std::fs::read_to_string(&path).expect("tee file exists");
        assert!(teed.is_empty(), "spans off must write nothing: {teed}");

        sp.enable();
        sp.complete(sp.mint(None), "ok");
        let batch = sp.begin_batch(&[]);
        sp.batch_phase(0, "structure", 10);
        sp.end_batch(batch, "degraded");
        let teed = std::fs::read_to_string(&path).expect("tee file exists");
        let lines: Vec<&str> = teed.lines().collect();
        assert_eq!(lines.len(), 2, "one line per completed tree: {teed}");
        assert!(lines[0].contains("\"kind\":\"request\""), "{teed}");
        assert!(lines[1].contains("\"status\":\"degraded\""), "{teed}");
        assert!(lines[1].contains("\"name\":\"structure\""), "{teed}");
        // Same schema as the flight ring: each line is a ring element.
        let flight = sp.flight_json();
        for line in lines {
            assert!(flight.contains(line), "{line} not in {flight}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn structure_can_dominate_the_critical_path() {
        let stats = setup();
        let sp = stats.spans();
        let batch = sp.begin_batch(&[]);
        sp.batch_phase(0, "structure", 9_000);
        sp.batch_phase(1, "tag", 1_000);
        sp.batch_phase(1, "propagate", 2_000);
        sp.batch_phase(1, "apply", 500);
        sp.end_batch(batch, "ok");
        let r = sp.critical_report();
        assert_eq!(r.dominant_phase(), "structure");
        assert_eq!(r.dominant_phase_index(), 3);
        assert!(sp.critical_json().contains("\"structure_ns\":9000"));
    }

    #[test]
    fn flight_json_shape_is_parseable() {
        let stats = setup();
        let sp = stats.spans();
        let ctx = sp.mint(Some("shape"));
        sp.note_enqueued(ctx);
        let now = Instant::now();
        sp.queue_service(ctx, now, now, now);
        let json = sp.flight_json();
        assert!(json.starts_with("{\"traces\":["), "{json}");
        assert!(json.contains("\"kind\":\"request\""), "{json}");
        assert!(json.contains("\"spans\":["), "{json}");
        let crit = sp.critical_json();
        assert!(crit.starts_with("{\"batches\":"), "{crit}");
    }
}
