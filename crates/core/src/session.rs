//! Live streaming sessions: mutation buffering, panic isolation,
//! backpressure, and crash recovery.
//!
//! §4.1 of the paper: *"Mutations arriving during refinement are buffered
//! to prioritize latency of the ongoing refinement step, and are applied
//! immediately after refining finishes."* [`StreamSession`] realizes
//! that contract: producers submit single-edge mutations from any thread;
//! a worker thread owns the [`StreamingEngine`], coalesces everything
//! that arrived while it was busy into one batch, and refines. Query
//! requests are serviced between batches, so observed values always
//! correspond to a complete snapshot (BSP consistency is never exposed
//! mid-refinement).
//!
//! On top of the paper's buffering contract the session adds a
//! service-robustness layer:
//!
//! * **Panic isolation** — each refinement runs under
//!   [`std::panic::catch_unwind`]. A panicking batch is quarantined into
//!   a dead-letter queue and the engine is rebuilt by a from-scratch
//!   recompute on the last good snapshot (the engine's graph is only
//!   swapped *after* refinement succeeds, so the snapshot is never
//!   corrupted). The session keeps serving; [`SessionStats`] records the
//!   recovery.
//! * **Bounded ingestion** — [`SessionConfig::queue_capacity`] turns the
//!   command channel into a bounded queue. [`StreamSession::add`] blocks
//!   when full (backpressure), [`StreamSession::try_add`] reports
//!   [`SessionError::QueueFull`] for callers that would rather shed or
//!   retry.
//! * **Checkpoint cadence** — a [`CheckpointPolicy`] makes the worker
//!   persist a recoverable checkpoint every N batches (atomic
//!   temp-file + rename, pruned to the newest few). Recovery goes
//!   through [`crate::checkpoint::recover_session`], which skips
//!   truncated/corrupted files in favour of the previous good one.

// Owns exactly one thread: the session worker.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphbolt_engine::parallel::WorkCounter;
use graphbolt_graph::{Edge, MutationBatch, VertexId};

use crate::admission::AdmissionController;
use crate::algorithm::Algorithm;
use crate::checkpoint::{self, CheckpointError, StateCodec};
use crate::stats::EngineStats;
use crate::streaming::{DegradeLevel, StreamingEngine};
use crate::telemetry;

/// One edge mutation in flight: the edge, its direction, when the
/// producer submitted it (feeds the ingest→visible histogram), the
/// deadline past which the worker sheds it unserved, and the causal
/// trace it belongs to (queue/service spans are recorded against it
/// when the mutation becomes visible).
#[derive(Debug, Clone, Copy)]
struct QueuedMutation {
    edge: Edge,
    add: bool,
    submitted: Instant,
    deadline: Option<Instant>,
    trace: telemetry::TraceCtx,
}

/// Commands accepted by the session worker.
enum Command<V> {
    /// Buffer one mutation into the coalescing batch.
    Mutate(QueuedMutation),
    /// Fast path: apply the backlog, then this mutation immediately as a
    /// batch of one — it never waits in the coalescing buffer.
    Singleton(QueuedMutation),
    /// Apply everything buffered, then reply with the current values
    /// (or shed with `DeadlineExceeded` if the deadline passed first).
    Query {
        reply: SyncSender<Result<Vec<V>, SessionError>>,
        deadline: Option<Instant>,
        trace: telemetry::TraceCtx,
    },
    /// Apply everything buffered, then reply when done.
    Flush(SyncSender<()>),
    Shutdown,
}

/// Sending half of the command queue. `std::sync::mpsc` gives bounded
/// and unbounded queues different sender types, and
/// [`SessionConfig::queue_capacity`] picks between them at spawn.
enum CommandSender<T> {
    Unbounded(mpsc::Sender<T>),
    Bounded(SyncSender<T>),
}

impl<T> CommandSender<T> {
    /// Blocks while a bounded queue is full.
    fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
        match self {
            Self::Unbounded(tx) => tx.send(value),
            Self::Bounded(tx) => tx.send(value),
        }
    }

    /// Never blocks; only a bounded queue can report `Full`.
    fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        match self {
            Self::Unbounded(tx) => tx.send(value).map_err(|e| TrySendError::Disconnected(e.0)),
            Self::Bounded(tx) => tx.try_send(value),
        }
    }
}

/// Errors surfaced by session submission and shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The worker thread is gone — its channel disconnected or its thread
    /// could not be joined. The session cannot serve anymore.
    WorkerGone,
    /// Non-blocking submission found the bounded queue full; the caller
    /// should back off and retry, or shed load.
    QueueFull,
    /// The request's deadline expired before it could be served — either
    /// before enqueue (it never consumed queue capacity) or while it
    /// waited in the queue (the worker shed it at dequeue).
    DeadlineExceeded,
    /// An armed fault-injection plan rejected the submission (site
    /// `session::ingest`; only reachable with the `fault-injection`
    /// feature).
    Injected,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerGone => write!(f, "session worker is gone"),
            Self::QueueFull => write!(f, "session queue is full"),
            Self::DeadlineExceeded => write!(f, "deadline exceeded before service"),
            Self::Injected => write!(f, "injected ingestion fault"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Statistics of a completed session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Refinement rounds executed (including quarantined ones).
    pub batches: usize,
    /// Mutations accepted into batches (conflicting ones are dropped by
    /// normalization, as the paper's update streams do).
    pub mutations_applied: usize,
    /// Mutations dropped as conflicting/duplicate.
    pub mutations_dropped: usize,
    /// Refinements that panicked and were recovered by rebuilding on the
    /// last good snapshot.
    pub panics_recovered: usize,
    /// Batches quarantined into the dead-letter queue.
    pub batches_quarantined: usize,
    /// Mutations inside quarantined batches (they are *not* part of the
    /// served graph).
    pub mutations_quarantined: usize,
    /// Checkpoints successfully written by the cadence policy.
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (the session keeps serving;
    /// durability is best-effort, availability is not).
    pub checkpoint_failures: usize,
    /// Commands shed because their deadline expired before service.
    pub deadline_shed: usize,
    /// Singleton updates served by the batch-bypass fast path.
    pub singletons: usize,
}

/// A batch that could not be applied, preserved for post-mortem.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The normalized batch that failed.
    pub batch: MutationBatch,
    /// Panic message or validation error that killed it.
    pub reason: String,
}

/// Everything a finished session hands back.
pub struct SessionOutcome<A: Algorithm> {
    /// The engine, caught up with every applied batch.
    pub engine: StreamingEngine<A>,
    /// Session counters.
    pub stats: SessionStats,
    /// Quarantined batches, oldest first (capped by
    /// [`SessionConfig::max_dead_letters`]; the stats keep the true
    /// totals).
    pub dead_letters: Vec<DeadLetter>,
}

/// Periodic checkpointing performed by the session worker.
///
/// The codecs are captured in a closure so the session handle stays
/// generic only over the algorithm.
pub struct CheckpointPolicy<A: Algorithm> {
    dir: PathBuf,
    every: usize,
    keep: usize,
    #[allow(clippy::type_complexity)]
    write: Arc<
        dyn Fn(&Path, &StreamingEngine<A>, u64) -> Result<PathBuf, CheckpointError> + Send + Sync,
    >,
}

impl<A: Algorithm> CheckpointPolicy<A> {
    /// Checkpoints into `dir` after every `every` batches, keeping the
    /// newest `keep` files (`every` and `keep` are clamped to at least 1).
    /// Sequence numbers continue from the highest checkpoint already in
    /// `dir`, so a session resumed from a recovered checkpoint never
    /// numbers its new checkpoints below the ones it resumed from.
    pub fn new<CV, CG>(
        dir: impl Into<PathBuf>,
        every: usize,
        keep: usize,
        value_codec: CV,
        agg_codec: CG,
    ) -> Self
    where
        CV: StateCodec<A::Value> + Send + Sync + 'static,
        CG: StateCodec<A::Agg> + Send + Sync + 'static,
    {
        Self {
            dir: dir.into(),
            every: every.max(1),
            keep: keep.max(1),
            write: Arc::new(move |dir, engine, seq| {
                checkpoint::write_session_checkpoint(dir, engine, seq, &value_codec, &agg_codec)
            }),
        }
    }
}

/// Session tuning knobs. `Default` reproduces the original behaviour:
/// unbounded ingestion, no checkpointing.
pub struct SessionConfig<A: Algorithm> {
    /// Bound on the command queue. `None` is unbounded; `Some(c)` makes
    /// blocking submission exert backpressure and `try_*` submission
    /// return [`SessionError::QueueFull`].
    pub queue_capacity: Option<usize>,
    /// Periodic checkpointing, off by default.
    pub checkpoint: Option<CheckpointPolicy<A>>,
    /// Maximum quarantined batches retained for post-mortem (oldest are
    /// discarded beyond this; stats still count them).
    pub max_dead_letters: usize,
    /// Admission controller to keep in sync with the engine's degrade
    /// level: after every applied batch the worker feeds
    /// [`StreamingEngine::degrade_level`] into
    /// [`AdmissionController::observe_degrade`], so a degraded session
    /// tightens front-door admission instead of timing requests out
    /// mid-refinement.
    pub admission: Option<Arc<AdmissionController>>,
}

impl<A: Algorithm> Default for SessionConfig<A> {
    fn default() -> Self {
        Self {
            queue_capacity: None,
            checkpoint: None,
            max_dead_letters: 64,
            admission: None,
        }
    }
}

/// Handle to a live streaming session.
///
/// # Examples
///
/// ```
/// use graphbolt_core::{doctest_support::DocRank, EngineOptions, StreamingEngine, StreamSession};
/// use graphbolt_graph::{Edge, GraphBuilder};
///
/// let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).add_edge(1, 2, 1.0).build();
/// let mut engine = StreamingEngine::new(g, DocRank, EngineOptions::with_iterations(5));
/// engine.run_initial();
///
/// let session = StreamSession::spawn(engine);
/// session.add(Edge::new(2, 0, 1.0)).unwrap();
/// let values = session.query().unwrap();
/// assert_eq!(values.len(), 3);
/// let outcome = session.finish().unwrap();
/// assert!(outcome.engine.graph().has_edge(2, 0));
/// assert_eq!(outcome.stats.mutations_applied, 1);
/// ```
pub struct StreamSession<A: Algorithm + 'static> {
    tx: CommandSender<Command<A::Value>>,
    worker: JoinHandle<SessionOutcome<A>>,
    /// Commands submitted but not yet dequeued by the worker.
    /// `std::sync::mpsc` exposes no `len()`, so occupancy is tracked
    /// explicitly: producers add *before* sending (and compensate on a
    /// failed send), the worker subtracts on every dequeue. Counting
    /// before the send keeps the counter at or above the true queue
    /// length, so the worker's decrement can never underflow it.
    depth: Arc<WorkCounter>,
    /// Vertex count of the last committed snapshot, published by the
    /// worker so the front door can bound id-space growth without a
    /// round-trip through the queue.
    vertices: Arc<WorkCounter>,
    /// The engine's telemetry handle, for the producer-side sites
    /// (backpressure, submit-side sheds, enqueue spans, fault probes).
    stats: EngineStats,
}

impl<A: Algorithm + 'static> StreamSession<A> {
    /// Spawns the worker thread around an initialized engine with default
    /// configuration (unbounded queue, no checkpointing).
    ///
    /// # Panics
    ///
    /// Panics if the engine has not run its initial execution.
    pub fn spawn(engine: StreamingEngine<A>) -> Self {
        Self::spawn_with(engine, SessionConfig::default())
    }

    /// Spawns the worker thread with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the engine has not run its initial execution.
    pub fn spawn_with(engine: StreamingEngine<A>, config: SessionConfig<A>) -> Self {
        // lint:allow(panic-reachability) — documented `# Panics` API
        // contract, startup-only: sessions only wrap initialized
        // engines, so the worker loop never observes missing state.
        assert!(
            engine.is_initialized(),
            "run_initial() must complete before streaming"
        );
        let (tx, rx) = match config.queue_capacity {
            Some(cap) => {
                let (tx, rx) = mpsc::sync_channel(cap.max(1));
                (CommandSender::Bounded(tx), rx)
            }
            None => {
                let (tx, rx) = mpsc::channel();
                (CommandSender::Unbounded(tx), rx)
            }
        };
        let depth = Arc::new(WorkCounter::new());
        let vertices = Arc::new(WorkCounter::new());
        vertices.set(engine.graph().num_vertices() as u64);
        let (worker_depth, worker_vertices) = (Arc::clone(&depth), Arc::clone(&vertices));
        let stats = engine.stats().clone();
        let worker = std::thread::spawn(move || {
            worker_loop(engine, rx, config, worker_depth, worker_vertices)
        });
        Self {
            tx,
            worker,
            depth,
            vertices,
            stats,
        }
    }

    /// The telemetry handle of the engine this session serves: its
    /// metrics, span recorder and (under `fault-injection`) fault plan.
    pub fn engine_stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Vertex count of the last committed snapshot.
    pub(crate) fn committed_vertices(&self) -> u64 {
        self.vertices.get()
    }

    fn submit(&self, cmd: Command<A::Value>) -> Result<(), SessionError> {
        if crate::fault::fire_error(&self.stats, "session::ingest") {
            return Err(SessionError::Injected);
        }
        self.depth.add(1);
        self.tx.send(cmd).map_err(|_| {
            self.depth.sub(1);
            SessionError::WorkerGone
        })
    }

    fn try_submit(
        &self,
        cmd: Command<A::Value>,
        trace: telemetry::TraceCtx,
    ) -> Result<(), SessionError> {
        if crate::fault::fire_error(&self.stats, "session::ingest") {
            return Err(SessionError::Injected);
        }
        self.depth.add(1);
        self.tx.try_send(cmd).map_err(|e| {
            self.depth.sub(1);
            match e {
                TrySendError::Full(_) => {
                    self.stats.metrics().backpressure_rejections.inc();
                    // A zero-length marker span: the request hit a full
                    // queue here (one per rejection, so a blocked
                    // deadline loop shows its whole fight in the tree).
                    let now = Instant::now();
                    self.stats.spans().child(trace, "backpressure", now, now);
                    SessionError::QueueFull
                }
                TrySendError::Disconnected(_) => SessionError::WorkerGone,
            }
        })
    }

    /// Submits an edge insertion, blocking while a bounded queue is full
    /// (backpressure).
    ///
    /// # Errors
    ///
    /// [`SessionError::WorkerGone`] when the session has died.
    pub fn add(&self, e: Edge) -> Result<(), SessionError> {
        self.submit(Command::Mutate(QueuedMutation {
            edge: e,
            add: true,
            submitted: Instant::now(),
            deadline: None,
            trace: telemetry::TraceCtx::disabled(),
        }))
    }

    /// Submits an edge deletion, blocking while a bounded queue is full.
    ///
    /// # Errors
    ///
    /// [`SessionError::WorkerGone`] when the session has died.
    pub fn delete(&self, e: Edge) -> Result<(), SessionError> {
        self.submit(Command::Mutate(QueuedMutation {
            edge: e,
            add: false,
            submitted: Instant::now(),
            deadline: None,
            trace: telemetry::TraceCtx::disabled(),
        }))
    }

    /// Non-blocking insertion.
    ///
    /// # Errors
    ///
    /// [`SessionError::QueueFull`] when the bounded queue is full right
    /// now, [`SessionError::WorkerGone`] when the session has died.
    pub fn try_add(&self, e: Edge) -> Result<(), SessionError> {
        self.try_submit(
            Command::Mutate(QueuedMutation {
                edge: e,
                add: true,
                submitted: Instant::now(),
                deadline: None,
                trace: telemetry::TraceCtx::disabled(),
            }),
            telemetry::TraceCtx::disabled(),
        )
    }

    /// Non-blocking deletion.
    ///
    /// # Errors
    ///
    /// See [`StreamSession::try_add`].
    pub fn try_delete(&self, e: Edge) -> Result<(), SessionError> {
        self.try_submit(
            Command::Mutate(QueuedMutation {
                edge: e,
                add: false,
                submitted: Instant::now(),
                deadline: None,
                trace: telemetry::TraceCtx::disabled(),
            }),
            telemetry::TraceCtx::disabled(),
        )
    }

    /// Records a submit-side deadline shed: the request never consumed
    /// queue capacity, and its span tree (if any) completes as shed.
    fn shed_before_enqueue(&self, trace: telemetry::TraceCtx) -> SessionError {
        self.stats.metrics().deadline_shed.inc();
        self.stats.spans().shed(trace, "deadline_shed");
        SessionError::DeadlineExceeded
    }

    /// Submits a mutation that must be *enqueued* by `deadline`: expired
    /// submissions are shed before consuming queue capacity, and a full
    /// bounded queue is retried (short sleeps) only until the deadline.
    /// The deadline travels with the mutation — if it expires while
    /// queued, the worker sheds it at dequeue. With no deadline the
    /// submit blocks under backpressure (the front door's traced
    /// equivalent of [`StreamSession::add`] / [`StreamSession::delete`]).
    /// The mutation carries `trace`, so its queue-wait and service time
    /// land in the request's span tree when it becomes visible.
    ///
    /// # Errors
    ///
    /// [`SessionError::DeadlineExceeded`] when the deadline passes while
    /// the queue is full, [`SessionError::WorkerGone`] when the session
    /// has died.
    pub fn mutate_within(
        &self,
        e: Edge,
        add: bool,
        deadline: Option<Instant>,
        trace: telemetry::TraceCtx,
    ) -> Result<(), SessionError> {
        let m = QueuedMutation {
            edge: e,
            add,
            submitted: Instant::now(),
            deadline,
            trace,
        };
        self.stats.spans().note_enqueued(trace);
        let Some(deadline) = deadline else {
            return self.submit(Command::Mutate(m));
        };
        // `std::sync::mpsc` has no deadline-aware blocking send, so
        // backpressure inside the budget is a try/sleep loop.
        loop {
            if Instant::now() >= deadline {
                return Err(self.shed_before_enqueue(trace));
            }
            match self.try_submit(Command::Mutate(m), trace) {
                Err(SessionError::QueueFull) => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                other => return other,
            }
        }
    }

    /// Submits a singleton update on the fast path: the worker applies
    /// it immediately after the current backlog, as a batch of one — it
    /// never sits in the coalescing buffer waiting for the queue to
    /// drain. Deadline semantics match [`StreamSession::mutate_within`];
    /// with no deadline a full queue still exerts blocking backpressure.
    ///
    /// # Errors
    ///
    /// See [`StreamSession::mutate_within`].
    pub fn singleton(
        &self,
        e: Edge,
        add: bool,
        deadline: Option<Instant>,
        trace: telemetry::TraceCtx,
    ) -> Result<(), SessionError> {
        let m = QueuedMutation {
            edge: e,
            add,
            submitted: Instant::now(),
            deadline,
            trace,
        };
        self.stats.spans().note_enqueued(trace);
        let Some(deadline) = deadline else {
            return self.submit(Command::Singleton(m));
        };
        loop {
            if Instant::now() >= deadline {
                return Err(self.shed_before_enqueue(trace));
            }
            match self.try_submit(Command::Singleton(m), trace) {
                Err(SessionError::QueueFull) => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                other => return other,
            }
        }
    }

    /// Applies everything buffered so far and returns the refined values.
    ///
    /// # Errors
    ///
    /// [`SessionError::WorkerGone`] when the session has died.
    pub fn query(&self) -> Result<Vec<A::Value>, SessionError> {
        self.query_within(None, telemetry::TraceCtx::disabled())
    }

    /// [`StreamSession::query`] with a deadline: an already-expired
    /// deadline is shed before enqueue, and the worker sheds the query
    /// at dequeue if the deadline passes while it waits in the queue.
    ///
    /// # Errors
    ///
    /// [`SessionError::DeadlineExceeded`] on expiry,
    /// [`SessionError::WorkerGone`] when the session has died.
    pub fn query_within(
        &self,
        deadline: Option<Instant>,
        trace: telemetry::TraceCtx,
    ) -> Result<Vec<A::Value>, SessionError> {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.shed_before_enqueue(trace));
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.submit(Command::Query {
            reply: reply_tx,
            deadline,
            trace,
        })?;
        match deadline {
            Some(d) => reply_rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => SessionError::DeadlineExceeded,
                    mpsc::RecvTimeoutError::Disconnected => SessionError::WorkerGone,
                })?,
            // lint:allow(deadline-propagation) — this arm only runs when
            // the caller supplied no deadline, an explicit opt-out (the
            // frontdoor forwards `None` when neither the request nor the
            // config names one); blocking until the worker replies is
            // the documented contract.
            None => reply_rx.recv().map_err(|_| SessionError::WorkerGone)?,
        }
    }

    /// Applies everything buffered so far and waits for completion.
    ///
    /// # Errors
    ///
    /// [`SessionError::WorkerGone`] when the session has died.
    pub fn flush(&self) -> Result<(), SessionError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.submit(Command::Flush(reply_tx))?;
        reply_rx.recv().map_err(|_| SessionError::WorkerGone)
    }

    /// Shuts the session down. Every mutation buffered or still in the
    /// queue is applied (or quarantined) first — shutdown never silently
    /// drops submissions.
    ///
    /// # Errors
    ///
    /// [`SessionError::WorkerGone`] if the worker thread cannot be joined
    /// (it died outside the panic-isolated refinement path).
    pub fn finish(self) -> Result<SessionOutcome<A>, SessionError> {
        self.depth.add(1);
        if self.tx.send(Command::Shutdown).is_err() {
            self.depth.sub(1);
        }
        drop(self.tx);
        self.worker.join().map_err(|_| SessionError::WorkerGone)
    }
}

/// Best-effort readable message out of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker-side mutable state bundled to keep the closures readable.
struct WorkerState<A: Algorithm> {
    engine: StreamingEngine<A>,
    stats: SessionStats,
    dead_letters: Vec<DeadLetter>,
    pending: MutationBatch,
    /// Last op buffered in `pending` per edge key (`true` = add). A
    /// [`MutationBatch`] is two unordered lists with delete-before-add
    /// semantics, so the only ordered pair it can carry on one key is
    /// delete → add (a reweight); any other second op on a pending key
    /// commits the backlog first. A coalesced batch is therefore
    /// order-free by construction, and what the session serves is always
    /// the result of some prefix of the accepted stream.
    pending_ops: HashMap<(VertexId, VertexId), bool>,
    /// Submission/dequeue timestamps and trace contexts of the
    /// mutations in `pending`: recorded into the ingest→visible
    /// histogram and each mutation's span tree (queue vs. service
    /// decomposition) once a query-consistent state reflecting them is
    /// reached. On quarantine the traces are completed as quarantined —
    /// those mutations never became visible.
    pending_stamps: Vec<PendingStamp>,
    batches_since_checkpoint: usize,
    checkpoint_seq: u64,
    /// Shared queue-occupancy counter (see [`StreamSession::depth`]).
    depth: Arc<WorkCounter>,
    /// Published vertex count (see [`StreamSession::vertices`]).
    vertices: Arc<WorkCounter>,
}

/// Lifecycle timestamps of one pending mutation, plus the causal trace
/// its queue/service spans are recorded against at visibility.
#[derive(Debug, Clone, Copy)]
struct PendingStamp {
    submitted: Instant,
    dequeued: Instant,
    trace: telemetry::TraceCtx,
}

/// True when `deadline` has passed at dequeue time, or the
/// `session::deadline` fault site is armed (forcing the expiry path).
fn deadline_expired(stats: &EngineStats, deadline: Option<Instant>) -> bool {
    crate::fault::fire_error(stats, "session::deadline")
        || deadline.is_some_and(|d| Instant::now() >= d)
}

impl<A: Algorithm> WorkerState<A> {
    /// Accounts one dequeued command: the shared depth counter goes
    /// down, and the observed occupancy feeds both the gauge (current
    /// value) and the histogram (distribution over time).
    fn note_dequeue(&self) {
        self.depth.sub(1);
        let now = self.depth.get();
        let m = self.engine.stats().metrics();
        m.queue_occupancy.set(now);
        m.queue_depth.record(now);
    }

    fn quarantine(&mut self, batch: MutationBatch, reason: String, cap: usize) {
        self.stats.batches_quarantined += 1;
        self.stats.mutations_quarantined += batch.len();
        self.engine.stats().metrics().batches_quarantined.inc();
        if self.dead_letters.len() == cap && cap > 0 {
            self.dead_letters.remove(0);
        }
        if cap > 0 {
            self.dead_letters.push(DeadLetter { batch, reason });
        }
    }

    /// Worker-side deadline shed: the command is dropped at dequeue
    /// without touching engine state, and its span tree completes as shed.
    fn shed_deadline(&mut self, trace: telemetry::TraceCtx) {
        self.stats.deadline_shed += 1;
        let stats = self.engine.stats();
        stats.metrics().deadline_shed.inc();
        stats.spans().shed(trace, "deadline_shed");
    }

    /// Buffers one dequeued mutation into the coalescing batch, shedding
    /// it if its deadline already passed while it waited in the queue.
    fn buffer_mutation(&mut self, m: QueuedMutation, config: &SessionConfig<A>) {
        if deadline_expired(self.engine.stats(), m.deadline) {
            self.shed_deadline(m.trace);
            return;
        }
        self.buffer(m, config);
    }

    /// Appends `m` to the pending batch, committing the backlog first
    /// when the batch could not order `m` after an op already pending on
    /// the same edge key (see [`WorkerState::pending_ops`]).
    fn buffer(&mut self, m: QueuedMutation, config: &SessionConfig<A>) {
        let key = m.edge.endpoints();
        // The batch itself orders exactly one pair on a key: delete → add.
        let unordered = |&last_add: &bool| last_add || !m.add;
        if self.pending_ops.get(&key).is_some_and(unordered) {
            self.apply_pending(config);
        }
        self.pending_ops.insert(key, m.add);
        if m.add {
            self.pending.add(m.edge);
        } else {
            self.pending.delete(m.edge);
        }
        self.pending_stamps.push(PendingStamp {
            submitted: m.submitted,
            dequeued: Instant::now(),
            trace: m.trace,
        });
    }

    /// Fast path for singleton updates: flush the backlog, then apply
    /// this mutation immediately as a batch of one — it skips the
    /// coalescing wait entirely.
    fn apply_singleton(&mut self, m: QueuedMutation, config: &SessionConfig<A>) {
        if deadline_expired(self.engine.stats(), m.deadline) {
            self.shed_deadline(m.trace);
            return;
        }
        self.apply_pending(config);
        self.buffer(m, config);
        self.stats.singletons += 1;
        self.engine.stats().metrics().singleton_fast_path.inc();
        self.apply_pending(config);
    }

    /// Records submit→visible latency for mutations whose effect (apply
    /// or normalize-away) is now reflected in the served state, and
    /// closes each mutation's span tree with its queue-wait (submit →
    /// dequeue) and service (dequeue → visible) spans.
    fn record_visible(&self, stamps: Vec<PendingStamp>) {
        if stamps.is_empty() {
            return;
        }
        let stats = self.engine.stats();
        let (m, spans) = (stats.metrics(), stats.spans());
        let now = Instant::now();
        for stamp in stamps {
            m.ingest_visible_latency_ns.record(telemetry::saturating_nanos(
                now.saturating_duration_since(stamp.submitted),
            ));
            spans.queue_service(stamp.trace, stamp.submitted, stamp.dequeued, now);
        }
    }

    /// Applies the coalesced pending batch under panic isolation.
    fn apply_pending(&mut self, config: &SessionConfig<A>) {
        if self.pending.is_empty() {
            return;
        }
        let raw = std::mem::take(&mut self.pending);
        let stamps = std::mem::take(&mut self.pending_stamps);
        self.pending_ops.clear();
        let batch = raw.normalize_against(self.engine.graph());
        self.stats.mutations_dropped += raw.len() - batch.len();
        if batch.is_empty() {
            // Every mutation normalized away: the served state already
            // reflects their (null) effect.
            self.record_visible(stamps);
            return;
        }
        self.stats.batches += 1;
        // The refinement batch gets its own trace: many request traces
        // fan into one batch, recorded as follows-from links. While it
        // is the engine's current batch, refinement-phase samples
        // attribute to it.
        let follows: Vec<telemetry::TraceCtx> = stamps.iter().map(|s| s.trace).collect();
        let batch_trace = self.engine.stats().spans().begin_batch(&follows);
        let engine = &mut self.engine;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| engine.apply_batch(&batch)));
        match outcome {
            Ok(Ok(report)) => {
                self.vertices.set(self.engine.graph().num_vertices() as u64);
                self.stats.mutations_applied += batch.len();
                self.record_visible(stamps);
                self.maybe_checkpoint(config, batch_trace);
                let status = if report.degraded { "degraded" } else { "ok" };
                self.engine.stats().spans().end_batch(batch_trace, status);
            }
            Ok(Err(err)) => {
                // Normalization should prevent this; quarantine rather
                // than trust a batch the engine rejected. The stamps are
                // dropped — quarantined mutations never become visible,
                // so their traces complete as quarantined instead.
                self.complete_quarantined(&stamps, batch_trace);
                self.quarantine(batch, err.to_string(), config.max_dead_letters);
            }
            Err(payload) => {
                // The graph is only swapped after refinement succeeds, so
                // `engine.graph()` is still the last good snapshot; the
                // dependency state may be torn mid-iteration, so rebuild
                // it from scratch on that snapshot.
                self.stats.panics_recovered += 1;
                self.engine.stats().metrics().panics_recovered.inc();
                let reason = panic_message(&*payload);
                // Close the batch trace (triggering a flight dump)
                // before run_initial, so nothing the rebuild records
                // attributes to the dead batch.
                self.complete_quarantined(&stamps, batch_trace);
                self.quarantine(batch, reason, config.max_dead_letters);
                self.engine.run_initial();
            }
        }
        // Keep the front door's admission tightening in lockstep with the
        // memory-budget ladder: degraded sessions shed at ingress.
        if let Some(admission) = &config.admission {
            admission.observe_degrade(self.engine.degrade_level());
        }
    }

    /// Completes the span trees of a quarantined batch: every mutation
    /// trace and the batch trace itself end with `quarantined` status
    /// (which also triggers an automatic flight-recorder dump).
    fn complete_quarantined(&self, stamps: &[PendingStamp], batch_trace: telemetry::TraceCtx) {
        let spans = self.engine.stats().spans();
        for stamp in stamps {
            spans.complete(stamp.trace, "quarantined");
        }
        spans.end_batch(batch_trace, "quarantined");
    }

    fn maybe_checkpoint(&mut self, config: &SessionConfig<A>, batch_trace: telemetry::TraceCtx) {
        let Some(policy) = &config.checkpoint else {
            return;
        };
        self.batches_since_checkpoint += 1;
        if self.batches_since_checkpoint < policy.every {
            return;
        }
        // A degraded engine has rewritten its own pruning options; its
        // checkpoints would not restore under the configured options, so
        // skip them (the last pre-degradation checkpoint stays valid).
        if self.engine.degrade_level() != DegradeLevel::None {
            return;
        }
        self.batches_since_checkpoint = 0;
        self.checkpoint_seq += 1;
        let seq = self.checkpoint_seq;
        let start = std::time::Instant::now();
        let outcome = (policy.write)(&policy.dir, &self.engine, seq);
        // The checkpoint stall lands in the batch's span tree either
        // way — a failed write still spent the wall clock.
        let stats = self.engine.stats();
        stats.spans().batch_checkpoint(batch_trace, start, Instant::now());
        match outcome {
            Ok(_) => {
                let nanos = telemetry::saturating_nanos(start.elapsed());
                self.stats.checkpoints_written += 1;
                let m = stats.metrics();
                m.checkpoints_written.inc();
                m.checkpoint_write_ns.record(nanos);
                checkpoint::prune_session_checkpoints(&policy.dir, policy.keep);
            }
            Err(_) => {
                self.stats.checkpoint_failures += 1;
                stats.metrics().checkpoint_failures.inc();
            }
        }
    }
}

fn worker_loop<A: Algorithm>(
    engine: StreamingEngine<A>,
    rx: Receiver<Command<A::Value>>,
    config: SessionConfig<A>,
    depth: Arc<WorkCounter>,
    vertices: Arc<WorkCounter>,
) -> SessionOutcome<A> {
    // Continue the on-disk sequence: a session resumed into an existing
    // checkpoint directory must number its checkpoints *after* whatever is
    // already there, or pruning would keep the stale pre-resume files and
    // delete the fresh ones (recovery picks the highest sequence).
    let checkpoint_seq = config
        .checkpoint
        .as_ref()
        .and_then(|policy| checkpoint::latest_checkpoint_seq(&policy.dir))
        .unwrap_or(0);
    let mut ws = WorkerState {
        engine,
        stats: SessionStats::default(),
        dead_letters: Vec::new(),
        pending: MutationBatch::new(),
        pending_ops: HashMap::new(),
        pending_stamps: Vec::new(),
        batches_since_checkpoint: 0,
        checkpoint_seq,
        depth,
        vertices,
    };

    // Services one dequeued command; returns true on Shutdown. Shared by
    // the live loop and the shutdown drain, so deadline and fast-path
    // semantics are identical in both.
    let service = |cmd: Command<A::Value>, ws: &mut WorkerState<A>| {
        match cmd {
            Command::Mutate(m) => ws.buffer_mutation(m, &config),
            Command::Singleton(m) => ws.apply_singleton(m, &config),
            Command::Query { reply, deadline, trace } => {
                if deadline_expired(ws.engine.stats(), deadline) {
                    ws.shed_deadline(trace);
                    let _ = reply.send(Err(SessionError::DeadlineExceeded));
                } else {
                    ws.apply_pending(&config);
                    let _ = reply.send(Ok(ws.engine.values().to_vec()));
                }
            }
            Command::Flush(reply) => {
                ws.apply_pending(&config);
                let _ = reply.send(());
            }
            Command::Shutdown => return true,
        }
        false
    };

    let finish = |mut ws: WorkerState<A>, rx: &Receiver<Command<A::Value>>| {
        // Drain every queued mutation before stopping — shutdown must not
        // silently drop submissions that were already accepted into the
        // queue. Replies to queries/flushes still in flight are serviced
        // against the final state.
        ws.apply_pending(&config);
        while let Ok(cmd) = rx.try_recv() {
            ws.note_dequeue();
            let _ = service(cmd, &mut ws);
        }
        ws.apply_pending(&config);
        SessionOutcome {
            engine: ws.engine,
            stats: ws.stats,
            dead_letters: ws.dead_letters,
        }
    };

    loop {
        // Block for the next command, then drain whatever else arrived
        // while we were busy — the paper's coalescing buffer.
        let Ok(first) = rx.recv() else {
            // All handles dropped: apply the tail and stop.
            return finish(ws, &rx);
        };
        let mut shutdown = false;
        ws.note_dequeue();
        shutdown |= service(first, &mut ws);
        while let Ok(cmd) = rx.try_recv() {
            ws.note_dequeue();
            shutdown |= service(cmd, &mut ws);
        }
        if shutdown {
            return finish(ws, &rx);
        }
        ws.apply_pending(&config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_algorithms::TestRank;
    use crate::algorithm::{Decomposable, Refining, Sum};
    use crate::bsp::run_bsp;
    use crate::checkpoint::F64Codec;
    use crate::options::{EngineOptions, ExecutionMode};
    use crate::laws::{check_laws, LawSpec};
    use crate::stats::EngineStats;
    use graphbolt_graph::{GraphBuilder, GraphSnapshot, VertexId, Weight};

    fn engine() -> StreamingEngine<TestRank> {
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 4, 1.0)
            .add_edge(4, 0, 1.0)
            .build();
        let mut e = StreamingEngine::new(g, TestRank, EngineOptions::with_iterations(8));
        e.run_initial();
        e
    }

    #[test]
    fn session_applies_buffered_mutations() {
        let session = StreamSession::spawn(engine());
        session.add(Edge::new(0, 3, 1.0)).unwrap();
        session.add(Edge::new(2, 0, 1.0)).unwrap();
        session.delete(Edge::new(4, 0, 1.0)).unwrap();
        session.flush().unwrap();
        let outcome = session.finish().unwrap();
        assert!(outcome.engine.graph().has_edge(0, 3));
        assert!(!outcome.engine.graph().has_edge(4, 0));
        assert_eq!(outcome.stats.mutations_applied, 3);
        assert_eq!(outcome.stats.mutations_dropped, 0);
        assert_eq!(outcome.stats.panics_recovered, 0);
        assert!(outcome.dead_letters.is_empty());

        let scratch = run_bsp(
            &TestRank,
            outcome.engine.graph(),
            outcome.engine.options(),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for (a, b) in outcome.engine.values().iter().zip(&scratch.vals) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn query_reflects_all_prior_submissions() {
        let session = StreamSession::spawn(engine());
        let before = session.query().unwrap();
        session.add(Edge::new(1, 4, 1.0)).unwrap();
        let after = session.query().unwrap();
        assert_ne!(before, after);
        session.finish().unwrap();
    }

    #[test]
    fn conflicting_mutations_are_dropped() {
        let session = StreamSession::spawn(engine());
        session.add(Edge::new(0, 1, 1.0)).unwrap(); // already present
        session.delete(Edge::new(3, 0, 1.0)).unwrap(); // absent
        session.flush().unwrap();
        let outcome = session.finish().unwrap();
        assert_eq!(outcome.stats.mutations_applied, 0);
        assert_eq!(outcome.stats.mutations_dropped, 2);
    }

    #[test]
    fn concurrent_producers_are_coalesced() {
        let session = std::sync::Arc::new(StreamSession::spawn(engine()));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let s = std::sync::Arc::clone(&session);
                std::thread::spawn(move || {
                    for k in 0..5u32 {
                        s.add(Edge::new(t, 5 + t * 5 + k, 1.0)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        session.flush().unwrap();
        let session = std::sync::Arc::into_inner(session).expect("sole owner");
        let outcome = session.finish().unwrap();
        assert_eq!(outcome.stats.mutations_applied, 20);
        assert_eq!(outcome.engine.graph().num_vertices(), 25);
        // Coalescing must have produced far fewer batches than mutations.
        assert!(outcome.stats.batches <= 20);
    }

    #[test]
    fn shutdown_flushes_queued_mutations() {
        // Mutations submitted but never flushed must still land: finish()
        // drains the queue before joining.
        let session = StreamSession::spawn(engine());
        session.add(Edge::new(0, 4, 1.0)).unwrap();
        session.add(Edge::new(1, 3, 1.0)).unwrap();
        let outcome = session.finish().unwrap();
        assert_eq!(outcome.stats.mutations_applied, 2);
        assert!(outcome.engine.graph().has_edge(0, 4));
        assert!(outcome.engine.graph().has_edge(1, 3));
    }

    #[test]
    fn bounded_queue_reports_full_then_accepts() {
        // Capacity-1 queue against a worker that is blocked on its first
        // recv only momentarily — keep try_adding until Full shows up.
        let session = StreamSession::spawn_with(
            engine(),
            SessionConfig {
                queue_capacity: Some(1),
                ..SessionConfig::default()
            },
        );
        for k in 0..1000u32 {
            // The worker may drain faster than we fill on some machines,
            // so Full is exercised when it happens, never required.
            if let Err(e) = session.try_add(Edge::new(0, 5 + k, 1.0)) {
                assert_eq!(e, SessionError::QueueFull);
                break;
            }
        }
        // Blocking submission makes progress either way.
        session.add(Edge::new(0, 2000, 1.0)).unwrap();
        session.flush().unwrap();
        let outcome = session.finish().unwrap();
        assert!(outcome.engine.graph().has_edge(0, 2000));
    }

    #[test]
    fn command_sender_names_full_and_dead_worker_on_both_queue_kinds() {
        let (bounded, held) = mpsc::sync_channel(1);
        let bounded = CommandSender::Bounded(bounded);
        bounded.try_send(1).unwrap();
        assert!(matches!(bounded.try_send(2), Err(TrySendError::Full(2))));
        let (unbounded, rx) = mpsc::channel();
        drop((held, rx));
        for tx in [bounded, CommandSender::Unbounded(unbounded)] {
            assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
            assert!(tx.send(4).is_err());
        }
    }

    #[test]
    fn session_checkpoints_on_cadence_and_recovers() {
        let dir = std::env::temp_dir().join("graphbolt-session-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EngineOptions::with_iterations(8);
        let session = StreamSession::spawn_with(
            engine(),
            SessionConfig {
                checkpoint: Some(CheckpointPolicy::new(&dir, 1, 2, F64Codec, F64Codec)),
                ..SessionConfig::default()
            },
        );
        session.add(Edge::new(0, 3, 1.0)).unwrap();
        session.flush().unwrap();
        session.add(Edge::new(1, 4, 1.0)).unwrap();
        session.flush().unwrap();
        let outcome = session.finish().unwrap();
        assert!(outcome.stats.checkpoints_written >= 2);
        assert_eq!(outcome.stats.checkpoint_failures, 0);

        let rec = checkpoint::recover_session(&dir, TestRank, opts, &F64Codec, &F64Codec)
            .unwrap()
            .expect("checkpoints on disk");
        assert_eq!(rec.engine.values(), outcome.engine.values());
        assert_eq!(
            rec.engine.graph().num_edges(),
            outcome.engine.graph().num_edges()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_session_continues_checkpoint_sequence() {
        // Regression: a session resumed into an existing checkpoint
        // directory used to restart numbering at 1, so pruning kept the
        // stale pre-resume files and recovery silently lost everything
        // the resumed run applied.
        let dir = std::env::temp_dir().join("graphbolt-session-resume-seq");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EngineOptions::with_iterations(8);
        let config = || SessionConfig {
            checkpoint: Some(CheckpointPolicy::new(&dir, 1, 1, F64Codec, F64Codec)),
            ..SessionConfig::default()
        };

        let session = StreamSession::spawn_with(engine(), config());
        session.add(Edge::new(0, 3, 1.0)).unwrap();
        session.flush().unwrap();
        session.add(Edge::new(1, 4, 1.0)).unwrap();
        session.flush().unwrap();
        session.finish().unwrap();
        let first = checkpoint::recover_session(&dir, TestRank, opts, &F64Codec, &F64Codec)
            .unwrap()
            .expect("checkpoints on disk");

        // Resume into the same directory, mutate, and recover again: the
        // new checkpoint must outrank the one we resumed from.
        let resumed = StreamSession::spawn_with(first.engine, config());
        resumed.add(Edge::new(2, 0, 1.0)).unwrap();
        resumed.flush().unwrap();
        let outcome = resumed.finish().unwrap();
        assert_eq!(outcome.stats.checkpoints_written, 1);

        let second = checkpoint::recover_session(&dir, TestRank, opts, &F64Codec, &F64Codec)
            .unwrap()
            .expect("checkpoints on disk");
        assert!(
            second.seq > first.seq,
            "resumed run wrote seq {} on top of recovered seq {}",
            second.seq,
            first.seq
        );
        assert!(
            second.engine.graph().has_edge(2, 0),
            "recovery must observe mutations applied after the resume"
        );
        assert_eq!(second.engine.values(), outcome.engine.values());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_is_shed_before_enqueue() {
        let session = StreamSession::spawn(engine());
        let past = Instant::now() - Duration::from_millis(10);
        assert_eq!(
            session.mutate_within(Edge::new(0, 3, 1.0), true, Some(past), telemetry::TraceCtx::disabled()),
            Err(SessionError::DeadlineExceeded)
        );
        assert_eq!(
            session.query_within(Some(past), telemetry::TraceCtx::disabled()),
            Err(SessionError::DeadlineExceeded)
        );
        let outcome = session.finish().unwrap();
        // The shed mutation never reached the worker.
        assert!(!outcome.engine.graph().has_edge(0, 3));
        assert_eq!(outcome.stats.mutations_applied, 0);
    }

    /// [`TestRank`] that runs a hook in every contribution: a sleep, so
    /// refinement takes long enough that a short query deadline expires
    /// while the reply is still being computed, or a [`Gate`] that parks
    /// the worker mid-refinement.
    struct SlowRank(Arc<dyn Fn() + Send + Sync>);

    impl SlowRank {
        fn sleeping(delay: Duration) -> Self {
            Self(Arc::new(move || std::thread::sleep(delay)))
        }
    }

    /// Parks the first thread to `pass()` after `arm()` until `open()`,
    /// so a test can queue mutations while the worker is provably inside
    /// a refinement — they are then drained in one coalescing round.
    #[derive(Default)]
    struct Gate {
        state: std::sync::Mutex<GateState>,
        changed: std::sync::Condvar,
    }

    #[derive(Default, Clone, Copy, PartialEq)]
    enum GateState {
        #[default]
        Open,
        Armed,
        Parked,
    }

    impl Gate {
        fn set(&self, to: GateState) {
            *self.state.lock().unwrap() = to;
            self.changed.notify_all();
        }

        fn pass(&self) {
            let mut state = self.state.lock().unwrap();
            if *state == GateState::Armed {
                *state = GateState::Parked;
                self.changed.notify_all();
            }
            while *state == GateState::Parked {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn wait_parked(&self) {
            let mut state = self.state.lock().unwrap();
            while *state != GateState::Parked {
                state = self.changed.wait(state).unwrap();
            }
        }
    }

    impl Algorithm for SlowRank {
        type Value = f64;
        type Agg = f64;
        type Kind = Sum;

        fn initial_value(&self, _v: VertexId) -> f64 {
            1.0
        }

        fn identity(&self) -> f64 {
            0.0
        }

        fn contribution(
            &self,
            g: &GraphSnapshot,
            u: VertexId,
            v: VertexId,
            w: Weight,
            cu: &f64,
        ) -> f64 {
            (self.0)();
            TestRank.contribution(g, u, v, w, cu)
        }

        fn combine(&self, agg: &mut f64, contrib: &f64) {
            *agg += contrib;
        }

        fn compute(&self, _v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
            0.15 + 0.85 * agg
        }

        fn changed(&self, old: &f64, new: &f64) -> bool {
            (old - new).abs() > 1e-9
        }

        fn source_structure_dependent(&self) -> bool {
            true
        }
    }

    impl Decomposable for SlowRank {
        fn retract(&self, _: Refining, agg: &mut f64, contrib: &f64) {
            *agg -= contrib;
        }

        fn delta(
            &self,
            refining: Refining,
            g: &GraphSnapshot,
            u: VertexId,
            v: VertexId,
            w: Weight,
            old: &f64,
            new: &f64,
        ) -> Option<f64> {
            TestRank.delta(refining, g, u, v, w, old, new)
        }
    }

    #[test]
    fn slow_rank_satisfies_laws() {
        let spec = LawSpec::new(|rng| rng.range_f64(0.1, 3.0), |agg: &f64| vec![*agg])
            .tolerance(1e-9);
        check_laws::<SlowRank>(&SlowRank::sleeping(Duration::ZERO), spec).expect("SlowRank is lawful");
    }

    /// Every edge of `g` as `(src, dst, weight)`, source-major.
    fn edge_list(g: &GraphSnapshot) -> Vec<(VertexId, VertexId, Weight)> {
        g.edges().iter().map(|e| (e.src, e.dst, e.weight)).collect()
    }

    /// The contract's reference: each op applied alone, in submission
    /// order, under the session's own conflict rule (an add of a present
    /// edge and a delete of an absent one are dropped).
    fn one_at_a_time(g: &GraphSnapshot, ops: &[(bool, Edge)]) -> GraphSnapshot {
        let mut g = g.clone();
        for &(add, e) in ops {
            let mut single = MutationBatch::new();
            if add {
                single.add(e);
            } else {
                single.delete(e);
            }
            g = g.apply(&single.normalize_against(&g)).expect("normalized");
        }
        g
    }

    fn submit<A: Algorithm>(session: &StreamSession<A>, (add, e): (bool, Edge)) {
        if add {
            session.add(e).unwrap();
        } else {
            session.delete(e).unwrap();
        }
    }

    #[test]
    fn colliding_ops_coalesced_behind_a_slow_refinement_keep_their_order() {
        // Regression: two ops on one edge key that land in the same
        // coalesced batch used to lose their order — add → delete of an
        // absent edge left it *present*. Each case queues its pair while
        // the worker is parked inside the refinement of a first mutation,
        // so both ops are drained in one coalescing round.
        let absent = |w| Edge::new(1, 0, w);
        let present = |w| Edge::new(1, 2, w);
        let cases: [(&str, [(bool, Edge); 2]); 4] = [
            ("add → delete", [(true, absent(1.0)), (false, absent(1.0))]),
            ("delete → add", [(false, present(1.0)), (true, present(2.5))]),
            ("add → add", [(true, absent(1.0)), (true, absent(3.0))]),
            ("delete → delete", [(false, present(1.0)), (false, present(1.0))]),
        ];
        for (name, pair) in cases {
            let g = GraphBuilder::new(3)
                .add_edge(0, 1, 1.0)
                .add_edge(1, 2, 1.0)
                .add_edge(2, 0, 1.0)
                .build();
            let gate = Arc::new(Gate::default());
            let gated = SlowRank(Arc::new({
                let gate = Arc::clone(&gate);
                move || gate.pass()
            }));
            let mut e = StreamingEngine::new(g.clone(), gated, EngineOptions::with_iterations(3));
            e.run_initial();
            let session = StreamSession::spawn(e);
            let blocker = (true, Edge::new(0, 2, 1.0));
            gate.set(GateState::Armed);
            submit(&session, blocker);
            gate.wait_parked();
            submit(&session, pair[0]);
            submit(&session, pair[1]);
            gate.set(GateState::Open);
            let outcome = session.finish().unwrap();

            let expected = one_at_a_time(&g, &[blocker, pair[0], pair[1]]);
            assert_eq!(edge_list(outcome.engine.graph()), edge_list(&expected), "{name}");
            let scratch = run_bsp(
                &SlowRank::sleeping(Duration::ZERO),
                &expected,
                outcome.engine.options(),
                ExecutionMode::Full,
                &EngineStats::new(),
            );
            for (a, b) in outcome.engine.values().iter().zip(&scratch.vals) {
                assert!((a - b).abs() < 1e-7, "{name}: served {a} vs scratch {b}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn coalescing_at_any_boundary_matches_one_at_a_time(seed in 0u64..10_000) {
            // Random add/delete/reweight traffic on eight colliding edge
            // keys, coalesced wherever the worker's drain happens to cut
            // plus random explicit flush points: the final graph is the
            // sequential one and the values are its from-scratch result.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let keys: [(VertexId, VertexId); 8] =
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (2, 4)];
            let start = engine();
            let g0 = start.graph().clone();
            let session = StreamSession::spawn(start);
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range(1..40usize) {
                let (u, v) = keys[rng.gen_range(0..keys.len())];
                let op = (rng.gen_bool(0.5), Edge::new(u, v, rng.gen_range(0.5..2.0)));
                submit(&session, op);
                ops.push(op);
                if rng.gen_bool(0.15) {
                    session.flush().unwrap();
                }
            }
            let outcome = session.finish().unwrap();

            let expected = one_at_a_time(&g0, &ops);
            proptest::prop_assert_eq!(
                edge_list(outcome.engine.graph()),
                edge_list(&expected),
                "seed {}", seed
            );
            let scratch = run_bsp(
                &TestRank,
                &expected,
                outcome.engine.options(),
                ExecutionMode::Full,
                &EngineStats::new(),
            );
            for (a, b) in outcome.engine.values().iter().zip(&scratch.vals) {
                proptest::prop_assert!((a - b).abs() < 1e-7, "seed {}: {} vs {}", seed, a, b);
            }
            proptest::prop_assert_eq!(
                outcome.stats.mutations_applied + outcome.stats.mutations_dropped,
                ops.len()
            );
        }
    }

    #[test]
    fn query_reply_wait_observes_deadline() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 0, 1.0)
            .build();
        let slow = SlowRank::sleeping(Duration::from_millis(50));
        let mut e = StreamingEngine::new(g, slow, EngineOptions::with_iterations(3));
        e.run_initial();
        let session = StreamSession::spawn(e);
        // The buffered mutation forces a slow refinement before the
        // query can be answered; the deadline expires long before the
        // reply, so the wait itself must give up — before the fix the
        // bare `recv()` here blocked until refinement finished.
        session.add(Edge::new(0, 2, 1.0)).unwrap();
        let waited = Instant::now();
        let result = session.query_within(Some(waited + Duration::from_millis(30)), telemetry::TraceCtx::disabled());
        assert_eq!(result, Err(SessionError::DeadlineExceeded));
        assert!(
            waited.elapsed() < Duration::from_millis(400),
            "query_within blocked past its deadline: {:?}",
            waited.elapsed()
        );
        let outcome = session.finish().unwrap();
        assert!(outcome.engine.graph().has_edge(0, 2));
    }

    #[test]
    fn future_deadline_mutations_apply_normally() {
        let session = StreamSession::spawn(engine());
        let deadline = Instant::now() + Duration::from_secs(30);
        session
            .mutate_within(Edge::new(0, 3, 1.0), true, Some(deadline), telemetry::TraceCtx::disabled())
            .unwrap();
        let values = session.query_within(Some(deadline), telemetry::TraceCtx::disabled()).unwrap();
        assert_eq!(values.len(), 5);
        let outcome = session.finish().unwrap();
        assert!(outcome.engine.graph().has_edge(0, 3));
        assert_eq!(outcome.stats.deadline_shed, 0);
    }

    #[test]
    fn singleton_fast_path_applies_immediately() {
        let session = StreamSession::spawn(engine());
        session.singleton(Edge::new(0, 3, 1.0), true, None, telemetry::TraceCtx::disabled()).unwrap();
        session
            .singleton(
                Edge::new(4, 0, 1.0),
                false,
                Some(Instant::now() + Duration::from_secs(30)),
                telemetry::TraceCtx::disabled(),
            )
            .unwrap();
        session.flush().unwrap();
        let outcome = session.finish().unwrap();
        assert!(outcome.engine.graph().has_edge(0, 3));
        assert!(!outcome.engine.graph().has_edge(4, 0));
        assert_eq!(outcome.stats.singletons, 2);
        assert_eq!(outcome.stats.mutations_applied, 2);

        let scratch = run_bsp(
            &TestRank,
            outcome.engine.graph(),
            outcome.engine.options(),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for (a, b) in outcome.engine.values().iter().zip(&scratch.vals) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn session_feeds_degrade_level_into_admission() {
        use crate::admission::{AdmissionConfig, AdmissionController};
        let admission = Arc::new(AdmissionController::new(AdmissionConfig::default()));
        let session = StreamSession::spawn_with(
            engine(),
            SessionConfig {
                admission: Some(Arc::clone(&admission)),
                ..SessionConfig::default()
            },
        );
        session.add(Edge::new(0, 3, 1.0)).unwrap();
        session.flush().unwrap();
        session.finish().unwrap();
        // A healthy session reports level 0 after every batch.
        assert_eq!(admission.snapshot().degrade, 0);
    }

    #[test]
    #[should_panic(expected = "run_initial")]
    fn spawn_requires_initialized_engine() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let engine = StreamingEngine::new(g, TestRank, EngineOptions::default());
        let _ = StreamSession::spawn(engine);
    }
}
