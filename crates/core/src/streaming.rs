//! The streaming-engine façade: tracked execution + batch refinement.

use std::time::{Duration, Instant};

use graphbolt_graph::{GraphSnapshot, MutationBatch, MutationError};

use crate::algorithm::{agg_total_bytes, Algorithm};
use crate::bsp::{run_bsp, run_tracking, BspState};
use crate::options::{EngineOptions, ExecutionMode};
use crate::refine::{refine, RefineState};
use crate::stats::{EngineStats, RefineReport};
use crate::store::DependencyStore;
use crate::telemetry;

/// Error returned by the `try_*` accessors when
/// [`StreamingEngine::run_initial`] has not completed.
///
/// The panicking accessors ([`StreamingEngine::values`] and friends) are
/// convenience wrappers for callers that construct and initialize an
/// engine in one place (tests, the CLI); long-lived service code —
/// sessions and checkpointing — uses the `try_*` forms and propagates
/// this as a typed error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotInitialized;

impl std::fmt::Display for NotInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run_initial() has not completed on this engine")
    }
}

impl std::error::Error for NotInitialized {}

/// How far the memory-budget watchdog has degraded the engine.
///
/// The ladder trades incremental speed for memory, never correctness:
/// every level still produces values equal to a from-scratch BSP run on
/// the current snapshot (refinement by Theorem 4.1, recompute trivially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Normal operation: full dependency-driven refinement.
    None,
    /// Aggressive pruning: vertical pruning forced on and the horizontal
    /// cut-off progressively halved, shrinking the store at the price of
    /// longer hybrid phases.
    PrunedStore,
    /// Dependency store dropped entirely; every batch is served by a
    /// from-scratch recompute on the new snapshot (the GB-Reset shape).
    DroppedStore,
}

impl DegradeLevel {
    /// Stable numeric encoding for the `graphbolt_degrade_level` gauge:
    /// 0 none, 1 pruned, 2 dropped.
    pub fn index(self) -> u8 {
        match self {
            DegradeLevel::None => 0,
            DegradeLevel::PrunedStore => 1,
            DegradeLevel::DroppedStore => 2,
        }
    }
}

/// GraphBolt's streaming processing engine for one algorithm over one
/// evolving graph.
///
/// Lifecycle:
///
/// 1. [`StreamingEngine::new`] with the initial snapshot,
/// 2. [`StreamingEngine::run_initial`] — the tracked initial execution,
/// 3. repeated [`StreamingEngine::apply_batch`] — apply a
///    [`MutationBatch`] and incrementally refine, with results after each
///    call identical (per BSP semantics) to a from-scratch run on the
///    latest snapshot.
///
/// # Examples
///
/// ```
/// use graphbolt_core::{EngineOptions, StreamingEngine};
/// use graphbolt_core::doctest_support::DocRank;
/// use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};
///
/// let g = GraphBuilder::new(3)
///     .add_edge(0, 1, 1.0)
///     .add_edge(1, 2, 1.0)
///     .add_edge(2, 0, 1.0)
///     .build();
/// let mut engine = StreamingEngine::new(g, DocRank, EngineOptions::with_iterations(5));
/// engine.run_initial();
///
/// let mut batch = MutationBatch::new();
/// batch.add(Edge::new(0, 2, 1.0));
/// let report = engine.apply_batch(&batch).unwrap();
/// assert!(report.refined_vertices > 0);
/// assert_eq!(engine.values().len(), 3);
/// ```
pub struct StreamingEngine<A: Algorithm> {
    alg: A,
    graph: GraphSnapshot,
    opts: EngineOptions,
    stats: EngineStats,
    /// Tracked state, present after `run_initial`.
    state: Option<TrackedState<A>>,
    /// Current memory-budget degradation level.
    degrade: DegradeLevel,
}

struct TrackedState<A: Algorithm> {
    vals: Vec<A::Value>,
    vals_at_cutoff: Vec<A::Value>,
    changed_at_cutoff: Vec<bool>,
    store: DependencyStore<A::Agg>,
}

impl<A: Algorithm> StreamingEngine<A> {
    /// Creates an engine over the initial snapshot. No computation happens
    /// until [`StreamingEngine::run_initial`].
    pub fn new(graph: GraphSnapshot, alg: A, opts: EngineOptions) -> Self {
        Self {
            alg,
            graph,
            opts,
            stats: EngineStats::new(),
            state: None,
            degrade: DegradeLevel::None,
        }
    }

    /// The algorithm instance.
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The current graph snapshot.
    pub fn graph(&self) -> &GraphSnapshot {
        &self.graph
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Runs the initial tracked execution. Subsequent calls recompute from
    /// scratch (discarding previous tracking), which is also how a caller
    /// forces a full restart — including after a mid-refinement panic left
    /// the tracked state inconsistent. The memory-budget watchdog runs
    /// afterwards, so an over-budget initial store degrades immediately.
    pub fn run_initial(&mut self) -> &[A::Value] {
        if self.degrade == DegradeLevel::DroppedStore {
            self.recompute_full();
        } else {
            self.rebuild_tracked();
            self.enforce_memory_budget();
        }
        self.publish_footprint();
        self.values()
    }

    /// Rebuilds the complete tracked state from scratch on the current
    /// snapshot under the current options.
    fn rebuild_tracked(&mut self) {
        let outcome = run_tracking(&self.alg, &self.graph, &self.opts, &self.stats);
        let BspState { vals, .. } = outcome.state;
        self.state = Some(TrackedState {
            vals,
            vals_at_cutoff: outcome.vals_at_cutoff,
            changed_at_cutoff: outcome.changed_at_cutoff,
            store: outcome.store,
        });
    }

    /// From-scratch full recompute on the current snapshot; the store is
    /// left empty (cut-off 0 stores nothing). The `DroppedStore` serving
    /// path.
    fn recompute_full(&mut self) {
        let bsp = run_bsp(
            &self.alg,
            &self.graph,
            &self.opts,
            ExecutionMode::Full,
            &self.stats,
        );
        let n = self.graph.num_vertices();
        self.state = Some(TrackedState {
            vals_at_cutoff: bsp.vals.clone(),
            vals: bsp.vals,
            changed_at_cutoff: vec![false; n],
            store: DependencyStore::new(n, 0, self.opts.vertical_pruning),
        });
    }

    /// Current degradation level of the memory-budget watchdog.
    pub fn degrade_level(&self) -> DegradeLevel {
        self.degrade
    }

    /// Forces the engine at least to `level` immediately (operational
    /// override and deterministic test hook; the watchdog only ever moves
    /// down the same ladder). Degradation is one-way: requesting a level
    /// at or above the current one is a no-op.
    pub fn force_degrade(&mut self, level: DegradeLevel) {
        if level <= self.degrade {
            return;
        }
        match level {
            DegradeLevel::None => {}
            DegradeLevel::PrunedStore => self.degrade_once(),
            DegradeLevel::DroppedStore => {
                // Jump straight to the bottom rung (skipping the
                // intermediate cut-off halvings and their rebuilds).
                self.set_degrade(DegradeLevel::DroppedStore);
                if self.state.is_some() {
                    self.recompute_full();
                }
            }
        }
    }

    /// Takes one step down the degradation ladder.
    fn degrade_once(&mut self) {
        match self.degrade {
            DegradeLevel::None => {
                self.opts.vertical_pruning = true;
                self.opts.horizontal_cutoff = Some((self.opts.effective_cutoff() / 2).max(1));
                self.set_degrade(DegradeLevel::PrunedStore);
                if self.state.is_some() {
                    self.rebuild_tracked();
                }
            }
            DegradeLevel::PrunedStore => {
                if self.opts.effective_cutoff() > 1 {
                    self.opts.horizontal_cutoff = Some(self.opts.effective_cutoff() / 2);
                    if self.state.is_some() {
                        self.rebuild_tracked();
                    }
                } else {
                    self.set_degrade(DegradeLevel::DroppedStore);
                    if self.state.is_some() {
                        self.recompute_full();
                    }
                }
            }
            DegradeLevel::DroppedStore => {}
        }
    }

    /// Commits a degrade-level transition, publishing it to the gauges.
    fn set_degrade(&mut self, to: DegradeLevel) {
        if self.degrade == to {
            return;
        }
        self.degrade = to;
        // Degrade transitions change the footprint step-wise (pruning or
        // dropping the store), so re-publish it at the transition rather
        // than waiting for the next batch commit.
        self.publish_footprint();
    }

    /// The memory-budget watchdog: while the dependency store exceeds the
    /// configured budget, step down the degradation ladder.
    fn enforce_memory_budget(&mut self) {
        let Some(budget) = self.opts.memory_budget else {
            return;
        };
        while self.degrade < DegradeLevel::DroppedStore
            && self.dependency_memory_bytes() > budget
        {
            self.degrade_once();
        }
    }

    /// Returns `true` once the initial execution has run.
    pub fn is_initialized(&self) -> bool {
        self.state.is_some()
    }

    /// Current vertex values (`c_L` for the latest snapshot).
    ///
    /// # Panics
    ///
    /// Panics if [`StreamingEngine::run_initial`] has not run.
    pub fn values(&self) -> &[A::Value] {
        // lint:allow(panic-reachability) — documented `# Panics` API
        // contract; fallible callers use `try_values`, and the session
        // worker asserts initialization once at spawn.
        self.try_values()
            .expect("run_initial() must be called before values()")
    }

    /// Fallible form of [`StreamingEngine::values`].
    ///
    /// # Errors
    ///
    /// Returns [`NotInitialized`] if [`StreamingEngine::run_initial`]
    /// has not run.
    pub fn try_values(&self) -> Result<&[A::Value], NotInitialized> {
        self.state
            .as_ref()
            .map(|s| s.vals.as_slice())
            .ok_or(NotInitialized)
    }

    /// Applies a mutation batch to the graph and incrementally refines the
    /// computed results (the core GraphBolt operation).
    ///
    /// # Errors
    ///
    /// Returns the [`MutationError`] if the batch conflicts with the
    /// current snapshot; the engine state is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if [`StreamingEngine::run_initial`] has not run.
    pub fn apply_batch(&mut self, batch: &MutationBatch) -> Result<RefineReport, MutationError> {
        if self.degrade == DegradeLevel::DroppedStore && self.state.is_some() {
            return self.apply_batch_recompute(batch);
        }
        let Some(state) = self.state.as_mut() else {
            // Documented `# Panics` API contract: mutating before
            // run_initial() is a caller bug, not a runtime fault; the
            // session layer only wraps initialized engines.
            panic!("run_initial() must be called before apply_batch()")
        };
        let (new_graph, structure_duration) = adjust_structure(&self.graph, batch, &self.stats)?;
        let mut report = refine(
            &self.alg,
            &self.graph,
            &new_graph,
            batch,
            RefineState {
                store: &mut state.store,
                vals: &mut state.vals,
                vals_at_cutoff: &mut state.vals_at_cutoff,
                changed_at_cutoff: &mut state.changed_at_cutoff,
            },
            &self.opts,
            &self.stats,
        );
        report.structure_duration = structure_duration;
        report.duration += structure_duration;
        self.graph = new_graph;
        self.enforce_memory_budget();
        self.publish_batch_telemetry(batch.len(), &report);
        Ok(report)
    }

    /// Degraded serving path: apply the batch to the graph and recompute
    /// every value from scratch on the new snapshot. No dependency state
    /// is kept, so the result is the from-scratch answer by construction.
    fn apply_batch_recompute(&mut self, batch: &MutationBatch) -> Result<RefineReport, MutationError> {
        let start = Instant::now();
        let (new_graph, structure_duration) = adjust_structure(&self.graph, batch, &self.stats)?;
        self.graph = new_graph;
        let before = self.stats.snapshot();
        self.recompute_full();
        let spent = self.stats.snapshot() - before;
        let report = RefineReport {
            duration: start.elapsed(),
            structure_duration,
            refined_vertices: self.graph.num_vertices(),
            changed_final_values: 0,
            edge_computations: spent.edge_computations,
            refined_iterations: 0,
            hybrid_iterations: spent.iterations as usize,
            degraded: true,
        };
        self.publish_batch_telemetry(batch.len(), &report);
        Ok(report)
    }

    /// Publishes one committed batch to the engine's metrics: batch and
    /// mutation counts, refinement latency, and the current store
    /// footprint / degrade gauges. The work counters need no publishing:
    /// refinement counts straight into the registry.
    fn publish_batch_telemetry(&self, mutations: usize, report: &RefineReport) {
        let m = self.stats.metrics();
        m.batches_applied.inc();
        m.mutations_applied.add(mutations as u64);
        m.batch_refine_ns.record_duration(report.duration);
        self.publish_footprint();
    }

    /// Publishes the degrade level and the store footprint (bytes and
    /// entries, from one walk over the dependency store).
    fn publish_footprint(&self) {
        let (bytes, entries) = match &self.state {
            Some(s) => s.store.footprint(|a| agg_total_bytes(&self.alg, a)),
            None => (0, 0),
        };
        self.stats.publish_store_gauges(self.degrade.index(), bytes, entries);
    }

    /// Estimated bytes of dependency information currently tracked — the
    /// *memory overhead* of GraphBolt relative to GB-Reset (Table 9).
    pub fn dependency_memory_bytes(&self) -> usize {
        match &self.state {
            Some(s) => s.store.footprint(|a| agg_total_bytes(&self.alg, a)).0,
            None => 0,
        }
    }

    /// Number of aggregation values physically stored (post-pruning).
    pub fn stored_aggregations(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.store.stored_entries())
    }

    /// Read-only access to the dependency store (inspection / tests).
    ///
    /// # Panics
    ///
    /// Panics if [`StreamingEngine::run_initial`] has not run.
    pub fn store(&self) -> &DependencyStore<A::Agg> {
        // lint:allow(panic-reachability) — documented `# Panics` API
        // contract; fallible callers use `try_store`. Inspection
        // accessor, not on the worker loop.
        self.try_store()
            .expect("run_initial() must be called before store()")
    }

    /// Fallible form of [`StreamingEngine::store`].
    ///
    /// # Errors
    ///
    /// Returns [`NotInitialized`] if [`StreamingEngine::run_initial`]
    /// has not run.
    pub fn try_store(&self) -> Result<&DependencyStore<A::Agg>, NotInitialized> {
        self.state.as_ref().map(|s| &s.store).ok_or(NotInitialized)
    }

    /// Borrowed view of the complete incremental state, for
    /// [`Checkpoint::capture`](crate::checkpoint::Checkpoint::capture);
    /// an uninitialized engine surfaces as a typed [`CheckpointError`]
    /// instead of killing a session worker.
    ///
    /// [`CheckpointError`]: crate::checkpoint::CheckpointError
    ///
    /// # Errors
    ///
    /// Returns [`NotInitialized`] if [`StreamingEngine::run_initial`]
    /// has not run.
    pub fn try_checkpoint_state(&self) -> Result<CheckpointState<'_, A>, NotInitialized> {
        let s = self.state.as_ref().ok_or(NotInitialized)?;
        Ok(CheckpointState {
            vals: &s.vals,
            vals_at_cutoff: &s.vals_at_cutoff,
            changed_at_cutoff: &s.changed_at_cutoff,
            store: &s.store,
        })
    }

    /// Reassembles an engine from restored checkpoint state (see
    /// [`Checkpoint::restore`](crate::checkpoint::Checkpoint::restore)).
    /// The memory-budget watchdog runs before the engine is handed back,
    /// so a restored store that exceeds `opts.memory_budget` degrades
    /// immediately instead of being served over-budget until the next
    /// batch.
    pub fn from_checkpoint_state(
        graph: GraphSnapshot,
        alg: A,
        opts: EngineOptions,
        vals: Vec<A::Value>,
        vals_at_cutoff: Vec<A::Value>,
        changed_at_cutoff: Vec<bool>,
        store: DependencyStore<A::Agg>,
    ) -> Self {
        let mut engine = Self {
            alg,
            graph,
            opts,
            stats: EngineStats::new(),
            state: Some(TrackedState {
                vals,
                vals_at_cutoff,
                changed_at_cutoff,
                store,
            }),
            degrade: DegradeLevel::None,
        };
        engine.enforce_memory_budget();
        engine
    }
}

/// Applies `batch` to `graph`, recording the adjustment as the current
/// batch's `structure` span.
fn adjust_structure(
    graph: &GraphSnapshot,
    batch: &MutationBatch,
    stats: &EngineStats,
) -> Result<(GraphSnapshot, Duration), MutationError> {
    let start = Instant::now();
    let new_graph = graph.apply(batch)?;
    let duration = start.elapsed();
    stats
        .spans()
        .batch_phase(0, "structure", telemetry::saturating_nanos(duration));
    Ok((new_graph, duration))
}

/// Borrowed incremental state of an engine (checkpoint capture).
pub struct CheckpointState<'a, A: Algorithm> {
    /// Final values `c_L`.
    pub vals: &'a [A::Value],
    /// Values at the pruning cut-off `c_k`.
    pub vals_at_cutoff: &'a [A::Value],
    /// Changed-at-cut-off bits.
    pub changed_at_cutoff: &'a [bool],
    /// The dependency store.
    pub store: &'a DependencyStore<A::Agg>,
}

/// Tiny algorithm used by doctests; not part of the public model.
#[doc(hidden)]
pub mod doctest_support {
    use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

    use crate::algorithm::{Algorithm, Decomposable, Refining, Sum};

    /// PageRank-shaped toy algorithm for documentation examples.
    #[derive(Debug, Clone, Default)]
    pub struct DocRank;

    impl Algorithm for DocRank {
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
            _v: VertexId,
            _w: Weight,
            cu: &f64,
        ) -> f64 {
            cu / g.out_degree(u).max(1) as f64
        }

        fn combine(&self, agg: &mut f64, c: &f64) {
            *agg += c;
        }

        fn compute(&self, _v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
            0.15 + 0.85 * agg
        }

        fn source_structure_dependent(&self) -> bool {
            true
        }
    }

    impl Decomposable for DocRank {
        fn retract(&self, _: Refining, agg: &mut f64, c: &f64) {
            *agg -= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_algorithms::{TestMinPlus, TestRank};
    use crate::bsp::run_bsp;
    use crate::options::ExecutionMode;
    use graphbolt_graph::{Edge, GraphBuilder};

    fn base_graph() -> GraphSnapshot {
        GraphBuilder::new(6)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 0.5)
            .add_edge(2, 0, 1.0)
            .add_edge(2, 3, 2.0)
            .add_edge(3, 4, 1.0)
            .add_edge(4, 5, 1.0)
            .add_edge(5, 3, 1.0)
            .build()
    }

    #[test]
    fn try_accessors_error_before_run_initial() {
        // Regression: the panicking accessors' fallible forms surface a
        // typed error on an uninitialized engine instead of aborting a
        // service worker.
        let e = StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(4));
        assert!(!e.is_initialized());
        assert_eq!(e.try_values(), Err(NotInitialized));
        assert_eq!(e.try_store().err(), Some(NotInitialized));
        assert!(e.try_checkpoint_state().is_err());
    }

    #[test]
    fn try_accessors_succeed_after_run_initial() {
        let mut e =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(4));
        e.run_initial();
        assert_eq!(e.try_values().map(<[f64]>::len), Ok(6));
        assert!(e.try_store().is_ok());
        assert!(e.try_checkpoint_state().is_ok());
    }

    fn assert_matches_scratch<Alg: Algorithm<Value = f64>>(
        engine: &StreamingEngine<Alg>,
        alg: &Alg,
        iters: usize,
    ) {
        let scratch = run_bsp(
            alg,
            engine.graph(),
            &EngineOptions::with_iterations(iters),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for (v, (a, b)) in engine.values().iter().zip(scratch.vals.iter()).enumerate() {
            let denom = b.abs().max(1e-12);
            assert!(
                (a - b).abs() / denom < 1e-7 || (a - b).abs() < 1e-9,
                "vertex {v}: refined {a} vs scratch {b}"
            );
        }
    }

    #[test]
    fn refined_addition_matches_scratch() {
        let alg = TestRank;
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(10));
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 3, 1.0));
        engine.apply_batch(&batch).unwrap();
        assert_matches_scratch(&engine, &alg, 10);
    }

    #[test]
    fn refined_deletion_matches_scratch() {
        let alg = TestRank;
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(10));
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.delete(Edge::new(2, 3, 2.0));
        engine.apply_batch(&batch).unwrap();
        assert_matches_scratch(&engine, &alg, 10);
    }

    #[test]
    fn refined_mixed_batch_matches_scratch() {
        let alg = TestRank;
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(10));
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch
            .add(Edge::new(5, 0, 1.0))
            .add(Edge::new(1, 4, 1.0))
            .delete(Edge::new(0, 1, 1.0));
        engine.apply_batch(&batch).unwrap();
        assert_matches_scratch(&engine, &alg, 10);
    }

    #[test]
    fn sequential_batches_stay_correct() {
        let alg = TestRank;
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(8));
        engine.run_initial();
        let batches = [
            {
                let mut b = MutationBatch::new();
                b.add(Edge::new(3, 1, 1.0));
                b
            },
            {
                let mut b = MutationBatch::new();
                b.delete(Edge::new(3, 1, 1.0));
                b.add(Edge::new(4, 0, 0.5));
                b
            },
            {
                let mut b = MutationBatch::new();
                b.delete(Edge::new(4, 5, 1.0));
                b
            },
        ];
        for batch in &batches {
            engine.apply_batch(batch).unwrap();
            assert_matches_scratch(&engine, &alg, 8);
        }
    }

    #[test]
    fn vertex_growth_is_supported() {
        let alg = TestRank;
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(6));
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(5, 8, 1.0)).add(Edge::new(8, 0, 1.0));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.values().len(), 9);
        assert_matches_scratch(&engine, &alg, 6);
    }

    #[test]
    fn horizontal_pruning_with_hybrid_matches_scratch() {
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(10).cutoff(4);
        let mut engine = StreamingEngine::new(base_graph(), TestRank, opts);
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 4, 1.0)).delete(Edge::new(4, 5, 1.0));
        let report = engine.apply_batch(&batch).unwrap();
        assert_eq!(report.refined_iterations, 4);
        assert_eq!(report.hybrid_iterations, 6);
        assert_matches_scratch(&engine, &alg, 10);
    }

    #[test]
    fn hybrid_sequential_batches_stay_correct() {
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(10).cutoff(3);
        let mut engine = StreamingEngine::new(base_graph(), TestRank, opts);
        engine.run_initial();
        for (add, del) in [((3, 0), (2, 0)), ((2, 5), (0, 1)), ((0, 2), (2, 5))] {
            let mut batch = MutationBatch::new();
            batch.add(Edge::new(add.0, add.1, 1.0));
            batch.delete(Edge::unweighted(del.0, del.1));
            engine.apply_batch(&batch).unwrap();
            assert_matches_scratch(&engine, &alg, 10);
        }
    }

    #[test]
    fn non_decomposable_refinement_matches_scratch() {
        let alg = TestMinPlus;
        let mut engine = StreamingEngine::new(
            base_graph(),
            TestMinPlus,
            EngineOptions::with_iterations(10),
        );
        engine.run_initial();
        // Deletion forces min re-evaluation; addition opens a shortcut.
        let mut batch = MutationBatch::new();
        batch
            .add(Edge::new(0, 4, 0.25))
            .delete(Edge::new(2, 3, 2.0));
        engine.apply_batch(&batch).unwrap();
        assert_matches_scratch(&engine, &alg, 10);
    }

    #[test]
    fn refinement_reduces_edge_work_vs_restart() {
        // A deep binary tree: values stabilize after ~depth iterations, so
        // one edge mutation near the leaves must touch far fewer edges
        // than a restart. (A strongly connected expander would not show
        // this — there every value keeps moving for all 10 iterations and
        // both strategies are O(E·L), which matches the paper's
        // observation that savings come from value stabilization.)
        let mut b = GraphBuilder::new(255);
        for i in 1..255u32 {
            b = b.add_edge((i - 1) / 2, i, 1.0);
        }
        let g = b.build();
        let mut engine =
            StreamingEngine::new(g.clone(), TestRank, EngineOptions::with_iterations(10));
        engine.run_initial();
        let before = engine.stats().snapshot();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(120, 200, 1.0));
        engine.apply_batch(&batch).unwrap();
        let refine_work = engine.stats().snapshot() - before;

        let restart_stats = EngineStats::new();
        run_bsp(
            &TestRank,
            engine.graph(),
            &EngineOptions::with_iterations(10),
            ExecutionMode::Incremental,
            &restart_stats,
        );
        assert!(
            refine_work.edge_computations < restart_stats.edge_computations() / 2,
            "refinement {} not much cheaper than restart {}",
            refine_work.edge_computations,
            restart_stats.edge_computations()
        );
    }

    #[test]
    fn dependency_memory_is_reported() {
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(10));
        assert_eq!(engine.dependency_memory_bytes(), 0);
        engine.run_initial();
        assert!(engine.dependency_memory_bytes() > 0);
        assert!(engine.stored_aggregations() > 0);
    }

    #[test]
    fn vertical_pruning_stores_less() {
        let g = base_graph();
        let mut pruned =
            StreamingEngine::new(g.clone(), TestRank, EngineOptions::with_iterations(10));
        pruned.run_initial();
        let mut unpruned = StreamingEngine::new(
            g,
            TestRank,
            EngineOptions::with_iterations(10).vertical(false),
        );
        unpruned.run_initial();
        assert!(pruned.stored_aggregations() <= unpruned.stored_aggregations());
        assert_eq!(unpruned.stored_aggregations(), 6 * 10);
    }

    #[test]
    fn memory_budget_degrades_to_recompute() {
        // A 1-byte budget can never be satisfied: the watchdog must walk
        // the whole ladder down to DroppedStore on the initial run.
        let opts = EngineOptions::with_iterations(10).budget(1);
        let mut engine = StreamingEngine::new(base_graph(), TestRank, opts);
        engine.run_initial();
        assert_eq!(engine.degrade_level(), DegradeLevel::DroppedStore);
        assert_eq!(engine.stored_aggregations(), 0, "store dropped");

        // Degraded serving still matches from-scratch exactly.
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 3, 1.0)).delete(Edge::new(4, 5, 1.0));
        let report = engine.apply_batch(&batch).unwrap();
        assert!(report.degraded);
        assert_matches_scratch(&engine, &TestRank, 10);
    }

    #[test]
    fn pruned_degrade_level_shrinks_store_and_stays_correct() {
        let mut engine = StreamingEngine::new(
            base_graph(),
            TestRank,
            EngineOptions::with_iterations(10),
        );
        engine.run_initial();
        let full_entries = engine.stored_aggregations();
        engine.force_degrade(DegradeLevel::PrunedStore);
        assert_eq!(engine.degrade_level(), DegradeLevel::PrunedStore);
        assert!(engine.stored_aggregations() <= full_entries);
        assert!(engine.options().effective_cutoff() <= 5);

        let mut batch = MutationBatch::new();
        batch.add(Edge::new(5, 1, 1.0));
        let report = engine.apply_batch(&batch).unwrap();
        assert!(!report.degraded, "pruned level still refines");
        assert!(report.hybrid_iterations > 0, "shrunk cut-off forces hybrid");
        assert_matches_scratch(&engine, &TestRank, 10);
    }

    #[test]
    fn degradation_is_one_way() {
        let mut engine = StreamingEngine::new(
            base_graph(),
            TestRank,
            EngineOptions::with_iterations(6),
        );
        engine.run_initial();
        engine.force_degrade(DegradeLevel::DroppedStore);
        engine.force_degrade(DegradeLevel::PrunedStore); // no-op
        assert_eq!(engine.degrade_level(), DegradeLevel::DroppedStore);
        // run_initial in the dropped state keeps serving correct values.
        engine.run_initial();
        assert_matches_scratch(&engine, &TestRank, 6);
    }

    #[test]
    fn generous_budget_never_degrades() {
        let opts = EngineOptions::with_iterations(8).budget(usize::MAX);
        let mut engine = StreamingEngine::new(base_graph(), TestRank, opts);
        engine.run_initial();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(1, 5, 1.0));
        engine.apply_batch(&batch).unwrap();
        assert_eq!(engine.degrade_level(), DegradeLevel::None);
    }

    #[test]
    #[should_panic(expected = "run_initial")]
    fn values_before_init_panics() {
        let engine = StreamingEngine::new(base_graph(), TestRank, EngineOptions::default());
        let _ = engine.values();
    }

    #[test]
    fn conflicting_batch_leaves_state_unchanged() {
        let mut engine =
            StreamingEngine::new(base_graph(), TestRank, EngineOptions::with_iterations(5));
        engine.run_initial();
        let vals_before = engine.values().to_vec();
        let edges_before = engine.graph().num_edges();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(0, 1, 1.0)); // duplicate
        assert!(engine.apply_batch(&batch).is_err());
        assert_eq!(engine.values(), &vals_before[..]);
        assert_eq!(engine.graph().num_edges(), edges_before);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]
        #[test]
        fn random_mutations_match_scratch(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4..25usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.2) {
                        edges.push(Edge::new(u as u32, v as u32, rng.gen_range(0.1..1.0)));
                    }
                }
            }
            let g = GraphSnapshot::from_edges(n, &edges);
            let iters = rng.gen_range(2..8usize);
            let cutoff = rng.gen_range(1..=iters);
            let opts = EngineOptions::with_iterations(iters).cutoff(cutoff);
            let mut engine = StreamingEngine::new(g, TestRank, opts);
            engine.run_initial();

            // Random batch: flip a few edges.
            let mut batch = MutationBatch::new();
            for _ in 0..rng.gen_range(1..6) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                if u == v { continue; }
                if engine.graph().has_edge(u, v) {
                    batch.delete(Edge::unweighted(u, v));
                } else {
                    batch.add(Edge::new(u, v, rng.gen_range(0.1..1.0)));
                }
            }
            let batch = batch.normalize_against(engine.graph());
            if batch.is_empty() { return Ok(()); }
            engine.apply_batch(&batch).unwrap();

            let scratch = run_bsp(
                &TestRank,
                engine.graph(),
                &EngineOptions::with_iterations(iters),
                ExecutionMode::Full,
                &EngineStats::new(),
            );
            for v in 0..n {
                let (a, b) = (engine.values()[v], scratch.vals[v]);
                proptest::prop_assert!(
                    (a - b).abs() < 1e-7,
                    "seed {} vertex {}: refined {} vs scratch {}", seed, v, a, b
                );
            }
        }
    }

    /// The work counters must be *exact*, not approximate: striped
    /// counters and per-chunk locals publish integer sums whose total is
    /// independent of thread count and scheduling, so the same execution
    /// on 1 and 4 workers reports identical statistics.
    #[test]
    fn edge_work_is_deterministic_across_thread_counts() {
        use crate::stats::StatsSnapshot;
        let run = || -> (StatsSnapshot, Vec<f64>) {
            let mut engine = StreamingEngine::new(
                base_graph(),
                TestRank,
                EngineOptions::with_iterations(8).cutoff(4),
            );
            engine.run_initial();
            let mut batch = MutationBatch::new();
            batch.add(Edge::new(0, 4, 1.0));
            batch.delete(Edge::new(2, 3, 2.0));
            engine.apply_batch(&batch).unwrap();
            (engine.stats().snapshot(), engine.values().to_vec())
        };
        let (stats_1, vals_1) = graphbolt_engine::parallel::with_threads(1, run);
        let (stats_4, vals_4) = graphbolt_engine::parallel::with_threads(4, run);
        assert_eq!(stats_1, stats_4, "work counters must not depend on thread count");
        for (v, (a, b)) in vals_1.iter().zip(vals_4.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
        }
    }
}
