//! From-scratch BSP execution: the Ligra baseline, the GB-Reset baseline,
//! and the tracking run that populates the dependency store.
//!
//! All three share one iteration skeleton; they differ in
//!
//! * **work selection** — [`ExecutionMode::Full`] recomputes every vertex
//!   every iteration; [`ExecutionMode::Incremental`] propagates (deltas
//!   of) changed values only, which is the paper's "selective
//!   scheduling",
//! * **tracking** — the tracking run additionally records every
//!   iteration's aggregation values into a [`DependencyStore`] and the
//!   changed-vertex bit-vector at the horizontal cut-off (needed by
//!   hybrid execution, §4.2).
//!
//! Past the first iteration, an incremental step belongs to the
//! algorithm's algebra ([`Algorithm::Kind`]). A selective aggregation
//! cannot retract, so it always pull-recomputes the touched destinations
//! (`step_pull_frontier`). A decomposable one can also push contribution
//! deltas from the changed sources (`step_delta`, sparse);
//! `step_decomposable` picks the direction — the push path, or, with
//! [`EngineOptions::adaptive_direction`] on, whichever an
//! [`AdaptiveController`] owned by the run's driver predicts cheaper from
//! measured per-unit costs.

use graphbolt_engine::adaptive::AdaptiveController;
use graphbolt_engine::parallel;
use graphbolt_engine::AtomicBitSet;
use graphbolt_graph::{GraphSnapshot, VertexId};

use crate::algorithm::kind::PerKind;
use crate::algorithm::{Algebra, Algorithm, Decomposable, Refining};
use crate::options::{EngineOptions, ExecutionMode};
use crate::refine::fold_locked;
use crate::sharded::ShardedMut;
use crate::stats::EngineStats;
use crate::store::DependencyStore;

/// Result of a from-scratch BSP execution.
#[derive(Debug, Clone)]
pub struct BspState<A: Algorithm> {
    /// Final vertex values `c_L`.
    pub vals: Vec<A::Value>,
    /// Final aggregation values `g_L`.
    pub aggs: Vec<A::Agg>,
    /// Iterations actually executed (may be fewer than requested when
    /// convergence exit fires).
    pub iterations_run: usize,
}

/// Result of a tracking execution.
pub struct TrackingOutcome<A: Algorithm> {
    /// Final values and aggregations.
    pub state: BspState<A>,
    /// Recorded aggregation history.
    pub store: DependencyStore<A::Agg>,
    /// Per-vertex "value changed at the cut-off iteration" bits — the
    /// hybrid-execution seed.
    pub changed_at_cutoff: Vec<bool>,
    /// Values at the cut-off iteration `c_k` (equal to the final values
    /// when the cut-off is the last iteration).
    pub vals_at_cutoff: Vec<A::Value>,
}

/// Runs `opts.max_iterations` BSP iterations from the algorithm's initial
/// values — the **Ligra** (Full) or **GB-Reset** (Incremental) baseline.
pub fn run_bsp<A: Algorithm>(
    alg: &A,
    g: &GraphSnapshot,
    opts: &EngineOptions,
    mode: ExecutionMode,
    stats: &EngineStats,
) -> BspState<A> {
    let init: Vec<A::Value> =
        parallel::par_map(0..g.num_vertices(), |v| alg.initial_value(v as VertexId));
    run_bsp_from(alg, g, init, opts, mode, stats)
}

/// Runs BSP iterations from the given starting values. This is also the
/// *naive incremental* strategy of Table 1/Figure 2: restarting from a
/// previous snapshot's results (`S*(Gᵀ, R_G)`), which violates BSP
/// semantics and yields incorrect results — the motivation experiment.
pub fn run_bsp_from<A: Algorithm>(
    alg: &A,
    g: &GraphSnapshot,
    init: Vec<A::Value>,
    opts: &EngineOptions,
    mode: ExecutionMode,
    stats: &EngineStats,
) -> BspState<A> {
    let mut driver = Driver::new(alg, g, init, stats, opts);
    let iterations_run = driver.run(opts, mode);
    BspState {
        vals: driver.vals,
        aggs: driver.aggs,
        iterations_run,
    }
}

/// Runs the initial execution *with dependency tracking* — every
/// iteration's aggregation values are recorded (subject to vertical and
/// horizontal pruning) and the changed-bit-vector is captured at the
/// cut-off iteration.
pub fn run_tracking<A: Algorithm>(
    alg: &A,
    g: &GraphSnapshot,
    opts: &EngineOptions,
    stats: &EngineStats,
) -> TrackingOutcome<A> {
    let n = g.num_vertices();
    let cutoff = opts.effective_cutoff();
    let mut store = DependencyStore::new(n, cutoff, opts.vertical_pruning);
    let init: Vec<A::Value> = parallel::par_map(0..n, |v| alg.initial_value(v as VertexId));
    let mut driver = Driver::new(alg, g, init, stats, opts);
    let mut changed_at_cutoff = vec![false; n];
    let mut vals_at_cutoff = driver.vals.clone();
    let mut iterations_run = 0;
    // With no explicit cut-off, stop recording once the changed count
    // has peaked and stayed quiet (see `adaptive_cutoff`). Only recording
    // stops — the store's configured cut-off, and thus checkpoint
    // compatibility, is untouched.
    let mut cap = crate::adaptive_cutoff::CapTracker::new(
        opts.horizontal_cutoff
            .is_none()
            .then(|| crate::adaptive_cutoff::changed_threshold(n)),
    );
    for iter in 1..=opts.max_iterations {
        let changed = driver.step(ExecutionMode::Incremental);
        iterations_run += 1;
        stats.add_iteration();
        // Record this iteration's aggregations. With vertical pruning
        // only vertices whose aggregation was touched need a record call
        // — untouched ones are implicitly pruned; without it, every
        // vertex materializes every iteration. The changed-bit vector and
        // cut-off values are re-captured at every *tracked* iteration so
        // that they always describe the last iteration the store reaches
        // (the computation may converge — stop touching aggregations —
        // before the cut-off, and refinement then resumes from there).
        if iter <= cutoff && !cap.capped() && (!driver.touched.is_empty() || !opts.vertical_pruning)
        {
            if opts.vertical_pruning {
                for &v in &driver.touched {
                    store.record(v as usize, iter, &driver.aggs[v as usize]);
                }
                if iter == 1 {
                    // Iteration 1 touches everything by construction; the
                    // loop above already covered all vertices.
                    debug_assert_eq!(driver.touched.len(), n);
                }
            } else {
                for v in 0..n {
                    store.record(v, iter, &driver.aggs[v]);
                }
            }
            // Capture only when the store actually advanced to this
            // iteration (all records of a touched-but-stable iteration
            // can be pruned away, in which case refinement will resume
            // from the previous iteration and needs *its* snapshot).
            if store.tracked_iterations() == iter {
                changed_at_cutoff.iter_mut().for_each(|b| *b = false);
                for &(v, _) in &driver.changed {
                    changed_at_cutoff[v as usize] = true;
                }
                vals_at_cutoff.clone_from(&driver.vals);
            }
        }
        // Fed after recording: the iteration that completes the quiet
        // streak is still tracked; recording stops from the next one.
        cap.observe(changed);
        if opts.convergence_exit && changed == 0 {
            break;
        }
    }
    TrackingOutcome {
        state: BspState {
            vals: driver.vals,
            aggs: driver.aggs,
            iterations_run,
        },
        store,
        changed_at_cutoff,
        vals_at_cutoff,
    }
}

/// Iteration driver shared by all execution modes.
struct Driver<'a, A: Algorithm> {
    alg: &'a A,
    g: &'a GraphSnapshot,
    /// `c_i` after `i` calls to `step`.
    vals: Vec<A::Value>,
    /// `g_i` after `i` calls to `step` (identity before the first).
    aggs: Vec<A::Agg>,
    /// `(v, value before the last change)` for vertices changed in the
    /// last step.
    changed: Vec<(VertexId, A::Value)>,
    /// Vertices whose aggregation was touched in the last step.
    touched: Vec<VertexId>,
    stats: &'a EngineStats,
    iter: usize,
    /// This run's delta-vs-pull arbiter for decomposable aggregations;
    /// `None` pins them to the delta-push path. It lives exactly as long as
    /// the run, so back-to-back runs in one process never steer each
    /// other.
    direction: Option<AdaptiveController>,
}

impl<'a, A: Algorithm> Driver<'a, A> {
    fn new(
        alg: &'a A,
        g: &'a GraphSnapshot,
        init: Vec<A::Value>,
        stats: &'a EngineStats,
        opts: &EngineOptions,
    ) -> Self {
        let n = g.num_vertices();
        Self {
            alg,
            g,
            vals: init,
            aggs: (0..n).map(|_| alg.identity()).collect(),
            changed: Vec::new(),
            touched: Vec::new(),
            stats,
            iter: 0,
            direction: opts.adaptive_direction.then(AdaptiveController::new),
        }
    }

    /// Steps until `opts.max_iterations` (or convergence, when the exit
    /// is on); returns the iterations executed.
    fn run(&mut self, opts: &EngineOptions, mode: ExecutionMode) -> usize {
        let mut iterations_run = 0;
        for _ in 1..=opts.max_iterations {
            let changed = self.step(mode);
            iterations_run += 1;
            self.stats.add_iteration();
            if opts.convergence_exit && changed == 0 {
                break;
            }
        }
        iterations_run
    }

    /// Executes one BSP iteration; returns the number of changed vertex
    /// values.
    fn step(&mut self, mode: ExecutionMode) -> usize {
        self.iter += 1;
        let full = mode == ExecutionMode::Full || self.iter == 1;
        let start = std::time::Instant::now();
        let changed = if full {
            self.step_full()
        } else {
            self.step_incremental()
        };
        self.stats
            .metrics()
            .bsp_iteration_ns
            .record_duration(start.elapsed());
        changed
    }

    /// One incremental iteration: derives the destinations the
    /// changed-source frontier touches, then runs the algebra's own step.
    fn step_incremental(&mut self) -> usize {
        self.touched = touched_targets(self.g, &self.changed);
        A::Kind::select(self)
    }

    /// Recomputes every vertex's aggregation from all in-edges (pull).
    fn step_full(&mut self) -> usize {
        let n = self.g.num_vertices();
        let (alg, g, vals) = (self.alg, self.g, &self.vals);
        let new_aggs: Vec<A::Agg> = parallel::par_map(0..n, |vi| {
            pull_aggregate(alg, g, vi as VertexId, |u| &vals[u as usize])
        });
        self.stats.add_edge_computations(self.g.num_edges() as u64);
        self.aggs = new_aggs;
        self.touched = (0..n as VertexId).collect();
        self.recompute_values(&self.touched.clone())
    }

    /// Recomputes aggregations of frontier destinations by pulling all
    /// their in-edges. The only correct direction for selective
    /// aggregations; the dense alternative for decomposable ones.
    fn step_pull_frontier(&mut self) -> usize {
        let (alg, g) = (self.alg, self.g);
        let (vals, touched) = (&self.vals, &self.touched);
        let recomputed: Vec<(VertexId, A::Agg)> = parallel::par_map(0..touched.len(), |i| {
            let v = touched[i];
            (v, pull_aggregate(alg, g, v, |u| &vals[u as usize]))
        });
        let work: u64 = touched.iter().map(|&v| g.in_degree(v) as u64).sum();
        self.stats.add_edge_computations(work);
        for (v, agg) in recomputed {
            self.aggs[v as usize] = agg;
        }
        self.recompute_values(&self.touched.clone())
    }

    /// Applies `∮` to the given vertices, recording which values changed.
    fn recompute_values(&mut self, targets: &[VertexId]) -> usize {
        let (alg, g) = (self.alg, self.g);
        let (vals, aggs) = (&self.vals, &self.aggs);
        let updated: Vec<_> =
            parallel::par_map(0..targets.len(), |i| {
                let v = targets[i];
                let new = alg.compute(v, &aggs[v as usize], g);
                let old = &vals[v as usize];
                if alg.changed(old, &new) {
                    Some((v, old.clone(), new))
                } else {
                    None
                }
            });
        self.stats.add_vertex_computations(targets.len() as u64);
        self.changed.clear();
        for entry in updated.into_iter().flatten() {
            let (v, old, new) = entry;
            self.vals[v as usize] = new;
            self.changed.push((v, old));
        }
        self.changed.len()
    }
}

/// The driver's incremental step, by algebra: a selective aggregation
/// cannot retract, so it always pulls.
impl<A: Algorithm> PerKind<A> for &mut Driver<'_, A> {
    /// Changed vertex values.
    type Output = usize;

    fn decomposable_arm(self) -> usize
    where
        A: Decomposable,
    {
        self.step_decomposable()
    }

    fn selective_arm(self) -> usize {
        self.step_pull_frontier()
    }
}

impl<A: Decomposable> Driver<'_, A> {
    /// Routes a decomposable step between the delta-push and
    /// pull-recompute traversals: statically push, unless adaptive
    /// direction selection is on — then the measured cost model picks,
    /// with sparse units `|F| + outdeg(F)` (the push traversal's work)
    /// and dense units `|T| + indeg(T)` (the pull traversal's).
    fn step_decomposable(&mut self) -> usize {
        // Taken out for the step so the `&mut self` traversals below can
        // run; put back once the observation is fed.
        let Some(ctl) = self.direction.take() else {
            return self.step_delta();
        };
        let (changed, touched) = (&self.changed, &self.touched);
        let sparse_units = changed.len() as u64
            + changed
                .iter()
                .map(|&(u, _)| self.g.out_degree(u) as u64)
                .sum::<u64>();
        let dense_units = touched.len() as u64
            + touched
                .iter()
                .map(|&v| self.g.in_degree(v) as u64)
                .sum::<u64>();
        let decision = ctl.choose(sparse_units, dense_units, false);
        let start = std::time::Instant::now();
        let n = if decision.dense {
            self.step_pull_frontier()
        } else {
            self.step_delta()
        };
        ctl.observe(
            decision,
            sparse_units,
            dense_units,
            start.elapsed().as_nanos() as u64,
        );
        self.direction = Some(ctl);
        n
    }

    /// Pushes change-in-contribution deltas from changed sources.
    fn step_delta(&mut self) -> usize {
        let changed = std::mem::take(&mut self.changed);
        let (alg, g, stats) = (self.alg, self.g, self.stats);
        let vals = &self.vals;
        {
            let sharded = ShardedMut::new(&mut self.aggs);
            let work = parallel::par_sum(0..changed.len(), |i| {
                let (u, ref old) = changed[i];
                let new = &vals[u as usize];
                let mut local_work = 0u64;
                for (v, w) in g.out_edges(u) {
                    match alg.delta(Refining(()), g, u, v, w, old, new) {
                        Some(d) => {
                            fold_locked(&sharded, v, |agg| alg.combine(agg, &d));
                            local_work += 1;
                        }
                        None => {
                            let oc = alg.contribution(g, u, v, w, old);
                            let nc = alg.contribution(g, u, v, w, new);
                            fold_locked(&sharded, v, |agg| {
                                alg.retract(Refining(()), agg, &oc);
                                alg.combine(agg, &nc);
                            });
                            local_work += 2;
                        }
                    }
                }
                local_work
            });
            stats.add_edge_computations(work);
        }
        self.recompute_values(&self.touched.clone())
    }
}

/// `⊕` over every in-edge of `v` into a fresh aggregation, reading each
/// source's value through `val_of` — the pull-recompute kernel shared by
/// the BSP driver, selective refinement and hybrid execution.
#[inline]
pub(crate) fn pull_aggregate<'v, A: Algorithm>(
    alg: &A,
    g: &GraphSnapshot,
    v: VertexId,
    val_of: impl Fn(VertexId) -> &'v A::Value,
) -> A::Agg
where
    A::Value: 'v,
{
    let mut agg = alg.identity();
    for (u, w) in g.in_edges(v) {
        let c = alg.contribution(g, u, v, w, val_of(u));
        alg.combine(&mut agg, &c);
    }
    agg
}

/// Sets in `bits` every out-neighbor of every source, in parallel
/// (idempotent `fetch_or`, so the union needs no coordination). `id`
/// projects a source's vertex id out of the caller's list element.
#[inline]
pub(crate) fn mark_out_neighbors<T: Sync>(
    g: &GraphSnapshot,
    sources: &[T],
    id: impl Fn(&T) -> VertexId + Sync + Send,
    bits: &AtomicBitSet,
) {
    parallel::par_for(0..sources.len(), |i| {
        for v in g.out_neighbors(id(&sources[i])) {
            bits.set(*v as usize);
        }
    });
}

/// Union of the out-neighborhoods of the `changed` sources as a sorted id
/// list.
fn touched_targets<V: Sync>(g: &GraphSnapshot, changed: &[(VertexId, V)]) -> Vec<VertexId> {
    let bits = AtomicBitSet::new(g.num_vertices());
    mark_out_neighbors(g, changed, |c| c.0, &bits);
    bits.to_ids()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_algorithms::{TestMinPlus, TestRank};
    use graphbolt_graph::{Edge, GraphBuilder};

    fn cycle_with_tail() -> GraphSnapshot {
        GraphBuilder::new(5)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 0, 1.0)
            .add_edge(2, 3, 2.0)
            .add_edge(3, 4, 1.0)
            .build()
    }

    #[test]
    fn full_and_incremental_agree_for_sum_kind() {
        let g = cycle_with_tail();
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(10);
        let stats = EngineStats::new();
        let full = run_bsp(&alg, &g, &opts, ExecutionMode::Full, &stats);
        let inc = run_bsp(&alg, &g, &opts, ExecutionMode::Incremental, &stats);
        for v in 0..5 {
            assert!(
                (full.vals[v] - inc.vals[v]).abs() < 1e-9,
                "vertex {v}: {} vs {}",
                full.vals[v],
                inc.vals[v]
            );
        }
    }

    #[test]
    fn incremental_does_less_edge_work_after_stabilization() {
        // A graph where values converge quickly: a star pointing outward.
        let mut b = GraphBuilder::new(101);
        for i in 1..=100u32 {
            b = b.add_edge(0, i, 1.0);
        }
        let g = b.build();
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(10);
        let full_stats = EngineStats::new();
        run_bsp(&alg, &g, &opts, ExecutionMode::Full, &full_stats);
        let inc_stats = EngineStats::new();
        run_bsp(&alg, &g, &opts, ExecutionMode::Incremental, &inc_stats);
        assert!(
            inc_stats.edge_computations() < full_stats.edge_computations(),
            "incremental {} >= full {}",
            inc_stats.edge_computations(),
            full_stats.edge_computations()
        );
    }

    #[test]
    fn min_plus_computes_shortest_paths() {
        let g = cycle_with_tail();
        let alg = TestMinPlus;
        let opts = EngineOptions::with_iterations(10);
        let stats = EngineStats::new();
        let out = run_bsp(&alg, &g, &opts, ExecutionMode::Incremental, &stats);
        assert_eq!(out.vals, vec![0.0, 1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn min_plus_full_and_incremental_agree() {
        let g = cycle_with_tail();
        let alg = TestMinPlus;
        let opts = EngineOptions::with_iterations(8);
        let stats = EngineStats::new();
        let full = run_bsp(&alg, &g, &opts, ExecutionMode::Full, &stats);
        let inc = run_bsp(&alg, &g, &opts, ExecutionMode::Incremental, &stats);
        assert_eq!(full.vals, inc.vals);
    }

    #[test]
    fn convergence_exit_stops_early() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let alg = TestMinPlus;
        let mut opts = EngineOptions::with_iterations(50);
        opts.convergence_exit = true;
        let stats = EngineStats::new();
        let out = run_bsp(&alg, &g, &opts, ExecutionMode::Incremental, &stats);
        assert!(out.iterations_run < 50);
        assert_eq!(out.vals, vec![0.0, 1.0]);
    }

    #[test]
    fn run_from_resumes_from_given_values() {
        let g = cycle_with_tail();
        let alg = TestMinPlus;
        let opts = EngineOptions::with_iterations(10);
        let stats = EngineStats::new();
        // Starting from already-converged values is a fixpoint.
        let first = run_bsp(&alg, &g, &opts, ExecutionMode::Full, &stats);
        let resumed = run_bsp_from(
            &alg,
            &g,
            first.vals.clone(),
            &opts,
            ExecutionMode::Full,
            &stats,
        );
        assert_eq!(first.vals, resumed.vals);
    }

    #[test]
    fn tracking_records_history() {
        let g = cycle_with_tail();
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(6);
        let stats = EngineStats::new();
        let out = run_tracking(&alg, &g, &opts, &stats);
        assert_eq!(out.store.tracked_iterations(), 6);
        // Reconstructing c_i from the store must reproduce a fresh run's
        // values at every iteration.
        for iter in 1..=6 {
            let scratch = run_bsp(
                &alg,
                &g,
                &EngineOptions::with_iterations(iter),
                ExecutionMode::Full,
                &EngineStats::new(),
            );
            for v in 0..5 {
                let agg = out.store.get(v, iter).unwrap();
                let val = alg.compute(v as VertexId, agg, &g);
                assert!(
                    (val - scratch.vals[v]).abs() < 1e-9,
                    "iter {iter} vertex {v}: {val} vs {}",
                    scratch.vals[v]
                );
            }
        }
    }

    #[test]
    fn tracking_respects_horizontal_cutoff() {
        let g = cycle_with_tail();
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(10).cutoff(3);
        let stats = EngineStats::new();
        let out = run_tracking(&alg, &g, &opts, &stats);
        assert_eq!(out.store.tracked_iterations(), 3);
        assert!(out.store.get(0, 4).is_none());
        // Final values still reflect all 10 iterations.
        let scratch = run_bsp(
            &alg,
            &g,
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..5 {
            assert!((out.state.vals[v] - scratch.vals[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn tracking_captures_cutoff_values() {
        let g = cycle_with_tail();
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(10).cutoff(4);
        let out = run_tracking(&alg, &g, &opts, &EngineStats::new());
        let scratch = run_bsp(
            &alg,
            &g,
            &EngineOptions::with_iterations(4),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..5 {
            assert!((out.vals_at_cutoff[v] - scratch.vals[v]).abs() < 1e-9);
        }
    }

    /// Regression: the tracking run may converge (stop touching
    /// aggregations) before the horizontal cut-off. The cut-off snapshot
    /// (changed bits + values) must then describe the *last tracked*
    /// iteration, not the configured cut-off — otherwise hybrid execution
    /// seeds from an empty set and misses in-motion vertices.
    #[test]
    fn cutoff_snapshot_tracks_last_touched_iteration() {
        // A DAG converges exactly: 7 → 2, 3 → 8 settles by iteration 2.
        let g = GraphSnapshot::from_edges(13, &[Edge::new(7, 2, 1.0), Edge::new(3, 8, 1.0)]);
        let opts = EngineOptions::with_iterations(8).cutoff(5);
        let out = run_tracking(&TestRank, &g, &opts, &EngineStats::new());
        assert!(
            out.store.tracked_iterations() < 5,
            "tracking should converge before the cut-off"
        );
        let k = out.store.tracked_iterations();
        // The captured values must equal c_k, not c_5.
        let at_k = run_bsp(
            &TestRank,
            &g,
            &EngineOptions::with_iterations(k),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..13 {
            assert!(
                (out.vals_at_cutoff[v] - at_k.vals[v]).abs() < 1e-12,
                "vertex {v}: {} vs {}",
                out.vals_at_cutoff[v],
                at_k.vals[v]
            );
        }
        // And the changed bits must describe iteration k (where vertices
        // 2 and 8 were still in motion).
        assert!(out.changed_at_cutoff[2] || out.changed_at_cutoff[8]);
    }

    /// Star + slow-converging tail: the changed count peaks at `~n`
    /// while the star settles, then stays at the tail's handful of
    /// vertices. The adaptive cap must stop tracking shortly after the
    /// peak, the cut-off snapshot must describe the last *tracked*
    /// iteration exactly (refinement correctness hinges on it), and an
    /// explicit `.cutoff(max_iterations)` must restore full tracking.
    #[test]
    fn adaptive_cap_stops_tracking_after_peak() {
        let n = 1 << 15;
        let mut b = GraphBuilder::new(n);
        // Star: hub 0 → every vertex outside the tail (peak changed
        // count well above the threshold n/256).
        for v in 1..(n - 5) as u32 {
            b = b.add_edge(0, v, 1.0);
        }
        // Tail on the last 5 vertices: a cycle with an uneven degree
        // split keeps a few values in motion every iteration (quiet
        // changed count below the threshold n/256 = 128).
        let t = (n - 5) as u32;
        b = b
            .add_edge(t, t + 1, 1.0)
            .add_edge(t + 1, t + 2, 1.0)
            .add_edge(t + 2, t, 1.0)
            .add_edge(t + 2, t + 3, 2.0)
            .add_edge(t + 3, t + 4, 1.0);
        let g = b.build();
        let opts = EngineOptions::with_iterations(8);
        let out = run_tracking(&TestRank, &g, &opts, &EngineStats::new());
        let k = out.store.tracked_iterations();
        assert!(k < 8, "adaptive cap never fired (tracked {k})");
        assert!(k >= 1, "cap must not fire before any peak");
        // Snapshot invariant: vals_at_cutoff == c_k of a fresh run.
        let at_k = run_bsp(
            &TestRank,
            &g,
            &EngineOptions::with_iterations(k),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..n {
            assert!(
                (out.vals_at_cutoff[v] - at_k.vals[v]).abs() < 1e-9,
                "vertex {v}: {} vs {}",
                out.vals_at_cutoff[v],
                at_k.vals[v]
            );
        }
        // Final values are unaffected by where tracking stopped.
        let scratch = run_bsp(
            &TestRank,
            &g,
            &opts,
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..n {
            assert!((out.state.vals[v] - scratch.vals[v]).abs() < 1e-9);
        }
        // An explicit cut-off at L tracks everything: the tail keeps
        // the store advancing through every iteration.
        let full = run_tracking(
            &TestRank,
            &g,
            &EngineOptions::with_iterations(8).cutoff(8),
            &EngineStats::new(),
        );
        assert_eq!(full.store.tracked_iterations(), 8);
    }

    /// An explicit cut-off disables the adaptive cap entirely, however
    /// quiet the workload.
    #[test]
    fn explicit_cutoff_overrides_adaptive_cap() {
        let g = cycle_with_tail();
        let opts = EngineOptions::with_iterations(10).cutoff(3);
        let out = run_tracking(&TestRank, &g, &opts, &EngineStats::new());
        assert_eq!(out.store.tracked_iterations(), 3);
    }

    #[test]
    fn isolated_vertices_get_identity_values() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).build();
        let alg = TestRank;
        let opts = EngineOptions::with_iterations(3);
        let out = run_bsp(
            &alg,
            &g,
            &opts,
            ExecutionMode::Incremental,
            &EngineStats::new(),
        );
        // Vertex 2 is isolated: value = ∮(identity) = 0.15.
        assert!((out.vals[2] - 0.15).abs() < 1e-12);
    }

    /// The adaptive direction pick must be invisible in the results:
    /// whatever mix of delta-push and pull-recompute the controller
    /// selects, values agree with the static (always-push) choice to
    /// float tolerance. Each adaptive run's controller is seeded so the
    /// dense path is predicted cheap, guaranteeing the
    /// pull-on-decomposable traversal is genuinely exercised rather than
    /// left to timing luck.
    #[test]
    fn adaptive_direction_matches_static_choice() {
        use graphbolt_engine::adaptive::Decision;
        use rand::{Rng, SeedableRng};
        let probe = |dense| Decision { dense, probe: true };
        let mut dense_picks = 0;
        for seed in 0..12u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3..40usize);
            let m = rng.gen_range(1..n * 3);
            let edges: Vec<Edge> = (0..m)
                .map(|_| {
                    Edge::new(
                        rng.gen_range(0..n) as VertexId,
                        rng.gen_range(0..n) as VertexId,
                        rng.gen_range(0.1..1.0),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = GraphSnapshot::from_edges(n, &edges);
            let alg = TestRank;
            let fixed = EngineOptions::with_iterations(8).adaptive_direction(false);
            let adaptive = EngineOptions::with_iterations(8);
            let want = run_bsp(&alg, &g, &fixed, ExecutionMode::Incremental, &EngineStats::new());
            let stats = EngineStats::new();
            let init = (0..n).map(|v| alg.initial_value(v as VertexId)).collect();
            let mut driver = Driver::new(&alg, &g, init, &stats, &adaptive);
            let ctl = driver.direction.as_ref().expect("adaptive_direction is on");
            // Dense measures 1 ns/unit, sparse 10_000 ns/unit: routine
            // picks go dense, and the spend-budgeted probe policy still
            // re-runs sparse occasionally.
            ctl.observe(probe(true), 1, 1, 1);
            ctl.observe(probe(false), 1, 1, 10_000);
            driver.run(&adaptive, ExecutionMode::Incremental);
            for v in 0..n {
                assert!(
                    (want.vals[v] - driver.vals[v]).abs() < 1e-9,
                    "seed {seed} vertex {v}: static {} vs adaptive {}",
                    want.vals[v],
                    driver.vals[v]
                );
            }
            dense_picks += driver.direction.as_ref().map_or(0, |c| c.snapshot().dense_picks);
        }
        assert!(dense_picks > 0, "adaptive runs never took the pull path");
    }

    proptest::proptest! {
        #[test]
        fn full_equals_incremental_on_random_graphs(seed in 0u64..50) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3..30usize);
            let m = rng.gen_range(1..n * 2);
            let edges: Vec<Edge> = (0..m)
                .map(|_| {
                    Edge::new(
                        rng.gen_range(0..n) as VertexId,
                        rng.gen_range(0..n) as VertexId,
                        rng.gen_range(0.1..1.0),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = GraphSnapshot::from_edges(n, &edges);
            let alg = TestRank;
            let opts = EngineOptions::with_iterations(6);
            let full = run_bsp(&alg, &g, &opts, ExecutionMode::Full, &EngineStats::new());
            let inc = run_bsp(&alg, &g, &opts, ExecutionMode::Incremental, &EngineStats::new());
            for v in 0..n {
                proptest::prop_assert!((full.vals[v] - inc.vals[v]).abs() < 1e-9);
            }
        }
    }
}
