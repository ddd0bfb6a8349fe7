//! Dependency-driven value refinement (§3.3 / §4.2 of the paper).
//!
//! Given the aggregation history recorded by the tracking run, a mutation
//! batch is incorporated by walking the tracked iterations `1..=k` and
//! adjusting exactly the aggregation values that the mutation impacts:
//!
//! * **direct impact** — endpoints of added/deleted edges, at every
//!   iteration (`⊎` / `⋃-`),
//! * **transitive impact** — out-neighbors of vertices whose value was
//!   refined in the previous iteration (`⋃△`),
//! * **structural impact** — out-edges of vertices whose contribution
//!   context changed (e.g. PageRank's out-degree), at every iteration.
//!
//! Each iteration's propagate phase belongs to the algorithm's algebra
//! ([`Algorithm::Kind`], chosen at compile time): for a decomposable
//! aggregation (`propagate_decomposable`) each adjustment is a
//! constant-work retract/combine (or fused delta); for a selective one
//! (`propagate_selective`) the aggregation is re-evaluated by pulling the
//! complete in-neighborhood from the CSC index. Past the tracked
//! iterations, execution switches to
//! the computation-aware **hybrid** mode: plain frontier-driven
//! recomputation seeded with every vertex whose value was still in motion
//! at the cut-off (original run or refined trajectory).
//!
//! Throughout, the *old* graph snapshot stays alive so old contributions
//! are re-derived in their original structural context, which is what
//! makes retraction exact.
//!
//! # Data-structure note
//!
//! The per-iteration working sets (touched aggregations, changed-value
//! pairs, derived-value cache) are dense `Vec<Option<…>>` scratch arrays
//! paired with touched-lists, not hash maps: refinement's per-edge work
//! must stay comparable to the plain engine's per-edge work or the
//! incremental savings evaporate (the C++ GraphBolt uses flat per-vertex
//! arrays for the same reason).

use std::time::Instant;

use graphbolt_engine::parallel;
use graphbolt_engine::AtomicBitSet;
use graphbolt_graph::{GraphSnapshot, MutationBatch, VertexId};

use crate::algorithm::kind::PerKind;
use crate::algorithm::{Algebra, Algorithm, Decomposable, Refining};
use crate::bsp::{mark_out_neighbors, pull_aggregate};
use crate::options::EngineOptions;
use crate::sharded::ShardedMut;
use crate::stats::{EngineStats, RefineReport};
use crate::store::DependencyStore;
use crate::telemetry::span::Spans;

/// Mutable engine state handed to [`refine`].
pub struct RefineState<'s, A: Algorithm> {
    /// Aggregation history (mutated in place to reflect the new graph).
    pub store: &'s mut DependencyStore<A::Agg>,
    /// Final values `c_L` (updated in place).
    pub vals: &'s mut Vec<A::Value>,
    /// Values at the cut-off iteration `c_k` (updated in place; equal to
    /// `vals` when no horizontal pruning is configured).
    pub vals_at_cutoff: &'s mut Vec<A::Value>,
    /// "Changed at cut-off" bits of the current trajectory (updated in
    /// place — hybrid execution's seed for this and future batches).
    pub changed_at_cutoff: &'s mut Vec<bool>,
}

/// Dense scratch pad reused across refinement iterations: `slots[v]`
/// carries this iteration's entry for `v`, `touched` lists the occupied
/// slots for O(|touched|) clearing.
struct Scratch<T> {
    slots: Vec<Option<T>>,
    touched: Vec<VertexId>,
}

impl<T> Scratch<T> {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| None).collect(),
            touched: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, v: VertexId) -> Option<&T> {
        self.slots[v as usize].as_ref()
    }

    /// `v`'s entry here, else in `fallback` (where it must be).
    #[inline]
    fn get_or<'s>(&'s self, fallback: &'s Self, v: VertexId) -> &'s T {
        self.get(v)
            .or_else(|| fallback.get(v))
            .expect("entry pre-derived")
    }

    #[inline]
    fn insert(&mut self, v: VertexId, value: T) {
        if self.slots[v as usize].is_none() {
            self.touched.push(v);
        }
        self.slots[v as usize] = Some(value);
    }

    fn clear(&mut self) {
        for v in self.touched.drain(..) {
            self.slots[v as usize] = None;
        }
    }

    /// Exclusive view of the dense slot array, for shard-locked parallel
    /// mutation of already-occupied slots. Callers must not create or
    /// clear entries through this view — `touched` would go stale.
    fn slots_mut(&mut self) -> &mut [Option<T>] {
        &mut self.slots
    }

    fn drain(&mut self) -> impl Iterator<Item = (VertexId, T)> + '_ {
        self.touched
            .drain(..)
            .map(|v| (v, self.slots[v as usize].take().expect("touched slot")))
    }

    fn len(&self) -> usize {
        self.touched.len()
    }

    fn touched(&self) -> &[VertexId] {
        &self.touched
    }
}

/// Seeds a refinement slot for vertex `v` at iteration `i`: the working
/// aggregation starts from the old trajectory's `g_i(v)`, and the old
/// value `c_i(v)` is derived once (under the old graph's `∮` context).
fn seed_slot<A: Algorithm>(
    alg: &A,
    store: &DependencyStore<A::Agg>,
    v: VertexId,
    i: usize,
    old_g: &GraphSnapshot,
    identity: &A::Agg,
) -> (A::Agg, A::Value) {
    let agg = store
        .get(v as usize, i)
        .cloned()
        .unwrap_or_else(|| identity.clone());
    let old_c = alg.compute(v, &agg, old_g);
    (agg, old_c)
}

/// Reads `c_i(v)` of the *current* store content; correct for the old
/// trajectory before iteration `i` is committed and for the refined
/// trajectory afterwards.
fn value_at<A: Algorithm>(
    alg: &A,
    store: &DependencyStore<A::Agg>,
    identity: &A::Agg,
    v: VertexId,
    i: usize,
    g: &GraphSnapshot,
) -> A::Value {
    if i == 0 {
        alg.initial_value(v)
    } else {
        alg.compute(v, store.get(v as usize, i).unwrap_or(identity), g)
    }
}

/// Runs one per-edge fold on `slots[v]` under its shard lock: the lock
/// site that refinement's `⊎` / `⋃-` / `⋃△` and the BSP driver's delta
/// push share.
#[inline]
pub(crate) fn fold_locked<T>(slots: &ShardedMut<'_, T>, v: VertexId, fold: impl FnOnce(&mut T)) {
    // lint:allow(hot-path-blocking) — striped spinlock by design: the
    // shards make contention per-stripe, and the critical section is one
    // fold. DESIGN.md §5 covers the trade-off.
    slots.with(v as usize, fold);
}

/// The working aggregation of a slot seeded this iteration.
fn working_agg<G, V>(slot: &mut Option<(G, V)>) -> &mut G {
    &mut slot.as_mut().expect("impacted slot pre-seeded").0
}

/// One tracked iteration's propagate phase: what each algebra's arm
/// reads, and the slots it fills.
struct Propagate<'r, A: Algorithm> {
    alg: &'r A,
    old_g: &'r GraphSnapshot,
    new_g: &'r GraphSnapshot,
    store: &'r DependencyStore<A::Agg>,
    identity: &'r A::Agg,
    i: usize,
    opts: &'r EngineOptions,
    batch: &'r MutationBatch,
    added: &'r [(VertexId, VertexId)],
    is_structural: &'r AtomicBitSet,
    has_added_out: &'r AtomicBitSet,
    /// Sources changed at `i - 1`, plus the structural sources.
    dirty: Vec<VertexId>,
    /// Impacted destinations: batch endpoints, `dirty`'s out-neighbors.
    targets: Vec<VertexId>,
    prev_changed: &'r Scratch<(A::Value, A::Value)>,
    pair_cache: &'r mut Scratch<(A::Value, A::Value)>,
    new_aggs: &'r mut Scratch<(A::Agg, A::Value)>,
}

impl<A: Algorithm> PerKind<A> for Propagate<'_, A> {
    /// When the tag phase ended, and the edge computations spent.
    type Output = (Instant, u64);

    fn decomposable_arm(self) -> (Instant, u64)
    where
        A: Decomposable,
    {
        propagate_decomposable(self)
    }

    fn selective_arm(self) -> (Instant, u64) {
        propagate_selective(self)
    }
}

impl<A: Algorithm> Propagate<'_, A> {
    /// Derives, in parallel, the `(old, new)` value pair at `i - 1` of
    /// every source that did not change then and is not cached yet, so
    /// the application phase only does read-only pair lookups.
    fn derive_pairs(&mut self, sources: impl Iterator<Item = VertexId>) {
        let (prev_changed, pair_cache) = (self.prev_changed, &*self.pair_cache);
        let mut needed: Vec<VertexId> = sources
            .filter(|&u| prev_changed.get(u).is_none() && pair_cache.get(u).is_none())
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let (alg, store, identity, i, new_g) =
            (self.alg, self.store, self.identity, self.i, self.new_g);
        let derived: Vec<A::Value> = parallel::par_map(0..needed.len(), |k| {
            value_at(alg, store, identity, needed[k], i - 1, new_g)
        });
        for (u, val) in needed.into_iter().zip(derived) {
            self.pair_cache.insert(u, (val.clone(), val));
        }
    }
}

/// Decomposable propagate: seeds every impacted slot from the old
/// trajectory, then adjusts it per edge with the constant-work unions.
fn propagate_decomposable<A: Decomposable>(mut p: Propagate<'_, A>) -> (Instant, u64) {
    let (alg, old_g, new_g, i) = (p.alg, p.old_g, p.new_g, p.i);
    let (adds, dels) = (p.batch.additions(), p.batch.deletions());
    let dirty = std::mem::take(&mut p.dirty);
    p.derive_pairs(
        adds.iter()
            .chain(dels.iter())
            .map(|e| e.src)
            .chain(dirty.iter().copied()),
    );
    // Seed every impacted slot in parallel (store reads + one old value
    // derivation each), then install sequentially — O(|set|) pointer
    // writes.
    let (store, identity, targets) = (p.store, p.identity, &p.targets);
    let seeded: Vec<(A::Agg, A::Value)> = parallel::par_map(0..targets.len(), |k| {
        seed_slot(alg, store, targets[k], i, old_g, identity)
    });
    for (&v, slot) in targets.iter().zip(seeded) {
        p.new_aggs.insert(v, slot);
    }

    let tag_done = Instant::now();
    // Apply the three unions in parallel. Destinations are guarded by
    // shard locks (multiple workers may combine into the same
    // aggregation); counts accumulate in per-task locals published once
    // to a striped counter.
    let edge_counter = parallel::StripedCounter::new();
    let (prev_changed, pair_cache) = (p.prev_changed, &*p.pair_cache);
    // A source's `(old, new)` pair: its change at i-1, else the derived
    // unchanged pair.
    let pair = |u: VertexId| prev_changed.get_or(pair_cache, u);
    let slots = ShardedMut::new(p.new_aggs.slots_mut());
    // ⊎ — contributions of added edges (new structural context).
    parallel::par_for(0..adds.len(), |k| {
        let e = &adds[k];
        let contrib = alg.contribution(new_g, e.src, e.dst, e.weight, &pair(e.src).1);
        fold_locked(&slots, e.dst, |s| alg.combine(working_agg(s), &contrib));
        edge_counter.add(k, 1);
    });
    // ⋃- — retract contributions of deleted edges (old context, old
    // trajectory value).
    parallel::par_for(0..dels.len(), |k| {
        let e = &dels[k];
        let contrib = alg.contribution(old_g, e.src, e.dst, e.weight, &pair(e.src).0);
        fold_locked(&slots, e.dst, |s| {
            alg.retract(Refining(()), working_agg(s), &contrib)
        });
        edge_counter.add(k, 1);
    });
    // ⋃△ — transitive and structural updates over surviving edges.
    let (added, fused_delta) = (p.added, p.opts.fused_delta);
    parallel::par_for(0..dirty.len(), |di| {
        let u = dirty[di];
        let structural = p.is_structural.get(u as usize);
        let check_added = p.has_added_out.get(u as usize);
        let (old_u, new_u) = pair(u);
        let mut local = 0u64;
        for (v, w) in new_g.out_edges(u) {
            if check_added && added.binary_search(&(u, v)).is_ok() {
                // Added this batch — already handled with ⊎.
                continue;
            }
            let fused = if !fused_delta {
                None
            } else if structural {
                alg.delta_structural(Refining(()), old_g, new_g, u, v, w, old_u, new_u)
            } else {
                alg.delta(Refining(()), new_g, u, v, w, old_u, new_u)
            };
            if let Some(d) = fused {
                fold_locked(&slots, v, |s| alg.combine(working_agg(s), &d));
                local += 1;
                continue;
            }
            // Explicit retract + propagate (GraphBolt-RP shape, and the
            // fallback under structural change).
            let oc = alg.contribution(old_g, u, v, w, old_u);
            let nc = alg.contribution(new_g, u, v, w, new_u);
            fold_locked(&slots, v, |s| {
                let agg = working_agg(s);
                alg.retract(Refining(()), agg, &oc);
                alg.combine(agg, &nc);
            });
            local += 2;
        }
        edge_counter.add(di, local);
    });
    (tag_done, edge_counter.sum())
}

/// Selective propagate (§3.3 re-evaluation strategy): re-evaluates every
/// impacted aggregation from its complete updated input set, pulled from
/// the CSC index.
fn propagate_selective<A: Algorithm>(mut p: Propagate<'_, A>) -> (Instant, u64) {
    let (alg, old_g, new_g, i) = (p.alg, p.old_g, p.new_g, p.i);
    let targets = std::mem::take(&mut p.targets);
    p.derive_pairs(
        targets
            .iter()
            .flat_map(|&v| new_g.in_neighbors(v).iter().copied()),
    );
    let tag_done = Instant::now();
    let (prev_changed, pair_cache) = (p.prev_changed, &*p.pair_cache);
    let recomputed: Vec<A::Agg> = parallel::par_map(0..targets.len(), |k| {
        pull_aggregate(alg, new_g, targets[k], |u| {
            &prev_changed.get_or(pair_cache, u).1
        })
    });
    let mut edge_work = 0;
    for (&v, agg) in targets.iter().zip(recomputed) {
        edge_work += new_g.in_degree(v) as u64;
        let (_, old_c) = seed_slot(alg, p.store, v, i, old_g, p.identity);
        p.new_aggs.insert(v, (agg, old_c));
    }
    (tag_done, edge_work)
}

/// Incorporates `batch` (already applied to produce `new_g` from `old_g`)
/// into the tracked computation state, guaranteeing that the resulting
/// values equal a from-scratch synchronous execution on `new_g`
/// (Theorem 4.1).
pub fn refine<A: Algorithm>(
    alg: &A,
    old_g: &GraphSnapshot,
    new_g: &GraphSnapshot,
    batch: &MutationBatch,
    state: RefineState<'_, A>,
    opts: &EngineOptions,
    stats: &EngineStats,
) -> RefineReport {
    crate::fault::fire_panic(stats, "refine::start");
    let mut report = RefineReport::default();
    let start = Instant::now();
    let new_n = new_g.num_vertices();
    let cutoff = opts.effective_cutoff();
    // Iterations we can refine against recorded history. The tracking run
    // may have recorded fewer than the cut-off (early convergence).
    let refine_upto = state.store.tracked_iterations().min(cutoff);

    // Grow per-vertex state for newly added vertices. Their "old
    // trajectory" is: initial value at iteration 0, ∮(identity) afterwards
    // (no in-edges existed before this batch).
    state.store.grow(new_n);
    if state.vals.len() < new_n {
        let identity = alg.identity();
        for v in state.vals.len()..new_n {
            let val = alg.compute(v as VertexId, &identity, new_g);
            state.vals.push(val.clone());
            state.vals_at_cutoff.push(val);
        }
    }
    if state.changed_at_cutoff.len() < new_n {
        state.changed_at_cutoff.resize(new_n, false);
    }

    // Index the batch: a sorted added-edge list for O(log) membership
    // probes, and bit-set indexes over endpoints built with concurrent
    // set (idempotent union — safe to materialize in parallel).
    let mut added: Vec<(VertexId, VertexId)> =
        batch.additions().iter().map(|e| e.endpoints()).collect();
    added.sort_unstable();
    added.dedup();
    let adds = batch.additions();
    let dels = batch.deletions();
    let edge = |k: usize| {
        if k < adds.len() {
            &adds[k]
        } else {
            &dels[k - adds.len()]
        }
    };
    let is_structural = AtomicBitSet::new(new_n);
    let structural_sources: Vec<VertexId> = if alg.source_structure_dependent() {
        parallel::par_for(0..adds.len() + dels.len(), |k| {
            is_structural.set(edge(k).src as usize);
        });
        is_structural.to_ids()
    } else {
        Vec::new()
    };
    // Sources with at least one added out-edge: only their ⋃△ loops need
    // the per-edge added-set probe.
    let has_added_out = AtomicBitSet::new(new_n);
    parallel::par_for(0..adds.len(), |k| {
        has_added_out.set(adds[k].src as usize);
    });

    let identity = alg.identity();

    // `(old value, refined value)` of vertices whose value changed at the
    // previous refined iteration.
    let mut prev_changed: Scratch<(A::Value, A::Value)> = Scratch::new(new_n);
    // This iteration's refined aggregations, stored alongside the old
    // trajectory's value (derived once when the slot is first touched).
    let mut new_aggs: Scratch<(A::Agg, A::Value)> = Scratch::new(new_n);
    // Per-iteration cache of derived `(old, new)` value pairs at the
    // previous iteration: deriving applies `∮` (a dense solve for CF), so
    // each needed source is derived at most once per iteration.
    let mut pair_cache: Scratch<(A::Value, A::Value)> = Scratch::new(new_n);
    // Every vertex whose aggregation was refined in any iteration.
    let mut refined: Scratch<()> = Scratch::new(new_n);
    // Refined-and-changed set at the last tracked iteration (final-value
    // bookkeeping for the fully-refined path).
    let mut changed_last: Vec<VertexId> = Vec::new();
    let mut edge_work = 0u64;

    for i in 1..=refine_upto {
        pair_cache.clear();
        // Phase timing (DESIGN.md §10): tag = impacted-set derivation +
        // slot seeding (the arm reports its end), propagate = the unions
        // or the re-evaluation, apply = the commit loop.
        let iter_start = Instant::now();
        // Dirty sources: changed at i-1, plus structural sources whose
        // surviving contributions must be re-derived under the new
        // context. Impacted: batch endpoints plus the dirty sources'
        // out-neighborhoods, as a concurrent bit union.
        let mut dirty: Vec<VertexId> = prev_changed.touched().to_vec();
        for &u in &structural_sources {
            if prev_changed.get(u).is_none() {
                dirty.push(u);
            }
        }
        let impacted = AtomicBitSet::new(new_n);
        parallel::par_for(0..adds.len() + dels.len(), |k| {
            impacted.set(edge(k).dst as usize);
        });
        mark_out_neighbors(new_g, &dirty, |&u| u, &impacted);
        let (tag_done, work) = A::Kind::select(Propagate {
            alg,
            old_g,
            new_g,
            store: state.store,
            identity: &identity,
            i,
            opts,
            batch,
            added: &added,
            is_structural: &is_structural,
            has_added_out: &has_added_out,
            dirty,
            targets: impacted.to_ids(),
            prev_changed: &prev_changed,
            pair_cache: &mut pair_cache,
            new_aggs: &mut new_aggs,
        });
        edge_work += work;

        let propagate_done = Instant::now();
        // Commit: derive new values, write refined aggregations, and
        // build the next iteration's changed set (the old value was
        // derived when the slot was seeded).
        let committed: Vec<_> = new_aggs.drain().collect();
        prev_changed.clear();
        for (v, (agg, old_c)) in committed {
            refined.insert(v, ());
            let new_c = alg.compute(v, &agg, new_g);
            stats.add_vertex_computations(2);
            state.store.set(v as usize, i, agg);
            if alg.changed(&old_c, &new_c) {
                prev_changed.insert(v, (old_c, new_c));
            }
        }
        if i == refine_upto {
            changed_last = prev_changed.touched().to_vec();
        }
        stats.add_iteration();
        report.refined_iterations += 1;

        let m = stats.metrics();
        let tag_ns = tag_done.duration_since(iter_start);
        let propagate_ns = propagate_done.duration_since(tag_done);
        let apply_ns = propagate_done.elapsed();
        m.refine_tag_ns.record_duration(tag_ns);
        m.refine_propagate_ns.record_duration(propagate_ns);
        m.refine_apply_ns.record_duration(apply_ns);
        // A phase span each under the engine's current batch trace,
        // feeding the critical-path report: per-phase, not per-edge, and
        // one load-and-branch when tracing is off.
        let spans: Spans<'_> = stats.spans();
        if spans.enabled() {
            for (phase, elapsed) in [
                ("tag", tag_ns),
                ("propagate", propagate_ns),
                ("apply", apply_ns),
            ] {
                spans.batch_phase(i as u64, phase, crate::telemetry::saturating_nanos(elapsed));
            }
        }
    }

    stats.add_edge_computations(edge_work);
    report.edge_computations = edge_work;
    report.refined_vertices = refined.len();

    // Update c_k (and the cut-off changed-bits) for the refined
    // trajectory, then continue with hybrid execution if iterations remain.
    let total_iters = opts.max_iterations;
    if refine_upto >= total_iters {
        // Fully refined: apply final-iteration value changes.
        let mut changed_final = 0;
        for (v, (_, new_c)) in prev_changed.drain() {
            state.vals[v as usize] = new_c.clone();
            state.vals_at_cutoff[v as usize] = new_c;
            changed_final += 1;
        }
        for v in &changed_last {
            state.changed_at_cutoff[*v as usize] = true;
        }
        report.changed_final_values = changed_final;
    } else {
        // Refresh c_k and the in-motion bit for refined vertices. The bit
        // means "cᵀ_k(v) ≠ cᵀ_{k-1}(v)" on the *current* trajectory: for
        // unrefined vertices the trajectory through `k` is untouched so
        // their bit stands; for refined vertices both values are readable
        // from the refined store, so the bit is maintained exactly
        // (a conservative union would otherwise grow monotonically across
        // batches and bloat every future hybrid seed).
        {
            let refined_ids = refined.touched();
            let store_ref: &DependencyStore<A::Agg> = state.store;
            let updates: Vec<(A::Value, bool)> =
                parallel::par_map(0..refined_ids.len(), |k| {
                    let v = refined_ids[k];
                    let at_k = value_at(alg, store_ref, &identity, v, refine_upto, new_g);
                    let at_km1 = value_at(alg, store_ref, &identity, v, refine_upto - 1, new_g);
                    let changed = alg.changed(&at_km1, &at_k);
                    (at_k, changed)
                });
            for (&v, (at_k, changed)) in refined_ids.iter().zip(updates) {
                state.changed_at_cutoff[v as usize] = changed;
                state.vals_at_cutoff[v as usize] = at_k;
            }
        }
        // Hybrid seed: everything in motion at the cut-off.
        let changed_ref: &[bool] = state.changed_at_cutoff;
        let mut seed: Vec<VertexId> =
            parallel::par_filter_map(0..new_n, |v| changed_ref[v].then_some(v as VertexId));
        seed.sort_unstable();
        let hybrid = run_hybrid(
            alg,
            new_g,
            state.vals_at_cutoff,
            seed,
            refine_upto,
            total_iters,
            stats,
        );
        report.hybrid_iterations = hybrid.iterations;
        report.edge_computations += hybrid.edge_work;
        let mut changed_final = 0;
        for (v, val) in hybrid.final_vals.into_iter().enumerate() {
            if alg.changed(&state.vals[v], &val) {
                state.vals[v] = val;
                changed_final += 1;
            }
        }
        report.changed_final_values = changed_final;
    }

    report.duration = start.elapsed();
    report
}

struct HybridOutcome<V> {
    final_vals: Vec<V>,
    iterations: usize,
    edge_work: u64,
}

/// Computation-aware hybrid execution: ordinary frontier-driven BSP from
/// the cut-off values to the final iteration, pulling aggregations of
/// frontier out-neighborhoods (§4.2).
fn run_hybrid<A: Algorithm>(
    alg: &A,
    g: &GraphSnapshot,
    vals_at_cutoff: &[A::Value],
    seed: Vec<VertexId>,
    from_iter: usize,
    to_iter: usize,
    stats: &EngineStats,
) -> HybridOutcome<A::Value> {
    let mut cur: Vec<A::Value> = vals_at_cutoff.to_vec();
    // `moving` holds vertices whose value differed between the last two
    // completed iterations.
    let mut moving: Vec<VertexId> = seed;
    let mut iterations = 0;
    let mut edge_work = 0u64;
    for _ in from_iter + 1..=to_iter {
        iterations += 1;
        stats.add_iteration();
        if moving.is_empty() {
            continue;
        }
        // Frontier out-neighborhood as a concurrent bit union, flattened
        // with the blocked parallel conversion (ascending ids).
        let target_bits = AtomicBitSet::new(g.num_vertices());
        mark_out_neighbors(g, &moving, |&u| u, &target_bits);
        let targets = target_bits.to_ids();
        let cur_ref = &cur;
        let updated: Vec<(VertexId, A::Value)> = parallel::par_map(0..targets.len(), |ti| {
            let v = targets[ti];
            let agg = pull_aggregate(alg, g, v, |u| &cur_ref[u as usize]);
            (v, alg.compute(v, &agg, g))
        });
        stats.add_vertex_computations(targets.len() as u64);
        // Reuse the frontier buffer across iterations instead of
        // allocating a fresh Vec per round.
        moving.clear();
        for (v, new_val) in updated {
            edge_work += g.in_degree(v) as u64;
            if alg.changed(&cur[v as usize], &new_val) {
                cur[v as usize] = new_val;
                moving.push(v);
            }
        }
    }
    stats.add_edge_computations(edge_work);
    HybridOutcome {
        final_vals: cur,
        iterations,
        edge_work,
    }
}
