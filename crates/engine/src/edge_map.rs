//! Direction-optimizing `edge_map`.

use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

use crate::bitset::AtomicBitSet;
use crate::parallel;
use crate::subset::VertexSubset;

/// Direction-selection policy for [`edge_map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Always push along out-edges.
    Sparse,
    /// Always pull along in-edges.
    Dense,
    /// Ligra's density heuristic, computed from the call's own input:
    /// pull when `|F| + outdeg(F) > |E| / dense_denominator`.
    #[default]
    Static,
}

/// Tuning knobs for [`edge_map`].
#[derive(Debug, Clone, Copy)]
pub struct EdgeMapOptions {
    /// Denominator of the density cut-off — under [`Mode::Static`] a
    /// frontier is processed densely (pull) when `|F| + outdeg(F) >
    /// |E| / denominator` (Ligra uses 20).
    pub dense_denominator: usize,
    /// Direction-selection policy.
    pub mode: Mode,
}

impl Default for EdgeMapOptions {
    fn default() -> Self {
        Self {
            dense_denominator: 20,
            mode: Mode::default(),
        }
    }
}

impl EdgeMapOptions {
    /// Options forcing push-based traversal.
    pub fn sparse() -> Self {
        Self {
            mode: Mode::Sparse,
            ..Self::default()
        }
    }

    /// Options forcing pull-based traversal.
    pub fn dense() -> Self {
        Self {
            mode: Mode::Dense,
            ..Self::default()
        }
    }
}

/// Applies `update` over every edge leaving the frontier, returning the
/// subset of destinations for which `update` returned `true` (and for
/// which `cond` held before application).
///
/// * **Sparse (push)**: for each frontier vertex `u`, each out-edge
///   `(u, v, w)` with `cond(v)` gets `update(u, v, w)`. `update` must be
///   safe under concurrent invocation for the *same* `v` (use atomics or
///   CAS loops, as in Ligra).
/// * **Dense (pull)**: every vertex `v` with `cond(v)` scans its in-edges
///   and applies `update(u, v, w)` for in-neighbors `u` in the frontier.
///   Calls for a given `v` are sequential, so `update` needs no
///   synchronization on the destination.
///
/// The edge-computation counter (`edge_work`) is incremented once per
/// `update` invocation; the evaluation's Figure 6 / Table 7 read it.
pub fn edge_map<U, C>(
    g: &GraphSnapshot,
    frontier: &VertexSubset,
    update: U,
    cond: C,
    opts: EdgeMapOptions,
    edge_work: &parallel::WorkCounter,
) -> VertexSubset
where
    U: Fn(VertexId, VertexId, Weight) -> bool + Sync + Send,
    C: Fn(VertexId) -> bool + Sync + Send,
{
    let n = g.num_vertices();
    if frontier.is_empty() {
        return VertexSubset::empty(n);
    }
    // Only the heuristic pays for the out-degree scan; forced modes skip
    // it entirely.
    let use_dense = match opts.mode {
        Mode::Sparse => false,
        Mode::Dense => true,
        Mode::Static => {
            frontier.len() + frontier.out_degree_sum(g)
                > g.num_edges() / opts.dense_denominator.max(1)
        }
    };
    if use_dense {
        edge_map_dense(g, frontier, update, cond, edge_work)
    } else {
        edge_map_sparse(g, frontier, update, cond, edge_work)
    }
}

/// Edges per chunk floor for the edge-balanced sparse partition; below
/// this, splitting costs more (scheduling + partition_point) than the
/// work it distributes.
const MIN_CHUNK_EDGES: usize = 2048;

/// Work chunks per worker thread in the sparse path — enough slack for
/// the scheduler to even out chunks whose `update` costs differ.
const CHUNKS_PER_THREAD: usize = 8;

/// Vertices per chunk in the dense (pull) path. Work per vertex is the
/// in-degree scan, so vertex chunks this size keep per-chunk counter
/// publication negligible while bounding skew from hub vertices.
const DENSE_CHUNK_VERTICES: usize = 1024;

fn edge_map_sparse<U, C>(
    g: &GraphSnapshot,
    frontier: &VertexSubset,
    update: U,
    cond: C,
    edge_work: &parallel::WorkCounter,
) -> VertexSubset
where
    U: Fn(VertexId, VertexId, Weight) -> bool + Sync + Send,
    C: Fn(VertexId) -> bool + Sync + Send,
{
    let n = g.num_vertices();
    let next = AtomicBitSet::new(n);
    // Borrow the id list when the frontier is already sparse; only a
    // dense frontier pays for materialization (blocked parallel
    // conversion inside `to_ids`).
    let collected;
    let ids: &[VertexId] = match frontier.sparse_ids() {
        Some(ids) => ids,
        None => {
            collected = frontier.to_ids();
            &collected
        }
    };

    // Edge-balanced partition: offsets[i] is the global rank of the
    // first out-edge of ids[i]; the trailing sentinel becomes the total.
    // Chunks own equal *edge-count* ranges, so one hub vertex is split
    // across chunks instead of serializing a worker (power-law degree
    // skew is the sparse path's worst case).
    let mut offsets: Vec<usize> = parallel::par_map(0..ids.len(), |i| g.out_degree(ids[i]));
    offsets.push(0);
    let total_edges = parallel::par_exclusive_prefix_sum(&mut offsets);
    if total_edges == 0 {
        return VertexSubset::empty(n);
    }

    let target_chunks = parallel::default_threads() * CHUNKS_PER_THREAD;
    let chunk_edges = total_edges.div_ceil(target_chunks).max(MIN_CHUNK_EDGES);
    let chunks = total_edges.div_ceil(chunk_edges);
    let csr = g.csr();
    let work = parallel::StripedCounter::new();
    parallel::par_for(0..chunks, |c| {
        let lo = c * chunk_edges;
        let hi = (lo + chunk_edges).min(total_edges);
        // Last frontier position whose edge range starts at or before
        // `lo`; zero-degree vertices sharing that offset have empty
        // ranges and fall through the loop.
        let mut vi = offsets.partition_point(|&o| o <= lo) - 1;
        let mut local = 0u64;
        while vi < ids.len() && offsets[vi] < hi {
            let u = ids[vi];
            let targets = csr.neighbors(u);
            let weights = csr.weights(u);
            let base = offsets[vi];
            let estart = lo.saturating_sub(base);
            let eend = (hi - base).min(targets.len());
            for k in estart..eend {
                let v = targets[k];
                if cond(v) {
                    local += 1;
                    if update(u, v, weights[k]) {
                        next.set(v as usize);
                    }
                }
            }
            vi += 1;
        }
        work.add(c, local);
    });
    edge_work.add(work.sum());
    VertexSubset::from_bits(next).into_sparse()
}

fn edge_map_dense<U, C>(
    g: &GraphSnapshot,
    frontier: &VertexSubset,
    update: U,
    cond: C,
    edge_work: &parallel::WorkCounter,
) -> VertexSubset
where
    U: Fn(VertexId, VertexId, Weight) -> bool + Sync + Send,
    C: Fn(VertexId) -> bool + Sync + Send,
{
    let n = g.num_vertices();
    // Borrows the membership bits when the frontier is already dense
    // (the common case in pull-mode loops) instead of cloning it.
    let in_frontier = frontier.to_dense_bits();
    let in_frontier = in_frontier.as_ref();
    let next = AtomicBitSet::new(n);
    let csc = g.csc();
    let work = parallel::StripedCounter::new();
    parallel::par_for_chunks(n, DENSE_CHUNK_VERTICES, |c, range| {
        let mut local = 0u64;
        for vi in range {
            let v = vi as VertexId;
            if !cond(v) {
                continue;
            }
            let sources = csc.neighbors(v);
            let weights = csc.weights(v);
            let mut activated = false;
            for (k, &u) in sources.iter().enumerate() {
                if in_frontier.get(u as usize) {
                    local += 1;
                    if update(u, v, weights[k]) {
                        activated = true;
                    }
                }
            }
            if activated {
                next.set(vi);
            }
        }
        work.add(c, local);
    });
    edge_work.add(work.sum());
    VertexSubset::from_bits(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::WorkCounter;
    use graphbolt_graph::GraphBuilder;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn chain(n: usize) -> GraphSnapshot {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b = b.add_edge(i as VertexId, i as VertexId + 1, 1.0);
        }
        b.build()
    }

    fn bfs_layers(g: &GraphSnapshot, opts: EdgeMapOptions) -> Vec<i32> {
        let n = g.num_vertices();
        let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
        // ordering: single-threaded init before the first edge_map.
        level[0].store(0, Ordering::Relaxed);
        let mut frontier = VertexSubset::from_ids(n, vec![0]);
        let work = WorkCounter::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            let d = depth;
            frontier = edge_map(
                g,
                &frontier,
                |_u, v, _w| {
                    // ordering: the CAS decides a single winner per
                    // vertex; the written level is read only after
                    // edge_map joins, so Relaxed suffices on both
                    // success and failure.
                    level[v as usize]
                        .compare_exchange(u32::MAX, d, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                },
                // ordering: u32::MAX check tolerates stale reads — a
                // lost race is re-decided by the CAS above.
                |v| level[v as usize].load(Ordering::Relaxed) == u32::MAX,
                opts,
                &work,
            );
        }
        level
            .iter()
            .map(|l| {
                // ordering: read after the BFS loop; every edge_map
                // joined its workers.
                let v = l.load(Ordering::Relaxed);
                if v == u32::MAX {
                    -1
                } else {
                    v as i32
                }
            })
            .collect()
    }

    #[test]
    fn sparse_and_dense_bfs_agree() {
        let g = chain(50);
        let sparse = bfs_layers(&g, EdgeMapOptions::sparse());
        let dense = bfs_layers(&g, EdgeMapOptions::dense());
        assert_eq!(sparse, dense);
        assert_eq!(sparse[49], 49);
    }

    #[test]
    fn edge_work_counts_update_calls() {
        let g = chain(10);
        let work = WorkCounter::new();
        let frontier = VertexSubset::full(10);
        edge_map(
            &g,
            &frontier,
            |_u, _v, _w| false,
            |_| true,
            EdgeMapOptions::dense(),
            &work,
        );
        assert_eq!(work.get(), 9);
    }

    #[test]
    fn cond_filters_destinations() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 2, 1.0)
            .build();
        let work = WorkCounter::new();
        let frontier = VertexSubset::from_ids(3, vec![0]);
        let next = edge_map(
            &g,
            &frontier,
            |_u, _v, _w| true,
            |v| v != 1,
            EdgeMapOptions::sparse(),
            &work,
        );
        assert_eq!(next.to_ids(), vec![2]);
        assert_eq!(work.get(), 1);
    }

    #[test]
    fn empty_frontier_short_circuits() {
        let g = chain(5);
        let work = WorkCounter::new();
        let next = edge_map(
            &g,
            &VertexSubset::empty(5),
            |_u, _v, _w| true,
            |_| true,
            EdgeMapOptions::default(),
            &work,
        );
        assert!(next.is_empty());
        assert_eq!(work.get(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]
        /// Push and pull traversal of the same frontier activate exactly
        /// the same destination set on arbitrary graphs — the direction
        /// optimization must be purely a performance choice.
        #[test]
        fn push_and_pull_activate_identical_sets(seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(3..30usize);
            let mut b = graphbolt_graph::GraphBuilder::new(n);
            for _ in 0..n * 2 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v {
                    b = b.add_edge(u, v, 1.0);
                }
            }
            let g = b.build();
            let members: Vec<VertexId> = (0..n as VertexId)
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let frontier = VertexSubset::from_ids(n, members);
            let blocked: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();

            let run = |opts: EdgeMapOptions| -> (Vec<VertexId>, u64) {
                let work = WorkCounter::new();
                let next = edge_map(
                    &g,
                    &frontier,
                    |_u, _v, _w| true,
                    |v| !blocked[v as usize],
                    opts,
                    &work,
                )
                .to_ids();
                (next, work.get())
            };
            let (pushed, push_work) = run(EdgeMapOptions::sparse());
            let (pulled, pull_work) = run(EdgeMapOptions::dense());
            // The default is the density heuristic, not a forced mode.
            proptest::prop_assert_eq!(EdgeMapOptions::default().mode, Mode::Static);
            let (static_pick, static_work) = run(EdgeMapOptions::default());
            proptest::prop_assert_eq!(&pushed, &pulled);
            proptest::prop_assert_eq!(&pushed, &static_pick);
            // All modes visit the same live edge set, so the work
            // counters must agree exactly.
            proptest::prop_assert_eq!(push_work, pull_work);
            proptest::prop_assert_eq!(push_work, static_work);
            // Dense→sparse→dense round-trip preserves membership.
            let round_trip = frontier
                .clone()
                .into_dense()
                .into_sparse()
                .to_ids();
            proptest::prop_assert_eq!(round_trip, frontier.to_ids());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        /// The blocked parallel dense→sparse conversion (popcount +
        /// prefix sum + scatter) must produce exactly the sequential
        /// ascending id walk, including at block boundaries. Sizes here
        /// exceed the parallel-path threshold.
        #[test]
        fn parallel_dense_to_sparse_round_trip_matches_sequential(seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(40_000..90_000usize);
            let density = rng.gen_range(0.001..0.3f64);
            let bits = AtomicBitSet::new(n);
            let mut expected = Vec::new();
            for i in 0..n {
                if rng.gen_bool(density) {
                    bits.set(i);
                    expected.push(i as VertexId);
                }
            }
            let sequential: Vec<VertexId> =
                bits.iter().map(|i| i as VertexId).collect();
            proptest::prop_assert_eq!(&sequential, &expected);
            let sparse = VertexSubset::from_bits(bits).into_sparse();
            proptest::prop_assert_eq!(sparse.to_ids(), expected);
        }
    }

    /// A hub whose out-degree spans several edge-balanced chunks must be
    /// split across workers without dropping, duplicating, or
    /// double-counting edges (offsets with zero-degree duplicates
    /// included).
    #[test]
    fn edge_balanced_sparse_splits_hub_correctly() {
        let hub_deg = 9000u32;
        let n = hub_deg as usize + 1;
        let mut b = GraphBuilder::new(n);
        for v in 1..=hub_deg {
            b = b.add_edge(0, v, 1.0);
        }
        b = b.add_edge(100, 50, 1.0).add_edge(200, 60, 1.0);
        let g = b.build();
        // 300 has no out-edges: its offset duplicates its successor's.
        let frontier = VertexSubset::from_ids(n, vec![0, 100, 200, 300]);
        let run = |opts: EdgeMapOptions| -> (Vec<VertexId>, u64) {
            let work = WorkCounter::new();
            let next = edge_map(&g, &frontier, |_u, _v, _w| true, |_| true, opts, &work);
            (next.to_ids(), work.get())
        };
        let (pushed, push_work) = run(EdgeMapOptions::sparse());
        let (pulled, pull_work) = run(EdgeMapOptions::dense());
        assert_eq!(pushed, pulled);
        assert_eq!(pushed, (1..=hub_deg).collect::<Vec<_>>());
        assert_eq!(push_work, u64::from(hub_deg) + 2);
        assert_eq!(pull_work, push_work);
    }

    #[test]
    fn auto_mode_picks_dense_for_large_frontier() {
        // A full frontier on a dense-ish graph must still produce the same
        // activation set as forced modes.
        let mut b = GraphBuilder::new(20);
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    b = b.add_edge(i, j, 1.0);
                }
            }
        }
        let g = b.build();
        let work = WorkCounter::new();
        let frontier = VertexSubset::full(20);
        let next = edge_map(
            &g,
            &frontier,
            |_u, _v, _w| true,
            |_| true,
            EdgeMapOptions::default(),
            &work,
        );
        assert_eq!(next.len(), 20);
    }
}
