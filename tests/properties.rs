//! Cross-crate property-based tests: invariants of the streaming
//! substrate and the refinement engine under randomly generated graphs
//! and mutation sequences.

use graphbolt::algorithms::{LabelPropagation, PageRank, ShortestPaths};
use graphbolt::core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
use graphbolt::prelude::*;
use proptest::prelude::*;

/// Strategy: a small random weighted digraph as an edge list.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (4usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..100)
            .prop_filter_map("no self loops", |(u, v, w)| {
                (u != v).then(|| Edge::new(u, v, w as f64 / 10.0))
            });
        proptest::collection::vec(edge, 1..n * 3).prop_map(move |edges| (n, edges))
    })
}

/// Strategy: a sequence of endpoint pairs used to build mutation batches.
fn arb_mutations() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0u32..24, 0u32..24, 1u32..100), 1..12).prop_map(|v| {
        v.into_iter()
            .map(|(a, b, w)| (a, b, w as f64 / 10.0))
            .collect()
    })
}

fn flip_batch(g: &GraphSnapshot, muts: &[(u32, u32, f64)]) -> MutationBatch {
    let n = g.num_vertices() as u32;
    let mut batch = MutationBatch::new();
    for &(u, v, w) in muts {
        let (u, v) = (u % n, v % n);
        if u == v {
            continue;
        }
        if g.has_edge(u, v) {
            batch.delete(Edge::new(u, v, g.edge_weight(u, v).unwrap()));
        } else {
            batch.add(Edge::new(u, v, w));
        }
    }
    batch.normalize_against(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshots stay internally consistent (CSR == CSC) under arbitrary
    /// mutation sequences, and edge counts track the batch arithmetic.
    #[test]
    fn snapshot_consistency_under_mutations(
        (n, edges) in arb_graph(),
        muts in arb_mutations(),
    ) {
        let mut g = GraphSnapshot::from_edges(n, &edges);
        let batch = flip_batch(&g, &muts);
        let expected = g.num_edges() + batch.additions().len() - batch.deletions().len();
        if batch.is_empty() { return Ok(()); }
        g = g.apply(&batch).unwrap();
        prop_assert!(g.check_consistency());
        prop_assert_eq!(g.num_edges(), expected);
    }

    /// Applying a batch and then its inverse restores the exact edge set.
    #[test]
    fn batch_inverse_round_trips(
        (n, edges) in arb_graph(),
        muts in arb_mutations(),
    ) {
        let g = GraphSnapshot::from_edges(n, &edges);
        let batch = flip_batch(&g, &muts);
        if batch.is_empty() { return Ok(()); }
        let g1 = g.apply(&batch).unwrap();
        let inverse = MutationBatch::from_parts(
            batch.deletions().to_vec(),
            batch.additions().to_vec(),
        );
        let g2 = g1.apply(&inverse).unwrap();
        let mut a = g.edges();
        let mut b = g2.edges();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// PageRank refinement matches a from-scratch run (BSP semantics) on
    /// arbitrary graphs and batches, including under horizontal pruning.
    #[test]
    fn pagerank_bsp_semantics(
        (n, edges) in arb_graph(),
        muts in arb_mutations(),
        cutoff in 1usize..8,
    ) {
        let g = GraphSnapshot::from_edges(n, &edges);
        let batch = flip_batch(&g, &muts);
        if batch.is_empty() { return Ok(()); }
        let opts = EngineOptions::with_iterations(8).cutoff(cutoff);
        let alg = PageRank::with_tolerance(1e-12);
        let mut engine = StreamingEngine::new(g, alg.clone(), opts);
        engine.run_initial();
        engine.apply_batch(&batch).unwrap();
        let scratch = run_bsp(
            &alg,
            engine.graph(),
            &EngineOptions::with_iterations(8),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..n {
            prop_assert!(
                (engine.values()[v] - scratch.vals[v]).abs() < 1e-7,
                "vertex {}: {} vs {}", v, engine.values()[v], scratch.vals[v]
            );
        }
    }

    /// SSSP (non-decomposable min) refinement is exact.
    #[test]
    fn sssp_refinement_is_exact(
        (n, edges) in arb_graph(),
        muts in arb_mutations(),
    ) {
        let g = GraphSnapshot::from_edges(n, &edges);
        let batch = flip_batch(&g, &muts);
        if batch.is_empty() { return Ok(()); }
        let opts = EngineOptions::with_iterations(n);
        let alg = ShortestPaths::new(0);
        let mut engine = StreamingEngine::new(g, alg.clone(), opts);
        engine.run_initial();
        engine.apply_batch(&batch).unwrap();
        let scratch = run_bsp(
            &alg,
            engine.graph(),
            &opts,
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..n {
            let (a, b) = (engine.values()[v], scratch.vals[v]);
            prop_assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-12,
                "vertex {}: {} vs {}", v, a, b
            );
        }
    }

    /// Label-propagation values remain probability distributions after
    /// refinement.
    #[test]
    fn lp_values_remain_distributions(
        (n, edges) in arb_graph(),
        muts in arb_mutations(),
    ) {
        let g = GraphSnapshot::from_edges(n, &edges);
        let batch = flip_batch(&g, &muts);
        if batch.is_empty() { return Ok(()); }
        let mut alg = LabelPropagation::with_synthetic_seeds(3, n, 5);
        alg.tolerance = 1e-12;
        let mut engine = StreamingEngine::new(g, alg, EngineOptions::with_iterations(6));
        engine.run_initial();
        engine.apply_batch(&batch).unwrap();
        for dist in engine.values() {
            let sum: f64 = dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(dist.iter().all(|&p| (-1e-12..=1.0 + 1e-9).contains(&p)));
        }
    }
}

/// Tracking is a pure function of (graph, algorithm, options): where the
/// peak-then-quiet cap stops recording must not depend on what another
/// engine in the process did before. Engine A refines 20 batches under
/// `.cutoff(2)` — tracked refinement *and* hybrid execution both run —
/// between two identical initial runs of engine B.
#[test]
fn tracking_is_independent_of_other_engines_in_the_process() {
    use graphbolt::graph::generators::watts_strogatz;
    use rand::{Rng, SeedableRng};
    const L: usize = 40;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let n = 4096;
    let g = GraphSnapshot::from_edges(n, &watts_strogatz(n, 4, 0.05, true, &mut rng));
    let opts = EngineOptions::with_iterations(L);
    let store_shape = || {
        let mut b = StreamingEngine::new(g.clone(), ShortestPaths::new(0), opts);
        b.run_initial();
        (b.store().tracked_iterations(), b.store().stored_entries())
    };
    let first = store_shape();
    assert!(first.0 < L, "the cap never engaged (tracked {})", first.0);

    let mut a = StreamingEngine::new(g.clone(), ShortestPaths::new(0), opts.cutoff(2));
    a.run_initial();
    for _ in 0..20 {
        let muts: Vec<(u32, u32, f64)> = (0..8)
            .map(|_| {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                (u, v, rng.gen_range(0.1..1.0))
            })
            .collect();
        let batch = flip_batch(a.graph(), &muts);
        let report = a.apply_batch(&batch).unwrap();
        assert!(report.refined_iterations > 0 && report.hybrid_iterations > 0);
    }

    assert_eq!(
        store_shape(),
        first,
        "engine A's history leaked into engine B's tracking"
    );
}
