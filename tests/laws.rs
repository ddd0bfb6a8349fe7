//! Algebraic-law registrations for every `Algorithm` implementation in
//! `graphbolt-algorithms` (see `graphbolt_core::laws` and DESIGN.md §9
//! "Algebraic laws"). They live in the root suite so the tier-1
//! `cargo test` runs them.
//!
//! Each registration pairs the algorithm with a value generator matched
//! to its domain (ranks, distributions, latent factors, distances) and
//! a tolerance policy: exact `PartialEq` equality (tolerance `0.0`) for
//! comparison-based lattices whose folds never round, a small float
//! tolerance for sum-based aggregations whose fold order legitimately
//! perturbs low bits. The `check_laws::<T>` turbofish is load-bearing:
//! `cargo xtask lint`'s `law-coverage` rule matches it statically
//! against the workspace's `impl Algorithm for T` inventory.

use graphbolt::algorithms::{
    BeliefPropagation, CoEm, CollaborativeFiltering, ConnectedComponents, LabelPropagation,
    PageRank, ShortestPaths, ShortestPathsMultiset, WidestPaths,
};
use graphbolt::core::laws::{check_laws, Law, LawSpec, Monotonic, SplitMix64};

/// A random probability distribution over `n` states.
fn distribution(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| rng.range_f64(0.05, 1.0)).collect();
    let total: f64 = raw.iter().fold(0.0, |acc, x| acc + x);
    raw.into_iter().map(|x| x / total).collect()
}

#[test]
fn pagerank_laws() {
    let spec = LawSpec::new(|rng| rng.range_f64(0.1, 3.0), |agg: &f64| vec![*agg])
        .tolerance(1e-9);
    let report = check_laws::<PageRank>(&PageRank::default(), spec).expect("PageRank is lawful");
    // PageRank provides both fused deltas, so the structural variant is
    // exercised too.
    assert!(report.laws.contains(&Law::FusedDeltaStructural));
}

#[test]
fn belief_propagation_laws() {
    let spec = LawSpec::new(
        |rng| distribution(rng, 3),
        |agg: &Vec<f64>| agg.clone(),
    )
    .tolerance(1e-9);
    check_laws::<BeliefPropagation>(&BeliefPropagation::with_states(3), spec)
        .expect("BeliefPropagation is lawful in log space");
}

#[test]
fn label_propagation_laws() {
    let spec = LawSpec::new(
        |rng| distribution(rng, 3),
        |agg: &Vec<f64>| agg.clone(),
    )
    .tolerance(1e-9);
    check_laws::<LabelPropagation>(&LabelPropagation::new(3, vec![None; 5]), spec)
        .expect("LabelPropagation is lawful");
}

#[test]
fn coem_laws() {
    let spec = LawSpec::new(|rng| rng.range_f64(0.0, 1.0), |agg: &f64| vec![*agg])
        .tolerance(1e-9);
    check_laws::<CoEm>(&CoEm::new(vec![None; 5]), spec).expect("CoEm is lawful");
}

#[test]
fn collaborative_filtering_laws() {
    let spec = LawSpec::new(
        |rng| (0..3).map(|_| rng.range_f64(0.1, 1.0)).collect::<Vec<f64>>(),
        |agg: &Vec<f64>| agg.clone(),
    )
    .tolerance(1e-9);
    check_laws::<CollaborativeFiltering>(&CollaborativeFiltering::with_dim(3), spec)
        .expect("CollaborativeFiltering's Gram/vector pair is lawful");
}

#[test]
fn shortest_paths_laws() {
    let spec = LawSpec::new(|rng| rng.range_f64(0.0, 20.0), |agg: &f64| vec![*agg])
        .monotonic(Monotonic::NonIncreasing);
    let report =
        check_laws::<ShortestPaths>(&ShortestPaths::new(0), spec).expect("SSSP min is lawful");
    // min is selective: no retract or delta laws.
    assert_eq!(
        report.laws,
        [
            Law::Identity,
            Law::Commutativity,
            Law::Associativity,
            Law::ChangedIrreflexive,
            Law::Monotonicity,
        ]
    );
}

#[test]
fn shortest_paths_multiset_laws() {
    // The counted-multiset min (§5.4) makes min decomposable; exact
    // structural equality (tolerance 0) is required — candidate bags
    // must round-trip without loss.
    let spec = LawSpec::new(
        |rng| rng.range_f64(0.0, 20.0),
        |agg: &graphbolt::algorithms::MinBag| vec![agg.min()],
    )
    .monotonic(Monotonic::NonIncreasing);
    let report = check_laws::<ShortestPathsMultiset>(&ShortestPathsMultiset::new(0), spec)
        .expect("multiset min is lawful");
    assert!(report.laws.contains(&Law::RetractRoundTrip));
}

#[test]
fn connected_components_laws() {
    let spec = LawSpec::new(
        |rng| rng.range_usize(50) as f64,
        |agg: &f64| vec![*agg],
    )
    .monotonic(Monotonic::NonIncreasing);
    check_laws::<ConnectedComponents>(&ConnectedComponents::new(), spec)
        .expect("min-label is lawful");
}

#[test]
fn widest_paths_laws() {
    let spec = LawSpec::new(|rng| rng.range_f64(0.0, 10.0), |agg: &f64| vec![*agg])
        .monotonic(Monotonic::NonDecreasing);
    check_laws::<WidestPaths>(&WidestPaths::new(0), spec).expect("max-of-bottleneck is lawful");
}
