//! SSSP with a *decomposable* `min` via counted multisets — the extension
//! the paper sketches in §5.4: *"\[Differential Dataflow\] maintains an
//! ordered map of path values and counts for each vertex, which get
//! quickly updated with value changes. Such a data-structure can be
//! incorporated in GraphBolt to simulate faster incremental min (and
//! max) at the cost of increased storage per vertex."*
//!
//! The aggregation value is a sorted multiset of path-length candidates
//! (one per in-edge). `retract` removes one candidate instead of
//! re-evaluating the whole in-neighborhood, making `min` behave like a
//! decomposable aggregation: deletions cost `O(log d)` instead of
//! `O(d)`. The price is exactly what the paper predicts — the dependency
//! store now holds `O(|E|·iters)` entries instead of `O(|V|·iters)`.
//! The `ablation` experiment of the benchmark harness quantifies both
//! sides of the trade.

use std::collections::BTreeMap;

use graphbolt_core::{Algorithm, Decomposable, Refining, Sum};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// A sorted multiset of `f64` candidates with signed counts — the
/// "ordered map of path values and counts". Signed counts let one bag
/// double as a *diff* (the fused `⋃△` of an update is
/// `{old: −1, new: +1}`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MinBag {
    counts: BTreeMap<u64, i64>,
}

impl MinBag {
    /// The empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bag holding one candidate.
    pub fn singleton(value: f64) -> Self {
        let mut bag = Self::new();
        bag.insert(value, 1);
        bag
    }

    /// Adds `count` copies of `value` (negative counts retract).
    pub fn insert(&mut self, value: f64, count: i64) {
        if count == 0 {
            return;
        }
        let key = value.to_bits();
        debug_assert!(value >= 0.0, "distance candidates are non-negative");
        let slot = self.counts.entry(key).or_insert(0);
        *slot += count;
        if *slot == 0 {
            self.counts.remove(&key);
        }
    }

    /// Merges another bag (adding counts).
    pub fn merge(&mut self, other: &MinBag) {
        for (&k, &c) in &other.counts {
            let slot = self.counts.entry(k).or_insert(0);
            *slot += c;
            if *slot == 0 {
                self.counts.remove(&k);
            }
        }
    }

    /// Subtracts another bag (retracting its counts).
    pub fn unmerge(&mut self, other: &MinBag) {
        for (&k, &c) in &other.counts {
            let slot = self.counts.entry(k).or_insert(0);
            *slot -= c;
            if *slot == 0 {
                self.counts.remove(&k);
            }
        }
    }

    /// Smallest candidate with positive count (`+∞` when empty).
    ///
    /// Non-negative `f64` bit patterns order like the floats themselves,
    /// so the first key is the minimum.
    pub fn min(&self) -> f64 {
        for (&k, &c) in &self.counts {
            debug_assert!(c > 0, "consolidated bag has negative count");
            if c > 0 {
                return f64::from_bits(k);
            }
        }
        f64::INFINITY
    }

    /// Number of distinct candidates stored.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if no candidate is stored.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// SSSP whose `min` aggregation is decomposable thanks to [`MinBag`].
///
/// Semantically identical to
/// [`ShortestPaths`](crate::ShortestPaths) — only the incremental cost
/// profile differs.
#[derive(Debug, Clone)]
pub struct ShortestPathsMultiset {
    /// Source vertex.
    pub source: VertexId,
}

impl ShortestPathsMultiset {
    /// Weighted SSSP from `source`.
    pub fn new(source: VertexId) -> Self {
        Self { source }
    }
}

impl Algorithm for ShortestPathsMultiset {
    type Value = f64;
    type Agg = MinBag;
    type Kind = Sum;

    fn initial_value(&self, v: VertexId) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn identity(&self) -> MinBag {
        MinBag::new()
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        cu: &f64,
    ) -> MinBag {
        if cu.is_finite() {
            MinBag::singleton(cu + w)
        } else {
            // Unreached sources contribute nothing (keeping ∞ out of the
            // bag bounds its size by the reached in-degree).
            MinBag::new()
        }
    }

    fn combine(&self, agg: &mut MinBag, contrib: &MinBag) {
        agg.merge(contrib);
    }

    fn compute(&self, v: VertexId, agg: &MinBag, _g: &GraphSnapshot) -> f64 {
        if v == self.source {
            0.0
        } else {
            agg.min()
        }
    }

    fn agg_heap_bytes(&self, agg: &MinBag) -> usize {
        // BTreeMap node overhead approximated at 2 words per entry.
        agg.len() * (std::mem::size_of::<(u64, i64)>() + 16)
    }
}

impl Decomposable for ShortestPathsMultiset {
    fn retract(&self, _: Refining, agg: &mut MinBag, contrib: &MinBag) {
        agg.unmerge(contrib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShortestPaths;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode, StreamingEngine};
    use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};

    #[test]
    fn bag_tracks_minimum_under_retraction() {
        let mut bag = MinBag::new();
        bag.insert(3.0, 1);
        bag.insert(1.5, 1);
        bag.insert(1.5, 1);
        assert_eq!(bag.min(), 1.5);
        bag.insert(1.5, -1);
        assert_eq!(bag.min(), 1.5, "one copy remains");
        bag.insert(1.5, -1);
        assert_eq!(bag.min(), 3.0);
        bag.insert(3.0, -1);
        assert!(bag.is_empty());
        assert_eq!(bag.min(), f64::INFINITY);
    }

    #[test]
    fn bag_merge_unmerge_round_trips() {
        let mut a = MinBag::singleton(2.0);
        a.insert(5.0, 1);
        let b = {
            let mut b = MinBag::singleton(1.0);
            b.insert(5.0, 1);
            b
        };
        let orig = a.clone();
        a.merge(&b);
        assert_eq!(a.min(), 1.0);
        a.unmerge(&b);
        assert_eq!(a, orig);
    }

    #[test]
    fn matches_reevaluation_sssp_on_stream() {
        use rand::{Rng, SeedableRng};
        for seed in 0..15 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(5..20usize);
            let mut b = GraphBuilder::new(n);
            for _ in 0..n * 2 {
                let u = rng.gen_range(0..n) as VertexId;
                let v = rng.gen_range(0..n) as VertexId;
                if u != v {
                    b = b.add_edge(u, v, (rng.gen_range(1..20) as f64) * 0.5);
                }
            }
            let g = b.build();
            let opts = EngineOptions::with_iterations(n);

            let mut multiset = StreamingEngine::new(g.clone(), ShortestPathsMultiset::new(0), opts);
            multiset.run_initial();
            let mut reeval = StreamingEngine::new(g, ShortestPaths::new(0), opts);
            reeval.run_initial();

            for _ in 0..3 {
                let mut batch = MutationBatch::new();
                for _ in 0..rng.gen_range(1..4) {
                    let u = rng.gen_range(0..n) as VertexId;
                    let v = rng.gen_range(0..n) as VertexId;
                    if u == v {
                        continue;
                    }
                    if multiset.graph().has_edge(u, v) {
                        batch.delete(Edge::new(u, v, multiset.graph().edge_weight(u, v).unwrap()));
                    } else {
                        batch.add(Edge::new(u, v, (rng.gen_range(1..20) as f64) * 0.5));
                    }
                }
                let batch = batch.normalize_against(multiset.graph());
                if batch.is_empty() {
                    continue;
                }
                multiset.apply_batch(&batch).unwrap();
                reeval.apply_batch(&batch).unwrap();
                for v in 0..n {
                    let (a, b) = (multiset.values()[v], reeval.values()[v]);
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-12,
                        "seed {seed} vertex {v}: multiset {a} vs re-eval {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn deletion_is_cheaper_than_reevaluation() {
        // A hub with many in-edges: retracting one candidate must not
        // rescan the whole in-neighborhood.
        let mut b = GraphBuilder::new(402);
        for i in 1..=400u32 {
            b = b.add_edge(0, i, 1.0);
            b = b.add_edge(i, 401, 1.0);
        }
        let g = b.build();
        let opts = EngineOptions::with_iterations(4);

        let mut multiset = StreamingEngine::new(g.clone(), ShortestPathsMultiset::new(0), opts);
        multiset.run_initial();
        let mut reeval = StreamingEngine::new(g, ShortestPaths::new(0), opts);
        reeval.run_initial();

        let mut batch = MutationBatch::new();
        batch.delete(Edge::new(7, 401, 1.0));

        let m_before = multiset.stats().snapshot();
        multiset.apply_batch(&batch).unwrap();
        let m_work = (multiset.stats().snapshot() - m_before).edge_computations;

        let r_before = reeval.stats().snapshot();
        reeval.apply_batch(&batch).unwrap();
        let r_work = (reeval.stats().snapshot() - r_before).edge_computations;

        assert!(
            m_work * 10 < r_work,
            "multiset work {m_work} should be ≪ re-evaluation work {r_work}"
        );
        assert_eq!(multiset.values()[401], reeval.values()[401]);
    }

    #[test]
    fn storage_cost_is_higher_than_scalar_min() {
        let mut b = GraphBuilder::new(50);
        for i in 0..49u32 {
            b = b.add_edge(i, i + 1, 1.0);
            b = b.add_edge(0, i + 1, 10.0);
        }
        let g = b.build();
        let opts = EngineOptions::with_iterations(10);
        let mut multiset = StreamingEngine::new(g.clone(), ShortestPathsMultiset::new(0), opts);
        multiset.run_initial();
        let mut scalar = StreamingEngine::new(g, ShortestPaths::new(0), opts);
        scalar.run_initial();
        assert!(
            multiset.dependency_memory_bytes() > scalar.dependency_memory_bytes(),
            "the paper's predicted storage cost: {} vs {}",
            multiset.dependency_memory_bytes(),
            scalar.dependency_memory_bytes()
        );
    }

    #[test]
    fn reference_distances_are_correct() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 2.0)
            .add_edge(1, 2, 2.0)
            .add_edge(0, 2, 5.0)
            .add_edge(2, 3, 1.0)
            .build();
        let out = run_bsp(
            &ShortestPathsMultiset::new(0),
            &g,
            &EngineOptions::with_iterations(6),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals, vec![0.0, 2.0, 4.0, 5.0]);
    }
}
