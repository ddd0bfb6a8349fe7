//! Label Propagation (LP) — Table 4:
//! `⊕ = ∀f: Σ c(u, f) · weight(u, v)` (Zhu–Ghahramani semi-supervised
//! label propagation with clamped seeds).

use std::sync::Arc;

use graphbolt_core::{Algorithm, Decomposable, Refining, Sum};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

use crate::util::linf;

/// Semi-supervised label propagation over `F` labels.
///
/// * value: a probability vector of length `F`,
/// * aggregation: per-label weighted sum of in-neighbor vectors — a
///   vector of simple sums, so the complex aggregation decomposes
///   statically (§3.3 step 1) and the fused delta is
///   `(new − old) · weight`,
/// * `∮`: normalize to a distribution; *seed* vertices are clamped to
///   their one-hot label.
#[derive(Debug, Clone)]
pub struct LabelPropagation {
    num_labels: usize,
    /// `seeds[v] = Some(label)` clamps vertex `v`.
    seeds: Arc<Vec<Option<u32>>>,
    /// Selective-scheduling tolerance on the L∞ distance.
    pub tolerance: f64,
}

impl LabelPropagation {
    /// Creates an instance with the given label count and seed
    /// assignment (indexed by vertex id; vertices beyond the vector are
    /// unlabeled).
    pub fn new(num_labels: usize, seeds: Vec<Option<u32>>) -> Self {
        assert!(num_labels >= 2, "need at least two labels");
        debug_assert!(seeds.iter().flatten().all(|&l| (l as usize) < num_labels));
        Self {
            num_labels,
            seeds: Arc::new(seeds),
            tolerance: 1e-6,
        }
    }

    /// Deterministically seeds every `stride`-th vertex with label
    /// `v % num_labels` — the synthetic seeding used by the benchmark
    /// harness.
    pub fn with_synthetic_seeds(num_labels: usize, n: usize, stride: usize) -> Self {
        let seeds = (0..n)
            .map(|v| (v % stride == 0).then_some((v % num_labels) as u32))
            .collect();
        Self::new(num_labels, seeds)
    }

    /// Number of labels `F`.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    fn seed_of(&self, v: VertexId) -> Option<u32> {
        self.seeds.get(v as usize).copied().flatten()
    }

    fn one_hot(&self, label: u32) -> Vec<f64> {
        let mut x = vec![0.0; self.num_labels];
        x[label as usize] = 1.0;
        x
    }

    fn uniform(&self) -> Vec<f64> {
        vec![1.0 / self.num_labels as f64; self.num_labels]
    }

    /// Most likely label of a value vector.
    pub fn argmax(dist: &[f64]) -> usize {
        dist.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("non-NaN"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Algorithm for LabelPropagation {
    type Value = Vec<f64>;
    type Agg = Vec<f64>;
    type Kind = Sum;

    fn initial_value(&self, v: VertexId) -> Vec<f64> {
        match self.seed_of(v) {
            Some(label) => self.one_hot(label),
            None => self.uniform(),
        }
    }

    fn identity(&self) -> Vec<f64> {
        vec![0.0; self.num_labels]
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        cu: &Vec<f64>,
    ) -> Vec<f64> {
        cu.iter().map(|x| x * w).collect()
    }

    fn combine(&self, agg: &mut Vec<f64>, contrib: &Vec<f64>) {
        for (a, c) in agg.iter_mut().zip(contrib) {
            *a += c;
        }
    }

    fn compute(&self, v: VertexId, agg: &Vec<f64>, _g: &GraphSnapshot) -> Vec<f64> {
        if let Some(label) = self.seed_of(v) {
            return self.one_hot(label);
        }
        let sum: f64 = agg.iter().sum();
        // Incremental retraction can leave ±1e-16 float residue where the
        // true aggregation is empty (e.g. a vertex whose last in-edge was
        // deleted); normalizing by such a residue would amplify it
        // arbitrarily, so near-empty aggregations fall back to uniform.
        if sum <= 1e-12 {
            self.uniform()
        } else {
            agg.iter().map(|x| x / sum).collect()
        }
    }

    fn changed(&self, old: &Vec<f64>, new: &Vec<f64>) -> bool {
        linf(old, new) > self.tolerance
    }

    fn agg_heap_bytes(&self, agg: &Vec<f64>) -> usize {
        agg.capacity() * std::mem::size_of::<f64>()
    }
}

impl Decomposable for LabelPropagation {
    fn retract(&self, _: Refining, agg: &mut Vec<f64>, contrib: &Vec<f64>) {
        for (a, c) in agg.iter_mut().zip(contrib) {
            *a -= c;
        }
    }

    fn delta(
        &self,
        _: Refining,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        old: &Vec<f64>,
        new: &Vec<f64>,
    ) -> Option<Vec<f64>> {
        Some(new.iter().zip(old).map(|(n, o)| (n - o) * w).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
    use graphbolt_graph::GraphBuilder;

    /// Two seed vertices with different labels at the ends of a path:
    /// labels must dominate their own half.
    #[test]
    fn labels_spread_from_seeds() {
        // 0 (seed A) ↔ 1 ↔ 2 ↔ 3 (seed B), symmetric edges.
        let g = GraphBuilder::new(4)
            .symmetric(true)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .build();
        let lp = LabelPropagation::new(2, vec![Some(0), None, None, Some(1)]);
        let out = run_bsp(
            &lp,
            &g,
            &EngineOptions::with_iterations(30),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(LabelPropagation::argmax(&out.vals[1]), 0);
        assert_eq!(LabelPropagation::argmax(&out.vals[2]), 1);
        // Seeds stay clamped.
        assert_eq!(out.vals[0], vec![1.0, 0.0]);
        assert_eq!(out.vals[3], vec![0.0, 1.0]);
    }

    #[test]
    fn values_remain_distributions() {
        let g = GraphBuilder::new(5)
            .symmetric(true)
            .add_edge(0, 1, 0.3)
            .add_edge(1, 2, 0.9)
            .add_edge(2, 3, 0.5)
            .add_edge(3, 4, 0.7)
            .add_edge(4, 0, 0.2)
            .build();
        let lp = LabelPropagation::new(3, vec![Some(0), None, Some(1), None, Some(2)]);
        let out = run_bsp(
            &lp,
            &g,
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..5 {
            let sum: f64 = out.vals[v].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "vertex {v} sums to {sum}");
            assert!(out.vals[v].iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn isolated_vertex_stays_uniform() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).build();
        let lp = LabelPropagation::new(2, vec![Some(0), None, None]);
        let out = run_bsp(
            &lp,
            &g,
            &EngineOptions::with_iterations(5),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert_eq!(out.vals[2], vec![0.5, 0.5]);
    }

    #[test]
    fn synthetic_seeding_is_deterministic() {
        let a = LabelPropagation::with_synthetic_seeds(4, 100, 10);
        let b = LabelPropagation::with_synthetic_seeds(4, 100, 10);
        for v in 0..100 {
            assert_eq!(a.initial_value(v), b.initial_value(v));
        }
        assert_eq!(a.seed_of(0), Some(0));
        assert_eq!(a.seed_of(5), None);
    }
}
