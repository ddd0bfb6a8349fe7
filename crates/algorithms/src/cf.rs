//! Collaborative Filtering (CF) — Table 4:
//! `⊕ = ⟨ Σ c(u)·c(u)ᵀ , Σ c(u)·weight(u,v) ⟩` (ALS-style).
//!
//! This is the paper's flagship *complex aggregation* (§3.3): the ALS
//! update
//!
//! ```text
//! c_i(v) = ( Σ c(u)c(u)ᵀ + λI )⁻¹ × Σ c(u)·weight(u,v)
//! ```
//!
//! is **statically decomposed** into a pair of simple sums — a `d × d`
//! Gram-matrix sum and a `d`-vector sum — carried together in one
//! aggregation value, while the matrix inverse stays in `∮`. Because the
//! Gram term transforms the source value before summing, its incremental
//! form requires **on-the-fly evaluation of discrete contributions**:
//! `cᵀ·cᵀᵗʳ − c·cᵗʳ` per changed edge, which is exactly what
//! [`Decomposable::delta`] computes here.

use graphbolt_core::{Algorithm, Decomposable, Refining, Sum};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

use crate::util::{hash_unit, linf, solve_dense};

/// ALS-style collaborative filtering with latent dimension `d`.
#[derive(Debug, Clone)]
pub struct CollaborativeFiltering {
    /// Latent factor dimension.
    pub dim: usize,
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Selective-scheduling tolerance.
    pub tolerance: f64,
}

impl Default for CollaborativeFiltering {
    fn default() -> Self {
        Self {
            dim: 4,
            lambda: 1.0,
            tolerance: 1e-6,
        }
    }
}

impl CollaborativeFiltering {
    /// CF with a custom latent dimension.
    pub fn with_dim(dim: usize) -> Self {
        assert!(dim >= 1);
        Self {
            dim,
            ..Self::default()
        }
    }

    /// Pair layout inside the flat aggregation vector: `dim*dim` matrix
    /// entries followed by `dim` vector entries.
    fn agg_len(&self) -> usize {
        self.dim * self.dim + self.dim
    }

    /// `c·cᵀ` and `c·w` of a single edge, flattened.
    fn edge_contribution(&self, cu: &[f64], w: f64) -> Vec<f64> {
        let d = self.dim;
        let mut out = vec![0.0; self.agg_len()];
        for i in 0..d {
            for j in 0..d {
                out[i * d + j] = cu[i] * cu[j];
            }
        }
        for i in 0..d {
            out[d * d + i] = cu[i] * w;
        }
        out
    }
}

impl Algorithm for CollaborativeFiltering {
    type Value = Vec<f64>;
    type Agg = Vec<f64>;
    type Kind = Sum;

    fn initial_value(&self, v: VertexId) -> Vec<f64> {
        // Deterministic pseudo-random factors in (0, 1): reproducible
        // without a stored factor table.
        (0..self.dim)
            .map(|k| hash_unit((v as u64) << 8 | k as u64, 0.1, 1.0))
            .collect()
    }

    fn identity(&self) -> Vec<f64> {
        vec![0.0; self.agg_len()]
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        _u: VertexId,
        _v: VertexId,
        w: Weight,
        cu: &Vec<f64>,
    ) -> Vec<f64> {
        self.edge_contribution(cu, w)
    }

    fn combine(&self, agg: &mut Vec<f64>, contrib: &Vec<f64>) {
        for (a, c) in agg.iter_mut().zip(contrib) {
            *a += c;
        }
    }

    fn compute(&self, v: VertexId, agg: &Vec<f64>, _g: &GraphSnapshot) -> Vec<f64> {
        let d = self.dim;
        let mut m = agg[..d * d].to_vec();
        for i in 0..d {
            // The fixed regularizer λ on the normal-matrix diagonal.
            m[i * d + i] += self.lambda;
        }
        let b = agg[d * d..].to_vec();
        // λ > 0 keeps the system positive definite; the fallback keeps the
        // initial factors should numerical cancellation ever break that.
        solve_dense(m, b, d).unwrap_or_else(|| self.initial_value(v))
    }

    fn changed(&self, old: &Vec<f64>, new: &Vec<f64>) -> bool {
        linf(old, new) > self.tolerance
    }

    fn agg_heap_bytes(&self, agg: &Vec<f64>) -> usize {
        agg.capacity() * std::mem::size_of::<f64>()
    }
}

impl Decomposable for CollaborativeFiltering {
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
        // On-the-fly discrete contributions: the Gram term is recomputed
        // from both values and differenced; the linear term differences
        // directly (§3.3 step 2).
        let d = self.dim;
        let mut out = vec![0.0; self.agg_len()];
        for i in 0..d {
            for j in 0..d {
                out[i * d + j] = new[i] * new[j] - old[i] * old[j];
            }
        }
        for i in 0..d {
            out[d * d + i] = (new[i] - old[i]) * w;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
    use graphbolt_graph::{GraphBuilder, GraphSnapshot};

    fn bipartite_ratings() -> GraphSnapshot {
        // Users 0..3 rate items 3..6 (symmetric edges, as ALS needs both
        // directions).
        GraphBuilder::new(6)
            .symmetric(true)
            .add_edge(0, 3, 5.0)
            .add_edge(0, 4, 3.0)
            .add_edge(1, 3, 4.0)
            .add_edge(1, 5, 1.0)
            .add_edge(2, 4, 2.0)
            .add_edge(2, 5, 5.0)
            .build()
    }

    #[test]
    fn factors_stay_finite() {
        let cf = CollaborativeFiltering::default();
        let out = run_bsp(
            &cf,
            &bipartite_ratings(),
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..6 {
            assert!(
                out.vals[v].iter().all(|x| x.is_finite()),
                "vertex {v}: {:?}",
                out.vals[v]
            );
        }
    }

    #[test]
    fn predictions_track_ratings() {
        // After ALS iterations, the dot product for a strongly rated pair
        // should exceed that of a weakly rated pair.
        let cf = CollaborativeFiltering::with_dim(4);
        let out = run_bsp(
            &cf,
            &bipartite_ratings(),
            &EngineOptions::with_iterations(20),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let strong = dot(&out.vals[0], &out.vals[3]); // rating 5
        let weak = dot(&out.vals[1], &out.vals[5]); // rating 1
        assert!(
            strong > weak,
            "strong pair {strong} should out-predict weak pair {weak}"
        );
    }

    #[test]
    fn compute_solves_regularized_system() {
        let cf = CollaborativeFiltering::with_dim(2);
        // M = [[1,0],[0,1]], b = [2, 4], λ = 1 → x = b / 2.
        let mut agg = cf.identity();
        agg[0] = 1.0;
        agg[3] = 1.0;
        agg[4] = 2.0;
        agg[5] = 4.0;
        let g = GraphSnapshot::empty(1);
        let x = cf.compute(0, &agg, &g);
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn initial_factors_are_deterministic() {
        let cf = CollaborativeFiltering::default();
        assert_eq!(cf.initial_value(7), cf.initial_value(7));
        assert_ne!(cf.initial_value(7), cf.initial_value(8));
    }
}
