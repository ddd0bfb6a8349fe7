//! Belief Propagation (BP) — Table 4:
//! `⊕ = ∀s: Π_{(u,v)} ( Σ_{s'} ϕ(u,s')·ψ(u,v,s',s)·c(u,s') )`.
//!
//! BP over a pairwise Markov random field with `S` states
//! (Kang et al., "Inference of Beliefs on Billion-Scale Graphs"). The
//! aggregation is a per-state *product* over in-edges — the paper's
//! example of a complex aggregation whose retraction is a division
//! (`atomicDivide` in Algorithm 2).
//!
//! # Log-space aggregation
//!
//! A raw product over thousands of in-edges overflows or underflows
//! `f64`. This implementation therefore keeps the aggregation in **log
//! space**: the per-state aggregation value is `Σ ln(contribution)`, so
//! `combine` is addition, `retract` is subtraction (exactly the paper's
//! multiply/divide, transported through `ln`), and `∮` applies a
//! numerically stable softmax normalization. Decomposability and the
//! commutative/associative requirements are preserved.
//!
//! Node potentials `ϕ` and edge potentials `ψ` are derived
//! deterministically from vertex/edge ids (the datasets in the paper
//! carry no potentials either; Kang et al. generate them), all bounded
//! within `[1 − ε, 1 + ε]` for coupling ε < 1, so every contribution is
//! strictly positive.

use graphbolt_core::{Algorithm, Decomposable, Refining, Sum};
use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

use crate::util::{hash_unit, linf};

/// Loopy belief propagation with `S` states, log-space aggregation.
#[derive(Debug, Clone)]
pub struct BeliefPropagation {
    /// Number of states `|S|`.
    pub num_states: usize,
    /// Selective-scheduling tolerance on the belief vector.
    pub tolerance: f64,
    /// Seed mixed into the potential hashes, giving independent random
    /// MRFs per seed.
    pub potential_seed: u64,
    /// Coupling strength ε: potentials are drawn from `[1 − ε, 1 + ε]`.
    /// Weak coupling (small ε) is the standard well-behaved regime for
    /// loopy BP (strongly coupled random MRFs do not converge).
    pub coupling: f64,
}

impl Default for BeliefPropagation {
    fn default() -> Self {
        Self {
            num_states: 3,
            tolerance: 1e-6,
            potential_seed: 0xBE11EF,
            coupling: 0.5,
        }
    }
}

impl BeliefPropagation {
    /// BP with a custom number of states.
    pub fn with_states(num_states: usize) -> Self {
        assert!(num_states >= 2);
        Self {
            num_states,
            ..Self::default()
        }
    }

    /// BP with a custom potential coupling strength `ε ∈ (0, 1)`.
    pub fn with_coupling(coupling: f64) -> Self {
        assert!(coupling > 0.0 && coupling < 1.0);
        Self {
            coupling,
            ..Self::default()
        }
    }

    /// Node potential `ϕ(u, s) ∈ [1 − ε, 1 + ε]`.
    pub fn phi(&self, u: VertexId, s: usize) -> f64 {
        hash_unit(
            self.potential_seed ^ ((u as u64) << 16) ^ s as u64,
            1.0 - self.coupling,
            1.0 + self.coupling,
        )
    }

    /// Edge potential `ψ(u, v, s', s) ∈ [1 − ε, 1 + ε]`.
    pub fn psi(&self, u: VertexId, v: VertexId, sp: usize, s: usize) -> f64 {
        hash_unit(
            self.potential_seed
                ^ ((u as u64) << 32)
                ^ ((v as u64) << 8)
                ^ ((sp as u64) << 4)
                ^ s as u64,
            1.0 - self.coupling,
            1.0 + self.coupling,
        )
    }

    /// `getContribution` of Algorithm 2, in linear space:
    /// `contribution[s] = Σ_{s'} ϕ(u,s')·ψ(u,v,s',s)·c(u,s')`.
    fn raw_contribution(&self, u: VertexId, v: VertexId, cu: &[f64]) -> Vec<f64> {
        let s_count = self.num_states;
        let mut out = vec![0.0; s_count];
        for (s, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (sp, &c) in cu.iter().enumerate() {
                // State-space dot product *within* one edge's
                // contribution; cross-edge accumulation still flows
                // through combine/retract.
                acc += self.phi(u, sp) * self.psi(u, v, sp, s) * c;
            }
            *slot = acc;
        }
        out
    }

    /// Final beliefs (`computeBelief` of Algorithm 2):
    /// `belief[v][s] ∝ ϕ(v,s) · value[v][s]`.
    pub fn beliefs(&self, v: VertexId, value: &[f64]) -> Vec<f64> {
        let mut b: Vec<f64> = (0..self.num_states)
            .map(|s| self.phi(v, s) * value[s])
            .collect();
        let sum: f64 = b.iter().sum();
        if sum > 0.0 {
            for x in b.iter_mut() {
                *x /= sum;
            }
        }
        b
    }
}

impl Algorithm for BeliefPropagation {
    type Value = Vec<f64>;
    type Agg = Vec<f64>;
    type Kind = Sum;

    fn initial_value(&self, _v: VertexId) -> Vec<f64> {
        vec![1.0 / self.num_states as f64; self.num_states]
    }

    /// Log-space identity: the empty product is 1, i.e. all-zero logs.
    fn identity(&self) -> Vec<f64> {
        vec![0.0; self.num_states]
    }

    fn contribution(
        &self,
        _g: &GraphSnapshot,
        u: VertexId,
        v: VertexId,
        _w: Weight,
        cu: &Vec<f64>,
    ) -> Vec<f64> {
        // Contributions are strictly positive (potentials ≥ 0.5 and the
        // value vector is a distribution), so the logarithm is finite.
        self.raw_contribution(u, v, cu)
            .into_iter()
            .map(f64::ln)
            .collect()
    }

    /// Log-space product: `Π → Σ`.
    fn combine(&self, agg: &mut Vec<f64>, contrib: &Vec<f64>) {
        for (a, c) in agg.iter_mut().zip(contrib) {
            *a += c;
        }
    }

    /// Stable softmax: `exp(agg - max)` normalized.
    fn compute(&self, _v: VertexId, agg: &Vec<f64>, _g: &GraphSnapshot) -> Vec<f64> {
        let max = agg.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return self.initial_value(0);
        }
        let mut out: Vec<f64> = agg.iter().map(|&x| (x - max).exp()).collect();
        let sum: f64 = out.iter().sum();
        for x in out.iter_mut() {
            *x /= sum;
        }
        out
    }

    fn changed(&self, old: &Vec<f64>, new: &Vec<f64>) -> bool {
        linf(old, new) > self.tolerance
    }

    fn agg_heap_bytes(&self, agg: &Vec<f64>) -> usize {
        agg.capacity() * std::mem::size_of::<f64>()
    }
}

impl Decomposable for BeliefPropagation {
    /// Log-space division (`atomicDivide`).
    fn retract(&self, _: Refining, agg: &mut Vec<f64>, contrib: &Vec<f64>) {
        for (a, c) in agg.iter_mut().zip(contrib) {
            *a -= c;
        }
    }

    fn delta(
        &self,
        _: Refining,
        g: &GraphSnapshot,
        u: VertexId,
        v: VertexId,
        w: Weight,
        old: &Vec<f64>,
        new: &Vec<f64>,
    ) -> Option<Vec<f64>> {
        let oc = self.contribution(g, u, v, w, old);
        let nc = self.contribution(g, u, v, w, new);
        Some(nc.iter().zip(&oc).map(|(n, o)| n - o).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_core::{run_bsp, EngineOptions, EngineStats, ExecutionMode};
    use graphbolt_graph::GraphBuilder;

    #[test]
    fn beliefs_are_distributions() {
        let g = GraphBuilder::new(4)
            .symmetric(true)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 0, 1.0)
            .build();
        let bp = BeliefPropagation::default();
        let out = run_bsp(
            &bp,
            &g,
            &EngineOptions::with_iterations(10),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        for v in 0..4 {
            let sum: f64 = out.vals[v].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(out.vals[v].iter().all(|&p| p > 0.0));
            let beliefs = bp.beliefs(v as VertexId, &out.vals[v]);
            let bsum: f64 = beliefs.iter().sum();
            assert!((bsum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn contribution_is_finite_for_extreme_distributions() {
        let bp = BeliefPropagation::default();
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let cu = vec![1.0, 0.0, 0.0]; // one-hot distribution
        let c = bp.contribution(&g, 0, 1, 1.0, &cu);
        assert!(c.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn high_degree_vertex_does_not_overflow() {
        // 5000 in-edges: a raw product would overflow; log-space must not.
        let mut b = GraphBuilder::new(5001);
        for i in 1..=5000u32 {
            b = b.add_edge(i, 0, 1.0);
        }
        let g = b.build();
        let bp = BeliefPropagation::default();
        let out = run_bsp(
            &bp,
            &g,
            &EngineOptions::with_iterations(2),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        assert!(out.vals[0].iter().all(|x| x.is_finite() && *x > 0.0));
        let sum: f64 = out.vals[0].iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn potentials_are_deterministic_and_bounded() {
        let bp = BeliefPropagation::default();
        assert_eq!(bp.phi(3, 1), bp.phi(3, 1));
        assert_eq!(bp.psi(3, 4, 0, 2), bp.psi(3, 4, 0, 2));
        for u in 0..50u32 {
            for s in 0..3 {
                let p = bp.phi(u, s);
                assert!((0.5..1.5).contains(&p), "default coupling 0.5");
            }
        }
    }
}
