//! The generalized incremental programming model (§3.3 of the paper).
//!
//! A GraphBolt algorithm is specified as a pair of functions per
//! iteration:
//!
//! ```text
//! c_i(v) = ∮( ⊕_{(u,v) ∈ E} contribution(c_{i-1}(u)) )
//! ```
//!
//! where `⊕` ([`Algorithm::combine`]) folds per-edge contributions into an
//! aggregation value `g_i(v)` and `∮` ([`Algorithm::compute`]) turns the
//! aggregation into the vertex value. Incremental refinement additionally
//! uses the *incremental aggregation operators* of the paper:
//!
//! * `⊎` — add a new contribution (edge addition): [`Algorithm::combine`],
//! * `⋃-` — remove an old contribution (edge deletion):
//!   [`Algorithm::retract`],
//! * `⋃△` — update an existing contribution (transitive effect):
//!   `retract(old)` followed by `combine(new)`, or the fused
//!   [`Algorithm::delta`] when the aggregation admits a direct
//!   change-in-contribution form (Algorithm 3's `propagateDelta`).
//!
//! `⋃-` and `⋃△` belong to dependency-driven refinement: each takes a
//! [`Refining`] capability, which only this crate can create.
//!
//! **Decomposable** aggregations (sum, product, count, vector/matrix sums)
//! support `retract`; **non-decomposable** aggregations (min/max) do not —
//! they set [`Algorithm::decomposable`] to `false` and the engine falls
//! back to pull-based re-evaluation of the whole aggregation from the CSC
//! index (§3.3 "Aggregation Properties & Extensions").
//!
//! Complex aggregations (Collaborative Filtering's matrix/vector pair,
//! Belief Propagation's per-state products) are expressed by *statically
//! decomposing* them into a product of simple aggregations carried in a
//! single `Agg` type — see `graphbolt-algorithms` for worked examples.

use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// Capability to apply the refinement operators `⋃-`
/// ([`Algorithm::retract`]) and `⋃△` ([`Algorithm::delta`],
/// [`Algorithm::delta_structural`]).
///
/// Each operator takes a `Refining` as its first argument, and only this
/// crate can create one — the refinement path ([`crate::refine()`]), the
/// BSP baseline's tracking variant ([`crate::run_tracking`]) and the law
/// harness ([`crate::check_laws`]) do. Everywhere else, aggregation
/// state evolves through those entry points, never by hand: a stray
/// retract desynchronizes the dependency store from the values it
/// indexes. Implementors take the argument as `_: Refining`.
///
/// Code outside the crate cannot create one:
///
/// ```compile_fail,E0423
/// use graphbolt_core::Refining;
/// let _ = Refining(());
/// ```
pub struct Refining(pub(crate) ());

/// A synchronous, incrementally-refinable graph algorithm.
///
/// The aggregation operator defined by [`Algorithm::combine`] must be
/// **commutative and associative** (the paper's precondition): refinement
/// applies retractions and contributions in arbitrary order.
pub trait Algorithm: Send + Sync {
    /// Vertex value type (`c_i(v)`).
    type Value: Clone + PartialEq + Send + Sync + std::fmt::Debug;
    /// Aggregation value type (`g_i(v)`).
    type Agg: Clone + PartialEq + Send + Sync + std::fmt::Debug;

    /// Initial vertex value `c_0(v)`.
    ///
    /// Must not depend on the mutable part of the graph structure:
    /// refinement assumes `c_0` is identical before and after a mutation
    /// batch (the paper's streams never reinitialize values).
    fn initial_value(&self, v: VertexId) -> Self::Value;

    /// Identity of the aggregation (`⊕` over an empty edge set).
    fn identity(&self) -> Self::Agg;

    /// Contribution of edge `(u, v)` with weight `w` given the source
    /// value `cu`, evaluated in the structural context of `g` (e.g.
    /// PageRank divides by `g.out_degree(u)`).
    fn contribution(
        &self,
        g: &GraphSnapshot,
        u: VertexId,
        v: VertexId,
        w: Weight,
        cu: &Self::Value,
    ) -> Self::Agg;

    /// Folds a contribution into an aggregation value (`⊕` / `⊎`).
    fn combine(&self, agg: &mut Self::Agg, contrib: &Self::Agg);

    /// Removes a previously folded contribution (`⋃-`).
    ///
    /// Only called — by refinement, holding a [`Refining`] — when
    /// [`Algorithm::decomposable`] returns `true`. The default
    /// implementation panics, which is correct for non-decomposable
    /// aggregations.
    fn retract(&self, _: Refining, agg: &mut Self::Agg, contrib: &Self::Agg) {
        let _ = (agg, contrib);
        unimplemented!("retract called on a non-decomposable aggregation")
    }

    /// Whether the aggregation admits incremental removal of single
    /// contributions. `min`/`max` return `false` (§3.3).
    fn decomposable(&self) -> bool {
        true
    }

    /// Optional fused change-in-contribution: returns an `Agg` `d` such
    /// that `combine(g, d)` is equivalent to `retract(old contribution);
    /// combine(new contribution)` for the same edge. This is Algorithm 3's
    /// `propagateDelta`; returning `None` (the default) makes the engine
    /// use the explicit retract+propagate pair (the paper's
    /// "GraphBolt-RP" shape, Figure 8). Called by refinement only,
    /// holding a [`Refining`].
    #[allow(clippy::too_many_arguments)]
    fn delta(
        &self,
        _: Refining,
        g: &GraphSnapshot,
        u: VertexId,
        v: VertexId,
        w: Weight,
        old: &Self::Value,
        new: &Self::Value,
    ) -> Option<Self::Agg> {
        let _ = (g, u, v, w, old, new);
        None
    }

    /// Fused change-in-contribution under a *structural* change: like
    /// [`Algorithm::delta`], but the old contribution is evaluated in the
    /// old graph's context and the new one in the new graph's (Algorithm
    /// 3's `propagateDelta` computes `newpr/new_degree −
    /// oldpr/old_degree` in one step). Returning `None` (the default)
    /// makes the engine fall back to the explicit retract+propagate pair.
    /// Called by refinement only, holding a [`Refining`].
    #[allow(clippy::too_many_arguments)]
    fn delta_structural(
        &self,
        _: Refining,
        old_g: &GraphSnapshot,
        new_g: &GraphSnapshot,
        u: VertexId,
        v: VertexId,
        w: Weight,
        old: &Self::Value,
        new: &Self::Value,
    ) -> Option<Self::Agg> {
        let _ = (old_g, new_g, u, v, w, old, new);
        None
    }

    /// Final vertex-value function `∮` applied to the aggregation.
    fn compute(&self, v: VertexId, agg: &Self::Agg, g: &GraphSnapshot) -> Self::Value;

    /// Selective-scheduling predicate: does a value change warrant
    /// propagation? The default — exact inequality — keeps tracked
    /// aggregation values semantically exact, which refinement correctness
    /// relies on. A tolerance-based override trades exactness for work
    /// (§4.2 "Selective Scheduling").
    fn changed(&self, old: &Self::Value, new: &Self::Value) -> bool {
        old != new
    }

    /// Whether [`Algorithm::contribution`] reads source-local structure
    /// (e.g. PageRank's `out_degree(u)`). When `true`, refinement treats
    /// every source whose out-edge set mutated as *dirty at every
    /// iteration*, re-deriving contributions of its surviving edges under
    /// the old and new graphs.
    fn source_structure_dependent(&self) -> bool {
        false
    }

    /// Whether [`Algorithm::compute`] reads destination-local structure
    /// (e.g. CoEM divides by the in-weight sum of `v`). When `true`,
    /// refinement recomputes values of mutation targets at every tracked
    /// iteration even if their aggregation is unchanged.
    fn target_structure_dependent(&self) -> bool {
        false
    }

    /// Heap bytes owned by one aggregation value beyond
    /// `size_of::<Agg>()` (vector/matrix aggregations override this);
    /// feeds the Table 9 memory-overhead accounting.
    fn agg_heap_bytes(&self, agg: &Self::Agg) -> usize {
        let _ = agg;
        0
    }
}

/// Blanket helper: total bytes attributable to one stored aggregation.
pub fn agg_total_bytes<A: Algorithm>(alg: &A, agg: &A::Agg) -> usize {
    std::mem::size_of::<A::Agg>() + alg.agg_heap_bytes(agg)
}

#[cfg(test)]
pub(crate) mod test_algorithms {
    //! Minimal algorithms used by the core crate's own tests.

    use super::*;

    /// Unweighted PageRank-shaped sum: `c_i(v) = 0.15 + 0.85 * Σ
    /// c_{i-1}(u) / outdeg(u)`.
    #[derive(Debug, Clone)]
    pub struct TestRank;

    impl Algorithm for TestRank {
        type Value = f64;
        type Agg = f64;

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
            let d = g.out_degree(u).max(1) as f64;
            cu / d
        }

        fn combine(&self, agg: &mut f64, contrib: &f64) {
            *agg += contrib;
        }

        fn retract(&self, _: Refining, agg: &mut f64, contrib: &f64) {
            *agg -= contrib;
        }

        fn delta(
            &self,
            _: Refining,
            g: &GraphSnapshot,
            u: VertexId,
            _v: VertexId,
            _w: Weight,
            old: &f64,
            new: &f64,
        ) -> Option<f64> {
            let d = g.out_degree(u).max(1) as f64;
            Some((new - old) / d)
        }

        fn compute(&self, _v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
            0.15 + 0.85 * agg
        }

        fn changed(&self, old: &f64, new: &f64) -> bool {
            // Tolerance-based selective scheduling, as the paper's
            // PageRank uses: exact float inequality would never let
            // values stabilize.
            (old - new).abs() > 1e-9
        }

        fn source_structure_dependent(&self) -> bool {
            true
        }
    }

    /// Min-plus (SSSP-shaped) non-decomposable aggregation from a fixed
    /// source vertex 0.
    #[derive(Debug, Clone)]
    pub struct TestMinPlus;

    impl Algorithm for TestMinPlus {
        type Value = f64;
        type Agg = f64;

        fn initial_value(&self, v: VertexId) -> f64 {
            if v == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        }

        fn identity(&self) -> f64 {
            f64::INFINITY
        }

        fn contribution(
            &self,
            _g: &GraphSnapshot,
            _u: VertexId,
            _v: VertexId,
            w: Weight,
            cu: &f64,
        ) -> f64 {
            cu + w
        }

        fn combine(&self, agg: &mut f64, contrib: &f64) {
            if *contrib < *agg {
                *agg = *contrib;
            }
        }

        fn decomposable(&self) -> bool {
            false
        }

        fn compute(&self, v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
            let base = self.initial_value(v);
            agg.min(base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_algorithms::*;
    use super::*;
    use graphbolt_graph::GraphBuilder;

    #[test]
    fn contribution_uses_graph_context() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 2, 1.0)
            .build();
        let alg = TestRank;
        let c = alg.contribution(&g, 0, 1, 1.0, &1.0);
        assert_eq!(c, 0.5, "out-degree 2 halves the contribution");
    }

    #[test]
    fn combine_retract_round_trip() {
        let alg = TestRank;
        let mut agg = alg.identity();
        alg.combine(&mut agg, &0.25);
        alg.combine(&mut agg, &0.5);
        alg.retract(Refining(()), &mut agg, &0.25);
        assert!((agg - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fused_delta_matches_retract_combine() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let alg = TestRank;
        let (old, new) = (1.0, 2.0);
        let mut a = 10.0;
        let d = alg.delta(Refining(()), &g, 0, 1, 1.0, &old, &new).unwrap();
        alg.combine(&mut a, &d);
        let mut b = 10.0;
        alg.retract(Refining(()), &mut b, &alg.contribution(&g, 0, 1, 1.0, &old));
        alg.combine(&mut b, &alg.contribution(&g, 0, 1, 1.0, &new));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-decomposable")]
    fn non_decomposable_retract_panics() {
        let alg = TestMinPlus;
        let mut agg = alg.identity();
        alg.retract(Refining(()), &mut agg, &1.0);
    }

    #[test]
    fn min_plus_combine_keeps_minimum() {
        let alg = TestMinPlus;
        let mut agg = alg.identity();
        alg.combine(&mut agg, &5.0);
        alg.combine(&mut agg, &3.0);
        alg.combine(&mut agg, &9.0);
        assert_eq!(agg, 3.0);
    }
}
