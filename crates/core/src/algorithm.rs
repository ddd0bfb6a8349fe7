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
//!   [`Decomposable::retract`],
//! * `⋃△` — update an existing contribution (transitive effect):
//!   `retract(old)` followed by `combine(new)`, or the fused
//!   [`Decomposable::delta`] when the aggregation admits a direct
//!   change-in-contribution form (Algorithm 3's `propagateDelta`).
//!
//! `⋃-` and `⋃△` belong to dependency-driven refinement: each takes a
//! [`Refining`] capability, which only this crate can create.
//!
//! [`Algorithm::Kind`] names the aggregation's algebra, and picks the
//! engine's code for it at compile time (§3.3 "Aggregation Properties &
//! Extensions"): [`Sum`] for **decomposable** aggregations (sum, product,
//! count, vector/matrix sums), which also implement [`Decomposable`]'s
//! `⋃-` and `⋃△`; [`Selective`] for min/max, which have no `⋃-` and are
//! re-evaluated from the complete in-neighborhood in the CSC index.
//!
//! Complex aggregations (Collaborative Filtering's matrix/vector pair,
//! Belief Propagation's per-state products) are expressed by *statically
//! decomposing* them into a product of simple aggregations carried in a
//! single `Agg` type — see `graphbolt-algorithms` for worked examples.

use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

/// Capability to apply the refinement operators `⋃-`
/// ([`Decomposable::retract`]) and `⋃△` ([`Decomposable::delta`],
/// [`Decomposable::delta_structural`]).
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
///
/// A selective algorithm has no `⋃-` to call, even holding a `Refining`
/// (with the bound `A: Decomposable` this compiles):
///
/// ```compile_fail,E0599
/// use graphbolt_core::{Algorithm, Refining, Selective};
///
/// fn undo<A: Algorithm<Kind = Selective>>(alg: &A, r: Refining, agg: &mut A::Agg, c: &A::Agg) {
///     alg.retract(r, agg, c);
/// }
/// ```
///
/// And an algorithm cannot claim the decomposable kind without providing
/// its operators (with an `impl Decomposable for Count` carrying
/// `retract`, this compiles):
///
/// ```compile_fail,E0277
/// use graphbolt_core::{Algorithm, Sum};
/// use graphbolt_graph::{GraphSnapshot, VertexId, Weight};
///
/// struct Count;
///
/// impl Algorithm for Count {
///     type Value = f64;
///     type Agg = f64;
///     type Kind = Sum;
///
///     fn initial_value(&self, _v: VertexId) -> f64 {
///         0.0
///     }
///
///     fn identity(&self) -> f64 {
///         0.0
///     }
///
///     fn contribution(&self, _: &GraphSnapshot, _: VertexId, _: VertexId, _: Weight, _: &f64) -> f64 {
///         1.0
///     }
///
///     fn combine(&self, agg: &mut f64, c: &f64) {
///         *agg += c;
///     }
///
///     fn compute(&self, _v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
///         *agg
///     }
/// }
/// ```
pub struct Refining(pub(crate) ());

/// A synchronous, incrementally-refinable graph algorithm.
///
/// The aggregation operator defined by [`Algorithm::combine`] must be
/// **commutative and associative** (the paper's precondition): refinement
/// applies retractions and contributions in arbitrary order.
pub trait Algorithm: Send + Sync + Sized {
    /// Vertex value type (`c_i(v)`).
    type Value: Clone + PartialEq + Send + Sync + std::fmt::Debug;
    /// Aggregation value type (`g_i(v)`).
    type Agg: Clone + PartialEq + Send + Sync + std::fmt::Debug;
    /// The aggregation's algebra: [`Sum`] (the algorithm then also
    /// implements [`Decomposable`]) or [`Selective`].
    type Kind: Algebra<Self>;

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

/// The refinement operators of a decomposable aggregation (kind [`Sum`]):
/// `⋃-` and the fused forms of `⋃△`.
pub trait Decomposable: Algorithm<Kind = Sum> {
    /// Removes a previously folded contribution (`⋃-`). Called by
    /// refinement only, holding a [`Refining`].
    fn retract(&self, _: Refining, agg: &mut Self::Agg, contrib: &Self::Agg);

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
    /// [`Decomposable::delta`], but the old contribution is evaluated in the
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
}

/// Kind of a decomposable aggregation: refinement retracts and updates
/// single contributions with the [`Decomposable`] operators.
pub enum Sum {}

/// Kind of a selective aggregation (`min`/`max`): a deleted or worsened
/// contribution cannot be taken back, so refinement re-evaluates each
/// impacted aggregation over its full input set.
pub enum Selective {}

/// The algebra an [`Algorithm::Kind`] names. [`Sum`] and [`Selective`]
/// are the only kinds: `select` names a trait private to this crate, so
/// no other crate can implement `Algebra`.
pub trait Algebra<A: Algorithm> {
    /// Runs the arm of `arms` that belongs to this algebra.
    fn select<P: kind::PerKind<A>>(arms: P) -> P::Output;
}

impl<A: Decomposable> Algebra<A> for Sum {
    fn select<P: kind::PerKind<A>>(arms: P) -> P::Output {
        arms.decomposable_arm()
    }
}

impl<A: Algorithm> Algebra<A> for Selective {
    fn select<P: kind::PerKind<A>>(arms: P) -> P::Output {
        arms.selective_arm()
    }
}

pub(crate) mod kind {
    /// An engine computation with one arm per algebra: refinement's
    /// propagate phase, the BSP driver's incremental step, the law
    /// harness's refinement laws. `A::Kind::select` runs `A`'s arm.
    pub trait PerKind<A: super::Algorithm> {
        type Output;

        fn decomposable_arm(self) -> Self::Output
        where
            A: super::Decomposable;

        fn selective_arm(self) -> Self::Output;
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
        type Kind = Sum;

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

    impl Decomposable for TestRank {
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
    }

    /// Min-plus (SSSP-shaped) selective aggregation from a fixed source
    /// vertex 0.
    #[derive(Debug, Clone)]
    pub struct TestMinPlus;

    impl Algorithm for TestMinPlus {
        type Value = f64;
        type Agg = f64;
        type Kind = Selective;

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
    fn min_plus_combine_keeps_minimum() {
        let alg = TestMinPlus;
        let mut agg = alg.identity();
        alg.combine(&mut agg, &5.0);
        alg.combine(&mut agg, &3.0);
        alg.combine(&mut agg, &9.0);
        assert_eq!(agg, 3.0);
    }
}
