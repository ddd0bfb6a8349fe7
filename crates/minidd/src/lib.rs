//! Miniature differential dataflow — the generality baseline of §5.4(A).
//!
//! Differential Dataflow (McSherry et al., CIDR'13) processes arbitrary
//! incremental computations by flowing *diffs* — `(record, time,
//! multiplicity)` update tuples — through generic operators (join,
//! reduce) whose state is record-level hash indexes. Its strength is
//! generality; the GraphBolt paper's Figure 8/9 measure the cost of that
//! generality against a graph-aware runtime.
//!
//! This crate is a faithful miniature of the model restricted to the
//! shape the paper's comparison uses: an iterative computation
//!
//! ```text
//! state_{e,i+1} = step( reduce_v( join_u(edges_e, state_{e,i}) ) ∪ base )
//! ```
//!
//! advanced differentially both in the iteration dimension `i` (within an
//! epoch, as DD's `iterate` does) and in the epoch dimension `e` (edge
//! mutations). All operator state is record-level — hash-indexed
//! multisets with per-iteration traces, never CSR — so the engine pays
//! DD's characteristic costs: hashing, per-record diff bookkeeping, and
//! O(|V|·iters) trace memory.
//!
//! The delta-join rule `Δ(A ⋈ B) = ΔA ⋈ B ∪ A' ⋈ ΔB` and the
//! recompute-and-diff reduce are implemented in [`operators`];
//! [`iterate`] drives epochs; [`pagerank`] and [`sssp`] express the two
//! benchmark computations.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod collection;
pub mod iterate;
pub mod operators;
pub mod pagerank;
pub mod sssp;

pub use collection::{Collection, Diff, OrderedF64};
pub use iterate::{EdgeRecord, IterativeDataflow, StepSpec};
pub use pagerank::DdPageRank;
pub use sssp::DdSssp;
