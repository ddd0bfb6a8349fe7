//! Graph analytics on the GraphBolt incremental model.
//!
//! The six algorithms of the paper's evaluation (Table 4) plus SSSP/BFS:
//!
//! | Algorithm | Aggregation | Shape |
//! |-----------|-------------|-------|
//! | [`PageRank`] | `Σ c(u)/outdeg(u)` | simple sum, fused delta |
//! | [`BeliefPropagation`] | per-state `Π` (log-space `Σ`) | complex, retract = divide |
//! | [`LabelPropagation`] | per-label `Σ c(u,f)·w` | vector of sums |
//! | [`CoEm`] | `Σ c(u)·w / Σ w` | sum + destination normalization |
//! | [`CollaborativeFiltering`] | `⟨Σ c·cᵀ, Σ c·w⟩` | statically decomposed pair |
//! | [`TriangleCounter`] | `Σ |in(u) ∩ out(v)|` | single-shot, local maintenance |
//! | [`ShortestPaths`] | `min(c(u)+w)` | non-decomposable, re-evaluation |
//!
//! All except Triangle Counting implement
//! [`graphbolt_core::Algorithm`] and run on the
//! [`StreamingEngine`](graphbolt_core::StreamingEngine) (GraphBolt) or the
//! from-scratch baselines ([`graphbolt_core::run_bsp`]).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod bp;
pub mod cc;
pub mod cf;
pub mod coem;
pub mod lp;
pub mod pr;
pub mod sssp;
pub mod sssp_multiset;
pub mod sswp;
pub mod tc;
pub mod util;

pub use bp::BeliefPropagation;
pub use cc::ConnectedComponents;
pub use cf::CollaborativeFiltering;
pub use coem::CoEm;
pub use lp::LabelPropagation;
pub use pr::PageRank;
pub use sssp::ShortestPaths;
pub use sssp_multiset::{MinBag, ShortestPathsMultiset};
pub use sswp::WidestPaths;
pub use tc::{count_full, TriangleCounter};
