//! `xtask` — workspace automation for GraphBolt.
//!
//! The one task is `cargo xtask lint`: a dependency-free static
//! analysis pass over the workspace's token streams. It carries only
//! the invariants no cheaper tool can see — cross-file reachability and
//! one cross-file registry (see DESIGN.md §9 for the audit of what
//! moved to rustc, clippy, tests, total lookups and the dynamic
//! checkers):
//!
//! 1. `law-coverage` — every `impl Algorithm for T` is registered with
//!    the algebraic-law harness (`check_laws::<T>`, the paper's §3.3
//!    proviso; see `graphbolt_core::laws`);
//! 2. `panic-reachability` — nothing reachable from the service layer's
//!    exported fns may panic;
//! 3. `hot-path-blocking` — nothing reachable from the refinement /
//!    edge_map inner loops or the frontdoor accept loop may block or
//!    allocate per-iteration;
//! 4. `deadline-propagation` — every blocking or unbounded-loop op
//!    reachable from a frontdoor request handler must observe the
//!    request deadline.
//!
//! On top of the four, the driver reports `dead-annotation`: a
//! `lint:allow` waiver that suppressed nothing, or names an unknown
//! rule, is itself a finding.
//!
//! Library layout: [`scanner`] lexes Rust source into an
//! analysis-friendly token stream, [`items`] recovers item-level
//! structure (impl blocks, law registrations) from it, [`callgraph`]
//! builds the workspace call graph on top, [`flow`] classifies what
//! token spans *do* (panic, block, ignore a deadline), [`rules`] holds
//! the policy tables, the waiver mechanism and the token-local rule,
//! [`graph_rules`] the call-graph-powered ones, and [`lint`] walks the
//! workspace, dispatches the rules, and renders findings as text or
//! SARIF. The binary in `main.rs` is a thin CLI over [`lint`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod callgraph;
pub mod flow;
pub mod graph_rules;
pub mod items;
pub mod lint;
pub mod rules;
pub mod scanner;
