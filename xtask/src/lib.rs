//! `xtask` — workspace automation for GraphBolt.
//!
//! The one task is `cargo xtask lint`: a dependency-free static
//! analysis pass over the workspace's token streams. It carries only
//! the invariants no cheaper tool can see — cross-file reachability and
//! two cross-file registries (see DESIGN.md §9 for the audit of what
//! moved to rustc, clippy, total lookups and the dynamic checkers):
//!
//! 1. `law-coverage` — every `impl Algorithm for T` is registered with
//!    the algebraic-law harness (`check_laws::<T>`, the paper's §3.3
//!    proviso; see `graphbolt_core::laws`);
//! 2. `retract-guard` — direct `.retract(` / `.delta(` aggregation
//!    calls are confined to the refinement path and the law harness;
//! 3. `metrics-naming` — registered metric names match
//!    `graphbolt_[a-z_]+` and appear in DESIGN.md §10's metric table;
//! 4. `panic-reachability` — nothing reachable from the service layer's
//!    exported fns may panic;
//! 5. `hot-path-blocking` — nothing reachable from the refinement /
//!    edge_map inner loops or the frontdoor accept loop may block or
//!    allocate per-iteration;
//! 6. `deadline-propagation` — every blocking or unbounded-loop op
//!    reachable from a frontdoor request handler must observe the
//!    request deadline.
//!
//! On top of the six, the driver reports `dead-annotation`: a
//! `lint:allow` waiver that suppressed nothing, or names an unknown
//! rule, is itself a finding.
//!
//! Library layout: [`scanner`] lexes Rust source into an
//! analysis-friendly token stream, [`items`] recovers item-level
//! structure (impl blocks, methods, attributes) from it, [`callgraph`]
//! builds the workspace call graph on top, [`flow`] classifies what
//! token spans *do* (panic, block, ignore a deadline), [`rules`] holds
//! the policy tables, the waiver mechanism and the token-local rules,
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
