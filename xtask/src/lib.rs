//! `xtask` — workspace automation for GraphBolt.
//!
//! The one task so far is `cargo xtask lint`: a dependency-free static
//! analysis pass enforcing the repo's correctness invariants (see
//! DESIGN.md §9 "Correctness tooling"):
//!
//! 1. `safety-comment` — every `unsafe` carries a `// SAFETY:` comment;
//! 2. `unsafe-confined` — `unsafe`, raw atomics, and thread spawning
//!    only in sanctioned modules;
//! 3. `service-no-panic` — no `unwrap`/`expect`/`panic!`-family in the
//!    session / streaming / checkpoint service layer;
//! 4. `float-accum` — no floating-point accumulation outside Aggregator
//!    ⊕/⊎ (`combine`/`retract`) implementations;
//! 5. `law-coverage` — every `impl Algorithm for T` is registered with
//!    the algebraic-law harness (`check_laws::<T>`, see
//!    `graphbolt_core::laws` and DESIGN.md §9 "Algebraic laws");
//! 6. `ordering-audit` — every raw `Ordering::*` memory-ordering site
//!    sits in a sanctioned module and carries a nearby `// ordering:`
//!    justification comment;
//! 7. `retract-guard` — direct `.retract(` / `.delta(` aggregation
//!    calls are confined to the refinement path and the law harness;
//! 8. `metrics-naming` — registered metric names match
//!    `graphbolt_[a-z_]+` and appear in DESIGN.md §10's metric table.
//!
//! Three further rules are *call-graph-powered* — they reason about what
//! a function can transitively reach, not just what its tokens say (see
//! DESIGN.md §9.5):
//!
//! 9.  `panic-reachability` — nothing reachable from the service layer
//!     may panic (transitive upgrade of `service-no-panic`);
//! 10. `hot-path-blocking` — nothing reachable from the refinement /
//!     edge_map inner loops or the frontdoor accept loop may block or
//!     allocate per-iteration;
//! 11. `ordering-protocol` — every Release store is paired with an
//!     Acquire load of the same atomic field somewhere in the workspace.
//!
//! And four are *dataflow-verified* — they check the checkers, so the
//! clean-tree guarantee no longer rests on trusted annotations (see
//! DESIGN.md §9.6):
//!
//! 12. `bounds-proof` — every `// bounds:` annotation discharging an
//!     indexing site must be machine-provable by the guard-dominance
//!     lattice in [`dataflow`] (clamp, literal-vs-declared-length,
//!     dominating comparison guard, or in-range provenance);
//! 13. `lock-order` — `.lock()` acquisitions are lifted onto the call
//!     graph; any cycle in the inter-procedural lock-acquisition order
//!     is reported with the full witness chain;
//! 14. `deadline-propagation` — every blocking or unbounded-loop op
//!     reachable from a frontdoor request handler must observe the
//!     request deadline;
//! 15. `dead-annotation` — a `lint:allow` waiver, `// bounds:` comment,
//!     `// ordering:` justification, or `PANIC_ISOLATED` entry that no
//!     longer suppresses a live finding is itself an error
//!     (`cargo xtask lint --fix` removes dead waiver comments).
//!
//! Library layout: [`scanner`] lexes Rust source into an
//! analysis-friendly token stream, [`items`] recovers item-level
//! structure (impl blocks, methods, attributes) from it, [`callgraph`]
//! builds the workspace call graph on top, [`flow`] classifies what
//! token spans *do* (panic, block, publish, acquire), [`dataflow`]
//! proves guard dominance and extracts lock/deadline facts, [`rules`]
//! implements the token-local invariants, [`graph_rules`] the
//! call-graph-powered ones, and [`lint`] walks the workspace (in
//! parallel), runs the cross-file passes, and renders findings as text,
//! JSON, or SARIF. The binary in `main.rs` is a thin CLI over [`lint`].

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod dataflow;
pub mod flow;
pub mod graph_rules;
pub mod items;
pub mod lint;
pub mod rules;
pub mod scanner;
