//! Shared benchmark-harness utilities: workload construction, timing,
//! table rendering, and the per-experiment drivers behind the `repro`
//! CLI.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod workloads;

pub use harness::{time, TimedResult};
pub use report::Table;
pub use workloads::{standard_graph, standard_stream, GraphSpec};
