//! `spine` — the repository's benchmark.
//!
//! Four workloads measure what a user of GraphBolt sees: three drive a
//! real `gbolt … --serve --listen` child over loopback HTTP, one calls
//! the library directly. A separate traced run measures each layer from
//! outside and reconciles the layers with the end-to-end figure. See
//! `README.md` beside this crate for the metric tables, and
//! `BENCHMARK.json` at the repository root for the contract.

pub mod agree;
pub mod child;
pub mod gen;
pub mod http;
pub mod json;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
