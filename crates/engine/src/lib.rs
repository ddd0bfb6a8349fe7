//! Ligra-style BSP execution substrate.
//!
//! GraphBolt is built over Ligra's processing architecture (§4 of the
//! paper): computation is expressed as `edge_map` over frontiers
//! ([`VertexSubset`]), with automatic *direction optimization* —
//! sparse frontiers push along out-edges, dense frontiers pull along
//! in-edges — which is what lets the same algorithm run efficiently both
//! on full graphs (initial execution) and on the tiny frontiers produced
//! by incremental refinement.
//!
//! This crate is deliberately independent of the GraphBolt dependency
//! machinery. What `graphbolt-core` builds on are its primitives —
//! [`parallel`], [`AtomicBitSet`] and the two-arm cost arbiter in
//! [`adaptive`]; the BSP driver and refinement run their own push/pull
//! loops over those and do **not** go through [`edge_map()`], which is
//! kept (with [`VertexSubset`]) as a measured library kernel.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod adaptive;
pub mod bitset;
pub mod edge_map;
pub mod parallel;
pub mod subset;

pub use bitset::AtomicBitSet;
pub use edge_map::{edge_map, EdgeMapOptions, Mode};
pub use subset::VertexSubset;
