//! Streaming graph substrate for GraphBolt.
//!
//! This crate provides the mutable-graph foundation that the GraphBolt
//! engine (EuroSys'19) computes over:
//!
//! * [`GraphSnapshot`] — an immutable, dual-indexed (CSR + CSC) snapshot of
//!   a directed weighted graph, optimized for both push-style (out-edge)
//!   and pull-style (in-edge) traversal,
//! * [`MutationBatch`] / [`GraphSnapshot::apply`] — batched edge/vertex
//!   insertions and deletions that produce the next snapshot, which
//!   shares every copy-on-write adjacency chunk the batch did not touch
//!   (the role of §4.1's structure adjustment, at a cost proportional to
//!   the batch rather than the graph),
//! * [`generators`] — R-MAT, Erdős–Rényi and small-world graph
//!   generators used as stand-ins for the paper's web/social graphs,
//! * [`stream`] — the evaluation-methodology mutation-stream driver
//!   (load 50% of edges, stream the rest as additions mixed with
//!   deletions; Hi/Lo degree-targeted workloads),
//! * [`io`] — plain-text and binary edge-list formats.
//!
//! # Examples
//!
//! ```
//! use graphbolt_graph::{GraphBuilder, Edge, MutationBatch};
//!
//! let g = GraphBuilder::new(4)
//!     .add_edge(0, 1, 1.0)
//!     .add_edge(1, 2, 1.0)
//!     .build();
//! assert_eq!(g.num_edges(), 2);
//!
//! let mut batch = MutationBatch::new();
//! batch.add(Edge::new(2, 3, 1.0));
//! batch.delete(Edge::new(0, 1, 1.0));
//! let g2 = g.apply(&batch).unwrap();
//! assert_eq!(g2.num_edges(), 2);
//! assert_eq!(g2.out_degree(0), 0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod mutation;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::Adjacency;
pub use mutation::{MutationBatch, MutationError};
pub use snapshot::GraphSnapshot;
pub use stats::{stats, GraphStats};
pub use stream::{MutationStream, StreamConfig, WorkloadBias};
pub use types::{Edge, VertexId, Weight};
