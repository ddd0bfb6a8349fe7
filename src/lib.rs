//! GraphBolt — dependency-driven synchronous processing of streaming
//! graphs.
//!
//! This meta-crate re-exports the full public API of the workspace:
//!
//! * [`graph`] — streaming graph substrate (snapshots, mutations,
//!   generators, I/O),
//! * [`engine`] — Ligra-style BSP execution substrate,
//! * [`core`] — the GraphBolt incremental model: dependency tracking and
//!   dependency-driven refinement with BSP-semantics guarantees,
//! * [`algorithms`] — PageRank, Belief Propagation, Label Propagation,
//!   CoEM, Collaborative Filtering, Triangle Counting, SSSP,
//! * [`kickstarter`] — the KickStarter-style monotonic baseline,
//! * [`minidd`] — the miniature differential-dataflow baseline.
//!
//! # Quickstart
//!
//! ```
//! use graphbolt::prelude::*;
//!
//! // Build a small graph and run streaming PageRank over one mutation.
//! let g = GraphBuilder::new(4)
//!     .add_edge(0, 1, 1.0)
//!     .add_edge(1, 2, 1.0)
//!     .add_edge(2, 0, 1.0)
//!     .add_edge(2, 3, 1.0)
//!     .build();
//! let mut engine = StreamingEngine::new(g, PageRank::default(), EngineOptions::with_iterations(10));
//! engine.run_initial();
//!
//! let mut batch = MutationBatch::new();
//! batch.add(Edge::new(3, 0, 1.0));
//! engine.apply_batch(&batch).unwrap();
//!
//! let ranks = engine.values();
//! assert_eq!(ranks.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub use graphbolt_algorithms as algorithms;
pub use graphbolt_core as core;
pub use graphbolt_engine as engine;
pub use graphbolt_graph as graph;
pub use graphbolt_kickstarter as kickstarter;
pub use graphbolt_minidd as minidd;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use graphbolt_algorithms::{
        BeliefPropagation, CoEm, CollaborativeFiltering, ConnectedComponents, LabelPropagation,
        PageRank, ShortestPaths, ShortestPathsMultiset, TriangleCounter,
    };
    pub use graphbolt_core::{
        Algorithm, DegradeLevel, EngineOptions, ExecutionMode, SessionConfig, SessionError,
        SessionOutcome, StreamSession, StreamingEngine,
    };
    pub use graphbolt_graph::{
        Edge, GraphBuilder, GraphSnapshot, MutationBatch, MutationStream, StreamConfig, VertexId,
        Weight, WorkloadBias,
    };
}
