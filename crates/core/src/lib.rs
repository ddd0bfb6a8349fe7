//! GraphBolt core: dependency-driven synchronous processing of streaming
//! graphs (EuroSys'19).
//!
//! The crate implements the paper's central machinery:
//!
//! * the **generalized incremental programming model** —
//!   [`Algorithm`] with `⊕`/`⊎`/`⋃-`/`⋃△` aggregation operators;
//!   decomposable aggregations ([`Decomposable`], kind [`Sum`]) and
//!   selective ones (kind [`Selective`]) are separate types (§3.3),
//! * **dependency tracking** — [`DependencyStore`]: per-vertex
//!   aggregation-value histories with vertical and horizontal pruning
//!   (§3.2),
//! * **dependency-driven refinement** — [`refine()`]: iteration-by-
//!   iteration incorporation of edge mutations with BSP-semantics
//!   guarantees (§3.3, §4.3),
//! * **computation-aware hybrid execution** past the pruning cut-off
//!   (§4.2),
//! * the from-scratch **baselines**: [`run_bsp`] in
//!   [`ExecutionMode::Full`] (Ligra) and [`ExecutionMode::Incremental`]
//!   (GB-Reset), plus [`run_bsp_from`] which reproduces the *incorrect*
//!   naive reuse of stale values (Table 1 / Figure 2 of the paper),
//! * the [`StreamingEngine`] façade combining all of the above.

#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod adaptive_cutoff;
pub mod admission;
pub mod algorithm;
pub mod bsp;
pub mod checkpoint;
pub mod fault;
pub mod frontdoor;
pub mod laws;
pub mod options;
pub mod refine;
pub mod session;
// The one module that may contain `unsafe` (every block carries a
// `// SAFETY:` comment — clippy's `undocumented_unsafe_blocks` is denied
// workspace-wide — and the module runs under Miri and Loom in CI).
#[allow(unsafe_code)]
pub mod sharded;
pub mod stats;
pub mod store;
pub mod streaming;
pub mod telemetry;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionSnapshot, BucketConfig, ClientClass, RetryAfter,
};
pub use algorithm::{agg_total_bytes, Algorithm, Decomposable, Refining, Selective, Sum};
pub use bsp::{run_bsp, run_bsp_from, run_tracking, BspState, TrackingOutcome};
pub use checkpoint::{
    latest_checkpoint_seq, recover_session, write_session_checkpoint, Checkpoint, CheckpointError,
    F64Codec, RecoveredSession, StateCodec, VecF64Codec,
};
pub use fault::FaultAction;
pub use frontdoor::{FrontDoor, FrontDoorConfig};
pub use laws::{check_laws, Law, LawConfig, LawReport, LawSpec, LawViolation, Monotonic, SplitMix64};
pub use options::{EngineOptions, ExecutionMode};
pub use refine::{refine, RefineState};
pub use session::{
    CheckpointPolicy, DeadLetter, SessionConfig, SessionError, SessionOutcome, SessionStats,
    StreamSession,
};
pub use sharded::ShardedMut;
pub use stats::{EngineStats, RefineReport, StatsSnapshot};
pub use store::DependencyStore;
pub use streaming::{doctest_support, DegradeLevel, StreamingEngine};
pub use telemetry::MetricsRegistry;
