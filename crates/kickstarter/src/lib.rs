//! KickStarter-style streaming engine for monotonic path algorithms.
//!
//! Reimplementation of the comparison system of §5.4(B): *KickStarter:
//! Fast and Accurate Computations on Streaming Graphs via Trimmed
//! Approximations* (Vora, Gupta, Xu — ASPLOS'17). KickStarter targets
//! *monotonic, path-based* algorithms (SSSP, BFS, WCC): it tracks a
//! single light-weight dependence per vertex — the in-edge that
//! determined its value, forming a dependence tree — instead of
//! GraphBolt's per-iteration aggregation histories. On edge deletion it
//! *trims* the subtree of values that transitively depended on the
//! deleted edge to safe approximations and re-propagates monotonically;
//! on edge addition it simply relaxes forward.
//!
//! Because it exploits asynchrony (computation reordering), it does not
//! provide BSP semantics — which is exactly the trade-off Figure 9 of the
//! GraphBolt paper probes: KickStarter wins on SSSP, where synchronous
//! guarantees are unnecessary.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod sssp;

pub use sssp::KickStarterSssp;
