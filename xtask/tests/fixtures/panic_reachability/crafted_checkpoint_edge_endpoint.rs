//! Regression fixture, named for the bug: a crafted session checkpoint
//! whose embedded edge list named a vertex beyond its own recorded `n`
//! reached `GraphSnapshot::from_edges` unvalidated and panicked the
//! restore path on the constructor's range assert. This is the fixed
//! shape — endpoints are validated into a typed error first, and the
//! reviewed edge carries the waiver that records why the assert is now
//! unreachable. The test removes that record and expects the original
//! finding.

pub fn decode_session_file(n: usize, edges: Vec<Edge>) -> Result<GraphSnapshot, CheckpointError> {
    if let Some(e) = edges
        .iter()
        .find(|e| e.src as usize >= n || e.dst as usize >= n)
    {
        return Err(CheckpointError::Format(format!("edge ({}, {}) out of range", e.src, e.dst)));
    }
    // lint:allow(panic-reachability) — the endpoint validation above
    // makes the constructor's range asserts unreachable from restore.
    Ok(GraphSnapshot::from_edges(n, &edges))
}

// Stands in for the graph crate's constructor (not a root module there,
// hence private here).
impl GraphSnapshot {
    fn from_edges(n: usize, edges: &[Edge]) -> Self {
        for e in edges {
            assert!((e.src as usize) < n && (e.dst as usize) < n, "edge out of range");
        }
        Self::build(n, edges)
    }
}
