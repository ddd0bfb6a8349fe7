//! Named for the incident: PR 14 abandoned a two-line dedup helper in
//! `core::streaming` because every fn in a root module was a traversal
//! root, so a new private helper needed its own `PANIC_ISOLATED` entry.
//! Roots are now the exported fns only: a private helper called solely
//! from the quarantined `apply_batch` is never a finding site. The test
//! then adds an un-isolated `pub fn` caller and expects the finding.

impl StreamingEngine {
    pub fn apply_batch(&mut self, batch: &MutationBatch) -> RefineReport {
        let new_graph = adjust_structure(&self.graph, batch);
        self.refine_onto(new_graph, batch)
    }
}

fn adjust_structure(graph: &GraphSnapshot, batch: &MutationBatch) -> GraphSnapshot {
    graph.apply(batch).expect("batch validated by the caller")
}
