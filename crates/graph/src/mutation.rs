//! Batched graph mutations.

use std::collections::HashSet;

use crate::snapshot::GraphSnapshot;
use crate::types::{Edge, VertexId};

/// Error produced when a mutation batch conflicts with the snapshot it is
/// applied to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The batch adds an edge that already exists in the snapshot (and is
    /// not simultaneously deleted — delete+add of the same endpoints is a
    /// *reweight* and is allowed).
    DuplicateAddition(Edge),
    /// The batch deletes an edge that does not exist in the snapshot.
    MissingDeletion(Edge),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateAddition(e) => {
                write!(f, "edge ({}, {}) already exists", e.src, e.dst)
            }
            Self::MissingDeletion(e) => {
                write!(f, "edge ({}, {}) does not exist", e.src, e.dst)
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// A batch of edge insertions and deletions, applied atomically between
/// iterations (§2.1: "updates are batched into ΔG when computations are
/// being performed during an iteration").
///
/// Vertex additions are implicit: adding an edge whose endpoint exceeds the
/// current vertex count grows the id space. Vertex deletion is expressed by
/// deleting all incident edges ([`MutationBatch::delete_vertex_edges`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationBatch {
    additions: Vec<Edge>,
    deletions: Vec<Edge>,
}

impl MutationBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch from explicit addition and deletion lists.
    pub fn from_parts(additions: Vec<Edge>, deletions: Vec<Edge>) -> Self {
        Self {
            additions,
            deletions,
        }
    }

    /// Queues an edge insertion.
    pub fn add(&mut self, e: Edge) -> &mut Self {
        self.additions.push(e);
        self
    }

    /// Queues an edge deletion (weight on the edge is ignored).
    pub fn delete(&mut self, e: Edge) -> &mut Self {
        self.deletions.push(e);
        self
    }

    /// Queues a weight change of an existing edge, expressed as the
    /// delete-then-add pair the engine's refinement understands (the old
    /// contribution is retracted in the old structural context, the new
    /// one folded in under the new weight).
    ///
    /// # Panics
    ///
    /// Panics if the edge is absent from `g` — reweighting needs the old
    /// weight to retract.
    pub fn reweight(
        &mut self,
        g: &GraphSnapshot,
        src: VertexId,
        dst: VertexId,
        new_weight: f64,
    ) -> &mut Self {
        self.try_reweight(g, src, dst, new_weight)
            .unwrap_or_else(|e| panic!("cannot reweight absent edge: {e}"))
    }

    /// Fallible [`MutationBatch::reweight`]: reports the absent edge as a
    /// [`MutationError::MissingDeletion`] instead of panicking, for
    /// callers fed by untrusted mutation streams.
    ///
    /// # Errors
    ///
    /// [`MutationError::MissingDeletion`] when `(src, dst)` is not in `g`.
    pub fn try_reweight(
        &mut self,
        g: &GraphSnapshot,
        src: VertexId,
        dst: VertexId,
        new_weight: f64,
    ) -> Result<&mut Self, MutationError> {
        let old = g
            .edge_weight(src, dst)
            .ok_or(MutationError::MissingDeletion(Edge::new(
                src, dst, new_weight,
            )))?;
        self.delete(Edge::new(src, dst, old));
        self.add(Edge::new(src, dst, new_weight));
        Ok(self)
    }

    /// Queues deletion of every edge incident to `v` in `g`, which models
    /// vertex removal.
    pub fn delete_vertex_edges(&mut self, g: &GraphSnapshot, v: VertexId) -> &mut Self {
        for (t, w) in g.out_edges(v) {
            self.delete(Edge::new(v, t, w));
        }
        for (s, w) in g.in_edges(v) {
            if s != v {
                self.delete(Edge::new(s, v, w));
            }
        }
        self
    }

    /// Queued insertions.
    pub fn additions(&self) -> &[Edge] {
        &self.additions
    }

    /// Queued deletions.
    pub fn deletions(&self) -> &[Edge] {
        &self.deletions
    }

    /// Total number of queued mutations.
    pub fn len(&self) -> usize {
        self.additions.len() + self.deletions.len()
    }

    /// Returns `true` if no mutations are queued.
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty() && self.deletions.is_empty()
    }

    /// Largest vertex id referenced by the batch.
    pub fn max_vertex_id(&self) -> Option<VertexId> {
        self.additions
            .iter()
            .chain(self.deletions.iter())
            .map(|e| e.src.max(e.dst))
            .max()
    }

    /// Checks the batch against a snapshot without applying it.
    ///
    /// # Errors
    ///
    /// See [`MutationError`].
    pub fn validate(&self, g: &GraphSnapshot) -> Result<(), MutationError> {
        let mut seen_del = HashSet::with_capacity(self.deletions.len());
        for e in &self.deletions {
            if !seen_del.insert(e.endpoints()) {
                return Err(MutationError::MissingDeletion(*e));
            }
            if (e.src as usize) >= g.num_vertices() || !g.has_edge(e.src, e.dst) {
                return Err(MutationError::MissingDeletion(*e));
            }
        }
        let mut seen_add = HashSet::with_capacity(self.additions.len());
        for e in &self.additions {
            if !seen_add.insert(e.endpoints()) {
                return Err(MutationError::DuplicateAddition(*e));
            }
            // Adding a present edge is a conflict unless the same batch
            // deletes it first (reweight semantics).
            if (e.src as usize) < g.num_vertices()
                && g.has_edge(e.src, e.dst)
                && !seen_del.contains(&e.endpoints())
            {
                return Err(MutationError::DuplicateAddition(*e));
            }
        }
        Ok(())
    }

    /// Drops mutations that would conflict with `g` (duplicate additions,
    /// deletions of absent edges, add+delete pairs), returning a batch that
    /// is guaranteed to validate. Raw mutation streams sampled from a
    /// changing graph use this to stay consistent.
    pub fn normalize_against(&self, g: &GraphSnapshot) -> MutationBatch {
        let mut seen_del = HashSet::new();
        let deletions: Vec<Edge> = self
            .deletions
            .iter()
            .filter(|e| {
                seen_del.insert(e.endpoints())
                    && (e.src as usize) < g.num_vertices()
                    && g.has_edge(e.src, e.dst)
            })
            .copied()
            .collect();
        let mut seen = HashSet::new();
        let additions: Vec<Edge> = self
            .additions
            .iter()
            .filter(|e| {
                seen.insert(e.endpoints())
                    && ((e.src as usize) >= g.num_vertices()
                        || !g.has_edge(e.src, e.dst)
                        || seen_del.contains(&e.endpoints()))
            })
            .copied()
            .collect();
        MutationBatch {
            additions,
            deletions,
        }
    }

    /// Splits this batch into `chunks` sub-batches that, applied in order,
    /// are equivalent to applying the whole batch (used by the single-edge
    /// streaming experiments, Fig. 8b). Reweight pairs (a deletion and an
    /// addition of the same endpoints) stay in the same sub-batch —
    /// tearing them apart would make the addition half conflict with the
    /// still-present edge.
    pub fn split(&self, chunks: usize) -> Vec<MutationBatch> {
        assert!(chunks > 0);
        let mut out = vec![MutationBatch::new(); chunks];
        let mut addition_chunk = HashSet::new();
        for (i, e) in self.additions.iter().enumerate() {
            out[i % chunks].additions.push(*e);
            addition_chunk.insert((e.endpoints(), i % chunks));
        }
        let addition_chunk_of = |e: &Edge| {
            (0..chunks).find(|&c| addition_chunk.contains(&(e.endpoints(), c)))
        };
        for (i, e) in self.deletions.iter().enumerate() {
            let chunk = addition_chunk_of(e).unwrap_or(i % chunks);
            out[chunk].deletions.push(*e);
        }
        out.retain(|b| !b.is_empty());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> GraphSnapshot {
        GraphSnapshot::from_edges(3, &[Edge::unweighted(0, 1), Edge::unweighted(1, 2)])
    }

    #[test]
    fn validate_accepts_consistent_batch() {
        let g = line();
        let mut b = MutationBatch::new();
        b.add(Edge::unweighted(2, 0)).delete(Edge::unweighted(0, 1));
        assert!(b.validate(&g).is_ok());
    }

    #[test]
    fn validate_allows_reweight_pairs() {
        let g = line();
        let mut b = MutationBatch::new();
        b.reweight(&g, 0, 1, 2.5);
        assert!(b.validate(&g).is_ok());
        let g2 = g.apply(&b).unwrap();
        assert_eq!(g2.edge_weight(0, 1), Some(2.5));
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn try_reweight_reports_absent_edge_instead_of_panicking() {
        let g = line();
        let mut b = MutationBatch::new();
        assert!(matches!(
            b.try_reweight(&g, 2, 0, 3.0),
            Err(MutationError::MissingDeletion(_))
        ));
        assert!(b.is_empty(), "failed reweight must not half-queue");
        b.try_reweight(&g, 0, 1, 2.5).unwrap();
        assert!(b.validate(&g).is_ok());
    }

    #[test]
    fn validate_rejects_add_then_delete_of_absent_edge() {
        let g = line();
        let mut b = MutationBatch::new();
        b.add(Edge::unweighted(2, 0)).delete(Edge::unweighted(2, 0));
        // The deletion refers to an edge absent from the snapshot.
        assert!(matches!(
            b.validate(&g),
            Err(MutationError::MissingDeletion(_))
        ));
    }

    #[test]
    #[should_panic(expected = "absent edge")]
    fn reweight_of_absent_edge_panics() {
        let g = line();
        MutationBatch::new().reweight(&g, 2, 0, 1.0);
    }

    #[test]
    fn validate_rejects_double_add_within_batch() {
        let g = line();
        let mut b = MutationBatch::new();
        b.add(Edge::unweighted(2, 0)).add(Edge::new(2, 0, 5.0));
        assert!(matches!(
            b.validate(&g),
            Err(MutationError::DuplicateAddition(_))
        ));
    }

    #[test]
    fn normalize_filters_conflicts() {
        let g = line();
        let mut b = MutationBatch::new();
        b.add(Edge::unweighted(0, 1)) // already present → dropped
            .add(Edge::unweighted(2, 0)) // fine
            .delete(Edge::unweighted(2, 1)) // absent → dropped
            .delete(Edge::unweighted(1, 2)); // fine
        let n = b.normalize_against(&g);
        assert_eq!(n.additions().len(), 1);
        assert_eq!(n.deletions().len(), 1);
        assert!(n.validate(&g).is_ok());
    }

    #[test]
    fn delete_vertex_edges_removes_all_incident() {
        let g = GraphSnapshot::from_edges(
            3,
            &[
                Edge::unweighted(0, 1),
                Edge::unweighted(1, 2),
                Edge::unweighted(2, 1),
            ],
        );
        let mut b = MutationBatch::new();
        b.delete_vertex_edges(&g, 1);
        assert_eq!(b.deletions().len(), 3);
        let g2 = g.apply(&b).unwrap();
        assert_eq!(g2.out_degree(1), 0);
        assert_eq!(g2.in_degree(1), 0);
    }

    #[test]
    fn split_preserves_all_mutations() {
        let mut b = MutationBatch::new();
        for i in 0..10 {
            b.add(Edge::unweighted(i, i + 1));
        }
        b.delete(Edge::unweighted(0, 5));
        let parts = b.split(3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn max_vertex_id_spans_both_lists() {
        let mut b = MutationBatch::new();
        b.add(Edge::unweighted(3, 9));
        b.delete(Edge::unweighted(12, 1));
        assert_eq!(b.max_vertex_id(), Some(12));
        assert_eq!(MutationBatch::new().max_vertex_id(), None);
    }
}

#[cfg(test)]
mod split_reweight_tests {
    use super::*;

    #[test]
    fn split_keeps_reweight_pairs_together() {
        let g = GraphSnapshot::from_edges(
            3,
            &[Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)],
        );
        let mut batch = MutationBatch::new();
        batch.delete(Edge::new(0, 1, 1.0));
        batch.reweight(&g, 1, 2, 5.0);
        // Sequential application of the chunks must stay valid regardless
        // of how indices landed.
        for chunks in 1..=4 {
            let mut cur = g.clone();
            for sub in batch.split(chunks) {
                cur = cur
                    .apply(&sub)
                    .expect("split sub-batches apply in order");
            }
            assert_eq!(cur.edge_weight(1, 2), Some(5.0), "chunks={chunks}");
            assert!(!cur.has_edge(0, 1));
        }
    }
}
