//! Immutable graph snapshots with dual CSR/CSC indexing.

use std::sync::Arc;

use crate::csr::{Adjacency, Change};
use crate::mutation::{MutationBatch, MutationError};
use crate::types::{Edge, VertexId, Weight};

/// An immutable snapshot of a directed weighted graph.
///
/// The snapshot keeps both a source-indexed (CSR, out-edges) and a
/// destination-indexed (CSC, in-edges) view of the same edge set. Push
/// traversal reads the CSR; pull traversal and GraphBolt's re-evaluation of
/// non-decomposable aggregations read the CSC (§3.3, §4.2 of the paper).
///
/// Applying a [`MutationBatch`] produces a *new* snapshot that shares
/// every adjacency chunk the batch did not touch, leaving the old one
/// readable so refinement can evaluate "old graph" contributions while
/// the mutated graph is live. Cloning copies two chunk tables, not edges.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    out: Adjacency,
    inc: Adjacency,
    /// Monotonically increasing snapshot version, starting at 0.
    version: u64,
}

impl PartialEq for GraphSnapshot {
    /// Structural equality: two snapshots are equal when they describe
    /// the same edge set, regardless of how many mutation batches
    /// produced them (the version counter is provenance, not structure).
    fn eq(&self, other: &Self) -> bool {
        self.out == other.out && self.inc == other.inc
    }
}

impl GraphSnapshot {
    /// Builds a snapshot from an edge list over `n` vertices.
    ///
    /// Duplicate `(src, dst)` pairs are collapsed, keeping the last weight
    /// seen — the substrate models simple directed graphs, matching the
    /// paper's inputs.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        // Stable, so the last of a run of duplicates is the last one seen.
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|e| e.endpoints());
        sorted.dedup_by(|later, kept| {
            let duplicate = later.endpoints() == kept.endpoints();
            if duplicate {
                kept.weight = later.weight;
            }
            duplicate
        });
        // Source-major order fills both indexes with sorted slices.
        Self {
            out: Adjacency::scatter(n, sorted.iter().map(|e| (e.src, e.dst, e.weight))),
            inc: Adjacency::scatter(n, sorted.iter().map(|e| (e.dst, e.src, e.weight))),
            version: 0,
        }
    }

    /// Creates an empty graph over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            out: Adjacency::empty(n),
            inc: Adjacency::empty(n),
            version: 0,
        }
    }

    /// Number of vertices (fixed id space `0..n`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Snapshot version: 0 for the initial build, incremented by each
    /// applied mutation batch.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inc.degree(v)
    }

    /// Sorted out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Sorted in-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inc.neighbors(v)
    }

    /// `(out-neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.out.edges(v)
    }

    /// `(in-neighbor, weight)` pairs of `v` — the weight is that of the
    /// original `u → v` edge.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.inc.edges(v)
    }

    /// Returns `true` if the directed edge `u → v` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out.has_edge(u, v)
    }

    /// Weight of `u → v`, if present.
    #[inline]
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.out.edge_weight(u, v)
    }

    /// Sum of in-edge weights of `v` (CoEM-style destination
    /// normalization).
    #[inline]
    pub fn in_weight_sum(&self, v: VertexId) -> Weight {
        self.inc.weight_sum(v)
    }

    /// The out-edge (CSR) index.
    #[inline]
    pub fn csr(&self) -> &Adjacency {
        &self.out
    }

    /// The in-edge (CSC) index.
    #[inline]
    pub fn csc(&self) -> &Adjacency {
        &self.inc
    }

    /// All edges in source-major order.
    pub fn edges(&self) -> Vec<Edge> {
        self.out.to_edges()
    }

    /// Applies a mutation batch, producing the next snapshot.
    ///
    /// Additions of already-present edges and deletions of absent edges are
    /// rejected with [`MutationError`] so that dependency refinement never
    /// repropagates a contribution twice or retracts one that was never
    /// made (§4.2 "spurious updates"). Use
    /// [`MutationBatch::normalize_against`] to pre-filter a raw stream.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError::DuplicateAddition`] /
    /// [`MutationError::MissingDeletion`] on conflicting mutations.
    /// A delete+add pair on the same endpoints is a *reweight* and is
    /// accepted.
    pub fn apply(&self, batch: &MutationBatch) -> Result<GraphSnapshot, MutationError> {
        batch.validate(self)?;
        let new_n = self
            .num_vertices()
            .max(batch.max_vertex_id().map_or(0, |m| m as usize + 1));

        let edits = |key: fn(&Edge) -> (VertexId, VertexId)| -> Vec<Change> {
            let removals = batch.deletions().iter().map(|e| (key(e), None));
            let upserts = batch.additions().iter().map(|e| (key(e), Some(e.weight)));
            removals
                .chain(upserts)
                .map(|((v, t), w)| (v, t, w))
                .collect()
        };
        Ok(GraphSnapshot {
            out: self.out.patched(new_n, edits(|e| (e.src, e.dst))),
            inc: self.inc.patched(new_n, edits(|e| (e.dst, e.src))),
            version: self.version + 1,
        })
    }

    /// Convenience wrapper returning an `Arc`'d mutated snapshot.
    pub fn apply_arc(&self, batch: &MutationBatch) -> Result<Arc<GraphSnapshot>, MutationError> {
        self.apply(batch).map(Arc::new)
    }

    /// Estimated heap footprint of both indexes, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.out.memory_bytes() + self.inc.memory_bytes()
    }

    /// Checks internal consistency: CSR and CSC describe the same edge
    /// set. Intended for tests and debug assertions.
    pub fn check_consistency(&self) -> bool {
        if self.out.num_edges() != self.inc.num_edges() {
            return false;
        }
        let mut fwd = self.out.to_edges();
        let mut bwd: Vec<Edge> = self
            .inc
            .to_edges()
            .into_iter()
            .map(|e| e.reversed())
            .collect();
        fwd.sort();
        bwd.sort();
        fwd == bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::SPAN;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn diamond() -> GraphSnapshot {
        GraphSnapshot::from_edges(
            4,
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 2.0),
                Edge::new(1, 3, 3.0),
                Edge::new(2, 3, 4.0),
            ],
        )
    }

    #[test]
    fn csr_and_csc_agree() {
        let g = diamond();
        assert!(g.check_consistency());
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = GraphSnapshot::from_edges(2, &[Edge::new(0, 1, 1.0), Edge::new(0, 1, 7.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(7.0));
    }

    #[test]
    fn in_weight_sum_matches_incoming_edges() {
        let g = diamond();
        assert_eq!(g.in_weight_sum(3), 7.0);
        assert_eq!(g.in_weight_sum(1), 1.0);
    }

    #[test]
    fn apply_addition_and_deletion() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(3, 0, 9.0));
        batch.delete(Edge::unweighted(0, 1));
        let g2 = g.apply(&batch).unwrap();
        assert!(g2.check_consistency());
        assert_eq!(g2.num_edges(), 4);
        assert!(g2.has_edge(3, 0));
        assert!(!g2.has_edge(0, 1));
        assert_eq!(g2.version(), 1);
        // The old snapshot is untouched.
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn apply_grows_vertex_space() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.add(Edge::unweighted(3, 6));
        let g2 = g.apply(&batch).unwrap();
        assert_eq!(g2.num_vertices(), 7);
        assert!(g2.has_edge(3, 6));
        assert_eq!(g2.out_degree(5), 0);
        assert!(g2.check_consistency());
    }

    #[test]
    fn apply_rejects_duplicate_addition() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.add(Edge::unweighted(0, 1));
        assert!(matches!(
            g.apply(&batch),
            Err(MutationError::DuplicateAddition(_))
        ));
    }

    #[test]
    fn apply_rejects_missing_deletion() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.delete(Edge::unweighted(1, 0));
        assert!(matches!(
            g.apply(&batch),
            Err(MutationError::MissingDeletion(_))
        ));
    }

    #[test]
    fn sequential_batches_bump_version() {
        let g = diamond();
        let mut b1 = MutationBatch::new();
        b1.add(Edge::unweighted(1, 0));
        let g1 = g.apply(&b1).unwrap();
        let mut b2 = MutationBatch::new();
        b2.delete(Edge::unweighted(1, 0));
        let g2 = g1.apply(&b2).unwrap();
        assert_eq!(g2.version(), 2);
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    fn from_model(n: usize, model: &BTreeMap<(VertexId, VertexId), Weight>) -> GraphSnapshot {
        let edges: Vec<Edge> = model
            .iter()
            .map(|(&(u, v), &w)| Edge::new(u, v, w))
            .collect();
        GraphSnapshot::from_edges(n, &edges)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]
        /// Whatever sequence of batches produced it, a snapshot equals the
        /// one built from scratch from a map model of its edge set, and
        /// the snapshot it was derived from still equals the model's
        /// previous state. The stream reweights, piles half its ops onto
        /// one hub, and grows the id space out of a partial last chunk
        /// across up to three chunk boundaries (leaving empty chunks).
        #[test]
        fn apply_tracks_a_map_model(seed in 0u64..400) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut n = rng.gen_range(3..3 * SPAN);
            let hub = rng.gen_range(0..n) as VertexId;
            let mut model = BTreeMap::new();
            let mut snapshot = GraphSnapshot::empty(n);
            for _ in 0..6 {
                let mut batch = MutationBatch::new();
                for _ in 0..rng.gen_range(1..24) {
                    let u = if rng.gen_bool(0.5) { hub } else { rng.gen_range(0..n) as VertexId };
                    let bound = if rng.gen_bool(0.03) { n + 3 * SPAN } else { n };
                    let v = rng.gen_range(0..bound) as VertexId;
                    let (u, v) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
                    let w = rng.gen_range(0.1..2.0);
                    match (model.get(&(u, v)), rng.gen_bool(0.5)) {
                        (Some(&old), true) => batch.delete(Edge::new(u, v, old)),
                        (Some(_), false) => batch.reweight(&snapshot, u, v, w),
                        (None, _) => batch.add(Edge::new(u, v, w)),
                    };
                }
                // Deletions apply before additions; duplicates keep the first.
                let batch = batch.normalize_against(&snapshot);
                let parent = from_model(n, &model);
                for e in batch.deletions() {
                    model.remove(&e.endpoints());
                }
                for e in batch.additions() {
                    model.insert(e.endpoints(), e.weight);
                }
                n = n.max(batch.max_vertex_id().map_or(0, |m| m as usize + 1));
                let next = snapshot.apply(&batch).unwrap();
                proptest::prop_assert!(next.check_consistency());
                proptest::prop_assert_eq!(&next, &from_model(n, &model));
                proptest::prop_assert_eq!(&snapshot, &parent);
                snapshot = next;
            }
        }
    }
}
