//! Chunked copy-on-write compressed adjacency index.
//!
//! A single [`Adjacency`] stores one direction of a graph (out-edges for
//! CSR, in-edges for CSC). The GraphBolt snapshot keeps one of each so the
//! execution engine can switch between push (source-indexed) and pull
//! (destination-indexed) traversal, which is the backbone of Ligra-style
//! direction optimization (§4.1 of the paper).
//!
//! The index is a table of reference-counted chunks, each covering a
//! fixed span of consecutive vertex ids. A mutated index clones the
//! table and rebuilds only the chunks a mutation names, so structure
//! adjustment costs `O(table + edges of touched chunks)`, independent of
//! `|E|`, and the previous index stays readable because nothing it owns
//! is written. The layout is canonical — the same edge set yields equal
//! chunks whichever path built them — so equality stays structural.

use std::sync::Arc;

use crate::types::{Edge, VertexId, Weight};

/// Vertices per chunk. Small enough that a singleton mutation copies
/// ~0.4 % of a scale-16 graph, large enough that the table is a few KiB.
pub(crate) const SPAN: usize = 256;

/// One slice edit: `Some(weight)` upserts `vertex → neighbor`, `None`
/// removes it.
pub(crate) type Change = (VertexId, VertexId, Option<Weight>);

/// The adjacency of `SPAN` consecutive vertices. The offsets sit inline
/// so a degree lookup is two dependent loads (table entry, offsets) —
/// a `Vec` here costs a third and ~20 % of a PageRank iteration.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    /// `offsets[i]..offsets[i + 1]` is the slice of the span's `i`-th
    /// vertex; slots past the vertex count repeat the total.
    offsets: [u32; SPAN + 1],
    /// Neighbor ids, sorted within each vertex slice.
    targets: Vec<VertexId>,
    /// Weight parallel to `targets`.
    weights: Vec<Weight>,
}

impl Chunk {
    fn with_capacity(edges: usize) -> Self {
        Self {
            offsets: [0; SPAN + 1],
            targets: Vec::with_capacity(edges),
            weights: Vec::with_capacity(edges),
        }
    }

    /// Appends `from`'s edge slots `slots`.
    fn extend(&mut self, from: &Chunk, slots: std::ops::Range<usize>) {
        self.targets.extend_from_slice(&from.targets[slots.clone()]);
        self.weights.extend_from_slice(&from.weights[slots]);
    }

    /// Appends the unchanged slices of `from`'s local vertices `lo..hi`
    /// in one copy.
    fn copy_unchanged(&mut self, from: &Chunk, lo: usize, hi: usize) {
        let (first, shift) = (from.offsets[lo], self.offsets[lo]);
        self.extend(from, first as usize..from.offsets[hi] as usize);
        for i in lo..hi {
            self.offsets[i + 1] = from.offsets[i + 1] - first + shift;
        }
    }

    /// This chunk with `run` applied: edits of vertices `base..base +
    /// SPAN`, sorted by `(vertex, neighbor)` with a removal ahead of an
    /// upsert of the same pair.
    fn patched(&self, base: usize, run: &[Change]) -> Chunk {
        let upserts = run.iter().filter(|c| c.2.is_some()).count();
        let edges = (self.targets.len() + upserts).saturating_sub(run.len() - upserts);
        let mut out = Chunk::with_capacity(edges);
        let mut next = 0;
        for edits in run.chunk_by(|a, b| a.0 == b.0) {
            let i = edits[0].0 as usize - base;
            out.copy_unchanged(self, next, i);
            let (mut k, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            for &(_, t, w) in edits {
                let upto = k + self.targets[k..hi].partition_point(|&x| x < t);
                out.extend(self, k..upto);
                k = upto + usize::from(upto < hi && self.targets[upto] == t);
                if let Some(w) = w {
                    out.targets.push(t);
                    out.weights.push(w);
                }
            }
            out.extend(self, k..hi);
            out.offsets[i + 1] = out.targets.len() as u32;
            next = i + 1;
        }
        out.copy_unchanged(self, next, SPAN);
        // Offsets are monotone, so checking the last one checks them all.
        out.offsets[SPAN] = u32::try_from(out.targets.len()).expect("chunk over 2^32 edges");
        out
    }
}

/// One-directional compressed adjacency: per-vertex contiguous, sorted
/// neighbor slices.
///
/// Neighbors of each vertex are kept sorted by id, enabling `O(log d)`
/// membership queries ([`Adjacency::has_edge`]) and linear-time sorted set
/// intersection, which Triangle Counting relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    /// `chunks[v / SPAN]` holds `v`'s slice.
    chunks: Vec<Arc<Chunk>>,
    num_vertices: usize,
    num_edges: usize,
}

impl Adjacency {
    /// Builds an adjacency index from `(vertex, neighbor, weight)` triples.
    ///
    /// `edges` does not need to be sorted; duplicates are kept (callers
    /// that need simple graphs deduplicate before building). `n` is the
    /// number of vertices and must exceed every id appearing in `edges`.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n`; constructing an index
    /// that silently drops edges would corrupt downstream dependency
    /// tracking, so this is a programming error.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|e| e.endpoints());
        Self::scatter(n, sorted.iter().map(|e| (e.src, e.dst, e.weight)))
    }

    /// Counting scatter: each vertex's slice holds its `(neighbor,
    /// weight)` pairs in the order `edges` yields them, so input ordered
    /// by neighbor within each vertex arrives sorted.
    pub(crate) fn scatter(
        n: usize,
        edges: impl Iterator<Item = (VertexId, VertexId, Weight)> + Clone,
    ) -> Self {
        let mut cursor = vec![0u32; n];
        let mut num_edges = 0;
        for (v, t, _) in edges.clone() {
            assert!(
                (v as usize) < n && (t as usize) < n,
                "edge ({v}, {t}) out of bounds (n = {n})"
            );
            cursor[v as usize] += 1;
            num_edges += 1;
        }
        // Degrees become each vertex's next free slot within its chunk.
        let mut chunks: Vec<Chunk> = cursor
            .chunks_mut(SPAN)
            .map(|degrees| {
                let mut chunk = Chunk::with_capacity(0);
                for (i, d) in degrees.iter_mut().enumerate() {
                    chunk.offsets[i + 1] = chunk.offsets[i]
                        .checked_add(*d)
                        .expect("a chunk holds fewer than 2^32 edges");
                    *d = chunk.offsets[i];
                }
                let total = chunk.offsets[degrees.len()];
                chunk.offsets[degrees.len()..].fill(total);
                chunk.targets = vec![0; total as usize];
                chunk.weights = vec![0.0; total as usize];
                chunk
            })
            .collect();
        for (v, t, w) in edges {
            let (chunk, slot) = (&mut chunks[v as usize / SPAN], &mut cursor[v as usize]);
            chunk.targets[*slot as usize] = t;
            chunk.weights[*slot as usize] = w;
            *slot += 1;
        }
        Self {
            chunks: chunks.into_iter().map(Arc::new).collect(),
            num_vertices: n,
            num_edges,
        }
    }

    /// Creates an empty adjacency over `n` vertices.
    pub fn empty(n: usize) -> Self {
        // All-empty chunks are equal, so every slot shares one allocation.
        let chunk = Arc::new(Chunk::with_capacity(0));
        Self {
            chunks: vec![chunk; n.div_ceil(SPAN)],
            num_vertices: n,
            num_edges: 0,
        }
    }

    /// Number of vertices indexed.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of directed edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `v`'s chunk and its slot range there.
    #[inline]
    fn slots(&self, v: VertexId) -> (&Chunk, std::ops::Range<usize>) {
        debug_assert!((v as usize) < self.num_vertices);
        let (chunk, i) = (&*self.chunks[v as usize / SPAN], v as usize % SPAN);
        let slots = chunk.offsets[i] as usize..chunk.offsets[i + 1] as usize;
        (chunk, slots)
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        // Subtracted as `u32`, not as the `usize` range of `slots`: the
        // result then provably fits 32 bits, which makes `degree as f64`
        // one convert instruction — PageRank asks once per edge, and
        // `bsp.scratch_ms` reads 3 % lower for it.
        let (chunk, i) = (&*self.chunks[v as usize / SPAN], v as usize % SPAN);
        (chunk.offsets[i + 1] - chunk.offsets[i]) as usize
    }

    /// Sorted neighbor ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (chunk, slots) = self.slots(v);
        &chunk.targets[slots]
    }

    /// Weights parallel to [`Adjacency::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[Weight] {
        let (chunk, slots) = self.slots(v);
        &chunk.weights[slots]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (chunk, slots) = self.slots(v);
        let weights = chunk.weights[slots.clone()].iter().copied();
        chunk.targets[slots].iter().copied().zip(weights)
    }

    /// Returns `true` if the directed edge `v → t` exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphbolt_graph::{Adjacency, Edge};
    /// let adj = Adjacency::from_edges(3, &[Edge::unweighted(0, 2)]);
    /// assert!(adj.has_edge(0, 2));
    /// assert!(!adj.has_edge(2, 0));
    /// ```
    #[inline]
    pub fn has_edge(&self, v: VertexId, t: VertexId) -> bool {
        self.neighbors(v).binary_search(&t).is_ok()
    }

    /// Returns the weight of edge `v → t`, if present. When parallel edges
    /// exist, an arbitrary one of them is reported.
    pub fn edge_weight(&self, v: VertexId, t: VertexId) -> Option<Weight> {
        self.neighbors(v)
            .binary_search(&t)
            .ok()
            .map(|i| self.weights(v)[i])
    }

    /// Sum of edge weights incident to `v` in this direction; used by
    /// destination-normalized aggregations such as CoEM.
    pub fn weight_sum(&self, v: VertexId) -> Weight {
        self.weights(v).iter().sum()
    }

    /// Applies slice edits, producing a new index that shares every chunk
    /// no edit names. `new_n >= self.num_vertices()` grows the vertex
    /// space; the chunks that adds are one shared empty allocation.
    ///
    /// This replaces the paper's two-pass CSR adjustment (§4.1, which
    /// names faster dynamic structures as the option): the cost is the
    /// table clone plus the edges of the touched chunks.
    pub(crate) fn patched(&self, new_n: usize, mut changes: Vec<Change>) -> Self {
        assert!(new_n >= self.num_vertices);
        // A reweight is a removal and an upsert of one pair: removal first.
        changes.sort_unstable_by_key(|&(v, t, w)| (v, t, w.is_some()));
        let mut chunks = self.chunks.clone();
        if new_n.div_ceil(SPAN) > chunks.len() {
            chunks.resize(new_n.div_ceil(SPAN), Arc::new(Chunk::with_capacity(0)));
        }
        let mut num_edges = self.num_edges;
        for run in changes.chunk_by(|a, b| a.0 as usize / SPAN == b.0 as usize / SPAN) {
            let c = run[0].0 as usize / SPAN;
            let rebuilt = chunks[c].patched(c * SPAN, run);
            num_edges = num_edges + rebuilt.targets.len() - chunks[c].targets.len();
            chunks[c] = Arc::new(rebuilt);
        }
        Self {
            chunks,
            num_vertices: new_n,
            num_edges,
        }
    }

    /// Returns all edges as `(v, target, weight)` triples in index order.
    pub fn to_edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges());
        for v in 0..self.num_vertices() as VertexId {
            for (t, w) in self.edges(v) {
                out.push(Edge::new(v, t, w));
            }
        }
        out
    }

    /// Estimated heap footprint in bytes (table + chunks; a chunk shared
    /// between table slots or snapshots is counted once per slot).
    pub fn memory_bytes(&self) -> usize {
        let edge = std::mem::size_of::<VertexId>() + std::mem::size_of::<Weight>();
        self.chunks.len() * (std::mem::size_of::<Arc<Chunk>>() + std::mem::size_of::<Chunk>())
            + self.num_edges * edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, simplify, RmatConfig};
    use crate::{GraphSnapshot, MutationBatch};
    use rand::{rngs::SmallRng, SeedableRng};
    use std::collections::HashSet;

    fn sample() -> Adjacency {
        Adjacency::from_edges(
            4,
            &[
                Edge::new(0, 2, 1.0),
                Edge::new(0, 1, 2.0),
                Edge::new(2, 3, 3.0),
                Edge::new(3, 0, 4.0),
            ],
        )
    }

    #[test]
    fn from_edges_builds_sorted_slices() {
        let adj = sample();
        assert_eq!(adj.num_vertices(), 4);
        assert_eq!(adj.num_edges(), 4);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.weights(0), &[2.0, 1.0]);
        assert_eq!(adj.degree(1), 0);
        assert_eq!(adj.neighbors(3), &[0]);
    }

    #[test]
    fn has_edge_and_weight_lookup() {
        let adj = sample();
        assert!(adj.has_edge(0, 1));
        assert!(!adj.has_edge(1, 0));
        assert_eq!(adj.edge_weight(2, 3), Some(3.0));
        assert_eq!(adj.edge_weight(3, 2), None);
    }

    #[test]
    fn weight_sum_accumulates() {
        let adj = sample();
        assert_eq!(adj.weight_sum(0), 3.0);
        assert_eq!(adj.weight_sum(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_out_of_range() {
        Adjacency::from_edges(2, &[Edge::unweighted(0, 5)]);
    }

    #[test]
    fn rebuild_replaces_only_changed_vertices() {
        let adj = sample();
        let changes = vec![
            (1, 2, Some(1.0)),
            (0, 3, Some(9.0)),
            (0, 1, None),
            (1, 0, Some(1.0)),
            (0, 2, None),
        ];
        let next = adj.patched(4, changes);
        assert_eq!(next.neighbors(0), &[3]);
        assert_eq!(next.weights(0), &[9.0]);
        assert_eq!(next.neighbors(1), &[0, 2]);
        assert_eq!(next.neighbors(2), &[3]);
        assert_eq!(next.neighbors(3), &[0]);
        assert_eq!(next.num_edges(), 5);
        assert_eq!(adj, sample(), "the parent index is not written");
    }

    #[test]
    fn rebuild_can_grow_vertex_space() {
        let adj = sample();
        let far = 3 * SPAN as VertexId + 5;
        let n = far as usize + 1;
        let next = adj.patched(n, vec![(5, 0, Some(1.0)), (far, 5, Some(2.0))]);
        assert_eq!(next.num_vertices(), n);
        assert_eq!(next.neighbors(5), &[0]);
        assert_eq!(next.neighbors(far), &[5]);
        assert_eq!(next.degree(4), 0);
        assert_eq!(next.degree(far - 1), 0);
        // Growth costs the new chunks only, and the empty ones are one
        // allocation.
        assert!(Arc::ptr_eq(&next.chunks[1], &next.chunks[2]));
        assert_eq!(next, Adjacency::from_edges(n, &next.to_edges()));
    }

    /// Chunk allocations of `child` that `parent` does not hold.
    fn rebuilt_chunks(parent: &Adjacency, child: &Adjacency) -> usize {
        let held: HashSet<_> = parent.chunks.iter().map(Arc::as_ptr).collect();
        let fresh: HashSet<_> = child.chunks.iter().map(Arc::as_ptr).collect();
        fresh.difference(&held).count()
    }

    /// Pins `apply`'s complexity without a clock: it allocates the chunks
    /// a batch names and shares the rest with its parent.
    #[test]
    fn apply_shares_every_chunk_it_does_not_name() {
        let scales: &[u32] = if cfg!(miri) { &[8] } else { &[12, 16] };
        for &scale in scales {
            let cfg = RmatConfig::new(scale, 8);
            let edges = simplify(rmat(&cfg, &mut SmallRng::seed_from_u64(7)));
            let n = cfg.num_vertices();
            let g = GraphSnapshot::from_edges(n, &edges);
            let rebuilt = |batch: &MutationBatch| {
                let next = g.apply(batch).unwrap();
                let (out, inc) = (next.csr(), next.csc());
                (rebuilt_chunks(g.csr(), out), rebuilt_chunks(g.csc(), inc))
            };

            // `simplify` drops self-loops, so this edge is new.
            let mut one = MutationBatch::new();
            one.add(Edge::unweighted(5, 5));
            assert_eq!(rebuilt(&one), (1, 1));

            // A grown tail is one more allocation: the shared empty chunk.
            let mut grow = MutationBatch::new();
            grow.add(Edge::unweighted(3, (n + 5 * SPAN) as VertexId));
            assert_eq!(rebuilt(&grow), (2, 2));

            let mut many = MutationBatch::new();
            for e in edges.iter().step_by((edges.len() / 1000).max(1)).take(1000) {
                many.delete(*e);
            }
            let named = |key: fn(&Edge) -> VertexId| {
                let chunks = many.deletions().iter().map(|e| key(e) as usize / SPAN);
                chunks.collect::<HashSet<_>>().len()
            };
            assert_eq!(rebuilt(&many), (named(|e| e.src), named(|e| e.dst)));
        }
    }

    #[test]
    fn to_edges_round_trips() {
        let adj = sample();
        let edges = adj.to_edges();
        let rebuilt = Adjacency::from_edges(4, &edges);
        assert_eq!(adj, rebuilt);
    }

    #[test]
    fn empty_adjacency_has_no_edges() {
        let adj = Adjacency::empty(3);
        assert_eq!(adj.num_vertices(), 3);
        assert_eq!(adj.num_edges(), 0);
        assert_eq!(adj.degree(2), 0);
    }
}
