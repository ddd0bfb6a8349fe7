//! Vertex subsets (frontiers) with sparse/dense dual representation.

use graphbolt_graph::{GraphSnapshot, VertexId};

use crate::bitset::AtomicBitSet;
use crate::parallel;

/// Member count below which representation conversions stay sequential
/// (parallel fan-out costs more than it saves on tiny frontiers).
const PAR_CONVERT_THRESHOLD: usize = 4096;

/// A subset of vertices — the frontier flowing between BSP iterations.
///
/// Mirrors Ligra's `vertexSubset`: a subset is physically either **sparse**
/// (a vector of ids) or **dense** (a bit per vertex); [`edge_map`](crate::edge_map()) converts between the two based on frontier size to
/// pick push or pull traversal.
#[derive(Debug, Clone)]
pub enum VertexSubset {
    /// Explicit id list (not necessarily sorted, no duplicates).
    Sparse { n: usize, ids: Vec<VertexId> },
    /// Bit per vertex.
    Dense { bits: AtomicBitSet },
}

impl VertexSubset {
    /// Creates an empty sparse subset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self::Sparse { n, ids: Vec::new() }
    }

    /// Creates the full subset over `n` vertices.
    pub fn full(n: usize) -> Self {
        let bits = AtomicBitSet::new(n);
        for i in 0..n {
            bits.set(i);
        }
        Self::Dense { bits }
    }

    /// Creates a sparse subset from an id list. Duplicates are removed.
    pub fn from_ids(n: usize, mut ids: Vec<VertexId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        debug_assert!(ids.iter().all(|&v| (v as usize) < n));
        Self::Sparse { n, ids }
    }

    /// Creates a dense subset from a bit set.
    pub fn from_bits(bits: AtomicBitSet) -> Self {
        Self::Dense { bits }
    }

    /// Creates a subset containing vertices for which `f` returns true.
    pub fn from_fn(n: usize, f: impl Fn(VertexId) -> bool) -> Self {
        let bits = AtomicBitSet::new(n);
        for v in 0..n {
            if f(v as VertexId) {
                bits.set(v);
            }
        }
        Self::Dense { bits }
    }

    /// Number of vertices in the underlying graph.
    pub fn universe(&self) -> usize {
        match self {
            Self::Sparse { n, .. } => *n,
            Self::Dense { bits } => bits.capacity(),
        }
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        match self {
            Self::Sparse { ids, .. } => ids.len(),
            Self::Dense { bits } => bits.count(),
        }
    }

    /// Returns `true` if the subset has no members.
    pub fn is_empty(&self) -> bool {
        match self {
            Self::Sparse { ids, .. } => ids.is_empty(),
            Self::Dense { bits } => bits.count() == 0,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            Self::Sparse { ids, .. } => ids.binary_search(&v).is_ok() || ids.contains(&v),
            Self::Dense { bits } => bits.get(v as usize),
        }
    }

    /// Iterates member ids (ascending for dense; insertion order for
    /// sparse).
    pub fn iter(&self) -> Box<dyn Iterator<Item = VertexId> + '_> {
        match self {
            Self::Sparse { ids, .. } => Box::new(ids.iter().copied()),
            Self::Dense { bits } => Box::new(bits.iter().map(|i| i as VertexId)),
        }
    }

    /// Borrows the id list when the subset is already sparse, letting
    /// hot paths (sparse `edge_map`) skip re-collecting
    /// ids on every call.
    #[inline]
    pub fn sparse_ids(&self) -> Option<&[VertexId]> {
        match self {
            Self::Sparse { ids, .. } => Some(ids),
            Self::Dense { .. } => None,
        }
    }

    /// Materializes the membership bit set without consuming the subset:
    /// borrowed when already dense, built (in parallel for large
    /// frontiers) when sparse.
    pub fn to_dense_bits(&self) -> std::borrow::Cow<'_, AtomicBitSet> {
        match self {
            Self::Dense { bits } => std::borrow::Cow::Borrowed(bits),
            Self::Sparse { n, ids } => {
                let bits = AtomicBitSet::new(*n);
                if ids.len() >= PAR_CONVERT_THRESHOLD {
                    parallel::par_for(0..ids.len(), |i| {
                        bits.set(ids[i] as usize);
                    });
                } else {
                    for &v in ids {
                        bits.set(v as usize);
                    }
                }
                std::borrow::Cow::Owned(bits)
            }
        }
    }

    /// Collects member ids into a sorted vector.
    pub fn to_ids(&self) -> Vec<VertexId> {
        match self {
            // `AtomicBitSet::to_ids` is already ascending (and parallel
            // for large sets) — no extra sort needed.
            Self::Dense { bits } => bits.to_ids(),
            Self::Sparse { ids, .. } => {
                let mut ids = ids.clone();
                ids.sort_unstable();
                ids
            }
        }
    }

    /// Converts to the dense representation (no-op if already dense).
    pub fn into_dense(self) -> Self {
        match self {
            Self::Dense { .. } => self,
            Self::Sparse { n, ids } => {
                let bits = AtomicBitSet::new(n);
                if ids.len() >= PAR_CONVERT_THRESHOLD {
                    parallel::par_for(0..ids.len(), |i| {
                        bits.set(ids[i] as usize);
                    });
                } else {
                    for v in ids {
                        bits.set(v as usize);
                    }
                }
                Self::Dense { bits }
            }
        }
    }

    /// Converts to the sparse representation (no-op if already sparse).
    /// Large dense subsets convert via the blocked parallel
    /// popcount/prefix-sum/scatter in [`AtomicBitSet::to_ids`]; the
    /// resulting id list is ascending either way.
    pub fn into_sparse(self) -> Self {
        match self {
            Self::Sparse { .. } => self,
            Self::Dense { bits } => {
                let n = bits.capacity();
                let ids = bits.to_ids();
                Self::Sparse { n, ids }
            }
        }
    }

    /// Union with another subset over the same universe.
    pub fn union(&self, other: &VertexSubset) -> VertexSubset {
        assert_eq!(self.universe(), other.universe());
        let bits = AtomicBitSet::new(self.universe());
        for v in self.iter() {
            bits.set(v as usize);
        }
        for v in other.iter() {
            bits.set(v as usize);
        }
        Self::Dense { bits }
    }

    /// Sum of out-degrees of member vertices — Ligra's density heuristic
    /// input (`|F| + outdeg(F)` vs `|E| / 20`). Parallel for large
    /// frontiers (word-blocked for dense, id-blocked for sparse).
    pub fn out_degree_sum(&self, g: &GraphSnapshot) -> usize {
        match self {
            Self::Sparse { ids, .. } => {
                if ids.len() >= PAR_CONVERT_THRESHOLD {
                    parallel::par_sum(0..ids.len(), |i| g.out_degree(ids[i]))
                } else {
                    ids.iter().map(|&v| g.out_degree(v)).sum()
                }
            }
            Self::Dense { bits } => {
                if bits.capacity() >= PAR_CONVERT_THRESHOLD {
                    parallel::par_sum(0..bits.num_words(), |wi| {
                        let mut bits_word = bits.word(wi);
                        let mut sum = 0usize;
                        while bits_word != 0 {
                            let v = wi * 64 + bits_word.trailing_zeros() as usize;
                            sum += g.out_degree(v as VertexId);
                            bits_word &= bits_word - 1;
                        }
                        sum
                    })
                } else {
                    self.iter().map(|v| g.out_degree(v)).sum()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_graph::GraphBuilder;

    #[test]
    fn from_ids_dedups() {
        let s = VertexSubset::from_ids(10, vec![3, 1, 3, 7]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(1) && s.contains(3) && s.contains(7));
        assert!(!s.contains(0));
    }

    #[test]
    fn full_contains_everything() {
        let s = VertexSubset::full(100);
        assert_eq!(s.len(), 100);
        assert!(s.contains(99));
    }

    #[test]
    fn dense_sparse_round_trip() {
        let s = VertexSubset::from_ids(64, vec![0, 5, 63]);
        let d = s.clone().into_dense();
        let back = d.into_sparse();
        assert_eq!(back.to_ids(), vec![0, 5, 63]);
    }

    #[test]
    fn union_merges() {
        let a = VertexSubset::from_ids(10, vec![1, 2]);
        let b = VertexSubset::from_ids(10, vec![2, 3]);
        assert_eq!(a.union(&b).to_ids(), vec![1, 2, 3]);
    }

    #[test]
    fn out_degree_sum_counts_frontier_edges() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 2, 1.0)
            .add_edge(1, 2, 1.0)
            .build();
        let s = VertexSubset::from_ids(3, vec![0, 1]);
        assert_eq!(s.out_degree_sum(&g), 3);
    }

    #[test]
    fn from_fn_selects_matching() {
        let s = VertexSubset::from_fn(10, |v| v % 3 == 0);
        assert_eq!(s.to_ids(), vec![0, 3, 6, 9]);
    }
}
