//! Fundamental identifier and edge types shared across the workspace.

/// Identifier of a vertex.
///
/// `u32` comfortably addresses the billion-vertex range used in the paper's
/// evaluation while halving index memory relative to `usize` on 64-bit
/// machines, which matters because the dependency store keeps per-vertex
/// per-iteration state.
pub type VertexId = u32;

/// Edge weight. All algorithms in the paper use real-valued weights
/// (ratings for collaborative filtering, affinities for label propagation).
pub type Weight = f64;

/// A directed, weighted edge `(src → dst, weight)`.
///
/// Equality and hashing consider only the endpoints, not the weight: a
/// mutation that deletes `(u, v)` removes the edge regardless of its
/// weight, matching the paper's edge-mutation semantics.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Weight carried on the edge.
    pub weight: Weight,
}

impl Edge {
    /// Creates a new directed edge.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphbolt_graph::Edge;
    /// let e = Edge::new(3, 7, 0.5);
    /// assert_eq!((e.src, e.dst), (3, 7));
    /// ```
    #[inline]
    pub fn new(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Self { src, dst, weight }
    }

    /// Creates an edge with the default weight `1.0`.
    #[inline]
    pub fn unweighted(src: VertexId, dst: VertexId) -> Self {
        Self::new(src, dst, 1.0)
    }

    /// Returns the edge with endpoints swapped (used to mirror a CSR edge
    /// into the CSC index).
    #[inline]
    pub fn reversed(self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }

    /// Returns the `(src, dst)` endpoint pair.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        (self.src, self.dst)
    }
}

impl PartialEq for Edge {
    fn eq(&self, other: &Self) -> bool {
        self.src == other.src && self.dst == other.dst
    }
}

impl Eq for Edge {}

impl std::hash::Hash for Edge {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.src.hash(state);
        self.dst.hash(state);
    }
}

impl PartialOrd for Edge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Edge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.src, self.dst).cmp(&(other.src, other.dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn edge_equality_ignores_weight() {
        assert_eq!(Edge::new(1, 2, 0.5), Edge::new(1, 2, 9.0));
        assert_ne!(Edge::new(1, 2, 0.5), Edge::new(2, 1, 0.5));
    }

    #[test]
    fn edge_hash_consistent_with_eq() {
        let mut set = HashSet::new();
        set.insert(Edge::new(1, 2, 0.5));
        assert!(set.contains(&Edge::new(1, 2, 123.0)));
        assert!(!set.contains(&Edge::new(2, 1, 0.5)));
    }

    #[test]
    fn edge_reversed_swaps_endpoints() {
        let e = Edge::new(4, 9, 2.5);
        let r = e.reversed();
        assert_eq!((r.src, r.dst), (9, 4));
        assert_eq!(r.weight, 2.5);
    }

    #[test]
    fn edge_ordering_is_lexicographic_on_endpoints() {
        let mut edges = [
            Edge::new(2, 0, 1.0),
            Edge::new(0, 5, 1.0),
            Edge::new(0, 1, 1.0),
        ];
        edges.sort();
        assert_eq!(edges[0].endpoints(), (0, 1));
        assert_eq!(edges[1].endpoints(), (0, 5));
        assert_eq!(edges[2].endpoints(), (2, 0));
    }
}
