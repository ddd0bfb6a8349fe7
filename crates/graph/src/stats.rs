//! Structural statistics of graph snapshots.
//!
//! `gbolt` prints them as its dataset summary (the evaluation's claims
//! hinge on degree skew and stabilization, both functions of structure).

use crate::snapshot::GraphSnapshot;
use crate::types::VertexId;

/// Summary statistics of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Vertices with no incident edges at all.
    pub isolated: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Mean out-degree over all vertices.
    pub mean_degree: f64,
    /// Share of all edges held by the top 1% of vertices by out-degree
    /// (≥ ~0.01 for uniform graphs; ≫ 0.01 for skewed ones).
    pub top1pct_share: f64,
}

/// Computes summary statistics.
pub fn stats(g: &GraphSnapshot) -> GraphStats {
    let n = g.num_vertices();
    let mut out: Vec<usize> = (0..n as VertexId).map(|v| g.out_degree(v)).collect();
    let isolated = (0..n as VertexId)
        .filter(|&v| g.out_degree(v) == 0 && g.in_degree(v) == 0)
        .count();
    let max_out = out.iter().copied().max().unwrap_or(0);
    let max_in = (0..n as VertexId)
        .map(|v| g.in_degree(v))
        .max()
        .unwrap_or(0);
    out.sort_unstable_by(|a, b| b.cmp(a));
    let top = (n / 100).max(1);
    let top_sum: usize = out.iter().take(top).sum();
    GraphStats {
        vertices: n,
        edges: g.num_edges(),
        isolated,
        max_out_degree: max_out,
        max_in_degree: max_in,
        mean_degree: if n == 0 {
            0.0
        } else {
            g.num_edges() as f64 / n as f64
        },
        top1pct_share: if g.num_edges() == 0 {
            0.0
        } else {
            top_sum as f64 / g.num_edges() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::rmat::{rmat, RmatConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn stats_on_small_graph() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 2, 1.0)
            .add_edge(1, 2, 1.0)
            .build();
        let s = stats(&g);
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.isolated, 1);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert!((s.mean_degree - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rmat_shows_skew_in_stats() {
        let mut rng = SmallRng::seed_from_u64(3);
        let edges = rmat(&RmatConfig::new(10, 8), &mut rng);
        let n = crate::generators::vertex_count(&edges);
        let g = GraphSnapshot::from_edges(n, &edges);
        let s = stats(&g);
        assert!(
            s.top1pct_share > 0.05,
            "R-MAT top-1% share {} not skewed",
            s.top1pct_share
        );
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = GraphSnapshot::empty(0);
        let s = stats(&g);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.top1pct_share, 0.0);
    }
}
