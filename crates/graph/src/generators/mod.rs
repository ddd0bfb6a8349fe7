//! Synthetic graph generators.
//!
//! The paper evaluates on six real-world web/social graphs (Wiki,
//! UKDomain, Twitter, TwitterMPI, Friendster, Yahoo). Those datasets are
//! multi-billion-edge and unavailable here, so the harness substitutes
//! synthetic graphs whose *degree structure* drives the same engine
//! behaviours:
//!
//! * [`rmat()`] — recursive-matrix graphs with the standard skewed
//!   parameters; reproduces the heavy-tailed degree distribution that
//!   makes vertex values stabilize across iterations (Figure 4 of the
//!   paper), which is what pruning and incremental reuse exploit.
//! * [`erdos_renyi()`] — uniform random graphs, the non-skewed control.
//! * [`grid()`] / [`watts_strogatz()`] — high-diameter and small-world
//!   contrasts for `repro structure`.

pub mod erdos_renyi;
pub mod rmat;
pub mod small_world;

pub use erdos_renyi::erdos_renyi;
pub use rmat::{rmat, RmatConfig};
pub use small_world::{grid, watts_strogatz};

use crate::types::{Edge, VertexId};
use rand::Rng;

/// Assigns uniform random weights in `(0, 1]` to a set of edges, in place.
/// Several algorithms (LP, CoEM, CF, SSSP) require weighted inputs.
pub fn randomize_weights<R: Rng>(edges: &mut [Edge], rng: &mut R) {
    for e in edges.iter_mut() {
        e.weight = rng.gen_range(0.05..=1.0);
    }
}

/// Deduplicates edges by endpoint pair, keeping the first occurrence,
/// and drops self-loops. Generators over-sample and then call this.
pub fn simplify(edges: Vec<Edge>) -> Vec<Edge> {
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    edges
        .into_iter()
        .filter(|e| e.src != e.dst && seen.insert((e.src, e.dst)))
        .collect()
}

/// Largest vertex id + 1 appearing in `edges` (0 when empty).
pub fn vertex_count(edges: &[Edge]) -> usize {
    edges
        .iter()
        .map(|e| e.src.max(e.dst) as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Relabels vertices with a random permutation so that vertex id carries
/// no structural information (R-MAT otherwise correlates id with degree).
pub fn shuffle_labels<R: Rng>(edges: &mut [Edge], n: usize, rng: &mut R) {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    for e in edges.iter_mut() {
        e.src = perm[e.src as usize];
        e.dst = perm[e.dst as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn simplify_removes_self_loops_and_duplicates() {
        let edges = vec![
            Edge::unweighted(0, 0),
            Edge::unweighted(0, 1),
            Edge::new(0, 1, 5.0),
            Edge::unweighted(1, 0),
        ];
        let out = simplify(edges);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn randomize_weights_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut edges = vec![Edge::unweighted(0, 1); 100];
        randomize_weights(&mut edges, &mut rng);
        assert!(edges.iter().all(|e| e.weight > 0.0 && e.weight <= 1.0));
    }

    #[test]
    fn shuffle_labels_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut edges: Vec<Edge> = (0..9).map(|i| Edge::unweighted(i, (i + 1) % 10)).collect();
        shuffle_labels(&mut edges, 10, &mut rng);
        // Still a single cycle over 10 vertices: every vertex has
        // out-degree <= 1 and the edge count is preserved.
        assert_eq!(edges.len(), 9);
        assert!(edges.iter().all(|e| e.src < 10 && e.dst < 10));
        let distinct: std::collections::HashSet<_> = edges.iter().map(|e| e.src).collect();
        assert_eq!(distinct.len(), 9);
    }
}
