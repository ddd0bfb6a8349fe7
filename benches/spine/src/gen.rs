//! Seeded input generation: the initial graph and a collision-free
//! mutation stream.
//!
//! Every `(src, dst)` key is touched **at most once** per run: additions
//! come from the half of the R-MAT edge list the initial graph does not
//! hold, deletions from a shuffle of the half it does. The reason is a
//! product defect this benchmark must not depend on: session coalescing
//! is not order-preserving. An add and a later delete of the same edge
//! that land in one coalesced `MutationBatch` lose their order, and
//! `normalize_against` then drops the delete — a replay of
//! `MutationStream` lost 39 of 20 150 mutations that way, leaving the
//! final edge count off by 39. With each key touched once the final
//! graph is the same however the session coalesces, so the oracle can
//! compare against a reference built here. The defect itself belongs to
//! ROADMAP item 6.

use std::collections::HashSet;

use graphbolt_graph::generators::{rmat, RmatConfig};
use graphbolt_graph::{Edge, MutationBatch, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Edges sampled per vertex before de-duplication.
const EDGE_FACTOR: usize = 8;
/// Every second mutation is a deletion, so the graph keeps its size for
/// the whole run. With fewer deletions the graph grows by half over a
/// `bulk` run and every latency drifts upward with it: percentiles then
/// report how far the run got, not how the system behaves.
const DELETE_EVERY: usize = 2;

/// One edge mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mutation {
    /// The edge added or deleted.
    pub edge: Edge,
    /// `true` for an addition.
    pub add: bool,
}

/// Everything a run needs, derived from `(scale, seed)` alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Vertex count, `2^scale`. Vertex `n - 1` has an edge in the
    /// initial graph, so the child derives the same count from the file.
    pub n: usize,
    /// The graph every workload starts on.
    pub initial: Vec<Edge>,
    /// The mutation stream; workloads consume it front to back.
    pub mutations: Vec<Mutation>,
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Generates the common input `rmat-<scale>`.
///
/// Vertex 0 is relabelled to be the initial graph's highest-out-degree
/// vertex, so `gbolt sssp --source 0` reaches a large part of the graph
/// and singleton updates really change distances.
pub fn input(scale: u32, seed: u64) -> Input {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = rmat(&RmatConfig::new(scale, EDGE_FACTOR), &mut rng);
    shuffle(&mut edges, &mut rng);
    let n = 1usize << scale;
    let half = edges.len() / 2;

    let mut out_degree = vec![0u32; n];
    for e in &edges[..half] {
        out_degree[e.src as usize] += 1;
    }
    let hub = (0..n as VertexId)
        .max_by_key(|&v| (out_degree[v as usize], std::cmp::Reverse(v)))
        .unwrap_or(0);
    relabel(&mut edges, hub, 0);
    let last = (n - 1) as VertexId;
    if let Some(pin) = edges[..half]
        .iter()
        .flat_map(|e| [e.src, e.dst])
        .find(|&v| v != 0)
    {
        relabel(&mut edges, pin, last);
    }

    let pool = edges.split_off(half);
    let mut victims = edges.clone();
    shuffle(&mut victims, &mut rng);
    let mut adds = pool.into_iter();
    let mut deletes = victims.into_iter();
    let mut mutations = Vec::new();
    loop {
        let next = if mutations.len() % DELETE_EVERY == DELETE_EVERY - 1 {
            deletes.next().map(|edge| Mutation { edge, add: false })
        } else {
            adds.next().map(|edge| Mutation { edge, add: true })
        };
        match next {
            Some(m) => mutations.push(m),
            None => break,
        }
    }
    Input {
        n,
        initial: edges,
        mutations,
    }
}

/// Swaps the labels `a` and `b` in every edge.
fn relabel(edges: &mut [Edge], a: VertexId, b: VertexId) {
    let swap = |v: VertexId| {
        if v == a {
            b
        } else if v == b {
            a
        } else {
            v
        }
    };
    for e in edges {
        e.src = swap(e.src);
        e.dst = swap(e.dst);
    }
}

/// The mutations as one engine batch.
pub fn batch(mutations: &[Mutation]) -> MutationBatch {
    let edges = |add: bool| {
        mutations
            .iter()
            .filter(|m| m.add == add)
            .map(|m| m.edge)
            .collect()
    };
    MutationBatch::from_parts(edges(true), edges(false))
}

impl Input {
    /// The edge list after the first `applied` mutations — the oracle's
    /// reference graph. Correct only because no key is touched twice.
    pub fn edges_after(&self, applied: usize) -> Vec<Edge> {
        let done = &self.mutations[..applied];
        let deleted: HashSet<(VertexId, VertexId)> = done
            .iter()
            .filter(|m| !m.add)
            .map(|m| m.edge.endpoints())
            .collect();
        self.initial
            .iter()
            .filter(|e| !deleted.contains(&e.endpoints()))
            .chain(done.iter().filter(|m| m.add).map(|m| &m.edge))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_other_seed_differs() {
        let a = input(10, 7);
        assert_eq!(a, input(10, 7));
        assert_ne!(a.initial, input(10, 8).initial);
    }

    #[test]
    fn every_edge_key_is_touched_at_most_once() {
        let inp = input(10, 3);
        let mut seen = HashSet::new();
        for m in &inp.mutations {
            assert!(seen.insert(m.edge.endpoints()), "{m:?} touched twice");
        }
        let initial: HashSet<_> = inp.initial.iter().map(|e| e.endpoints()).collect();
        assert_eq!(initial.len(), inp.initial.len());
        for m in &inp.mutations {
            assert_eq!(initial.contains(&m.edge.endpoints()), !m.add, "{m:?}");
        }
        let deletions = inp.mutations.iter().filter(|m| !m.add).count();
        assert_eq!(deletions, inp.mutations.len() / DELETE_EVERY);
    }

    #[test]
    fn vertex_count_is_pinned_and_source_zero_is_the_hub() {
        let inp = input(10, 5);
        assert_eq!(
            graphbolt_graph::generators::vertex_count(&inp.initial),
            inp.n
        );
        let degree = |v| inp.initial.iter().filter(|e| e.src == v).count();
        let max = (0..inp.n as VertexId).map(degree).max().unwrap();
        assert_eq!(degree(0), max);
    }

    #[test]
    fn reference_edges_follow_the_stream() {
        let inp = input(10, 9);
        let k = 500;
        let after = inp.edges_after(k);
        let adds = inp.mutations[..k].iter().filter(|m| m.add).count();
        assert_eq!(after.len(), inp.initial.len() + adds - (k - adds));
        let b = batch(&inp.mutations[..k]);
        assert_eq!(b.additions().len(), adds);
        assert_eq!(b.len(), k);
    }
}
