//! Triangle Counting (TC) — Table 4:
//! `⊕ = Σ_{(u,v)} |in_neighbors(u) ∩ out_neighbors(v)|`.
//!
//! TC runs in a single iteration, so it bypasses the iterated-aggregation
//! engine: GraphBolt maintains the count incrementally by evaluating the
//! purely *local* impact of each edge mutation — a directed 3-cycle
//! `u → v → w → u` appears exactly when its last edge arrives and
//! disappears when any of its edges leaves (§5.2: "the impact of edge
//! mutations on TC is always local"). The counter mirrors the paper's
//! memory trade-off (Table 9): it keeps hash-set adjacency alongside the
//! snapshot (≈2× graph memory) to adjust counts without recomputing.

use std::collections::HashSet;

use graphbolt_graph::{GraphSnapshot, MutationBatch, VertexId};

/// Count of directed-3-cycle incidences as the paper's aggregation
/// defines them: `Σ_{(u,v) ∈ E} |in(u) ∩ out(v)|`. Every directed
/// 3-cycle is counted three times (once per edge).
pub fn count_full(g: &GraphSnapshot) -> u64 {
    let mut total = 0u64;
    for u in 0..g.num_vertices() as VertexId {
        for v in g.out_neighbors(u) {
            total += sorted_intersection(g.in_neighbors(u), g.out_neighbors(*v));
        }
    }
    total
}

/// Size of the intersection of two sorted id slices.
fn sorted_intersection(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut count) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Incrementally maintained triangle counter.
///
/// # Examples
///
/// ```
/// use graphbolt_algorithms::TriangleCounter;
/// use graphbolt_graph::{Edge, GraphBuilder, MutationBatch};
///
/// let g = GraphBuilder::new(3)
///     .add_edge(0, 1, 1.0)
///     .add_edge(1, 2, 1.0)
///     .build();
/// let mut tc = TriangleCounter::new(&g);
/// assert_eq!(tc.directed_cycles(), 0);
///
/// let mut batch = MutationBatch::new();
/// batch.add(Edge::unweighted(2, 0)); // closes the 0→1→2→0 cycle
/// tc.apply_batch(&batch);
/// assert_eq!(tc.directed_cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TriangleCounter {
    out: Vec<HashSet<VertexId>>,
    inc: Vec<HashSet<VertexId>>,
    /// Incidence count (each cycle counted three times).
    incidences: u64,
    /// Membership probes performed — the TC analogue of edge
    /// computations (Figure 6 / Table 7).
    probes: u64,
}

impl TriangleCounter {
    /// Builds the counter from a snapshot, computing the initial count.
    pub fn new(g: &GraphSnapshot) -> Self {
        let n = g.num_vertices();
        let mut out = vec![HashSet::new(); n];
        let mut inc = vec![HashSet::new(); n];
        for u in 0..n as VertexId {
            for (v, _) in g.out_edges(u) {
                out[u as usize].insert(v);
                inc[v as usize].insert(u);
            }
        }
        let incidences = count_full(g);
        Self {
            out,
            inc,
            incidences,
            probes: 0,
        }
    }

    /// Current incidence count (`Σ_{(u,v)} |in(u) ∩ out(v)|`).
    pub fn incidences(&self) -> u64 {
        self.incidences
    }

    /// Number of distinct directed 3-cycles.
    pub fn directed_cycles(&self) -> u64 {
        debug_assert_eq!(self.incidences % 3, 0);
        self.incidences / 3
    }

    /// Membership probes performed so far by incremental maintenance.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Number of directed 3-cycles through the (present or prospective)
    /// edge `u → v`: `|{w : v → w ∧ w → u}|`, excluding `(u, v)` itself.
    fn cycles_through(&mut self, u: VertexId, v: VertexId) -> u64 {
        let (ui, vi) = (u as usize, v as usize);
        // Probe over the smaller side.
        let mut count = 0u64;
        if self.out[vi].len() <= self.inc[ui].len() {
            for &w in &self.out[vi] {
                self.probes += 1;
                if self.inc[ui].contains(&w) {
                    count += 1;
                }
            }
        } else {
            for &w in &self.inc[ui] {
                self.probes += 1;
                if self.out[vi].contains(&w) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Applies a mutation batch, adjusting the count incrementally. The
    /// batch must be consistent (additions absent, deletions present) —
    /// apply the same batch to the [`GraphSnapshot`] to keep both in
    /// sync.
    pub fn apply_batch(&mut self, batch: &MutationBatch) {
        // Grow the vertex space as needed.
        if let Some(max) = batch.max_vertex_id() {
            let need = max as usize + 1;
            if need > self.out.len() {
                self.out.resize_with(need, HashSet::new);
                self.inc.resize_with(need, HashSet::new);
            }
        }
        // Sequential edge-at-a-time semantics: a cycle is counted when its
        // last edge arrives and discounted when its first edge leaves, so
        // intra-batch combinations resolve exactly.
        for e in batch.deletions() {
            let removed = self.out[e.src as usize].remove(&e.dst);
            debug_assert!(removed, "deleting absent edge ({}, {})", e.src, e.dst);
            self.inc[e.dst as usize].remove(&e.src);
            // Each destroyed cycle loses 3 incidences.
            let cycles = self.cycles_through(e.src, e.dst);
            self.incidences -= 3 * cycles;
        }
        for e in batch.additions() {
            let cycles = self.cycles_through(e.src, e.dst);
            self.incidences += 3 * cycles;
            let inserted = self.out[e.src as usize].insert(e.dst);
            debug_assert!(inserted, "adding duplicate edge ({}, {})", e.src, e.dst);
            self.inc[e.dst as usize].insert(e.src);
        }
    }

    /// Estimated bytes of the duplicated adjacency structure — TC's
    /// dependency-memory overhead (Table 9).
    pub fn memory_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<VertexId>() * 2; // id + hash overhead (amortized)
        let entries: usize = self.out.iter().map(HashSet::len).sum::<usize>()
            + self.inc.iter().map(HashSet::len).sum::<usize>();
        let spine =
            (self.out.capacity() + self.inc.capacity()) * std::mem::size_of::<HashSet<VertexId>>();
        spine + entries * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_graph::{Edge, GraphBuilder};

    fn two_cycles() -> GraphSnapshot {
        // Cycles 0→1→2→0 and 1→2→3→1.
        GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 0, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 1, 1.0)
            .build()
    }

    #[test]
    fn full_count_finds_directed_cycles() {
        let g = two_cycles();
        assert_eq!(count_full(&g), 6); // 2 cycles × 3 incidences
        let tc = TriangleCounter::new(&g);
        assert_eq!(tc.directed_cycles(), 2);
    }

    #[test]
    fn addition_closes_cycles() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .build();
        let mut tc = TriangleCounter::new(&g);
        let mut batch = MutationBatch::new();
        batch.add(Edge::unweighted(2, 0));
        tc.apply_batch(&batch);
        let g2 = g.apply(&batch).unwrap();
        assert_eq!(tc.incidences(), count_full(&g2));
    }

    #[test]
    fn deletion_destroys_cycles() {
        let g = two_cycles();
        let mut tc = TriangleCounter::new(&g);
        let mut batch = MutationBatch::new();
        batch.delete(Edge::unweighted(1, 2)); // shared edge: kills both cycles
        tc.apply_batch(&batch);
        assert_eq!(tc.directed_cycles(), 0);
        let g2 = g.apply(&batch).unwrap();
        assert_eq!(tc.incidences(), count_full(&g2));
    }

    #[test]
    fn mixed_batch_matches_recount() {
        let g = two_cycles();
        let mut tc = TriangleCounter::new(&g);
        let mut batch = MutationBatch::new();
        batch
            .add(Edge::unweighted(0, 2))
            .add(Edge::unweighted(3, 0))
            .delete(Edge::unweighted(2, 0));
        tc.apply_batch(&batch);
        let g2 = g.apply(&batch).unwrap();
        assert_eq!(tc.incidences(), count_full(&g2));
    }

    #[test]
    fn sequential_batches_stay_in_sync() {
        let mut g = two_cycles();
        let mut tc = TriangleCounter::new(&g);
        let steps = [
            (Some(Edge::unweighted(0, 3)), None),
            (Some(Edge::unweighted(3, 2)), Some(Edge::unweighted(2, 3))),
            (None, Some(Edge::unweighted(0, 1))),
        ];
        for (add, del) in steps {
            let mut batch = MutationBatch::new();
            if let Some(e) = add {
                batch.add(e);
            }
            if let Some(e) = del {
                batch.delete(e);
            }
            tc.apply_batch(&batch);
            g = g.apply(&batch).unwrap();
            assert_eq!(tc.incidences(), count_full(&g));
        }
    }

    #[test]
    fn vertex_growth_in_batch() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let mut tc = TriangleCounter::new(&g);
        let mut batch = MutationBatch::new();
        batch
            .add(Edge::unweighted(1, 5))
            .add(Edge::unweighted(5, 0));
        tc.apply_batch(&batch);
        let g2 = g.apply(&batch).unwrap();
        assert_eq!(tc.incidences(), count_full(&g2));
        assert_eq!(tc.directed_cycles(), 1);
    }

    #[test]
    fn probes_are_counted() {
        let g = two_cycles();
        let mut tc = TriangleCounter::new(&g);
        assert_eq!(tc.probes(), 0);
        let mut batch = MutationBatch::new();
        batch.add(Edge::unweighted(0, 3));
        tc.apply_batch(&batch);
        assert!(tc.probes() > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(30))]
        #[test]
        fn incremental_always_matches_recount(seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(4..15usize);
            let mut edges = Vec::new();
            for u in 0..n as VertexId {
                for v in 0..n as VertexId {
                    if u != v && rng.gen_bool(0.3) {
                        edges.push(Edge::unweighted(u, v));
                    }
                }
            }
            let mut g = GraphSnapshot::from_edges(n, &edges);
            let mut tc = TriangleCounter::new(&g);
            for _ in 0..4 {
                let mut batch = MutationBatch::new();
                for _ in 0..rng.gen_range(1..5) {
                    let u = rng.gen_range(0..n) as VertexId;
                    let v = rng.gen_range(0..n) as VertexId;
                    if u == v { continue; }
                    if g.has_edge(u, v) {
                        batch.delete(Edge::unweighted(u, v));
                    } else {
                        batch.add(Edge::unweighted(u, v));
                    }
                }
                let batch = batch.normalize_against(&g);
                if batch.is_empty() { continue; }
                tc.apply_batch(&batch);
                g = g.apply(&batch).unwrap();
                proptest::prop_assert_eq!(tc.incidences(), count_full(&g));
            }
        }
    }
}
