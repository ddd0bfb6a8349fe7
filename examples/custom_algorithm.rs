//! Implementing your own streaming algorithm: HITS hubs & authorities.
//!
//! The paper's generalized incremental programming model (§3.3) means a
//! new analytics kernel only defines its aggregation (`⊕`), retraction
//! (`⋃-`), and vertex function (`∮`) — dependency tracking, refinement,
//! pruning and hybrid execution come from the engine. This example
//! implements a synchronous HITS variant *outside* the library, on the
//! public `Algorithm` trait, streams mutations through it, and
//! cross-checks refined results against from-scratch runs. Its sums are
//! decomposable (`type Kind = Sum`), so it also implements `Decomposable`.
//!
//! HITS per iteration (normalized at each step):
//!   authority(v) = Σ_{u → v} hub(u)
//!   hub(v)       = Σ_{v → w} authority(w)      (an in-edge sum on the
//!                                               reversed edge direction)
//!
//! To fit the one-direction aggregation model, the vertex value is the
//! pair `[hub, authority]` and each edge `(u, v)` carries `hub(u)`
//! forward while the *reverse* orientation is expressed by symmetrizing
//! the input with tagged weights — the same modelling trick BP-style
//! algorithms use for undirected inputs.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use graphbolt::core::{run_bsp, Decomposable, EngineStats, ExecutionMode, Refining, Sum};
use graphbolt::graph::generators::{rmat, RmatConfig};
use graphbolt::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Edge tag: weight 1.0 marks a forward (original) edge, 2.0 its mirror.
const FORWARD: f64 = 1.0;
const MIRROR: f64 = 2.0;

/// Synchronous HITS on the GraphBolt incremental model.
#[derive(Debug, Clone)]
struct Hits {
    tolerance: f64,
}

impl Algorithm for Hits {
    /// `[hub, authority]`.
    type Value = Vec<f64>;
    /// `[Σ mirror-edge authority contributions, Σ forward-edge hub
    /// contributions]`.
    type Agg = Vec<f64>;
    type Kind = Sum;

    fn initial_value(&self, _v: VertexId) -> Vec<f64> {
        vec![1.0, 1.0]
    }

    fn identity(&self) -> Vec<f64> {
        vec![0.0, 0.0]
    }

    fn contribution(
        &self,
        g: &GraphSnapshot,
        u: VertexId,
        _v: VertexId,
        w: Weight,
        cu: &Vec<f64>,
    ) -> Vec<f64> {
        // Degree-normalized variant: keeps scores bounded (plain HITS
        // normalizes globally per iteration, which a per-vertex ∮ cannot
        // see).
        let d = g.out_degree(u).max(1) as f64;
        if w == FORWARD {
            // u → v in the original graph: u's hub score feeds v's
            // authority.
            vec![0.0, cu[0] / d]
        } else {
            // Mirror of v → u: u's authority feeds v's hub score.
            vec![cu[1] / d, 0.0]
        }
    }

    fn combine(&self, agg: &mut Vec<f64>, c: &Vec<f64>) {
        agg[0] += c[0];
        agg[1] += c[1];
    }

    fn compute(&self, _v: VertexId, agg: &Vec<f64>, _g: &GraphSnapshot) -> Vec<f64> {
        const DAMP: f64 = 0.85;
        vec![0.15 + DAMP * agg[0], 0.15 + DAMP * agg[1]]
    }

    fn source_structure_dependent(&self) -> bool {
        // Contributions divide by the source's out-degree, so refinement
        // must re-derive a mutated source's surviving contributions.
        true
    }

    fn changed(&self, old: &Vec<f64>, new: &Vec<f64>) -> bool {
        old.iter()
            .zip(new)
            .any(|(a, b)| (a - b).abs() > self.tolerance)
    }
}

impl Decomposable for Hits {
    fn retract(&self, _: Refining, agg: &mut Vec<f64>, c: &Vec<f64>) {
        agg[0] -= c[0];
        agg[1] -= c[1];
    }

    fn delta(
        &self,
        _: Refining,
        g: &GraphSnapshot,
        u: VertexId,
        v: VertexId,
        w: Weight,
        old: &Vec<f64>,
        new: &Vec<f64>,
    ) -> Option<Vec<f64>> {
        let oc = self.contribution(g, u, v, w, old);
        let nc = self.contribution(g, u, v, w, new);
        Some(vec![nc[0] - oc[0], nc[1] - oc[1]])
    }
}

/// Symmetrizes an edge list with direction tags.
fn tagged(edges: &[Edge]) -> Vec<Edge> {
    let mut out = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        out.push(Edge::new(e.src, e.dst, FORWARD));
        out.push(Edge::new(e.dst, e.src, MIRROR));
    }
    out
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(71);
    // A citation-style graph: 2048 papers, skewed (R-MAT) references.
    let cfg = RmatConfig::new(11, 4);
    let papers = cfg.num_vertices() as u32;
    let graph = GraphSnapshot::from_edges(cfg.num_vertices(), &tagged(&rmat(&cfg, &mut rng)));
    println!(
        "citation graph: {} papers, {} references",
        graph.num_vertices(),
        graph.num_edges() / 2
    );

    let hits = Hits { tolerance: 1e-9 };
    let opts = EngineOptions::with_iterations(12);
    let mut engine = StreamingEngine::new(graph, hits.clone(), opts);
    engine.run_initial();
    report(engine.values());

    // Stream three rounds of new citations.
    for round in 1..=3 {
        let mut batch = MutationBatch::new();
        for _ in 0..40 {
            let u = rng.gen_range(0..papers);
            let v = rng.gen_range(0..papers);
            if u != v && !engine.graph().has_edge(u, v) && !engine.graph().has_edge(v, u) {
                batch.add(Edge::new(u, v, FORWARD));
                batch.add(Edge::new(v, u, MIRROR));
            }
        }
        let batch = batch.normalize_against(engine.graph());
        let r = engine.apply_batch(&batch).expect("normalized batch");
        println!(
            "\nround {round}: {} new citations, {} vertices refined in {:?}",
            batch.len() / 2,
            r.refined_vertices,
            r.duration
        );
        report(engine.values());

        // The engine guarantees BSP equivalence for *custom* algorithms
        // too — verify against a from-scratch run.
        let scratch = run_bsp(
            &hits,
            engine.graph(),
            &opts,
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        let max_err = engine
            .values()
            .iter()
            .zip(&scratch.vals)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
            .fold(0.0, f64::max);
        println!("  max |refined − from-scratch| = {max_err:.2e}");
        assert!(max_err < 1e-6);
    }
}

fn report(values: &[Vec<f64>]) {
    let top = |idx: usize| -> Vec<usize> {
        let mut ranked: Vec<(usize, f64)> = values.iter().map(|v| v[idx]).enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        ranked.into_iter().take(3).map(|(v, _)| v).collect()
    };
    println!("  top hubs: {:?}  top authorities: {:?}", top(0), top(1));
}
