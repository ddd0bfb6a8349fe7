//! Semi-supervised label propagation over a streaming social graph.
//!
//! Scenario from the paper's motivation: a social network where a handful
//! of accounts have known labels (e.g. verified communities) and the rest
//! are classified by propagating labels over the evolving follow graph.
//! Each mutation batch (new follows / unfollows) is incorporated by
//! dependency-driven refinement; the label assignment always reflects the
//! latest snapshot under BSP semantics.
//!
//! ```text
//! cargo run --release --example streaming_label_propagation
//! ```

use graphbolt::algorithms::LabelPropagation;
use graphbolt::graph::generators::{rmat, RmatConfig};
use graphbolt::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const LABELS: usize = 3;

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    // A skewed "follow graph": 2048 accounts, ~12k weighted follows.
    let edges = rmat(&RmatConfig::new(11, 6), &mut rng);

    // Stream methodology: load half, stream the rest with 10% unfollows.
    let stream_cfg = StreamConfig::default();
    let mut stream = MutationStream::new(edges, stream_cfg);
    let graph = stream.initial_snapshot();
    let n = graph.num_vertices();
    println!(
        "loaded {} accounts, {} follows; {} follows pending in the stream",
        n,
        graph.num_edges(),
        stream.pending_additions()
    );

    // Every 40th account has a known community label.
    let lp = LabelPropagation::with_synthetic_seeds(LABELS, n, 40);
    let mut engine = StreamingEngine::new(graph, lp, EngineOptions::with_iterations(10));
    engine.run_initial();
    report_communities("initial", engine.values());

    // Process five batches of 200 mutations each.
    for round in 1..=5 {
        let Some(batch) = stream.next_batch(engine.graph(), 200) else {
            println!("stream exhausted");
            break;
        };
        let report = engine.apply_batch(&batch).expect("stream batch validates");
        println!(
            "batch {round}: {} adds / {} deletes → {} vertices refined, {} label vectors changed, {:?}",
            batch.additions().len(),
            batch.deletions().len(),
            report.refined_vertices,
            report.changed_final_values,
            report.duration,
        );
        report_communities(&format!("after batch {round}"), engine.values());
    }
}

fn report_communities(label: &str, values: &[Vec<f64>]) {
    let mut counts = [0usize; LABELS];
    let mut undecided = 0usize;
    for dist in values {
        let best = LabelPropagation::argmax(dist);
        // "Undecided": nearly uniform distribution.
        let spread = dist.iter().cloned().fold(f64::MIN, f64::max)
            - dist.iter().cloned().fold(f64::MAX, f64::min);
        if spread < 1e-6 {
            undecided += 1;
        } else {
            counts[best] += 1;
        }
    }
    println!(
        "  {label}: community sizes {:?}, undecided {}",
        counts, undecided
    );
}
