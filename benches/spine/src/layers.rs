//! The traced run: per-layer numbers measured from outside, by timing
//! calls into public functions, and a *layer ladder* that reconciles
//! them with the end-to-end figure.
//!
//! The ladder replays the first ops of `interactive` and `bulk` once per
//! level — L0 `GraphSnapshot::apply_arc`, L2 `StreamingEngine::
//! apply_batch`, L3 `StreamSession` write + `query` in-process, and the
//! real thing over loopback — with a span around every call. A layer's
//! self time is its level minus the level below; the front door's is
//! measured on its own (ack + idle query − the in-process session hop)
//! rather than as the residue, so `unexplained_share` = 1 − Σself/e2e is
//! a real check and not an identity.
//!
//! The traced run is the same whichever `--workload` it is asked for:
//! every per-layer metric is measured every time.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use graphbolt_algorithms::PageRank;
use graphbolt_core::telemetry::TraceCtx;
use graphbolt_core::{
    run_bsp, AdmissionConfig, AdmissionController, Algorithm, BucketConfig, Checkpoint,
    ClientClass, EngineStats, ExecutionMode, F64Codec, StreamSession, StreamingEngine,
};
use graphbolt_engine::parallel::WorkCounter;
use graphbolt_engine::{edge_map, EdgeMapOptions, VertexSubset};
use graphbolt_graph::{GraphSnapshot, VertexId};

use crate::gen::{self, Input, Mutation};
use crate::http;
use crate::json;
use crate::stats::{median, ms, percentile, quiet_median};
use crate::trace::Recorder;
use crate::workloads::{
    self, drive_closed, drive_mixed, engine_options, engine_pass, initial_engine, probe_vertex,
    spawn_on, ClosedLoop, Ctx, Metric, Outcome, BULK_BATCH,
};

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Times calls into each layer's public functions on the common input,
/// PageRank where an algorithm is needed. Returns the idle in-process
/// session hop in milliseconds, which the ladder subtracts.
fn layer_benches(input: &Input, out: &mut Vec<Metric>) -> f64 {
    let alg = PageRank::default();
    let opts = engine_options();
    let n = input.n;

    // graph
    out.push(Metric::new(
        "graph.from_edges_ms",
        median_ms(5, || GraphSnapshot::from_edges(n, &input.initial)),
        "ms",
    ));
    let g = GraphSnapshot::from_edges(n, &input.initial);
    out.push(Metric::new("graph.bytes", g.memory_bytes() as f64, "B"));
    // (label, batch size, repetitions). The sizes the labels name fit the
    // sized input; a smoke input's short stream scales them down.
    let stream_len = input.mutations.len();
    let sizes = [
        ("b1", 1usize, 20usize),
        ("b1000", BULK_BATCH.min(stream_len / 64), 10),
        ("b10000", 10_000.min(stream_len / 16), 4),
    ];
    let mut graph_apply = Vec::new();
    for (label, size, reps) in sizes {
        let mut chunks = input.mutations.chunks_exact(size);
        let took = median_ms(reps, || {
            let batch = gen::batch(chunks.next().expect("stream outlasts the layer benches"));
            g.apply_arc(&batch)
                .expect("collision-free mutations always validate")
        });
        out.push(Metric::new(format!("graph.apply_ms_{label}"), took, "ms"));
        graph_apply.push(took);
    }

    // engine: edge_map over the full frontier (dense) and a 1 % one (sparse)
    let traverse = |frontier: &VertexSubset, mode: EdgeMapOptions| {
        let work = WorkCounter::new();
        let t = Instant::now();
        let next = edge_map(
            &g,
            frontier,
            |u, v, _w| (u ^ v) & 1 == 0,
            |_| true,
            mode,
            &work,
        );
        std::hint::black_box(next.len());
        work.get() as f64 / t.elapsed().as_secs_f64() / 1e6
    };
    let full = VertexSubset::full(n);
    let one_percent = VertexSubset::from_ids(n, (0..n as VertexId).step_by(100).collect());
    let dense: Vec<f64> = (0..5)
        .map(|_| traverse(&full, EdgeMapOptions::dense()))
        .collect();
    let sparse: Vec<f64> = (0..20)
        .map(|_| traverse(&one_percent, EdgeMapOptions::sparse()))
        .collect();
    out.push(Metric::new(
        "engine.edge_map_dense_medges_per_s",
        median(&dense),
        "Medges/s",
    ));
    out.push(Metric::new(
        "engine.edge_map_sparse_medges_per_s",
        median(&sparse),
        "Medges/s",
    ));

    // bsp
    let initial_ms = {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let mut e = StreamingEngine::new(g.clone(), alg.clone(), opts);
                let t = Instant::now();
                e.run_initial();
                ms(t.elapsed())
            })
            .collect();
        median(&times)
    };
    out.push(Metric::new("bsp.initial_ms", initial_ms, "ms"));
    let scratch_ms = median_ms(5, || {
        run_bsp(&alg, &g, &opts, ExecutionMode::Full, &EngineStats::new())
    });
    out.push(Metric::new("bsp.scratch_ms", scratch_ms, "ms"));

    // streaming + refine + store
    let mut engine = StreamingEngine::new(g, alg.clone(), opts);
    engine.run_initial();
    out.push(Metric::new(
        "store.bytes",
        engine.dependency_memory_bytes() as f64,
        "B",
    ));
    out.push(Metric::new(
        "store.entries",
        engine.stored_aggregations() as f64,
        "count",
    ));
    let mut stream = input.mutations.as_slice();
    for ((label, size, reps), graph_ms) in sizes.into_iter().zip(graph_apply) {
        let (mut wall, mut publish, mut edge_work, mut refined) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let (now, rest) = stream.split_at(size);
            stream = rest;
            let batch = gen::batch(now);
            let t = Instant::now();
            let report = engine
                .apply_batch(&batch)
                .expect("collision-free mutations always validate");
            let took = t.elapsed();
            wall.push(ms(took));
            publish.push(ms(took.saturating_sub(report.duration)));
            edge_work.push(report.edge_computations as f64);
            refined.push(report.refined_vertices as f64);
        }
        let apply_ms = median(&wall);
        out.push(Metric::new(
            format!("streaming.apply_ms_{label}"),
            apply_ms,
            "ms",
        ));
        out.push(Metric::new(
            format!("refine.ms_{label}"),
            apply_ms - graph_ms,
            "ms",
        ));
        match label {
            "b1" => {
                out.push(Metric::new(
                    "streaming.publish_ms_b1",
                    median(&publish),
                    "ms",
                ));
                out.push(Metric::new(
                    "refine.refined_vertices_b1",
                    median(&refined),
                    "count",
                ));
            }
            "b1000" => {
                out.push(Metric::new(
                    "streaming.speedup_b1000",
                    scratch_ms / apply_ms,
                    "x",
                ));
                out.push(Metric::new(
                    "refine.edge_computations_b1000",
                    median(&edge_work),
                    "count",
                ));
            }
            _ => {}
        }
    }

    // checkpoint
    let capture_ms = median_ms(5, || Checkpoint::capture(&engine, &F64Codec, &F64Codec));
    let checkpoint = Checkpoint::capture(&engine, &F64Codec, &F64Codec);
    let restore_ms = {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let graph = engine.graph().clone();
                let t = Instant::now();
                let restored = checkpoint.restore(graph, alg.clone(), opts, &F64Codec, &F64Codec);
                let took = ms(t.elapsed());
                restored.expect("a fresh checkpoint restores on its own graph");
                took
            })
            .collect();
        median(&times)
    };
    out.push(Metric::new("checkpoint.capture_ms", capture_ms, "ms"));
    out.push(Metric::new("checkpoint.restore_ms", restore_ms, "ms"));
    out.push(Metric::new(
        "checkpoint.bytes",
        checkpoint.as_bytes().len() as f64,
        "B",
    ));

    // admission: one thread, a bucket that never empties
    let never_shed = BucketConfig::new(1e12, 1e12);
    let controller = AdmissionController::new(AdmissionConfig {
        interactive: never_shed,
        bulk: never_shed,
        best_effort: never_shed,
    });
    const ADMITS: u64 = 200_000;
    let t = Instant::now();
    for now in 0..ADMITS {
        let admitted =
            controller.admit_at(ClientClass::Interactive, 1.0, now, TraceCtx::disabled());
        std::hint::black_box(admitted.is_ok());
    }
    out.push(Metric::new(
        "admission.admit_ns",
        t.elapsed().as_nanos() as f64 / ADMITS as f64,
        "ns",
    ));

    // session: the hop alone (a write's cost above the engine's is the
    // ladder's `session_ms`)
    let session = StreamSession::spawn(engine);
    let hop_ms = median_ms(200, || session.query().expect("session worker is alive"));
    out.push(Metric::new("session.hop_us", hop_ms * 1e3, "us"));
    drop(session.finish());
    hop_ms
}

/// Share of a workload's ops the ladder replays at each level.
const LADDER_SHARE: f64 = 1.0 / 12.0;

/// What one ladder hands back for cross-ladder metrics.
struct LadderAcks {
    ack_ms: Vec<f64>,
    idle_query_ms: f64,
    overhead_share: f64,
}

/// Replays the first `ops` ops of one closed-loop workload at every
/// level and reports each layer's self time.
fn ladder<A>(
    ctx: &Ctx,
    spec: &ClosedLoop<A>,
    input: &Input,
    hop_ms: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<LadderAcks, String>
where
    A: Algorithm<Value = f64> + Clone + 'static,
{
    let (name, per_op, tolerance) = (spec.name, spec.per_op, spec.tolerance);
    // The traced front-door pass replays ops `ops..2*ops`.
    let wanted = (ctx.seconds * spec.ops_per_s * LADDER_SHARE) as usize;
    let ops = wanted.clamp(2, (input.mutations.len() / per_op / 2).max(2));
    let chunks = || input.mutations.chunks_exact(per_op).take(ops).enumerate();

    // L0: structure adjustment alone.
    let mut graph = Arc::new(GraphSnapshot::from_edges(input.n, &input.initial));
    let mut l0 = Vec::new();
    for (i, op) in chunks() {
        let batch = gen::batch(op);
        let (next, took) = rec.span("graph.apply_arc", "", i, || graph.apply_arc(&batch));
        graph = next.expect("collision-free mutations always validate");
        l0.push(took);
    }

    // L2: the engine; its values are what every read above must return.
    let l2 = engine_pass(input, spec.alg.clone(), per_op, ops, rec);

    // L3: the session, in-process.
    let session = StreamSession::spawn(initial_engine(input, spec.alg.clone()));
    let submit = |m: &Mutation| {
        if per_op == 1 {
            session.singleton(m.edge, m.add, None, TraceCtx::disabled())
        } else {
            session.mutate_within(m.edge, m.add, None, TraceCtx::disabled())
        }
    };
    let mut l3 = Vec::new();
    for (i, op) in chunks() {
        let (values, took) = rec.span("session.write+query", "", i, || {
            op.iter()
                .try_for_each(submit)
                .and_then(|()| session.query())
        });
        let values = values.map_err(|e| format!("in-process session: {e}"))?;
        out.attempted += 1;
        if tolerance.agrees(values[probe_vertex(op) as usize], l2.probes[i]) {
            l3.push(took);
        } else {
            out.failed += 1;
            out.mismatches += 1;
        }
    }
    drop(session.finish());

    // The real thing: untraced, then traced on the next ops.
    let child = spawn_on(ctx, spec.algorithm_args, input)?;
    let addr = child.addr();
    let mutations = &input.mutations;
    let untraced = drive_closed(addr, spec, mutations, 0..ops, None, &l2.probes, None);
    let traced = drive_closed(addr, spec, mutations, ops..2 * ops, None, &[], Some(rec));
    let idle: Vec<f64> = (0..30)
        .filter_map(|_| {
            let t = Instant::now();
            http::get(addr, "/query?vertex=0")
                .ok()
                .filter(http::Reply::ok)?;
            Some(ms(t.elapsed()))
        })
        .collect();
    child.shutdown()?;
    for pass in [&untraced, &traced] {
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        out.mismatches += pass.stale;
    }

    // The levels run one after another, so each is taken over its quiet
    // blocks: a slow spell of the host during one level would otherwise
    // show up as another layer's (even negative) self time.
    let level = quiet_median;
    let (graph_ms, engine_ms, session_ms) = (level(&l0), level(&l2.apply_ms), level(&l3));
    let e2e_ms = level(&untraced.visible_ms);
    let idle_query_ms = level(&idle);
    let frontdoor_ms = level(&untraced.ack_ms) + idle_query_ms - hop_ms;
    let mut push = |metric: &str, value: f64, unit: &'static str| {
        out.metrics
            .push(Metric::new(format!("ladder.{name}.{metric}"), value, unit));
    };
    push("graph_ms", graph_ms, "ms");
    push("refine_ms", engine_ms - graph_ms, "ms");
    push("session_ms", session_ms - engine_ms, "ms");
    push("frontdoor_ms", frontdoor_ms, "ms");
    push("e2e_ms", e2e_ms, "ms");
    // The tail as it was, slow spells of the host included: no bound
    // rests on it.
    push("e2e_p90_ms", percentile(&untraced.visible_ms, 0.9), "ms");
    push(
        "unexplained_share",
        1.0 - (session_ms + frontdoor_ms) / e2e_ms,
        "share",
    );
    Ok(LadderAcks {
        ack_ms: untraced.ack_ms,
        idle_query_ms,
        overhead_share: level(&traced.visible_ms) / e2e_ms - 1.0,
    })
}

/// The number at `path` in a `/metrics/json` scrape.
fn scraped(doc: &json::Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |v, key| v.get(key))?.num()
}

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`, whose tick is 1/100 s on Linux.
fn own_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Share of `mixed`'s run the traced run drives: 160 posts and ≈100 reads
/// at 20 s, so each p90 below has ten samples beyond it.
const MIXED_SHARE: f64 = 0.4;

/// A short `mixed` drive with the server's counters scraped around it:
/// how the session coalesced, the server's own ingest→visible mean, and
/// the generator's health.
fn mixed_segment(ctx: &Ctx, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let child = spawn_on(ctx, &["pagerank"], input)?;
    let addr = child.addr();
    let scrape = || -> Result<json::Value, String> {
        let reply = http::get(addr, "/metrics/json").map_err(|e| format!("/metrics/json: {e}"))?;
        json::parse(&reply.body)
    };
    let before = scrape()?;
    let cpu_before = own_cpu_seconds();
    let s = drive_mixed(addr, input, (ctx.seconds * MIXED_SHARE).max(0.5));
    let cpu_after = own_cpu_seconds();
    let after = scrape()?;
    child.shutdown()?;
    out.attempted += s.posts + s.reads;
    out.failed += s.failed;

    let delta = |path: &[&str]| -> Result<f64, String> {
        match (scraped(&after, path), scraped(&before, path)) {
            (Some(a), Some(b)) => Ok(a - b),
            _ => Err(format!("/metrics/json has no {}", path.join("."))),
        }
    };
    const VISIBLE: &str = "graphbolt_ingest_visible_latency_ns";
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let cpu_share = match (cpu_before, cpu_after) {
        (Some(b), Some(a)) => (a - b) / (s.wall.as_secs_f64() * cores),
        _ => return Err("cannot read /proc/self/stat".to_string()),
    };
    out.metrics.extend([
        Metric::new(
            "session.coalesced_batch_mean",
            delta(&["counters", "graphbolt_mutations_applied_total"])?
                / delta(&["counters", "graphbolt_batches_applied_total"])?,
            "count",
        ),
        Metric::new(
            "session.visible_mean_ms",
            delta(&["histograms", VISIBLE, "sum"])?
                / delta(&["histograms", VISIBLE, "count"])?
                / 1e6,
            "ms",
        ),
        Metric::new(
            "session.visible_p90_ms",
            percentile(&s.visible_ms, 0.9),
            "ms",
        ),
        Metric::new("frontdoor.ack_loaded_p50_ms", median(&s.ack_ms), "ms"),
        Metric::new(
            "frontdoor.query_loaded_p90_ms",
            percentile(&s.query_ms, 0.9),
            "ms",
        ),
        Metric::new("gen.late_p95_ms", percentile(&s.late_ms, 0.95), "ms"),
        Metric::new("gen.client_cpu_share", cpu_share, "share"),
    ]);
    Ok(())
}

/// The whole traced run. Writes the spans to `trace_path`.
///
/// # Errors
///
/// Harness failures: a child that does not start, an unwritable file, a
/// scrape the child does not answer.
pub fn traced(ctx: &Ctx, trace_path: &Path) -> Result<Outcome, String> {
    let input = gen::input(ctx.scale, ctx.seed);
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let hop_ms = layer_benches(&input, &mut out.metrics);
    let interactive = ladder(
        ctx,
        &workloads::interactive(),
        &input,
        hop_ms,
        &mut rec,
        &mut out,
    )?;
    let bulk = ladder(ctx, &workloads::bulk(), &input, hop_ms, &mut rec, &mut out)?;
    let update_ack = median(&interactive.ack_ms);
    out.metrics.extend([
        Metric::new("frontdoor.ack_p50_ms", update_ack, "ms"),
        Metric::new(
            "frontdoor.ack_p95_ms",
            percentile(&interactive.ack_ms, 0.95),
            "ms",
        ),
        Metric::new("frontdoor.idle_query_ms", interactive.idle_query_ms, "ms"),
        Metric::new(
            "frontdoor.parse_us_per_mutation",
            (median(&bulk.ack_ms) - update_ack) * 1e3 / (BULK_BATCH - 1) as f64,
            "us",
        ),
        Metric::new("trace.overhead_share", interactive.overhead_share, "share"),
    ]);
    mixed_segment(ctx, &input, &mut out)?;
    rec.write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(out)
}
