//! The four workloads and their client-observed end-to-end metrics.
//!
//! Each workload reports the same five metrics (see `README.md` for
//! what each means where). Served workloads reach the system only
//! through `gbolt` flags and the HTTP wire protocol; `engine` calls the
//! library directly and bypasses front door, admission and session.

use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use graphbolt_algorithms::{PageRank, ShortestPaths};
use graphbolt_core::{
    run_bsp, Algorithm, EngineOptions, EngineStats, ExecutionMode, StreamingEngine,
};
use graphbolt_engine::parallel::WorkCounter;
use graphbolt_graph::{io, GraphSnapshot};

use crate::child::{self, Child};
use crate::gen::{self, Input, Mutation};
use crate::http;
use crate::stats::{ms, percentile, quiet_median, quiet_rate};
use crate::trace::Recorder;

/// Workload names, in the order `spine run` executes them.
pub const WORKLOADS: [&str; 4] = ["interactive", "bulk", "mixed", "engine"];

/// `gbolt`'s default `--iterations`; the oracle must use the same.
const ITERATIONS: usize = 10;
/// Set-up is repeated this many times before the measurement and again
/// after it, and the lower quartile of all the times is `setup_s`: the
/// two groups are a run apart, so a slow spell of the host (see
/// [`quiet_median`]) rarely covers both.
const SETUP_REPS: usize = 4;
/// Mutations per `bulk` request and per `engine` mid-size batch.
pub const BULK_BATCH: usize = 1000;
/// `mixed`: mutations per post and the open-loop period (5k mutations/s).
pub const MIXED_BATCH: usize = 250;
const MIXED_PERIOD: Duration = Duration::from_millis(50);
/// Runs are count-based — the same ops on every commit — and sized, per
/// second of `--seconds`, to take a little under that long on the host
/// of `BASELINE.json`.
const INTERACTIVE_OPS_PER_S: f64 = 140.0;
const BULK_OPS_PER_S: f64 = 9.0;
const ENGINE_CYCLES_PER_S: f64 = 5.0;
/// A run on a slower (or disturbed) host is cut off at this multiple of
/// `--seconds`, so the driver's time budget holds. The stream keeps the
/// graph's size constant, so a shortened run measures the same system.
const CUTOFF: f64 = 1.25;
/// Seconds' worth of leading ops whose read value is checked against an
/// in-process engine.
const RYW_SECONDS: f64 = 1.0;
/// A generator later than this at p95 did not offer the stated load.
pub const LATE_LIMIT_MS: f64 = 5.0;

/// What a run needs besides the workload name.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `spine` binary, re-executed as the child.
    pub exe: PathBuf,
    /// Directory for generated input files.
    pub dir: PathBuf,
    /// R-MAT scale of the common input.
    pub scale: u32,
    /// Seed every input derives from.
    pub seed: u64,
    /// Intended measurement time per workload, in seconds: op counts
    /// are proportional to it.
    pub seconds: f64,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Result of one workload (or of the traced run).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport error, stale
    /// read-your-write, or an oracle mismatch (one per vertex).
    pub failed: u64,
    /// The subset of `failed` that are wrong *values*; any makes the
    /// run incorrect.
    pub mismatches: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// How closely served values must match the oracle.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// `|got − want| ≤ ε` — min-plus path algorithms are exact.
    Absolute(f64),
    /// `|got − want| ≤ ε·|want|` — PageRank at tolerance 1e-6 drifts
    /// with batch boundaries (1.1e-4 seen after 220 batches).
    Relative(f64),
}

impl Tolerance {
    /// Whether `got` is an acceptable reading of `want`.
    pub fn agrees(self, got: f64, want: f64) -> bool {
        // Equal covers two unreached vertices (∞ = ∞).
        got == want
            || match self {
                Tolerance::Absolute(eps) => (got - want).abs() <= eps,
                Tolerance::Relative(eps) => (got - want).abs() <= eps * want.abs(),
            }
    }

    /// Number of positions where `got` disagrees with `want`.
    pub fn mismatches(self, got: &[f64], want: &[f64]) -> u64 {
        let differing = got
            .iter()
            .zip(want)
            .filter(|(g, w)| !self.agrees(**g, **w))
            .count();
        (differing + got.len().abs_diff(want.len())) as u64
    }
}

/// The engine options `gbolt <algorithm> --graph …` builds.
pub fn engine_options() -> EngineOptions {
    EngineOptions::with_iterations(ITERATIONS)
}

/// From-scratch values on `edges`: the oracle.
pub fn scratch_values<A: Algorithm<Value = f64>>(
    alg: &A,
    n: usize,
    edges: &[graphbolt_graph::Edge],
) -> Vec<f64> {
    let g = GraphSnapshot::from_edges(n, edges);
    run_bsp(
        alg,
        &g,
        &engine_options(),
        ExecutionMode::Full,
        &EngineStats::new(),
    )
    .vals
}

/// A closed-loop served workload: which `gbolt` to start, how big one
/// write is, how many to send, and how closely values must match. The
/// untraced run and the traced run's ladder both read it.
pub struct ClosedLoop<A> {
    /// Workload name.
    pub name: &'static str,
    /// The algorithm, for the in-process levels and the oracle.
    pub alg: A,
    /// The same algorithm as `gbolt` arguments.
    pub algorithm_args: &'static [&'static str],
    /// Mutations per write: 1 goes to `/update`, more to `/batch`.
    pub per_op: usize,
    /// Ops per second of `--seconds`.
    pub ops_per_s: f64,
    /// How closely served values must match expected ones.
    pub tolerance: Tolerance,
}

/// The `interactive` workload.
pub fn interactive() -> ClosedLoop<ShortestPaths> {
    ClosedLoop {
        name: "interactive",
        alg: ShortestPaths::new(0),
        algorithm_args: &["sssp", "--source", "0"],
        per_op: 1,
        ops_per_s: INTERACTIVE_OPS_PER_S,
        tolerance: Tolerance::Absolute(1e-9),
    }
}

/// The `bulk` workload.
pub fn bulk() -> ClosedLoop<PageRank> {
    ClosedLoop {
        name: "bulk",
        alg: PageRank::default(),
        algorithm_args: &["pagerank"],
        per_op: BULK_BATCH,
        ops_per_s: BULK_OPS_PER_S,
        tolerance: Tolerance::Relative(1e-3),
    }
}

/// An engine on the input's initial graph, initial run done.
pub fn initial_engine<A: Algorithm>(input: &Input, alg: A) -> StreamingEngine<A> {
    let graph = GraphSnapshot::from_edges(input.n, &input.initial);
    let mut engine = StreamingEngine::new(graph, alg, engine_options());
    engine.run_initial();
    engine
}

/// Runs the named workload.
///
/// # Errors
///
/// Unknown names and harness failures (a child that does not start, an
/// unwritable input file). Failed *operations* are counted in the
/// outcome, not returned.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "interactive" => closed_loop(ctx, &interactive()),
        "bulk" => closed_loop(ctx, &bulk()),
        "mixed" => mixed(ctx),
        "engine" => engine(ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Writes `input`'s initial graph as a text edge list — `gbolt`'s
/// documented input — and starts a child serving it.
///
/// # Errors
///
/// An unwritable input file or a child that does not come up.
pub fn spawn_on(ctx: &Ctx, algorithm_args: &[&str], input: &Input) -> Result<Child, String> {
    let graph = ctx.dir.join("graph.txt");
    io::write_edge_list(&graph, &input.initial).map_err(|e| format!("{}: {e}", graph.display()))?;
    let graph_arg = graph.to_string_lossy().into_owned();
    let mut args = algorithm_args.to_vec();
    args.extend(["--graph", &graph_arg]);
    Child::spawn(&ctx.exe, &args)
}

/// A started child, the input it was started on, and how long set-up took.
pub struct Served {
    /// The running child.
    pub child: Child,
    /// The generated input.
    pub input: Input,
    /// Wall time of each set-up so far: generation + edge-list write +
    /// child start + initial run + bind.
    pub setup_times: Vec<f64>,
}

/// One timed set-up: generate, write, start, wait until it serves.
fn set_up_once(
    ctx: &Ctx,
    algorithm_args: &[&str],
    times: &mut Vec<f64>,
) -> Result<(Child, Input), String> {
    let start = Instant::now();
    let input = gen::input(ctx.scale, ctx.seed);
    let child = spawn_on(ctx, algorithm_args, &input)?;
    times.push(start.elapsed().as_secs_f64());
    Ok((child, input))
}

/// Sets the served system up [`SETUP_REPS`] times, keeping the last.
///
/// # Errors
///
/// An unwritable input file or a child that does not come up.
pub fn setup_served(ctx: &Ctx, algorithm_args: &[&str]) -> Result<Served, String> {
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Dropping kills the previous repetition's child, off the clock.
        drop(kept.take());
        kept = Some(set_up_once(ctx, algorithm_args, &mut setup_times)?);
    }
    let (child, input) = kept.ok_or("no set-up repetition ran")?;
    Ok(Served {
        child,
        input,
        setup_times,
    })
}

/// Shuts the measured child down, repeats the set-up [`SETUP_REPS`]
/// more times, and returns `setup_s` over both groups.
fn finish_served(ctx: &Ctx, algorithm_args: &[&str], served: Served) -> Result<f64, String> {
    let mut times = served.setup_times;
    served.child.shutdown()?;
    for _ in 0..SETUP_REPS {
        drop(set_up_once(ctx, algorithm_args, &mut times)?);
    }
    Ok(percentile(&times, 0.25))
}

/// Values an in-process engine serves after each of the first ops —
/// what a read-your-write must return — and how long each op took.
pub struct EnginePass {
    /// `apply_batch` wall per op, milliseconds.
    pub apply_ms: Vec<f64>,
    /// Value of the op's probe vertex after the op.
    pub probes: Vec<f64>,
}

/// The vertex an op's read asks for: the destination of its first mutation.
pub fn probe_vertex(op: &[Mutation]) -> u32 {
    op[0].edge.dst
}

/// Replays the first `ops` ops (`per_op`-sized chunks of the stream) on
/// a fresh in-process engine — ladder level L2.
pub fn engine_pass<A: Algorithm<Value = f64>>(
    input: &Input,
    alg: A,
    per_op: usize,
    ops: usize,
    rec: &mut Recorder,
) -> EnginePass {
    let mut engine = initial_engine(input, alg);
    let mut pass = EnginePass {
        apply_ms: Vec::new(),
        probes: Vec::new(),
    };
    for (i, op) in input.mutations.chunks_exact(per_op).take(ops).enumerate() {
        let batch = gen::batch(op);
        let (result, took) = rec.span("streaming.apply_batch", "", i, || {
            engine.apply_batch(&batch)
        });
        result.expect("collision-free mutations always validate");
        pass.apply_ms.push(took);
        pass.probes.push(engine.values()[probe_vertex(op) as usize]);
    }
    pass
}

/// Samples of one closed-loop drive: a write, then the read that must
/// reflect it, one client.
#[derive(Debug, Default)]
pub struct LoopSamples {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (transport, status, stale read).
    pub failed: u64,
    /// Stale or wrong reads among the failures.
    pub stale: u64,
    /// POST start → GET reply, per successful op.
    pub visible_ms: Vec<f64>,
    /// GET start → GET reply.
    pub query_ms: Vec<f64>,
    /// POST start → 202.
    pub ack_ms: Vec<f64>,
}

/// Drives ops `ops` of the stream against `addr`, cut off at
/// `deadline` if given. `expected[i]` is the value op `ops.start + i`'s
/// read must return.
pub fn drive_closed<A>(
    addr: SocketAddr,
    spec: &ClosedLoop<A>,
    mutations: &[Mutation],
    ops: Range<usize>,
    deadline: Option<Instant>,
    expected: &[f64],
    mut rec: Option<&mut Recorder>,
) -> LoopSamples {
    let (per_op, tolerance) = (spec.per_op, spec.tolerance);
    let mut s = LoopSamples::default();
    let path = if per_op == 1 { "/update" } else { "/batch" };
    for (i, op) in mutations
        .chunks_exact(per_op)
        .enumerate()
        .take(ops.end)
        .skip(ops.start)
    {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let body = if per_op == 1 {
            http::update_body(&op[0])
        } else {
            http::batch_body(op)
        };
        let query = format!("/query?vertex={}", probe_vertex(op));
        let t0 = Instant::now();
        let ack = http::post(addr, path, &body);
        let t1 = Instant::now();
        let read = http::get(addr, &query);
        let t2 = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            rec.record("op", "", i, t0, t2);
            rec.record("frontdoor.post", "op", i, t0, t1);
            rec.record("frontdoor.query", "op", i, t1, t2);
        }
        s.attempted += 1;
        let value = match (ack, read) {
            (Ok(a), Ok(r)) if a.ok() && r.ok() => http::vertex_value(&r.body),
            _ => None,
        };
        let fresh = |v: f64| {
            expected
                .get(i - ops.start)
                .is_none_or(|want| tolerance.agrees(v, *want))
        };
        match value {
            Some(v) if fresh(v) => {
                s.visible_ms.push(ms(t2 - t0));
                s.query_ms.push(ms(t2 - t1));
                s.ack_ms.push(ms(t1 - t0));
            }
            Some(_) => {
                s.stale += 1;
                s.failed += 1;
            }
            None => s.failed += 1,
        }
    }
    s
}

/// Fetches every value and counts disagreements with a from-scratch run
/// on the reference graph after `applied` mutations.
fn oracle_mismatches<A: Algorithm<Value = f64>>(
    addr: SocketAddr,
    alg: &A,
    input: &Input,
    applied: usize,
    tolerance: Tolerance,
) -> u64 {
    let want = scratch_values(alg, input.n, &input.edges_after(applied));
    match http::get(addr, "/query") {
        Ok(r) if r.ok() => match http::all_values(&r.body) {
            Some(got) => tolerance.mismatches(&got, &want),
            None => want.len() as u64,
        },
        _ => want.len() as u64,
    }
}

/// The five end-to-end metrics, in `BENCHMARK.json` order. Every
/// timing is taken over the quiet part of the run (see [`quiet_median`]).
fn end_to_end(
    setup_s: f64,
    updates_per_s: f64,
    visible_ms: &[f64],
    query_ms: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("updates_per_s", updates_per_s, "1/s"),
        Metric::new("visible_p50_ms", quiet_median(visible_ms), "ms"),
        Metric::new("query_p50_ms", quiet_median(query_ms), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// `interactive` and `bulk`: one client alternating a write of `per_op`
/// mutations with the read of a vertex the write touched.
fn closed_loop<A>(ctx: &Ctx, spec: &ClosedLoop<A>) -> Result<Outcome, String>
where
    A: Algorithm<Value = f64> + Clone,
{
    let (per_op, tolerance) = (spec.per_op, spec.tolerance);
    let served = setup_served(ctx, spec.algorithm_args)?;
    let addr = served.child.addr();
    let input = &served.input;
    let ops = ((ctx.seconds * spec.ops_per_s) as usize).clamp(1, input.mutations.len() / per_op);
    // Off the clock, with the child idle: what the first reads must return.
    let ryw_ops = ((RYW_SECONDS * spec.ops_per_s) as usize).clamp(1, ops);
    let expected = engine_pass(
        input,
        spec.alg.clone(),
        per_op,
        ryw_ops,
        &mut Recorder::new(),
    )
    .probes;

    let cutoff = Instant::now() + Duration::from_secs_f64(ctx.seconds * CUTOFF);
    let s = drive_closed(
        addr,
        spec,
        &input.mutations,
        0..ops,
        Some(cutoff),
        &expected,
        None,
    );

    let applied = s.attempted as usize * per_op;
    let wrong = oracle_mismatches(addr, &spec.alg, input, applied, tolerance);
    let peak = served
        .child
        .peak_rss_mb()
        .ok_or("cannot read the child's VmHWM")?;
    let setup_s = finish_served(ctx, spec.algorithm_args, served)?;
    // Closed loop: an op's mutations are readable when its read returns.
    let ops: Vec<(f64, f64)> = s
        .visible_ms
        .iter()
        .map(|v| (per_op as f64, v / 1e3))
        .collect();
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed + wrong,
        mismatches: s.stale + wrong,
        metrics: end_to_end(
            setup_s,
            quiet_rate(&ops, 1),
            &s.visible_ms,
            &s.query_ms,
            peak,
        ),
    })
}

/// Raw observations of one `mixed` drive.
#[derive(Debug, Default)]
pub struct MixedSamples {
    /// Posts attempted.
    pub posts: u64,
    /// Reads attempted.
    pub reads: u64,
    /// Posts or reads that failed.
    pub failed: u64,
    /// Due time of a post → end of the first read begun after its ack.
    pub visible_ms: Vec<f64>,
    /// Reader latency.
    pub query_ms: Vec<f64>,
    /// Due time → 202, i.e. ack latency under load.
    pub ack_ms: Vec<f64>,
    /// How late each post left, against its due time.
    pub late_ms: Vec<f64>,
    /// First due time → last confirming read.
    pub wall: Duration,
}

/// `mixed`'s traffic: an open-loop writer posting [`MIXED_BATCH`]
/// mutations every [`MIXED_PERIOD`] beside one closed-loop reader — two
/// threads, two connections at a time.
pub fn drive_mixed(addr: SocketAddr, input: &Input, seconds: f64) -> MixedSamples {
    let posts_wanted =
        ((seconds / MIXED_PERIOD.as_secs_f64()) as usize).min(input.mutations.len() / MIXED_BATCH);
    // Set to 1 once the writer has its last ack.
    let writer_done = WorkCounter::new();
    let start = Instant::now();
    // (due, ack end, ok) per post and (start, end, ok) per read.
    let (posts, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut posts = Vec::with_capacity(posts_wanted);
            for (k, chunk) in input
                .mutations
                .chunks_exact(MIXED_BATCH)
                .take(posts_wanted)
                .enumerate()
            {
                let body = http::batch_body(chunk);
                let due = start + MIXED_PERIOD * k as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let sent = Instant::now();
                let ok = http::post(addr, "/batch", &body).is_ok_and(|r| r.ok());
                posts.push((due, sent, Instant::now(), ok));
            }
            writer_done.set(1);
            posts
        });
        let reader = scope.spawn(|| {
            let mut reads = Vec::new();
            let mut k = 0;
            loop {
                // Read whether the writer has finished *before* the
                // read starts: the read that follows the last ack must
                // still run, since it is what confirms the last post.
                let last = writer_done.get() != 0;
                let vertex = input.mutations[k % input.mutations.len()].edge.dst;
                k += 1;
                let t0 = Instant::now();
                let ok = http::get(addr, &format!("/query?vertex={vertex}"))
                    .is_ok_and(|r| r.ok() && http::vertex_value(&r.body).is_some());
                reads.push((t0, Instant::now(), ok));
                if last {
                    break;
                }
            }
            reads
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });

    let mut s = MixedSamples {
        posts: posts.len() as u64,
        reads: reads.len() as u64,
        ..MixedSamples::default()
    };
    let mut end = start;
    for &(due, sent, acked, ok) in &posts {
        // Reads are in start order, so the first one begun after the ack
        // is found by partition; the door's FIFO queue makes it reflect
        // the post.
        let first_after = reads.partition_point(|&(t0, _, _)| t0 < acked);
        match reads.get(first_after) {
            Some(&(_, done, true)) if ok => {
                s.visible_ms.push(ms(done - due));
                s.ack_ms.push(ms(acked - due));
                end = end.max(done);
            }
            _ => s.failed += 1,
        }
        s.late_ms.push(ms(sent - due));
    }
    for &(t0, t1, ok) in &reads {
        if ok {
            s.query_ms.push(ms(t1 - t0));
        } else {
            s.failed += 1;
        }
    }
    s.wall = end - start;
    s
}

fn mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let alg = PageRank::default();
    let tolerance = Tolerance::Relative(1e-3);
    let served = setup_served(ctx, &["pagerank"])?;
    let addr = served.child.addr();
    let s = drive_mixed(addr, &served.input, ctx.seconds);
    let late = percentile(&s.late_ms, 0.95);
    if late > LATE_LIMIT_MS {
        eprintln!("spine: VOID mixed run: generator was {late:.2} ms late at p95 (limit {LATE_LIMIT_MS} ms)");
    }
    let applied = s.posts as usize * MIXED_BATCH;
    let wrong = oracle_mismatches(addr, &alg, &served.input, applied, tolerance);
    let peak = served
        .child
        .peak_rss_mb()
        .ok_or("cannot read the child's VmHWM")?;
    let setup_s = finish_served(ctx, &["pagerank"], served)?;
    // Open loop: the rate is the offered one unless the system falls
    // behind, so it is taken over the whole run.
    let made_readable = s.visible_ms.len() * MIXED_BATCH;
    Ok(Outcome {
        attempted: s.posts + s.reads,
        failed: s.failed + wrong,
        mismatches: wrong,
        metrics: end_to_end(
            setup_s,
            made_readable as f64 / s.wall.as_secs_f64(),
            &s.visible_ms,
            &s.query_ms,
            peak,
        ),
    })
}

/// One `engine` cycle: batch sizes applied before the from-scratch run.
/// Every [`BIG_EVERY`]-th cycle also applies one batch of [`BIG_BATCH`],
/// so the mix of batch sizes repeats every [`MIX_PERIOD`] applies.
const CYCLE: [usize; 2] = [1, BULK_BATCH];
const BIG_BATCH: usize = 10_000;
const BIG_EVERY: usize = 10;
const MIX_PERIOD: usize = CYCLE.len() * BIG_EVERY + 1;

/// `engine`: the paper's own experiment on the library path, structure
/// time included. `visible_*` is `apply_batch` at 1000 mutations and
/// `query_*` is what a reader without GraphBolt pays instead — a
/// from-scratch `run_bsp` on the same snapshot — so their ratio is the
/// paper's speedup. The same from-scratch run is the oracle.
fn engine(ctx: &Ctx) -> Result<Outcome, String> {
    let alg = PageRank::default();
    let tolerance = Tolerance::Relative(1e-3);
    let mut setup_times = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let input = gen::input(ctx.scale, ctx.seed);
        let engine = initial_engine(&input, alg.clone());
        setup_times.push(start.elapsed().as_secs_f64());
        (engine, input)
    };
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        kept = Some(set_up());
    }
    let (mut engine, input) = kept.ok_or("no set-up repetition ran")?;

    let mut out = Outcome::default();
    let (mut visible_ms, mut scratch_ms, mut applies) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = input.mutations.as_slice();
    let cycles = ((ctx.seconds * ENGINE_CYCLES_PER_S) as usize).max(1);
    let cutoff = Instant::now() + Duration::from_secs_f64(ctx.seconds * CUTOFF);
    'run: for cycle in 1..=cycles {
        if Instant::now() >= cutoff {
            break;
        }
        let big = (cycle % BIG_EVERY == 0).then_some(BIG_BATCH);
        for size in CYCLE.into_iter().chain(big) {
            if stream.len() < size {
                break 'run;
            }
            let (now, rest) = stream.split_at(size);
            stream = rest;
            let batch = gen::batch(now);
            let t = Instant::now();
            let applied = engine.apply_batch(&batch);
            let took = t.elapsed();
            out.attempted += 1;
            if applied.is_err() {
                out.failed += 1;
                continue;
            }
            applies.push((size as f64, took.as_secs_f64()));
            if size == BULK_BATCH {
                visible_ms.push(ms(took));
            }
        }
        let t = Instant::now();
        let scratch = run_bsp(
            &alg,
            engine.graph(),
            &engine_options(),
            ExecutionMode::Full,
            &EngineStats::new(),
        );
        scratch_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        let wrong = tolerance.mismatches(engine.values(), &scratch.vals);
        out.failed += wrong;
        out.mismatches += wrong;
    }
    let peak = child::peak_rss_mb("/proc/self/status").ok_or("cannot read own VmHWM")?;
    drop((engine, input));
    for _ in 0..SETUP_REPS {
        drop(set_up());
    }
    out.metrics = end_to_end(
        percentile(&setup_times, 0.25),
        quiet_rate(&applies, MIX_PERIOD),
        &visible_ms,
        &scratch_ms,
        peak,
    );
    Ok(out)
}
