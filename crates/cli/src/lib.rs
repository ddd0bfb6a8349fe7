//! `gbolt` — command-line streaming graph analytics.
//!
//! ```text
//! gbolt <algorithm> --graph <edges.{txt,bin}> [options]
//!
//! algorithms:
//!   pagerank | labelprop | coem | cc | sssp | bfs | sswp | triangles
//!
//! options:
//!   --graph PATH        edge list (text: "src dst [weight]"; binary: GBLT)
//!   --stream PATH       mutation stream (GBMS) to replay after the
//!                       initial run, one refinement per batch
//!   --iterations N      BSP iterations per epoch            [10]
//!   --source V          source vertex for sssp/bfs          [0]
//!   --labels F          label count for labelprop           [4]
//!   --seed-stride S     every S-th vertex is a seed          [10]
//!   --tolerance X       selective-scheduling tolerance      [1e-6]
//!   --cutoff K          horizontal-pruning cut-off          [track all]
//!   --symmetric         mirror every edge on load
//!   --output PATH       write final per-vertex values
//!   --memory-budget B   dependency-store budget in bytes (degrades to
//!                       tighter pruning, then per-batch recompute)
//!
//! serve mode (scalar algorithms):
//!   --serve             replay the stream through a fault-isolated
//!                       StreamSession instead of direct refinement
//!   --queue-capacity N  bound the session queue (backpressure)
//!   --checkpoint-dir D  persist recoverable checkpoints into D
//!   --checkpoint-every N  batches between checkpoints        [1]
//!   --checkpoint-keep N   newest checkpoints retained        [3]
//!   --resume            restore from the newest good checkpoint in
//!                       --checkpoint-dir before replaying the stream
//!   --metrics-addr A    serve Prometheus text on http://A/metrics (and
//!                       JSON on /metrics/json, liveness on /healthz);
//!                       port 0 picks a free port, the bound address is
//!                       printed in the report
//!   --trace-out PATH    enable causal span tracing and write every
//!                       completed request / batch span tree to PATH, one
//!                       JSON object per line (the /debug/flight schema)
//!   --flight-out PATH   enable causal span tracing and append automatic
//!                       flight-recorder dumps (quarantine, SLO breach,
//!                       shed spike) to PATH as JSON lines
//!
//! front door (serve mode):
//!   --listen HOST:PORT  after replaying --stream, serve HTTP ingestion
//!                       until a client POSTs /shutdown: POST /update
//!                       (singleton fast path), POST /batch, GET /query,
//!                       plus the /metrics family; port 0 picks a free
//!                       port, the bound address is printed in the report
//!   --admit-interactive RATE[:BURST]   per-class token buckets gating
//!   --admit-bulk RATE[:BURST]          admission (tokens/sec; burst
//!   --admit-best-effort RATE[:BURST]   defaults to one second of rate)
//!   --deadline-ms N     default request deadline when the client sends
//!                       no X-Deadline-Ms header
//!
//! observability:
//!   gbolt stats --metrics-addr A
//!                       scrape a running serve-mode session's
//!                       /metrics/json and pretty-print it
//!   gbolt trace --metrics-addr A
//!                       scrape a running session's flight recorder
//!                       (/debug/flight: recent span trees) and latest
//!                       critical-path report (/debug/critical)
//! ```
//!
//! The binary is a thin wrapper over [`run`], which is exercised directly
//! by the test suite.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use std::fmt::Write as _;
use std::path::Path;

use graphbolt_algorithms::{
    CoEm, ConnectedComponents, LabelPropagation, PageRank, ShortestPaths, TriangleCounter,
    WidestPaths,
};
use graphbolt_core::{
    recover_session, telemetry, AdmissionConfig, AdmissionController, Algorithm, BucketConfig,
    CheckpointPolicy, DegradeLevel, EngineOptions, F64Codec, FrontDoor, FrontDoorConfig,
    SessionConfig, StreamSession, StreamingEngine,
};
use graphbolt_graph::{io, GraphSnapshot, MutationBatch};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Algorithm name (see module docs).
    pub algorithm: String,
    /// Path to the input edge list.
    pub graph: String,
    /// Optional mutation stream to replay.
    pub stream: Option<String>,
    /// BSP iterations per epoch.
    pub iterations: usize,
    /// Source vertex for path algorithms.
    pub source: u32,
    /// Label count for label propagation.
    pub labels: usize,
    /// Seed stride for labelprop/coem.
    pub seed_stride: usize,
    /// Scheduling tolerance.
    pub tolerance: f64,
    /// Horizontal-pruning cut-off.
    pub cutoff: Option<usize>,
    /// Mirror edges on load.
    pub symmetric: bool,
    /// Optional output path for final values.
    pub output: Option<String>,
    /// Dependency-store memory budget in bytes.
    pub memory_budget: Option<usize>,
    /// Replay the stream through a fault-isolated [`StreamSession`].
    pub serve: bool,
    /// Bounded session queue capacity (serve mode).
    pub queue_capacity: Option<usize>,
    /// Directory for recoverable checkpoints (serve mode).
    pub checkpoint_dir: Option<String>,
    /// Batches between checkpoints (serve mode).
    pub checkpoint_every: usize,
    /// Newest checkpoints retained on disk (serve mode).
    pub checkpoint_keep: usize,
    /// Restore from the newest good checkpoint before replaying.
    pub resume: bool,
    /// Bind an HTTP metrics endpoint here (serve mode), or scrape one
    /// (`stats` / `trace`).
    pub metrics_addr: Option<String>,
    /// Enable span tracing and write every completed span tree (JSONL)
    /// here (serve mode).
    pub trace_out: Option<String>,
    /// Enable span tracing and write flight-recorder dumps (JSONL)
    /// here (serve mode).
    pub flight_out: Option<String>,
    /// Worker threads for the global pool (`None` = machine default).
    pub threads: Option<usize>,
    /// Bind the HTTP front door here after the stream replay (serve
    /// mode); the process then serves until a client POSTs `/shutdown`.
    pub listen: Option<String>,
    /// Interactive-class admission bucket override.
    pub admit_interactive: Option<BucketConfig>,
    /// Bulk-class admission bucket override.
    pub admit_bulk: Option<BucketConfig>,
    /// Best-effort-class admission bucket override.
    pub admit_best_effort: Option<BucketConfig>,
    /// Default request deadline (milliseconds) for front-door requests
    /// that carry no `X-Deadline-Ms` header.
    pub deadline_ms: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            algorithm: String::new(),
            graph: String::new(),
            stream: None,
            iterations: 10,
            source: 0,
            labels: 4,
            seed_stride: 10,
            tolerance: 1e-6,
            cutoff: None,
            symmetric: false,
            output: None,
            memory_budget: None,
            serve: false,
            queue_capacity: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            checkpoint_keep: 3,
            resume: false,
            metrics_addr: None,
            trace_out: None,
            flight_out: None,
            threads: None,
            listen: None,
            admit_interactive: None,
            admit_bulk: None,
            admit_best_effort: None,
            deadline_ms: None,
        }
    }
}

impl Options {
    /// Parses argv-style arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        let Some(alg) = it.next() else {
            return Err(usage());
        };
        opts.algorithm = alg;
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("{name} requires a value\n{}", usage()))
            };
            match arg.as_str() {
                "--graph" => opts.graph = value("--graph")?,
                "--stream" => opts.stream = Some(value("--stream")?),
                "--iterations" => {
                    opts.iterations = parse_num(&value("--iterations")?, "--iterations")?
                }
                "--source" => opts.source = parse_num(&value("--source")?, "--source")?,
                "--labels" => opts.labels = parse_num(&value("--labels")?, "--labels")?,
                "--seed-stride" => {
                    opts.seed_stride = parse_num(&value("--seed-stride")?, "--seed-stride")?
                }
                "--tolerance" => opts.tolerance = parse_num(&value("--tolerance")?, "--tolerance")?,
                "--cutoff" => opts.cutoff = Some(parse_num(&value("--cutoff")?, "--cutoff")?),
                "--symmetric" => opts.symmetric = true,
                "--output" => opts.output = Some(value("--output")?),
                "--memory-budget" => {
                    opts.memory_budget =
                        Some(parse_num(&value("--memory-budget")?, "--memory-budget")?)
                }
                "--serve" => opts.serve = true,
                "--queue-capacity" => {
                    opts.queue_capacity =
                        Some(parse_num(&value("--queue-capacity")?, "--queue-capacity")?)
                }
                "--checkpoint-dir" => opts.checkpoint_dir = Some(value("--checkpoint-dir")?),
                "--checkpoint-every" => {
                    opts.checkpoint_every =
                        parse_num(&value("--checkpoint-every")?, "--checkpoint-every")?
                }
                "--checkpoint-keep" => {
                    opts.checkpoint_keep =
                        parse_num(&value("--checkpoint-keep")?, "--checkpoint-keep")?
                }
                "--resume" => opts.resume = true,
                "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")?),
                "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
                "--flight-out" => opts.flight_out = Some(value("--flight-out")?),
                "--threads" => opts.threads = Some(parse_num(&value("--threads")?, "--threads")?),
                "--listen" => opts.listen = Some(value("--listen")?),
                "--admit-interactive" => {
                    opts.admit_interactive = Some(parse_bucket(&value("--admit-interactive")?, "--admit-interactive")?)
                }
                "--admit-bulk" => {
                    opts.admit_bulk = Some(parse_bucket(&value("--admit-bulk")?, "--admit-bulk")?)
                }
                "--admit-best-effort" => {
                    opts.admit_best_effort =
                        Some(parse_bucket(&value("--admit-best-effort")?, "--admit-best-effort")?)
                }
                "--deadline-ms" => {
                    opts.deadline_ms = Some(parse_num(&value("--deadline-ms")?, "--deadline-ms")?)
                }
                other => return Err(format!("unknown option {other}\n{}", usage())),
            }
        }
        // The `stats` and `trace` subcommands inspect a running endpoint
        // — they take an address, no graph and no serve session.
        let is_observer = matches!(opts.algorithm.as_str(), "stats" | "trace");
        if opts.graph.is_empty() && !is_observer {
            return Err(format!("--graph is required\n{}", usage()));
        }
        if is_observer && opts.metrics_addr.is_none() {
            return Err(format!("{} requires --metrics-addr\n{}", opts.algorithm, usage()));
        }
        if opts.iterations == 0 {
            return Err("--iterations must be positive".into());
        }
        if !opts.serve && (opts.queue_capacity.is_some() || opts.checkpoint_dir.is_some() || opts.resume)
        {
            return Err(
                "--queue-capacity/--checkpoint-dir/--resume require --serve".to_string(),
            );
        }
        if opts.resume && opts.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        if opts.metrics_addr.is_some() && !(opts.serve || is_observer) {
            return Err(
                "--metrics-addr requires --serve (or the stats/trace subcommands)".to_string()
            );
        }
        if opts.trace_out.is_some() && !opts.serve {
            return Err("--trace-out requires --serve".to_string());
        }
        if opts.flight_out.is_some() && !opts.serve {
            return Err("--flight-out requires --serve".to_string());
        }
        if opts.listen.is_some() && !opts.serve {
            return Err("--listen requires --serve".to_string());
        }
        if opts.listen.is_none()
            && (opts.admit_interactive.is_some()
                || opts.admit_bulk.is_some()
                || opts.admit_best_effort.is_some()
                || opts.deadline_ms.is_some())
        {
            return Err("--admit-*/--deadline-ms require --listen".to_string());
        }
        if opts.threads == Some(0) {
            return Err("--threads must be positive".to_string());
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("cannot parse {s:?} for {flag}"))
}

fn parse_bucket(s: &str, flag: &str) -> Result<BucketConfig, String> {
    BucketConfig::parse(s)
        .ok_or_else(|| format!("cannot parse {s:?} for {flag} (expected RATE[:BURST])"))
}

/// The usage string.
pub fn usage() -> String {
    "usage: gbolt <pagerank|labelprop|coem|cc|sssp|bfs|sswp|triangles> --graph PATH \
     [--stream PATH] [--iterations N] [--source V] [--labels F] [--seed-stride S] \
     [--tolerance X] [--cutoff K] [--symmetric] [--output PATH] [--memory-budget B] \
     [--threads N] \
     [--serve [--queue-capacity N] [--checkpoint-dir D] [--checkpoint-every N] \
     [--checkpoint-keep N] [--resume] [--metrics-addr HOST:PORT] [--trace-out PATH] \
     [--flight-out PATH] \
     [--listen HOST:PORT [--admit-interactive R[:B]] [--admit-bulk R[:B]] \
     [--admit-best-effort R[:B]] [--deadline-ms N]]]\n\
     \x20      gbolt stats --metrics-addr HOST:PORT\n\
     \x20      gbolt trace --metrics-addr HOST:PORT"
        .to_string()
}

/// Loads the input graph, dispatching on the file extension.
fn load_graph(opts: &Options) -> Result<GraphSnapshot, String> {
    let path = Path::new(&opts.graph);
    let mut edges = if path.extension().is_some_and(|e| e == "bin") {
        io::read_binary(path).map_err(|e| e.to_string())?
    } else {
        io::read_edge_list(path).map_err(|e| e.to_string())?
    };
    if opts.symmetric {
        let mirrored: Vec<_> = edges.iter().map(|e| e.reversed()).collect();
        edges.extend(mirrored);
    }
    let n = graphbolt_graph::generators::vertex_count(&edges);
    if n == 0 {
        return Err("input graph is empty".into());
    }
    Ok(GraphSnapshot::from_edges(n, &edges))
}

fn load_stream(opts: &Options) -> Result<Vec<MutationBatch>, String> {
    match &opts.stream {
        Some(path) => io::read_batches(path).map_err(|e| e.to_string()),
        None => Ok(Vec::new()),
    }
}

/// Runs the CLI; returns the report text that `main` prints.
///
/// # Errors
///
/// Returns a human-readable message on bad arguments or I/O failure.
pub fn run(opts: &Options) -> Result<String, String> {
    if opts.algorithm == "stats" {
        return run_stats(opts);
    }
    if opts.algorithm == "trace" {
        return run_trace(opts);
    }
    if let Some(threads) = opts.threads {
        // Best effort: the global pool freezes at its first use, so a
        // second `run` in the same process keeps the first size.
        let _ = graphbolt_engine::parallel::set_global_threads(threads);
    }
    let graph = load_graph(opts)?;
    let batches = load_stream(opts)?;
    let engine_opts = {
        let mut o = EngineOptions::with_iterations(opts.iterations);
        o.horizontal_cutoff = opts.cutoff;
        o.memory_budget = opts.memory_budget;
        o
    };
    let n = graph.num_vertices();
    if matches!(opts.algorithm.as_str(), "sssp" | "bfs" | "sswp") && (opts.source as usize) >= n {
        return Err(format!(
            "--source {} out of range: the graph has {n} vertices",
            opts.source
        ));
    }
    match opts.algorithm.as_str() {
        "pagerank" => drive_scalar(
            graph,
            batches,
            PageRank::with_tolerance(opts.tolerance),
            engine_opts,
            opts,
        ),
        "coem" => {
            let mut alg = CoEm::with_synthetic_seeds(n, opts.seed_stride);
            alg.tolerance = opts.tolerance;
            drive_scalar(graph, batches, alg, engine_opts, opts)
        }
        "cc" => drive_scalar(
            graph,
            batches,
            ConnectedComponents::new(),
            engine_opts,
            opts,
        ),
        "sssp" => drive_scalar(
            graph,
            batches,
            ShortestPaths::new(opts.source),
            engine_opts,
            opts,
        ),
        "sswp" => drive_scalar(
            graph,
            batches,
            WidestPaths::new(opts.source),
            engine_opts,
            opts,
        ),
        "bfs" => drive_scalar(
            graph,
            batches,
            ShortestPaths::bfs(opts.source),
            engine_opts,
            opts,
        ),
        "labelprop" => {
            let mut alg = LabelPropagation::with_synthetic_seeds(opts.labels, n, opts.seed_stride);
            alg.tolerance = opts.tolerance;
            drive_vector(graph, batches, alg, engine_opts, opts)
        }
        "triangles" => drive_triangles(graph, batches, opts),
        other => Err(format!("unknown algorithm {other:?}\n{}", usage())),
    }
}

fn header(g: &GraphSnapshot, batches: &[MutationBatch]) -> String {
    let s = graphbolt_graph::stats(g);
    format!(
        "graph: {} vertices, {} edges (max out-degree {}, top-1% share {:.1}%)\nstream: {} batches\n",
        s.vertices,
        s.edges,
        s.max_out_degree,
        100.0 * s.top1pct_share,
        batches.len()
    )
}

fn drive_engine<A: Algorithm>(
    graph: GraphSnapshot,
    batches: Vec<MutationBatch>,
    alg: A,
    engine_opts: EngineOptions,
    report: &mut String,
) -> Result<StreamingEngine<A>, String> {
    let mut engine = StreamingEngine::new(graph, alg, engine_opts);
    let t = std::time::Instant::now();
    engine.run_initial();
    let _ = writeln!(report, "initial run: {:?}", t.elapsed());
    for (i, raw) in batches.into_iter().enumerate() {
        let batch = raw.normalize_against(engine.graph());
        if batch.is_empty() {
            let _ = writeln!(report, "batch {i}: empty after normalization, skipped");
            continue;
        }
        let r = engine
            .apply_batch(&batch)
            .map_err(|e| format!("batch {i}: {e}"))?;
        let _ = writeln!(
            report,
            "batch {i}: {} mutations refined {} vertices in {:?} ({} edge computations)",
            batch.len(),
            r.refined_vertices,
            r.duration,
            r.edge_computations
        );
    }
    let _ = writeln!(
        report,
        "dependency store: {} aggregation values, {} bytes",
        engine.stored_aggregations(),
        engine.dependency_memory_bytes()
    );
    Ok(engine)
}

fn drive_scalar<A: Algorithm<Value = f64, Agg = f64> + Clone + 'static>(
    graph: GraphSnapshot,
    batches: Vec<MutationBatch>,
    alg: A,
    engine_opts: EngineOptions,
    opts: &Options,
) -> Result<String, String> {
    let mut report = header(&graph, &batches);
    let engine = if opts.serve {
        drive_serve(graph, batches, alg, engine_opts, opts, &mut report)?
    } else {
        drive_engine(graph, batches, alg, engine_opts, &mut report)?
    };
    maybe_write_values(opts, engine.values().iter().map(|v| format!("{v}")))?;
    let (min, max) = min_max(engine.values());
    let _ = writeln!(report, "values: min {min:.6}, max {max:.6}");
    Ok(report)
}

/// Serve mode: replay the stream through a [`StreamSession`] — panic
/// isolation, optional bounded ingestion, and checkpoint cadence with
/// `--resume` recovery.
fn drive_serve<A: Algorithm<Value = f64, Agg = f64> + Clone + 'static>(
    graph: GraphSnapshot,
    batches: Vec<MutationBatch>,
    alg: A,
    engine_opts: EngineOptions,
    opts: &Options,
    report: &mut String,
) -> Result<StreamingEngine<A>, String> {
    let t = std::time::Instant::now();
    let engine = match (&opts.checkpoint_dir, opts.resume) {
        (Some(dir), true) => {
            match recover_session(Path::new(dir), alg.clone(), engine_opts, &F64Codec, &F64Codec)
                .map_err(|e| e.to_string())?
            {
                Some(rec) => {
                    let _ = writeln!(
                        report,
                        "resumed from checkpoint {} in {:?} ({} damaged checkpoint(s) skipped); \
                         --graph input superseded by the checkpointed snapshot",
                        rec.seq,
                        t.elapsed(),
                        rec.skipped
                    );
                    rec.engine
                }
                None => {
                    let _ = writeln!(report, "no checkpoint to resume from, running initial");
                    initial_engine(graph, alg.clone(), engine_opts, report)
                }
            }
        }
        _ => initial_engine(graph, alg.clone(), engine_opts, report),
    };

    // The endpoint serves this engine's registry and span recorder; the
    // bound address (resolving port 0) goes into the report so callers
    // can find it.
    let stats = engine.stats().clone();
    let metrics_server = match &opts.metrics_addr {
        Some(addr) => {
            let server = telemetry::http::MetricsServer::bind(addr.as_str(), stats.clone())
                .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
            let _ = writeln!(
                report,
                "metrics endpoint: http://{}/metrics",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    if opts.flight_out.is_some() || opts.trace_out.is_some() {
        // Span tracing is otherwise armed lazily by the front door;
        // either flag opts the whole serve run in so stream-replay
        // batches are attributed too, and installs its sink.
        let spans = stats.spans();
        spans.enable();
        spans
            .configure(telemetry::span::FlightConfig {
                trace_out: opts.trace_out.as_ref().map(std::path::PathBuf::from),
                dump_path: opts.flight_out.as_ref().map(std::path::PathBuf::from),
                ..telemetry::span::FlightConfig::default()
            })
            .map_err(|e| {
                let path = opts.trace_out.as_deref().unwrap_or_default();
                format!("--trace-out {path}: {e}")
            })?;
        if let Some(path) = &opts.flight_out {
            let _ = writeln!(report, "flight dumps: {path}");
        }
        if let Some(path) = &opts.trace_out {
            let _ = writeln!(report, "span trees: {path}");
        }
    }

    // One controller shared by the front door (admission decisions) and
    // the session worker (degrade-level feedback tightening the
    // non-interactive buckets).
    let admission = opts.listen.as_ref().map(|_| {
        let mut cfg = AdmissionConfig::default();
        if let Some(b) = opts.admit_interactive {
            cfg.interactive = b;
        }
        if let Some(b) = opts.admit_bulk {
            cfg.bulk = b;
        }
        if let Some(b) = opts.admit_best_effort {
            cfg.best_effort = b;
        }
        std::sync::Arc::new(AdmissionController::new(cfg))
    });
    let config = SessionConfig {
        queue_capacity: opts.queue_capacity,
        checkpoint: opts.checkpoint_dir.as_ref().map(|dir| {
            CheckpointPolicy::new(
                dir,
                opts.checkpoint_every,
                opts.checkpoint_keep,
                F64Codec,
                F64Codec,
            )
        }),
        admission: admission.clone(),
        ..SessionConfig::default()
    };
    let session = StreamSession::spawn_with(engine, config);
    for (i, batch) in batches.into_iter().enumerate() {
        let fail = |e: graphbolt_core::SessionError| format!("batch {i}: {e}");
        // Deletions first: a batch's own semantics are delete-before-add
        // (a delete + add on one key is a reweight), and the session
        // keeps submission order per edge key.
        for e in batch.deletions() {
            session.delete(*e).map_err(fail)?;
        }
        for e in batch.additions() {
            session.add(*e).map_err(fail)?;
        }
        // Flush per stream batch so batch boundaries survive coalescing.
        session.flush().map_err(fail)?;
    }
    let outcome = match (&opts.listen, admission) {
        (Some(addr), Some(admission)) => {
            serve_front_door(addr, session, &admission, opts, report)?
        }
        _ => session.finish().map_err(|e| e.to_string())?,
    };
    let s = outcome.stats;
    let _ = writeln!(
        report,
        "session: {} batches, {} mutations applied, {} dropped as conflicting",
        s.batches, s.mutations_applied, s.mutations_dropped
    );
    if s.batches_quarantined > 0 {
        let _ = writeln!(
            report,
            "session: {} batch(es) quarantined ({} mutations, {} panic(s) recovered)",
            s.batches_quarantined, s.mutations_quarantined, s.panics_recovered
        );
    }
    if opts.checkpoint_dir.is_some() {
        let _ = writeln!(
            report,
            "session: {} checkpoint(s) written, {} failed",
            s.checkpoints_written, s.checkpoint_failures
        );
    }
    if outcome.engine.degrade_level() != DegradeLevel::None {
        let _ = writeln!(
            report,
            "memory budget: engine degraded to {:?}",
            outcome.engine.degrade_level()
        );
    }
    // Keep answering scrapes for the rest of the process: tooling that
    // launched a serve run expects to read /metrics after the replay.
    if let Some(server) = metrics_server {
        server.detach();
    }
    Ok(outcome.engine)
}

/// Binds the network front door after the stream replay, serves until a
/// client POSTs `/shutdown`, then drains the session and reports the
/// per-class admission tallies and the observed ingest→visible p99.
fn serve_front_door<A: Algorithm<Value = f64> + 'static>(
    addr: &str,
    session: StreamSession<A>,
    admission: &std::sync::Arc<AdmissionController>,
    opts: &Options,
    report: &mut String,
) -> Result<graphbolt_core::SessionOutcome<A>, String> {
    let session = std::sync::Arc::new(session);
    let door = FrontDoor::bind(
        addr,
        std::sync::Arc::clone(&session),
        std::sync::Arc::clone(admission),
        FrontDoorConfig {
            default_deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        },
    )
    .map_err(|e| format!("--listen {addr}: {e}"))?;
    let _ = writeln!(
        report,
        "front door: http://{} (POST /update /batch /shutdown, GET /query)",
        door.local_addr()
    );
    door.wait_shutdown();
    door.shutdown();
    let snap = admission.snapshot();
    for class in graphbolt_core::admission::CLASSES {
        let stats = snap.classes[class.index()];
        let _ = writeln!(
            report,
            "admission[{class}]: {} admitted, {} shed",
            stats.admitted, stats.shed
        );
    }
    let hist = session.engine_stats().metrics().ingest_visible_latency_ns.snapshot();
    if hist.count > 0 {
        let _ = writeln!(
            report,
            "ingest->visible latency: p99 {:.3} ms over {} samples",
            hist.quantile(0.99) as f64 / 1e6,
            hist.count
        );
    }
    std::sync::Arc::into_inner(session)
        .ok_or_else(|| "front door still holds the session after shutdown".to_string())?
        .finish()
        .map_err(|e| e.to_string())
}

/// The `--metrics-addr` of a `stats` / `trace` run.
fn observed_addr(opts: &Options) -> Result<&str, String> {
    opts.metrics_addr
        .as_deref()
        .ok_or_else(|| format!("{} requires --metrics-addr", opts.algorithm))
}

/// `gbolt stats`: scrape a running serve-mode session's metrics.
fn run_stats(opts: &Options) -> Result<String, String> {
    let body = http_get(observed_addr(opts)?, "/metrics/json")?;
    Ok(pretty_json(&body))
}

/// `gbolt trace`: dump a running serve-mode session's flight recorder
/// (recent span trees) and its latest per-batch critical-path report.
fn run_trace(opts: &Options) -> Result<String, String> {
    let addr = observed_addr(opts)?;
    let (flight, critical) = (http_get(addr, "/debug/flight")?, http_get(addr, "/debug/critical")?);
    Ok(format!(
        "flight:\n{}critical:\n{}",
        pretty_json(&flight),
        pretty_json(&critical)
    ))
}

/// Minimal HTTP/1.1 GET against `addr`, returning the response body.
/// Enough for the loopback metrics endpoint; not a general client.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes())
        .map_err(|e| format!("request to {addr} failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("response from {addr} failed: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(format!("{addr}{path} answered: {status}"));
    }
    Ok(body.to_string())
}

/// Indentation-by-nesting pretty printer for the metrics JSON (which
/// contains no nested strings with braces beyond its own values).
fn pretty_json(json: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in json.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

fn initial_engine<A: Algorithm>(
    graph: GraphSnapshot,
    alg: A,
    engine_opts: EngineOptions,
    report: &mut String,
) -> StreamingEngine<A> {
    let mut engine = StreamingEngine::new(graph, alg, engine_opts);
    let t = std::time::Instant::now();
    engine.run_initial();
    let _ = writeln!(report, "initial run: {:?}", t.elapsed());
    engine
}

fn drive_vector<A: Algorithm<Value = Vec<f64>>>(
    graph: GraphSnapshot,
    batches: Vec<MutationBatch>,
    alg: A,
    engine_opts: EngineOptions,
    opts: &Options,
) -> Result<String, String> {
    let mut report = header(&graph, &batches);
    let engine = drive_engine(graph, batches, alg, engine_opts, &mut report)?;
    maybe_write_values(
        opts,
        engine
            .values()
            .iter()
            .map(|dist| format!("{}", LabelPropagation::argmax(dist))),
    )?;
    let mut counts = std::collections::HashMap::new();
    for dist in engine.values() {
        *counts
            .entry(LabelPropagation::argmax(dist))
            .or_insert(0usize) += 1;
    }
    let mut sizes: Vec<_> = counts.into_iter().collect();
    sizes.sort();
    let _ = writeln!(report, "label sizes: {sizes:?}");
    Ok(report)
}

fn drive_triangles(
    graph: GraphSnapshot,
    batches: Vec<MutationBatch>,
    opts: &Options,
) -> Result<String, String> {
    let mut report = header(&graph, &batches);
    let t = std::time::Instant::now();
    let mut tc = TriangleCounter::new(&graph);
    let _ = writeln!(report, "initial count: {:?}", t.elapsed());
    let mut g = graph;
    for (i, raw) in batches.into_iter().enumerate() {
        let batch = raw.normalize_against(&g);
        if batch.is_empty() {
            continue;
        }
        let t = std::time::Instant::now();
        tc.apply_batch(&batch);
        g = g.apply(&batch).map_err(|e| format!("batch {i}: {e}"))?;
        let _ = writeln!(
            report,
            "batch {i}: {} mutations adjusted in {:?}, {} directed 3-cycles",
            batch.len(),
            t.elapsed(),
            tc.directed_cycles()
        );
    }
    let _ = writeln!(report, "directed 3-cycles: {}", tc.directed_cycles());
    maybe_write_values(opts, std::iter::once(format!("{}", tc.directed_cycles())))?;
    Ok(report)
}

fn min_max(vals: &[f64]) -> (f64, f64) {
    let finite = vals.iter().copied().filter(|v| v.is_finite());
    let min = finite.clone().fold(f64::INFINITY, f64::min);
    let max = finite.fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

fn maybe_write_values(opts: &Options, lines: impl Iterator<Item = String>) -> Result<(), String> {
    let Some(path) = &opts.output else {
        return Ok(());
    };
    use std::io::Write;
    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(f);
    for (v, line) in lines.enumerate() {
        writeln!(w, "{v}\t{line}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbolt_graph::Edge;

    fn write_sample_graph(dir: &Path) -> String {
        let path = dir.join("g.txt");
        io::write_edge_list(
            &path,
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 0, 1.0),
                Edge::new(2, 3, 1.0),
            ],
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gbolt-test-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_requires_graph() {
        let err = Options::parse(["pagerank".to_string()]).unwrap_err();
        assert!(err.contains("--graph"));
    }

    #[test]
    fn parse_full_command_line() {
        let opts = Options::parse(
            [
                "sssp",
                "--graph",
                "g.txt",
                "--source",
                "3",
                "--iterations",
                "12",
                "--cutoff",
                "5",
                "--symmetric",
                "--threads",
                "4",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.algorithm, "sssp");
        assert_eq!(opts.source, 3);
        assert_eq!(opts.iterations, 12);
        assert_eq!(opts.cutoff, Some(5));
        assert!(opts.symmetric);
        assert_eq!(opts.threads, Some(4));
    }

    #[test]
    fn parse_rejects_zero_threads() {
        let err = Options::parse(
            ["pagerank", "--graph", "g.txt", "--threads", "0"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn parse_serve_flags() {
        let opts = Options::parse(
            [
                "pagerank",
                "--graph",
                "g.txt",
                "--serve",
                "--queue-capacity",
                "128",
                "--checkpoint-dir",
                "/tmp/ck",
                "--checkpoint-every",
                "2",
                "--memory-budget",
                "1048576",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(opts.serve);
        assert_eq!(opts.queue_capacity, Some(128));
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(opts.checkpoint_every, 2);
        assert_eq!(opts.memory_budget, Some(1 << 20));
    }

    #[test]
    fn parse_front_door_flags() {
        let opts = Options::parse(
            [
                "pagerank",
                "--graph",
                "g.txt",
                "--serve",
                "--listen",
                "127.0.0.1:0",
                "--admit-interactive",
                "50:100",
                "--admit-bulk",
                "5",
                "--deadline-ms",
                "250",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.admit_interactive, Some(BucketConfig::new(50.0, 100.0)));
        // A bare RATE defaults burst to the rate.
        assert_eq!(opts.admit_bulk, Some(BucketConfig::new(5.0, 5.0)));
        assert_eq!(opts.admit_best_effort, None);
        assert_eq!(opts.deadline_ms, Some(250));
    }

    #[test]
    fn parse_rejects_listen_without_serve() {
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--listen", "127.0.0.1:0"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--serve"), "{err}");
    }

    #[test]
    fn parse_rejects_admission_flags_without_listen() {
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--serve", "--admit-bulk", "5"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--serve", "--deadline-ms", "50"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--listen"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_bucket() {
        let err = Options::parse(
            [
                "pagerank",
                "--graph",
                "g",
                "--serve",
                "--listen",
                "127.0.0.1:0",
                "--admit-interactive",
                "fast",
            ]
            .map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("RATE[:BURST]"), "{err}");
    }

    #[test]
    fn parse_rejects_serve_flags_without_serve() {
        let err =
            Options::parse(["pagerank", "--graph", "g", "--checkpoint-dir", "d"].map(String::from))
                .unwrap_err();
        assert!(err.contains("--serve"), "{err}");
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--serve", "--resume"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn parse_rejects_telemetry_flags_without_serve() {
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--metrics-addr", "127.0.0.1:0"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--serve"), "{err}");
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--trace-out", "t.jsonl"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--serve"), "{err}");
    }

    #[test]
    fn observer_subcommands_need_an_address_not_a_graph() {
        for sub in ["stats", "trace"] {
            let err = Options::parse([sub.to_string()]).unwrap_err();
            assert!(err.contains("requires --metrics-addr"), "{err}");
            let opts = Options::parse([sub, "--metrics-addr", "127.0.0.1:9090"].map(String::from))
                .unwrap();
            assert_eq!(opts.algorithm, sub);
            assert_eq!(opts.metrics_addr.as_deref(), Some("127.0.0.1:9090"));
        }
    }

    #[test]
    fn parse_rejects_flight_out_without_serve() {
        let err = Options::parse(
            ["pagerank", "--graph", "g", "--flight-out", "f.jsonl"].map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("--serve"), "{err}");
    }

    #[test]
    fn stats_against_a_dead_address_reports_the_failure() {
        // Port 1 on loopback is essentially never listening.
        let err = run(&Options {
            algorithm: "stats".into(),
            metrics_addr: Some("127.0.0.1:1".into()),
            ..Options::default()
        })
        .unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        let err = Options::parse(["pagerank", "--graph", "g", "--frobnicate"].map(String::from))
            .unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn pagerank_end_to_end_with_stream() {
        let dir = tmpdir("pr");
        let graph = write_sample_graph(&dir);
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(3, 0, 1.0));
        let stream_path = dir.join("s.gbms");
        io::write_batches(&stream_path, &[batch]).unwrap();
        let out_path = dir.join("out.tsv");

        let opts = Options {
            algorithm: "pagerank".into(),
            graph,
            stream: Some(stream_path.to_string_lossy().into_owned()),
            output: Some(out_path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert!(report.contains("batch 0"), "{report}");
        let written = std::fs::read_to_string(out_path).unwrap();
        assert_eq!(written.lines().count(), 4);
    }

    #[test]
    fn serve_mode_checkpoints_and_resumes() {
        let dir = tmpdir("serve");
        let ck_dir = dir.join("ckpts");
        let _ = std::fs::remove_dir_all(&ck_dir);
        let graph = write_sample_graph(&dir);
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(3, 0, 1.0));
        let stream_path = dir.join("s.gbms");
        io::write_batches(&stream_path, &[batch]).unwrap();

        let opts = Options {
            algorithm: "pagerank".into(),
            graph: graph.clone(),
            stream: Some(stream_path.to_string_lossy().into_owned()),
            serve: true,
            queue_capacity: Some(16),
            checkpoint_dir: Some(ck_dir.to_string_lossy().into_owned()),
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert!(report.contains("1 checkpoint(s) written, 0 failed"), "{report}");
        assert!(report.contains("1 mutations applied"), "{report}");

        // Second run resumes from the checkpoint instead of recomputing,
        // applies a further batch, and must checkpoint it *after* seq 1 —
        // a resumed session continues the on-disk sequence.
        let mut batch2 = MutationBatch::new();
        batch2.add(Edge::new(0, 3, 1.0));
        let stream2_path = dir.join("s2.gbms");
        io::write_batches(&stream2_path, &[batch2]).unwrap();
        let opts = Options {
            resume: true,
            stream: Some(stream2_path.to_string_lossy().into_owned()),
            ..opts
        };
        let report = run(&opts).unwrap();
        assert!(report.contains("resumed from checkpoint 1"), "{report}");
        assert!(report.contains("1 checkpoint(s) written, 0 failed"), "{report}");

        // Third run recovers the *resumed* run's checkpoint, not the
        // stale pre-resume one.
        let opts = Options {
            stream: None,
            ..opts
        };
        let report = run(&opts).unwrap();
        assert!(report.contains("resumed from checkpoint 2"), "{report}");
        let _ = std::fs::remove_dir_all(&ck_dir);
    }

    #[test]
    fn serve_mode_with_memory_budget_degrades_but_stays_correct() {
        let dir = tmpdir("serve-budget");
        let graph = write_sample_graph(&dir);
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(3, 1, 1.0));
        let stream_path = dir.join("s.gbms");
        io::write_batches(&stream_path, &[batch.clone()]).unwrap();

        let base = Options {
            algorithm: "pagerank".into(),
            graph,
            stream: Some(stream_path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        let plain = run(&base).unwrap();
        let budgeted = run(&Options {
            serve: true,
            memory_budget: Some(1),
            ..base
        })
        .unwrap();
        assert!(budgeted.contains("degraded to DroppedStore"), "{budgeted}");
        // Identical final values line: degradation must not change results.
        let values_line = |r: &str| {
            r.lines()
                .find(|l| l.starts_with("values:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(values_line(&plain), values_line(&budgeted));
    }

    #[test]
    fn triangles_end_to_end() {
        let dir = tmpdir("tc");
        let graph = write_sample_graph(&dir);
        let opts = Options {
            algorithm: "triangles".into(),
            graph,
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert!(report.contains("directed 3-cycles: 1"), "{report}");
    }

    #[test]
    fn sssp_and_cc_run() {
        let dir = tmpdir("paths");
        let graph = write_sample_graph(&dir);
        for alg in ["sssp", "bfs", "sswp", "cc", "labelprop", "coem"] {
            let opts = Options {
                algorithm: alg.into(),
                graph: graph.clone(),
                ..Options::default()
            };
            let report = run(&opts).unwrap();
            assert!(report.contains("initial run"), "{alg}: {report}");
        }
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        let dir = tmpdir("bad");
        let graph = write_sample_graph(&dir);
        let opts = Options {
            algorithm: "florbs".into(),
            graph,
            ..Options::default()
        };
        assert!(run(&opts).is_err());
    }

    #[test]
    fn missing_file_is_reported() {
        let opts = Options {
            algorithm: "pagerank".into(),
            graph: "/nonexistent/graph.txt".into(),
            ..Options::default()
        };
        assert!(run(&opts).is_err());
    }

    #[test]
    fn out_of_range_source_is_rejected() {
        let dir = tmpdir("src-range");
        let graph = write_sample_graph(&dir);
        let opts = Options {
            algorithm: "sssp".into(),
            graph,
            source: 999,
            ..Options::default()
        };
        let err = run(&opts).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
