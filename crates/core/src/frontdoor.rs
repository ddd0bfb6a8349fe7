//! The network front door: HTTP/JSON ingress for a live
//! [`StreamSession`] with per-class admission control, request
//! deadlines, and a singleton fast path (DESIGN.md §11).
//!
//! With it, `--serve` stops being a local replay loop and becomes a
//! service. The door reuses the std-only HTTP machinery from
//! [`telemetry::http`] — one accept thread, one request per connection,
//! `Connection: close` — because the protocol work per request (a few
//! hundred bytes of JSON) is dwarfed by the refinement work behind it;
//! an async runtime would buy nothing but a dependency. The metrics and
//! span trees it serves and records are its session's own
//! ([`StreamSession::engine_stats`]), never another session's in the
//! same process.
//!
//! Request lifecycle, in order:
//!
//! 1. **Accept** (fault site `frontdoor::accept`): the connection gets
//!    read/write timeouts so a stalled client cannot wedge the door.
//! 2. **Parse** (fault site `frontdoor::parse`): request line, headers,
//!    `Content-Length` body; malformed requests get `400`.
//! 3. **Admit**: the request's [`ClientClass`] (header
//!    `X-Client-Class`, defaulting per endpoint) pays its cost — 1 for
//!    singletons and queries, the mutation count for batches — into the
//!    class's token bucket. A losing request gets `429` with a typed
//!    [`RetryAfter`] body and `Retry-After-Ms` header, *before* touching
//!    queue capacity. Degraded sessions tighten the non-interactive
//!    buckets automatically (see [`AdmissionController`]).
//! 4. **Deadline** (header `X-Deadline-Ms`, else the configured
//!    default): propagated into the session so an expired command is
//!    shed at submit or dequeue, never serviced late; the client sees
//!    `504`.
//! 5. **Serve**: singletons ride [`StreamSession::singleton`] (batch
//!    bypass), batches coalesce as usual, queries run between batches.
//!
//! The JSON dialect is deliberately flat (no nesting, no escapes in the
//! accepted fields) and hand-parsed — the repo vendors no serde.

// Owns the accept-loop thread and its scoped per-connection handlers.
#![allow(clippy::disallowed_methods)]

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphbolt_engine::parallel::WorkCounter;
use graphbolt_graph::Edge;

use crate::admission::{AdmissionController, ClientClass, RetryAfter};
use crate::algorithm::Algorithm;
use crate::session::{SessionError, StreamSession};
use crate::telemetry;
use crate::telemetry::http::{respond, route_observability, Request};
use crate::telemetry::span::Spans;

/// Front-door tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontDoorConfig {
    /// Deadline applied when a request carries no `X-Deadline-Ms`
    /// header. `None` means no implicit deadline.
    pub default_deadline: Option<Duration>,
}

/// Handle to a running front door. Dropping it (or calling
/// [`FrontDoor::shutdown`]) stops the accept loop.
#[derive(Debug)]
pub struct FrontDoor {
    addr: SocketAddr,
    /// 1 once shutdown is requested; the accept loop re-checks after
    /// every connection.
    stop: Arc<WorkCounter>,
    /// 1 once a client POSTed `/shutdown`; [`FrontDoor::wait_shutdown`]
    /// polls it.
    shutdown_requested: Arc<WorkCounter>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FrontDoor {
    /// Binds `addr` and starts serving `session` behind `admission` on a
    /// background thread (port 0 for OS-assigned; see
    /// [`FrontDoor::local_addr`]).
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or spawning the thread.
    pub fn bind<A>(
        addr: impl ToSocketAddrs,
        session: Arc<StreamSession<A>>,
        admission: Arc<AdmissionController>,
        config: FrontDoorConfig,
    ) -> std::io::Result<Self>
    where
        A: Algorithm<Value = f64> + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // A live front door turns its session's causal tracing on: every
        // admitted request gets a span tree in the flight recorder.
        // Engine-only and bench paths never bind a door and pay one load
        // per site.
        session.engine_stats().spans().enable();
        let stop = Arc::new(WorkCounter::new());
        let shutdown_requested = Arc::new(WorkCounter::new());
        let stop_thread = Arc::clone(&stop);
        let shutdown_thread = Arc::clone(&shutdown_requested);
        let handle = std::thread::Builder::new()
            .name("gb-frontdoor".to_string())
            .spawn(move || {
                accept_loop(
                    listener,
                    &stop_thread,
                    &shutdown_thread,
                    &session,
                    &admission,
                    config,
                );
            })?;
        Ok(Self {
            addr,
            stop,
            shutdown_requested,
            handle: Some(handle),
        })
    }

    /// The socket actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client has POSTed `/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.get() != 0
    }

    /// Blocks until a client POSTs `/shutdown` (polled; the door keeps
    /// serving while this waits).
    pub fn wait_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.set(1);
        // Wake the blocking accept with a throwaway connection; if the
        // connect fails the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<A>(
    listener: TcpListener,
    stop: &WorkCounter,
    shutdown_requested: &WorkCounter,
    session: &StreamSession<A>,
    admission: &AdmissionController,
    config: FrontDoorConfig,
) where
    A: Algorithm<Value = f64> + 'static,
{
    // Scoped handler threads: each accepted connection is served on its
    // own thread, so one slow client (the per-request read timeout is
    // 2 s) cannot head-of-line-block every other pending connection.
    // The scope joins all in-flight handlers before accept_loop returns,
    // so shutdown still drains cleanly. Admission control bounds the
    // work each handler can enqueue; connection counts stay modest at
    // this tier (the overload path sheds with 429 before threads pile
    // up).
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.get() != 0 {
                break;
            }
            let Ok(mut stream) = conn else {
                continue;
            };
            if crate::fault::fire_error(session.engine_stats(), "frontdoor::accept") {
                // Injected accept fault: the client sees a dropped
                // connection, the session sees nothing.
                continue;
            }
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            scope.spawn(move || {
                serve_one(&mut stream, shutdown_requested, session, admission, config);
            });
        }
    });
}

/// One JSON error body.
fn error_body(kind: &str, detail: &str) -> String {
    format!("{{\"error\":\"{kind}\",\"detail\":\"{detail}\"}}")
}

/// The typed 429 response for a shed request.
fn respond_retry_after(stream: &mut TcpStream, err: &RetryAfter) {
    let body = format!(
        "{{\"error\":\"retry_after\",\"class\":\"{}\",\"millis\":{}}}",
        err.class.name(),
        err.millis,
    );
    let secs = err.millis.div_ceil(1000).max(1);
    respond(
        stream,
        "429 Too Many Requests",
        "application/json",
        &[
            ("Retry-After", secs.to_string()),
            ("Retry-After-Ms", err.millis.to_string()),
        ],
        &body,
    );
}

/// Maps a session-side submission failure onto the wire.
fn respond_session_error(stream: &mut TcpStream, err: &SessionError) {
    match err {
        SessionError::DeadlineExceeded => respond(
            stream,
            "504 Gateway Timeout",
            "application/json",
            &[],
            &error_body("deadline_exceeded", "deadline expired before service"),
        ),
        SessionError::QueueFull => respond(
            stream,
            "503 Service Unavailable",
            "application/json",
            &[("Retry-After", "1".to_string())],
            &error_body("queue_full", "ingestion queue is full"),
        ),
        SessionError::WorkerGone | SessionError::Injected => respond(
            stream,
            "500 Internal Server Error",
            "application/json",
            &[],
            &error_body("session_error", &err.to_string()),
        ),
    }
}

/// Per-request context: class + deadline parsed from headers, plus the
/// causal trace minted for this request at the front door.
struct RequestContext {
    class: ClientClass,
    deadline: Option<Instant>,
    trace: telemetry::TraceCtx,
}

/// Resolves class and deadline headers; `default_class` is the
/// endpoint's class when the client names none. A malformed header is a
/// parse error (the caller answers 400) rather than a silent default —
/// misclassified traffic would dodge its bucket. `trace` is the span
/// context the handler minted before parsing (so parse failures can
/// still conclude the trace).
fn request_context(
    request: &Request,
    default_class: ClientClass,
    config: FrontDoorConfig,
    trace: telemetry::TraceCtx,
) -> Result<RequestContext, String> {
    let class = match request.header("x-client-class") {
        Some(raw) => {
            ClientClass::parse(raw).ok_or_else(|| format!("unknown client class `{raw}`"))?
        }
        None => default_class,
    };
    let deadline = match request.header("x-deadline-ms") {
        Some(raw) => {
            let millis: u64 = raw
                .parse()
                .map_err(|_| format!("bad X-Deadline-Ms `{raw}`"))?;
            Some(Instant::now() + Duration::from_millis(millis))
        }
        None => config.default_deadline.map(|d| Instant::now() + d),
    };
    Ok(RequestContext { class, deadline, trace })
}

/// How far past the committed vertex count a request may name a vertex.
/// An accepted mutation grows the id space to its larger endpoint, and
/// every per-vertex array with it, so without a cap one request naming
/// vertex 2^32 - 1 asks the worker for ~2^32 slots and aborts the
/// service. Trusted callers (library, stream replay) are not capped.
const MAX_ID_GROWTH: u64 = 1 << 20;

/// One parsed mutation from a request body.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WireMutation {
    src: u32,
    dst: u32,
    weight: f64,
    add: bool,
}

impl WireMutation {
    fn edge(&self) -> Edge {
        Edge::new(self.src, self.dst, self.weight)
    }

    /// Refuses an endpoint at or past `vertices + MAX_ID_GROWTH`, where
    /// `vertices` is the session's committed vertex count.
    fn check_id_growth(&self, vertices: u64) -> Result<(), String> {
        let far = u64::from(self.src.max(self.dst));
        if far < vertices + MAX_ID_GROWTH {
            return Ok(());
        }
        Err(format!(
            "vertex {far} is outside the id space ({vertices} vertices + growth cap {MAX_ID_GROWTH})"
        ))
    }
}

/// Parses one flat JSON object (`{"src":0,"dst":3,"weight":1.5,
/// "op":"add"}`) into a mutation. `weight` defaults to 1.0, `op` to
/// `add`. No nesting and no escaped strings — the accepted fields are
/// numbers and the two op literals.
fn parse_mutation(obj: &str) -> Result<WireMutation, String> {
    let inner = obj
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("mutation is not a JSON object")?;
    parse_fields(inner)
}

/// Parses the comma-separated `"key":value` fields between a mutation
/// object's braces.
fn parse_fields(inner: &str) -> Result<WireMutation, String> {
    let mut src: Option<u32> = None;
    let mut dst: Option<u32> = None;
    let mut weight = 1.0f64;
    let mut add = true;
    for field in inner.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("bad field `{field}`"))?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "src" => {
                src = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad src `{value}`"))?,
                );
            }
            "dst" => {
                dst = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad dst `{value}`"))?,
                );
            }
            "weight" => {
                weight = value
                    .parse()
                    .map_err(|_| format!("bad weight `{value}`"))?;
            }
            "op" => match value.trim_matches('"') {
                "add" => add = true,
                "delete" => add = false,
                other => return Err(format!("bad op `{other}`")),
            },
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    Ok(WireMutation {
        src: src.ok_or_else(|| "missing src".to_string())?,
        dst: dst.ok_or_else(|| "missing dst".to_string())?,
        weight,
        add,
    })
}

/// Parses a `{"mutations":[{...},{...}]}` batch body. Mutation objects
/// are flat, so splitting on braces is unambiguous.
fn parse_batch(body: &str) -> Result<Vec<WireMutation>, String> {
    let missing = || "missing mutations array".to_string();
    let open = body.find('[').ok_or_else(missing)?;
    let close = body
        .rfind(']')
        .ok_or_else(|| "unterminated mutations array".to_string())?;
    // `get` is `None` exactly when the last `]` precedes the first `[`.
    let (Some(head), Some(mut rest)) = (body.get(..open), body.get(open + 1..close)) else {
        return Err(missing());
    };
    if !head.contains("\"mutations\"") {
        return Err(missing());
    }
    let mut mutations = Vec::new();
    while let Some((_, object)) = rest.split_once('{') {
        let (fields, after) = object
            .split_once('}')
            .ok_or_else(|| "unterminated mutation object".to_string())?;
        mutations.push(parse_fields(fields)?);
        rest = after;
    }
    Ok(mutations)
}

/// JSON-safe rendering of one vertex value (non-finite → `null`).
fn render_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn serve_one<A>(
    stream: &mut TcpStream,
    shutdown_requested: &WorkCounter,
    session: &StreamSession<A>,
    admission: &AdmissionController,
    config: FrontDoorConfig,
) where
    A: Algorithm<Value = f64> + 'static,
{
    let Some(request) = Request::read_from(stream) else {
        // Not intelligible HTTP; nothing useful to answer.
        return;
    };
    if crate::fault::fire_error(session.engine_stats(), "frontdoor::parse") {
        respond(
            stream,
            "400 Bad Request",
            "application/json",
            &[],
            &error_body("bad_request", "injected parse fault"),
        );
        return;
    }
    // Observability routes bypass admission: shedding the metrics
    // scrape during overload would blind the operator exactly when the
    // numbers matter.
    if let Some((status, content_type, body)) =
        route_observability(request.path(), session.engine_stats())
    {
        respond(stream, status, content_type, &[], &body);
        return;
    }
    match (request.method.as_str(), request.path()) {
        ("POST", "/update") => serve_update(stream, &request, session, admission, config),
        ("POST", "/batch") => serve_batch(stream, &request, session, admission, config),
        ("GET", "/query") => serve_query(stream, &request, session, admission, config),
        ("POST", "/shutdown") => {
            shutdown_requested.set(1);
            respond(
                stream,
                "200 OK",
                "application/json",
                &[],
                "{\"status\":\"shutting down\"}",
            );
        }
        _ => respond(
            stream,
            "404 Not Found",
            "application/json",
            &[],
            &error_body("not_found", request.path()),
        ),
    }
}

/// Admission at the door: the controller decides (or the
/// `admission::admit` fault sheds), and the door records the decision in
/// the session's `admit` / `shed` / `retry_after` counters and the
/// request's span tree.
fn admit<A: Algorithm + 'static>(
    session: &StreamSession<A>,
    admission: &AdmissionController,
    class: ClientClass,
    cost: f64,
    trace: telemetry::TraceCtx,
) -> Result<(), RetryAfter> {
    let stats = session.engine_stats();
    let start = Instant::now();
    let outcome = if crate::fault::fire_error(stats, "admission::admit") {
        Err(admission.refuse(class))
    } else {
        admission.admit(class, cost)
    };
    let (m, i) = (stats.metrics(), class.index());
    match outcome {
        Ok(()) => {
            if let Some(c) = m.admit.get(i) {
                c.inc();
            }
            stats.spans().child(trace, "admit", start, Instant::now());
        }
        Err(_) => {
            for c in [&m.shed, &m.retry_after]
                .into_iter()
                .filter_map(|cs| cs.get(i))
            {
                c.inc();
            }
            stats.spans().shed(trace, "admission_shed");
        }
    }
    outcome
}

/// `POST /update` — one mutation on the singleton fast path
/// (interactive by default, admission cost 1).
fn serve_update<A>(
    stream: &mut TcpStream,
    request: &Request,
    session: &StreamSession<A>,
    admission: &AdmissionController,
    config: FrontDoorConfig,
) where
    A: Algorithm<Value = f64> + 'static,
{
    let spans: Spans<'_> = session.engine_stats().spans();
    let trace = spans.mint(request.header("x-request-id"));
    let ctx = match request_context(request, ClientClass::Interactive, config, trace) {
        Ok(ctx) => ctx,
        Err(detail) => {
            spans.complete(trace, "bad_request");
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &[],
                &error_body("bad_request", &detail),
            );
            return;
        }
    };
    let mutation = match std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(parse_mutation)
        .and_then(|m| m.check_id_growth(session.committed_vertices()).map(|()| m))
    {
        Ok(m) => m,
        Err(detail) => {
            spans.complete(trace, "bad_request");
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &[],
                &error_body("bad_request", &detail),
            );
            return;
        }
    };
    if let Err(err) = admit(session, admission, ctx.class, 1.0, ctx.trace) {
        respond_retry_after(stream, &err);
        return;
    }
    match session.singleton(mutation.edge(), mutation.add, ctx.deadline, ctx.trace) {
        Ok(()) => respond(
            stream,
            "202 Accepted",
            "application/json",
            &[],
            "{\"accepted\":1,\"fast_path\":true}",
        ),
        Err(err) => {
            // Deadline sheds already concluded the trace; any other
            // session failure ends it here so it cannot leak as active.
            spans.complete(ctx.trace, "session_error");
            respond_session_error(stream, &err);
        }
    }
}

/// `POST /batch` — a mutation batch through the coalescing buffer (bulk
/// by default; admission cost = mutation count).
fn serve_batch<A>(
    stream: &mut TcpStream,
    request: &Request,
    session: &StreamSession<A>,
    admission: &AdmissionController,
    config: FrontDoorConfig,
) where
    A: Algorithm<Value = f64> + 'static,
{
    let spans: Spans<'_> = session.engine_stats().spans();
    let trace = spans.mint(request.header("x-request-id"));
    let ctx = match request_context(request, ClientClass::Bulk, config, trace) {
        Ok(ctx) => ctx,
        Err(detail) => {
            spans.complete(trace, "bad_request");
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &[],
                &error_body("bad_request", &detail),
            );
            return;
        }
    };
    let mutations = match std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(parse_batch)
    {
        Ok(m) if m.is_empty() => {
            spans.complete(trace, "bad_request");
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &[],
                &error_body("bad_request", "empty mutation batch"),
            );
            return;
        }
        Ok(m) => m,
        Err(detail) => {
            spans.complete(trace, "bad_request");
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &[],
                &error_body("bad_request", &detail),
            );
            return;
        }
    };
    // A batch pays for every mutation it carries: one bulk request
    // cannot starve the interactive class by hiding volume in a body.
    if let Err(err) = admit(
        session,
        admission,
        ctx.class,
        mutations.len() as f64,
        ctx.trace,
    ) {
        respond_retry_after(stream, &err);
        return;
    }
    let vertices = session.committed_vertices();
    let submit = |m: &WireMutation| {
        if m.check_id_growth(vertices).is_err() {
            return Err(("400 Bad Request", "vertex_out_of_range", "bad_request"));
        }
        // Every mutation of the batch rides the same trace: N queue /
        // service span pairs under one request root.
        session
            .mutate_within(m.edge(), m.add, ctx.deadline, ctx.trace)
            .map_err(|err| match err {
                SessionError::DeadlineExceeded => {
                    ("504 Gateway Timeout", "deadline_exceeded", "session_error")
                }
                SessionError::QueueFull => {
                    ("503 Service Unavailable", "queue_full", "session_error")
                }
                _ => (
                    "500 Internal Server Error",
                    "session_error",
                    "session_error",
                ),
            })
    };
    let mut accepted = 0usize;
    for m in &mutations {
        if let Err((status, error, span_status)) = submit(m) {
            // Partial acceptance is reported honestly: the client learns
            // how many mutations made it in before the error.
            spans.complete(ctx.trace, span_status);
            let body = format!(
                "{{\"error\":\"{error}\",\"accepted\":{accepted},\"submitted\":{}}}",
                mutations.len(),
            );
            respond(stream, status, "application/json", &[], &body);
            return;
        }
        accepted += 1;
    }
    respond(
        stream,
        "202 Accepted",
        "application/json",
        &[],
        &format!("{{\"accepted\":{accepted}}}"),
    );
}

/// `GET /query[?vertex=K]` — refined values (interactive by default,
/// admission cost 1). Serviced between batches, so the reply is always
/// a consistent BSP snapshot.
fn serve_query<A>(
    stream: &mut TcpStream,
    request: &Request,
    session: &StreamSession<A>,
    admission: &AdmissionController,
    config: FrontDoorConfig,
) where
    A: Algorithm<Value = f64> + 'static,
{
    let spans: Spans<'_> = session.engine_stats().spans();
    let trace = spans.mint(request.header("x-request-id"));
    let ctx = match request_context(request, ClientClass::Interactive, config, trace) {
        Ok(ctx) => ctx,
        Err(detail) => {
            spans.complete(trace, "bad_request");
            respond(
                stream,
                "400 Bad Request",
                "application/json",
                &[],
                &error_body("bad_request", &detail),
            );
            return;
        }
    };
    if let Err(err) = admit(session, admission, ctx.class, 1.0, ctx.trace) {
        respond_retry_after(stream, &err);
        return;
    }
    let service_start = Instant::now();
    let values = match session.query_within(ctx.deadline, ctx.trace) {
        Ok(values) => values,
        Err(err) => {
            spans.complete(ctx.trace, "session_error");
            respond_session_error(stream, &err);
            return;
        }
    };
    // Queries have no visibility event: the service span covers the
    // round-trip through the worker, and the tree completes here.
    spans.child(ctx.trace, "service", service_start, Instant::now());
    spans.complete(ctx.trace, "ok");
    let body = match request.query_param("vertex") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) => match values.get(v) {
                Some(value) => format!("{{\"vertex\":{v},\"value\":{}}}", render_value(*value)),
                None => {
                    respond(
                        stream,
                        "404 Not Found",
                        "application/json",
                        &[],
                        &error_body("not_found", &format!("vertex {v} out of range")),
                    );
                    return;
                }
            },
            Err(_) => {
                respond(
                    stream,
                    "400 Bad Request",
                    "application/json",
                    &[],
                    &error_body("bad_request", &format!("bad vertex `{raw}`")),
                );
                return;
            }
        },
        None => {
            let mut s = String::with_capacity(values.len() * 8 + 16);
            s.push_str("{\"values\":[");
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&render_value(*v));
            }
            s.push_str("]}");
            s
        }
    };
    respond(stream, "200 OK", "application/json", &[], &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, BucketConfig};
    use crate::algorithm::test_algorithms::TestRank;
    use crate::options::EngineOptions;
    use crate::streaming::StreamingEngine;
    use graphbolt_graph::GraphBuilder;
    use std::io::{Read as _, Write as _};

    fn spawn_session() -> Arc<StreamSession<TestRank>> {
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 4, 1.0)
            .add_edge(4, 0, 1.0)
            .build();
        let mut e = StreamingEngine::new(g, TestRank, EngineOptions::with_iterations(8));
        e.run_initial();
        Arc::new(StreamSession::spawn(e))
    }

    fn door(
        admission: AdmissionConfig,
        config: FrontDoorConfig,
    ) -> (FrontDoor, Arc<StreamSession<TestRank>>) {
        let session = spawn_session();
        let controller = Arc::new(AdmissionController::new(admission));
        let door = FrontDoor::bind("127.0.0.1:0", Arc::clone(&session), controller, config)
            .expect("bind front door");
        (door, session)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    fn post(addr: SocketAddr, path: &str, headers: &str, body: &str) -> String {
        roundtrip(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: test\r\n{headers}Content-Length: {}\r\n\r\n{body}",
                body.len(),
            ),
        )
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"))
    }

    #[test]
    fn update_batch_and_query_round_trip() {
        let (door, session) = door(AdmissionConfig::default(), FrontDoorConfig::default());
        let addr = door.local_addr();

        let up = post(addr, "/update", "", "{\"src\":0,\"dst\":3}");
        assert!(up.starts_with("HTTP/1.1 202"), "{up}");
        assert!(up.contains("\"fast_path\":true"));

        let batch = post(
            addr,
            "/batch",
            "",
            "{\"mutations\":[{\"src\":1,\"dst\":4},{\"src\":4,\"dst\":0,\"op\":\"delete\"}]}",
        );
        assert!(batch.starts_with("HTTP/1.1 202"), "{batch}");
        assert!(batch.contains("\"accepted\":2"));

        let all = get(addr, "/query");
        assert!(all.starts_with("HTTP/1.1 200"), "{all}");
        assert!(all.contains("\"values\":["));

        let one = get(addr, "/query?vertex=3");
        assert!(one.starts_with("HTTP/1.1 200"), "{one}");
        assert!(one.contains("\"vertex\":3"));

        let oob = get(addr, "/query?vertex=99");
        assert!(oob.starts_with("HTTP/1.1 404"), "{oob}");

        door.shutdown();
        let session = Arc::into_inner(session).expect("sole owner");
        let outcome = session.finish().expect("finish");
        assert!(outcome.engine.graph().has_edge(0, 3));
        assert!(outcome.engine.graph().has_edge(1, 4));
        assert!(!outcome.engine.graph().has_edge(4, 0));
        assert_eq!(outcome.stats.singletons, 1);
    }

    #[test]
    fn exhausted_bucket_returns_typed_retry_after() {
        // Bulk bucket with a single token: the second batch is shed.
        let admission = AdmissionConfig {
            bulk: BucketConfig::new(0.001, 1.0),
            ..AdmissionConfig::default()
        };
        let (door, session) = door(admission, FrontDoorConfig::default());
        let addr = door.local_addr();

        let first = post(addr, "/batch", "", "{\"mutations\":[{\"src\":0,\"dst\":3}]}");
        assert!(first.starts_with("HTTP/1.1 202"), "{first}");

        let second = post(addr, "/batch", "", "{\"mutations\":[{\"src\":1,\"dst\":4}]}");
        assert!(second.starts_with("HTTP/1.1 429"), "{second}");
        assert!(second.contains("Retry-After-Ms:"), "{second}");
        assert!(second.contains("\"error\":\"retry_after\""));
        assert!(second.contains("\"class\":\"bulk\""));

        // Interactive traffic is untouched by the bulk bucket.
        let q = get(addr, "/query");
        assert!(q.starts_with("HTTP/1.1 200"), "{q}");

        door.shutdown();
        drop(Arc::into_inner(session).expect("sole owner").finish());
    }

    #[test]
    fn expired_deadline_gets_504_without_mutating() {
        let (door, session) = door(AdmissionConfig::default(), FrontDoorConfig::default());
        let addr = door.local_addr();
        let up = post(
            addr,
            "/update",
            "X-Deadline-Ms: 0\r\n",
            "{\"src\":0,\"dst\":3}",
        );
        assert!(up.starts_with("HTTP/1.1 504"), "{up}");
        assert!(up.contains("deadline_exceeded"));
        door.shutdown();
        let outcome = Arc::into_inner(session)
            .expect("sole owner")
            .finish()
            .expect("finish");
        assert!(!outcome.engine.graph().has_edge(0, 3));
    }

    #[test]
    fn malformed_requests_get_400() {
        let (door, session) = door(AdmissionConfig::default(), FrontDoorConfig::default());
        let addr = door.local_addr();
        let bad_json = post(addr, "/update", "", "{\"src\":}");
        assert!(bad_json.starts_with("HTTP/1.1 400"), "{bad_json}");
        let bad_class = post(
            addr,
            "/update",
            "X-Client-Class: platinum\r\n",
            "{\"src\":0,\"dst\":1}",
        );
        assert!(bad_class.starts_with("HTTP/1.1 400"), "{bad_class}");
        let empty = post(addr, "/batch", "", "{\"mutations\":[]}");
        assert!(empty.starts_with("HTTP/1.1 400"), "{empty}");
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        door.shutdown();
        drop(Arc::into_inner(session).expect("sole owner").finish());
    }

    #[test]
    fn far_vertex_is_refused_at_the_door() {
        let (door, session) = door(AdmissionConfig::default(), FrontDoorConfig::default());
        let addr = door.local_addr();
        let before = get(addr, "/query");

        // Any u32 parses; accepted, this one asks `apply` + `refine` for
        // ~2^32 slots and takes the process down.
        let far = post(addr, "/update", "", "{\"src\":0,\"dst\":4294967295}");
        assert!(far.starts_with("HTTP/1.1 400"), "{far}");
        assert!(
            far.contains(
                "vertex 4294967295 is outside the id space (5 vertices + growth cap 1048576)"
            ),
            "{far}"
        );
        let at_cap = format!("{{\"src\":{},\"dst\":1}}", 5 + MAX_ID_GROWTH);
        assert!(post(addr, "/update", "", &at_cap).starts_with("HTTP/1.1 400"));
        assert_eq!(get(addr, "/query"), before, "served values unchanged");

        let batch = post(
            addr,
            "/batch",
            "",
            "{\"mutations\":[{\"src\":0,\"dst\":3},{\"src\":9000000,\"dst\":1},{\"src\":1,\"dst\":4}]}",
        );
        assert!(batch.starts_with("HTTP/1.1 400"), "{batch}");
        assert!(
            batch.contains("{\"error\":\"vertex_out_of_range\",\"accepted\":1,\"submitted\":3}"),
            "{batch}"
        );

        // The door keeps serving, and growth inside the cap is untouched.
        let near = post(addr, "/update", "", "{\"src\":0,\"dst\":7}");
        assert!(near.starts_with("HTTP/1.1 202"), "{near}");
        door.shutdown();
        let outcome = Arc::into_inner(session)
            .expect("sole owner")
            .finish()
            .expect("finish");
        assert_eq!(outcome.engine.graph().num_vertices(), 8);
        assert!(outcome.engine.graph().has_edge(0, 3));
        assert!(!outcome.engine.graph().has_edge(1, 4));
    }

    #[test]
    fn observability_routes_are_served_unadmitted() {
        // Zero-rate buckets shed everything — but scrapes still work.
        let admission = AdmissionConfig {
            interactive: BucketConfig::new(0.0, 0.0),
            bulk: BucketConfig::new(0.0, 0.0),
            best_effort: BucketConfig::new(0.0, 0.0),
        };
        let (door, session) = door(admission, FrontDoorConfig::default());
        let addr = door.local_addr();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        let prom = get(addr, "/metrics");
        assert!(prom.contains("graphbolt_admit_interactive_total"), "{prom}");
        let q = get(addr, "/query");
        assert!(q.starts_with("HTTP/1.1 429"), "{q}");
        door.shutdown();
        drop(Arc::into_inner(session).expect("sole owner").finish());
    }

    #[test]
    fn shutdown_endpoint_flags_the_door() {
        let (door, session) = door(AdmissionConfig::default(), FrontDoorConfig::default());
        let addr = door.local_addr();
        assert!(!door.shutdown_requested());
        let resp = post(addr, "/shutdown", "", "");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        door.wait_shutdown();
        assert!(door.shutdown_requested());
        door.shutdown();
        drop(Arc::into_inner(session).expect("sole owner").finish());
    }

    #[test]
    fn parse_mutation_handles_defaults_and_rejects_garbage() {
        let m = parse_mutation("{\"src\":3,\"dst\":7}").expect("parse");
        assert_eq!(
            m,
            WireMutation {
                src: 3,
                dst: 7,
                weight: 1.0,
                add: true
            }
        );
        let d = parse_mutation("{\"src\":1,\"dst\":2,\"weight\":0.5,\"op\":\"delete\"}")
            .expect("parse");
        assert!(!d.add);
        assert!((d.weight - 0.5).abs() < 1e-12);
        assert!(parse_mutation("{\"dst\":2}").is_err(), "missing src");
        assert!(parse_mutation("[1,2]").is_err(), "not an object");
        assert!(parse_mutation("{\"src\":1,\"dst\":2,\"op\":\"upsert\"}").is_err());
    }

    #[test]
    fn parse_batch_splits_flat_objects() {
        let b = parse_batch(
            "{\"mutations\":[{\"src\":0,\"dst\":1},{\"src\":2,\"dst\":3,\"op\":\"delete\"}]}",
        )
        .expect("parse");
        assert_eq!(b.len(), 2);
        assert!(b[0].add);
        assert!(!b[1].add);
        assert!(parse_batch("{\"edges\":[]}").is_err(), "wrong key");
        assert!(parse_batch("{\"mutations\":[{\"src\":0]}").is_err());
        assert_eq!(parse_batch("{\"mutations\":[]}").expect("empty"), vec![]);
    }

    #[test]
    fn parse_batch_error_strings_are_pinned() {
        // The 400 bodies clients see for unbalanced, empty and truncated
        // batch bodies.
        let err = |body: &str| parse_batch(body).expect_err(body);
        assert_eq!(err("{\"mutations\":]["), "missing mutations array");
        assert_eq!(err(""), "missing mutations array");
        assert_eq!(err("{\"edges\":[]}"), "missing mutations array");
        assert_eq!(err("{\"mutations\":[{\"src\":0"), "unterminated mutations array");
        assert_eq!(
            err("{\"mutations\":[{\"src\":0,\"dst\":1]}"),
            "unterminated mutation object"
        );
    }
}
