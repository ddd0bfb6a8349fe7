//! Span-tree integrity suite: every admitted front-door request yields
//! exactly one rooted, cycle-free span tree in the flight recorder,
//! with queue and service time separately attributed and summing
//! within the root span (DESIGN.md §10.2) — including through the
//! fault-injected quarantine → rebuild path. Batch trees record
//! structure adjustment, then tag → propagate → apply per iteration,
//! then the checkpoint, in that order; nothing is recorded while span
//! recording is off; and two sessions in one process never see each
//! other's metrics or traces.
//!
//! Each test reads its own session's recorder, so the tests run
//! concurrently.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use graphbolt_core::admission::{AdmissionConfig, AdmissionController};
use graphbolt_core::doctest_support::DocRank;
use graphbolt_core::telemetry::span::{CompletedTrace, TraceKind};
use graphbolt_core::{
    CheckpointPolicy, DegradeLevel, EngineOptions, EngineStats, F64Codec, FrontDoor,
    FrontDoorConfig, SessionConfig, StreamSession, StreamingEngine,
};
use graphbolt_graph::{Edge, GraphBuilder};

fn engine() -> StreamingEngine<DocRank> {
    let g = GraphBuilder::new(6)
        .add_edge(0, 1, 1.0)
        .add_edge(1, 2, 1.0)
        .add_edge(2, 3, 1.0)
        .add_edge(3, 4, 1.0)
        .add_edge(4, 5, 1.0)
        .add_edge(5, 0, 1.0)
        .build();
    let mut e = StreamingEngine::new(g, DocRank, EngineOptions::with_iterations(8));
    e.run_initial();
    e
}

fn door() -> (FrontDoor, Arc<StreamSession<DocRank>>) {
    let session = Arc::new(StreamSession::spawn(engine()));
    let controller = Arc::new(AdmissionController::new(AdmissionConfig::default()));
    let door = FrontDoor::bind(
        "127.0.0.1:0",
        Arc::clone(&session),
        controller,
        FrontDoorConfig::default(),
    )
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

/// The unsigned integer after `"key":` in a flat JSON object.
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle).unwrap_or_else(|| panic!("no {key} in {body}")) + needle.len();
    let digits: String = body[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} is not a number in {body}"))
}

/// The batch-kind trees of the flight ring, oldest first.
fn batch_trees(traces: &[CompletedTrace]) -> Vec<&CompletedTrace> {
    traces.iter().filter(|t| t.kind == TraceKind::Batch).collect()
}

/// Runs one untraced single-mutation session to completion under
/// `config`, recording spans when `traced`, and returns the engine's
/// telemetry handle.
fn run_one_batch(
    engine: StreamingEngine<DocRank>,
    config: SessionConfig<DocRank>,
    traced: bool,
) -> EngineStats {
    let stats = engine.stats().clone();
    if traced {
        stats.spans().enable();
    }
    let session = StreamSession::spawn_with(engine, config);
    session.add(Edge::new(1, 4, 1.0)).expect("enqueue");
    session.flush().expect("flush");
    drop(session.finish().expect("finish"));
    stats
}

/// Structural integrity of one completed tree: exactly one root (span 1,
/// parent 0), every other span parented on an already-allocated span —
/// sequential ids make any cycle impossible to express — and every
/// span's interval contained in the root's. When the request carried at
/// most one mutation the queue + service decomposition also sums within
/// the root span; multi-mutation requests accumulate one queue/service
/// pair per mutation and those waits overlap, so only containment (not
/// the sum) is a wall-clock invariant there.
fn assert_tree_integrity(t: &CompletedTrace) {
    let roots: Vec<_> = t.spans.iter().filter(|s| s.parent_span_id == 0).collect();
    assert_eq!(roots.len(), 1, "trace {} has {} roots", t.trace_id, roots.len());
    let root = roots[0];
    assert_eq!(root.span_id, 1, "root of trace {} is span 1", t.trace_id);

    let mut seen = std::collections::BTreeSet::new();
    seen.insert(1u64);
    for s in t.spans.iter().skip(1) {
        assert!(
            s.parent_span_id < s.span_id,
            "trace {}: span {} parents forward onto {} (cycle)",
            t.trace_id,
            s.span_id,
            s.parent_span_id
        );
        assert!(
            seen.contains(&s.parent_span_id),
            "trace {}: span {} has unknown parent {}",
            t.trace_id,
            s.span_id,
            s.parent_span_id
        );
        assert!(s.end_ns >= s.start_ns, "span {} ends before it starts", s.span_id);
        assert!(
            s.start_ns >= root.start_ns && s.end_ns <= root.end_ns,
            "trace {}: span {} [{}, {}] escapes the root [{}, {}]",
            t.trace_id,
            s.span_id,
            s.start_ns,
            s.end_ns,
            root.start_ns,
            root.end_ns
        );
        seen.insert(s.span_id);
    }

    let services = t.spans.iter().filter(|s| s.name == "service").count();
    if services <= 1 {
        assert!(
            t.queue_ns + t.service_ns <= t.total_ns,
            "trace {}: queue {} + service {} exceeds root total {}",
            t.trace_id,
            t.queue_ns,
            t.service_ns,
            t.total_ns
        );
    }
}

#[test]
fn every_admitted_update_yields_one_rooted_cycle_free_tree() {
    let (door, session) = door();
    let stats = session.engine_stats().clone();
    let addr = door.local_addr();
    for (id, dst) in [("alpha", 2), ("beta", 3), ("gamma", 4)] {
        let up = post(
            addr,
            "/update",
            &format!("X-Request-Id: {id}\r\n"),
            &format!("{{\"src\":0,\"dst\":{dst}}}"),
        );
        assert!(up.starts_with("HTTP/1.1 202"), "{up}");
    }
    let q = get(addr, "/query");
    assert!(q.starts_with("HTTP/1.1 200"), "{q}");
    // The served batches' time is accounted for, structure included.
    let critical = get(addr, "/debug/critical");
    let structure_ns = json_u64(&critical, "structure_ns");
    assert!(structure_ns > 0, "{critical}");
    assert!(
        structure_ns
            + json_u64(&critical, "tag_ns")
            + json_u64(&critical, "propagate_ns")
            + json_u64(&critical, "apply_ns")
            <= json_u64(&critical, "total_ns"),
        "phases exceed the batch root: {critical}"
    );
    let flight = get(addr, "/debug/flight");
    assert!(flight.contains("\"name\":\"structure\""), "{flight}");
    door.shutdown();
    drop(Arc::into_inner(session).expect("sole owner").finish().expect("finish"));

    let traces = stats.spans().flight_traces();
    for b in batch_trees(&traces) {
        let structure: Vec<_> = b.spans.iter().filter(|s| s.name == "structure").collect();
        assert_eq!(structure.len(), 1, "one structure span per batch: {b:?}");
        assert_eq!(structure[0].parent_span_id, 1, "parented on the batch root");
    }
    // Three updates plus the query, each a request-kind tree.
    let requests = traces.iter().filter(|t| t.kind == TraceKind::Request).count();
    assert_eq!(
        requests,
        4,
        "one tree per admitted request; ring holds: {:?}",
        traces.iter().map(|t| (t.kind.name(), t.status)).collect::<Vec<_>>()
    );
    // An `X-Request-Id` maps to its trace id by a pure hash, so
    // re-minting the same ids recovers each update's trace exactly.
    let updates: Vec<&CompletedTrace> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|id| {
            let ctx = stats.spans().mint(Some(id));
            let matches: Vec<_> = traces.iter().filter(|t| t.trace_id == ctx.trace_id).collect();
            assert_eq!(matches.len(), 1, "exactly one tree for request id {id}");
            matches[0]
        })
        .collect();

    for t in &traces {
        assert_tree_integrity(t);
    }
    for t in &updates {
        assert_eq!(t.status, "ok");
        assert!(t.service_ns > 0, "service time attributed");
        assert!(
            t.spans.iter().any(|s| s.name == "queue"),
            "queue wait attributed as its own span"
        );
        assert!(
            t.spans.iter().any(|s| s.name == "admit"),
            "admission hop recorded"
        );
    }
    assert_eq!(
        stats.metrics().span_orphans.get(),
        0,
        "no span may land on an unknown trace"
    );
}

#[test]
fn two_front_doors_report_only_their_own_session() {
    let ((door_a, a), (door_b, b)) = (door(), door());
    let (addr_a, addr_b) = (door_a.local_addr(), door_b.local_addr());
    // A serves one three-mutation batch and a query; B one update and a
    // query.
    let batch = "{\"mutations\":[{\"src\":0,\"dst\":2},{\"src\":1,\"dst\":3},{\"src\":2,\"dst\":4}]}";
    assert!(post(addr_a, "/batch", "", batch).starts_with("HTTP/1.1 202"));
    assert!(get(addr_a, "/query").starts_with("HTTP/1.1 200"));
    assert!(post(addr_b, "/update", "", "{\"src\":0,\"dst\":3}").starts_with("HTTP/1.1 202"));
    assert!(get(addr_b, "/query").starts_with("HTTP/1.1 200"));

    for (addr, applied, bulk) in [(addr_a, 3, 1), (addr_b, 1, 0)] {
        let metrics = get(addr, "/metrics/json");
        assert_eq!(json_u64(&metrics, "graphbolt_mutations_applied_total"), applied, "{metrics}");
        assert_eq!(json_u64(&metrics, "graphbolt_admit_bulk_total"), bulk, "{metrics}");
        let flight = get(addr, "/debug/flight");
        assert_eq!(flight.matches("\"kind\":\"request\"").count(), 2, "{flight}");
    }
    for (door, session) in [(door_a, a), (door_b, b)] {
        door.shutdown();
        drop(Arc::into_inner(session).expect("sole owner").finish().expect("finish"));
    }
}

#[test]
fn batch_fan_in_links_follow_from_each_request_once() {
    let (door, session) = door();
    let stats = session.engine_stats().clone();
    let addr = door.local_addr();
    let resp = post(
        addr,
        "/batch",
        "X-Request-Id: fan-in\r\n",
        "{\"mutations\":[{\"src\":0,\"dst\":2},{\"src\":1,\"dst\":3},{\"src\":2,\"dst\":4}]}",
    );
    assert!(resp.starts_with("HTTP/1.1 202"), "{resp}");
    let q = get(addr, "/query");
    assert!(q.starts_with("HTTP/1.1 200"), "{q}");
    door.shutdown();
    drop(Arc::into_inner(session).expect("sole owner").finish().expect("finish"));

    let traces = stats.spans().flight_traces();
    let ctx = stats.spans().mint(Some("fan-in"));
    let request = traces
        .iter()
        .find(|t| t.trace_id == ctx.trace_id)
        .expect("the batch request's tree completed");
    assert_eq!(request.kind, TraceKind::Request);
    assert_tree_integrity(request);

    // The refinement batch coalesced three mutations from one request:
    // its own trace links the request once (deduped), as follows-from
    // rather than as a parent.
    let batches: Vec<_> = traces.iter().filter(|t| t.kind == TraceKind::Batch).collect();
    assert!(!batches.is_empty(), "refinement produced a batch trace");
    let linked: Vec<_> = batches
        .iter()
        .filter(|b| b.follows_from.contains(&request.trace_id))
        .collect();
    assert!(!linked.is_empty(), "some batch must serve the request");
    for b in &linked {
        assert_eq!(
            b.follows_from.iter().filter(|&&id| id == request.trace_id).count(),
            1,
            "fan-in link is per request, not per mutation"
        );
        assert_tree_integrity(b);
    }
    // Request trees never carry follows-from links themselves.
    assert!(request.follows_from.is_empty());
}

/// A batch tree records, in span order: structure adjustment once, then
/// tag → propagate → apply for each tracked iteration in ascending
/// order; the critical-path report sums the same spans.
#[test]
fn batch_tree_orders_structure_then_tag_propagate_apply_per_iteration() {
    let stats = run_one_batch(engine(), SessionConfig::default(), true);
    let traces = stats.spans().flight_traces();
    let batches = batch_trees(&traces);
    assert_eq!(batches.len(), 1, "one flush, one batch tree");
    let b = batches[0];
    assert_eq!(b.status, "ok");
    assert_eq!(b.spans[0].name, "refine_batch");
    assert_tree_integrity(b);

    assert_eq!(b.spans[1].name, "structure", "structure precedes refinement");
    assert_eq!(b.spans[1].parent_span_id, 1);
    let phases: Vec<(u64, &str)> = b.spans[2..].iter().map(|s| (s.iteration, s.name)).collect();
    assert!(!phases.is_empty(), "tracked refinement must report phase spans");
    for (k, triple) in phases.chunks(3).enumerate() {
        let i = k as u64 + 1;
        assert_eq!(
            triple,
            [(i, "tag"), (i, "propagate"), (i, "apply")],
            "iteration {i} of {phases:?}"
        );
    }

    let r = stats.spans().critical_report();
    assert_eq!(r.trace_id, b.trace_id);
    assert!(r.structure_ns > 0);
    assert!(r.structure_ns + r.tag_ns + r.propagate_ns + r.apply_ns <= r.total_ns);
}

/// A batch served by the full-recompute path completes as `degraded`:
/// structure adjustment is still a span, refinement phases are not.
#[test]
fn degraded_batch_completes_with_degraded_status() {
    let mut degraded = engine();
    degraded.force_degrade(DegradeLevel::DroppedStore);
    let traces = run_one_batch(degraded, SessionConfig::default(), true).spans().flight_traces();
    let batches = batch_trees(&traces);
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].status, "degraded");
    let names: Vec<&str> = batches[0].spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["refine_batch", "structure"]);
}

/// The post-batch checkpoint is a span of the batch it follows,
/// recorded after that batch's last refinement phase.
#[test]
fn checkpoint_span_is_recorded_after_its_batch() {
    let dir = std::env::temp_dir().join(format!("gb-span-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stats = run_one_batch(
        engine(),
        SessionConfig {
            checkpoint: Some(CheckpointPolicy::new(&dir, 1, 1, F64Codec, F64Codec)),
            ..SessionConfig::default()
        },
        true,
    );
    let traces = stats.spans().flight_traces();
    let batches = batch_trees(&traces);
    assert_eq!(batches.len(), 1);
    let b = batches[0];
    assert_tree_integrity(b);
    let last = b.spans.last().expect("non-empty tree");
    assert_eq!(last.name, "checkpoint", "{:?}", b.spans);
    assert_eq!(last.parent_span_id, 1);
    assert_eq!(b.spans.iter().filter(|s| s.name == "checkpoint").count(), 1);
    assert!(b.spans.iter().any(|s| s.name == "apply"), "refinement preceded it");
    assert!(stats.spans().critical_report().checkpoint_ns > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nothing_is_recorded_while_spans_are_disabled() {
    let stats = run_one_batch(engine(), SessionConfig::default(), false);
    let traces = stats.spans().flight_traces();
    assert!(traces.is_empty(), "{traces:?}");
    assert_eq!(stats.spans().critical_report().batches, 0);
}

#[cfg(feature = "fault-injection")]
mod quarantine {
    use super::*;
    use graphbolt_core::fault::FaultAction;
    use graphbolt_core::telemetry::span::FlightConfig;
    use graphbolt_graph::Edge;

    /// A panicking batch completes its request trees and its own tree
    /// with `quarantined` status — before the next batch is served — and
    /// auto-dumps the flight ring, and the session's rebuild leaves later
    /// requests tracing normally.
    #[test]
    fn quarantined_batch_completes_trees_and_dumps_flight_ring() {
        let session = StreamSession::spawn(engine());
        let stats = session.engine_stats().clone();
        let spans = stats.spans();
        spans.enable();
        let dump_path = std::env::temp_dir().join(format!(
            "gb-span-integrity-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&dump_path);
        spans
            .configure(FlightConfig {
                dump_path: Some(dump_path.clone()),
                ..FlightConfig::default()
            })
            .expect("no trace_out to create");

        let doomed = spans.mint(Some("doomed"));
        stats.faults().arm("refine::start", FaultAction::Panic, 1);
        session
            .mutate_within(Edge::new(0, 3, 1.0), true, None, doomed)
            .expect("enqueue");
        session.flush().expect("flush");
        // The rebuilt session serves a traced mutation normally.
        let healthy = spans.mint(Some("healthy"));
        session
            .mutate_within(Edge::new(1, 4, 1.0), true, None, healthy)
            .expect("enqueue after rebuild");
        let outcome = session.finish().expect("finish");
        assert_eq!(outcome.stats.panics_recovered, 1);
        assert_eq!(outcome.dead_letters.len(), 1);
        assert_eq!(outcome.dead_letters[0].batch.len(), 1);
        assert!(
            outcome.dead_letters[0].reason.contains("injected fault"),
            "dead letter records the panic message: {}",
            outcome.dead_letters[0].reason
        );

        let traces = spans.flight_traces();
        // The ring is in completion order: the quarantined batch closed
        // before the rebuilt engine served the next one.
        let statuses: Vec<&str> = batch_trees(&traces).iter().map(|b| b.status).collect();
        assert_eq!(statuses, ["quarantined", "ok"]);
        let doomed_tree = traces
            .iter()
            .find(|t| t.trace_id == doomed.trace_id)
            .expect("quarantined request tree completed");
        assert_eq!(doomed_tree.status, "quarantined");
        assert_tree_integrity(doomed_tree);

        let healthy_tree = traces
            .iter()
            .find(|t| t.trace_id == healthy.trace_id)
            .expect("post-rebuild request tree completed");
        assert_eq!(healthy_tree.status, "ok");
        assert_tree_integrity(healthy_tree);
        assert!(healthy_tree.service_ns > 0);

        assert!(
            stats.metrics().span_flight_dumps.get() > 0,
            "quarantine triggers an automatic dump"
        );
        let dumped = std::fs::read_to_string(&dump_path).expect("dump file written");
        assert!(
            dumped.lines().any(|l| l.contains("\"dump_reason\":\"quarantine\"")),
            "dump lines are tagged with the trigger: {dumped}"
        );
        let _ = std::fs::remove_file(&dump_path);
    }
}
