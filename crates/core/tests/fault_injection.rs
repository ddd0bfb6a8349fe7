//! Fault-injection acceptance suite (`--features fault-injection`).
//!
//! Each scenario arms its own engine's fault plan, so a plan is only
//! ever consumed by the test that armed it and the scenarios run
//! concurrently. Sites exercised:
//!
//! * `refine::start`     — panic mid-refinement → quarantine + recovery
//! * `checkpoint::write` — torn checkpoint → recovery skips to the
//!   previous good file
//! * `session::ingest`   — injected submission rejection
//! * `session::deadline` — queued mutation treated as expired → shed
//! * `admission::admit`  — request shed with a typed RetryAfter
//! * `frontdoor::accept` — accepted connection dropped on the floor
//! * `frontdoor::parse`  — well-formed request rejected as malformed
//!
//! The front-door and session scenarios all end the same way: the faulted
//! request leaves no trace in the session — the final graph and values
//! equal a from-scratch run on exactly the mutations that were *served*.
#![cfg(feature = "fault-injection")]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use graphbolt_core::doctest_support::DocRank;
use graphbolt_core::checkpoint::{
    parse_session_file, recover_session, write_session_checkpoint,
};
use graphbolt_core::fault::FaultAction;
use graphbolt_core::{
    run_bsp, AdmissionConfig, AdmissionController, CheckpointError, ClientClass, EngineOptions,
    EngineStats, ExecutionMode, F64Codec, FrontDoor, FrontDoorConfig, SessionError, StreamSession,
    StreamingEngine,
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

fn scratch_values(engine: &StreamingEngine<DocRank>) -> Vec<f64> {
    run_bsp(
        &DocRank,
        engine.graph(),
        engine.options(),
        ExecutionMode::Full,
        &EngineStats::new(),
    )
    .vals
}

/// Acceptance scenario 1: a panic injected mid-refinement is caught, the
/// offending batch lands in the dead-letter queue, and the next query
/// returns exactly the from-scratch result on the last good snapshot.
#[test]
fn injected_refine_panic_is_quarantined_and_session_keeps_serving() {
    let session = StreamSession::spawn(engine());

    session.engine_stats().faults().arm("refine::start", FaultAction::Panic, 1);
    session.add(Edge::new(0, 3, 1.0)).unwrap();
    session.flush().unwrap();

    // The poisoned batch must not be part of the served graph...
    let served = session.query().unwrap();

    // ...and the session must still accept and refine later batches.
    session.add(Edge::new(1, 4, 1.0)).unwrap();
    session.flush().unwrap();

    let outcome = session.finish().unwrap();
    assert_eq!(outcome.stats.panics_recovered, 1);
    assert_eq!(outcome.stats.batches_quarantined, 1);
    assert_eq!(outcome.stats.mutations_quarantined, 1);
    assert_eq!(outcome.stats.mutations_applied, 1, "second batch applied");
    assert_eq!(outcome.dead_letters.len(), 1);
    assert!(
        outcome.dead_letters[0].reason.contains("injected fault"),
        "dead letter records the panic message, got: {}",
        outcome.dead_letters[0].reason
    );
    assert_eq!(outcome.dead_letters[0].batch.additions().len(), 1);
    assert!(
        !outcome.engine.graph().has_edge(0, 3),
        "quarantined batch must not mutate the graph"
    );
    assert!(
        outcome.engine.graph().has_edge(1, 4),
        "post-recovery batch must land"
    );

    // The mid-session query served from-scratch-equal values on the last
    // good snapshot (the pre-panic graph: no (0,3), no (1,4) yet).
    let reference = engine();
    let expect = scratch_values(&reference);
    assert_eq!(served.len(), expect.len());
    for (a, b) in served.iter().zip(&expect) {
        assert!(
            (a - b).abs() < 1e-9,
            "recovered values equal from-scratch on last good snapshot"
        );
    }

    // And the final state matches from-scratch on the final graph.
    let expect = scratch_values(&outcome.engine);
    for (a, b) in outcome.engine.values().iter().zip(&expect) {
        assert!((a - b).abs() < 1e-7);
    }
}

/// A plan armed on one session's engine fires there only: the other
/// session in the process refines the same mutation to the from-scratch
/// values.
#[test]
fn a_fault_armed_on_one_session_panics_that_session_only() {
    let (doomed, healthy) = (StreamSession::spawn(engine()), StreamSession::spawn(engine()));
    doomed.engine_stats().faults().arm("refine::start", FaultAction::Panic, 1);
    for session in [&doomed, &healthy] {
        session.add(Edge::new(0, 3, 1.0)).unwrap();
        session.flush().unwrap();
    }
    assert_eq!(doomed.finish().unwrap().stats.panics_recovered, 1);
    let healthy = healthy.finish().unwrap();
    assert_eq!(healthy.stats.panics_recovered, 0);
    assert!(healthy.engine.graph().has_edge(0, 3));
    let expect = scratch_values(&healthy.engine);
    for (a, b) in healthy.engine.values().iter().zip(&expect) {
        assert!((a - b).abs() < 1e-7);
    }
}

/// Acceptance scenario 2: a truncated (torn) checkpoint write is detected
/// at recovery time and the session resumes from the previous good
/// checkpoint.
#[test]
fn truncated_checkpoint_is_skipped_in_favour_of_previous_good_one() {
    let dir = std::env::temp_dir().join("graphbolt-fault-trunc");
    let _ = std::fs::remove_dir_all(&dir);

    let mut e = engine();
    write_session_checkpoint(&dir, &e, 1, &F64Codec, &F64Codec).unwrap();
    let good_values = e.values().to_vec();

    // Checkpoint 2 is torn: the injector cuts the byte stream short.
    let mut batch = graphbolt_graph::MutationBatch::new();
    batch.add(Edge::new(0, 2, 1.0));
    e.apply_batch(&batch).unwrap();
    e.stats().faults().arm("checkpoint::write", FaultAction::Truncate(64), 1);
    write_session_checkpoint(&dir, &e, 2, &F64Codec, &F64Codec).unwrap();

    // The torn file is detected as damaged...
    let torn = std::fs::read(dir.join("ck-00000000000000000002.gbsf")).unwrap();
    assert_eq!(torn.len(), 64, "injected truncation happened");
    let err = parse_session_file(&torn).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Truncated | CheckpointError::Corrupted),
        "torn checkpoint must not parse, got: {err}"
    );

    // ...and recovery falls back to checkpoint 1.
    let rec = recover_session(&dir, DocRank, *e.options(), &F64Codec, &F64Codec)
        .unwrap()
        .expect("previous good checkpoint exists");
    assert_eq!(rec.seq, 1);
    assert_eq!(rec.skipped, 1);
    assert_eq!(rec.engine.values(), &good_values[..]);
    assert!(
        !rec.engine.graph().has_edge(0, 2),
        "recovered state predates the torn checkpoint"
    );

    // The recovered engine is live: it refines the lost batch again and
    // converges to the same state the original reached.
    let mut recovered = rec.engine;
    let mut batch = graphbolt_graph::MutationBatch::new();
    batch.add(Edge::new(0, 2, 1.0));
    recovered.apply_batch(&batch).unwrap();
    assert_eq!(recovered.values(), e.values());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario 3: an injected ingestion fault surfaces as a typed error and
/// leaves the session usable.
#[test]
fn injected_ingest_error_rejects_one_submission() {
    let session = StreamSession::spawn(engine());
    session.engine_stats().faults().arm("session::ingest", FaultAction::Error, 1);
    assert_eq!(
        session.try_add(Edge::new(0, 4, 1.0)),
        Err(SessionError::Injected)
    );
    // The plan is exhausted; the session serves normally afterwards.
    session.add(Edge::new(0, 4, 1.0)).unwrap();
    session.flush().unwrap();
    let outcome = session.finish().unwrap();
    assert_eq!(outcome.stats.mutations_applied, 1);
    assert!(outcome.engine.graph().has_edge(0, 4));
}

/// Spawns a front door over a fresh session, returning the controller so
/// tests can read its accounting directly.
fn front_door() -> (
    FrontDoor,
    Arc<StreamSession<DocRank>>,
    Arc<AdmissionController>,
) {
    let session = Arc::new(StreamSession::spawn(engine()));
    let controller = Arc::new(AdmissionController::new(AdmissionConfig::default()));
    let door = FrontDoor::bind(
        "127.0.0.1:0",
        Arc::clone(&session),
        Arc::clone(&controller),
        FrontDoorConfig::default(),
    )
    .expect("bind front door");
    (door, session, controller)
}

/// One raw HTTP exchange, tolerant of the server dropping the connection
/// (the injected-accept scenario): write errors are ignored and whatever
/// bytes arrive (possibly none) are returned.
fn exchange(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(raw.as_bytes());
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        ),
    )
}

/// Tears a door + session pair down and asserts the final state equals a
/// from-scratch run on the final graph — the "no corruption" acceptance
/// bar shared by every front-door fault scenario.
fn finish_and_check(
    door: FrontDoor,
    session: Arc<StreamSession<DocRank>>,
) -> graphbolt_core::SessionOutcome<DocRank> {
    door.shutdown();
    let outcome = Arc::into_inner(session)
        .expect("sole owner")
        .finish()
        .expect("finish");
    let expect = scratch_values(&outcome.engine);
    for (v, (a, b)) in outcome.engine.values().iter().zip(&expect).enumerate() {
        assert!(
            (a - b).abs() < 1e-7,
            "vertex {v}: served {a} vs from-scratch {b}"
        );
    }
    outcome
}

/// Scenario 4: an injected accept fault drops the connection before any
/// byte is parsed. The client sees a closed socket; the session neither
/// sees the mutation nor corrupts later traffic.
#[test]
fn injected_accept_fault_drops_the_connection_only() {
    let (door, session, _ctl) = front_door();
    let addr = door.local_addr();

    session.engine_stats().faults().arm("frontdoor::accept", FaultAction::Error, 1);
    let dropped = post(addr, "/update", "{\"src\":0,\"dst\":2}");
    assert!(
        dropped.is_empty(),
        "dropped connection must carry no response, got: {dropped}"
    );

    // The plan is exhausted; the same request now lands.
    let ok = post(addr, "/update", "{\"src\":0,\"dst\":2}");
    assert!(ok.starts_with("HTTP/1.1 202"), "{ok}");

    let outcome = finish_and_check(door, session);
    assert!(outcome.engine.graph().has_edge(0, 2));
    assert_eq!(outcome.stats.singletons, 1, "exactly one mutation served");
}

/// Scenario 5: an injected parse fault turns a well-formed request into a
/// 400. The mutation it carried must not reach the session.
#[test]
fn injected_parse_fault_rejects_without_mutating() {
    let (door, session, _ctl) = front_door();
    let addr = door.local_addr();

    session.engine_stats().faults().arm("frontdoor::parse", FaultAction::Error, 1);
    let rejected = post(addr, "/update", "{\"src\":1,\"dst\":3}");
    assert!(rejected.starts_with("HTTP/1.1 400"), "{rejected}");
    assert!(rejected.contains("injected parse fault"), "{rejected}");

    let ok = post(addr, "/update", "{\"src\":1,\"dst\":3}");
    assert!(ok.starts_with("HTTP/1.1 202"), "{ok}");

    let outcome = finish_and_check(door, session);
    assert!(outcome.engine.graph().has_edge(1, 3));
    assert_eq!(outcome.stats.singletons, 1, "400'd request never reached the session");
}

/// Scenario 6: an injected admission fault sheds one request with a typed
/// 429 before it touches queue capacity; the controller's accounting
/// records the shed and the session stays pristine.
#[test]
fn injected_admission_fault_sheds_with_retry_after() {
    let (door, session, ctl) = front_door();
    let addr = door.local_addr();

    session.engine_stats().faults().arm("admission::admit", FaultAction::Error, 1);
    let shed = post(addr, "/update", "{\"src\":2,\"dst\":4}");
    assert!(shed.starts_with("HTTP/1.1 429"), "{shed}");
    assert!(shed.contains("\"error\":\"retry_after\""), "{shed}");
    assert!(shed.contains("\"class\":\"interactive\""), "{shed}");

    let ok = post(addr, "/update", "{\"src\":2,\"dst\":4}");
    assert!(ok.starts_with("HTTP/1.1 202"), "{ok}");

    let snap = ctl.snapshot();
    let interactive = snap.classes[ClientClass::Interactive.index()];
    assert_eq!(
        (interactive.admitted, interactive.shed),
        (1, 1),
        "one admit, one injected shed"
    );

    let outcome = finish_and_check(door, session);
    assert!(outcome.engine.graph().has_edge(2, 4));
    assert_eq!(outcome.stats.singletons, 1, "shed request never consumed queue capacity");
}

/// Scenario 7: an injected deadline expiry sheds one queued mutation at
/// dequeue. The shed mutation leaves no trace; later traffic applies and
/// the final state equals from-scratch on the served mutations only.
#[test]
fn injected_deadline_expiry_sheds_the_queued_mutation() {
    let session = StreamSession::spawn(engine());

    session.engine_stats().faults().arm("session::deadline", FaultAction::Error, 1);
    session.add(Edge::new(0, 2, 1.0)).unwrap();
    session.flush().unwrap();

    // The shed mutation is invisible to queries...
    let served = session.query().unwrap();
    let expect = scratch_values(&engine());
    for (a, b) in served.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-9, "shed mutation must not be visible");
    }

    // ...and the session keeps serving.
    session.add(Edge::new(1, 3, 1.0)).unwrap();
    session.flush().unwrap();

    let outcome = session.finish().unwrap();
    assert_eq!(outcome.stats.deadline_shed, 1);
    assert_eq!(outcome.stats.mutations_applied, 1);
    assert!(!outcome.engine.graph().has_edge(0, 2), "shed mutation never lands");
    assert!(outcome.engine.graph().has_edge(1, 3));
    let expect = scratch_values(&outcome.engine);
    for (a, b) in outcome.engine.values().iter().zip(&expect) {
        assert!((a - b).abs() < 1e-7);
    }
}
