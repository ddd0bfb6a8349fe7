//! Property suite for admission accounting (ISSUE 7 satellite).
//!
//! Three invariants, each over generated configurations and op
//! sequences:
//!
//! 1. **Conservation** — every submission is either admitted or shed:
//!    `admitted + shed == submitted`, per class, under any interleaving
//!    (sequential with arbitrary clocks, and genuinely concurrent).
//! 2. **Isolation** — rejected submissions leave the session's values
//!    byte-identical (`f64::to_bits` equality, not epsilon).
//! 3. **No underflow** — the queue-occupancy gauge never wraps below
//!    zero, whatever mix of accepted, rejected, and expired traffic the
//!    session sees.

use std::time::Instant;

use graphbolt_core::doctest_support::DocRank;
use graphbolt_core::{
    AdmissionConfig, AdmissionController, BucketConfig, ClientClass, DegradeLevel, EngineOptions,
    SessionError, StreamSession, StreamingEngine,
};
use graphbolt_graph::{Edge, GraphBuilder};
use proptest::prelude::*;

fn engine() -> StreamingEngine<DocRank> {
    let g = GraphBuilder::new(5)
        .add_edge(0, 1, 1.0)
        .add_edge(1, 2, 1.0)
        .add_edge(2, 3, 1.0)
        .add_edge(3, 4, 1.0)
        .add_edge(4, 0, 1.0)
        .build();
    let mut e = StreamingEngine::new(g, DocRank, EngineOptions::with_iterations(6));
    e.run_initial();
    e
}

fn class_of(idx: u8) -> ClientClass {
    match idx % 3 {
        0 => ClientClass::Interactive,
        1 => ClientClass::Bulk,
        _ => ClientClass::BestEffort,
    }
}

/// The bit pattern of every value — byte-identity, not closeness.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation under arbitrary configs, costs, clock advances, and
    /// degrade-level flips: every submission lands in exactly one of the
    /// admitted/shed tallies of its class.
    #[test]
    fn admitted_plus_shed_equals_submitted(
        rates in (0.0f64..40.0, 0.0f64..40.0, 0.0f64..40.0),
        bursts in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
        ops in proptest::collection::vec(
            (0u8..3, 0.1f64..4.0, 0u64..50_000_000, 0u8..4),
            1..120,
        ),
    ) {
        let config = AdmissionConfig {
            interactive: BucketConfig::new(rates.0, bursts.0),
            bulk: BucketConfig::new(rates.1, bursts.1),
            best_effort: BucketConfig::new(rates.2, bursts.2),
        };
        let ctl = AdmissionController::new(config);
        let mut now = 0u64;
        let mut submitted = [0u64; 3];
        for (class_idx, cost, advance, degrade) in ops {
            now += advance;
            // Degrade flips interleave with admissions; 3 means "leave
            // the level alone this op".
            match degrade {
                0 => ctl.observe_degrade(DegradeLevel::None),
                1 => ctl.observe_degrade(DegradeLevel::PrunedStore),
                2 => ctl.observe_degrade(DegradeLevel::DroppedStore),
                _ => {}
            }
            let class = class_of(class_idx);
            submitted[class.index()] += 1;
            let _ = ctl.admit_at(class, cost, now, graphbolt_core::telemetry::TraceCtx::disabled());
        }
        let snap = ctl.snapshot();
        for class in graphbolt_core::admission::CLASSES {
            let stats = snap.classes[class.index()];
            prop_assert_eq!(
                stats.admitted + stats.shed,
                submitted[class.index()],
                "class {}: {} admitted + {} shed != {} submitted",
                class,
                stats.admitted,
                stats.shed,
                submitted[class.index()]
            );
        }
    }

    /// Conservation survives genuine concurrency: three threads hammer
    /// one controller on the wall clock and the tallies still add up.
    #[test]
    fn accounting_is_exact_under_concurrent_submission(
        per_thread in 1usize..60,
        rate in 0.0f64..100.0,
        burst in 0.0f64..8.0,
    ) {
        let config = AdmissionConfig {
            interactive: BucketConfig::new(rate, burst),
            bulk: BucketConfig::new(rate, burst),
            best_effort: BucketConfig::new(rate, burst),
        };
        let ctl = AdmissionController::new(config);
        std::thread::scope(|scope| {
            for t in 0u8..3 {
                let ctl = &ctl;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let class = class_of(t.wrapping_add(i as u8));
                        let _ = ctl.admit(class, 1.0);
                    }
                });
            }
        });
        let snap = ctl.snapshot();
        let total: u64 = snap
            .classes
            .iter()
            .map(|c| c.admitted + c.shed)
            .sum();
        prop_assert_eq!(total, 3 * per_thread as u64);
    }

    /// Rejected (deadline-expired) submissions leave the served values
    /// byte-identical: not one bit of the refined state may move for a
    /// mutation that was never admitted into a batch.
    #[test]
    fn rejected_submissions_leave_values_byte_identical(
        edges in proptest::collection::vec((0u32..5, 0u32..5, 0.1f64..2.0), 1..20),
        deletes in proptest::bool::ANY,
    ) {
        let session = StreamSession::spawn(engine());
        let baseline = bits(&session.query().expect("baseline query"));
        for (src, dst, w) in &edges {
            // A deadline of "now" is expired by the time the session
            // checks it: every submission must shed, pre-enqueue.
            let result = session.mutate_within(
                Edge::new(*src, *dst, *w),
                !deletes,
                Some(Instant::now()),
                graphbolt_core::telemetry::TraceCtx::disabled(),
            );
            prop_assert_eq!(result, Err(SessionError::DeadlineExceeded));
        }
        session.flush().expect("flush");
        let after = bits(&session.query().expect("post-shed query"));
        prop_assert_eq!(&after, &baseline, "shed mutations moved served values");
        let outcome = session.finish().expect("finish");
        prop_assert_eq!(
            bits(outcome.engine.values()),
            baseline,
            "shed mutations moved final engine values"
        );
        prop_assert_eq!(outcome.stats.mutations_applied, 0);
    }

    /// The session's queue-occupancy gauge never underflows: across any
    /// mix of accepted, shed, and flushed traffic it stays a small number,
    /// never the 2^64-ish wreckage of a wrapped `fetch_sub`, and it reads
    /// 0 once the session has drained.
    #[test]
    fn queue_depth_gauge_never_underflows(
        ops in proptest::collection::vec((0u8..5, 0u32..5, 0u32..5), 1..60),
    ) {
        // Far above any real queue depth, far below any wrapped value.
        const UNDERFLOW_SENTINEL: u64 = 1 << 32;
        let session = StreamSession::spawn(engine());
        let stats = session.engine_stats().clone();
        let gauge = || stats.metrics().queue_occupancy.get();
        for (op, src, dst) in ops {
            let e = Edge::new(src, dst, 1.0);
            match op {
                0 => drop(session.add(e)),
                1 => drop(session.delete(e)),
                2 => drop(session.try_add(e)),
                3 => drop(session.mutate_within(e, true, Some(Instant::now()), graphbolt_core::telemetry::TraceCtx::disabled())),
                _ => drop(session.flush()),
            }
            prop_assert!(gauge() < UNDERFLOW_SENTINEL, "queue gauge wrapped: {}", gauge());
        }
        session.flush().expect("flush");
        drop(session.query().expect("query"));
        session.finish().expect("finish");
        prop_assert_eq!(gauge(), 0, "a finished session has nothing queued");
    }
}
