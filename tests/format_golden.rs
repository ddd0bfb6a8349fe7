//! Golden bytes for the three binary formats — the GBLT edge list, the
//! GBMS mutation stream and a GBSF session file wrapping a GBCK
//! checkpoint. Encoders must keep emitting exactly these bytes, decoders
//! must read them back, and damaged or crafted input must come back as
//! `Err`: no panic, no allocation sized by an untrusted count.

use graphbolt::core::checkpoint::{parse_session_file, try_session_file_bytes};
use graphbolt::core::{Checkpoint, CheckpointError, F64Codec};
use graphbolt::graph::io;
use graphbolt::prelude::*;

const GBLT: &str =
    "47424c540001000000000000000200000000000000013fd00000000000000000000700000003c010000000000000";
const GBMS: &str = "47424d53000100000002000000010000000100000000000000013fe000000000000000000002000000033ff0000000000000000000010000000000000004000000054000000000000000";
const GBSF: &str = "47425346000100000000000000092603cba3e680d0ed0000000000000004000000000000004e47424c540001000000000000000400000000000000013fe000000000000000000001000000023ff000000000000000000001000000033fe000000000000000000002000000033fd000000000000000000000000000ba4742434b00010000000000000004000000000000000400000004000000020000000200000000000000003fe00000000000003ff80000000000003ff000000000000000000000000000003fe00000000000003ff80000000000003ff000000000000000000101000000017ff000000000000000000000013fe000000000000000000000027ff00000000000003ff8000000000000023ff8000000000000000000027ff00000000000003ff0000000000000024002000000000000";
/// Offset of the GBCK checkpoint inside [`GBSF`]: 22-byte header, `n`,
/// `graph_len`, the 78-byte embedded GBLT graph, `ck_len`.
const GBCK_AT: usize = 22 + 8 + 8 + 78 + 8;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

fn edges() -> Vec<Edge> {
    vec![Edge::new(0, 1, 0.25), Edge::new(7, 3, -4.0)]
}

fn batches() -> Vec<MutationBatch> {
    let mut b1 = MutationBatch::new();
    b1.add(Edge::new(0, 1, 0.5)).delete(Edge::new(2, 3, 1.0));
    let mut b2 = MutationBatch::new();
    b2.add(Edge::new(4, 5, 2.0));
    vec![b1, b2]
}

/// Four vertices, one refined batch: dyadic weights under `min`, so the
/// stored distances are exact on any backend and in any fold order.
fn engine() -> StreamingEngine<ShortestPaths> {
    let g = GraphBuilder::new(4)
        .add_edge(0, 1, 0.5)
        .add_edge(1, 2, 1.0)
        .add_edge(0, 2, 2.0)
        .add_edge(2, 3, 0.25)
        .build();
    let opts = EngineOptions::with_iterations(4).cutoff(2);
    let mut e = StreamingEngine::new(g, ShortestPaths::new(0), opts);
    e.run_initial();
    let mut b = MutationBatch::new();
    b.add(Edge::new(1, 3, 0.5)).delete(Edge::new(0, 2, 2.0));
    e.apply_batch(&b).unwrap();
    e
}

fn restore(
    e: &StreamingEngine<ShortestPaths>,
    ck: &Checkpoint,
) -> Result<StreamingEngine<ShortestPaths>, CheckpointError> {
    ck.restore(
        e.graph().clone(),
        ShortestPaths::new(0),
        *e.options(),
        &F64Codec,
        &F64Codec,
    )
}

/// FNV-1a, as the GBSF header stores it over everything after byte 22.
fn resealed(mut file: Vec<u8>) -> Vec<u8> {
    let sum = file[22..].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    file[14..22].copy_from_slice(&sum.to_be_bytes());
    file
}

fn patched(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + with.len()].copy_from_slice(with);
    out
}

#[test]
fn formats_are_stable_and_fail_closed() {
    let e = engine();
    let (gblt, gbms, gbsf) = (unhex(GBLT), unhex(GBMS), unhex(GBSF));
    let gbck = gbsf[GBCK_AT..].to_vec();

    // (a) encoders emit the golden bytes.
    assert_eq!(io::to_binary(&edges())[..], gblt[..]);
    assert_eq!(io::batches_to_binary(&batches())[..], gbms[..]);
    assert_eq!(
        Checkpoint::capture(&e, &F64Codec, &F64Codec).as_bytes(),
        &gbck[..]
    );
    assert_eq!(
        try_session_file_bytes(&e, 9, &F64Codec, &F64Codec).unwrap()[..],
        gbsf[..]
    );

    // (b) decoders read them back equal.
    assert_eq!(io::from_binary(&gblt).unwrap(), edges());
    assert_eq!(io::batches_from_binary(&gbms).unwrap(), batches());
    let (seq, graph, ck) = parse_session_file(&gbsf).unwrap();
    assert_eq!(
        (seq, graph.edges(), ck.as_bytes()),
        (9, e.graph().edges(), &gbck[..])
    );
    let back = restore(&e, &ck).unwrap();
    assert_eq!(back.values(), e.values());
    assert_eq!(back.values(), [0.0, 0.5, 1.5, 1.0]);
    assert_eq!(back.stored_aggregations(), e.stored_aggregations());

    type Rejects<'a> = &'a dyn Fn(&[u8]) -> bool;
    let decoders: [(&str, &[u8], Rejects); 4] = [
        ("GBLT", &gblt, &|b| io::from_binary(b).is_err()),
        ("GBMS", &gbms, &|b| io::batches_from_binary(b).is_err()),
        ("GBSF", &gbsf, &|b| parse_session_file(b).is_err()),
        ("GBCK", &gbck, &|b| {
            restore(&e, &Checkpoint::from_bytes(b)).is_err()
        }),
    ];

    // (c) every strict prefix is an error; a byte missing anywhere shifts
    // every later count and tag, and must decode or fail without a panic.
    for (name, bytes, rejects) in decoders {
        for cut in 0..bytes.len() {
            assert!(
                rejects(&bytes[..cut]),
                "{name}: prefix of {cut} bytes parsed"
            );
            rejects(&[&bytes[..cut], &bytes[cut + 1..]].concat());
        }
    }

    // (d) counts and lengths larger than the payload are refused before
    // anything is allocated for them (`u64::MAX` edges would abort).
    let crafted: [(&str, usize, Vec<u8>); 9] = [
        (
            "GBLT edge count overflows",
            0,
            patched(&gblt, 6, &u64::MAX.to_be_bytes()),
        ),
        (
            "GBLT edge count beyond payload",
            0,
            patched(&gblt, 6, &(1u64 << 40).to_be_bytes()),
        ),
        (
            "GBMS batch count",
            1,
            patched(&gbms, 6, &u32::MAX.to_be_bytes()),
        ),
        (
            "GBMS addition count",
            1,
            patched(&gbms, 10, &u32::MAX.to_be_bytes()),
        ),
        (
            "GBMS deletion count",
            1,
            patched(&gbms, 14, &u32::MAX.to_be_bytes()),
        ),
        (
            "GBSF graph_len",
            2,
            resealed(patched(&gbsf, 30, &u64::MAX.to_be_bytes())),
        ),
        (
            "GBSF ck_len",
            2,
            resealed(patched(&gbsf, GBCK_AT - 8, &u64::MAX.to_be_bytes())),
        ),
        (
            "GBCK prefix length",
            3,
            patched(&gbck, 102, &u32::MAX.to_be_bytes()),
        ),
        ("GBCK tail tag", 3, patched(&gbck, 114, &[3])),
    ];
    for (name, decoder, bytes) in crafted {
        assert!(decoders[decoder].2(&bytes), "{name}: crafted input parsed");
    }
}
