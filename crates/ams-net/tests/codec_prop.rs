//! Property tests for the frame codec: encode ≡ decode round-trips for
//! arbitrary blocks, queries and scrape section sets, and clean
//! (panic-free) rejection of truncated, corrupted, and arbitrary byte
//! prefixes — snapshot and scrape bodies included.

use ams_core::{codec, SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_net::codec::{encode_ingest_frame_into, MAX_FRAME_PAYLOAD, MAX_INGEST_BLOCKS};
use ams_net::crc::{crc32, crc32_bytewise};
use ams_net::{FrameDecoder, FrameError, Request, Response, Scrape};
use ams_service::{
    AccuracyReport, AssembledTrace, HealthReport, HealthSignal, HealthVerdict, MetricsRegistry,
    ServiceEvent, ServiceSnapshot, ServiceStats, ShardStats, TraceSpan,
};
use ams_stream::OpBlock;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Arbitrary attribute names: short ASCII with an occasional
/// multi-byte UTF-8 character.
fn attr_name() -> impl Strategy<Value = String> {
    (proptest::collection::vec(0u8..26, 0..12), any::<bool>()).prop_map(|(letters, unicode)| {
        let mut name: String = letters.iter().map(|&l| (b'a' + l) as char).collect();
        if unicode {
            name.push('π');
        }
        name
    })
}

/// Arbitrary columnar blocks (built through the push path, so the
/// entries honour `OpBlock`'s run-coalescing invariants).
fn block() -> impl Strategy<Value = OpBlock> {
    proptest::collection::vec((0u64..500, -4i64..5), 0..40).prop_map(|entries| {
        let mut block = OpBlock::new();
        for (v, d) in entries {
            block.push(v, d);
        }
        block
    })
}

/// Arbitrary nonzero ids, or 0 (the wire's "absent" sentinel).
fn optional_id() -> impl Strategy<Value = u64> {
    (any::<u64>(), any::<bool>()).prop_map(|(id, present)| if present { id | 1 } else { 0 })
}

/// Arbitrary `Ingest` requests: 1 to `MAX_INGEST_BLOCKS` blocks under
/// every combination of options. A sequence number only travels with a
/// producer id, so untagged requests carry `first_seq` 0.
fn ingest() -> impl Strategy<Value = Request> {
    (
        attr_name(),
        proptest::collection::vec(block(), 1..MAX_INGEST_BLOCKS + 1),
        any::<bool>(),
        optional_id(),
        any::<u64>(),
        optional_id(),
    )
        .prop_map(
            |(attribute, blocks, durable, producer, seq, trace)| Request::Ingest {
                attribute,
                blocks,
                durable,
                producer,
                first_seq: if producer != 0 { seq } else { 0 },
                trace,
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    (
        0u8..8,
        attr_name(),
        attr_name(),
        ingest(),
        1u8..Scrape::ALL + 1,
    )
        .prop_map(|(kind, a, b, ingest, sections)| match kind {
            0 | 6 => ingest,
            1 => Request::QuerySelfJoin { attribute: a },
            2 => Request::QueryTwoWayJoin { left: a, right: b },
            3 => Request::Snapshot,
            4 => Request::Scrape { sections },
            5 => Request::Drain,
            _ => Request::Shutdown,
        })
}

/// Encodes an `Ingest` request through the borrowed-parts encoder.
fn encode_borrowed(request: &Request, out: &mut Vec<u8>) {
    let Request::Ingest {
        attribute,
        blocks,
        durable,
        producer,
        first_seq,
        trace,
    } = request
    else {
        panic!("not an ingest request: {request:?}");
    };
    encode_ingest_frame_into(
        attribute, blocks, *durable, *producer, *first_seq, *trace, out,
    )
    .unwrap();
}

fn decode_one(bytes: &[u8]) -> Result<Option<Vec<u8>>, ams_net::FrameError> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    decoder.next_frame()
}

/// A real snapshot: four stamps, then three attributes' sketches as a
/// named set.
fn real_snapshot() -> ServiceSnapshot {
    let params = SketchParams::new(8, 2).unwrap();
    let names: Vec<String> = ["u", "v", "w"].iter().map(|n| n.to_string()).collect();
    let sketches: Vec<TugOfWarSketch> = (1..=3u64)
        .map(|k| {
            let mut sketch = TugOfWarSketch::new(params, 9);
            sketch.extend_values((0..40).map(|v| v * k));
            sketch
        })
        .collect();
    let mut bytes = Vec::new();
    for stamp in [3u64, 5, 40, 120] {
        bytes.extend_from_slice(&stamp.to_le_bytes());
    }
    codec::encode_set(&names, &sketches, &mut bytes);
    ServiceSnapshot::decode(&bytes).unwrap()
}

/// The verified bodies of a `Snapshot` and a `Goodbye` response
/// carrying `snapshot`.
fn snapshot_bodies(snapshot: &ServiceSnapshot) -> [Vec<u8>; 2] {
    [
        Response::Snapshot {
            snapshot: snapshot.clone(),
        },
        Response::Goodbye {
            snapshot: snapshot.clone(),
            stats: ServiceStats { shards: Vec::new() },
        },
    ]
    .map(|response| {
        decode_one(&response.encode().unwrap())
            .unwrap()
            .expect("whole frame decodes")
    })
}

/// A response body must decode or fail as `Malformed` — never panic,
/// never fail any other way.
fn decodes_or_malformed(body: &[u8]) -> Result<(), TestCaseError> {
    match Response::decode(body) {
        Ok(_) | Err(FrameError::Malformed { .. }) => Ok(()),
        Err(e) => Err(TestCaseError::fail(format!("{e:?}"))),
    }
}

/// A scrape document with every section populated, as a server sends
/// it (the registry carries one series of each kind).
fn full_scrape() -> Scrape {
    let registry = MetricsRegistry::new();
    registry
        .counter("service_ops_ingested", &[("shard", "0")])
        .add(12);
    registry
        .gauge("service_queue_depth", &[("shard", "0")])
        .set(2);
    registry
        .histogram("service_ingest_ns", &[("shard", "1")])
        .record(4_096);
    Scrape {
        at_ns: 123_456_789,
        stats: Some(ServiceStats {
            shards: vec![ShardStats {
                shard: 0,
                queue_depth: 2,
                queue_capacity: 64,
                max_queue_depth: 9,
                blocks_enqueued: 40,
                backpressure_events: 1,
                queue_rejections: 1,
                blocks_ingested: 38,
                ops_ingested: 9_728,
                epoch: 17,
            }],
        }),
        metrics: Some(registry.snapshot()),
        traces: Some(vec![AssembledTrace {
            trace_id: 0xAB,
            total_ns: 5_000,
            spans: vec![TraceSpan {
                stage: "kernel".into(),
                start_ns: 10,
                dur_ns: 900,
            }],
        }]),
        events: Some(vec![ServiceEvent {
            level: "info".into(),
            code: "publish".into(),
            at_ns: 99,
            key: 1,
            value: 38,
        }]),
        events_dropped: Some(0),
        health: Some(HealthReport {
            verdict: HealthVerdict::Healthy,
            signals: vec![HealthSignal::grade("queue_saturation", 0.0, 0.75, 0.95)],
            accuracy: vec![AccuracyReport {
                attribute: "v".into(),
                estimate: 10.0,
                ci_lower: 5.0,
                ci_upper: 15.0,
                error_bound: 0.5,
                audited_exact: None,
                observed_rel_error: None,
                skew_score: 0.0,
            }],
        }),
    }
}

/// The verified body of a `Scrape` response carrying `scrape`.
fn scrape_body(scrape: &Scrape) -> Vec<u8> {
    let response = Response::Scrape {
        scrape: scrape.clone(),
    };
    decode_one(&response.encode().unwrap())
        .unwrap()
        .expect("whole frame decodes")
}

/// Every section bit set: exactly the nonempty subsets of
/// `Scrape::ALL` encode and decode; every other byte fails both ways
/// with the same reason, and a scrape frame without its byte fails too.
#[test]
fn scrape_section_sets_checked_both_ways() {
    let reason = "empty or unknown scrape sections";
    let stats = Request::Scrape {
        sections: Scrape::STATS,
    };
    let kind = decode_one(&stats.encode().unwrap()).unwrap().unwrap()[0];
    for sections in 0..=u8::MAX {
        let valid = sections != 0 && sections & !Scrape::ALL == 0;
        let request = Request::Scrape { sections };
        let decoded = Request::decode(&[kind, sections]);
        if valid {
            let body = decode_one(&request.encode().unwrap()).unwrap().unwrap();
            assert_eq!(Request::decode(&body).unwrap(), request);
            assert_eq!(decoded.unwrap(), request);
        } else {
            assert_eq!(request.encode(), Err(FrameError::Malformed { reason }));
            assert_eq!(decoded, Err(FrameError::Malformed { reason }));
        }
    }
    assert_eq!(
        Request::decode(&[kind]),
        Err(FrameError::Malformed {
            reason: "truncated scrape sections"
        })
    );
    assert!(Request::decode(&[kind, Scrape::STATS, 0]).is_err());
}

/// A scrape document round-trips exactly, section by section, and the
/// JSON form carries only the sections asked for.
#[test]
fn scrape_bodies_roundtrip_with_only_the_sections_asked_for() {
    let full = full_scrape();
    let body = scrape_body(&full);
    assert_eq!(
        Response::decode(&body).unwrap(),
        Response::Scrape {
            scrape: full.clone()
        }
    );
    let stats_only = Scrape {
        at_ns: 5,
        stats: full.stats.clone(),
        ..Scrape::default()
    };
    let body = scrape_body(&stats_only);
    let json = std::str::from_utf8(&body[5..]).unwrap();
    assert!(json.contains("\"stats\""), "{json}");
    for absent in ["metrics", "traces", "events", "health"] {
        assert!(!json.contains(&format!("\"{absent}")), "{json}");
    }
    match Response::decode(&body).unwrap() {
        Response::Scrape { scrape } => assert_eq!(scrape, stats_only),
        other => panic!("unexpected {other:?}"),
    }
}

/// A document length past the remaining body is refused before any
/// allocation sized by it.
#[test]
fn overdeclared_scrape_document_length_rejected_before_allocation() {
    let mut bad = scrape_body(&full_scrape());
    bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        Response::decode(&bad).unwrap_err(),
        FrameError::Malformed {
            reason: "truncated document bytes"
        }
    );
}

/// Body offsets: kind byte, `u32` snapshot length, 32 bytes of stamps,
/// then the set's 24-byte header and its `u32` count.
const SET_COUNT_AT: usize = 1 + 4 + 32 + codec::HEADER_LEN;

#[test]
fn snapshot_bodies_roundtrip() {
    let snapshot = real_snapshot();
    for body in snapshot_bodies(&snapshot) {
        match Response::decode(&body).unwrap() {
            Response::Snapshot { snapshot: back } | Response::Goodbye { snapshot: back, .. } => {
                assert_eq!(back, snapshot)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Declared counts past the remaining bytes are refused before any
/// allocation: the snapshot length, the set count, a name length. (A
/// count of 2³² − 1 sketches, if trusted, would allocate terabytes.)
#[test]
fn overdeclared_snapshot_counts_rejected_before_allocation() {
    for body in snapshot_bodies(&real_snapshot()) {
        for (at, reason) in [
            (1, "truncated document bytes"),
            (SET_COUNT_AT, "set count is zero or exceeds the payload"),
            (SET_COUNT_AT + 4, "truncated set entry"),
        ] {
            let mut bad = body.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(
                Response::decode(&bad).unwrap_err(),
                FrameError::Malformed { reason },
                "count at byte {at}"
            );
        }
    }
}

proptest! {
    /// `Snapshot` and `Goodbye` bodies of random bytes — raw, behind a
    /// consistent snapshot length, and spliced after a real snapshot's
    /// first bytes — decode or fail as `Malformed`, never panic.
    #[test]
    fn snapshot_bodies_of_random_bytes_never_panic(
        goodbye in any::<bool>(),
        keep in 0usize..256,
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let real = &snapshot_bodies(&real_snapshot())[goodbye as usize];
        let mut raw = vec![real[0]];
        raw.extend_from_slice(&bytes);
        decodes_or_malformed(&raw)?;
        let mut sized = vec![real[0]];
        sized.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        sized.extend_from_slice(&bytes);
        decodes_or_malformed(&sized)?;
        let keep = 5 + keep % (real.len() - 5);
        let mut spliced = real[..keep].to_vec();
        spliced.extend_from_slice(&bytes);
        let len = (spliced.len() - 5) as u32;
        spliced[1..5].copy_from_slice(&len.to_le_bytes());
        decodes_or_malformed(&spliced)?;
    }

    /// Truncations and byte flips of a real `Snapshot` or `Goodbye`
    /// body decode or fail as `Malformed`; a strict prefix always
    /// fails.
    #[test]
    fn snapshot_bodies_truncated_or_flipped_never_panic(
        goodbye in any::<bool>(),
        cut in 0usize..4096,
        at in 0usize..4096,
        flip in 1u8..255,
    ) {
        let body = &snapshot_bodies(&real_snapshot())[goodbye as usize];
        let cut = cut % body.len();
        decodes_or_malformed(&body[..cut])?;
        prop_assert!(Response::decode(&body[..cut]).is_err(), "prefix of {cut} bytes decoded");
        // Byte 0 is the kind: flipping it makes another message.
        let mut flipped = body.clone();
        flipped[1 + at % (body.len() - 1)] ^= flip;
        decodes_or_malformed(&flipped)?;
    }

    /// `Scrape` bodies of random bytes — raw, behind a consistent
    /// document length, and spliced after a real document's first
    /// bytes — decode or fail as `Malformed`, never panic.
    #[test]
    fn scrape_bodies_of_random_bytes_never_panic(
        keep in 0usize..4096,
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let real = scrape_body(&full_scrape());
        let mut raw = vec![real[0]];
        raw.extend_from_slice(&bytes);
        decodes_or_malformed(&raw)?;
        let mut sized = vec![real[0]];
        sized.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        sized.extend_from_slice(&bytes);
        decodes_or_malformed(&sized)?;
        let keep = 5 + keep % (real.len() - 5);
        let mut spliced = real[..keep].to_vec();
        spliced.extend_from_slice(&bytes);
        let len = (spliced.len() - 5) as u32;
        spliced[1..5].copy_from_slice(&len.to_le_bytes());
        decodes_or_malformed(&spliced)?;
    }

    /// Truncations and byte flips of a real `Scrape` body decode or
    /// fail as `Malformed`; a strict prefix always fails.
    #[test]
    fn scrape_bodies_truncated_or_flipped_never_panic(
        cut in 0usize..8192,
        at in 0usize..8192,
        flip in 1u8..255,
    ) {
        let body = scrape_body(&full_scrape());
        let cut = cut % body.len();
        decodes_or_malformed(&body[..cut])?;
        prop_assert!(Response::decode(&body[..cut]).is_err(), "prefix of {cut} bytes decoded");
        // Byte 0 is the kind: flipping it makes another message.
        let mut flipped = body.clone();
        flipped[1 + at % (body.len() - 1)] ^= flip;
        decodes_or_malformed(&flipped)?;
    }

    #[test]
    fn request_encode_decode_roundtrips(request in request()) {
        let frame = request.encode().unwrap();
        let body = decode_one(&frame).unwrap().expect("whole frame decodes");
        prop_assert_eq!(Request::decode(&body).unwrap(), request);
    }

    #[test]
    fn scalar_response_roundtrips(
        bits in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let responses = [
            Response::Ingested,
            Response::SelfJoin { estimate: f64::from_bits(bits) },
            Response::Drained { epoch },
        ];
        for response in responses {
            let frame = response.encode().unwrap();
            let body = decode_one(&frame).unwrap().expect("whole frame decodes");
            let back = Response::decode(&body).unwrap();
            // NaN payloads must survive bit-exactly, so compare the
            // encodings rather than the (NaN-unequal) values.
            prop_assert_eq!(back.encode().unwrap(), response.encode().unwrap());
        }
    }

    /// A strict prefix of a valid frame never yields a frame (and
    /// never panics): the decoder just waits for more bytes.
    #[test]
    fn truncated_prefixes_never_yield_frames(request in request(), cut in 0usize..4096) {
        let frame = request.encode().unwrap();
        let cut = cut % frame.len();
        prop_assert!(matches!(decode_one(&frame[..cut]), Ok(None)));
    }

    /// Flipping any single byte of a valid frame is either detected
    /// (error), leaves the decoder waiting (length grew), or — if it
    /// produced a formally valid frame — still decodes without
    /// panicking. No input may crash the decoder.
    #[test]
    fn corrupted_frames_never_panic(request in request(), at in 0usize..4096, flip in 1u8..255) {
        let mut frame = request.encode().unwrap();
        let at = at % frame.len();
        frame[at] ^= flip;
        if let Ok(Some(body)) = decode_one(&frame) {
            let _ = Request::decode(&body);
        }
    }

    /// Arbitrary byte soup: the decoder terminates with a clean
    /// verdict (wait, frame, or error) and never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        loop {
            match decoder.next_frame() {
                Ok(Some(body)) => {
                    let _ = Request::decode(&body);
                    let _ = Response::decode(&body);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Oversized length declarations are refused before any buffering.
    #[test]
    fn oversized_declarations_rejected(extra in 1u32..1_000_000) {
        let declared = (MAX_FRAME_PAYLOAD as u32).saturating_add(extra);
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"AMSN");
        prop_assert!(matches!(
            decode_one(&bytes),
            Err(ams_net::FrameError::Oversized { .. })
        ));
    }

    /// The slice-by-8 CRC kernel is bit-identical to the bytewise
    /// oracle on arbitrary byte strings — including the empty string,
    /// single bytes, and every alignment straddling the 8-byte stride
    /// (the `cut` trims force lengths ≡ ±1 mod 8 and everything else).
    #[test]
    fn crc_slice_by_8_matches_bytewise_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        cut in 0usize..8,
    ) {
        let trimmed = &bytes[..bytes.len().saturating_sub(cut)];
        prop_assert_eq!(crc32(trimmed), crc32_bytewise(trimmed));
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    /// `Ingest` frames round-trip through the reusable encode buffer,
    /// and the borrowed-parts encoder agrees with the owned `Request`
    /// encoder byte for byte.
    #[test]
    fn ingest_batch_frames_roundtrip(request in ingest()) {
        let mut buf = Vec::new();
        encode_borrowed(&request, &mut buf);
        prop_assert_eq!(&buf, &request.encode().unwrap());
        let body = decode_one(&buf).unwrap().expect("whole frame decodes");
        prop_assert_eq!(Request::decode(&body).unwrap(), request);
    }

    /// Truncating or flipping bytes of a batch frame is always a clean
    /// rejection (or, for a formally valid mutation, a clean decode) —
    /// never a panic, never an allocation sized by hostile counts.
    #[test]
    fn corrupted_batch_frames_never_panic(
        request in ingest(),
        at in 0usize..4096,
        flip in 1u8..255,
        cut in 1usize..4096,
    ) {
        let mut frame = Vec::new();
        encode_borrowed(&request, &mut frame);
        // Truncation: strictly shorter input never yields a frame.
        let cut = cut % frame.len();
        prop_assert!(matches!(decode_one(&frame[..cut]), Ok(None)));
        // Corruption: one flipped byte is detected or decodes cleanly.
        let at = at % frame.len();
        frame[at] ^= flip;
        if let Ok(Some(body)) = decode_one(&frame) {
            let _ = Request::decode(&body);
        }
    }

    /// The trace context survives the ingest frame exactly — flagged
    /// (nonzero id, `TRACED` flag, 8 extra bytes) and unflagged (zero
    /// id, flag absent) alike, for any block count and independent of
    /// the durable/tagged options around it.
    #[test]
    fn trace_context_roundtrips_flagged_and_unflagged(request in ingest()) {
        let frame = request.encode().unwrap();
        let body = decode_one(&frame).unwrap().expect("whole frame decodes");
        let back = Request::decode(&body).unwrap();
        prop_assert_eq!(back.trace_id(), request.trace_id());
        prop_assert_eq!(back, request);
    }
}
