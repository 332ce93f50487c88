//! End-to-end loopback tests: a real server and real sockets in one
//! process.
//!
//! The two acceptance pins of the network layer live here:
//! * a stream ingested through the client/server path yields sketch
//!   counters **bit-identical** to in-process ingestion of the same
//!   stream, and
//! * a fast producer against a cap-1 queue has its refused blocks
//!   parked and landed (with queue occupancy provably bounded) instead
//!   of a stalled connection or a lost block — and malformed bytes
//!   never crash the reactor.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_net::{AckMode, AmsClient, IngestOutcome, NetError, NetServer, NetServerConfig};
use ams_service::{DurabilityConfig, RouterPolicy, ServiceConfig};
use ams_stream::{value_blocks, OpBlock};

fn service(
    shards: usize,
    queue_capacity: usize,
    params: SketchParams,
    attrs: &[&str],
) -> ams_service::AmsService {
    let config = ServiceConfig::builder()
        .shards(shards)
        .queue_capacity(queue_capacity)
        .sketch_params(params)
        .seed(0xBEEF)
        .router(RouterPolicy::RoundRobin)
        .build()
        .unwrap();
    ams_service::AmsService::start(config, attrs).unwrap()
}

/// Streams every block and checks that each one landed.
fn ingest_all(client: &mut AmsClient, attribute: &str, blocks: &[OpBlock]) {
    let outcomes = client.ingest_blocks(attribute, blocks).unwrap();
    assert!(outcomes.iter().all(|o| *o == IngestOutcome::Ingested));
}

/// A snapshot of 4 attributes at s = 65,536 fits one frame: it travels
/// as seed + counters (about 2 MiB), where a form that also carried
/// every row's hash coefficients would have outgrown the 16 MiB frame
/// limit. The decoded counters equal in-process sketches fed the same
/// blocks, bit for bit, and so does the `Goodbye` snapshot.
#[test]
fn large_snapshot_fits_one_frame_and_is_bit_identical() {
    let params = SketchParams::new(65_536, 1).unwrap();
    let attrs = ["a", "b", "c", "d"];
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(2, 32, params, &attrs));
    let mut client = AmsClient::connect(addr).unwrap();
    let mut references = Vec::new();
    for (i, attr) in attrs.iter().enumerate() {
        let values: Vec<u64> = (0..24u64).map(|v| v * 7 + i as u64).collect();
        ingest_all(
            &mut client,
            attr,
            &value_blocks(&values, 8).collect::<Vec<_>>(),
        );
        let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
        reference.extend_values(values.iter().copied());
        references.push(reference);
    }
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    for (attr, reference) in attrs.iter().zip(&references) {
        assert_eq!(
            snapshot.sketch(attr).unwrap().counters(),
            reference.counters(),
            "attribute {attr}"
        );
    }
    let (goodbye, _) = client.shutdown().unwrap();
    assert_eq!(goodbye, snapshot);
    let _ = handle.join();
}

#[test]
fn client_streamed_ingest_is_bit_identical_to_in_process() {
    let params = SketchParams::new(64, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(2, 32, params, &["u", "v"]));

    let u: Vec<u64> = (0..4_000u64).map(|i| i * i % 257).collect();
    let v: Vec<u64> = (0..4_000u64).map(|i| i % 97).collect();
    let mut client = AmsClient::connect(addr).unwrap();
    ingest_all(&mut client, "u", &value_blocks(&u, 128).collect::<Vec<_>>());
    ingest_all(&mut client, "v", &value_blocks(&v, 128).collect::<Vec<_>>());
    let epoch = client.drain().unwrap();
    assert!(epoch >= 1);

    let snapshot = client.snapshot().unwrap();
    assert!(snapshot.epoch_min() >= epoch);
    assert_eq!(snapshot.ops(), (u.len() + v.len()) as u64);
    let mut reference_u: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference_u.extend_values(u.iter().copied());
    let mut reference_v: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference_v.extend_values(v.iter().copied());
    assert_eq!(
        snapshot.sketch("u").unwrap().counters(),
        reference_u.counters(),
        "wire-path counters must be bit-identical to in-process ingestion"
    );
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference_v.counters()
    );

    // Scalar and batched queries agree with the snapshot's estimates.
    assert_eq!(
        client.self_join("u").unwrap(),
        snapshot.self_join("u").unwrap()
    );
    assert_eq!(
        client.self_joins(&["u", "v"]).unwrap(),
        vec![
            snapshot.self_join("u").unwrap(),
            snapshot.self_join("v").unwrap()
        ]
    );
    assert_eq!(
        client.join("u", "v").unwrap(),
        snapshot.join("u", "v").unwrap()
    );
    assert_eq!(
        client.joins(&[("u", "v"), ("v", "v")]).unwrap(),
        vec![
            snapshot.join("u", "v").unwrap(),
            snapshot.join("v", "v").unwrap()
        ]
    );

    // Graceful wire shutdown hands back the same final state the
    // server thread returns.
    let (final_snapshot, stats) = client.shutdown().unwrap();
    assert_eq!(final_snapshot.ops(), (u.len() + v.len()) as u64);
    assert_eq!(stats.ops_ingested(), (u.len() + v.len()) as u64);
    let (joined_snapshot, joined_stats) = handle.join();
    assert_eq!(joined_snapshot, final_snapshot);
    assert_eq!(joined_stats, stats);
}

#[test]
fn fast_producer_parks_not_stalls_and_memory_stays_bounded() {
    // One shard, a one-block queue, and the default server: every
    // submission beyond what the worker keeps up with is refused by the
    // queue, parks on the connection and lands later. Big
    // distinct-value blocks keep the worker busy long enough that the
    // pipelined burst observably overruns.
    let params = SketchParams::single_group(256).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 1, params, &["v"]));

    let values: Vec<u64> = (0..32_768u64).collect();
    let blocks: Vec<OpBlock> = value_blocks(&values, 4_096).collect();
    let mut client = AmsClient::connect(addr).unwrap();
    let outcomes = client.ingest_blocks("v", &blocks).unwrap();
    assert_eq!(
        outcomes,
        vec![IngestOutcome::Ingested; blocks.len()],
        "every refused block parks and lands"
    );
    client.drain().unwrap();

    let stats = client.stats().unwrap();
    assert!(
        stats.queue_rejections() > 0,
        "a pipelined burst against a cap-1 queue must be refused (and so parked) at least once"
    );
    assert!(
        stats.max_queue_depth() <= 1,
        "queue occupancy must stay within the configured bound"
    );

    // Nothing was lost or double-applied along the park/retry path.
    let snapshot = client.snapshot().unwrap();
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference.extend_values(values.iter().copied());
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference.counters()
    );
    drop(client);
    handle.stop();
}

#[test]
fn parked_ingests_are_acknowledged_in_order() {
    // Default config: backpressured ingests park on the retry ring and
    // are acknowledged once the worker catches up — the client just
    // sees slower Ingested answers, never an error.
    let params = SketchParams::single_group(128).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 1, params, &["v"]));

    let values: Vec<u64> = (0..16_384u64).collect();
    let blocks: Vec<OpBlock> = value_blocks(&values, 2_048).collect();
    let mut client = AmsClient::connect(addr).unwrap();
    let outcomes = client.ingest_blocks("v", &blocks).unwrap();
    // The default ring bound (one whole frame) covers the burst:
    // everything lands.
    assert!(outcomes.iter().all(|o| *o == IngestOutcome::Ingested));
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference.extend_values(values.iter().copied());
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference.counters()
    );
    drop(client);
    handle.stop();
}

#[test]
fn drained_covers_ingests_parked_before_the_drain() {
    // Pipelined Ingest A, Ingest B, Drain over raw frames against a
    // cap-1 queue: B parks on the retry ring, so the Drain's cut must
    // wait for B to land — the Drained answer arrives after both
    // Ingested acks and guarantees a snapshot covering both blocks.
    let params = SketchParams::single_group(256).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 1, params, &["v"]));

    let a = OpBlock::from_values(0..4_096u64);
    let b = OpBlock::from_values(4_096..8_192u64);
    let mut wire = Vec::new();
    for block in [&a, &b] {
        wire.extend_from_slice(
            &ams_net::Request::Ingest {
                attribute: "v".into(),
                blocks: vec![block.clone()],
                durable: false,
                producer: 0,
                first_seq: 0,
                trace: 0,
            }
            .encode()
            .unwrap(),
        );
    }
    wire.extend_from_slice(&ams_net::Request::Drain.encode().unwrap());
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&wire).unwrap();

    let mut decoder = ams_net::FrameDecoder::new();
    let mut responses = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    while responses.len() < 3 {
        if let Some(body) = decoder.next_frame().unwrap() {
            responses.push(ams_net::Response::decode(&body).unwrap());
            continue;
        }
        let n = raw.read(&mut scratch).unwrap();
        assert!(n > 0, "server closed early");
        decoder.feed(&scratch[..n]);
    }
    assert!(matches!(responses[0], ams_net::Response::Ingested));
    assert!(matches!(responses[1], ams_net::Response::Ingested));
    assert!(matches!(responses[2], ams_net::Response::Drained { .. }));
    drop(raw);

    // A snapshot taken after the Drained answer reflects both blocks.
    let mut client = AmsClient::connect(addr).unwrap();
    let snapshot = client.snapshot().unwrap();
    assert_eq!(snapshot.ops(), 8_192);
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference.extend_values(0..8_192u64);
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference.counters()
    );
    drop(client);
    handle.stop();
}

#[test]
fn metrics_scrape_covers_service_and_net_layers_end_to_end() {
    // The acceptance pin: after a pipelined ingest + drain, one
    // metrics scrape over loopback returns per-shard ingest
    // histograms and routed-ops counters that account for the whole
    // stream, plus the reactor's own frame/byte counters.
    let shards = 2;
    let params = SketchParams::new(64, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(shards, 32, params, &["u", "v"]));

    let u: Vec<u64> = (0..4_000u64).map(|i| i * 31 % 509).collect();
    let blocks: Vec<OpBlock> = value_blocks(&u, 128).collect();
    let mut client = AmsClient::connect(addr).unwrap();
    ingest_all(&mut client, "u", &blocks);
    client.drain().unwrap();

    let metrics = client.metrics().unwrap();

    // Every op routed was ingested, and together they cover the stream.
    assert_eq!(metrics.counter_total("service_routed_ops"), u.len() as u64);
    assert_eq!(
        metrics.counter_total("service_ops_ingested"),
        u.len() as u64
    );
    assert_eq!(
        metrics.counter_total("service_blocks_ingested"),
        blocks.len() as u64
    );
    // Round-robin routing over a block-aligned stream touches every
    // shard: each has a nonzero routed-ops counter and a nonzero
    // ingest-latency histogram whose count matches its block counter.
    for shard in 0..shards {
        let label = shard.to_string();
        let labels = [("shard", label.as_str())];
        assert!(metrics.counter("service_routed_ops", &labels).unwrap() > 0);
        let ingest = metrics.histogram("service_ingest_ns", &labels).unwrap();
        assert!(ingest.count > 0, "shard {shard} ingest histogram is empty");
        assert_eq!(
            ingest.count,
            metrics.counter("service_blocks_ingested", &labels).unwrap()
        );
        let wait = metrics.histogram("service_queue_wait_ns", &labels).unwrap();
        assert_eq!(wait.count, ingest.count);
    }
    // Sketch memory is accounted while the service lives.
    assert_eq!(
        metrics.gauge("service_sketch_memory_words", &[("attribute", "u")]),
        Some((shards * params.total()) as i64)
    );

    // The reactor's series ride in the same snapshot: every request
    // frame this client sent was decoded — the pipelined blocks travel
    // coalesced into Ingest frames of INGEST_BATCH blocks,
    // plus the drain and the metrics request itself — and every block
    // still earned its own response frame, so encoded > decoded.
    let batch_frames = blocks.len().div_ceil(AmsClient::INGEST_BATCH) as u64;
    let decoded = metrics.counter_total("net_frames_decoded");
    assert!(
        decoded >= batch_frames + 2,
        "expected at least {} decoded frames, saw {decoded}",
        batch_frames + 2
    );
    assert!(metrics.counter_total("net_frames_encoded") > blocks.len() as u64);
    assert!(metrics.counter_total("net_bytes_in") > 0);
    assert!(metrics.counter_total("net_bytes_out") > 0);
    // Reactor instruments carry a reactor label now; a default server
    // runs exactly one reactor.
    assert!(
        metrics
            .histogram("net_tick_ns", &[("reactor", "0")])
            .is_some_and(|t| t.count > 0),
        "active reactor ticks must be profiled under reactor=\"0\""
    );

    // The wire snapshot renders to exposition text naming both layers.
    let text = metrics.render_text();
    assert!(text.contains("service_ingest_ns_p99_ns{shard=\"0\"}"));
    assert!(text.contains("net_frames_decoded"));

    // The client's local instruments tracked the pipelined batch.
    let local = client.local_metrics();
    assert!(local.gauge("client_pipeline_peak", &[]).unwrap() > 0);

    drop(client);
    handle.stop();
}

#[test]
fn malformed_frames_never_crash_the_reactor() {
    let params = SketchParams::new(16, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 8, params, &["v"]));

    // A deterministic grab-bag of hostile byte streams.
    let mut soups: Vec<Vec<u8>> = vec![
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        vec![0xFF; 64],
        // Correct magic, absurd declared length.
        {
            let mut bytes = (u32::MAX).to_le_bytes().to_vec();
            bytes.extend_from_slice(b"AMSN");
            bytes
        },
        // A valid frame with its checksum stomped.
        {
            let stats = ams_net::Request::Scrape {
                sections: ams_net::Scrape::STATS,
            };
            let mut frame = stats.encode().unwrap();
            frame[10] ^= 0x55;
            frame
        },
        // A valid header followed by an unknown message kind.
        {
            let mut frame = ams_net::Request::Drain.encode().unwrap();
            let last = frame.len() - 1;
            frame[last] = 0x60; // no such kind; checksum now wrong too
            frame
        },
    ];
    // Pseudo-random soup, deterministic seed.
    let mut x = 0x12345678u64;
    soups.push(
        (0..512)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect(),
    );

    for soup in soups {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&soup).unwrap();
        // The server either answers with an error frame and closes, or
        // just waits for more bytes (incomplete frame); dropping the
        // socket must not hurt it either way.
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink);
    }

    // The reactor is still alive and correct after all of that.
    let mut client = AmsClient::connect(addr).unwrap();
    client
        .ingest_block("v", &OpBlock::from_values([1, 2, 2, 9]))
        .unwrap();
    client.drain().unwrap();
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference.extend_values([1u64, 2, 2, 9]);
    assert_eq!(
        client.snapshot().unwrap().sketch("v").unwrap().counters(),
        reference.counters()
    );
    let (snapshot, _) = client.shutdown().unwrap();
    assert_eq!(snapshot.ops(), 4);
    handle.join();
}

#[test]
fn requests_pipelined_after_shutdown_get_no_answer_before_goodbye() {
    // [Shutdown, Scrape] in one burst: the server must not answer the
    // trailing Scrape ahead of the Goodbye — in-order responses are
    // part of the protocol contract.
    let params = SketchParams::new(16, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 8, params, &["v"]));

    let mut wire = ams_net::Request::Shutdown.encode().unwrap();
    let stats = ams_net::Request::Scrape {
        sections: ams_net::Scrape::STATS,
    };
    wire.extend_from_slice(&stats.encode().unwrap());
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&wire).unwrap();

    let mut bytes = Vec::new();
    let _ = raw.read_to_end(&mut bytes); // server closes after Goodbye
    let mut decoder = ams_net::FrameDecoder::new();
    decoder.feed(&bytes);
    let mut responses = Vec::new();
    while let Ok(Some(body)) = decoder.next_frame() {
        responses.push(ams_net::Response::decode(&body).unwrap());
    }
    assert!(
        matches!(responses.first(), Some(ams_net::Response::Goodbye { .. })),
        "first (and only) answer must be the Goodbye, got {responses:?}"
    );
    assert_eq!(responses.len(), 1, "the post-Shutdown Scrape is dropped");
    handle.join();
}

#[test]
fn error_responses_keep_the_connection_usable() {
    let params = SketchParams::new(16, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 8, params, &["v"]));

    let mut client = AmsClient::connect(addr).unwrap();
    match client.ingest_block("nope", &OpBlock::from_values([1])) {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, ams_net::ErrorCode::UnknownAttribute);
        }
        other => panic!("expected a remote unknown-attribute error, got {other:?}"),
    }
    // A pipeline of two refused batches fails only once all twenty
    // refusals are read, so the next request reads its own answer.
    let refused: Vec<OpBlock> = (0..20u64).map(|v| OpBlock::from_values([v])).collect();
    assert!(matches!(
        client.ingest_blocks("nope", &refused),
        Err(NetError::Remote { .. })
    ));
    assert!(matches!(
        client.join("v", "nope"),
        Err(NetError::Remote { .. })
    ));
    // Same connection still works.
    client
        .ingest_block("v", &OpBlock::from_values([7, 7]))
        .unwrap();
    client.drain().unwrap();
    assert!(client.self_join("v").unwrap() > 0.0);
    drop(client);
    let (snapshot, stats) = handle.stop();
    assert_eq!(snapshot.ops(), 2);
    assert_eq!(stats.ops_ingested(), 2);
}

#[test]
fn truncated_connection_mid_frame_is_harmless() {
    let params = SketchParams::new(16, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 8, params, &["v"]));

    // Send half a valid frame and hang up.
    let frame = ams_net::Request::QuerySelfJoin {
        attribute: "v".into(),
    }
    .encode()
    .unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(raw);

    let mut client = AmsClient::connect(addr).unwrap();
    client
        .ingest_block("v", &OpBlock::from_values([3]))
        .unwrap();
    client.drain().unwrap();
    assert_eq!(client.snapshot().unwrap().ops(), 1);
    drop(client);
    handle.stop();
}

#[test]
fn two_reactor_server_is_bit_identical_with_per_reactor_metrics() {
    // The multi-reactor acceptance pin: two reactors, two clients (the
    // least-connections handoff places one connection on each), one
    // attribute fed from both sides. Linearity of the sketches means
    // the merged counters must be bit-identical to single-threaded
    // in-process ingestion of the same stream, and the metrics scrape
    // must show distinct reactor="0" / reactor="1" series.
    let params = SketchParams::new(64, 3).unwrap();
    let config = NetServerConfig { reactors: 2 };
    let server = NetServer::bind_with("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(2, 32, params, &["v"]));

    let values: Vec<u64> = (0..8_192u64).map(|i| i * 37 % 1021).collect();
    let blocks: Vec<OpBlock> = value_blocks(&values, 128).collect();
    let half = blocks.len() / 2;

    let mut client_a = AmsClient::connect(addr).unwrap();
    let mut client_b = AmsClient::connect(addr).unwrap();
    // Interleave submissions from both connections so both reactors
    // carry real traffic before the drain.
    ingest_all(&mut client_a, "v", &blocks[..half]);
    ingest_all(&mut client_b, "v", &blocks[half..]);
    client_a.drain().unwrap();
    client_b.drain().unwrap();

    let snapshot = client_a.snapshot().unwrap();
    assert_eq!(snapshot.ops(), values.len() as u64);
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference.extend_values(values.iter().copied());
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference.counters(),
        "two-reactor wire ingestion must be bit-identical to in-process"
    );

    // One scrape shows both reactors' series, each with real traffic:
    // the two connections were spread one per reactor, so each
    // reactor decoded frames and ticked.
    let metrics = client_b.metrics().unwrap();
    for reactor in ["0", "1"] {
        let labels = [("reactor", reactor)];
        let decoded = metrics.counter("net_frames_decoded", &labels);
        assert!(
            decoded.is_some_and(|c| c > 0),
            "reactor {reactor} decoded no frames: connections were not spread"
        );
        assert!(
            metrics
                .histogram("net_tick_ns", &labels)
                .is_some_and(|t| t.count > 0),
            "reactor {reactor} recorded no active ticks"
        );
    }
    // The per-reactor series are genuinely distinct label sets, and
    // their sum covers all decoded traffic.
    let total = metrics.counter_total("net_frames_decoded");
    let r0 = metrics
        .counter("net_frames_decoded", &[("reactor", "0")])
        .unwrap();
    let r1 = metrics
        .counter("net_frames_decoded", &[("reactor", "1")])
        .unwrap();
    assert_eq!(r0 + r1, total);

    drop(client_a);
    drop(client_b);
    handle.stop();
}

#[test]
fn two_reactor_parking_is_per_reactor_and_malformed_is_isolated() {
    // Parking and framing failures stay reactor-local: each
    // connection's burst against a cap-1 queue parks blocks, which
    // gates that connection's reads under its own reactor's label, and
    // a malformed frame killing one connection leaves connections on
    // both reactors serving.
    let params = SketchParams::single_group(256).unwrap();
    let config = NetServerConfig { reactors: 2 };
    let server = NetServer::bind_with("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(1, 1, params, &["v"]));

    // Connection 1 → reactor 0, connection 2 → reactor 1
    // (least-connections with round-robin tiebreak).
    let mut client_a = AmsClient::connect(addr).unwrap();
    let mut client_b = AmsClient::connect(addr).unwrap();

    // Big distinct-value blocks keep the single worker busy long
    // enough that each client's pipelined burst observably overruns
    // the cap-1 queue.
    let values: Vec<u64> = (0..32_768u64).collect();
    let blocks: Vec<OpBlock> = value_blocks(&values, 4_096).collect();
    ingest_all(&mut client_a, "v", &blocks);
    ingest_all(&mut client_b, "v", &blocks);
    client_a.drain().unwrap();

    let metrics = client_a.metrics().unwrap();
    for reactor in ["0", "1"] {
        let gated = metrics.counter("net_read_gated", &[("reactor", reactor)]);
        assert!(
            gated.is_some_and(|c| c > 0),
            "reactor {reactor} parked nothing: read gating is not per-reactor"
        );
    }

    // A byte-soup connection (handed to one reactor) dies alone; both
    // established clients keep working afterwards.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xFF; 64]).unwrap();
    let mut sink = Vec::new();
    let _ = raw.read_to_end(&mut sink); // server answers error, closes
    drop(raw);
    client_a
        .ingest_block("v", &OpBlock::from_values([1]))
        .unwrap();
    client_b
        .ingest_block("v", &OpBlock::from_values([2]))
        .unwrap();
    client_a.drain().unwrap();

    // Nothing was lost or double-applied across reactors and retries.
    let snapshot = client_b.snapshot().unwrap();
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    reference.extend_values(values.iter().copied());
    reference.extend_values(values.iter().copied());
    reference.extend_values([1u64, 2]);
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference.counters()
    );

    drop(client_a);
    drop(client_b);
    handle.stop();
}

#[test]
fn pipelined_ingest_reuses_one_encode_buffer() {
    // The zero-alloc pipelining pin: after the first full-size batch
    // warms the client's encode buffer, further pipelined ingestion —
    // same-shaped blocks, many batches — must not grow it. Capacity
    // stability is the observable for "no allocation per frame".
    let params = SketchParams::new(16, 3).unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(service(2, 64, params, &["v"]));

    let values: Vec<u64> = (0..16_384u64).collect();
    let blocks: Vec<OpBlock> = value_blocks(&values, 64).collect();
    let mut client = AmsClient::connect(addr).unwrap();

    ingest_all(&mut client, "v", &blocks);
    let warmed = client.ingest_encode_capacity();
    assert!(warmed > 0, "ingest must have sized the encode buffer");
    for _ in 0..3 {
        ingest_all(&mut client, "v", &blocks);
        assert_eq!(
            client.ingest_encode_capacity(),
            warmed,
            "steady-state pipelining must reuse the warmed encode buffer"
        );
    }
    client.drain().unwrap();
    drop(client);
    handle.stop();
}

/// A self-cleaning temp dir (no tempfile crate in the workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!(
            "ams-net-loopback-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn parked_blocks_durable_acks_and_drains_resolve_on_wake_ups() {
    // Every wait here is resolved by a wake-up, not by a timer: two
    // shards with one-slot queues make pipelined blocks park on both
    // connections (a hash-partitioned block needs a slot on both
    // queues), one connection's acks wait for the durable watermark,
    // and a drain follows every short round. A missed wake-up stalls a
    // round for good, so a watchdog fails the test instead of hanging
    // it.
    const ROUNDS: usize = 40;
    const PER_ROUND: usize = 8;
    let params = SketchParams::new(16, 3).unwrap();
    let dir = TempDir::new("wake");
    let config = ServiceConfig::builder()
        .shards(2)
        .queue_capacity(1)
        .sketch_params(params)
        .seed(0xBEEF)
        .router(RouterPolicy::HashPartition)
        .durability(DurabilityConfig::new(&dir.0))
        .build()
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(ams_service::AmsService::start(config, &["v"]).unwrap());

    let blocks: Vec<OpBlock> = (0..ROUNDS * PER_ROUND)
        .map(|b| OpBlock::from_values((0..256u64).map(|i| (b as u64 * 7_919 + i * 31) % 4_096)))
        .collect();
    let (done, finished) = mpsc::channel();
    let rounds = {
        let blocks = blocks.clone();
        std::thread::spawn(move || {
            let mut durable = AmsClient::connect(addr)
                .unwrap()
                .with_ack_mode(AckMode::Fsync);
            let mut applied = AmsClient::connect(addr).unwrap();
            for round in blocks.chunks(PER_ROUND) {
                let (mine, theirs) = round.split_at(PER_ROUND / 2);
                std::thread::scope(|scope| {
                    scope.spawn(|| ingest_all(&mut durable, "v", mine));
                    ingest_all(&mut applied, "v", theirs);
                });
                durable.drain().unwrap();
            }
            done.send(()).unwrap();
            durable
        })
    };
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("the rounds stalled: a parked block, durable ack or drain missed its wake-up");
    let mut client = rounds.join().unwrap();

    assert!(
        client.stats().unwrap().queue_rejections() > 0,
        "one-slot queues must have refused (and so parked) some blocks"
    );
    let snapshot = client.snapshot().unwrap();
    let mut reference: TugOfWarSketch = TugOfWarSketch::new(params, 0xBEEF);
    for block in &blocks {
        reference.apply_block(block);
    }
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        reference.counters(),
        "wire counters must equal an in-process sketch of the same blocks"
    );
    drop(client);
    handle.stop();
}
