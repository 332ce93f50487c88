//! Kill-and-restart loopback test for the reconnecting client: a
//! durable server is stopped and rebound on the same address **while a
//! tagged pipeline is in flight**. The client must redial with backoff,
//! resubmit exactly its unacknowledged suffix (original sequence
//! numbers, so an applied-but-unacked block is deduped rather than
//! double-counted), and finish the stream — with final counters
//! bit-identical to a never-interrupted single sketch fed the same
//! blocks. No acked block lost, no unacked block applied twice.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_net::{
    AckMode, AmsClient, IngestOutcome, NetError, NetServer, ReconnectPolicy, ServerHandle,
};
use ams_service::{AmsService, DurabilityConfig, Router, RouterPolicy, ServiceConfig};
use ams_stream::OpBlock;

const SEED: u64 = 0xACED;
const TOTAL: u64 = 480;
const PHASE1: u64 = 120;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A self-cleaning temp dir (no tempfile crate in the workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let path = std::env::temp_dir().join(format!(
            "ams-net-reconnect-{tag}-{}-{}-{nanos}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn params() -> SketchParams {
    SketchParams::new(16, 3).unwrap()
}

fn block(i: u64) -> OpBlock {
    OpBlock::from_values((0..64).map(|j| i * 1009 + j))
}

/// A durable sharded service over `dir`. Hash partitioning keeps the
/// idempotency tags alive through the service (a round-robin router
/// drops them: resubmission could land on a different shard and a
/// later seq must not mask it).
fn durable_service(dir: &Path) -> AmsService {
    let config = ServiceConfig::builder()
        .shards(2)
        .queue_capacity(1024)
        .sketch_params(params())
        .seed(SEED)
        .router(RouterPolicy::HashPartition)
        .durability(DurabilityConfig::new(dir))
        .build()
        .unwrap();
    AmsService::start(config, &["v"]).unwrap()
}

fn bind_and_spawn(addr: &str, dir: &Path) -> ServerHandle {
    let server = NetServer::bind(addr).unwrap();
    server.spawn(durable_service(dir))
}

#[test]
fn mid_pipeline_server_restart_loses_and_duplicates_nothing() {
    let dir = TempDir::new("kill");
    let handle = bind_and_spawn("127.0.0.1:0", dir.path());
    let addr = handle.addr();

    let mut client = AmsClient::connect(addr)
        .unwrap()
        .with_ack_mode(AckMode::Fsync)
        .with_reconnect(ReconnectPolicy::default());

    let blocks: Vec<OpBlock> = (0..TOTAL).map(block).collect();

    // Phase 1: a warm, acked prefix on server #1. Fsync acks mean
    // every one of these is on stable storage when the call returns.
    let outcomes = client
        .ingest_blocks("v", &blocks[..PHASE1 as usize])
        .unwrap();
    assert!(
        outcomes.iter().all(|o| *o == IngestOutcome::Ingested),
        "ring >= window, so nothing may be shed"
    );

    // Kill-and-rebind concurrently with phase 2. The restarted server
    // recovers the durable state from the same directory; the client
    // rides through on its reconnect policy.
    let dir_path = dir.path().to_path_buf();
    let killer = std::thread::spawn(move || {
        let _ = handle.stop();
        loop {
            match NetServer::bind(addr) {
                Ok(server) => return server.spawn(durable_service(&dir_path)),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    });

    let outcomes = client
        .ingest_blocks("v", &blocks[PHASE1 as usize..])
        .unwrap();
    assert!(
        outcomes.iter().all(|o| *o == IngestOutcome::Ingested),
        "every resubmitted block must eventually land"
    );

    let handle2 = killer.join().unwrap();

    // The client survived at least one transport death (during phase 2
    // or on the next query, depending on how the race fell).
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    assert!(
        client.local_metrics().counter_total("client_reconnects") >= 1,
        "the restart must have forced a reconnect"
    );

    // The acceptance pin: exactly TOTAL blocks' worth of ops applied
    // across both server lifetimes — acked-then-recovered ones once,
    // resubmitted ones once. (`blocks()` counts per-shard tasks — the
    // hash router splits one submission across shards — so the op
    // total is the exact loss/duplication detector.)
    assert_eq!(
        snapshot.ops(),
        TOTAL * 64,
        "no block lost, none double-counted"
    );
    let mut twin: TugOfWarSketch = TugOfWarSketch::new(params(), SEED);
    for b in &blocks {
        twin.apply_block(b);
    }
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        twin.counters(),
        "recovered + resubmitted counters must be bit-identical to the twin"
    );

    let _ = handle2.stop();
}

#[test]
fn fsync_acks_work_against_a_durability_off_server() {
    // AckMode::Fsync against a server with no WAL degrades to an
    // applied-by-workers ack instead of erroring or hanging.
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(SEED)
        .build()
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(AmsService::start(config, &["v"]).unwrap());

    let mut client = AmsClient::connect(addr)
        .unwrap()
        .with_ack_mode(AckMode::Fsync);
    for i in 0..40 {
        client.ingest_block("v", &block(i)).unwrap();
    }
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    assert_eq!(snapshot.blocks(), 40);
    let _ = handle.stop();
}

#[test]
fn a_later_block_never_overtakes_a_parked_one() {
    // Cap-1 queues under tagged durable ingest: A fills shard 0, so B
    // parks behind it, and C (on both shards) behind B. D touches
    // shard 1 only, whose queue is free. Had D been submitted while C
    // was parked, it would land first, raise shard 1's max-seq mark
    // past C's, and shard 1 would then skip C's part as a duplicate
    // after C was acknowledged.
    let dir = TempDir::new("order");
    let config = ServiceConfig::builder()
        .shards(2)
        .queue_capacity(1)
        .sketch_params(params())
        .seed(SEED)
        .router(RouterPolicy::HashPartition)
        .durability(DurabilityConfig::new(dir.path()))
        .build()
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(AmsService::start(config, &["v"]).unwrap());

    let router = Router::new(RouterPolicy::HashPartition, 2, SEED);
    let on = |shard: usize, n: usize| -> Vec<u64> {
        (0u64..)
            .filter(|&v| router.shard_of_value(v) == shard)
            .take(n)
            .collect()
    };
    let zero = on(0, 2 * 8_192 + 4);
    let one = on(1, 8);
    let blocks = [
        OpBlock::from_values(zero[..8_192].iter().copied()),
        OpBlock::from_values(zero[8_192..2 * 8_192].iter().copied()),
        OpBlock::from_values(zero[2 * 8_192..].iter().chain(&one[..4]).copied()),
        OpBlock::from_values(one[4..].iter().copied()),
    ];
    let total: u64 = blocks.iter().map(OpBlock::ops).sum();

    let mut client = AmsClient::connect(addr)
        .unwrap()
        .with_ack_mode(AckMode::Fsync)
        .with_reconnect(ReconnectPolicy::default());
    let outcomes = client.ingest_blocks("v", &blocks).unwrap();
    assert!(
        outcomes.iter().all(|o| *o == IngestOutcome::Ingested),
        "{outcomes:?}"
    );
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    assert_eq!(snapshot.ops(), total, "every acknowledged op is applied");
    let mut twin: TugOfWarSketch = TugOfWarSketch::new(params(), SEED);
    for b in &blocks {
        twin.apply_block(b);
    }
    assert_eq!(snapshot.sketch("v").unwrap().counters(), twin.counters());
    drop(client);
    let _ = handle.stop();
}

#[test]
fn a_request_that_cannot_be_encoded_fails_without_redialing() {
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(SEED)
        .build()
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(AmsService::start(config, &["v"]).unwrap());

    let mut client = AmsClient::connect(addr)
        .unwrap()
        .with_reconnect(ReconnectPolicy::default());
    // An empty scrape section set and a name past the 64 KiB string
    // field are the caller's errors: nothing is sent, nothing redials.
    let long = "n".repeat(70_000);
    let reconnects = |client: &AmsClient| client.local_metrics().counter_total("client_reconnects");
    assert!(matches!(client.scrape(0), Err(NetError::Encode(_))));
    assert!(matches!(client.self_join(&long), Err(NetError::Encode(_))));
    assert_eq!(reconnects(&client), 0);
    assert!(matches!(
        client.ingest_blocks(&long, &[block(0)]),
        Err(NetError::Encode(_))
    ));
    assert_eq!(reconnects(&client), 0);

    // The connection is still in step.
    client.ingest_block("v", &block(1)).unwrap();
    client.drain().unwrap();
    assert_eq!(client.snapshot().unwrap().blocks(), 1);
    assert_eq!(reconnects(&client), 0);
    drop(client);
    let _ = handle.stop();
}

#[test]
fn an_encode_failure_mid_pipeline_keeps_the_connection_in_step() {
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(SEED)
        .build()
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(AmsService::start(config, &["v"]).unwrap());

    let mut client = AmsClient::connect(addr).unwrap();
    // Sixteen one-value blocks fill the first batch, which is sent;
    // the next batch holds a block of 1.2 M values, about 19.2 MB on
    // the wire and over the 16 MiB frame limit, so it cannot be
    // encoded while the first batch's answers are still on the way.
    let mut blocks: Vec<OpBlock> = (0..16u64).map(|v| OpBlock::from_values([v])).collect();
    blocks.push(OpBlock::from_values(0..1_200_000u64));
    assert!(matches!(
        client.ingest_blocks("v", &blocks),
        Err(NetError::Encode(_))
    ));
    // The first batch's answers were read before the error returned,
    // so the next requests read their own answers.
    for _ in 0..2 {
        client.self_join("v").unwrap();
    }
    client.drain().unwrap();
    assert_eq!(client.snapshot().unwrap().blocks(), 16);
    drop(client);
    let _ = handle.stop();
}
