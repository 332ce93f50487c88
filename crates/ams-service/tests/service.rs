//! Integration tests for the sharded ingest service: the shard-merge
//! equivalence property (sharded ≡ single-sketch, bit-identical
//! counters) and the bounded-memory backpressure guarantee.

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_service::{AmsService, RouterPolicy, ServiceConfig, ServiceError};
use ams_stream::{Op, OpBlock};
use proptest::prelude::*;

/// Well-formed op sequences (every delete matches a live insert) —
/// the same oracle style as `crates/ams-core/tests/prop.rs`.
fn wellformed_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..50, any::<bool>()), 1..max_len).prop_map(|raw| {
        let mut live = std::collections::HashMap::<u64, u64>::new();
        let mut ops = Vec::with_capacity(raw.len());
        for (v, want_delete) in raw {
            let count = live.entry(v).or_insert(0);
            if want_delete && *count > 0 {
                *count -= 1;
                ops.push(Op::Delete(v));
            } else {
                *count += 1;
                ops.push(Op::Insert(v));
            }
        }
        ops
    })
}

fn config(shards: usize, router: RouterPolicy) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(shards)
        .sketch_params(SketchParams::new(16, 3).unwrap())
        .seed(0xFEED)
        .router(router)
        .publish_every(2)
        .build()
        .unwrap()
}

/// The skewed variant: 1–2-slot queues and a sketch wide enough that a
/// block costs its worker far more than its producer, so queues stay
/// backed up behind workers whose coalescing gate is on — the
/// conditions under which a worker sweeps several queued blocks at once.
fn skewed_config(shards: usize, router: RouterPolicy, capacity: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(shards)
        .queue_capacity(capacity)
        .sketch_params(SketchParams::new(256, 4).unwrap())
        .seed(0xFEED)
        .router(router)
        .publish_every(2)
        .build()
        .unwrap()
}

proptest! {
    /// For any stream, shard count, and routing policy, sharded
    /// ingestion through the service followed by merge-on-query yields
    /// counters bit-identical to single-sketch ingestion of the same
    /// stream — the linearity dividend the whole service is built on.
    #[test]
    fn sharded_service_equals_single_sketch(
        ops in wellformed_ops(300),
        shards in 1usize..5,
        hash_router in any::<bool>(),
        chunk in 1usize..48,
        blocking in any::<bool>(),
        skewed in any::<bool>(),
        capacity in 1usize..3,
    ) {
        let router = if hash_router {
            RouterPolicy::HashPartition
        } else {
            RouterPolicy::RoundRobin
        };
        // A skewed case folds the values onto a narrow domain (still
        // well-formed: a delete's value keeps at least as many live
        // copies) and runs through 1–2-slot queues, so batches form.
        let ops: Vec<Op> = if skewed {
            ops.iter()
                .map(|op| match *op {
                    Op::Insert(v) => Op::Insert(v % 6),
                    Op::Delete(v) => Op::Delete(v % 6),
                })
                .collect()
        } else {
            ops
        };
        let cfg = if skewed {
            skewed_config(shards, router, capacity)
        } else {
            config(shards, router)
        };
        let service = AmsService::start(cfg.clone(), &["v"]).unwrap();
        for piece in ops.chunks(chunk) {
            let mut block = OpBlock::from_ops(piece.iter().copied());
            if blocking {
                service.ingest_block("v", block).unwrap();
                continue;
            }
            // A refused submission comes back whole; resubmit it until
            // it lands.
            loop {
                match service.submit("v", block, None, 0) {
                    Ok(_) => break,
                    Err((back, ServiceError::WouldBlock { .. })) => {
                        block = back;
                        std::thread::yield_now();
                    }
                    Err((_, e)) => panic!("unexpected ingest error: {e}"),
                }
            }
        }
        service.drain();
        let live_snapshot = service.snapshot();
        let batched = service
            .metrics_snapshot()
            .counter_total("service_batched_blocks");
        let (final_snapshot, stats) = service.shutdown();

        let mut single: TugOfWarSketch = TugOfWarSketch::new(cfg.params(), cfg.seed());
        single.extend_ops(ops.iter().copied());

        prop_assert_eq!(
            live_snapshot.sketch("v").unwrap().counters(),
            single.counters()
        );
        prop_assert_eq!(
            final_snapshot.sketch("v").unwrap().counters(),
            single.counters()
        );
        prop_assert_eq!(final_snapshot.ops(), ops.len() as u64);
        prop_assert_eq!(stats.ops_ingested(), ops.len() as u64);
        // Bounded memory held throughout.
        prop_assert!(stats.max_queue_depth() <= cfg.queue_capacity());
        // Two slots let a worker find a queued block behind the one it
        // popped; over a stream of several blocks, some were batched.
        if skewed && capacity == 2 && ops.chunks(chunk).count() >= 8 {
            prop_assert!(batched > 0, "no multi-block sweep formed");
        }
    }
}

/// Fast producer, slow consumer: the queue bound is a hard memory cap.
/// The producer observes `WouldBlock` (non-blocking path) and blocking
/// waits, and the high-water mark never exceeds the configured
/// capacity.
#[test]
fn backpressure_bounds_queue_depth_under_fast_producer() {
    let capacity = 2;
    let cfg = ServiceConfig::builder()
        .shards(1)
        .queue_capacity(capacity)
        // A deliberately expensive sketch so the consumer is slower
        // than the producer's queue pushes (which only move a block).
        .sketch_params(SketchParams::single_group(512).unwrap())
        .seed(7)
        .build()
        .unwrap();
    let service = AmsService::start(cfg, &["v"]).unwrap();

    // Distinct-value blocks defeat coalescing: every entry costs a full
    // plane sweep row evaluation, keeping the worker busy.
    let block = OpBlock::from_values(0..2_048u64);
    let mut would_block = 0u64;
    for _ in 0..12 {
        // Non-blocking first; on backpressure fall back to the blocking
        // push, which parks the producer instead of growing the queue.
        match service.submit("v", block.clone(), None, 0) {
            Ok(_) => {}
            Err((_, ServiceError::WouldBlock { shard })) => {
                assert_eq!(shard, 0);
                would_block += 1;
                service.ingest_block("v", block.clone()).unwrap();
            }
            Err((_, e)) => panic!("unexpected ingest error: {e}"),
        }
        let depth = service.stats().shards[0].queue_depth;
        assert!(depth <= capacity, "queue depth {depth} exceeds capacity");
    }
    service.drain();
    let (snapshot, stats) = service.shutdown();

    assert_eq!(stats.blocks_ingested(), 12);
    assert_eq!(snapshot.ops(), 12 * 2_048);
    let shard = &stats.shards[0];
    assert!(
        shard.max_queue_depth <= capacity,
        "high-water mark {} exceeds capacity {capacity}",
        shard.max_queue_depth
    );
    assert!(
        would_block > 0 && shard.backpressure_events >= would_block,
        "expected backpressure under a fast producer \
         (would_block {would_block}, events {})",
        shard.backpressure_events
    );
}

/// Hash-partitioned non-blocking ingestion is all-or-nothing: a full
/// shard rejects the whole submission, and nothing was enqueued for the
/// other shards.
#[test]
fn try_ingest_multi_shard_is_atomic() {
    let cfg = ServiceConfig::builder()
        .shards(2)
        .queue_capacity(1)
        .sketch_params(SketchParams::single_group(1_024).unwrap())
        .router(RouterPolicy::HashPartition)
        .seed(3)
        .build()
        .unwrap();
    let service = AmsService::start(cfg, &["v"]).unwrap();
    // Values spanning both shards, expensive enough that the workers
    // stay busy while we slam the queues.
    let block = OpBlock::from_values(0..4_096u64);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..24 {
        match service.submit("v", block.clone(), None, 0) {
            Ok(_) => accepted += 1,
            Err((_, ServiceError::WouldBlock { .. })) => rejected += 1,
            Err((_, e)) => panic!("unexpected ingest error: {e}"),
        }
    }
    service.drain();
    let (snapshot, stats) = service.shutdown();
    // All-or-nothing: the ops reflected are exactly the accepted
    // submissions — a partial enqueue would break this count.
    assert_eq!(snapshot.ops(), accepted * 4_096);
    assert!(stats.max_queue_depth() <= 1);
    let _ = rejected;
}
