//! Concurrent tracking via the sharded ingest service.
//!
//! This used to be a hand-rolled demo of per-shard block queues; that
//! machinery now lives in the `ams-service` crate, and this example is
//! a thin tour of it: an [`AmsService`] with four ingest shards behind
//! **bounded** block queues (real backpressure), a producer thread
//! streaming 500k zipf values through the columnar pipeline, and a
//! concurrent reader taking epoch-stamped **merge-on-query** snapshots
//! while ingestion runs. Because tug-of-war sketches are linear, the
//! merged shard counters equal single-threaded per-item sketching bit
//! for bit — asserted at the end.
//!
//! ```text
//! cargo run --release --example concurrent_tracking
//! ```

use std::thread;
use std::time::Duration;

use ams::stream::value_blocks;
use ams::{
    AmsService, DatasetId, Multiset, RouterPolicy, SelfJoinEstimator, ServiceConfig, SketchParams,
    TugOfWarSketch,
};

const SHARDS: usize = 4;
/// Source values per submitted block.
const BLOCK: usize = 4096;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let values = DatasetId::Zipf10.generate(2026);
    let exact = Multiset::from_values(values.iter().copied());
    let exact_sj = exact.self_join_size() as f64;
    println!(
        "stream: n = {}, exact SJ = {:.4e}; {SHARDS}-shard service, block-{BLOCK} ingest\n",
        exact.len(),
        exact_sj
    );

    // Small queues on purpose: the stats below show backpressure doing
    // its job (bounded memory) if the producer outruns the shards.
    let config = ServiceConfig::builder()
        .shards(SHARDS)
        .queue_capacity(8)
        .sketch_params(SketchParams::new(64, 4)?)
        .seed(0xC0_FFEE)
        .router(RouterPolicy::RoundRobin)
        .publish_every(4)
        .build()?;
    let service = AmsService::start(config, &["v"])?;

    thread::scope(|scope| {
        // Producer: submit columnar blocks; `ingest_block` blocks when
        // the routed shard's queue is full (`submit` never blocks: it
        // hands the block back with a WouldBlock instead).
        let service_ref = &service;
        let values_ref = &values;
        scope.spawn(move || {
            for block in value_blocks(values_ref, BLOCK) {
                service_ref
                    .ingest_block("v", block)
                    .expect("service is running");
            }
        });

        // Reader: concurrent merged snapshots while ingestion runs.
        scope.spawn(move || loop {
            let snapshot = service_ref.snapshot();
            let est = snapshot.self_join("v").expect("registered attribute");
            println!(
                "  live estimate: {est:.4e}  ({:+6.2}% vs final exact; \
                 {} ops reflected, shard epochs {}..={})",
                100.0 * (est - exact_sj) / exact_sj,
                snapshot.ops(),
                snapshot.epoch_min(),
                snapshot.epoch_max(),
            );
            if snapshot.ops() == values_ref.len() as u64 {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        });
    });

    // Drain, then query: the snapshot now reflects every submitted
    // block exactly.
    service.drain();
    let snapshot = service.snapshot();
    let est = snapshot.self_join("v")?;
    println!(
        "\nfinal merged estimate: {est:.4e}  (exact {exact_sj:.4e}, error {:+.2}%)",
        100.0 * (est - exact_sj) / exact_sj
    );
    let rel = (est - exact_sj).abs() / exact_sj;
    assert!(rel < 0.25, "merged estimate off by {rel}");

    // Linearity, verified end to end: the merged shard sketches equal
    // sketching the whole stream one value at a time on one thread.
    let mut single: TugOfWarSketch =
        TugOfWarSketch::new(service.config().params(), service.config().seed());
    for &v in &values {
        single.insert(v);
    }
    assert_eq!(single.counters(), snapshot.sketch("v")?.counters());
    println!(
        "verified: merge of {SHARDS} service shards == single-threaded per-item \
         sketch, counter for counter."
    );

    let (_final_snapshot, stats) = service.shutdown();
    println!("\nservice stats at shutdown:");
    for shard in &stats.shards {
        println!(
            "  shard {}: {} blocks ingested, queue high-water {}/{} blocks, \
             {} backpressure events, epoch {}",
            shard.shard,
            shard.blocks_ingested,
            shard.max_queue_depth,
            shard.queue_capacity,
            shard.backpressure_events,
            shard.epoch,
        );
    }
    assert!(stats.max_queue_depth() <= 8, "bounded queues held");
    Ok(())
}
