//! Durable tracking: crash a service mid-stream, restart it over the
//! same directory, and verify the recovered sketch **bit for bit**.
//!
//! An [`AmsService`] with a write-ahead log ingests a zipf stream until
//! an injected [`FaultPlan`] wedges its WAL writer mid-segment — the
//! stand-in for `kill -9`. A second service started over the same
//! directory recovers from the newest checkpoint plus log-tail replay,
//! and because tug-of-war counters are plain signed sums (the linearity
//! the paper's Section 2 estimator is built on), the recovered state
//! must equal — not approximate — a never-crashed twin fed the same
//! durable prefix. A final clean shutdown then demonstrates the other
//! path: a closing checkpoint that makes the next start replay nothing.
//!
//! ```text
//! cargo run --release --example durable_tracking
//! ```

use ams::stream::value_blocks;
use ams::{
    AmsService, DatasetId, DurabilityConfig, FaultPlan, FsyncPolicy, SelfJoinEstimator,
    ServiceConfig, SketchParams, TugOfWarSketch,
};

const SEED: u64 = 0xD1CE;
/// Source values per submitted block.
const BLOCK: usize = 1024;
/// Appends after which the injected fault wedges the WAL writer.
const CRASH_AFTER: u64 = 120;

fn params() -> SketchParams {
    SketchParams::new(64, 4).expect("valid sketch geometry")
}

fn config(durability: DurabilityConfig) -> ServiceConfig {
    // One shard keeps "the durable prefix" literally the first K
    // submitted blocks, which is what makes the twin comparison below
    // exact; the recovery machinery itself is per-shard and identical
    // at any shard count.
    ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(SEED)
        .durability(durability)
        .build()
        .expect("valid service config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("ams-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    let values = DatasetId::Zipf10.generate(2026);
    let blocks: Vec<_> = value_blocks(&values, BLOCK).collect();
    println!(
        "stream: n = {}, {} blocks of {BLOCK}; WAL + checkpoints under {}\n",
        values.len(),
        blocks.len(),
        dir.display()
    );

    // Phase 1: ingest under an injected fault. After CRASH_AFTER
    // appends the WAL writer wedges — everything later is discarded,
    // exactly as if the process had been killed at that point.
    let durability = || {
        DurabilityConfig::new(&dir)
            .with_fsync(FsyncPolicy::GroupCommit {
                interval: std::time::Duration::ZERO,
            })
            .with_checkpoint_every(32)
    };
    let fault = FaultPlan {
        fail_after_appends: Some(CRASH_AFTER),
        ..FaultPlan::default()
    };
    let service = AmsService::start(config(durability().with_fault(fault)), &["v"])?;
    for block in &blocks {
        service.ingest_block("v", block.clone())?;
    }
    let _ = service.shutdown();
    println!(
        "phase 1: submitted {} blocks, WAL wedged after {CRASH_AFTER} appends (simulated crash)",
        blocks.len()
    );

    // Phase 2: restart over the same directory. Recovery loads the
    // newest valid checkpoint and replays the log tail through
    // `apply_block`.
    let service = AmsService::start(config(durability()), &["v"])?;
    let report = &service.recovery()[0];
    let k = report.checkpoint_blocks + report.replayed_blocks;
    println!(
        "phase 2: recovered shard {} from checkpoint epoch {:?} ({} blocks) + {} replayed \
         blocks ({} ops), resumed at {:?}",
        report.shard,
        report.checkpoint_epoch,
        report.checkpoint_blocks,
        report.replayed_blocks,
        report.replayed_ops,
        report.resumed_at,
    );
    assert!(
        report.is_clean(),
        "no artifact may be skipped: {:?}",
        report.skipped
    );
    assert_eq!(k, CRASH_AFTER, "exactly the appended prefix survives");

    // The linearity dividend: the recovered counters equal a
    // never-crashed twin's, bit for bit — not within tolerance.
    let mut twin: TugOfWarSketch = TugOfWarSketch::new(params(), SEED);
    for block in &blocks[..k as usize] {
        twin.apply_block(block);
    }
    // The worker publishes the recovered state as its first action;
    // wait for that publish before reading merged counters.
    while service.snapshot().blocks() < k {
        std::thread::yield_now();
    }
    let recovered = service.merged_sketch("v")?;
    assert_eq!(
        recovered.counters(),
        twin.counters(),
        "recovered counters must be bit-identical to the never-crashed twin"
    );
    println!(
        "          recovered ≡ twin on all {} counters; SJ estimate {:.4e}",
        recovered.counters().len(),
        recovered.estimate()
    );

    // Phase 3: finish the stream, shut down cleanly (final checkpoint
    // + segment prune), and restart once more: nothing left to replay.
    for block in &blocks[k as usize..] {
        service.ingest_block("v", block.clone())?;
    }
    service.drain();
    let _ = service.shutdown();
    let service = AmsService::start(config(durability()), &["v"])?;
    let report = &service.recovery()[0];
    println!(
        "phase 3: clean restart — checkpoint covers {} blocks, {} replayed (zero-replay start)",
        report.checkpoint_blocks, report.replayed_blocks
    );
    assert_eq!(report.replayed_blocks, 0, "a clean shutdown leaves no tail");
    assert_eq!(report.checkpoint_blocks, blocks.len() as u64);
    let _ = service.shutdown();

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
