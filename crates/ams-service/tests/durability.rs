//! Kill-and-restart proofs for the durability layer, at service level:
//! a service wedged by an injected WAL/checkpoint fault models a crash
//! at that exact point, and a restart over the same directory must
//! recover counters **bit-identical** to a never-crashed twin fed the
//! durable prefix — the linearity dividend (sketch counters are signed
//! sums, so replaying a logged prefix is pure addition) made into a
//! test. One shard keeps the durable prefix literally "the first K
//! submitted blocks", which is what makes the twin comparison exact.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_durable::{ShardDurable, ShardShape, WalInstruments};
use ams_service::{
    AmsService, DurabilityConfig, FaultPlan, FsyncPolicy, ServiceConfig, ServiceError,
};
use ams_stream::OpBlock;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Syncs the WAL after every batch a shard worker applies.
const EVERY_BATCH: FsyncPolicy = FsyncPolicy::GroupCommit {
    interval: Duration::ZERO,
};

/// A self-cleaning temp dir (no tempfile crate in the workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let path = std::env::temp_dir().join(format!(
            "ams-service-durable-{tag}-{}-{}-{nanos}",
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

/// Deterministic, pairwise-distinct blocks so "the first K blocks" is
/// a meaningful prefix.
fn block(i: u64) -> OpBlock {
    OpBlock::from_values((0..16).map(|j| i * 131 + j))
}

fn service_config(durability: DurabilityConfig) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(0xD0E)
        .publish_every(4)
        .durability(durability)
        .build()
        .unwrap()
}

/// The never-crashed twin: one sketch fed blocks `0..k` directly.
fn twin(k: u64) -> TugOfWarSketch {
    let mut sketch = TugOfWarSketch::new(params(), 0xD0E);
    for i in 0..k {
        sketch.apply_block(&block(i));
    }
    sketch
}

/// Runs a service over `dir` with the given fault plan, feeds it
/// `total` blocks, and shuts it down (a wedged writer models the
/// crash: everything past the fault point is gone from disk).
fn run_until_crash(fault: FaultPlan, total: u64, durability: DurabilityConfig) {
    let cfg = service_config(durability.with_fault(fault));
    let service = AmsService::start(cfg, &["v"]).unwrap();
    for i in 0..total {
        service.ingest_block("v", block(i)).unwrap();
    }
    // No drain: a wedged shard discards (blocks are never applied), so
    // an applied-cut wait would hang — exactly as a crashed process
    // never quiesces. Shutdown alone drains the queue by discarding.
    let _ = service.shutdown();
}

/// Restarts over `dir` with no fault and returns the recovered
/// service plus the durable prefix length K it reports.
fn restart(durability: DurabilityConfig) -> (AmsService, u64) {
    let cfg = service_config(durability);
    let service = AmsService::start(cfg, &["v"]).unwrap();
    let report = &service.recovery()[0];
    let k = report.checkpoint_blocks + report.replayed_blocks;
    (service, k)
}

fn assert_bit_identical(service: &AmsService, k: u64) {
    // The worker publishes the recovered state as its first action;
    // wait for that publish to land before reading merged counters.
    while service.snapshot().blocks() < k {
        std::thread::yield_now();
    }
    let recovered = service.merged_sketch("v").unwrap();
    assert_eq!(
        recovered.counters(),
        twin(k).counters(),
        "recovered counters must be bit-identical to a never-crashed twin fed {k} blocks"
    );
}

#[test]
fn crash_mid_segment_recovers_bit_identically() {
    let dir = TempDir::new("mid-segment");
    let durability = || {
        DurabilityConfig::new(dir.path())
            .with_fsync(EVERY_BATCH)
            .with_segment_max_bytes(2048)
    };
    let fault = FaultPlan {
        fail_after_appends: Some(37),
        ..FaultPlan::default()
    };
    run_until_crash(fault, 60, durability());

    let (service, k) = restart(durability());
    assert!(k > 0, "some prefix must have survived");
    assert!(k < 60, "the fault must have cut the stream short (k = {k})");
    assert_bit_identical(&service, k);
    let _ = service.shutdown();
}

#[test]
fn crash_mid_rotation_recovers_bit_identically() {
    let dir = TempDir::new("mid-rotation");
    // Small segments force several rotations inside 60 blocks; the
    // fault tears the header of segment 2 mid-write.
    let durability = || {
        DurabilityConfig::new(dir.path())
            .with_fsync(EVERY_BATCH)
            .with_segment_max_bytes(512)
    };
    let fault = FaultPlan {
        fail_on_rotation: Some(2),
        ..FaultPlan::default()
    };
    run_until_crash(fault, 60, durability());

    let (service, k) = restart(durability());
    assert!(k > 0, "the first segments must have survived");
    assert!(
        k < 60,
        "the torn rotation must have cut the stream (k = {k})"
    );
    assert_bit_identical(&service, k);
    let _ = service.shutdown();
}

#[test]
fn crash_mid_checkpoint_falls_back_and_replays() {
    let dir = TempDir::new("mid-checkpoint");
    // Checkpoint every 8 blocks; the second checkpoint write tears
    // (half a tmp file, never renamed), wedging the writer at block 16.
    let durability = || {
        DurabilityConfig::new(dir.path())
            .with_fsync(EVERY_BATCH)
            .with_checkpoint_every(8)
    };
    let fault = FaultPlan {
        fail_on_checkpoint: Some(2),
        ..FaultPlan::default()
    };
    run_until_crash(fault, 40, durability());

    let (service, k) = restart(durability());
    let report = &service.recovery()[0];
    assert_eq!(
        report.checkpoint_blocks, 8,
        "recovery must use the first (intact) checkpoint"
    );
    assert_eq!(k, 16, "everything appended before the wedge is durable");
    assert!(
        report.replayed_blocks > 0,
        "the tail past the checkpoint replays"
    );
    assert_bit_identical(&service, k);
    let _ = service.shutdown();
}

#[test]
fn batched_sweeps_before_a_crash_recover_bit_identically() {
    // A skewed stream through a 4-slot queue behind a worker that
    // fsyncs every step: the producer keeps the queue backed up and the
    // sketch's coalescing gate stays on, so the worker applies blocks in
    // multi-block sweeps before the second checkpoint tears. A batch
    // never crosses a checkpoint boundary, so the intact checkpoint
    // still sits exactly on the 8-block cadence.
    let skewed = |i: u64| OpBlock::from_values((0..16).map(|j| (i * 7 + j * j) % 5));
    let dir = TempDir::new("batched");
    let durability = || {
        DurabilityConfig::new(dir.path())
            .with_fsync(EVERY_BATCH)
            .with_checkpoint_every(8)
    };
    let crashing = ServiceConfig::builder()
        .shards(1)
        .queue_capacity(4)
        .sketch_params(params())
        .seed(0xD0E)
        .publish_every(4)
        .durability(durability().with_fault(FaultPlan {
            fail_on_checkpoint: Some(2),
            ..FaultPlan::default()
        }))
        .build()
        .unwrap();
    let service = AmsService::start(crashing, &["v"]).unwrap();
    let registry = service.registry();
    for i in 0..40 {
        service.ingest_block("v", skewed(i)).unwrap();
    }
    let _ = service.shutdown();
    assert!(
        registry.snapshot().counter_total("service_batched_blocks") > 0,
        "blocks were swept in batches before the crash"
    );

    let (service, k) = restart(durability());
    assert_eq!(
        service.recovery()[0].checkpoint_blocks,
        8,
        "the intact checkpoint is on the cadence"
    );
    assert_eq!(k, 16, "everything appended before the wedge is durable");
    let mut twin: TugOfWarSketch = TugOfWarSketch::new(params(), 0xD0E);
    for i in 0..k {
        twin.apply_block(&skewed(i));
    }
    while service.snapshot().blocks() < k {
        std::thread::yield_now();
    }
    assert_eq!(
        service.merged_sketch("v").unwrap().counters(),
        twin.counters()
    );
    let _ = service.shutdown();
}

#[test]
fn graceful_shutdown_restarts_with_zero_replay() {
    let dir = TempDir::new("graceful");
    let durability = || DurabilityConfig::new(dir.path());
    {
        let cfg = service_config(durability());
        let service = AmsService::start(cfg, &["v"]).unwrap();
        for i in 0..25 {
            service.ingest_block("v", block(i)).unwrap();
        }
        service.drain();
        let _ = service.shutdown();
    }
    let (service, k) = restart(durability());
    let report = &service.recovery()[0];
    assert_eq!(
        report.replayed_blocks, 0,
        "a clean shutdown's final checkpoint leaves nothing to replay"
    );
    assert!(
        report.is_clean(),
        "no artifacts may be skipped: {:?}",
        report.skipped
    );
    assert_eq!(k, 25);
    assert_bit_identical(&service, k);
    let _ = service.shutdown();
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let dir = TempDir::new("ckpt-fallback");
    let durability = || {
        DurabilityConfig::new(dir.path())
            .with_fsync(EVERY_BATCH)
            .with_checkpoint_every(8)
    };
    {
        let cfg = service_config(durability());
        let service = AmsService::start(cfg, &["v"]).unwrap();
        for i in 0..24 {
            service.ingest_block("v", block(i)).unwrap();
        }
        service.drain();
        let _ = service.shutdown();
    }
    // Flip one byte in the newest checkpoint.
    let shard_dir = dir.path().join("shard-0");
    let newest = std::fs::read_dir(&shard_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .max()
        .expect("at least one checkpoint");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, bytes).unwrap();

    let (service, k) = restart(durability());
    let report = &service.recovery()[0];
    assert!(
        !report.skipped.is_empty(),
        "the corrupt checkpoint must be reported as skipped"
    );
    assert!(
        report.checkpoint_blocks < 24,
        "recovery must have fallen back to an older checkpoint"
    );
    assert_eq!(
        k, 24,
        "the WAL tail past the older checkpoint restores everything"
    );
    assert_bit_identical(&service, k);
    let _ = service.shutdown();
}

#[test]
fn tagged_resubmission_is_applied_once_and_still_acks() {
    use ams_service::{IngestTag, RouterPolicy};
    let dir = TempDir::new("dedup");
    // Tags survive only under hash partitioning (a round-robin router
    // may land a resubmission on a different shard, so the service
    // drops tags there rather than risk a false dedup).
    let cfg = ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(0xD0E)
        .router(RouterPolicy::HashPartition)
        .durability(DurabilityConfig::new(dir.path()))
        .build()
        .unwrap();
    let service = AmsService::start(cfg, &["v"]).unwrap();

    let tag = IngestTag {
        producer: 7,
        seq: 1,
    };
    // The same submission lands twice — an ack-was-lost resubmit.
    service.submit("v", block(0), Some(tag), 0).unwrap();
    service.submit("v", block(0), Some(tag), 0).unwrap();
    // A duplicate is skipped but still counts as durable: the cut
    // covering it must complete (the resubmitter gets its ack).
    let cut = service.durability_cut();
    while !service.poll_durable(&cut) {
        std::thread::yield_now();
    }
    service.drain();
    assert_eq!(
        service.snapshot().blocks(),
        1,
        "the duplicate must be skipped"
    );
    assert_bit_identical(&service, 1);
    let _ = service.shutdown();
}

#[test]
fn durability_off_service_reports_nothing() {
    let cfg = ServiceConfig::builder()
        .shards(2)
        .sketch_params(params())
        .seed(0xD0E)
        .build()
        .unwrap();
    let service = AmsService::start(cfg, &["v"]).unwrap();
    assert!(!service.durability_enabled());
    assert!(service.recovery().is_empty());
    // The durable cut degrades to a drain-style applied check.
    service.ingest_block("v", block(0)).unwrap();
    let cut = service.durability_cut();
    while !service.poll_durable(&cut) {
        std::thread::yield_now();
    }
    let _ = service.shutdown();
}

/// A 4-shard configuration over `dir`; its shape (params, seed, one
/// attribute `v`) is the one `shard_log` writes.
fn four_shards(dir: &Path) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(4)
        .sketch_params(params())
        .seed(0xD0E)
        .durability(DurabilityConfig::new(dir).with_fsync(FsyncPolicy::OsBuffered))
        .build()
        .unwrap()
}

/// Writes shard `shard`'s log under `dir` directly: blocks `from..to`,
/// with a checkpoint after the first `checkpoint_after` of them when
/// that is nonzero, and `segment_max` bytes per segment.
fn shard_log(
    dir: &Path,
    shard: usize,
    (from, to): (u64, u64),
    checkpoint_after: u64,
    segment_max: u64,
) {
    let config = DurabilityConfig::new(dir)
        .with_fsync(FsyncPolicy::OsBuffered)
        .with_segment_max_bytes(segment_max);
    let shape = ShardShape {
        params: params(),
        seed: 0xD0E,
        attributes: vec!["v".into()],
    };
    let (mut wal, recovered, _) =
        ShardDurable::open(&config, shard, &shape, WalInstruments::unregistered()).unwrap();
    let mut sketches = recovered.sketches;
    let mut ops = 0;
    for i in from..to {
        wal.append(0, 0, 0, &block(i)).unwrap();
        sketches[0].apply_block(&block(i));
        ops += block(i).ops();
        if i + 1 - from == checkpoint_after {
            wal.write_checkpoint(1, checkpoint_after, ops, &sketches, &HashMap::new())
                .unwrap();
        }
    }
    wal.sync().unwrap();
}

#[test]
fn shards_with_different_logs_recover_in_parallel_bit_identically() {
    let dir = TempDir::new("parallel");
    // Shard 0: a checkpoint plus a tail. Shard 1: a torn tail. Shard 2:
    // nothing. Shard 3: a log alone, over several segments.
    shard_log(dir.path(), 0, (0, 10), 6, 1 << 20);
    shard_log(dir.path(), 1, (10, 15), 0, 1 << 20);
    let seg = dir.path().join("shard-1").join("seg-00000000.wal");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x5A; 5]);
    std::fs::write(&seg, bytes).unwrap();
    shard_log(dir.path(), 3, (15, 22), 0, 256);

    let service = AmsService::start(four_shards(dir.path()), &["v"]).unwrap();
    let recovery = service.recovery();
    let shards: Vec<usize> = recovery.iter().map(|r| r.shard).collect();
    assert_eq!(shards, [0, 1, 2, 3], "reports in shard order");
    let blocks: Vec<(u64, u64)> = recovery
        .iter()
        .map(|r| (r.checkpoint_blocks, r.replayed_blocks))
        .collect();
    assert_eq!(blocks, [(6, 4), (0, 5), (0, 0), (0, 7)]);
    assert_eq!(recovery[0].checkpoint_epoch, Some(1));
    assert!(
        recovery[1]
            .skipped
            .iter()
            .any(|s| s.reason == "torn record header"),
        "{:?}",
        recovery[1].skipped
    );
    assert!(recovery[2].is_clean() && recovery[3].is_clean());
    // Every shard published its recovered state before `start`
    // returned, so the merged counters are complete at once.
    let snapshot = service.snapshot();
    assert_eq!((snapshot.blocks(), snapshot.ops()), (22, 22 * 16));
    assert_eq!(
        service.merged_sketch("v").unwrap().counters(),
        twin(22).counters(),
        "the merged shards equal a never-crashed twin fed every logged block"
    );
    let _ = service.shutdown();
}

#[test]
fn an_unrecoverable_shard_fails_start_and_stops_every_worker() {
    let dir = TempDir::new("unrecoverable");
    shard_log(dir.path(), 0, (0, 8), 4, 1 << 20);
    shard_log(dir.path(), 1, (8, 12), 0, 1 << 20);
    // Shard 2 lost its only checkpoint's predecessor log: a pruned log
    // with no checkpoint cannot rebuild a consistent prefix.
    shard_log(dir.path(), 2, (12, 30), 0, 256);
    std::fs::remove_file(dir.path().join("shard-2").join("seg-00000000.wal")).unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    let config = four_shards(dir.path());
    std::thread::spawn(move || {
        let _ = tx.send(AmsService::start(config, &["v"]).map(drop));
    });
    let started = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("start must return, not hang");
    match started {
        Err(ServiceError::Durability { reason }) => {
            assert!(reason.contains("unrecoverable"), "{reason}");
            assert!(reason.contains("shard-2"), "{reason}");
        }
        other => panic!("expected the unrecoverable shard's error, got {other:?}"),
    }
    // Every worker that recovered held its segment open; `start` joined
    // them all before returning, so no file under the directory is
    // still open.
    #[cfg(target_os = "linux")]
    {
        let open: Vec<PathBuf> = std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir.path()))
            .collect();
        assert!(open.is_empty(), "files still open: {open:?}");
    }
}
