//! The durability layer's instrument bundle, priced from one metrics
//! scrape alongside the service and net series:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `wal_append_bytes{shard}` | histogram | bytes per appended record (header + payload) |
//! | `wal_failures{shard,op}` | counter | failures that wedged the writer, by [`WalOp`] (a writer wedges once) |
//! | `wal_fsync_ns{shard}` | histogram | latency of each fsync: segment data, directories, checkpoint files, clipped tails |
//! | `wal_segments{shard}` | gauge | live segment files on disk |
//! | `checkpoint_write_ns{shard}` | histogram | serialize + write + fsync + rename latency |
//! | `recovery_replayed_blocks{shard}` | counter | blocks replayed from the log tail at startup |

use std::sync::Arc;

use ams_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};

/// A writer operation whose failure wedges the writer: the `op` label
/// of `wal_failures`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Writing a record.
    Append,
    /// Forcing a segment's records to stable storage.
    Fsync,
    /// Forcing the shard directory's entries to stable storage.
    FsyncDir,
    /// Starting the next segment.
    Rotation,
    /// Writing, syncing or renaming a checkpoint file.
    Checkpoint,
}

impl WalOp {
    /// Every operation, in label order.
    pub const ALL: [WalOp; 5] = [
        WalOp::Append,
        WalOp::Fsync,
        WalOp::FsyncDir,
        WalOp::Rotation,
        WalOp::Checkpoint,
    ];

    /// The `op` label value.
    pub fn name(self) -> &'static str {
        match self {
            WalOp::Append => "append",
            WalOp::Fsync => "fsync",
            WalOp::FsyncDir => "fsync_dir",
            WalOp::Rotation => "rotation",
            WalOp::Checkpoint => "checkpoint",
        }
    }
}

/// Handles for the per-shard durability instruments (clones share the
/// underlying atomics). The histogram type is the telemetry kernel's
/// log₂-bucketed [`LatencyHistogram`]; `wal_append_bytes` records byte
/// counts through the same bucketing, which is exactly what a
/// power-of-two size distribution wants.
#[derive(Debug, Clone)]
pub struct WalInstruments {
    /// Bytes of each appended record.
    pub append_bytes: Arc<LatencyHistogram>,
    /// Failures that wedged the writer, indexed by `WalOp as usize`;
    /// monotone, unlike the event rings.
    pub failures: [Arc<Counter>; 5],
    /// Latency of each fsync.
    pub fsync_ns: Arc<LatencyHistogram>,
    /// Live segment files.
    pub segments: Arc<Gauge>,
    /// Latency of each checkpoint write.
    pub checkpoint_write_ns: Arc<LatencyHistogram>,
    /// Blocks replayed from the log tail during recovery.
    pub replayed_blocks: Arc<Counter>,
}

impl WalInstruments {
    /// Instruments registered into `registry` under the shard label.
    pub fn register(registry: &MetricsRegistry, shard: usize) -> Self {
        let id = shard.to_string();
        let labels: [(&str, &str); 1] = [("shard", id.as_str())];
        Self {
            append_bytes: registry.histogram("wal_append_bytes", &labels),
            failures: WalOp::ALL.map(|op| {
                registry.counter("wal_failures", &[("shard", id.as_str()), ("op", op.name())])
            }),
            fsync_ns: registry.histogram("wal_fsync_ns", &labels),
            segments: registry.gauge("wal_segments", &labels),
            checkpoint_write_ns: registry.histogram("checkpoint_write_ns", &labels),
            replayed_blocks: registry.counter("recovery_replayed_blocks", &labels),
        }
    }

    /// Private (unregistered) instruments — for standalone WAL use and
    /// tests.
    pub fn unregistered() -> Self {
        Self {
            append_bytes: Arc::new(LatencyHistogram::new()),
            failures: WalOp::ALL.map(|_| Arc::new(Counter::new())),
            fsync_ns: Arc::new(LatencyHistogram::new()),
            segments: Arc::new(Gauge::new()),
            checkpoint_write_ns: Arc::new(LatencyHistogram::new()),
            replayed_blocks: Arc::new(Counter::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_instruments_surface_in_snapshots() {
        let registry = MetricsRegistry::new();
        let wal = WalInstruments::register(&registry, 3);
        wal.append_bytes.record(128);
        wal.segments.set(2);
        wal.replayed_blocks.add(7);
        wal.failures[WalOp::FsyncDir as usize].inc();
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("wal_append_bytes", &[("shard", "3")])
                .unwrap()
                .count,
            1
        );
        assert_eq!(snap.gauge("wal_segments", &[("shard", "3")]), Some(2));
        assert_eq!(snap.counter_total("recovery_replayed_blocks"), 7);
        assert_eq!(
            snap.counter("wal_failures", &[("shard", "3"), ("op", "fsync_dir")]),
            Some(1)
        );
        assert_eq!(snap.counter_total("wal_failures"), 1);
    }
}
