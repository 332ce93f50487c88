//! The durability layer's instrument bundle, priced from one metrics
//! scrape alongside the service and net series:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `wal_append_bytes{shard}` | histogram | bytes per appended record (header + payload) |
//! | `wal_append_failures{shard}` | counter | appends that failed (the first one wedges the writer) |
//! | `wal_fsync_ns{shard}` | histogram | `fsync` latency per sync point |
//! | `wal_segments{shard}` | gauge | live segment files on disk |
//! | `checkpoint_write_ns{shard}` | histogram | serialize + write + fsync + rename latency |
//! | `recovery_replayed_blocks{shard}` | counter | blocks replayed from the log tail at startup |

use std::sync::Arc;

use ams_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};

/// Handles for the per-shard durability instruments (clones share the
/// underlying atomics). The histogram type is the telemetry kernel's
/// log₂-bucketed [`LatencyHistogram`]; `wal_append_bytes` records byte
/// counts through the same bucketing, which is exactly what a
/// power-of-two size distribution wants.
#[derive(Debug, Clone)]
pub struct WalInstruments {
    /// Bytes of each appended record.
    pub append_bytes: Arc<LatencyHistogram>,
    /// Appends that failed; monotone, unlike the event rings.
    pub append_failures: Arc<Counter>,
    /// Latency of each fsync point.
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
            append_failures: registry.counter("wal_append_failures", &labels),
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
            append_failures: Arc::new(Counter::new()),
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
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("wal_append_bytes", &[("shard", "3")])
                .unwrap()
                .count,
            1
        );
        assert_eq!(snap.gauge("wal_segments", &[("shard", "3")]), Some(2));
        assert_eq!(snap.counter_total("recovery_replayed_blocks"), 7);
    }
}
