//! Durability configuration: where the log lives, how eagerly it
//! reaches the platter, how often state is checkpointed.

use std::path::PathBuf;
use std::time::Duration;

use crate::fault::FaultPlan;

/// When an appended WAL record is forced to stable storage.
///
/// This is the durability/throughput dial: `GroupCommit` amortizes the
/// fsync over every block appended within the interval (a zero interval
/// syncs after every batch the shard worker applies, the strongest
/// guarantee: an acked block survives an immediate power cut);
/// `OsBuffered` never fsyncs on the hot path (data survives a process
/// crash but not a host crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` at most once per `interval` under sustained load, plus
    /// opportunistically whenever the shard queue drains — so the
    /// worst-case ack-after-fsync latency is bounded by the interval.
    GroupCommit {
        /// Maximum time appended records may sit unsynced under load.
        interval: Duration,
    },
    /// Never `fsync` on the append path; the OS page cache decides.
    /// Segment rotations and checkpoints still sync.
    OsBuffered,
}

/// Configuration of the per-shard durability layer.
///
/// Constructed with [`DurabilityConfig::new`] + `with_*` setters and
/// validated by [`DurabilityConfig::validate`] (the service's config
/// builder calls it for you).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory; each shard gets a `shard-<i>/` subdirectory
    /// holding its segments and checkpoints.
    pub dir: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold: a segment is closed and a new one
    /// started once its size reaches this many bytes.
    pub segment_max_bytes: u64,
    /// Checkpoint cadence: a shard worker writes a checkpoint after
    /// this many newly applied blocks.
    pub checkpoint_every_blocks: u64,
    /// How many checkpoints to retain. Must be at least 2 so recovery
    /// can fall back a checkpoint when the newest is corrupt — log
    /// segments are pruned only below the *oldest* retained
    /// checkpoint's position, keeping every retained checkpoint
    /// replayable.
    pub keep_checkpoints: usize,
    /// Test-only fault injection; inert by default.
    pub fault: FaultPlan,
}

impl DurabilityConfig {
    /// A configuration with production-leaning defaults: group-commit
    /// fsync at 2 ms, 8 MiB segments, a checkpoint every 1024 blocks,
    /// 2 retained checkpoints, no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::GroupCommit {
                interval: Duration::from_millis(2),
            },
            segment_max_bytes: 8 << 20,
            checkpoint_every_blocks: 1024,
            keep_checkpoints: 2,
            fault: FaultPlan::default(),
        }
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the segment rotation threshold in bytes.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets the checkpoint cadence in applied blocks.
    pub fn with_checkpoint_every(mut self, blocks: u64) -> Self {
        self.checkpoint_every_blocks = blocks;
        self
    }

    /// Sets the number of retained checkpoints (min 2).
    pub fn with_keep_checkpoints(mut self, keep: usize) -> Self {
        self.keep_checkpoints = keep;
        self
    }

    /// Installs a test-only fault plan in the writers.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// A static reason string when a dimension is out of range.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.dir.as_os_str().is_empty() {
            return Err("durability directory must be non-empty");
        }
        if self.segment_max_bytes < 256 {
            return Err("segment_max_bytes must be at least 256");
        }
        if self.checkpoint_every_blocks == 0 {
            return Err("checkpoint cadence must be positive");
        }
        if self.keep_checkpoints < 2 {
            return Err("keep_checkpoints must be at least 2 (fallback needs a predecessor)");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_setters_override() {
        let cfg = DurabilityConfig::new("/tmp/ams-wal");
        cfg.validate().unwrap();
        let every_batch = FsyncPolicy::GroupCommit {
            interval: Duration::ZERO,
        };
        let cfg = cfg
            .with_fsync(every_batch)
            .with_segment_max_bytes(4096)
            .with_checkpoint_every(7)
            .with_keep_checkpoints(3);
        assert_eq!(cfg.fsync, every_batch);
        assert_eq!(cfg.segment_max_bytes, 4096);
        assert_eq!(cfg.checkpoint_every_blocks, 7);
        assert_eq!(cfg.keep_checkpoints, 3);
        cfg.validate().unwrap();
    }

    #[test]
    fn out_of_range_dimensions_rejected() {
        assert!(DurabilityConfig::new("").validate().is_err());
        assert!(DurabilityConfig::new("/x")
            .with_segment_max_bytes(16)
            .validate()
            .is_err());
        assert!(DurabilityConfig::new("/x")
            .with_checkpoint_every(0)
            .validate()
            .is_err());
        assert!(DurabilityConfig::new("/x")
            .with_keep_checkpoints(1)
            .validate()
            .is_err());
    }
}
