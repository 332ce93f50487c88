//! Observability: per-shard queue and ingest counters.
//!
//! Both stats types derive serde so a stats view can cross process
//! boundaries (the `ams-net` stats endpoint ships them as part of its
//! framed responses) and be archived next to benchmark output.

use serde::{Deserialize, Serialize};

/// Counters for one shard at the moment
/// [`AmsService::stats`](crate::AmsService::stats) was called.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Blocks currently waiting in the shard's queue.
    pub queue_depth: usize,
    /// The queue's configured capacity (hard bound).
    pub queue_capacity: usize,
    /// High-water mark of queue occupancy; `≤ queue_capacity` always —
    /// the bounded-memory witness.
    pub max_queue_depth: usize,
    /// Blocks enqueued to this shard over the service lifetime.
    pub blocks_enqueued: u64,
    /// Submissions this shard's queue refused at capacity, each one a
    /// `WouldBlock` to its submitter. Counts every refusal, including
    /// each retry of a waiting block (`ingest_block` retries once room
    /// frees, and the `ams-net` retry ring re-submits on every wake-up
    /// until the block lands), so it measures refusal pressure on the
    /// queue, not a number of distinct refused blocks.
    pub backpressure_events: u64,
    /// Blocks the shard worker had applied at its last publish.
    pub blocks_ingested: u64,
    /// Expanded operations the worker had applied at its last publish.
    pub ops_ingested: u64,
    /// The shard's publish epoch (0 = nothing published yet).
    pub epoch: u64,
}

/// A point-in-time statistics view over every shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Total blocks enqueued across shards.
    pub fn blocks_enqueued(&self) -> u64 {
        self.shards.iter().map(|s| s.blocks_enqueued).sum()
    }

    /// Total blocks applied (as of each shard's last publish).
    pub fn blocks_ingested(&self) -> u64 {
        self.shards.iter().map(|s| s.blocks_ingested).sum()
    }

    /// Total expanded operations applied (as of each shard's last
    /// publish).
    pub fn ops_ingested(&self) -> u64 {
        self.shards.iter().map(|s| s.ops_ingested).sum()
    }

    /// Total backpressure events across shards.
    pub fn backpressure_events(&self) -> u64 {
        self.shards.iter().map(|s| s.backpressure_events).sum()
    }

    /// The deepest any shard queue has ever been; bounded by the
    /// configured capacity.
    pub fn max_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0)
    }
}
