//! The service's instrument bundle: every counter, gauge, and
//! histogram the ingest path records into, registered once at startup.
//!
//! Naming follows `service_<what>[_unit]` with a `shard` label on
//! per-shard series and an `attribute` label on per-attribute series:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `service_blocks_ingested{shard}` | counter | blocks applied by the worker |
//! | `service_ops_ingested{shard}` | counter | ops applied by the worker |
//! | `service_routed_ops{shard}` | counter | ops routed to the shard on accepted submissions |
//! | `service_publishes{shard}` | counter | snapshot publishes (cadence + drain + idle) |
//! | `service_queue_wait_ns{shard}` | histogram | enqueue → pop latency per block |
//! | `service_batched_blocks{shard}` | counter | blocks applied through a multi-block sweep |
//! | `service_sign_cache_hits{shard}` | counter | net entries of coalesced runs applied from cached sign bits |
//! | `service_sign_cache_admissions{shard}` | counter | net entries whose key was admitted to the sign cache |
//! | `service_sign_cache_misses{shard}` | counter | net entries of coalesced runs sent to the plane kernel |
//! | `service_ingest_ns{shard}` | histogram | kernel latency per applied block (a batched block records its entry-weighted share of the batch's sweep) |
//! | `service_queue_depth{shard}` | gauge | queued blocks, sampled on push/pop |
//! | `service_sketch_memory_words{attribute}` | gauge | live sketch words across all shards |
//! | `service_heavy_keys{attribute,rank}` | gauge | estimated count of the rank-th heaviest key (opt-in, see [`crate::heavy`]) |
//! | `service_heavy_key_value{attribute,rank}` | gauge | that key's value as `i64` (opt-in, see [`crate::heavy`]) |
//!
//! Health grading ([`crate::AmsService::health`]) registers and writes
//! nothing: its verdict, signals and per-attribute accuracy travel only
//! in the health section of a [`crate::Scrape`].
//!
//! All handles are `Arc`s over relaxed atomics (see `ams-telemetry`):
//! the workers and producers record without locks; the registry's
//! mutex is touched only here (registration) and at snapshot time.

use std::sync::Arc;

use ams_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};

/// The per-shard instruments, cloned into each worker thread (clones
/// share the underlying atomics).
#[derive(Debug, Clone)]
pub(crate) struct ShardInstruments {
    /// Blocks the worker has applied.
    pub blocks_ingested: Arc<Counter>,
    /// Ops the worker has applied.
    pub ops_ingested: Arc<Counter>,
    /// Ops routed to this shard by accepted producer submissions.
    pub routed_ops: Arc<Counter>,
    /// Snapshot publishes by the worker.
    pub publishes: Arc<Counter>,
    /// Enqueue-to-pop latency of each block.
    pub queue_wait_ns: Arc<LatencyHistogram>,
    /// Blocks applied through a multi-block sweep (the batch path).
    pub batched_blocks: Arc<Counter>,
    /// Net entries of coalesced runs applied from cached sign bits.
    pub sign_cache_hits: Arc<Counter>,
    /// Net entries whose key a sketch's sign cache admitted.
    pub sign_cache_admissions: Arc<Counter>,
    /// Net entries of coalesced runs sent to the plane kernel.
    pub sign_cache_misses: Arc<Counter>,
    /// Kernel latency of each applied block; a batched block records
    /// its entry-weighted share of the batch's fold and sweep time.
    pub ingest_ns: Arc<LatencyHistogram>,
    /// Queued blocks, sampled on push/pop under the queue lock.
    pub queue_depth: Arc<Gauge>,
}

/// Everything the service registers: built once in
/// [`crate::AmsService::start`], shared with the workers.
#[derive(Debug)]
pub(crate) struct ServiceTelemetry {
    registry: Arc<MetricsRegistry>,
    /// Indexed by shard.
    pub shards: Vec<ShardInstruments>,
    /// Indexed by attribute (registration order); each gauge sums the
    /// live sketch words for that attribute across every shard.
    pub sketch_memory: Vec<Arc<Gauge>>,
}

impl ServiceTelemetry {
    /// Registers the full instrument set for `shards` shards and the
    /// given attributes into a fresh registry.
    pub fn new(shards: usize, attributes: &[String]) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let shard_instruments = (0..shards)
            .map(|shard| {
                let id = shard.to_string();
                let labels: [(&str, &str); 1] = [("shard", id.as_str())];
                ShardInstruments {
                    blocks_ingested: registry.counter("service_blocks_ingested", &labels),
                    ops_ingested: registry.counter("service_ops_ingested", &labels),
                    batched_blocks: registry.counter("service_batched_blocks", &labels),
                    sign_cache_hits: registry.counter("service_sign_cache_hits", &labels),
                    sign_cache_admissions: registry
                        .counter("service_sign_cache_admissions", &labels),
                    sign_cache_misses: registry.counter("service_sign_cache_misses", &labels),
                    routed_ops: registry.counter("service_routed_ops", &labels),
                    publishes: registry.counter("service_publishes", &labels),
                    queue_wait_ns: registry.histogram("service_queue_wait_ns", &labels),
                    ingest_ns: registry.histogram("service_ingest_ns", &labels),
                    queue_depth: registry.gauge("service_queue_depth", &labels),
                }
            })
            .collect();
        let sketch_memory = attributes
            .iter()
            .map(|attribute| {
                registry.gauge(
                    "service_sketch_memory_words",
                    &[("attribute", attribute.as_str())],
                )
            })
            .collect();
        Self {
            registry,
            shards: shard_instruments,
            sketch_memory,
        }
    }

    /// The registry behind the instruments (for the network layer to
    /// register its own series into, and for snapshots).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}
