//! Service configuration: shard count, queue bounds, sketch shape,
//! routing policy, optional durability — assembled through a
//! validating builder.

use ams_core::SketchParams;
use ams_durable::DurabilityConfig;

use crate::error::ServiceError;
use crate::router::RouterPolicy;

/// Validated configuration of an [`AmsService`](crate::AmsService).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    shards: usize,
    queue_capacity: usize,
    params: SketchParams,
    seed: u64,
    router: RouterPolicy,
    publish_every: u64,
    durability: Option<DurabilityConfig>,
    heavy_keys: usize,
    audit_every: u64,
}

impl ServiceConfig {
    /// Starts a builder with the defaults: 4 shards, 32 blocks of queue
    /// capacity per shard, the default sketch shape, seed 0, round-robin
    /// routing, snapshots published every 8 blocks.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }

    /// Number of ingest shards (worker threads).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bound on each shard queue, in blocks. A producer hitting a full
    /// queue waits ([`Wait::Block`](crate::Wait::Block)) or gets
    /// [`ServiceError::WouldBlock`] ([`Wait::Try`](crate::Wait::Try));
    /// see [`AmsService::submit`](crate::AmsService::submit).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Shape of every shard sketch.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Master seed. All shards of all attributes draw the **same** hash
    /// functions from it, which is what makes shard sketches mergeable
    /// and attribute pairs joinable.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sharding policy.
    pub fn router(&self) -> RouterPolicy {
        self.router
    }

    /// How many blocks a shard worker applies between snapshot
    /// publishes. Workers additionally publish whenever their queue
    /// momentarily drains and on shutdown, so queries converge to the
    /// full stream regardless of this cadence.
    pub fn publish_every(&self) -> u64 {
        self.publish_every
    }

    /// The durability section, when enabled: every ingested block is
    /// appended to a per-shard write-ahead log before it is applied,
    /// state is checkpointed on a cadence, and
    /// [`AmsService::start`](crate::AmsService::start) recovers from
    /// the log + checkpoints. `None` (the default) runs fully
    /// in-memory.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref()
    }

    /// Heavy-key observation capacity: when positive, every accepted
    /// ingest feeds a per-attribute SpaceSaving summary of this many keys and
    /// the top ranks surface as `service_heavy_keys{attribute,rank}`
    /// gauges. `0` (the default) disables the observer entirely — no
    /// lock, no gauges, no cost on the ingest path.
    pub fn heavy_keys(&self) -> usize {
        self.heavy_keys
    }

    /// Shadow-audit sampling cadence: when positive, every `k`-th
    /// accepted block per attribute also feeds a shadow tug-of-war
    /// sketch *and* an exact tracker, so health scrapes can report the
    /// estimator's **observed** relative error on a representative
    /// substream. Steady-state cost is one relaxed counter increment
    /// per block plus one extra sketch+exact application every `k`
    /// blocks (≈ `1/k` of one shard's kernel work). `0` (the default)
    /// disables auditing entirely.
    pub fn audit_every(&self) -> u64 {
        self.audit_every
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::builder()
            .build()
            .expect("defaults are valid")
    }
}

/// Builder for [`ServiceConfig`]; every setter overrides one default.
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    shards: usize,
    queue_capacity: usize,
    params: SketchParams,
    seed: u64,
    router: RouterPolicy,
    publish_every: u64,
    durability: Option<DurabilityConfig>,
    heavy_keys: usize,
    audit_every: u64,
}

impl Default for ServiceConfigBuilder {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 32,
            params: SketchParams::default(),
            seed: 0,
            router: RouterPolicy::RoundRobin,
            publish_every: 8,
            durability: None,
            heavy_keys: 0,
            audit_every: 0,
        }
    }
}

impl ServiceConfigBuilder {
    /// Sets the number of ingest shards (worker threads).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard queue bound, in blocks.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the sketch shape shared by every shard.
    pub fn sketch_params(mut self, params: SketchParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the master hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sharding policy.
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Sets the snapshot-publish cadence in blocks.
    pub fn publish_every(mut self, blocks: u64) -> Self {
        self.publish_every = blocks;
        self
    }

    /// Enables durability: per-shard WAL + checkpoints under the
    /// configured directory, with crash recovery at service start.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Enables heavy-key observation with a SpaceSaving summary of
    /// `capacity` keys per attribute (`0` keeps it off).
    pub fn heavy_keys(mut self, capacity: usize) -> Self {
        self.heavy_keys = capacity;
        self
    }

    /// Enables the shadow-audit sampler: every `k`-th block per
    /// attribute also feeds a shadow sketch + exact tracker pair
    /// (`0` keeps it off).
    pub fn audit_every(mut self, k: u64) -> Self {
        self.audit_every = k;
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] if any dimension is zero or the
    /// durability section is out of range.
    pub fn build(self) -> Result<ServiceConfig, ServiceError> {
        if self.shards == 0 {
            return Err(ServiceError::InvalidConfig {
                reason: "shard count must be positive",
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig {
                reason: "queue capacity must be positive",
            });
        }
        if self.publish_every == 0 {
            return Err(ServiceError::InvalidConfig {
                reason: "publish cadence must be positive",
            });
        }
        if let Some(durability) = &self.durability {
            durability
                .validate()
                .map_err(|reason| ServiceError::InvalidConfig { reason })?;
        }
        Ok(ServiceConfig {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            params: self.params,
            seed: self.seed,
            router: self.router,
            publish_every: self.publish_every,
            durability: self.durability,
            heavy_keys: self.heavy_keys,
            audit_every: self.audit_every,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_overridable() {
        let config = ServiceConfig::default();
        assert_eq!(config.shards(), 4);
        assert_eq!(config.queue_capacity(), 32);
        assert_eq!(config.heavy_keys(), 0, "heavy-key observer off by default");
        assert_eq!(config.audit_every(), 0, "audit sampler off by default");
        let config = ServiceConfig::builder()
            .shards(2)
            .queue_capacity(7)
            .seed(9)
            .router(RouterPolicy::HashPartition)
            .publish_every(1)
            .heavy_keys(8)
            .audit_every(16)
            .build()
            .unwrap();
        assert_eq!(config.shards(), 2);
        assert_eq!(config.queue_capacity(), 7);
        assert_eq!(config.seed(), 9);
        assert_eq!(config.router(), RouterPolicy::HashPartition);
        assert_eq!(config.publish_every(), 1);
        assert_eq!(config.heavy_keys(), 8);
        assert_eq!(config.audit_every(), 16);
    }

    #[test]
    fn durability_section_carried_and_validated() {
        let config = ServiceConfig::default();
        assert!(config.durability().is_none(), "in-memory by default");
        let config = ServiceConfig::builder()
            .durability(DurabilityConfig::new("/tmp/ams-wal"))
            .build()
            .unwrap();
        assert!(config.durability().is_some());
        // An invalid durability section fails the service build.
        assert!(matches!(
            ServiceConfig::builder()
                .durability(DurabilityConfig::new("/x").with_keep_checkpoints(1))
                .build(),
            Err(ServiceError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(matches!(
            ServiceConfig::builder().shards(0).build(),
            Err(ServiceError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder().queue_capacity(0).build(),
            Err(ServiceError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder().publish_every(0).build(),
            Err(ServiceError::InvalidConfig { .. })
        ));
    }
}
