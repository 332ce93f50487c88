//! Sharded parallel ingest service for join/self-join size tracking.
//!
//! The paper's estimators are *linear* in the frequency vector, so a
//! relation ingested by many threads can be tracked contention-free
//! with one shard sketch per thread and merged only at query time.
//! This crate promotes that insight (previously a standalone example)
//! into a library component, the layer above hash → sketch → stream →
//! relation:
//!
//! ```text
//!  producers ──routed blocks──▶ bounded shard queues ──▶ worker threads
//!      │        (Router:           (backpressure: a        (one TugOfWar
//!      │         round-robin /      full queue refuses      sketch per
//!      │         hash-partition)    with WouldBlock)        attribute each)
//!      ▼                                  │ room, close             │ publish
//!   submit(attr, block, tag, trace)       ▼                         ▼
//!   ingest_block, drain ──sleep on──▶ wake hook ◀──── epoch-stamped ShardCells
//!                                                                   │
//!                               snapshot() ── merge_from ───────────┘
//!                               (ServiceSnapshot: self-join + join queries)
//! ```
//!
//! * [`ServiceConfig`] — validating builder: shard count, queue bound,
//!   sketch shape, seed, routing policy, publish cadence.
//! * [`AmsService`] — registration, routed ingestion through one
//!   all-or-nothing [`AmsService::submit`] that never blocks (a full
//!   queue refuses with [`ServiceError::WouldBlock`];
//!   [`AmsService::ingest_block`] waits for room and retries), drain,
//!   graceful shutdown, [`ServiceStats`].
//! * [`ServiceSnapshot`] — the merge-on-query view answering self-join
//!   and two-way join estimates; bit-identical to single-sketch
//!   ingestion of the same stream (pinned by property tests).
//! * Durability (opt-in via [`ServiceConfigBuilder::durability`]) —
//!   every block is appended to a per-shard write-ahead log *before*
//!   it is applied, sketch state is checkpointed on a cadence, and
//!   [`AmsService::start`] recovers checkpoint + log tail into
//!   bit-identical counters (the sketches are linear, so replaying a
//!   logged prefix *is* the never-crashed state), each shard on its
//!   own worker, in parallel. The
//!   [`AmsService::durability_cut`] / [`AmsService::poll_durable`]
//!   pair gives front-ends ack-after-fsync.
//! * The wake hook — the one thing a caller waits on. It is rung after
//!   each event waiting work needs (room on a queue that refused a
//!   block, a publish, a durable watermark advance, a queue closing).
//!   [`AmsService::ingest_block`] and [`AmsService::drain`] sleep on it
//!   and re-check their condition on each ring; a front-end that must
//!   never block (a network reactor) registers a [`std::task::Waker`]
//!   with [`AmsService::add_waker`] instead, so it can sleep in its own
//!   readiness wait rather than re-polling on a timer.
//! * Request tracing — a sampled ingest carries a `trace_id` down the
//!   shard path; workers stamp queue/kernel/WAL/fsync spans into
//!   bounded per-thread rings on the service's [`TraceHub`], the tail
//!   sampler keeps the slowest requests per window, and
//!   [`AmsService::traces`] assembles them on demand.
//! * Heavy-key observation (opt-in via
//!   [`ServiceConfigBuilder::heavy_keys`]) — a fixed-capacity
//!   SpaceSaving summary per attribute, surfaced as
//!   `service_heavy_keys{attribute,rank}` gauges and
//!   [`AmsService::heavy_keys`].
//! * Structured events — shard workers record lifecycle events
//!   (start/stop, recovery, publish, checkpoint, WAL rotation and
//!   failures, dedup skips) into bounded per-thread rings on the
//!   service's event hub; [`AmsService::events`] collects them in
//!   timestamp order.
//! * Health — a scrape's health section grades signals windowed over
//!   the caller's own [`HealthWindow`] (queue saturation, ingest
//!   stalls, shard imbalance, WAL fsync budget and failures) against
//!   fixed thresholds, pairs every attribute's estimate with its
//!   median-of-means confidence interval, the shadow audit's observed
//!   relative error (opt-in via [`ServiceConfigBuilder::audit_every`])
//!   and the heavy-key skew score, and folds one
//!   Healthy/Degraded/Unhealthy verdict.
//! * Scrapes — [`AmsService::scrape`] builds one [`Scrape`] document
//!   with any of the stats, metrics, traces, events and health
//!   sections, metrics and health from one registry read (the wire
//!   `Scrape` request is exactly this call). No scrape writes into the
//!   registry, so no scrape changes what another one sees.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod audit;
pub mod config;
pub mod error;
pub mod health;
pub mod heavy;
pub mod queue;
pub mod router;
pub mod scrape;
mod shard;
pub mod snapshot;
pub mod stats;

mod service;
mod telemetry;
mod wake;

pub use config::{ServiceConfig, ServiceConfigBuilder};
pub use error::ServiceError;
pub use health::{imbalance_ratio, HealthWindow};
pub use heavy::{HeavyEntry, HeavyKeys, SpaceSaving};
pub use queue::IngestTag;
pub use router::{Router, RouterPolicy};
pub use scrape::Scrape;
pub use service::{AmsService, Cut};
pub use snapshot::ServiceSnapshot;
pub use stats::{ServiceStats, ShardStats};

// Snapshot decoding reports the sketch codec's errors; re-exported so
// front-ends can match on them without a separate dependency.
pub use ams_core::SketchError;

// The service's observability surface is built on `ams-telemetry`;
// re-exported so front-ends can name the snapshot/registry types
// without a separate dependency declaration.
pub use ams_telemetry::{
    AccuracyReport, AssembledTrace, EventCode, EventHub, EventLevel, HealthReport, HealthSignal,
    HealthVerdict, MetricsRegistry, MetricsSnapshot, ServiceEvent, SignalStatus, TraceHub,
    TraceSpan,
};

// The durability configuration and recovery-report types come from
// `ams-durable`; re-exported so embedders configure WAL + checkpoints
// without a separate dependency declaration.
pub use ams_durable::{
    DurabilityConfig, DurableError, FaultPlan, FsyncPolicy, ShardRecovery, SkippedArtifact,
};
