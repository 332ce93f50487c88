//! `ams`: the workspace façade for the AMS join/self-join tracking
//! library.
//!
//! Re-exports the public API of the member crates so applications can
//! depend on a single crate:
//!
//! * [`core`] — the sketches and signatures (tug-of-war, sample-count,
//!   naive-sampling, k-TW join signatures).
//! * [`stream`] — the operation model, exact multisets, canonical
//!   sequences and replay drivers.
//! * [`datagen`] — the Table 1 workload generators.
//! * [`hash`] — the k-wise independent hashing substrate.
//! * [`service`] — the sharded parallel ingest service (bounded block
//!   queues, per-shard worker threads, merge-on-query snapshots).
//! * [`net`] — the framed TCP front-end over the service (non-blocking
//!   reactor server that parks refused blocks until they land,
//!   blocking client with pipelining, reconnect with idempotent
//!   resubmission, and ack-after-fsync ingest).
//! * [`durable`] — the persistence layer (segmented CRC-framed WAL,
//!   epoch-stamped checkpoints, crash recovery with bit-identical
//!   replay).
//! * [`telemetry`] — the lock-free metrics kernel (counters, gauges,
//!   log₂-bucketed latency histograms, registry + text exposition)
//!   instrumenting the service, net, and durability layers.
//!
//! See the repository README for a guided tour and the `examples/`
//! directory for runnable scenarios.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use ams_core as core;
pub use ams_datagen as datagen;
pub use ams_durable as durable;
pub use ams_hash as hash;
pub use ams_net as net;
pub use ams_relation as relation;
pub use ams_service as service;
pub use ams_stream as stream;
pub use ams_telemetry as telemetry;

pub use ams_core::{
    CompressedHistogram, DeltaTracker, JoinSignatureFamily, NaiveSampling, SampleCount,
    SampleCountFastQuery, SampleJoinSignature, SelfJoinEstimator, SketchError, SketchParams,
    ThreeWayFamily, ThreeWayRole, TugOfWarSketch, TwJoinSignature,
};
pub use ams_datagen::DatasetId;
pub use ams_net::{AckMode, AmsClient, NetError, NetServer, NetServerConfig, ReconnectPolicy};
pub use ams_relation::{Catalog, RelationTracker, TrackerConfig};
pub use ams_service::{
    AccuracyReport, AmsService, DurabilityConfig, FaultPlan, FsyncPolicy, HealthReport,
    HealthSignal, HealthThresholds, HealthVerdict, RouterPolicy, ServiceConfig, ServiceError,
    ServiceEvent, ServiceSnapshot, ServiceStats, ShardRecovery, SignalStatus,
};
pub use ams_stream::{DeletePattern, ExactTracker, Multiset, Op, StreamBuilder, Value};
pub use ams_telemetry::{MetricsRegistry, MetricsSnapshot};
