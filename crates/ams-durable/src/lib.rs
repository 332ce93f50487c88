//! # ams-durable — segmented WAL + epoch-checkpointed crash recovery
//!
//! The durability layer under the sharded sketch service: every
//! ingested [`OpBlock`](ams_stream::block::OpBlock) is appended to a
//! per-shard segmented write-ahead log *before* it is folded into the
//! in-memory sketches, and the sketch state itself is periodically
//! checkpointed. After a crash, recovery rebuilds each shard from its
//! newest valid checkpoint plus a replay of the log tail — and because
//! AMS tug-of-war sketches are **linear** (counters are signed sums;
//! applying a block is pure addition), the recovered counters are
//! *bit-identical* to a never-crashed twin fed the same logged prefix.
//! The fault-injection tests pin exactly that.
//!
//! ## Pieces
//!
//! * [`ShardDurable`] — one shard's writer: contention-free appends
//!   (each worker owns its log), CRC-32-framed records reusing the
//!   net layer's columnar block encoding, segment rotation, and the
//!   recovery scan ([`ShardDurable::open`]).
//! * [`DurabilityConfig`] / [`FsyncPolicy`] — the durability dial:
//!   fsync per append, group-commit at an interval, or OS-buffered.
//! * [`ShardCheckpoint`] — epoch-stamped atomic snapshots
//!   (tmp + fsync + rename) recording the log position they cover: the
//!   sketches as seed + counters (`ams_core::codec`) behind a CRC-32, so
//!   recovery falls back a checkpoint when the newest is damaged at all.
//! * [`FaultPlan`] — deterministic test-only crash injection
//!   (mid-record, mid-rotation, mid-checkpoint) for the
//!   kill-and-restart proofs.
//! * [`WalInstruments`] — append/fsync/checkpoint/replay telemetry in
//!   the shared metrics registry.
//!
//! Torn tails are truncated, corrupt checkpoints are skipped, and
//! every skipped artifact is reported with its file (and byte offset
//! where meaningful) in [`ShardRecovery`] — recovery never panics on
//! arbitrary disk damage, which the proptests enforce.

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod fault;
pub mod recover;
pub mod telemetry;
pub mod wal;

pub use checkpoint::{ShardCheckpoint, ShardShape};
pub use config::{DurabilityConfig, FsyncPolicy};
pub use error::DurableError;
pub use fault::FaultPlan;
pub use recover::{RecoveredShard, ShardRecovery, SkippedArtifact};
pub use telemetry::{WalInstruments, WalOp};
pub use wal::{ShardDurable, WalPosition};
