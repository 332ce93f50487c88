//! Update-stream substrate for join/self-join size tracking.
//!
//! The paper's tracking problem (§2) is: maintain a multiset `R`, initially
//! empty, under a sequence of operations — `insert(v)`, `delete(v)`,
//! `query` — and answer each query with an estimate of the self-join size
//! `SJ(R) = Σ_v f_v²`. This crate provides everything around the
//! estimators themselves:
//!
//! * [`op`] — the operation model ([`Op`], [`Value`]).
//! * [`block`] — columnar [`OpBlock`] batches (parallel value/delta
//!   columns with duplicate coalescing), the unit of block-at-a-time
//!   ingestion across every estimator.
//! * [`crc`] — the shared CRC-32 kernels (slice-by-8 hot path plus the
//!   bytewise oracle) that every checksummed byte format in the
//!   workspace frames with: the `ams-net` wire frames and the
//!   `ams-durable` WAL records.
//! * [`multiset`] — an exact [`Multiset`] with incrementally-maintained
//!   self-join size and exact join sizes: the ground truth every
//!   experiment compares against (the "full histogram" the paper says is
//!   too expensive to keep in production, which is exactly why it lives in
//!   the test/experiment substrate).
//! * [`canonical`] — the paper's canonical-sequence transformation: any
//!   insert/delete sequence `Â` reduces to an insertion-only sequence `A`
//!   by cancelling each delete against the most recent undeleted insert of
//!   the same value.
//! * [`tracker`] — the [`SelfJoinEstimator`] trait all estimators
//!   implement, plus [`ExactTracker`], the trait's exact reference
//!   implementation.
//! * [`build`] — stream builders that interleave deletions into a base
//!   value sequence under the paper's constraints (deletions at most a
//!   configurable fraction of every prefix).
//! * [`replay`](mod@replay) — drivers that run any estimator over an operation
//!   sequence, with ground-truth checkpoints.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod block;
pub mod build;
pub mod canonical;
pub mod crc;
pub mod multiset;
pub mod op;
pub mod replay;
pub mod tracker;

pub use block::{value_blocks, BlockWireError, CoalesceBuffer, OpBlock};
pub use build::{DeletePattern, StreamBuilder};
pub use canonical::{canonicalize, max_prefix_delete_fraction, CanonicalizeError};
pub use multiset::Multiset;
pub use op::{Op, Value};
pub use replay::{replay, replay_with_truth, Checkpoint};
pub use tracker::{ExactTracker, SelfJoinEstimator};
