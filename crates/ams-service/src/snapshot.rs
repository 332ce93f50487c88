//! Epoch-stamped snapshot register: shard workers publish, queries
//! merge.
//!
//! Each shard worker owns its sketches outright (zero contention on the
//! ingest hot path) and periodically *publishes* into its `ShardCell`.
//! Published snapshots carry only the **counter vectors** — the hash
//! planes are identical across shards and derivable from the service
//! seed, so shipping them would be pure waste; this keeps a publish to
//! one `i64` column copy per attribute, cheap enough to do every time a
//! queue drains. A query reads every cell, sums the shard counters per
//! attribute (counter-wise addition is exactly
//! [`TugOfWarSketch::merge_from`]'s linearity), and restores them into
//! sketches cloned from the service's pre-built template — a
//! consistent, queryable [`ServiceSnapshot`] stamped with the publish
//! epochs it reflects. A snapshot leaves the process in the same spirit
//! ([`ServiceSnapshot::encode`]): its stamps, then the merged counters
//! as one named set of [`ams_core::codec`], the seed standing in for
//! the hash planes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use ams_core::{codec, SelfJoinEstimator, SketchError, TugOfWarSketch};

use crate::error::ServiceError;
use crate::wake::WakeHook;

/// What one shard worker last published.
#[derive(Debug, Clone)]
pub(crate) struct ShardSnapshot {
    /// The publish's scalar stamps.
    pub progress: ShardProgress,
    /// One counter vector per registered attribute, in registration
    /// order (the sketch state minus the shared, seed-derivable hash
    /// planes).
    pub counters: Vec<Vec<i64>>,
}

/// The scalar stamps of one shard's publish, which drains and
/// [`stats`](crate::AmsService::stats) read without cloning the
/// counter columns.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardProgress {
    /// Publish count of this shard (0 = nothing published yet).
    pub epoch: u64,
    /// Blocks applied at publish time.
    pub blocks: u64,
    /// Expanded operations applied at publish time.
    pub ops: u64,
    /// This-lifetime tasks taken off the queue at publish time:
    /// applied blocks plus dedup-skipped duplicates, *excluding* any
    /// recovered baseline. The drain clock — drain targets are
    /// this-lifetime enqueue counts, so neither a recovered shard's
    /// `blocks` head start nor a skipped duplicate may skew it.
    pub processed: u64,
}

/// The per-shard publish register.
#[derive(Debug)]
pub(crate) struct ShardCell {
    snapshot: RwLock<ShardSnapshot>,
    /// Set by drainers to ask the worker for an out-of-cadence publish
    /// (otherwise a busy worker with a large cadence could sit on
    /// applied-but-unpublished blocks indefinitely); the worker takes
    /// it after each applied block.
    publish_requested: AtomicBool,
    /// Rung after every publish, for drains.
    wake: Arc<WakeHook>,
}

impl ShardCell {
    pub(crate) fn new(counters_per_attr: usize, attrs: usize, wake: Arc<WakeHook>) -> Self {
        Self {
            snapshot: RwLock::new(ShardSnapshot {
                progress: ShardProgress::default(),
                counters: vec![vec![0; counters_per_attr]; attrs],
            }),
            publish_requested: AtomicBool::new(false),
            wake,
        }
    }

    /// Asks the worker to publish at its next opportunity.
    pub(crate) fn request_publish(&self) {
        self.publish_requested.store(true, Ordering::Release);
    }

    /// Consumes a pending publish request, if any.
    pub(crate) fn take_publish_request(&self) -> bool {
        self.publish_requested.swap(false, Ordering::AcqRel)
    }

    /// Publishes a new shard snapshot, then rings the wake hook.
    pub(crate) fn publish(&self, snapshot: ShardSnapshot) {
        *self.snapshot.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
        self.wake.wake();
    }

    /// Adds this shard's published counters of **one** attribute into
    /// `out` — the single-attribute merge primitive (no per-query clone
    /// of the other attributes' columns).
    pub(crate) fn add_counters(&self, attr: usize, out: &mut [i64]) {
        let snapshot = self.snapshot.read().unwrap_or_else(|e| e.into_inner());
        for (acc, &c) in out.iter_mut().zip(snapshot.counters[attr].iter()) {
            *acc += c;
        }
    }

    /// A clone of the latest published snapshot (counter columns only —
    /// no hash planes travel).
    pub(crate) fn read(&self) -> ShardSnapshot {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The latest publish progress, without cloning any counters.
    pub(crate) fn progress(&self) -> ShardProgress {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .progress
    }
}

/// A merged, queryable view of the whole service at query time.
///
/// Built by [`AmsService::snapshot`](crate::AmsService::snapshot):
/// the published shard sketches are merged counter-wise per attribute,
/// so the snapshot estimates the union of everything the shards had
/// published — exactly the single-sketch state of the same stream
/// prefix, bit for bit (linearity).
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    attributes: Vec<String>,
    merged: Vec<TugOfWarSketch>,
    epoch_min: u64,
    epoch_max: u64,
    blocks: u64,
    ops: u64,
}

impl PartialEq for ServiceSnapshot {
    /// Snapshots compare by their information content — names, sketch
    /// family/shape/seed/counters, and stamps — that is, by their
    /// encoded form.
    fn eq(&self, other: &Self) -> bool {
        let encoded = |snapshot: &Self| {
            let mut out = Vec::new();
            snapshot.encode(&mut out);
            out
        };
        encoded(self) == encoded(other)
    }
}

impl ServiceSnapshot {
    /// Merges published shard counters into queryable sketches.
    /// `template` holds one zeroed sketch per attribute, pre-built by
    /// the service, so merging clones ready-made hash planes instead of
    /// re-deriving them from the seed on every query.
    pub(crate) fn merge(
        attributes: &[String],
        template: &[TugOfWarSketch],
        shards: &[ShardSnapshot],
    ) -> Self {
        let mut merged: Vec<TugOfWarSketch> = template.to_vec();
        let mut epoch_min = u64::MAX;
        let mut epoch_max = 0;
        let mut blocks = 0;
        let mut ops = 0;
        let mut sums: Vec<Vec<i64>> = merged
            .iter()
            .map(|sketch| vec![0i64; sketch.counters().len()])
            .collect();
        for shard in shards {
            let progress = shard.progress;
            epoch_min = epoch_min.min(progress.epoch);
            epoch_max = epoch_max.max(progress.epoch);
            blocks += progress.blocks;
            ops += progress.ops;
            for (sum, counters) in sums.iter_mut().zip(shard.counters.iter()) {
                for (acc, &c) in sum.iter_mut().zip(counters.iter()) {
                    *acc += c;
                }
            }
        }
        for (sketch, sum) in merged.iter_mut().zip(sums) {
            sketch
                .restore_counters(sum)
                .expect("shards share the template's shape");
        }
        Self {
            attributes: attributes.to_vec(),
            merged,
            epoch_min: if shards.is_empty() { 0 } else { epoch_min },
            epoch_max,
            blocks,
            ops,
        }
    }

    fn index(&self, attribute: &str) -> Result<usize, ServiceError> {
        self.attributes
            .iter()
            .position(|a| a == attribute)
            .ok_or_else(|| ServiceError::UnknownAttribute {
                name: attribute.to_string(),
            })
    }

    /// Registered attribute names, in registration order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(String::as_str)
    }

    /// Lowest publish epoch among the shards this snapshot merged
    /// (how stale the laggiest shard's contribution is).
    pub fn epoch_min(&self) -> u64 {
        self.epoch_min
    }

    /// Highest publish epoch among the merged shards.
    pub fn epoch_max(&self) -> u64 {
        self.epoch_max
    }

    /// Total blocks reflected by this snapshot (summed over shards).
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Total expanded operations reflected by this snapshot.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The merged sketch of one attribute.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn sketch(&self, attribute: &str) -> Result<&TugOfWarSketch, ServiceError> {
        Ok(&self.merged[self.index(attribute)?])
    }

    /// Self-join size estimate of one attribute's stream.
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn self_join(&self, attribute: &str) -> Result<f64, ServiceError> {
        Ok(self.merged[self.index(attribute)?].estimate())
    }

    /// Two-way equality-join size estimate between two attributes'
    /// streams (every attribute draws the same hash functions from the
    /// service seed, so any pair is joinable).
    ///
    /// # Errors
    /// [`ServiceError::UnknownAttribute`] for unregistered names.
    pub fn join(&self, attribute: &str, other: &str) -> Result<f64, ServiceError> {
        let a = self.index(attribute)?;
        let b = self.index(other)?;
        Ok(self.merged[a].join_estimate(&self.merged[b])?)
    }

    /// Appends the snapshot's binary form to `out`: the epoch and
    /// progress stamps (`epoch_min`, `epoch_max`, `blocks`, `ops`, each
    /// a little-endian `u64`), then the merged sketches as one named
    /// set of [`ams_core::codec`] — seed and counters, never the hash
    /// planes. Everything needed to re-query or diff the snapshot
    /// offline, on another host.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for stamp in [self.epoch_min, self.epoch_max, self.blocks, self.ops] {
            out.extend_from_slice(&stamp.to_le_bytes());
        }
        codec::encode_set(&self.attributes, &self.merged, out);
    }

    /// Decodes a snapshot from exactly the bytes [`Self::encode`]
    /// wrote.
    ///
    /// # Errors
    /// [`SketchError::Codec`] on truncated stamps, any malformed set
    /// (another sign family, a bad shape, a count past the remaining
    /// bytes, a repeated attribute name), or bytes left after the set.
    pub fn decode(data: &[u8]) -> Result<Self, SketchError> {
        if data.len() < STAMPS_LEN {
            return Err(SketchError::Codec {
                reason: "truncated snapshot stamps",
            });
        }
        let (stamps, mut rest) = data.split_at(STAMPS_LEN);
        let stamp = |i: usize| {
            u64::from_le_bytes(stamps[8 * i..8 * i + 8].try_into().expect("8-byte stamp"))
        };
        let (attributes, merged) = codec::decode_set(&mut rest)?;
        if !rest.is_empty() {
            return Err(SketchError::Codec {
                reason: "trailing bytes after the snapshot",
            });
        }
        Ok(Self {
            attributes,
            merged,
            epoch_min: stamp(0),
            epoch_max: stamp(1),
            blocks: stamp(2),
            ops: stamp(3),
        })
    }
}

/// Bytes of the stamps that lead a snapshot's binary form.
const STAMPS_LEN: usize = 4 * 8;
