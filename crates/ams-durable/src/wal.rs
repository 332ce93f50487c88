//! The segmented write-ahead log and its recovery scan.
//!
//! ## On-disk layout
//!
//! Each shard owns `dir/shard-<i>/` containing:
//!
//! * segment files `seg-<index:08>.wal` — append-only record logs,
//! * checkpoint files `ckpt-<epoch:012>.bin` — atomic, checksummed
//!   snapshots (see [`crate::checkpoint`]),
//! * transient `*.bin.tmp` files mid-checkpoint (removed on open).
//!
//! A segment starts with a 16-byte header:
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | magic `"AMSW"` |
//! | 4 | format version (1) |
//! | 5..8 | reserved (zero) |
//! | 8..16 | `u64` segment index, little-endian |
//!
//! followed by records, each framed exactly like a net-layer frame:
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | `u32` payload length, little-endian |
//! | 4..8 | `u32` CRC-32 (IEEE) of the payload |
//! | 8.. | payload |
//!
//! and the payload is `u32 attr | u64 producer | u64 seq` followed by
//! the block's [`OpBlock::encode_wire`] columnar form — the same
//! encoding the wire front-end ships, so a logged block is byte-for-byte
//! the block that was ingested. Producer id `0` marks an untagged
//! (non-idempotent) ingest.
//!
//! ## Recovery
//!
//! [`ShardDurable::open`] picks the newest checkpoint whose checksum
//! holds and that parses *and* validates (deleting and reporting newer
//! corrupt ones — fallback), then replays every record at or past the
//! checkpoint's covered position through
//! [`SelfJoinEstimator::apply_block`]. Segments are read front to back
//! through one buffer of [`REPLAY_BUF_BYTES`], grown only to hold a
//! record larger than that, so replay memory does not grow with the
//! segment size. The first
//! record that fails its length, CRC, or decode check ends the log:
//! the tail is truncated there and later segments (if any) are removed,
//! so a torn tail from a crash mid-write is clipped, never panicked on.
//! Because sketches are linear, the recovered counters are bit-identical
//! to a never-crashed twin fed the logged prefix, and each shard's log
//! replays on its own: a service opens its shards in parallel.
//!
//! ## Syncs
//!
//! A segment created at open or at rotation is not synced when it is
//! created. The writer's next [`ShardDurable::sync`] forces the
//! segment's header and records and then the shard directory, so a
//! record is durable only once its segment's directory entry is too.
//! Every fsync — segment data, directories, checkpoint files, clipped
//! tails — is timed into `wal_fsync_ns`.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ams_core::{SelfJoinEstimator, TugOfWarSketch};
use ams_stream::block::OpBlock;
use ams_stream::crc::crc32;
use ams_telemetry::LatencyHistogram;
use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{checkpoint_file_name, parse_checkpoint_name, ShardCheckpoint, ShardShape};
use crate::config::{DurabilityConfig, FsyncPolicy};
use crate::error::DurableError;
use crate::fault::FaultClock;
use crate::recover::{RecoveredShard, ShardRecovery, SkippedArtifact};
use crate::telemetry::{WalInstruments, WalOp};

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"AMSW";
/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Bytes of the segment header (magic + version + reserved + index).
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Bytes of the per-record header (length + CRC).
pub const RECORD_HEADER_LEN: u64 = 8;
/// Payload bytes before the block wire form (attr + producer + seq).
pub const RECORD_PAYLOAD_PREFIX: usize = 20;
/// Sanity cap on a record payload; anything larger is corruption.
pub const MAX_RECORD_PAYLOAD: u32 = 64 << 20;
/// Bytes the recovery scan reads from a segment at a time. Its buffer
/// holds this many bytes, or one record when a record is larger.
pub const REPLAY_BUF_BYTES: usize = 64 << 10;

/// A byte position in the shard's log: `(segment index, offset within
/// the segment)`. Derived `Ord` is lexicographic, which is exactly log
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WalPosition {
    /// Segment index.
    pub segment: u64,
    /// Byte offset within the segment (≥ [`SEGMENT_HEADER_LEN`]).
    pub offset: u64,
}

/// The file name of segment `index` (lexicographic order == index
/// order for the first 10^8 segments).
pub(crate) fn segment_file_name(index: u64) -> String {
    format!("seg-{index:08}.wal")
}

/// Parses a segment file name back to its index.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    if stem.len() != 8 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

fn segment_header(index: u64) -> [u8; 16] {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4] = SEGMENT_VERSION;
    header[8..16].copy_from_slice(&index.to_le_bytes());
    header
}

/// Forces `file` to stable storage — its data, or with `all` its
/// metadata too, as a directory needs — and times the call into
/// `wal_fsync_ns`. Every fsync of the writer and of recovery runs here.
fn fsync(file: &File, all: bool, fsync_ns: &LatencyHistogram) -> std::io::Result<()> {
    let t0 = Instant::now();
    if all {
        file.sync_all()?;
    } else {
        file.sync_data()?;
    }
    fsync_ns.record(t0.elapsed().as_nanos() as u64);
    Ok(())
}

/// Forces the entries of directory `dir` (created, renamed and removed
/// files) to stable storage.
fn sync_dir(dir: &Path, fsync_ns: &LatencyHistogram) -> std::io::Result<()> {
    fsync(&File::open(dir)?, true, fsync_ns)
}

/// A checkpoint the writer still retains (and therefore must keep
/// replayable: segments are pruned only below the oldest entry).
#[derive(Debug, Clone)]
struct Retained {
    epoch: u64,
    position: WalPosition,
    path: PathBuf,
}

/// One shard's durability writer: segmented WAL appends, fsync policy,
/// checkpoint writes, and (at [`ShardDurable::open`]) crash recovery.
///
/// Single-owner by design — each shard worker owns its `ShardDurable`,
/// so appends are contention-free.
#[derive(Debug)]
pub struct ShardDurable {
    shard: usize,
    dir: PathBuf,
    attributes: Vec<String>,
    policy: FsyncPolicy,
    segment_max_bytes: u64,
    keep_checkpoints: usize,
    plan: crate::fault::FaultPlan,
    clock: FaultClock,
    failed: Option<WalOp>,
    file: File,
    segment: u64,
    offset: u64,
    lowest_segment: u64,
    unsynced: u64,
    /// Whether the directory entry of the current segment is known
    /// durable: false from open and from each rotation until the next
    /// sync that has records to force.
    dir_synced: bool,
    last_sync: Instant,
    retained: Vec<Retained>,
    buf: Vec<u8>,
    instruments: WalInstruments,
}

impl ShardDurable {
    /// Opens (or creates) shard `shard`'s log under `cfg.dir`,
    /// recovering state from the newest valid checkpoint plus the log
    /// tail. Returns the writer positioned at the log end, the
    /// recovered state, and a report of everything recovery skipped.
    ///
    /// Replay reads the log through one buffer: besides the recovered
    /// sketches and one decoded block at a time, it holds at most
    /// [`REPLAY_BUF_BYTES`] plus the largest record. A segment this
    /// opens is not synced here; the writer's first [`Self::sync`] with
    /// records to force syncs it and the shard directory. A fresh open
    /// therefore makes no fsync at all.
    ///
    /// The configuration is assumed valid
    /// ([`DurabilityConfig::validate`] is the caller's gate).
    ///
    /// # Errors
    /// [`DurableError::Io`] on filesystem failure;
    /// [`DurableError::Unrecoverable`] when no checkpoint is usable
    /// *and* the log's early segments were already pruned (a consistent
    /// prefix cannot be rebuilt — corruption is otherwise handled by
    /// truncation/fallback, never an error).
    pub fn open(
        cfg: &DurabilityConfig,
        shard: usize,
        shape: &ShardShape,
        instruments: WalInstruments,
    ) -> Result<(Self, RecoveredShard, ShardRecovery), DurableError> {
        let dir = cfg.dir.join(format!("shard-{shard}"));
        fs::create_dir_all(&dir).map_err(|e| DurableError::io(&dir, "create shard dir", e))?;

        let mut skipped: Vec<SkippedArtifact> = Vec::new();
        let (mut ckpts, mut segments) = scan_shard_dir(&dir, &mut skipped)?;

        // Newest first: the first checkpoint that loads and validates is
        // the base, and older valid ones stay retained (replayable across
        // the restart) within the budget. Corrupt ones are reported and
        // deleted — newer than the base, they are what recovery fell
        // back from.
        ckpts.sort_by_key(|(epoch, _)| *epoch);
        let mut base: Option<ShardCheckpoint> = None;
        let mut retained: Vec<Retained> = Vec::new();
        for (epoch, path) in ckpts.into_iter().rev() {
            if retained.len() >= cfg.keep_checkpoints {
                let _ = fs::remove_file(&path);
                continue;
            }
            match ShardCheckpoint::load(&path, shard, shape) {
                Ok(ckpt) => {
                    let position = WalPosition {
                        segment: ckpt.wal_segment,
                        offset: ckpt.wal_offset,
                    };
                    retained.insert(
                        0,
                        Retained {
                            epoch,
                            position,
                            path,
                        },
                    );
                    base.get_or_insert(ckpt);
                }
                Err(err) => {
                    let what = match base {
                        None => "unusable checkpoint, falling back",
                        Some(_) => "unusable retained checkpoint, removed",
                    };
                    skipped.push(SkippedArtifact {
                        path: path.display().to_string(),
                        offset: None,
                        reason: format!("{what}: {err}"),
                    });
                    let _ = fs::remove_file(&path);
                }
            }
        }

        // Base position: the checkpoint's covered position, or the log
        // start. No checkpoint + pruned early segments = unrecoverable.
        let position = match &base {
            Some(ckpt) => WalPosition {
                segment: ckpt.wal_segment,
                offset: ckpt.wal_offset,
            },
            None => {
                if let Some((&min_seg, _)) = segments.iter().next() {
                    if min_seg > 0 {
                        return Err(DurableError::Unrecoverable {
                            path: dir.display().to_string(),
                            reason: format!(
                                "no usable checkpoint and the log starts at segment {min_seg} \
                                 (earlier segments were pruned past a checkpoint that no longer \
                                 loads)"
                            ),
                        });
                    }
                }
                WalPosition {
                    segment: 0,
                    offset: SEGMENT_HEADER_LEN,
                }
            }
        };

        // Prune segments below the oldest retained checkpoint (the
        // prune a clean shutdown would have done).
        if let Some(oldest) = retained.first() {
            let below: Vec<u64> = segments
                .range(..oldest.position.segment)
                .map(|(&i, _)| i)
                .collect();
            for idx in below {
                if let Some(path) = segments.remove(&idx) {
                    let _ = fs::remove_file(path);
                }
            }
        }

        // Seed state from the checkpoint (or fresh).
        let mut recovered = match base {
            Some(ckpt) => RecoveredShard {
                sketches: ckpt.sketches,
                blocks: ckpt.blocks,
                ops: ckpt.ops,
                epoch: ckpt.epoch,
                producers: ckpt.producers.into_iter().collect(),
            },
            None => RecoveredShard {
                sketches: shape
                    .attributes
                    .iter()
                    .map(|_| TugOfWarSketch::new(shape.params, shape.seed))
                    .collect(),
                blocks: 0,
                ops: 0,
                epoch: 0,
                producers: HashMap::new(),
            },
        };
        let (base_blocks, base_ops) = (recovered.blocks, recovered.ops);

        // Replay the log tail.
        let mut resume = position;
        let mut read_buf = Vec::new();
        let tail: Vec<(u64, PathBuf)> = segments
            .range(position.segment..)
            .map(|(&i, p)| (i, p.clone()))
            .collect();
        for (pos, (index, path)) in tail.iter().enumerate() {
            let expected = position.segment + pos as u64;
            if *index != expected {
                // A gap in segment indices: everything past the gap is
                // unreachable log — remove it.
                for (later_idx, later) in &tail[pos..] {
                    skipped.push(SkippedArtifact {
                        path: later.display().to_string(),
                        offset: None,
                        reason: format!(
                            "segment index gap (expected {expected}); unreachable, removed"
                        ),
                    });
                    let _ = fs::remove_file(later);
                    segments.remove(later_idx);
                }
                break;
            }
            let start = if *index == position.segment {
                position.offset
            } else {
                SEGMENT_HEADER_LEN
            };
            match scan_segment(path, *index, start, &mut read_buf, &mut recovered)? {
                SegmentScan::Clean { end } => {
                    resume = WalPosition {
                        segment: *index,
                        offset: end,
                    };
                }
                SegmentScan::Damaged { offset, reason } => {
                    // Torn/corrupt tail: clip it and drop anything past.
                    skipped.push(SkippedArtifact {
                        path: path.display().to_string(),
                        offset: Some(offset),
                        reason,
                    });
                    let offset = if offset < SEGMENT_HEADER_LEN {
                        // Header-level damage (a crash mid-rotation):
                        // the file cannot be appended into — remove it
                        // and let the writer recreate it fresh.
                        let _ = fs::remove_file(path);
                        segments.remove(index);
                        SEGMENT_HEADER_LEN
                    } else {
                        clip_segment(path, offset, &instruments.fsync_ns)?;
                        offset
                    };
                    for (later_idx, later) in &tail[pos + 1..] {
                        skipped.push(SkippedArtifact {
                            path: later.display().to_string(),
                            offset: None,
                            reason: "past a truncated tail; removed".to_string(),
                        });
                        let _ = fs::remove_file(later);
                        segments.remove(later_idx);
                    }
                    resume = WalPosition {
                        segment: *index,
                        offset,
                    };
                    break;
                }
            }
        }

        // The resume position must never fall behind what a checkpoint
        // already claims to cover (a lost tail under `OsBuffered`, a
        // clipped header): start a fresh segment past the checkpoint so
        // every new record replays.
        if resume < position {
            let stale = resume.segment;
            if let Some(path) = segments.remove(&stale) {
                let _ = fs::remove_file(path);
            }
            resume = WalPosition {
                segment: position.segment + 1,
                offset: SEGMENT_HEADER_LEN,
            };
        }

        // Open the writer at the resume position. A segment created
        // here is not synced: the first sync with records does it.
        let seg_path = dir.join(segment_file_name(resume.segment));
        let mut file = match segments.entry(resume.segment) {
            std::collections::btree_map::Entry::Occupied(_) => {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&seg_path)
                    .map_err(|e| DurableError::io(&seg_path, "open segment", e))?;
                file.set_len(resume.offset)
                    .map_err(|e| DurableError::io(&seg_path, "truncate segment", e))?;
                file
            }
            std::collections::btree_map::Entry::Vacant(entry) => {
                let mut file = OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&seg_path)
                    .map_err(|e| DurableError::io(&seg_path, "create segment", e))?;
                file.write_all(&segment_header(resume.segment))
                    .map_err(|e| DurableError::io(&seg_path, "write segment header", e))?;
                entry.insert(seg_path.clone());
                file
            }
        };
        // The writer appends at the truncated length; `set_len` leaves
        // the cursor at 0, so position explicitly.
        file.seek(SeekFrom::Start(resume.offset))
            .map_err(|e| DurableError::io(&dir, "seek", e))?;

        let lowest_segment = segments.keys().next().copied().unwrap_or(resume.segment);
        let replayed_blocks = recovered.blocks - base_blocks;
        instruments.segments.set(segments.len() as i64);
        instruments.replayed_blocks.add(replayed_blocks);

        let report = ShardRecovery {
            shard,
            checkpoint_epoch: retained.last().map(|r| r.epoch),
            checkpoint_blocks: base_blocks,
            replayed_blocks,
            replayed_ops: recovered.ops - base_ops,
            resumed_at: resume,
            skipped,
        };
        let durable = ShardDurable {
            shard,
            dir,
            attributes: shape.attributes.clone(),
            policy: cfg.fsync,
            segment_max_bytes: cfg.segment_max_bytes,
            keep_checkpoints: cfg.keep_checkpoints,
            plan: cfg.fault,
            clock: FaultClock::default(),
            failed: None,
            file,
            segment: resume.segment,
            offset: resume.offset,
            lowest_segment,
            unsynced: 0,
            dir_synced: false,
            last_sync: Instant::now(),
            retained,
            buf: Vec::with_capacity(4096),
            instruments,
        };
        Ok((durable, recovered, report))
    }

    /// The position the next append will land at.
    pub fn position(&self) -> WalPosition {
        WalPosition {
            segment: self.segment,
            offset: self.offset,
        }
    }

    /// Whether the writer is wedged (a fault fired or an I/O operation
    /// failed); all further operations fail.
    pub fn failed(&self) -> bool {
        self.failed.is_some()
    }

    /// The operation whose failure wedged the writer, if one did.
    pub fn wedged_by(&self) -> Option<WalOp> {
        self.failed
    }

    /// Live segment files.
    pub fn segment_count(&self) -> u64 {
        self.segment - self.lowest_segment + 1
    }

    fn check_ok(&self) -> Result<(), DurableError> {
        match self.failed {
            Some(op) => Err(DurableError::Wedged { what: op.name() }),
            None => Ok(()),
        }
    }

    /// Wedges the writer after `op` failed, counting it once in
    /// `wal_failures`.
    fn wedge(&mut self, op: WalOp) {
        if self.failed.is_none() {
            self.failed = Some(op);
            self.instruments.failures[op as usize].inc();
        }
    }

    fn segment_path(&self, index: u64) -> PathBuf {
        self.dir.join(segment_file_name(index))
    }

    /// Appends one ingested block (tagged `producer`/`seq`; producer 0
    /// = untagged) for attribute index `attr`. The record is in the OS
    /// buffer when this returns; [`ShardDurable::maybe_sync`] decides
    /// when it is *durable*.
    ///
    /// # Errors
    /// [`DurableError::Injected`] when the fault plan fires,
    /// [`DurableError::Io`] on a real write failure or a record over
    /// [`MAX_RECORD_PAYLOAD`], [`DurableError::Wedged`] ever after. The
    /// first failure wedges the writer and counts in `wal_failures`
    /// under the operation that failed: a rotation's sync or segment
    /// creation, or the append itself.
    pub fn append(
        &mut self,
        attr: u32,
        producer: u64,
        seq: u64,
        block: &OpBlock,
    ) -> Result<(), DurableError> {
        self.check_ok()?;
        if self.offset >= self.segment_max_bytes {
            self.rotate()?;
        }
        self.buf.clear();
        self.buf
            .extend_from_slice(&[0u8; RECORD_HEADER_LEN as usize]);
        self.buf.put_u32_le(attr);
        self.buf.put_u64_le(producer);
        self.buf.put_u64_le(seq);
        block.encode_wire(&mut self.buf);
        let payload_len = self.buf.len() - RECORD_HEADER_LEN as usize;
        if payload_len > MAX_RECORD_PAYLOAD as usize {
            self.wedge(WalOp::Append);
            return Err(DurableError::Io {
                path: self.segment_path(self.segment).display().to_string(),
                op: "append",
                source: std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "record exceeds the 64 MiB payload cap",
                ),
            });
        }
        let crc = crc32(&self.buf[RECORD_HEADER_LEN as usize..]);
        self.buf[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf[4..8].copy_from_slice(&crc.to_le_bytes());
        let total = self.buf.len() as u64;

        if let Some(short) = self.clock.append_fault(&self.plan, total) {
            // Injected crash: emit the planned torn prefix, then wedge.
            if short > 0 {
                let _ = self.file.write_all(&self.buf[..short as usize]);
                let _ = fsync(&self.file, false, &self.instruments.fsync_ns);
                self.offset += short;
            }
            self.wedge(WalOp::Append);
            return Err(DurableError::Injected { what: "append" });
        }

        if let Err(e) = self.file.write_all(&self.buf) {
            self.wedge(WalOp::Append);
            return Err(DurableError::Io {
                path: self.segment_path(self.segment).display().to_string(),
                op: "append",
                source: e,
            });
        }
        self.clock.appends += 1;
        self.clock.bytes += total;
        self.offset += total;
        self.unsynced += 1;
        self.instruments.append_bytes.record(total);
        Ok(())
    }

    /// Applies the fsync policy. Returns `true` when everything
    /// appended so far is (policy-)durable — `OsBuffered` always claims
    /// it immediately; `GroupCommit` syncs when `force` is set or the
    /// interval elapsed (always, at a zero interval), and otherwise
    /// returns `false` (the caller leaves the durable watermark where
    /// it is and retries later).
    pub fn maybe_sync(&mut self, force: bool) -> Result<bool, DurableError> {
        self.check_ok()?;
        if self.unsynced == 0 {
            return Ok(true);
        }
        match self.policy {
            FsyncPolicy::OsBuffered => Ok(true),
            FsyncPolicy::GroupCommit { interval } => {
                if force || self.last_sync.elapsed() >= interval {
                    self.sync()?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Forces appended records to stable storage now. The first sync
    /// with records to force after [`Self::open`] or a rotation then
    /// syncs the shard directory too, so no record is durable before
    /// its segment's directory entry is.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.check_ok()?;
        if self.unsynced > 0 {
            if let Err(e) = fsync(&self.file, false, &self.instruments.fsync_ns) {
                self.wedge(WalOp::Fsync);
                return Err(DurableError::io(
                    &self.segment_path(self.segment),
                    "fsync",
                    e,
                ));
            }
            if !self.dir_synced {
                if let Err(e) = sync_dir(&self.dir, &self.instruments.fsync_ns) {
                    self.wedge(WalOp::FsyncDir);
                    return Err(DurableError::io(&self.dir, "fsync dir", e));
                }
                self.dir_synced = true;
            }
            self.unsynced = 0;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Closes the current segment (durably) and starts the next one,
    /// which the next sync with records makes durable.
    fn rotate(&mut self) -> Result<(), DurableError> {
        // Rotation always syncs the closing segment, even `OsBuffered`:
        // a closed segment is never half-present after a host crash.
        self.sync()?;
        let next = self.segment + 1;
        let path = self.segment_path(next);
        if self.clock.rotation_fault(&self.plan, next) {
            // Injected crash mid-rotation: a torn header on disk.
            if let Ok(mut f) = File::create(&path) {
                let _ = f.write_all(&segment_header(next)[..8]);
            }
            self.wedge(WalOp::Rotation);
            return Err(DurableError::Injected { what: "rotation" });
        }
        let created = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .and_then(|mut file| file.write_all(&segment_header(next)).map(|()| file));
        self.file = match created {
            Ok(file) => file,
            Err(e) => {
                self.wedge(WalOp::Rotation);
                return Err(DurableError::io(&path, "create segment", e));
            }
        };
        self.segment = next;
        self.offset = SEGMENT_HEADER_LEN;
        self.dir_synced = false;
        self.instruments.segments.set(self.segment_count() as i64);
        Ok(())
    }

    /// Writes an atomic checkpoint of the shard's current state,
    /// covering the log through the current position (the log is
    /// synced first so coverage never outruns durability). Retains
    /// [`DurabilityConfig::keep_checkpoints`] checkpoints and prunes
    /// log segments below the *oldest* retained one, so a corrupt
    /// newest checkpoint can always fall back.
    ///
    /// The `epoch` stamp is monotonized against previously written
    /// checkpoints so file names never collide.
    ///
    /// # Errors
    /// [`DurableError::Injected`] / [`DurableError::Io`] (the writer
    /// wedges), [`DurableError::Wedged`] ever after.
    pub fn write_checkpoint(
        &mut self,
        epoch: u64,
        blocks: u64,
        ops: u64,
        sketches: &[TugOfWarSketch],
        producers: &HashMap<u64, u64>,
    ) -> Result<(), DurableError> {
        self.check_ok()?;
        self.sync()?;
        let epoch = match self.retained.last() {
            Some(last) => epoch.max(last.epoch + 1),
            None => epoch,
        };
        let mut producer_list: Vec<(u64, u64)> = producers.iter().map(|(&p, &s)| (p, s)).collect();
        producer_list.sort_unstable();
        let bytes = ShardCheckpoint {
            shard: self.shard as u64,
            epoch,
            blocks,
            ops,
            wal_segment: self.segment,
            wal_offset: self.offset,
            attributes: self.attributes.clone(),
            sketches: sketches.to_vec(),
            producers: producer_list,
        }
        .encode();

        let final_path = self.dir.join(checkpoint_file_name(epoch));
        let tmp_path = self
            .dir
            .join(format!("{}.tmp", checkpoint_file_name(epoch)));
        let t0 = Instant::now();
        if self.clock.checkpoint_fault(&self.plan) {
            // Injected crash mid-checkpoint: a torn tmp, never renamed.
            if let Ok(mut f) = File::create(&tmp_path) {
                let _ = f.write_all(&bytes[..bytes.len() / 2]);
            }
            self.wedge(WalOp::Checkpoint);
            return Err(DurableError::Injected { what: "checkpoint" });
        }
        let write = (|| -> std::io::Result<()> {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            f.write_all(&bytes)?;
            fsync(&f, false, &self.instruments.fsync_ns)?;
            fs::rename(&tmp_path, &final_path)?;
            Ok(())
        })();
        if let Err(e) = write {
            self.wedge(WalOp::Checkpoint);
            return Err(DurableError::io(&tmp_path, "write checkpoint", e));
        }
        if let Err(e) = sync_dir(&self.dir, &self.instruments.fsync_ns) {
            self.wedge(WalOp::FsyncDir);
            return Err(DurableError::io(&self.dir, "fsync dir", e));
        }
        self.instruments
            .checkpoint_write_ns
            .record(t0.elapsed().as_nanos() as u64);

        self.retained.push(Retained {
            epoch,
            position: self.position(),
            path: final_path,
        });
        while self.retained.len() > self.keep_checkpoints {
            let old = self.retained.remove(0);
            let _ = fs::remove_file(old.path);
        }
        // Prune segments every retained checkpoint has already covered.
        if self.retained.len() >= 2 {
            let min_seg = self.retained[0].position.segment;
            while self.lowest_segment < min_seg {
                let _ = fs::remove_file(self.segment_path(self.lowest_segment));
                self.lowest_segment += 1;
            }
            self.instruments.segments.set(self.segment_count() as i64);
        }
        Ok(())
    }
}

/// Lists a shard directory into checkpoints and segments; orphaned tmp
/// files are removed and reported.
#[allow(clippy::type_complexity)]
fn scan_shard_dir(
    dir: &Path,
    skipped: &mut Vec<SkippedArtifact>,
) -> Result<(Vec<(u64, PathBuf)>, BTreeMap<u64, PathBuf>), DurableError> {
    let mut ckpts = Vec::new();
    let mut segments = BTreeMap::new();
    let entries = fs::read_dir(dir).map_err(|e| DurableError::io(dir, "read shard dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| DurableError::io(dir, "read shard dir", e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            skipped.push(SkippedArtifact {
                path: path.display().to_string(),
                offset: None,
                reason: "orphaned tmp from an interrupted checkpoint write; removed".to_string(),
            });
            let _ = fs::remove_file(&path);
        } else if let Some(epoch) = parse_checkpoint_name(name) {
            ckpts.push((epoch, path));
        } else if let Some(index) = parse_segment_name(name) {
            segments.insert(index, path);
        }
    }
    Ok((ckpts, segments))
}

enum SegmentScan {
    /// Every record from the start offset to end-of-file was valid.
    Clean { end: u64 },
    /// The first invalid byte, with why — the caller clips here.
    Damaged { offset: u64, reason: String },
}

/// A segment read front to back through one reused buffer, which holds
/// [`REPLAY_BUF_BYTES`] of the file, or one record when a record is
/// larger.
struct SegmentReader<'a> {
    file: File,
    /// The file's length at open; every verdict is taken against it.
    len: u64,
    /// Bytes `base..base + buf.len()` of the file; the file's cursor
    /// sits at their end.
    buf: &'a mut Vec<u8>,
    base: u64,
}

impl SegmentReader<'_> {
    /// The `n` bytes at `off`. Offsets never move backwards past the
    /// previous call's, and `off + n` must not pass the file's end.
    fn read(&mut self, off: u64, n: usize) -> std::io::Result<&[u8]> {
        let held = self.base + self.buf.len() as u64;
        if off + n as u64 > held {
            // Keep the unread bytes from `off`, then refill behind them.
            if off < held {
                self.buf.drain(..(off - self.base) as usize);
            } else {
                self.buf.clear();
                if off > held {
                    self.file.seek(SeekFrom::Start(off))?;
                }
            }
            self.base = off;
            let kept = self.buf.len();
            let want = n.max(REPLAY_BUF_BYTES).min((self.len - off) as usize);
            self.buf.reserve_exact(want - kept);
            self.buf.resize(want, 0);
            self.file.read_exact(&mut self.buf[kept..])?;
        }
        let at = (off - self.base) as usize;
        Ok(&self.buf[at..at + n])
    }
}

/// Replays one segment's records from `start`, folding each block into
/// `recovered` and reading through `buf`. Stops (without error) at the
/// first invalid byte.
fn scan_segment(
    path: &Path,
    index: u64,
    start: u64,
    buf: &mut Vec<u8>,
    recovered: &mut RecoveredShard,
) -> Result<SegmentScan, DurableError> {
    let io = |e| DurableError::io(path, "read segment", e);
    let file = File::open(path).map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    buf.clear();
    let mut reader = SegmentReader {
        file,
        len,
        buf,
        base: 0,
    };
    if len < SEGMENT_HEADER_LEN {
        return Ok(SegmentScan::Damaged {
            offset: len,
            reason: "torn segment header".to_string(),
        });
    }
    let header = reader.read(0, SEGMENT_HEADER_LEN as usize).map_err(io)?;
    if header[0..4] != SEGMENT_MAGIC {
        return Ok(SegmentScan::Damaged {
            offset: 0,
            reason: "bad segment magic".to_string(),
        });
    }
    if header[4] != SEGMENT_VERSION {
        return Ok(SegmentScan::Damaged {
            offset: 4,
            reason: format!("unsupported segment version {}", header[4]),
        });
    }
    let stamped = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if stamped != index {
        return Ok(SegmentScan::Damaged {
            offset: 8,
            reason: format!("segment stamped {stamped} under file index {index}"),
        });
    }
    if start > len {
        return Ok(SegmentScan::Damaged {
            offset: len,
            reason: format!("segment shorter than checkpoint coverage (expected ≥ {start} bytes)"),
        });
    }

    let mut off = start;
    loop {
        if off == len {
            return Ok(SegmentScan::Clean { end: off });
        }
        let damaged = |reason: &str| SegmentScan::Damaged {
            offset: off,
            reason: reason.to_string(),
        };
        if off + RECORD_HEADER_LEN > len {
            return Ok(damaged("torn record header"));
        }
        let head = reader.read(off, RECORD_HEADER_LEN as usize).map_err(io)?;
        let payload_len = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if payload_len < RECORD_PAYLOAD_PREFIX as u32 || payload_len > MAX_RECORD_PAYLOAD {
            return Ok(damaged("implausible record length"));
        }
        let end = off + RECORD_HEADER_LEN + u64::from(payload_len);
        if end > len {
            return Ok(damaged("truncated record"));
        }
        let payload = reader
            .read(off + RECORD_HEADER_LEN, payload_len as usize)
            .map_err(io)?;
        if crc32(payload) != crc {
            return Ok(damaged("record CRC mismatch"));
        }
        let attr = u32::from_le_bytes(payload[0..4].try_into().unwrap());
        let producer = u64::from_le_bytes(payload[4..12].try_into().unwrap());
        let seq = u64::from_le_bytes(payload[12..20].try_into().unwrap());
        let mut rest = &payload[RECORD_PAYLOAD_PREFIX..];
        let block = match OpBlock::decode_wire(&mut rest) {
            Ok(block) if rest.is_empty() => block,
            Ok(_) => return Ok(damaged("trailing bytes after block")),
            Err(_) => return Ok(damaged("undecodable block payload")),
        };
        if attr as usize >= recovered.sketches.len() {
            return Ok(damaged("attribute index out of range"));
        }
        // Defensive replay-side dedup: a logged record always carried a
        // fresh sequence at log time, so this only ever skips if the
        // log itself was tampered into a duplicate.
        let producers = &mut recovered.producers;
        let duplicate = producer != 0 && producers.get(&producer).is_some_and(|&max| seq <= max);
        if !duplicate {
            if producer != 0 {
                producers.insert(producer, seq);
            }
            recovered.sketches[attr as usize].apply_block(&block);
            recovered.blocks += 1;
            recovered.ops += block.ops();
        }
        off = end;
    }
}

/// Truncates a segment at `offset` (clipping a torn or corrupt tail).
fn clip_segment(path: &Path, offset: u64, fsync_ns: &LatencyHistogram) -> Result<(), DurableError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| DurableError::io(path, "open segment", e))?;
    file.set_len(offset)
        .map_err(|e| DurableError::io(path, "truncate segment", e))?;
    fsync(&file, false, fsync_ns).map_err(|e| DurableError::io(path, "fsync", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ams_core::SketchParams;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A self-cleaning temp dir (no tempfile crate in the workspace).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos();
            let path = std::env::temp_dir().join(format!(
                "ams-durable-{tag}-{}-{}-{nanos}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn shape() -> ShardShape {
        ShardShape {
            params: SketchParams::single_group(32).unwrap(),
            seed: 11,
            attributes: vec!["orders".into(), "parts".into()],
        }
    }

    fn config(dir: &Path) -> DurabilityConfig {
        DurabilityConfig::new(dir)
            .with_fsync(EVERY_BATCH)
            .with_segment_max_bytes(512)
    }

    fn block(i: u64) -> OpBlock {
        OpBlock::from_values((0..8).map(|j| i * 31 + j))
    }

    fn open(cfg: &DurabilityConfig) -> (ShardDurable, RecoveredShard, ShardRecovery) {
        ShardDurable::open(cfg, 0, &shape(), WalInstruments::unregistered()).unwrap()
    }

    /// A never-crashed twin fed the same blocks, for bit-identity
    /// assertions.
    fn twin(upto: u64) -> Vec<TugOfWarSketch> {
        let shape = shape();
        let mut sketches: Vec<TugOfWarSketch> = shape
            .attributes
            .iter()
            .map(|_| TugOfWarSketch::new(shape.params, shape.seed))
            .collect();
        for i in 0..upto {
            sketches[(i % 2) as usize].apply_block(&block(i));
        }
        sketches
    }

    fn append_n(wal: &mut ShardDurable, from: u64, upto: u64) {
        for i in from..upto {
            wal.append((i % 2) as u32, 0, 0, &block(i)).unwrap();
            assert!(wal.maybe_sync(false).unwrap());
        }
    }

    #[test]
    fn fresh_log_replays_bit_identically() {
        let dir = TempDir::new("fresh");
        let cfg = config(dir.path());
        let (mut wal, recovered, report) = open(&cfg);
        assert_eq!(recovered.blocks, 0);
        assert!(report.is_clean());
        assert_eq!(
            report.resumed_at,
            WalPosition {
                segment: 0,
                offset: SEGMENT_HEADER_LEN
            }
        );
        append_n(&mut wal, 0, 20);
        assert!(wal.segment_count() > 1, "512-byte segments must rotate");
        drop(wal);

        let (_, recovered, report) = open(&cfg);
        assert!(report.is_clean());
        assert_eq!(recovered.blocks, 20);
        assert_eq!(report.replayed_blocks, 20);
        let twin = twin(20);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters(), "bit-identical replay");
        }
    }

    #[test]
    fn torn_tail_is_clipped_with_offset_and_later_segments_removed() {
        let dir = TempDir::new("torn");
        let cfg = config(dir.path());
        let (mut wal, _, _) = open(&cfg);
        append_n(&mut wal, 0, 6);
        let clean_end = wal.position();
        drop(wal);

        // Tear the tail of the current segment, then fabricate a later
        // segment that the clip must sweep away.
        let seg = dir
            .path()
            .join("shard-0")
            .join(segment_file_name(clean_end.segment));
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0xAB; 11]); // torn record header
        fs::write(&seg, &bytes).unwrap();
        let later = dir
            .path()
            .join("shard-0")
            .join(segment_file_name(clean_end.segment + 1));
        fs::write(&later, b"debris").unwrap();

        let (_, recovered, report) = open(&cfg);
        assert_eq!(recovered.blocks, 6, "all intact records replayed");
        assert_eq!(report.resumed_at, clean_end);
        let torn = report
            .skipped
            .iter()
            .find(|s| s.path.ends_with(".wal") && s.offset.is_some())
            .expect("torn tail reported");
        assert_eq!(torn.offset, Some(clean_end.offset));
        assert!(!later.exists(), "segment past the tear removed");
        let twin = twin(6);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }
    }

    #[test]
    fn checkpoint_plus_tail_and_fallback_when_newest_corrupt() {
        let dir = TempDir::new("ckpt");
        let cfg = config(dir.path());
        let (mut wal, recovered, _) = open(&cfg);
        let mut sketches = recovered.sketches;
        let mut producers = HashMap::new();
        producers.insert(7u64, 0u64);
        for i in 0..10u64 {
            sketches[(i % 2) as usize].apply_block(&block(i));
            wal.append((i % 2) as u32, 7, i + 1, &block(i)).unwrap();
            wal.maybe_sync(false).unwrap();
            *producers.get_mut(&7).unwrap() = i + 1;
            if i == 4 || i == 7 {
                wal.write_checkpoint(i, i + 1, 0, &sketches, &producers)
                    .unwrap();
            }
        }
        append_n(&mut wal, 10, 12); // untagged tail past the newest ckpt
        drop(wal);

        // Normal recovery: newest checkpoint + replayed tail.
        let (_, recovered, report) = open(&cfg);
        assert_eq!(recovered.blocks, 12);
        assert_eq!(report.checkpoint_blocks, 8);
        assert_eq!(report.replayed_blocks, 4);
        assert_eq!(recovered.producers.get(&7), Some(&10));
        let twin = twin(12);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }

        // Corrupt the newest checkpoint: recovery must fall back to the
        // older one and replay a longer tail to the same state.
        let shard_dir = dir.path().join("shard-0");
        let mut ckpts: Vec<_> = fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                parse_checkpoint_name(p.file_name()?.to_str()?).map(|epoch| (epoch, p))
            })
            .collect();
        ckpts.sort();
        assert_eq!(ckpts.len(), 2);
        let newest = &ckpts[1].1;
        let mut bytes = fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(newest, &bytes).unwrap();

        let (_, recovered, report) = open(&cfg);
        assert_eq!(recovered.blocks, 12, "fallback reaches the same state");
        assert_eq!(report.checkpoint_blocks, 5);
        assert_eq!(report.replayed_blocks, 7);
        assert!(
            report
                .skipped
                .iter()
                .any(|s| s.reason.contains("falling back")),
            "corrupt newest checkpoint reported: {:?}",
            report.skipped
        );
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }
    }

    #[test]
    fn graceful_final_checkpoint_recovers_with_zero_replay() {
        let dir = TempDir::new("graceful");
        let cfg = config(dir.path());
        let (mut wal, recovered, _) = open(&cfg);
        let mut sketches = recovered.sketches;
        for i in 0..5u64 {
            sketches[(i % 2) as usize].apply_block(&block(i));
            wal.append((i % 2) as u32, 0, 0, &block(i)).unwrap();
        }
        wal.write_checkpoint(3, 5, 0, &sketches, &HashMap::new())
            .unwrap();
        drop(wal);

        let (_, recovered, report) = open(&cfg);
        assert!(report.is_clean());
        assert_eq!(report.replayed_blocks, 0, "checkpoint covers the log end");
        assert_eq!(recovered.blocks, 5);
        assert_eq!(recovered.epoch, 3);
    }

    #[test]
    fn segments_pruned_below_oldest_retained_checkpoint() {
        let dir = TempDir::new("prune");
        let cfg = config(dir.path()); // 512-byte segments rotate fast
        let (mut wal, recovered, _) = open(&cfg);
        let mut sketches = recovered.sketches;
        for i in 0..40u64 {
            sketches[(i % 2) as usize].apply_block(&block(i));
            wal.append((i % 2) as u32, 0, 0, &block(i)).unwrap();
            if i % 8 == 7 {
                wal.write_checkpoint(i, i + 1, 0, &sketches, &HashMap::new())
                    .unwrap();
            }
        }
        assert!(wal.segment_count() < 5, "old segments pruned");
        assert!(
            !wal.segment_path(0).exists(),
            "segment 0 gone after checkpoints advanced"
        );
        drop(wal);
        let (_, recovered, _) = open(&cfg);
        assert_eq!(recovered.blocks, 40);
        let twin = twin(40);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }
    }

    #[test]
    fn injected_append_fault_wedges_writer_and_recovery_keeps_prefix() {
        let dir = TempDir::new("fault");
        let cfg = config(dir.path()).with_fault(FaultPlan {
            fail_after_appends: Some(4),
            ..FaultPlan::default()
        });
        let (mut wal, _, _) = open(&cfg);
        for i in 0..4u64 {
            wal.append(0, 0, 0, &block(i)).unwrap();
            wal.maybe_sync(false).unwrap();
        }
        let err = wal.append(0, 0, 0, &block(4)).unwrap_err();
        assert!(matches!(err, DurableError::Injected { what: "append" }));
        assert!(wal.failed());
        assert!(matches!(
            wal.append(0, 0, 0, &block(5)).unwrap_err(),
            DurableError::Wedged { .. }
        ));
        assert!(matches!(
            wal.sync().unwrap_err(),
            DurableError::Wedged { .. }
        ));
        drop(wal);

        let clean = config(dir.path());
        let (_, recovered, report) = open(&clean);
        assert_eq!(recovered.blocks, 4, "the logged prefix survives");
        assert!(report.is_clean(), "clean cut leaves no torn bytes");
    }

    #[test]
    fn injected_byte_fault_tears_mid_record() {
        let dir = TempDir::new("torn-byte");
        let cfg = config(dir.path()).with_fault(FaultPlan {
            fail_after_bytes: Some(300),
            ..FaultPlan::default()
        });
        let (mut wal, _, _) = open(&cfg);
        let mut appended = 0u64;
        loop {
            match wal.append((appended % 2) as u32, 0, 0, &block(appended)) {
                Ok(()) => {
                    wal.maybe_sync(false).unwrap();
                    appended += 1;
                }
                Err(DurableError::Injected { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        drop(wal);

        let clean = config(dir.path());
        let (_, recovered, report) = open(&clean);
        assert_eq!(recovered.blocks, appended);
        assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
        assert!(report.skipped[0].offset.is_some(), "tear offset reported");
        let twin = twin(appended);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }
    }

    #[test]
    fn injected_rotation_fault_leaves_torn_header_recovery_reinitializes() {
        let dir = TempDir::new("rot");
        let cfg = config(dir.path()).with_fault(FaultPlan {
            fail_on_rotation: Some(1),
            ..FaultPlan::default()
        });
        let (mut wal, _, _) = open(&cfg);
        let mut appended = 0u64;
        loop {
            match wal.append((appended % 2) as u32, 0, 0, &block(appended)) {
                Ok(()) => {
                    wal.maybe_sync(false).unwrap();
                    appended += 1;
                }
                Err(DurableError::Injected { what: "rotation" }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        drop(wal);

        let clean = config(dir.path());
        let (wal2, recovered, report) = open(&clean);
        assert_eq!(recovered.blocks, appended, "segment-0 records all kept");
        assert!(
            report
                .skipped
                .iter()
                .any(|s| s.reason.contains("torn segment header")),
            "{:?}",
            report.skipped
        );
        // The torn segment was reinitialized for appending.
        assert_eq!(wal2.position().offset, SEGMENT_HEADER_LEN);
        let twin = twin(appended);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }
    }

    #[test]
    fn injected_checkpoint_fault_leaves_tmp_and_falls_back() {
        let dir = TempDir::new("ckpt-fault");
        let cfg = config(dir.path()).with_fault(FaultPlan {
            fail_on_checkpoint: Some(2),
            ..FaultPlan::default()
        });
        let (mut wal, recovered, _) = open(&cfg);
        let mut sketches = recovered.sketches;
        for i in 0..6u64 {
            sketches[(i % 2) as usize].apply_block(&block(i));
            wal.append((i % 2) as u32, 0, 0, &block(i)).unwrap();
        }
        wal.write_checkpoint(1, 6, 0, &sketches, &HashMap::new())
            .unwrap();
        append_n(&mut wal, 6, 9);
        for i in 6..9u64 {
            sketches[(i % 2) as usize].apply_block(&block(i));
        }
        let err = wal
            .write_checkpoint(2, 9, 0, &sketches, &HashMap::new())
            .unwrap_err();
        assert!(matches!(err, DurableError::Injected { what: "checkpoint" }));
        drop(wal);

        let clean = config(dir.path());
        let (_, recovered, report) = open(&clean);
        assert_eq!(recovered.blocks, 9, "torn checkpoint loses nothing");
        assert_eq!(report.checkpoint_blocks, 6, "recovered from checkpoint 1");
        assert_eq!(report.replayed_blocks, 3);
        assert!(
            report.skipped.iter().any(|s| s.path.ends_with(".tmp")),
            "orphaned tmp reported: {:?}",
            report.skipped
        );
        let twin = twin(9);
        for (got, want) in recovered.sketches.iter().zip(&twin) {
            assert_eq!(got.counters(), want.counters());
        }
    }

    #[test]
    fn pruned_log_without_checkpoint_is_cleanly_unrecoverable() {
        let dir = TempDir::new("unrec");
        let cfg = config(dir.path());
        let (mut wal, _, _) = open(&cfg);
        append_n(&mut wal, 0, 20);
        assert!(wal.segment_count() > 1);
        drop(wal);
        // Simulate "checkpoints lost, early segments pruned": remove
        // segment 0 so the log no longer starts at its beginning.
        let shard_dir = dir.path().join("shard-0");
        fs::remove_file(shard_dir.join(segment_file_name(0))).unwrap();
        let err =
            ShardDurable::open(&cfg, 0, &shape(), WalInstruments::unregistered()).unwrap_err();
        assert!(matches!(err, DurableError::Unrecoverable { .. }), "{err}");
        assert!(err.to_string().contains("shard-0"));
    }

    #[test]
    fn group_commit_defers_sync_until_forced() {
        let dir = TempDir::new("group");
        let cfg = config(dir.path()).with_fsync(FsyncPolicy::GroupCommit {
            interval: std::time::Duration::from_secs(3600),
        });
        let (mut wal, _, _) = open(&cfg);
        wal.append(0, 0, 0, &block(0)).unwrap();
        assert!(!wal.maybe_sync(false).unwrap(), "interval not elapsed");
        assert!(wal.maybe_sync(true).unwrap(), "forced sync");
        assert!(wal.maybe_sync(false).unwrap(), "nothing pending");
    }

    /// A block of `n` distinct values, so record sizes vary with `n`.
    fn sized_block(i: u64, n: u64) -> OpBlock {
        OpBlock::from_values((0..n).map(|j| i * 1_000_003 + j))
    }

    /// Record sizes of the streaming-replay test: mostly a few KiB, one
    /// record larger than the read buffer.
    fn sized(i: u64) -> u64 {
        if i == 40 {
            6_000
        } else {
            (i * 37) % 500 + 1
        }
    }

    /// Sketches fed the first `k` blocks of the streaming-replay test.
    fn sized_twin(k: u64) -> Vec<TugOfWarSketch> {
        let shape = shape();
        let mut sketches: Vec<TugOfWarSketch> = shape
            .attributes
            .iter()
            .map(|_| TugOfWarSketch::new(shape.params, shape.seed))
            .collect();
        for i in 0..k {
            sketches[(i % 2) as usize].apply_block(&sized_block(i, sized(i)));
        }
        sketches
    }

    #[test]
    fn a_segment_larger_than_the_read_buffer_streams_bit_identically() {
        let dir = TempDir::new("stream");
        let cfg = config(dir.path())
            .with_fsync(FsyncPolicy::OsBuffered)
            .with_segment_max_bytes(64 << 20);
        let (mut wal, _, _) = open(&cfg);
        // Record boundaries: `starts[i]..starts[i + 1]` is record i.
        let mut starts = vec![wal.position().offset];
        let records = 120u64;
        for i in 0..records {
            wal.append((i % 2) as u32, 0, 0, &sized_block(i, sized(i)))
                .unwrap();
            starts.push(wal.position().offset);
        }
        wal.sync().unwrap();
        assert_eq!(wal.position().segment, 0, "one segment holds the log");
        drop(wal);
        let end = *starts.last().unwrap();
        assert!(
            end > 6 * REPLAY_BUF_BYTES as u64,
            "the segment spans several buffers ({end} bytes)"
        );
        let largest = starts.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(
            largest > REPLAY_BUF_BYTES as u64,
            "one record outgrows the buffer"
        );

        let (_, recovered, report) = open(&cfg);
        assert!(report.is_clean(), "{:?}", report.skipped);
        assert_eq!(recovered.blocks, records);
        assert_eq!(report.resumed_at.offset, end);
        for (got, want) in recovered.sketches.iter().zip(&sized_twin(records)) {
            assert_eq!(got.counters(), want.counters(), "bit-identical replay");
        }

        // Damage around every buffer boundary of the scan: the verdict
        // is the first damaged record's start, with the reason a
        // whole-file reader gives.
        let seg = dir.path().join("shard-0").join(segment_file_name(0));
        let pristine = fs::read(&seg).unwrap();
        let record_at = |t: u64| {
            starts
                .windows(2)
                .position(|w| w[0] <= t && t < w[1])
                .unwrap()
        };
        let mut cases = Vec::new();
        for b in (1..)
            .map(|k| k * REPLAY_BUF_BYTES as u64)
            .take_while(|&b| b < end)
        {
            for t in [b - 3, b, b + 5] {
                let i = record_at(t);
                let reason = if t - starts[i] < RECORD_HEADER_LEN {
                    "torn record header"
                } else {
                    "truncated record"
                };
                cases.push((pristine[..t as usize].to_vec(), i, reason));
                // A flipped payload byte fails its record's CRC.
                if t - starts[i] >= RECORD_HEADER_LEN {
                    let mut flipped = pristine.clone();
                    flipped[t as usize] ^= 0x20;
                    cases.push((flipped, i, "record CRC mismatch"));
                }
            }
        }
        assert!(cases.len() >= 30, "{} cases", cases.len());
        for (bytes, i, reason) in cases {
            let copy = TempDir::new("stream-dmg");
            let shard_dir = copy.path().join("shard-0");
            fs::create_dir_all(&shard_dir).unwrap();
            fs::write(shard_dir.join(segment_file_name(0)), &bytes).unwrap();
            let (_, recovered, report) = open(&config(copy.path()));
            assert_eq!(recovered.blocks, i as u64, "{reason} in record {i}");
            assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
            assert_eq!(report.skipped[0].offset, Some(starts[i]));
            assert_eq!(report.skipped[0].reason, reason);
            for (got, want) in recovered.sketches.iter().zip(&sized_twin(i as u64)) {
                assert_eq!(got.counters(), want.counters());
            }
        }
    }

    /// Opens with instruments the test can read, returning the fsync
    /// histogram beside the writer.
    fn open_counting(cfg: &DurabilityConfig) -> (ShardDurable, Arc<LatencyHistogram>) {
        let instruments = WalInstruments::unregistered();
        let fsyncs = Arc::clone(&instruments.fsync_ns);
        let (wal, _, _) = ShardDurable::open(cfg, 0, &shape(), instruments).unwrap();
        (wal, fsyncs)
    }

    /// Syncs on every `maybe_sync`.
    const EVERY_BATCH: FsyncPolicy = FsyncPolicy::GroupCommit {
        interval: std::time::Duration::ZERO,
    };

    const POLICIES: [FsyncPolicy; 3] = [
        EVERY_BATCH,
        FsyncPolicy::GroupCommit {
            interval: std::time::Duration::from_secs(3600),
        },
        FsyncPolicy::OsBuffered,
    ];

    #[test]
    fn opening_syncs_nothing_and_the_first_sync_covers_the_directory() {
        for policy in POLICIES {
            let dir = TempDir::new("open-sync");
            let cfg = config(dir.path()).with_fsync(policy);
            let (mut wal, fsyncs) = open_counting(&cfg);
            assert_eq!(fsyncs.count(), 0, "{policy:?}: a fresh open syncs nothing");
            wal.append(0, 0, 0, &block(0)).unwrap();
            let durable = wal.maybe_sync(false).unwrap();
            match policy {
                // The record, then its segment's directory entry.
                EVERY_BATCH => assert!(durable && fsyncs.count() == 2),
                FsyncPolicy::GroupCommit { .. } => {
                    assert!(!durable);
                    assert_eq!(fsyncs.count(), 0);
                    assert!(wal.maybe_sync(true).unwrap());
                    assert_eq!(fsyncs.count(), 2);
                }
                FsyncPolicy::OsBuffered => {
                    assert_eq!(fsyncs.count(), 0);
                    wal.sync().unwrap();
                    assert_eq!(fsyncs.count(), 2);
                }
            }
            // Later syncs in the same segment force the records alone.
            wal.append(1, 0, 0, &block(1)).unwrap();
            wal.sync().unwrap();
            assert_eq!(fsyncs.count(), 3, "{policy:?}");
            drop(wal);

            // Reopening a clean log syncs nothing either; the first
            // sync after it covers the directory again.
            let (mut wal, fsyncs) = open_counting(&cfg);
            assert_eq!(
                fsyncs.count(),
                0,
                "{policy:?}: a clean reopen syncs nothing"
            );
            wal.append(0, 0, 0, &block(2)).unwrap();
            wal.sync().unwrap();
            assert_eq!(fsyncs.count(), 2, "{policy:?}");
        }
    }

    #[test]
    fn a_rotated_segment_is_synced_with_its_directory_by_its_first_record() {
        let dir = TempDir::new("rotate-sync");
        let (mut wal, fsyncs) = open_counting(&config(dir.path()));
        let mut last = 0;
        for i in 0..20u64 {
            let segment = wal.position().segment;
            wal.append((i % 2) as u32, 0, 0, &block(i)).unwrap();
            assert!(wal.maybe_sync(false).unwrap());
            let rotated = wal.position().segment != segment;
            // Every append was synced, the closing segment's included,
            // so a rotation adds only the new segment's directory sync.
            let want = if i == 0 || rotated { 2 } else { 1 };
            assert_eq!(fsyncs.count() - last, want, "append {i}");
            last = fsyncs.count();
        }
        assert!(wal.segment_count() > 2, "512-byte segments rotate");
    }

    #[test]
    fn a_fresh_segment_lost_before_reopen_recovers_the_checkpoint() {
        for policy in POLICIES {
            for header_only in [false, true] {
                let what = format!("{policy:?}, header only: {header_only}");
                let dir = TempDir::new("fresh-lost");
                let cfg = config(dir.path()).with_fsync(policy);
                let (mut wal, recovered, _) = open(&cfg);
                let mut sketches = recovered.sketches;
                // Fill segment 0 and checkpoint it.
                let mut n = 0u64;
                while wal.position().offset < cfg.segment_max_bytes {
                    wal.append((n % 2) as u32, 0, 0, &block(n)).unwrap();
                    sketches[(n % 2) as usize].apply_block(&block(n));
                    n += 1;
                }
                wal.write_checkpoint(1, n, 0, &sketches, &HashMap::new())
                    .unwrap();
                // The next append rotates into segment 1, and the host
                // crashes before any sync: segment 1 never reaches the
                // disk (or, `header_only`, its entry does but none of
                // its bytes).
                wal.append((n % 2) as u32, 0, 0, &block(n)).unwrap();
                assert_eq!(wal.position().segment, 1);
                drop(wal);
                let seg1 = dir.path().join("shard-0").join(segment_file_name(1));
                if header_only {
                    fs::write(&seg1, b"").unwrap();
                } else {
                    fs::remove_file(&seg1).unwrap();
                }

                let (mut wal, recovered, report) = open(&cfg);
                assert_eq!(recovered.blocks, n, "{what}");
                assert_eq!(report.checkpoint_blocks, n, "{what}");
                assert_eq!(report.replayed_blocks, 0, "{what}");
                for (got, want) in recovered.sketches.iter().zip(&twin(n)) {
                    assert_eq!(got.counters(), want.counters(), "{what}");
                }
                // The log goes on from the checkpoint.
                for i in n..n + 3 {
                    wal.append((i % 2) as u32, 0, 0, &block(i)).unwrap();
                }
                wal.sync().unwrap();
                drop(wal);
                let (_, recovered, _) = open(&cfg);
                assert_eq!(recovered.blocks, n + 3, "{what}");
                for (got, want) in recovered.sketches.iter().zip(&twin(n + 3)) {
                    assert_eq!(got.counters(), want.counters(), "{what}");
                }
            }
        }
    }
}
