//! Epoch-stamped checkpoints of per-shard sketch state.
//!
//! A checkpoint is the shard's sketches as one set of
//! [`ams_core::codec`] (seed and counters; the hash functions are
//! re-derived on load) plus the stamps recovery needs: the publish
//! epoch, the applied block/op counts, the WAL position the checkpoint
//! covers (recovery replays only records past it), and the per-producer
//! sequence high-water marks that make client resubmission idempotent
//! across a restart. File layout, all integers little-endian:
//!
//! ```text
//! b"AMSC" | u32 version (1) | u64 × 6: shard, epoch, blocks, ops,
//! WAL segment, WAL offset | sketch set | u32 n | n × (u64 producer,
//! u64 seq) | u32 CRC-32 (IEEE) of every byte before it
//! ```
//!
//! The checksum covers the whole file, so any damage — a flipped
//! counter bit included — makes the checkpoint unusable: recovery
//! reports it, falls back to an older checkpoint and replays the WAL
//! rather than loading wrong state. Checkpoints are written atomically
//! — to `ckpt-<epoch>.bin.tmp`, fsynced, renamed into place, the
//! directory fsynced — so a crash mid-write leaves at worst an ignored
//! tmp file, never a half-valid checkpoint under the real name.

use std::path::Path;

use ams_core::{codec, SketchError, SketchParams, TugOfWarSketch};
use ams_stream::crc::crc32;
use bytes::{Buf, BufMut};

use crate::error::DurableError;

/// Magic prefix of every checkpoint file.
const MAGIC: [u8; 4] = *b"AMSC";
/// Current checkpoint format version.
const VERSION: u32 = 1;
/// Bytes before the sketch set: magic, version and six stamps.
const STAMPS_LEN: usize = 8 + 6 * 8;

/// The shape recovery expects on-disk state to match: a checkpoint
/// written by a service with different attributes, sketch params, or
/// seed is rejected (fall back / start fresh) rather than silently
/// merged into incompatible sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardShape {
    /// Sketch shape shared by every attribute.
    pub params: SketchParams,
    /// Master hash seed.
    pub seed: u64,
    /// Registered attribute names, in registration order.
    pub attributes: Vec<String>,
}

/// One shard's durable state at a point in time.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// The shard index that wrote this checkpoint.
    pub shard: u64,
    /// The shard's publish epoch at checkpoint time.
    pub epoch: u64,
    /// Blocks applied at checkpoint time (lifetime, including prior
    /// recoveries).
    pub blocks: u64,
    /// Expanded operations applied at checkpoint time.
    pub ops: u64,
    /// WAL segment index the checkpoint covers through…
    pub wal_segment: u64,
    /// …and the byte offset within it: records at or past this
    /// position are replayed on recovery, records before it are
    /// already folded into [`Self::sketches`].
    pub wal_offset: u64,
    /// Attribute names, in registration order (validated against the
    /// recovering service's registration).
    pub attributes: Vec<String>,
    /// One sketch per attribute.
    pub sketches: Vec<TugOfWarSketch>,
    /// Per-producer ingest-sequence high-water marks `(producer, seq)`
    /// covered by this checkpoint, for idempotent client resubmission.
    pub producers: Vec<(u64, u64)>,
}

impl ShardCheckpoint {
    /// The checkpoint's file bytes, checksum trailer included.
    ///
    /// # Panics
    /// Panics if there are no sketches, or not one per attribute.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_slice(&MAGIC);
        out.put_u32_le(VERSION);
        for stamp in [
            self.shard,
            self.epoch,
            self.blocks,
            self.ops,
            self.wal_segment,
            self.wal_offset,
        ] {
            out.put_u64_le(stamp);
        }
        codec::encode_set(&self.attributes, &self.sketches, &mut out);
        out.put_u32_le(self.producers.len() as u32);
        for &(producer, seq) in &self.producers {
            out.put_u64_le(producer);
            out.put_u64_le(seq);
        }
        let checksum = crc32(&out);
        out.put_u32_le(checksum);
        out
    }

    /// Parses checkpoint file bytes, checksum first.
    fn decode(bytes: &[u8]) -> Result<Self, &'static str> {
        let body_len = bytes
            .len()
            .checked_sub(4)
            .ok_or("shorter than its checksum")?;
        let (mut data, trailer) = bytes.split_at(body_len);
        if crc32(data).to_le_bytes() != trailer {
            return Err("checksum mismatch");
        }
        if data.remaining() < STAMPS_LEN || data[..4] != MAGIC {
            return Err("truncated header or bad magic");
        }
        data = &data[4..];
        if data.get_u32_le() != VERSION {
            return Err("unknown format version");
        }
        let mut stamps = [0u64; 6];
        for stamp in &mut stamps {
            *stamp = data.get_u64_le();
        }
        let [shard, epoch, blocks, ops, wal_segment, wal_offset] = stamps;
        let (attributes, sketches) = codec::decode_set(&mut data).map_err(|e| match e {
            SketchError::Codec { reason } => reason,
            _ => "invalid sketch set",
        })?;
        if data.remaining() < 4 {
            return Err("truncated producer count");
        }
        let n = data.get_u32_le() as usize;
        if n.checked_mul(16) != Some(data.remaining()) {
            return Err("producer marks disagree with the file length");
        }
        let producers = (0..n)
            .map(|_| (data.get_u64_le(), data.get_u64_le()))
            .collect();
        Ok(Self {
            shard,
            epoch,
            blocks,
            ops,
            wal_segment,
            wal_offset,
            attributes,
            sketches,
            producers,
        })
    }

    /// Validates this checkpoint against the recovering service's
    /// shape.
    ///
    /// # Errors
    /// [`DurableError::Shape`] naming the file and the mismatch.
    pub fn validate(
        &self,
        shard: usize,
        shape: &ShardShape,
        path: &Path,
    ) -> Result<(), DurableError> {
        let fail = |reason: String| {
            Err(DurableError::Shape {
                path: path.display().to_string(),
                reason,
            })
        };
        if self.shard != shard as u64 {
            return fail(format!(
                "checkpoint is for shard {}, not {shard}",
                self.shard
            ));
        }
        if self.attributes != shape.attributes {
            return fail("attribute registration differs".to_string());
        }
        // A set holds one sketch per name, all of one shape and seed.
        if let Some(sketch) = self.sketches.first() {
            if sketch.params() != shape.params {
                return fail("sketch params differ from the service config".to_string());
            }
            if sketch.seed() != shape.seed {
                return fail("sketch seed differs from the service config".to_string());
            }
        }
        for window in self.producers.windows(2) {
            if window[1].0 <= window[0].0 {
                return fail("producer map is not strictly sorted".to_string());
            }
        }
        Ok(())
    }

    /// Reads, checks and validates a checkpoint file.
    ///
    /// # Errors
    /// [`DurableError::Io`] when the file cannot be read,
    /// [`DurableError::CorruptCheckpoint`] when its checksum or layout
    /// is wrong (truncation, bit flips), [`DurableError::Shape`] when
    /// it parses but was written by a differently-shaped service.
    pub fn load(path: &Path, shard: usize, shape: &ShardShape) -> Result<Self, DurableError> {
        let bytes =
            std::fs::read(path).map_err(|e| DurableError::io(path, "read checkpoint", e))?;
        let ckpt = Self::decode(&bytes).map_err(|reason| DurableError::CorruptCheckpoint {
            path: path.display().to_string(),
            reason: reason.to_string(),
        })?;
        ckpt.validate(shard, shape, path)?;
        Ok(ckpt)
    }
}

/// The file name a checkpoint of `epoch` is stored under
/// (lexicographic order == epoch order, so a directory listing sorts
/// newest-last).
pub(crate) fn checkpoint_file_name(epoch: u64) -> String {
    format!("ckpt-{epoch:012}.bin")
}

/// Parses a checkpoint file name back to its epoch.
pub(crate) fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    if stem.len() != 12 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_core::SelfJoinEstimator;

    fn shape() -> ShardShape {
        ShardShape {
            params: SketchParams::single_group(16).unwrap(),
            seed: 7,
            attributes: vec!["a".into(), "b".into()],
        }
    }

    fn checkpoint(shape: &ShardShape) -> ShardCheckpoint {
        ShardCheckpoint {
            shard: 0,
            epoch: 3,
            blocks: 10,
            ops: 99,
            wal_segment: 1,
            wal_offset: 16,
            attributes: shape.attributes.clone(),
            sketches: shape
                .attributes
                .iter()
                .map(|_| TugOfWarSketch::new(shape.params, shape.seed))
                .collect(),
            producers: vec![(1, 5), (9, 2)],
        }
    }

    #[test]
    fn roundtrips_and_validates() {
        let shape = shape();
        let mut ckpt = checkpoint(&shape);
        ckpt.sketches[1].extend_values([3u64, 1, 4, 1, 5]);
        let back = ShardCheckpoint::decode(&ckpt.encode()).unwrap();
        back.validate(0, &shape, Path::new("ckpt-test.bin"))
            .unwrap();
        assert_eq!(
            (back.shard, back.epoch, back.blocks, back.ops),
            (0, 3, 10, 99)
        );
        assert_eq!((back.wal_segment, back.wal_offset), (1, 16));
        assert_eq!(back.attributes, shape.attributes);
        for (a, b) in back.sketches.iter().zip(&ckpt.sketches) {
            assert_eq!(a.counters(), b.counters());
        }
        assert_eq!(back.producers, vec![(1, 5), (9, 2)]);
    }

    #[test]
    fn every_damaged_byte_and_every_truncation_is_rejected() {
        let bytes = checkpoint(&shape()).encode();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(ShardCheckpoint::decode(&bad).is_err(), "flip at {at}");
            assert!(
                ShardCheckpoint::decode(&bytes[..at]).is_err(),
                "cut at {at}"
            );
        }
    }

    #[test]
    fn shape_mismatches_rejected_with_file_context() {
        let shape = shape();
        let ckpt = checkpoint(&shape);
        let path = Path::new("shard-0/ckpt-000000000003.bin");
        // Wrong shard.
        let err = ckpt.validate(1, &shape, path).unwrap_err();
        assert!(err.to_string().contains("ckpt-000000000003.bin"));
        // Wrong seed.
        let other = ShardShape {
            seed: 8,
            ..shape.clone()
        };
        assert!(ckpt.validate(0, &other, path).is_err());
        // Wrong attributes.
        let other = ShardShape {
            attributes: vec!["a".into()],
            ..shape.clone()
        };
        assert!(ckpt.validate(0, &other, path).is_err());
        // Unsorted producer map.
        let mut bad = checkpoint(&shape);
        bad.producers = vec![(9, 2), (1, 5)];
        assert!(bad.validate(0, &shape, path).is_err());
    }

    #[test]
    fn file_names_roundtrip_and_sort_by_epoch() {
        assert_eq!(checkpoint_file_name(42), "ckpt-000000000042.bin");
        assert_eq!(parse_checkpoint_name("ckpt-000000000042.bin"), Some(42));
        assert_eq!(parse_checkpoint_name("ckpt-42.bin"), None);
        // Checkpoints of the retired JSON format are not read.
        assert_eq!(parse_checkpoint_name("ckpt-000000000042.json"), None);
        assert_eq!(parse_checkpoint_name("seg-00000001.wal"), None);
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
    }
}
