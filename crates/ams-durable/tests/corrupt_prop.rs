//! Property tests: **arbitrary disk damage never panics recovery**.
//!
//! A valid shard state (segments + checkpoints) is built, then mangled
//! — random truncations, bit flips, byte stomps, in any on-disk
//! artifact — and reopened. Recovery must either return a *prefix* of
//! the logged stream (bit-identical counters to a never-crashed twin
//! fed that prefix) or a structured error; it must never panic and
//! never fabricate state that was not written. A deterministic sweep
//! adds that no single-bit flip in a checkpoint goes unnoticed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_durable::{DurabilityConfig, FsyncPolicy, ShardDurable, ShardShape, WalInstruments};
use ams_stream::OpBlock;
use proptest::prelude::*;

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
            "ams-durable-prop-{tag}-{}-{}-{nanos}",
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
        seed: 77,
        attributes: vec!["v".into()],
    }
}

fn block(i: u64) -> OpBlock {
    OpBlock::from_values((0..6).map(|j| i * 53 + j))
}

/// The never-crashed twin fed blocks `0..k`.
fn twin(k: u64) -> TugOfWarSketch {
    let shape = shape();
    let mut sketch = TugOfWarSketch::new(shape.params, shape.seed);
    for i in 0..k {
        sketch.apply_block(&block(i));
    }
    sketch
}

/// One way of damaging one on-disk artifact.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Truncate the file to `frac` of its length.
    Truncate,
    /// XOR one byte at `frac` of its length with a nonzero mask.
    FlipBit,
    /// Overwrite one byte at `frac` of its length with `0xFF`.
    Stomp,
}

fn damage_strategy() -> impl Strategy<Value = (usize, Damage, u32, u8)> {
    (any::<usize>(), 0u8..3, 0u32..1000, 1u16..256).prop_map(|(pick, kind, frac, mask)| {
        let damage = match kind {
            0 => Damage::Truncate,
            1 => Damage::FlipBit,
            _ => Damage::Stomp,
        };
        (pick, damage, frac, mask as u8)
    })
}

/// Applies one damage op to the `pick`-th artifact (mod count) in the
/// shard dir. Files are visited in sorted order so the choice is
/// deterministic for a given generated case.
fn apply_damage(shard_dir: &Path, pick: usize, damage: Damage, frac: u32, mask: u8) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(shard_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    if files.is_empty() {
        return;
    }
    let target = &files[pick % files.len()];
    let mut bytes = std::fs::read(target).unwrap();
    if bytes.is_empty() {
        return;
    }
    let at = (bytes.len() * frac as usize / 1000).min(bytes.len() - 1);
    match damage {
        Damage::Truncate => bytes.truncate(at),
        Damage::FlipBit => bytes[at] ^= mask,
        Damage::Stomp => bytes[at] = 0xFF,
    }
    std::fs::write(target, bytes).unwrap();
}

proptest! {
    /// Build a valid log (+ periodic checkpoints), damage up to three
    /// artifacts arbitrarily, reopen. Recovery must not panic, and on
    /// success must hand back a bit-identical *prefix* of the stream.
    #[test]
    fn damaged_artifacts_never_panic_and_recover_a_prefix(
        n_blocks in 1u64..28,
        checkpoint_every in 3u64..10,
        segment_max in 256u64..900,
        damages in proptest::collection::vec(damage_strategy(), 1..4),
    ) {
        let dir = TempDir::new("dmg");
        let cfg = DurabilityConfig::new(dir.path())
            .with_fsync(FsyncPolicy::OsBuffered)
            .with_segment_max_bytes(segment_max)
            .with_checkpoint_every(checkpoint_every);

        // Build the genuine state: append, checkpoint on cadence.
        {
            let (mut wal, _, _) =
                ShardDurable::open(&cfg, 0, &shape(), WalInstruments::unregistered()).unwrap();
            let mut sketch = twin(0);
            let mut last_ckpt = 0u64;
            for i in 0..n_blocks {
                wal.append(0, 0, 0, &block(i)).unwrap();
                sketch.apply_block(&block(i));
                let blocks = i + 1;
                if blocks - last_ckpt >= checkpoint_every {
                    wal.write_checkpoint(blocks, blocks, 0, std::slice::from_ref(&sketch), &HashMap::new())
                        .unwrap();
                    last_ckpt = blocks;
                }
            }
            wal.sync().unwrap();
        }

        let shard_dir = dir.path().join("shard-0");
        for (pick, damage, frac, mask) in damages {
            apply_damage(&shard_dir, pick, damage, frac, mask);
        }

        // Reopen over the damaged state: a panic fails the test by
        // itself; an error must be structured (it Displays); success
        // must be a bit-identical prefix.
        match ShardDurable::open(&cfg, 0, &shape(), WalInstruments::unregistered()) {
            Ok((_wal, recovered, report)) => {
                prop_assert!(recovered.blocks <= n_blocks,
                    "recovered {} blocks from a {n_blocks}-block log", recovered.blocks);
                prop_assert_eq!(recovered.sketches.len(), 1);
                let expected = twin(recovered.blocks);
                prop_assert_eq!(
                    recovered.sketches[0].counters(),
                    expected.counters(),
                    "recovered counters must be a bit-identical prefix (k = {})",
                    recovered.blocks
                );
                prop_assert_eq!(
                    report.checkpoint_blocks + report.replayed_blocks,
                    recovered.blocks
                );
            }
            Err(e) => {
                // Structured failure is acceptable (e.g. an early
                // segment was destroyed under a pruned log); it must
                // render, not panic.
                let _ = e.to_string();
            }
        }
    }

    /// Checkpoint-targeted damage: every validation error names the
    /// file it came from, and recovery still yields a prefix.
    #[test]
    fn damaged_checkpoints_are_skipped_with_provenance(
        n_blocks in 6u64..24,
        damage in damage_strategy(),
    ) {
        let dir = TempDir::new("ckpt-dmg");
        let cfg = DurabilityConfig::new(dir.path())
            .with_fsync(FsyncPolicy::OsBuffered)
            .with_checkpoint_every(4);

        {
            let (mut wal, _, _) =
                ShardDurable::open(&cfg, 0, &shape(), WalInstruments::unregistered()).unwrap();
            let mut sketch = twin(0);
            let mut last_ckpt = 0u64;
            for i in 0..n_blocks {
                wal.append(0, 0, 0, &block(i)).unwrap();
                sketch.apply_block(&block(i));
                let blocks = i + 1;
                if blocks - last_ckpt >= 4 {
                    wal.write_checkpoint(blocks, blocks, 0, std::slice::from_ref(&sketch), &HashMap::new())
                        .unwrap();
                    last_ckpt = blocks;
                }
            }
            wal.sync().unwrap();
        }

        // Damage the *newest* checkpoint specifically.
        let shard_dir = dir.path().join("shard-0");
        let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-"))
            })
            .collect();
        ckpts.sort();
        let newest = ckpts.last().unwrap().clone();
        let (_, kind, frac, mask) = damage;
        let name = newest.file_name().unwrap().to_str().unwrap().to_string();
        let changed = {
            let original = std::fs::read(&newest).unwrap();
            prop_assert!(!original.is_empty(), "a checkpoint file is never empty");
            let mut bytes = original.clone();
            let at = (bytes.len() * frac as usize / 1000).min(bytes.len() - 1);
            match kind {
                Damage::Truncate => bytes.truncate(at),
                Damage::FlipBit => bytes[at] ^= mask,
                Damage::Stomp => bytes[at] = 0xFF,
            }
            std::fs::write(&newest, &bytes).unwrap();
            bytes != original
        };

        let (_wal, recovered, report) =
            ShardDurable::open(&cfg, 0, &shape(), WalInstruments::unregistered()).unwrap();
        // The log is intact, so the full stream must come back through
        // fallback + replay.
        prop_assert_eq!(recovered.blocks, n_blocks);
        let expected = twin(n_blocks);
        prop_assert_eq!(recovered.sketches[0].counters(), expected.counters());
        // Damage that changed the bytes always fails the checksum, and
        // the report names the file (provenance for operators).
        if changed {
            prop_assert!(
                report.skipped.iter().any(|s| s.path.contains(&name)),
                "skip reports {:?} must name the damaged file {name}",
                report.skipped
            );
        }
    }
}

/// Every single-bit flip in a checkpoint is caught. Bit 0 of each byte
/// of the newest checkpoint is flipped in turn over a fresh copy of one
/// shard directory (12 logged blocks, then a checkpoint). Each reopen
/// must report the file as skipped and replay the log instead, and the
/// recovered sketch must equal the never-crashed twin at recovery and
/// again after 10 more blocks — so neither its counters nor its hash
/// functions came back altered.
#[test]
fn checkpoint_bit_flips_are_skipped_and_replayed() {
    let pristine = TempDir::new("flip-src");
    let config = |dir: &Path| DurabilityConfig::new(dir).with_fsync(FsyncPolicy::OsBuffered);
    {
        let (mut wal, _, _) = ShardDurable::open(
            &config(pristine.path()),
            0,
            &shape(),
            WalInstruments::unregistered(),
        )
        .unwrap();
        for i in 0..12 {
            wal.append(0, 0, 0, &block(i)).unwrap();
        }
        wal.write_checkpoint(12, 12, 0, &[twin(12)], &HashMap::new())
            .unwrap();
        wal.sync().unwrap();
    }
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(pristine.path().join("shard-0"))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    let (ckpt_name, ckpt) = files
        .iter()
        .find(|(name, _)| name.starts_with("ckpt-"))
        .expect("one checkpoint")
        .clone();
    let (at_recovery, after_more) = (twin(12), twin(22));
    for at in 0..ckpt.len() {
        let dir = TempDir::new("flip");
        let shard_dir = dir.path().join("shard-0");
        std::fs::create_dir_all(&shard_dir).unwrap();
        for (name, bytes) in &files {
            let mut bytes = bytes.clone();
            if *name == ckpt_name {
                bytes[at] ^= 0x01;
            }
            std::fs::write(shard_dir.join(name), bytes).unwrap();
        }
        let (_wal, recovered, report) = ShardDurable::open(
            &config(dir.path()),
            0,
            &shape(),
            WalInstruments::unregistered(),
        )
        .unwrap();
        assert!(
            report.skipped.iter().any(|s| s.path.contains(&ckpt_name)),
            "flip at byte {at} of {ckpt_name} went unreported: {:?}",
            report.skipped
        );
        assert_eq!(recovered.blocks, 12, "flip at byte {at}");
        let mut sketch = recovered.sketches.into_iter().next().unwrap();
        assert_eq!(
            sketch.counters(),
            at_recovery.counters(),
            "flip at byte {at}: wrong counters at recovery"
        );
        for i in 12..22 {
            sketch.apply_block(&block(i));
        }
        assert_eq!(
            sketch.counters(),
            after_more.counters(),
            "flip at byte {at}: tracking diverged after recovery"
        );
    }
}
