//! Columnar operation blocks: the unit of batch ingestion.
//!
//! Estimators historically consumed one [`Op`] at a time,
//! which pins the sketch hot path on per-item dispatch. An [`OpBlock`]
//! carries a *column* of values and a parallel column of signed
//! multiplicities, so linear estimators can sweep a whole block per
//! counter row (see `ams_hash::plane`) and every estimator saves the
//! per-item enum dispatch.
//!
//! Two coalescing levels:
//!
//! * **Run coalescing** (the [`push`](OpBlock::push) path, used by
//!   [`from_ops`](OpBlock::from_ops)): adjacent operations on the same
//!   value with the same sign merge into one `(value, ±k)` entry. This
//!   is *order-preserving* — expanding the block entry-by-entry
//!   reproduces the original operation sequence exactly, so even
//!   order-sensitive estimators (sample-count's positional reservoirs,
//!   naive-sampling's reservoir) process a block bit-identically to the
//!   scalar stream.
//! * **Full coalescing** ([`coalesce`](OpBlock::coalesce)): merges *all*
//!   entries per value into one net delta, dropping zeros. This
//!   reorders and cancels operations, which is only sound for **linear**
//!   estimators (tug-of-war sketches and join signatures, where counters
//!   depend on net frequencies alone); it is the bulk-load layout the
//!   experiment drivers use.

use ams_hash::FxHashMap;
use bytes::{Buf, BufMut};

use crate::multiset::Multiset;
use crate::op::{Op, Value};

/// Why decoding a block from its wire form failed. Carries a static
/// reason so protocol layers can surface a clean error (never a panic)
/// on truncated or malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockWireError {
    /// What was wrong with the bytes.
    pub reason: &'static str,
}

impl std::fmt::Display for BlockWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed block wire form: {}", self.reason)
    }
}

impl std::error::Error for BlockWireError {}

/// Wire flag bit: the block was fully coalesced by the encoder.
const WIRE_FLAG_COALESCED: u8 = 1;

/// A columnar batch of multiset updates: parallel `values`/`deltas`
/// arrays, entry `i` meaning "change the multiplicity of `values[i]` by
/// `deltas[i]`".
#[derive(Debug, Clone, Default)]
pub struct OpBlock {
    values: Vec<Value>,
    deltas: Vec<i64>,
    /// Whether the block is known to be fully coalesced (one entry per
    /// distinct value, no zero deltas) — lets linear consumers skip a
    /// redundant net-coalescing pass.
    net: bool,
}

impl PartialEq for OpBlock {
    fn eq(&self, other: &Self) -> bool {
        // The `net` marker is a derived property of the columns, not
        // part of the block's identity.
        self.values == other.values && self.deltas == other.deltas
    }
}

impl Eq for OpBlock {}

impl OpBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty block with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
            deltas: Vec::with_capacity(capacity),
            net: false,
        }
    }

    /// Builds a run-coalesced block from an operation stream.
    pub fn from_ops<I: IntoIterator<Item = Op>>(ops: I) -> Self {
        let mut block = Self::new();
        for op in ops {
            block.push_op(op);
        }
        block
    }

    /// Builds a run-coalesced block of insertions from a value stream.
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let mut block = Self::new();
        for v in values {
            block.push(v, 1);
        }
        block
    }

    /// Builds the fully-coalesced block of a materialized histogram: one
    /// `(value, frequency)` entry per distinct value — the bulk-load
    /// form linear estimators ingest in one plane sweep.
    pub fn from_histogram(histogram: &Multiset) -> Self {
        let mut block = Self::with_capacity(histogram.distinct());
        for (v, f) in histogram.iter() {
            block.push(v, f as i64);
        }
        // One entry per distinct value by construction.
        block.net = true;
        block
    }

    /// Appends one operation (run-coalescing with the last entry).
    #[inline]
    pub fn push_op(&mut self, op: Op) {
        match op {
            Op::Insert(v) => self.push(v, 1),
            Op::Delete(v) => self.push(v, -1),
        }
    }

    /// Appends a multiplicity change (`delta` copies of `v`; negative
    /// deletes). Adjacent same-value, same-sign entries merge, which
    /// keeps the block order-equivalent to the expanded op sequence.
    /// Zero deltas are ignored.
    #[inline]
    pub fn push(&mut self, v: Value, delta: i64) {
        if delta == 0 {
            return;
        }
        self.net = false;
        if let (Some(&last_v), Some(last_d)) = (self.values.last(), self.deltas.last_mut()) {
            if last_v == v && (*last_d > 0) == (delta > 0) {
                *last_d += delta;
                return;
            }
        }
        self.values.push(v);
        self.deltas.push(delta);
    }

    /// Number of (coalesced) entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the block carries no updates.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of expanded operations the block represents
    /// (`Σ |delta|`).
    pub fn ops(&self) -> u64 {
        self.deltas.iter().map(|d| d.unsigned_abs()).sum()
    }

    /// The value column.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The delta column.
    pub fn deltas(&self) -> &[i64] {
        &self.deltas
    }

    /// Iterates `(value, delta)` entries in order.
    pub fn entries(&self) -> impl Iterator<Item = (Value, i64)> + '_ {
        self.values.iter().copied().zip(self.deltas.iter().copied())
    }

    /// Replays the block as its expanded operation sequence, in order:
    /// an entry `(v, ±k)` yields `k` inserts/deletes of `v`. This is
    /// *the* canonical expansion every order-sensitive consumer uses,
    /// so run-coalesced blocks stay bit-identical to the scalar stream.
    pub fn for_each_op<F: FnMut(Op)>(&self, mut f: F) {
        for (v, delta) in self.entries() {
            if delta >= 0 {
                for _ in 0..delta {
                    f(Op::Insert(v));
                }
            } else {
                for _ in 0..delta.unsigned_abs() {
                    f(Op::Delete(v));
                }
            }
        }
    }

    /// Empties the block, keeping its allocations (the shard-queue reuse
    /// path).
    pub fn clear(&mut self) {
        self.values.clear();
        self.deltas.clear();
        self.net = false;
    }

    /// `true` when the block is known to be fully coalesced (built by
    /// [`OpBlock::coalesce`], [`OpBlock::from_columns_coalesced`] or
    /// [`OpBlock::from_histogram`]); linear consumers use this to skip
    /// re-coalescing.
    pub fn is_coalesced(&self) -> bool {
        self.net
    }

    /// Fully coalesces the block: one entry per distinct value with the
    /// net delta, zero-net values dropped, entry order = first
    /// appearance. **Only order-insensitive (linear) estimators may
    /// ingest the result**; for them it is equivalent and strictly
    /// cheaper (one hash-function evaluation per distinct value).
    pub fn coalesce(&self) -> OpBlock {
        Self::from_columns_coalesced(&self.values, &self.deltas)
    }

    /// Fully coalesces raw value/delta columns (the zero-copy producer
    /// side of [`OpBlock::coalesce`]).
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn from_columns_coalesced(values: &[Value], deltas: &[i64]) -> OpBlock {
        let mut buffer = CoalesceBuffer::new();
        buffer.coalesce(values, deltas);
        buffer.block
    }

    /// Number of bytes [`Self::encode_wire`] appends for this block.
    pub fn wire_len(&self) -> usize {
        5 + 16 * self.len()
    }

    /// Appends the block's portable wire form (all little-endian):
    ///
    /// ```text
    /// [0..4)        u32  entry count n
    /// [4..5)        u8   flags (bit 0: fully coalesced)
    /// [5..5+8n)     u64 × n   value column
    /// [5+8n..5+16n) i64 × n   delta column
    /// ```
    ///
    /// The columnar layout matches the in-memory representation, so
    /// encode/decode is two straight column sweeps with no per-entry
    /// branching.
    pub fn encode_wire<B: BufMut>(&self, out: &mut B) {
        out.reserve(self.wire_len());
        out.put_u32_le(self.len() as u32);
        out.put_u8(if self.net { WIRE_FLAG_COALESCED } else { 0 });
        for &v in &self.values {
            out.put_u64_le(v);
        }
        for &d in &self.deltas {
            out.put_i64_le(d);
        }
    }

    /// Decodes one block from the front of `data`, advancing the slice
    /// past the consumed bytes (trailing bytes are left for the caller
    /// — blocks embed in larger protocol messages).
    ///
    /// The coalesced flag is advisory: it is honoured only when the
    /// decoded deltas actually uphold the no-zero-entries invariant, so
    /// a lying encoder can cost a redundant coalescing pass downstream
    /// but never corrupt consumers.
    ///
    /// # Errors
    /// [`BlockWireError`] on truncated columns or unknown flag bits;
    /// never panics on arbitrary input.
    pub fn decode_wire(data: &mut &[u8]) -> Result<OpBlock, BlockWireError> {
        if data.remaining() < 5 {
            return Err(BlockWireError {
                reason: "truncated block header",
            });
        }
        let count = data.get_u32_le() as usize;
        let flags = data.get_u8();
        if flags & !WIRE_FLAG_COALESCED != 0 {
            return Err(BlockWireError {
                reason: "unknown block flag bits",
            });
        }
        // `count` came off the wire: bound-check in u64 before trusting
        // it (16 × u32::MAX overflows a 32-bit usize).
        if (data.remaining() as u64) < count as u64 * 16 {
            return Err(BlockWireError {
                reason: "truncated block columns",
            });
        }
        // Bulk column sweeps: split the two columns off the input once
        // and convert with `chunks_exact`, so the per-entry work is one
        // unaligned load instead of a bounds check + slice re-split
        // (this decode sits on the wire ingest hot path).
        let (columns, tail) = data.split_at(count * 16);
        let (value_bytes, delta_bytes) = columns.split_at(count * 8);
        let values: Vec<Value> = value_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("exact chunks are 8 bytes")))
            .collect();
        let deltas: Vec<i64> = delta_bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("exact chunks are 8 bytes")))
            .collect();
        *data = tail;
        let net = flags & WIRE_FLAG_COALESCED != 0 && deltas.iter().all(|&d| d != 0);
        Ok(OpBlock {
            values,
            deltas,
            net,
        })
    }
}

/// A reusable net-coalescing workspace: the value→slot index map and
/// output block of [`OpBlock::from_columns_coalesced`], retained across
/// calls so steady-state coalescing performs no heap allocations once
/// the buffers reach the high-water block size.
///
/// Besides one-shot [`coalesce`](Self::coalesce), the buffer nets a
/// *run* of blocks: [`fold`](Self::fold) adds each block's columns to
/// the running per-value sums, and [`finish`](Self::finish) yields the
/// net block of everything folded since the last finish — so a linear
/// consumer can apply many blocks in one sweep over their distinct
/// values, and the folded blocks can be dropped as soon as they are
/// folded.
///
/// [`finish`](Self::finish) also reports how many entries were folded
/// into each net entry, so a consumer can tell the values that recur
/// within a run from those seen once.
///
/// Holders: `ams-core`'s tug-of-war sketch (the adaptive-coalescing
/// ingest path and its multi-block fold) and `ams-relation`'s tracker
/// (the per-attribute column path).
#[derive(Debug, Clone, Default)]
pub struct CoalesceBuffer {
    index: FxHashMap<Value, usize>,
    block: OpBlock,
    /// Occurrences in the current run, parallel to `block`'s entries.
    counts: Vec<u32>,
    /// Entries folded since the last [`Self::finish`]; zero means the
    /// next fold starts a fresh run.
    folded: usize,
}

impl CoalesceBuffer {
    /// An empty buffer; maps and columns grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fully coalesces the columns into the internal block (one entry
    /// per distinct value, net delta, zeros dropped, entry order = first
    /// appearance) and returns it. The result is valid until the next
    /// call on this buffer; a run of folds in progress is discarded.
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn coalesce(&mut self, values: &[Value], deltas: &[i64]) -> &OpBlock {
        self.folded = 0;
        self.fold(values, deltas);
        self.finish().0
    }

    /// Adds the columns to the running per-value net deltas of the
    /// current run (starting a fresh run after a [`Self::finish`]).
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn fold(&mut self, values: &[Value], deltas: &[i64]) {
        assert_eq!(values.len(), deltas.len(), "ragged columns");
        let out = &mut self.block;
        if self.folded == 0 {
            self.index.clear();
            out.clear();
            self.counts.clear();
            out.values.reserve(values.len());
            out.deltas.reserve(values.len());
            self.counts.reserve(values.len());
        }
        self.folded += values.len();
        for (&v, &d) in values.iter().zip(deltas.iter()) {
            match self.index.get(&v) {
                Some(&i) => {
                    out.deltas[i] += d;
                    self.counts[i] = self.counts[i].saturating_add(1);
                }
                None => {
                    self.index.insert(v, out.values.len());
                    out.values.push(v);
                    out.deltas.push(d);
                    self.counts.push(1);
                }
            }
        }
    }

    /// Entries folded into the current run so far.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Ends the current run and returns its net block: one entry per
    /// distinct value folded since the last finish, net delta, zeros
    /// dropped, entry order = first appearance (empty when nothing was
    /// folded). Beside it come the entries' occurrence counts: how many
    /// folded entries of the run carried each value (at least 1;
    /// saturates at `u32::MAX`). Both are valid until the next call on
    /// this buffer.
    pub fn finish(&mut self) -> (&OpBlock, &[u32]) {
        if self.folded == 0 {
            self.block.clear();
            self.counts.clear();
        }
        self.folded = 0;
        let out = &mut self.block;
        // Drop zero-net entries (insert/delete pairs that cancelled).
        let mut w = 0;
        for r in 0..out.values.len() {
            if out.deltas[r] != 0 {
                out.values[w] = out.values[r];
                out.deltas[w] = out.deltas[r];
                self.counts[w] = self.counts[r];
                w += 1;
            }
        }
        out.values.truncate(w);
        out.deltas.truncate(w);
        self.counts.truncate(w);
        out.net = true;
        (&self.block, &self.counts)
    }
}

/// Splits a value stream into run-coalesced insert blocks of at most
/// `block_size` source values each.
pub fn value_blocks(values: &[Value], block_size: usize) -> impl Iterator<Item = OpBlock> + '_ {
    assert!(block_size > 0, "block size must be positive");
    values
        .chunks(block_size)
        .map(|chunk| OpBlock::from_values(chunk.iter().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_coalescing_merges_same_sign_runs_only() {
        let block = OpBlock::from_ops([
            Op::Insert(7),
            Op::Insert(7),
            Op::Delete(7),
            Op::Insert(7),
            Op::Insert(9),
        ]);
        let entries: Vec<_> = block.entries().collect();
        assert_eq!(entries, vec![(7, 2), (7, -1), (7, 1), (9, 1)]);
        assert_eq!(block.ops(), 5);
    }

    #[test]
    fn full_coalescing_nets_per_value_and_drops_zeros() {
        let block = OpBlock::from_ops([
            Op::Insert(1),
            Op::Insert(2),
            Op::Delete(1),
            Op::Insert(2),
            Op::Insert(3),
            Op::Delete(3),
        ]);
        let net: Vec<_> = block.coalesce().entries().collect();
        assert_eq!(net, vec![(2, 2)]);
    }

    #[test]
    fn folding_a_run_of_blocks_nets_their_concatenation() {
        let blocks = [
            OpBlock::from_ops([Op::Insert(1), Op::Insert(2), Op::Insert(2)]),
            OpBlock::new(),
            OpBlock::from_ops([Op::Delete(1), Op::Insert(3), Op::Delete(2)]),
        ];
        let mut buffer = CoalesceBuffer::new();
        // A stale one-shot result must not leak into the run.
        buffer.coalesce(&[9, 9], &[1, 1]);
        for block in &blocks {
            buffer.fold(block.values(), block.deltas());
        }
        assert_eq!(buffer.folded(), 5);
        let net: Vec<_> = buffer.finish().0.entries().collect();
        // Value 1 cancels across blocks and is dropped.
        assert_eq!(net, vec![(2, 1), (3, 1)]);
        assert!(
            buffer.finish().0.is_empty(),
            "a finish with no folds is empty"
        );
        assert!(buffer.finish().0.is_coalesced());
        // The next fold starts a fresh run.
        buffer.fold(&[4], &[2]);
        assert_eq!(
            buffer.finish().0.entries().collect::<Vec<_>>(),
            vec![(4, 2)]
        );
    }

    #[test]
    fn finish_counts_occurrences_per_net_entry() {
        let mut buffer = CoalesceBuffer::new();
        buffer.fold(&[5, 6, 5, 7], &[1, 1, 2, 1]);
        buffer.fold(&[7, 5, 8], &[-1, 1, 3]);
        let (net, counts) = buffer.finish();
        // 7 nets to zero and is dropped with its count; run-coalesced
        // entries count once each.
        assert_eq!(net.entries().collect::<Vec<_>>(), [(5, 4), (6, 1), (8, 3)]);
        assert_eq!(counts, [3, 1, 1]);
        let (net, counts) = buffer.finish();
        assert!(
            net.is_empty() && counts.is_empty(),
            "an empty run counts nothing"
        );
    }

    #[test]
    fn from_values_is_insert_only() {
        let block = OpBlock::from_values([5, 5, 6]);
        assert_eq!(block.entries().collect::<Vec<_>>(), vec![(5, 2), (6, 1)]);
    }

    #[test]
    fn zero_deltas_ignored() {
        let mut block = OpBlock::new();
        block.push(1, 0);
        assert!(block.is_empty());
    }

    #[test]
    fn coalesced_marker_tracks_construction() {
        let raw = OpBlock::from_values([1, 1, 2, 1]);
        assert!(!raw.is_coalesced());
        let net = raw.coalesce();
        assert!(net.is_coalesced());
        assert_eq!(
            net,
            OpBlock::from_columns_coalesced(raw.values(), raw.deltas())
        );
        let mut hist = crate::multiset::Multiset::new();
        hist.insert(5);
        hist.insert(5);
        assert!(OpBlock::from_histogram(&hist).is_coalesced());
        // Mutation invalidates the marker.
        let mut net = net;
        net.push(99, 1);
        assert!(!net.is_coalesced());
    }

    #[test]
    fn wire_roundtrip_preserves_entries_and_coalesced_marker() {
        for block in [
            OpBlock::new(),
            OpBlock::from_ops([Op::Insert(7), Op::Insert(7), Op::Delete(7), Op::Insert(9)]),
            OpBlock::from_values(0..100u64).coalesce(),
        ] {
            let mut wire = Vec::new();
            block.encode_wire(&mut wire);
            assert_eq!(wire.len(), block.wire_len());
            let mut cursor = wire.as_slice();
            let back = OpBlock::decode_wire(&mut cursor).unwrap();
            assert!(cursor.is_empty(), "decode consumed exactly the block");
            assert_eq!(back, block);
            assert_eq!(back.is_coalesced(), block.is_coalesced());
        }
    }

    #[test]
    fn wire_decode_leaves_trailing_bytes() {
        let block = OpBlock::from_values([1u64, 2, 3]);
        let mut wire = Vec::new();
        block.encode_wire(&mut wire);
        wire.extend_from_slice(b"tail");
        let mut cursor = wire.as_slice();
        assert_eq!(OpBlock::decode_wire(&mut cursor).unwrap(), block);
        assert_eq!(cursor, b"tail");
    }

    #[test]
    fn wire_truncations_rejected_cleanly() {
        let block = OpBlock::from_values(0..20u64);
        let mut wire = Vec::new();
        block.encode_wire(&mut wire);
        for cut in [0, 1, 4, 5, 6, wire.len() - 1] {
            let mut cursor = &wire[..cut];
            assert!(
                OpBlock::decode_wire(&mut cursor).is_err(),
                "cut at {cut} must fail"
            );
        }
        // A length claiming more entries than the payload carries.
        let mut huge = wire.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(OpBlock::decode_wire(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn wire_unknown_flags_rejected_and_lying_coalesced_flag_demoted() {
        let block = OpBlock::from_values([5u64, 5]);
        let mut wire = Vec::new();
        block.encode_wire(&mut wire);
        let mut bad = wire.clone();
        bad[4] = 0x80;
        assert!(OpBlock::decode_wire(&mut bad.as_slice()).is_err());
        // Claiming coalesced over a zero delta is demoted, not trusted.
        let mut zeroed = OpBlock::new();
        zeroed.push(3, 1);
        let mut wire = Vec::new();
        zeroed.encode_wire(&mut wire);
        wire[4] = 1; // claim coalesced
        let offset = wire.len() - 8;
        wire[offset..].copy_from_slice(&0i64.to_le_bytes()); // zero the delta
        let back = OpBlock::decode_wire(&mut wire.as_slice()).unwrap();
        assert!(!back.is_coalesced());
    }

    #[test]
    fn value_blocks_cover_the_stream() {
        let values: Vec<u64> = (0..10).collect();
        let blocks: Vec<OpBlock> = value_blocks(&values, 4).collect();
        assert_eq!(blocks.len(), 3);
        let total: u64 = blocks.iter().map(OpBlock::ops).sum();
        assert_eq!(total, 10);
    }
}
