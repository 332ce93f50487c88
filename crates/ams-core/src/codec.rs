//! The one serialized form of sketch state: the seed and the counters.
//!
//! A tug-of-war sketch derives every hash function from its master seed,
//! so its encoded form is a header naming the sign family, shape and
//! seed, then the raw counters — the paper's "k memory words per
//! relation" (§4.3); decoding re-derives the hash functions. The k-TW
//! signature's `to_bytes`, the service's snapshots and its durable
//! checkpoints all use these forms, and nothing else lays out sketch
//! state. All integers are little-endian, counters group-major:
//!
//! ```text
//! sketch  b"AMS2" | u32 family id | u32 s1 | u32 s2 | u64 seed | i64 × s1·s2
//! set     b"AMN2" | u32 family id | u32 s1 | u32 s2 | u64 seed | u32 n ≥ 1
//!         | n × (u32 name length | UTF-8 name | i64 × s1·s2)
//! ```
//!
//! A set holds sketches of one family, shape and seed under distinct
//! names. The family id is [`SignFamily::ID`]: one seed re-derives other
//! functions under another family, so a mismatch is rejected. Decoding
//! checks every count against the remaining bytes before it allocates,
//! so arbitrary input yields [`SketchError::Codec`], never a panic or an
//! outsized allocation.

use std::collections::HashSet;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use ams_hash::sign::SignFamily;

use crate::error::SketchError;
use crate::params::SketchParams;
use crate::tugofwar::TugOfWarSketch;

const MAGIC: [u8; 4] = *b"AMS2";
const SET_MAGIC: [u8; 4] = *b"AMN2";

/// Bytes of the header both forms start with.
pub const HEADER_LEN: usize = 24;

fn codec(reason: &'static str) -> SketchError {
    SketchError::Codec { reason }
}

fn put_header<H: SignFamily, B: BufMut>(out: &mut B, magic: [u8; 4], sketch: &TugOfWarSketch<H>) {
    out.put_slice(&magic);
    out.put_u32_le(H::ID);
    out.put_u32_le(sketch.params().s1() as u32);
    out.put_u32_le(sketch.params().s2() as u32);
    out.put_u64_le(sketch.seed());
}

fn put_counters<B: BufMut>(out: &mut B, counters: &[i64]) {
    for &z in counters {
        out.put_i64_le(z);
    }
}

/// Reads a header with `magic` and returns its shape and seed.
fn get_header<H: SignFamily>(
    data: &mut &[u8],
    magic: [u8; 4],
) -> Result<(SketchParams, u64), SketchError> {
    if data.remaining() < HEADER_LEN {
        return Err(codec("payload shorter than header"));
    }
    let mut found = [0u8; 4];
    data.copy_to_slice(&mut found);
    if found != magic {
        return Err(codec("bad magic"));
    }
    if data.get_u32_le() != H::ID {
        return Err(codec("encoded under another sign family"));
    }
    let (s1, s2) = (data.get_u32_le() as usize, data.get_u32_le() as usize);
    let params = SketchParams::new(s1, s2).map_err(|_| codec("invalid sketch shape in header"))?;
    Ok((params, data.get_u64_le()))
}

/// A sketch of `params` and `seed` holding the next `params.total()`
/// counters; the caller has checked that their bytes remain.
fn get_sketch<H: SignFamily>(
    data: &mut &[u8],
    params: SketchParams,
    seed: u64,
) -> Result<TugOfWarSketch<H>, SketchError> {
    let (head, tail) = data.split_at(8 * params.total());
    *data = tail;
    let counters = head.chunks_exact(8);
    let mut sketch = TugOfWarSketch::new(params, seed);
    sketch.restore_counters(
        counters
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )?;
    Ok(sketch)
}

/// Encodes one sketch.
pub fn encode<H: SignFamily>(sketch: &TugOfWarSketch<H>) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + 8 * sketch.counters().len());
    put_header(&mut buf, MAGIC, sketch);
    put_counters(&mut buf, sketch.counters());
    buf.freeze()
}

/// Decodes one sketch, re-deriving its hash functions from the seed.
///
/// # Errors
/// [`SketchError::Codec`] on bad magic, another family, a malformed
/// shape, or a payload whose length disagrees with the header.
pub fn decode<H: SignFamily>(mut data: &[u8]) -> Result<TugOfWarSketch<H>, SketchError> {
    let (params, seed) = get_header::<H>(&mut data, MAGIC)?;
    if data.remaining() != 8 * params.total() {
        return Err(codec("counter payload length mismatch"));
    }
    get_sketch(&mut data, params, seed)
}

/// Appends the set form of `sketches` to `out`, `names[i]` naming
/// `sketches[i]`.
///
/// # Panics
/// Panics if the set is empty, if the slices differ in length, or if
/// the sketches do not share one shape and seed.
pub fn encode_set<H: SignFamily, B: BufMut>(
    names: &[String],
    sketches: &[TugOfWarSketch<H>],
    out: &mut B,
) {
    assert_eq!(names.len(), sketches.len(), "one name per sketch");
    let first = sketches.first().expect("a sketch set is never empty");
    assert!(
        sketches
            .iter()
            .all(|s| s.params() == first.params() && s.seed() == first.seed()),
        "a sketch set shares one shape and seed"
    );
    let names_len: usize = names.iter().map(String::len).sum();
    out.reserve(HEADER_LEN + 4 + names_len + sketches.len() * (4 + 8 * first.counters().len()));
    put_header(out, SET_MAGIC, first);
    out.put_u32_le(sketches.len() as u32);
    for (name, sketch) in names.iter().zip(sketches) {
        out.put_u32_le(name.len() as u32);
        out.put_slice(name.as_bytes());
        put_counters(out, sketch.counters());
    }
}

/// Decodes a set from the front of `data`, advancing it past the set:
/// the names and their sketches, in encoded order.
///
/// # Errors
/// [`SketchError::Codec`] as for [`decode`], and on an empty set, a
/// count or name length past the remaining bytes, a name that is not
/// UTF-8, or a repeated name.
pub fn decode_set<H: SignFamily>(
    data: &mut &[u8],
) -> Result<(Vec<String>, Vec<TugOfWarSketch<H>>), SketchError> {
    let (params, seed) = get_header::<H>(data, SET_MAGIC)?;
    let entry_min = 4 + 8 * params.total();
    if data.remaining() < 4 {
        return Err(codec("truncated set count"));
    }
    let n = data.get_u32_le() as usize;
    if n == 0 || n > data.remaining() / entry_min {
        return Err(codec("set count is zero or exceeds the payload"));
    }
    let (mut names, mut sketches) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut seen = HashSet::with_capacity(n);
    for _ in 0..n {
        if data.remaining() < 4 {
            return Err(codec("truncated set entry"));
        }
        let len = data.get_u32_le() as usize;
        if len > data.remaining() || data.remaining() - len < entry_min - 4 {
            return Err(codec("truncated set entry"));
        }
        let (name, rest) = data.split_at(len);
        let name = std::str::from_utf8(name).map_err(|_| codec("sketch name is not UTF-8"))?;
        if !seen.insert(name) {
            return Err(codec("sketch set repeats a name"));
        }
        *data = rest;
        names.push(name.to_string());
        sketches.push(get_sketch(data, params, seed)?);
    }
    Ok((names, sketches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_hash::sign::{BchSignHash, PolySign, TabulationSign, TwoWiseSign};
    use ams_stream::SelfJoinEstimator;

    fn sample_sketch() -> TugOfWarSketch<PolySign> {
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(SketchParams::new(8, 3).unwrap(), 0xC0DEC);
        tw.extend_values([1u64, 5, 5, 9, 1, 2]);
        tw
    }

    fn sample_set() -> (Vec<String>, Vec<TugOfWarSketch>) {
        let params = SketchParams::new(4, 2).unwrap();
        let sketches: Vec<TugOfWarSketch> = (0..3u64)
            .map(|i| {
                let mut tw = TugOfWarSketch::new(params, 11);
                tw.extend_values((0..20).map(|v| v * (i + 1)));
                tw
            })
            .collect();
        let names = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        (names, sketches)
    }

    fn encoded_set() -> Vec<u8> {
        let (names, sketches) = sample_set();
        let mut wire = Vec::new();
        encode_set(&names, &sketches, &mut wire);
        wire
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let tw = sample_sketch();
        let wire = encode(&tw);
        assert_eq!(wire.len(), HEADER_LEN + 8 * 24);
        let back: TugOfWarSketch<PolySign> = decode(&wire).unwrap();
        assert_eq!(back.counters(), tw.counters());
        assert_eq!(back.estimate(), tw.estimate());
        // The restored sketch keeps tracking identically (hashes were
        // re-derived from the seed).
        let mut a = tw.clone();
        let mut b = back.clone();
        a.insert(77);
        b.insert(77);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn wire_form_is_compact() {
        // Header plus one word per counter, whatever the family's plane
        // weighs: a tabulation row alone holds 2,048 words.
        fn size<H: SignFamily>() -> usize {
            let mut tw: TugOfWarSketch<H> =
                TugOfWarSketch::new(SketchParams::new(8, 3).unwrap(), 3);
            tw.extend_values([4u64, 8, 8]);
            encode(&tw).len()
        }
        assert_eq!(size::<PolySign>(), HEADER_LEN + 8 * 24);
        assert_eq!(size::<TabulationSign>(), HEADER_LEN + 8 * 24);
    }

    #[test]
    fn truncated_payload_rejected() {
        let wire = encode(&sample_sketch());
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, wire.len() - 1] {
            let err = decode::<PolySign>(&wire[..cut]).unwrap_err();
            assert!(matches!(err, SketchError::Codec { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_magic_rejected() {
        let wire = encode(&sample_sketch());
        let mut bad = wire.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode::<PolySign>(&bad).unwrap_err(),
            SketchError::Codec {
                reason: "bad magic"
            }
        );
        // A set is not a sketch, and a sketch is not a set.
        assert!(decode::<PolySign>(&encoded_set()).is_err());
        assert!(decode_set::<PolySign>(&mut &wire[..]).is_err());
    }

    #[test]
    fn zero_shape_rejected() {
        let wire = encode(&sample_sketch());
        let mut bad = wire.to_vec();
        bad[8..12].fill(0); // s1 = 0
        assert!(decode::<PolySign>(&bad).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let wire = encode(&sample_sketch());
        let mut bad = wire.to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(decode::<PolySign>(&bad).is_err());
    }

    /// Encodes under `H` and decodes as `G`, for both forms.
    fn decodes_as<H: SignFamily, G: SignFamily>() -> (bool, bool) {
        let params = SketchParams::new(4, 2).unwrap();
        let mut tw: TugOfWarSketch<H> = TugOfWarSketch::new(params, 5);
        tw.extend_values([1u64, 2, 2, 3]);
        let mut set = Vec::new();
        encode_set(&["v".to_string()], std::slice::from_ref(&tw), &mut set);
        let one = decode::<G>(&encode(&tw));
        let many = decode_set::<G>(&mut &set[..]);
        for err in [one.as_ref().err(), many.as_ref().err()]
            .into_iter()
            .flatten()
        {
            assert!(matches!(err, SketchError::Codec { .. }), "{err:?}");
        }
        (one.is_ok(), many.is_ok())
    }

    #[test]
    fn family_id_mismatch_rejected_for_every_pair() {
        macro_rules! row {
            ($h:ty) => {
                [
                    decodes_as::<$h, PolySign>(),
                    decodes_as::<$h, TwoWiseSign>(),
                    decodes_as::<$h, BchSignHash>(),
                    decodes_as::<$h, TabulationSign>(),
                ]
            };
        }
        let matrix = [
            row!(PolySign),
            row!(TwoWiseSign),
            row!(BchSignHash),
            row!(TabulationSign),
        ];
        for (i, row) in matrix.iter().enumerate() {
            for (j, &(one, many)) in row.iter().enumerate() {
                assert_eq!(one, i == j, "sketch encoded as family {i}, decoded as {j}");
                assert_eq!(many, i == j, "set encoded as family {i}, decoded as {j}");
            }
        }
    }

    #[test]
    fn set_roundtrip_preserves_names_counters_and_tracking() {
        let (names, sketches) = sample_set();
        let mut wire = encoded_set();
        wire.extend_from_slice(b"tail");
        let mut data = &wire[..];
        let (back_names, back) = decode_set::<PolySign>(&mut data).unwrap();
        assert_eq!(data, b"tail", "the set decodes from the front only");
        assert_eq!(back_names, names);
        for (a, b) in sketches.iter().zip(back.iter()) {
            assert_eq!(a.counters(), b.counters());
            let (mut a, mut b) = (a.clone(), b.clone());
            a.insert(1234);
            b.insert(1234);
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn set_rejects_repeats_truncation_and_overdeclared_counts() {
        let wire = encoded_set();
        // Every strict prefix fails cleanly.
        for cut in 0..wire.len() {
            assert!(
                decode_set::<PolySign>(&mut &wire[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A repeated name.
        let (_, sketches) = sample_set();
        let mut repeated = Vec::new();
        let names = vec!["a".to_string(), "b".to_string(), "a".to_string()];
        encode_set(&names, &sketches, &mut repeated);
        assert_eq!(
            decode_set::<PolySign>(&mut &repeated[..]).unwrap_err(),
            codec("sketch set repeats a name")
        );
        // Counts past the remaining bytes are refused before anything
        // is allocated: a set count, and a name length.
        let mut over = wire.clone();
        over[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_set::<PolySign>(&mut &over[..]).unwrap_err(),
            codec("set count is zero or exceeds the payload")
        );
        let mut zero = wire.clone();
        zero[HEADER_LEN..HEADER_LEN + 4].fill(0);
        assert_eq!(
            decode_set::<PolySign>(&mut &zero[..]).unwrap_err(),
            codec("set count is zero or exceeds the payload")
        );
        let mut long_name = wire.clone();
        long_name[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_set::<PolySign>(&mut &long_name[..]).unwrap_err(),
            codec("truncated set entry")
        );
        // A shape of 2³² − 1 counters per sketch fails on length, not
        // on an allocation of 32 GiB.
        let mut huge = wire;
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        huge[12..16].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode_set::<PolySign>(&mut &huge[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "one shape and seed")]
    fn set_of_mixed_seeds_is_not_encodable() {
        let params = SketchParams::new(4, 2).unwrap();
        let a: TugOfWarSketch = TugOfWarSketch::new(params, 1);
        let b: TugOfWarSketch = TugOfWarSketch::new(params, 2);
        encode_set(
            &["a".to_string(), "b".to_string()],
            &[a, b],
            &mut Vec::new(),
        );
    }
}
