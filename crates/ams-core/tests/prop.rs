//! Property-based tests for the sketching algorithms.

use ams_core::{
    JoinSignatureFamily, NaiveSampling, SampleCount, SampleCountFastQuery, SelfJoinEstimator,
    SketchParams, ThreeWayFamily, ThreeWayRole, TugOfWarSketch, SIGN_CACHE_BYTES,
};
use ams_hash::lanes::LANES;
use ams_hash::plane::{PolySignPlane, SignPlane};
use ams_hash::rng::SplitMix64;
use ams_stream::{Multiset, Op, OpBlock};
use proptest::prelude::*;

/// `count` blocks of `len` raw entries each. Skewed blocks draw from 24
/// hot keys (0 and `u64::MAX` among them), so keys recur within a run
/// and across runs; distinct blocks draw fresh random keys. Deltas mix
/// inserts and deletes, and some recurring keys cancel within a run.
fn cache_blocks(seed: u64, count: usize, len: usize, skewed: bool) -> Vec<(Vec<u64>, Vec<i64>)> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let values: Vec<u64> = (0..len)
                .map(|_| match rng.next_below(24) {
                    _ if !skewed => rng.next_u64(),
                    0 => 0,
                    1 => u64::MAX,
                    k => k * 0x9E37_79B9,
                })
                .collect();
            let deltas = (0..len).map(|_| rng.next_below(7) as i64 - 3).collect();
            (values, deltas)
        })
        .collect()
}

/// The counters of the plain plane — the sketch's own functions, drawn
/// from the same seed — summed over `blocks` with no coalescing and no
/// cache.
fn plain_plane_counters(
    params: SketchParams,
    seed: u64,
    blocks: &[(Vec<u64>, Vec<i64>)],
) -> Vec<i64> {
    let plane = PolySignPlane::draw(params.total(), &mut SplitMix64::new(seed));
    let mut counters = vec![0i64; params.total()];
    for (values, deltas) in blocks {
        plane.accumulate_block(values, deltas, &mut counters);
    }
    counters
}

/// Well-formed op sequences (every delete matches a live insert).
fn wellformed_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..30, any::<bool>()), 1..max_len).prop_map(|raw| {
        let mut live = std::collections::HashMap::<u64, u64>::new();
        let mut ops = Vec::with_capacity(raw.len());
        for (v, want_delete) in raw {
            let count = live.entry(v).or_insert(0);
            if want_delete && *count > 0 {
                *count -= 1;
                ops.push(Op::Delete(v));
            } else {
                *count += 1;
                ops.push(Op::Insert(v));
            }
        }
        ops
    })
}

/// A sign cache driven far past its byte budget evicts and re-admits
/// keys, and its counters still equal the plain plane's.
#[test]
fn sign_cache_past_its_budget_evicts_and_stays_exact() {
    let params = SketchParams::new(8, 1).unwrap();
    let mut sketch: TugOfWarSketch = TugOfWarSketch::new(params, 11);
    // Each block carries 2,048 keys twice each; four rounds of fresh
    // keys, then the first round again.
    let mut blocks = Vec::new();
    for round in [0u64, 1, 2, 3, 0] {
        let keys: Vec<u64> = (0..2_048u64).map(|k| (round << 32) | k).collect();
        let values: Vec<u64> = keys.iter().chain(&keys).copied().collect();
        blocks.push((values, vec![1i64; 4_096]));
    }
    for (values, deltas) in &blocks {
        sketch.update_columns(values, deltas);
    }
    assert_eq!(sketch.counters(), plain_plane_counters(params, 11, &blocks));
    let stats = sketch.take_sign_cache_stats();
    // At s = 8 a cached key costs at least 16 bytes (its key and one
    // sign word), so the budget holds at most this many keys.
    let most_resident = (SIGN_CACHE_BYTES / 16) as u64;
    assert!(stats.admissions > most_resident, "{stats:?}");
    assert!(stats.hits > 0, "{stats:?}");
    assert_eq!(stats.hits + stats.admissions + stats.misses, 5 * 2_048);
}

proptest! {
    /// Coalesced runs are applied through the hot-key sign cache, yet
    /// the counters equal the plain plane's bit for bit: block lengths
    /// 0, 1, LANES ± 1 and past 4 K; skewed and distinct streams; row
    /// counts on and off the 64-bit word; per-block coalescing, folded
    /// batches, and both on one sketch whose scratch and cache are
    /// reused dirty from block to block.
    #[test]
    fn sign_cache_ingestion_equals_plain_plane(
        seed in any::<u64>(),
        len in (0usize..6).prop_map(|i| [0, 1, LANES - 1, LANES + 1, 4_096, 4_500][i]),
        skewed in any::<bool>(),
        batch in 1usize..4,
        s1 in (0usize..3).prop_map(|i| [16, 33, 65][i]),
    ) {
        let params = SketchParams::new(s1, 2).unwrap();
        let blocks = cache_blocks(seed, 6, len, skewed);
        let plain = plain_plane_counters(params, seed, &blocks);

        let mut per_block: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        let mut folded: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        let mut mixed: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        for (i, group) in blocks.chunks(batch).enumerate() {
            for (values, deltas) in group {
                per_block.update_columns(values, deltas);
                folded.fold_block(&OpBlock::from_columns_coalesced(values, deltas));
                let block = OpBlock::from_ops(values.iter().zip(deltas).flat_map(|(&v, &d)| {
                    let op = if d > 0 { Op::Insert(v) } else { Op::Delete(v) };
                    std::iter::repeat_n(op, d.unsigned_abs() as usize)
                }));
                if i % 2 == 0 {
                    mixed.apply_block(&block);
                } else {
                    mixed.fold_block(&block);
                }
            }
            folded.sweep_folded();
            mixed.sweep_folded();
        }
        prop_assert_eq!(per_block.counters(), &plain[..], "per-block coalescing");
        prop_assert_eq!(folded.counters(), &plain[..], "folded batches");
        prop_assert_eq!(mixed.counters(), &plain[..], "mixed paths, dirty reuse");
        if skewed && len >= 4_096 {
            let stats = per_block.take_sign_cache_stats();
            prop_assert!(stats.hits > 0 && stats.admissions > 0, "{:?}", stats);
        }
    }

    /// Tug-of-war is a linear sketch: processing Â equals processing the
    /// canonical insert-only sequence A, counter for counter.
    #[test]
    fn tugofwar_canonicalization_invariance(ops in wellformed_ops(200), seed in any::<u64>()) {
        let params = SketchParams::new(8, 2).unwrap();
        let mut mixed: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        mixed.extend_ops(ops.iter().copied());
        let canon = ams_stream::canonicalize(&ops).expect("wellformed");
        let mut clean: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        clean.extend_values(canon);
        prop_assert_eq!(mixed.counters(), clean.counters());
    }

    /// A tug-of-war estimate is always non-negative, and exactly zero for
    /// a fully-cancelled stream.
    #[test]
    fn tugofwar_estimate_nonnegative(ops in wellformed_ops(150), seed in any::<u64>()) {
        let mut tw: TugOfWarSketch =
            TugOfWarSketch::new(SketchParams::new(4, 3).unwrap(), seed);
        tw.extend_ops(ops.iter().copied());
        prop_assert!(tw.estimate() >= 0.0);
    }

    /// Merging partitioned streams equals sketching the concatenation.
    #[test]
    fn tugofwar_merge_partition_invariance(
        values in proptest::collection::vec(0u64..100, 1..300),
        split in 0usize..300,
        seed in any::<u64>(),
    ) {
        let split = split.min(values.len());
        let params = SketchParams::new(4, 2).unwrap();
        let mut left: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        left.extend_values(values[..split].iter().copied());
        let mut right: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        right.extend_values(values[split..].iter().copied());
        let mut whole: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        whole.extend_values(values.iter().copied());
        left.merge_from(&right).unwrap();
        prop_assert_eq!(left.counters(), whole.counters());
    }

    /// Sample-count never reports a negative length, keeps n in sync with
    /// the exact multiset, and its estimate is finite.
    #[test]
    fn samplecount_tracks_n_and_stays_finite(ops in wellformed_ops(300), seed in any::<u64>()) {
        let mut sc = SampleCount::new(SketchParams::new(8, 2).unwrap(), seed);
        let mut truth = Multiset::new();
        for &op in &ops {
            sc.apply(op);
            truth.apply(op);
        }
        prop_assert_eq!(sc.len(), truth.len());
        prop_assert!(sc.estimate().is_finite());
    }

    /// The two sample-count variants agree estimate-for-estimate on any
    /// stream when built from the same seed.
    #[test]
    fn samplecount_variants_agree(ops in wellformed_ops(250), seed in any::<u64>()) {
        let params = SketchParams::new(8, 3).unwrap();
        let mut base = SampleCount::new(params, seed);
        let mut fast = SampleCountFastQuery::new(params, seed);
        for &op in &ops {
            base.apply(op);
            fast.apply(op);
        }
        let (a, b) = (base.estimate(), fast.estimate());
        let scale = a.abs().max(b.abs()).max(1.0);
        prop_assert!((a - b).abs() / scale < 1e-9, "base {} vs fast {}", a, b);
        prop_assert_eq!(base.live_points(), fast.live_points());
    }

    /// Naive sampling is exact whenever the stream fits in the reservoir.
    #[test]
    fn naivesampling_exact_within_capacity(
        values in proptest::collection::vec(0u64..50, 2..64),
        seed in any::<u64>(),
    ) {
        let mut ns = NaiveSampling::new(64, seed);
        ns.extend_values(values.iter().copied());
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        prop_assert!((ns.estimate() - exact).abs() < 1e-6);
    }

    /// Join signatures from one family estimate a relation's join with
    /// itself identically to its self-join estimate.
    #[test]
    fn join_signature_self_consistency(
        values in proptest::collection::vec(0u64..40, 1..200),
        seed in any::<u64>(),
        k in 1usize..32,
    ) {
        let fam = JoinSignatureFamily::new(k, seed).unwrap();
        let mut sig = fam.signature();
        for &v in &values {
            sig.insert(v);
        }
        let self_est = sig.self_join_estimate();
        let join_est = sig.estimate_join(&sig.clone()).unwrap();
        prop_assert_eq!(self_est, join_est);
        prop_assert!(self_est >= 0.0);
    }

    /// Block path ≡ scalar path for every estimator: the same op stream
    /// fed per item and fed as run-coalesced `OpBlock`s must leave each
    /// estimator in a bit-identical state (counters for the linear
    /// sketch, exact estimates and live points for the order-sensitive
    /// sampling trackers). For the linear sketch this includes the
    /// multi-block apply: `batch` blocks folded, then swept at once.
    #[test]
    fn block_ingestion_equals_scalar_ingestion(
        ops in wellformed_ops(400),
        seed in any::<u64>(),
        block_size in 1usize..80,
        batch in 1usize..8,
    ) {
        let blocks: Vec<OpBlock> = ops
            .chunks(block_size)
            .map(|chunk| OpBlock::from_ops(chunk.iter().copied()))
            .collect();
        let params = SketchParams::new(8, 3).unwrap();

        // Tug-of-war: linear, so counters must match bit for bit — for
        // chunked run-coalesced blocks AND for one fully-coalesced
        // net-delta block.
        let mut scalar_tw: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        scalar_tw.extend_ops(ops.iter().copied());
        let mut block_tw: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        block_tw.extend_blocks(&blocks);
        prop_assert_eq!(scalar_tw.counters(), block_tw.counters());
        let mut net_tw: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        net_tw.apply_block(&OpBlock::from_ops(ops.iter().copied()).coalesce());
        prop_assert_eq!(scalar_tw.counters(), net_tw.counters());
        // The multi-block apply: values repeat and cancel across the
        // blocks of a batch, an empty block follows every block, the
        // scratch is reused dirty from batch to batch, and every third
        // batch is left pending for the next block apply to sweep.
        let mut fold_tw: TugOfWarSketch = TugOfWarSketch::new(params, seed);
        for (i, group) in blocks.chunks(batch).enumerate() {
            for block in group {
                fold_tw.fold_block(block);
                fold_tw.fold_block(&OpBlock::new());
            }
            if i % 3 == 2 {
                fold_tw.apply_block(&OpBlock::new());
            } else {
                fold_tw.sweep_folded();
            }
        }
        fold_tw.sweep_folded();
        prop_assert_eq!(scalar_tw.counters(), fold_tw.counters());

        // Sample-count (both variants): positional sampling is
        // order-sensitive; run-coalesced blocks replay the identical
        // trajectory, so estimates and live points match exactly.
        let mut scalar_sc = SampleCount::new(params, seed);
        scalar_sc.extend_ops(ops.iter().copied());
        let mut block_sc = SampleCount::new(params, seed);
        block_sc.extend_blocks(&blocks);
        prop_assert_eq!(scalar_sc.live_points(), block_sc.live_points());
        prop_assert_eq!(scalar_sc.estimate().to_bits(), block_sc.estimate().to_bits());

        let mut scalar_fq = SampleCountFastQuery::new(params, seed);
        scalar_fq.extend_ops(ops.iter().copied());
        let mut block_fq = SampleCountFastQuery::new(params, seed);
        block_fq.extend_blocks(&blocks);
        prop_assert_eq!(scalar_fq.live_points(), block_fq.live_points());
        prop_assert_eq!(scalar_fq.estimate().to_bits(), block_fq.estimate().to_bits());

        // Naive sampling: the reservoir consumes one random draw per
        // insert, so in-order expansion reproduces the exact sample.
        let mut scalar_ns = NaiveSampling::new(16, seed);
        scalar_ns.extend_ops(ops.iter().copied());
        let mut block_ns = NaiveSampling::new(16, seed);
        block_ns.extend_blocks(&blocks);
        prop_assert_eq!(scalar_ns.sample_size(), block_ns.sample_size());
        prop_assert_eq!(scalar_ns.estimate().to_bits(), block_ns.estimate().to_bits());
    }

    /// Block path ≡ scalar path for the §4.3 join-signature families.
    #[test]
    fn signature_block_ingestion_equals_scalar(
        ops in wellformed_ops(300),
        seed in any::<u64>(),
        block_size in 1usize..60,
    ) {
        let blocks: Vec<OpBlock> = ops
            .chunks(block_size)
            .map(|chunk| OpBlock::from_ops(chunk.iter().copied()))
            .collect();

        let fam = JoinSignatureFamily::new(24, seed).unwrap();
        let mut scalar_sig = fam.signature();
        for &op in &ops {
            scalar_sig.update(op.value(), op.delta());
        }
        let mut block_sig = fam.signature();
        for block in &blocks {
            block_sig.update_block(block);
        }
        prop_assert_eq!(scalar_sig.counters(), block_sig.counters());

        let three = ThreeWayFamily::new(9, seed).unwrap();
        for role in [ThreeWayRole::Center, ThreeWayRole::Left, ThreeWayRole::Right] {
            let mut scalar_three = three.signature(role);
            for &op in &ops {
                scalar_three.update(op.value(), op.delta());
            }
            let mut block_three = three.signature(role);
            for block in &blocks {
                block_three.update_block(block);
            }
            prop_assert_eq!(scalar_three.counters(), block_three.counters());
        }
    }

    /// Signature linearity: inserting then deleting any suffix restores
    /// the counters.
    #[test]
    fn join_signature_delete_rollback(
        base in proptest::collection::vec(0u64..40, 0..100),
        extra in proptest::collection::vec(0u64..40, 0..50),
        seed in any::<u64>(),
    ) {
        let fam = JoinSignatureFamily::new(8, seed).unwrap();
        let mut sig = fam.signature();
        for &v in &base {
            sig.insert(v);
        }
        let snapshot = sig.counters().to_vec();
        for &v in &extra {
            sig.insert(v);
        }
        for &v in extra.iter().rev() {
            sig.delete(v);
        }
        prop_assert_eq!(sig.counters(), &snapshot[..]);
    }
}
