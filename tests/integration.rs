//! Cross-crate integration tests: data sets from `ams-datagen` flowing
//! through `ams-stream` streams into `ams-core` estimators, checked
//! against exact ground truth — the full pipeline every experiment uses.

use ams::stream::{canonicalize, replay, replay_with_truth};
use ams::{
    DatasetId, DeletePattern, ExactTracker, JoinSignatureFamily, Multiset, NaiveSampling,
    SampleCount, SampleCountFastQuery, SelfJoinEstimator, SketchParams, StreamBuilder,
    TugOfWarSketch,
};

/// The paper's headline accuracy claim, end-to-end: on every Table 1
/// data set, a 4096-word tug-of-war sketch estimates the self-join size
/// within 15 % (the paper's threshold, reached by s ≤ 256 on most sets —
/// 4096 gives deterministic-test headroom on all of them).
#[test]
fn tugofwar_within_15_percent_on_all_datasets() {
    for dataset in DatasetId::ALL {
        let values = dataset.generate(dataset.default_seed());
        let histogram = Multiset::from_values(values.iter().copied());
        let exact = histogram.self_join_size() as f64;
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(
            SketchParams::new(1024, 4).unwrap(),
            0xACC_u64 + dataset as u64,
        );
        for (v, f) in histogram.iter() {
            tw.update(v, f as i64);
        }
        let rel = (tw.estimate() - exact).abs() / exact;
        assert!(rel < 0.15, "{dataset}: relative error {rel:.4}");
    }
}

/// Sample-count end-to-end on a full data set, streamed value by value.
#[test]
fn samplecount_converges_on_genesis() {
    let values = DatasetId::Genesis.generate(DatasetId::Genesis.default_seed());
    let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
    let mut sc = SampleCount::new(SketchParams::new(1024, 4).unwrap(), 0x6E);
    sc.extend_values(values.iter().copied());
    let rel = (sc.estimate() - exact).abs() / exact;
    assert!(rel < 0.3, "relative error {rel:.4}");
}

/// All four trackers agree with ground truth on a churn stream within
/// their expected tolerances; the exact tracker agrees exactly.
#[test]
fn churn_stream_through_every_tracker() {
    let values = DatasetId::Mf2.generate(1);
    let ops = StreamBuilder::with_pattern(DeletePattern::RandomChurn { probability: 0.2 }, 7)
        .build(&values);
    let canon = canonicalize(&ops).expect("well-formed");
    let truth = Multiset::from_values(canon.iter().copied());
    let exact_sj = truth.self_join_size() as f64;

    let mut exact = ExactTracker::new();
    assert_eq!(replay(&mut exact, &ops), exact_sj);

    let params = SketchParams::new(512, 4).unwrap();
    let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 3);
    let tw_est = replay(&mut tw, &ops);
    assert!(
        (tw_est - exact_sj).abs() / exact_sj < 0.25,
        "tug-of-war error {}",
        (tw_est - exact_sj).abs() / exact_sj
    );

    let mut sc = SampleCount::new(params, 3);
    let sc_est = replay(&mut sc, &ops);
    assert!(
        (sc_est - exact_sj).abs() / exact_sj < 0.5,
        "sample-count error {}",
        (sc_est - exact_sj).abs() / exact_sj
    );

    let mut ns = NaiveSampling::new(2048, 3);
    let ns_est = replay(&mut ns, &ops);
    assert!(
        (ns_est - exact_sj).abs() / exact_sj < 0.8,
        "naive-sampling error {}",
        (ns_est - exact_sj).abs() / exact_sj
    );
}

/// Checkpointed replay: estimator error stays bounded throughout the
/// stream, not only at the end.
#[test]
fn checkpoints_stay_bounded_through_stream() {
    let values = DatasetId::Poisson.generate(9);
    let ops = StreamBuilder::new().build(&values);
    let mut tw: TugOfWarSketch = TugOfWarSketch::new(SketchParams::new(256, 4).unwrap(), 5);
    let checkpoints = replay_with_truth(&mut tw, &ops, 20_000);
    assert!(checkpoints.len() >= 6);
    for cp in &checkpoints {
        assert!(
            cp.relative_error < 0.4,
            "error {} at op {}",
            cp.relative_error,
            cp.ops_processed
        );
    }
}

/// The two sample-count variants remain interchangeable on real data.
#[test]
fn samplecount_variants_agree_on_real_dataset() {
    let values = DatasetId::Mf3.generate(4);
    let params = SketchParams::new(64, 4).unwrap();
    let mut base = SampleCount::new(params, 11);
    let mut fast = SampleCountFastQuery::new(params, 11);
    for &v in &values {
        base.insert(v);
        fast.insert(v);
    }
    let (a, b) = (base.estimate(), fast.estimate());
    assert!((a - b).abs() / a.abs().max(1.0) < 1e-9, "{a} vs {b}");
}

/// Join pipeline: two Table 1 relations, signatures maintained
/// independently, join size recovered within the Theorem 4.5 error scale.
#[test]
fn join_signatures_recover_table1_pair_join() {
    let left_values = DatasetId::Zipf10.generate(DatasetId::Zipf10.default_seed());
    let right_values = DatasetId::Zipf15.generate(DatasetId::Zipf15.default_seed());
    let left = Multiset::from_values(left_values.iter().copied());
    let right = Multiset::from_values(right_values.iter().copied());
    let exact = left.join_size(&right) as f64;

    let k = 1024;
    let family = JoinSignatureFamily::new(k, 0x7019).unwrap();
    let mut sig_l = family.signature();
    let mut sig_r = family.signature();
    for (v, f) in left.iter() {
        sig_l.update(v, f as i64);
    }
    for (v, f) in right.iter() {
        sig_r.update(v, f as i64);
    }
    let est = sig_l.estimate_join(&sig_r).unwrap();
    let predicted =
        (2.0 * left.self_join_size() as f64 * right.self_join_size() as f64 / k as f64).sqrt();
    assert!(
        (est - exact).abs() < 4.0 * predicted,
        "estimate {est:.3e} vs exact {exact:.3e} (bound scale {predicted:.3e})"
    );
    // Fact 1.1 sanity: the join is bounded by the self-join mean.
    assert!(2.0 * exact <= (left.self_join_size() + right.self_join_size()) as f64);
}

/// Sketch persistence round-trip through the state codec: a persisted
/// signature (seed + counters) restores into one that keeps estimating
/// and tracking consistently.
#[test]
fn signature_persistence_roundtrip() {
    let family = JoinSignatureFamily::new(64, 0xF00D).unwrap();
    let mut sig = family.signature();
    let values = DatasetId::Genesis.generate(2);
    for &v in values.iter().take(10_000) {
        sig.insert(v);
    }
    let mut restored = ams::TwJoinSignature::from_bytes(&sig.to_bytes()).unwrap();
    assert_eq!(restored.counters(), sig.counters());
    let est_a = sig.estimate_join(&restored).unwrap();
    assert!((est_a - sig.self_join_estimate()).abs() < 1e-9);
    // The hash functions were re-derived from the family seed, so both
    // copies keep moving in lockstep.
    for &v in values.iter().skip(10_000).take(1_000) {
        sig.insert(v);
        restored.insert(v);
    }
    assert_eq!(restored.counters(), sig.counters());
}

/// Full catalog pipeline: two Table 1 relations tracked through the
/// relation layer, joined via the catalog, compared to exact.
#[test]
fn catalog_tracks_table1_relations() {
    use ams::{Catalog, TrackerConfig};
    let mut catalog = Catalog::new(TrackerConfig::new(512, 0xCA7).unwrap());
    catalog.add_relation("mf2", &["v"]).unwrap();
    catalog.add_relation("mf3", &["v"]).unwrap();
    let left_values = ams::DatasetId::Mf2.generate(1);
    let right_values = ams::DatasetId::Mf3.generate(2);
    for &v in &left_values {
        catalog
            .tracker_mut("mf2")
            .unwrap()
            .insert_row(&[("v", v)])
            .unwrap();
    }
    for &v in &right_values {
        catalog
            .tracker_mut("mf3")
            .unwrap()
            .insert_row(&[("v", v)])
            .unwrap();
    }
    let exact =
        Multiset::from_values(left_values).join_size(&Multiset::from_values(right_values)) as f64;
    let est = catalog.estimate_join(("mf2", "v"), ("mf3", "v")).unwrap();
    let rel = (est - exact).abs() / exact;
    assert!(rel < 0.5, "estimate {est:.3e} vs exact {exact:.3e}");
    // The skew statistic is live too.
    let stats = catalog.stats("mf2", "v").unwrap();
    assert!(stats.skew_ratio > 1.0);
}

/// Compact codec round-trips a signature built from real data, through
/// bytes, into an equivalent signature.
#[test]
fn codec_roundtrip_on_real_signature() {
    let family = JoinSignatureFamily::new(256, 0x10DE).unwrap();
    let mut sig = family.signature();
    for &v in DatasetId::Poisson.generate(3).iter().take(50_000) {
        sig.insert(v);
    }
    let wire = sig.to_bytes();
    assert_eq!(wire.len(), 24 + 256 * 8);
    let restored = ams::TwJoinSignature::from_bytes(&wire).unwrap();
    assert_eq!(restored.counters(), sig.counters());
}

/// Delta tracking detects a distribution shift on a real data set.
#[test]
fn delta_tracker_flags_distribution_shift() {
    use ams::DeltaTracker;
    let mut t: DeltaTracker = DeltaTracker::new(SketchParams::new(64, 4).unwrap(), 5);
    for &v in DatasetId::Genesis.generate(1).iter().take(40_000) {
        t.insert(v);
    }
    t.commit();
    assert_eq!(t.delta_estimate().unwrap(), 0.0);
    // Shift: a burst of one hot value.
    for _ in 0..2_000 {
        t.insert(424_242);
    }
    let delta = t.delta_estimate().unwrap();
    assert_eq!(delta, 2_000.0 * 2_000.0, "pure single-value delta is exact");
}

/// The compressed-histogram baseline agrees with k-TW on head-dominated
/// data but has no guarantee on tail-dominated data (related-work claim,
/// end to end).
#[test]
fn histogram_baseline_contrast() {
    use ams::CompressedHistogram;
    // Head-dominated: selfsimilar (t = 200, huge head).
    let values = DatasetId::SelfSimilar.generate(4);
    let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
    let mut h = CompressedHistogram::new(128);
    for &v in &values {
        h.insert(v);
    }
    let rel = (h.self_join_estimate() - exact).abs() / exact;
    assert!(rel < 0.1, "head-dominated histogram error {rel}");
    // Tail-dominated: path (40k singletons + one heavy value).
    let values = DatasetId::Path.generate(0);
    let exact = 680_000.0;
    let mut h = CompressedHistogram::new(128);
    for &v in &values {
        h.insert(v);
    }
    let est = h.self_join_estimate();
    // The heavy value is found (SpaceSaving), but the tail uniformity
    // assumption + overcounted candidates leave real error — the
    // "no guarantees" contrast with tug-of-war on the same data.
    let hist_rel = (est - exact).abs() / exact;
    let mut tw: TugOfWarSketch = TugOfWarSketch::new(SketchParams::new(64, 4).unwrap(), 9);
    for (v, f) in Multiset::from_values(values.iter().copied()).iter() {
        tw.update(v, f as i64);
    }
    let tw_rel = (tw.estimate() - exact).abs() / exact;
    assert!(
        tw_rel < 0.15,
        "tug-of-war handles the pathological set: {tw_rel}"
    );
    // (histogram may or may not do OK here; record that it is worse than
    // the guaranteed sketch.)
    assert!(hist_rel >= 0.0); // always true; the comparison below is the claim
    assert!(
        tw_rel <= hist_rel + 0.15,
        "tug-of-war ({tw_rel}) should not be meaningfully worse than histogram ({hist_rel})"
    );
}

/// External-data adapters feed the standard pipeline.
#[test]
fn external_tokens_flow_through_sketches() {
    let text = "a b c a b a ".repeat(500);
    let values = ams::datagen::external::tokens_from_text(&text);
    let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
    let mut tw: TugOfWarSketch = TugOfWarSketch::new(SketchParams::new(64, 4).unwrap(), 2);
    tw.extend_values(values.iter().copied());
    let rel = (tw.estimate() - exact).abs() / exact;
    assert!(rel < 0.2, "error {rel}");
}

/// Memory scaling: sketches stay Θ(s) words while the exact tracker
/// scales with the domain — the paper's reason to exist, as an
/// executable statement.
#[test]
fn sketch_memory_independent_of_domain() {
    let values = DatasetId::Brown2.generate(3); // 46k distinct values
    let params = SketchParams::new(64, 4).unwrap();
    let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, 1);
    let mut sc = SampleCount::new(params, 1);
    let mut exact = ExactTracker::new();
    for &v in values.iter().take(200_000) {
        tw.insert(v);
        sc.insert(v);
        exact.insert(v);
    }
    assert!(
        exact.memory_words() > 50_000,
        "exact {}",
        exact.memory_words()
    );
    assert!(tw.memory_words() < 1_000, "tw {}", tw.memory_words());
    assert!(sc.memory_words() < 5_000, "sc {}", sc.memory_words());
}
