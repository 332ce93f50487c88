//! One-shot algorithm runs over a fixed data set, sized for figure
//! sweeps.
//!
//! The figures need hundreds of (algorithm, sample size) cells over
//! streams up to a million values. Sample-count and naive-sampling
//! replay the stream in columnar blocks (their updates are O(1)
//! amortized, so blocks only trim dispatch overhead). Tug-of-war
//! updates are O(s), so a naive replay of the largest cells would cost
//! ~10¹⁰ hash evaluations; instead the runner **bulk-loads** the
//! frequency histogram as one fully-coalesced
//! [`OpBlock`] through
//! [`TugOfWarSketch::update_block`] — by linearity the resulting
//! counters are *identical* to a full replay (a tested invariant), at
//! O(t·s) instead of O(n·s), with the plane kernel sweeping all t
//! distinct values per counter row.

use ams_core::{NaiveSampling, SampleCount, SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_stream::{value_blocks, Multiset, OpBlock};

/// Block size for streamed replays (the sweet spot of the throughput
/// bench's 64/256/1024 sweep).
const BLOCK_SIZE: usize = 256;

/// The three §2 algorithms, as figure series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// §2.2 tug-of-war.
    TugOfWar,
    /// §2.1 sample-count.
    SampleCount,
    /// §2.3 naive-sampling.
    NaiveSampling,
}

impl Algorithm {
    /// All three, in the paper's reporting order.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::TugOfWar,
        Algorithm::SampleCount,
        Algorithm::NaiveSampling,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TugOfWar => "tug-of-war",
            Algorithm::SampleCount => "sample-count",
            Algorithm::NaiveSampling => "naive-sampling",
        }
    }
}

/// Runs tug-of-war with `s` estimators (single group, matching the
/// figures' "sample size" axis) by bulk-loading the histogram as one
/// coalesced block.
pub fn run_tugofwar(histogram: &Multiset, s: usize, seed: u64) -> f64 {
    let params = SketchParams::single_group(s).expect("s >= 1");
    let mut tw: TugOfWarSketch = TugOfWarSketch::new(params, seed);
    tw.update_block(&OpBlock::from_histogram(histogram));
    tw.estimate()
}

/// Runs sample-count with `s` sample points over the value stream,
/// ingested in columnar blocks.
pub fn run_samplecount(values: &[u64], s: usize, seed: u64) -> f64 {
    let params = SketchParams::single_group(s).expect("s >= 1");
    let mut sc = SampleCount::new(params, seed);
    for block in value_blocks(values, BLOCK_SIZE) {
        sc.apply_block(&block);
    }
    sc.estimate()
}

/// Runs naive-sampling with reservoir capacity `s` over the value
/// stream, ingested in columnar blocks. (The estimator needs `s ≥ 2`;
/// for `s = 1` the paper's plots start at the information-free floor,
/// which we mirror by returning `n`.)
pub fn run_naivesampling(values: &[u64], s: usize, seed: u64) -> f64 {
    if s < 2 {
        return values.len() as f64;
    }
    let mut ns = NaiveSampling::new(s, seed);
    for block in value_blocks(values, BLOCK_SIZE) {
        ns.apply_block(&block);
    }
    ns.estimate()
}

/// Runs one algorithm at one sample size, returning the raw estimate.
pub fn run(algorithm: Algorithm, values: &[u64], histogram: &Multiset, s: usize, seed: u64) -> f64 {
    match algorithm {
        Algorithm::TugOfWar => run_tugofwar(histogram, s, seed),
        Algorithm::SampleCount => run_samplecount(values, s, seed),
        Algorithm::NaiveSampling => run_naivesampling(values, s, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (Vec<u64>, Multiset) {
        let values: Vec<u64> = (0..5_000u64).map(|i| i % 40).collect();
        let hist = Multiset::from_values(values.iter().copied());
        (values, hist)
    }

    #[test]
    fn bulk_loaded_tugofwar_matches_streamed() {
        let (values, hist) = data();
        let params = SketchParams::single_group(32).unwrap();
        let mut streamed: TugOfWarSketch = TugOfWarSketch::new(params, 9);
        streamed.extend_values(values.iter().copied());
        let bulk = run_tugofwar(&hist, 32, 9);
        assert_eq!(bulk, streamed.estimate());
    }

    #[test]
    fn all_algorithms_land_near_truth_with_large_s() {
        let (values, hist) = data();
        let exact = hist.self_join_size() as f64;
        for alg in Algorithm::ALL {
            let est = run(alg, &values, &hist, 4_096, 123);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.2, "{}: rel {rel}", alg.name());
        }
    }

    #[test]
    fn naive_sampling_floor_at_s1() {
        let (values, hist) = data();
        assert_eq!(run_naivesampling(&values, 1, 0), values.len() as f64);
        let _ = hist;
    }
}
