//! The tug-of-war sketch (§2.2): the AMS F₂ estimator.
//!
//! Each atomic estimator keeps one signed counter
//! `Z_{i,j} = Σ_v ε_{i,j}(v) · f_v`, where `ε_{i,j}` is a 4-wise
//! independent ±1 mapping. Every stream member "pulls the rope" one way or
//! the other according to its value's sign; `E[Z²] = SJ(R)` exactly, and
//! 4-wise independence bounds `Var[Z²] ≤ 2·SJ(R)²`. Averaging `s1`
//! estimators per group and taking the median of `s2` group means yields
//! Theorem 2.2:
//!
//! ```text
//! Prob( |Y − SJ(R)| / SJ(R) ≤ 4/√s1 ) ≥ 1 − 2^(−s2/2)
//! ```
//!
//! The sketch is a *linear* function of the frequency vector, which buys
//! three properties beyond the paper's statement, all exposed here:
//! deletions are handled by subtracting instead of adding (the paper's §2.2
//! tracking extension); two sketches built with the same seed **merge** by
//! counter-wise addition (distributed tracking); and the counter-wise
//! **inner product** of two same-seed sketches estimates the *join* size —
//! this is exactly the §4.3 k-TW join signature, so
//! [`crate::join::TwJoinSignature`] is built on this type.

use ams_hash::lanes::PlaneScratch;
use ams_hash::plane::SignPlane;
use ams_hash::rng::SplitMix64;
use ams_hash::sign::{PolySign, SignFamily};

use ams_stream::{CoalesceBuffer, OpBlock, SelfJoinEstimator, Value};

use crate::error::SketchError;
use crate::estimator::median_of_means;
use crate::params::SketchParams;
use crate::signcache::{SignCache, SignCacheStats};

/// A tug-of-war sketch with pluggable sign-hash family `H`
/// (default: 4-wise independent polynomial hashing).
///
/// The hash functions live in the family's columnar
/// [`SignPlane`](ams_hash::plane::SignPlane) (structure-of-arrays for the
/// polynomial families), so block ingestion via
/// [`update_block`](Self::update_block) /
/// [`apply_block`](SelfJoinEstimator::apply_block) sweeps each counter
/// row over a whole block with the row's coefficients in registers —
/// the per-item path and the block path produce bit-identical counters.
///
/// While the adaptive coalescing gate is on ([`Self::coalesces`]), each
/// netted run is applied through a bounded hot-key sign cache (see
/// [`crate::signcache`]): keys that recur within a run are admitted,
/// and cached keys are applied from their stored sign bits instead of
/// evaluating every row again. The counters are integer sums either
/// way, so they stay bit-identical to the plain plane sweep;
/// [`Self::take_sign_cache_stats`] reports what the cache served.
///
/// ```
/// use ams_core::{SketchParams, TugOfWarSketch, SelfJoinEstimator};
///
/// let mut sketch: TugOfWarSketch =
///     TugOfWarSketch::new(SketchParams::new(32, 4)?, 7);
/// for v in [1u64, 1, 1, 1, 1] {
///     sketch.insert(v);
/// }
/// // Single-value streams are estimated exactly: SJ = 5² = 25.
/// assert_eq!(sketch.estimate(), 25.0);
/// sketch.delete(1);
/// assert_eq!(sketch.estimate(), 16.0);
/// # Ok::<(), ams_core::SketchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TugOfWarSketch<H: SignFamily = PolySign> {
    params: SketchParams,
    /// Master seed the hash functions were derived from; two sketches are
    /// mergeable/joinable iff seeds and params match.
    seed: u64,
    /// One signed counter per atomic estimator, group-major.
    counters: Vec<i64>,
    /// The ±1 hash functions as a columnar bank, row `i` aligned with
    /// `counters[i]`.
    plane: H::Plane,
    /// Reusable block-ingestion workspace (not part of the sketch's
    /// logical state: never serialized, never compared).
    scratch: IngestScratch,
}

/// Transient per-sketch ingestion state: the kernel scratch, the
/// coalescing buffers, the running workload-skew estimate that decides
/// whether coalescing pays, and the hot-key sign cache that coalesced
/// runs are applied through. Steady-state block ingestion touches only
/// these reused buffers — zero heap allocations once the cache has
/// reached its size. None of it is sketch state: it is never
/// serialized or compared, and a clone starts with an empty cache.
#[derive(Debug, Clone)]
struct IngestScratch {
    /// Padded key/delta columns for the plane kernels.
    plane: PlaneScratch,
    /// Reusable net-coalescing map + output block.
    coalesce: CoalesceBuffer,
    /// Sign bits of keys that recur within coalesced runs, bounded by
    /// [`crate::SIGN_CACHE_BYTES`]; only the coalescing paths use it.
    cache: SignCache,
    /// EWMA of the observed duplicate ratio `1 − distinct/len` over
    /// coalesced blocks and swept batches. Starts at 1.0 ("assume
    /// skewed") so the first blocks coalesce and the estimate converges
    /// from observations.
    dup_ratio: f32,
    /// Blocks ingested without coalescing since the last observation;
    /// drives the periodic probe that lets the estimate recover if the
    /// stream turns skewed again.
    skipped: u32,
}

impl Default for IngestScratch {
    fn default() -> Self {
        Self {
            plane: PlaneScratch::new(),
            coalesce: CoalesceBuffer::new(),
            cache: SignCache::default(),
            dup_ratio: 1.0,
            skipped: 0,
        }
    }
}

/// EWMA smoothing for the duplicate-ratio estimate (new observations
/// weigh ¼ — a few blocks to adapt, jitter-tolerant).
const DUP_EWMA_ALPHA: f32 = 0.25;

/// Coalescing pays when the expected duplicate savings exceed the
/// hash-map pass's cost: one map op costs about this many lane-kernel
/// row evaluations, so coalesce iff `dup_ratio · rows > THRESHOLD`.
///
/// Re-measured after the split-limb lane/SIMD kernels landed (the
/// `ingest_sweep` bench records the calibration as
/// `implied_coalesce_threshold`): with the reusable `CoalesceBuffer`
/// the map pass runs at ~66–126 Melem/s on 256-entry blocks (zipf1.0
/// duplicate-heavy and duplicate-free, across runs), while the AVX2
/// lane kernel evaluates ~300 M rows/s at s = 256 — one map element
/// costs ≈ 2.4–4.6 row evals, not the 12 assumed before the kernels
/// sped up. Set to 4, the middle of the measured band (the gate is
/// insensitive to small shifts: for any realistic s ≥ 64, `dup·rows`
/// crosses 4 at under 7 % duplicates); the default non-SIMD kernel
/// makes row evals dearer, pushing the true break-even lower still.
const COALESCE_THRESHOLD: f32 = 4.0;

/// While skipping, re-run the coalescing pass every this many blocks to
/// refresh the duplicate-ratio estimate (skew can return at any time).
const PROBE_EVERY: u32 = 32;

impl<H: SignFamily> TugOfWarSketch<H> {
    /// Creates a zeroed sketch whose `params.total()` hash functions are
    /// derived deterministically from `seed`.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let s = params.total();
        let mut rng = SplitMix64::new(seed);
        Self {
            params,
            seed,
            counters: vec![0; s],
            plane: H::Plane::draw(s, &mut rng),
            scratch: IngestScratch::default(),
        }
    }

    /// The sketch parameters.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw counter values (group-major), mainly for tests and experiments
    /// that study the atomic estimators (Figure 15).
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Replaces the counters wholesale — the decode path of
    /// [`crate::codec`], which re-derives the hash functions from the
    /// seed and restores only the counter state.
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] if the length does not match the
    /// sketch shape.
    pub fn restore_counters(&mut self, counters: Vec<i64>) -> Result<(), SketchError> {
        if counters.len() != self.params.total() {
            return Err(SketchError::Incompatible {
                reason: "counter count does not match sketch shape",
            });
        }
        self.counters = counters;
        Ok(())
    }

    /// Applies a signed multiplicity change: `+1` for insert, `−1` for
    /// delete, or any batch delta (e.g. `+k` for k copies at once — a
    /// bulk-load convenience the linear structure gives for free).
    #[inline]
    pub fn update(&mut self, v: Value, delta: i64) {
        self.plane.accumulate_one(v, delta, &mut self.counters);
    }

    /// Applies a columnar batch in one pass per counter row. Because the
    /// sketch is linear, any block ordering — including the fully
    /// coalesced form from [`OpBlock::coalesce`] — yields the same
    /// counters as the equivalent per-item updates, bit for bit.
    pub fn update_block(&mut self, block: &OpBlock) {
        self.sweep_folded();
        if block.is_coalesced() {
            // Already net deltas (histogram bulk loads, pre-coalesced
            // batches): straight to the plane sweep.
            self.plane.accumulate_block_into(
                block.values(),
                block.deltas(),
                &mut self.counters,
                &mut self.scratch.plane,
            );
        } else {
            self.ingest_columns(block.values(), block.deltas());
        }
    }

    /// Applies raw value/delta columns (the zero-copy variant of
    /// [`Self::update_block`] for callers that already hold columns).
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn update_columns(&mut self, values: &[Value], deltas: &[i64]) {
        self.sweep_folded();
        self.ingest_columns(values, deltas);
    }

    /// Whether the adaptive coalescing gate is on: the running
    /// duplicate-ratio estimate says a hash-map netting pass saves more
    /// row evaluations than it costs. A caller holding several blocks
    /// at once uses this to decide whether to
    /// [`fold`](Self::fold_block) them into one sweep.
    pub fn coalesces(&self) -> bool {
        self.scratch.dup_ratio * self.counters.len() as f32 > COALESCE_THRESHOLD
    }

    /// Folds a block into the pending multi-block batch: its entries
    /// join the running per-value net deltas in the sketch's coalescing
    /// scratch, and the counters do not move until
    /// [`Self::sweep_folded`]. The block can be dropped as soon as this
    /// returns. Block ingestion ([`Self::update_block`],
    /// [`Self::update_columns`]) reuses that scratch, so it sweeps a
    /// pending batch before its own block.
    pub fn fold_block(&mut self, block: &OpBlock) {
        self.scratch.coalesce.fold(block.values(), block.deltas());
    }

    /// Applies every block folded since the last sweep at once, over
    /// their distinct values: cached and recurring keys through the
    /// sign cache, the rest in one plane sweep — bit-identical to
    /// applying the blocks one by one, because the counters are integer
    /// sums. The batch's observed duplicate ratio feeds the coalescing
    /// gate like a single coalesced block's. A no-op when nothing is
    /// folded.
    pub fn sweep_folded(&mut self) {
        if self.scratch.coalesce.folded() > 0 {
            self.apply_run();
        }
    }

    /// What the sign cache did with coalesced runs since the last call:
    /// net entries served from cached sign bits, admitted to the cache,
    /// and sent to the plane kernel. Resets the counts.
    pub fn take_sign_cache_stats(&mut self) -> SignCacheStats {
        self.scratch.cache.take_stats()
    }

    /// Ends the run folded into the coalescing scratch and applies its
    /// net block through the sign cache. A run of at least 16 entries
    /// feeds its duplicate ratio to the coalescing gate.
    fn apply_run(&mut self) {
        let scratch = &mut self.scratch;
        let folded = scratch.coalesce.folded();
        let (net, counts) = scratch.coalesce.finish();
        if self.counters.len() >= 4 && folded >= 16 {
            let observed = 1.0 - net.len() as f32 / folded as f32;
            scratch.dup_ratio += DUP_EWMA_ALPHA * (observed - scratch.dup_ratio);
            scratch.skipped = 0;
        }
        scratch.cache.apply(
            &self.plane,
            net,
            counts,
            &mut self.counters,
            &mut scratch.plane,
        );
    }

    fn ingest_columns(&mut self, values: &[Value], deltas: &[i64]) {
        // Net-delta coalescing before the plane sweep: linearity makes
        // it exact, and every duplicate removed saves a full per-row
        // hash evaluation. Whether the hash-map pass pays off depends on
        // the workload's skew, so the decision is *adaptive*: a running
        // EWMA of the duplicate ratio observed on coalesced blocks,
        // compared against the pass's cost in row-evaluation units.
        // Skewed streams coalesce aggressively; duplicate-free streams
        // skip straight to the lane sweep (with a periodic probe so the
        // estimate tracks workload shifts). Either path yields
        // bit-identical counters (linearity), only the cost differs.
        // Both callers sweep any pending run first, so the coalescing
        // branch folds into an empty run.
        let rows = self.counters.len();
        let scratch = &mut self.scratch;
        if rows >= 4 && values.len() >= 16 {
            let probe = scratch.skipped >= PROBE_EVERY;
            if probe || scratch.dup_ratio * rows as f32 > COALESCE_THRESHOLD {
                debug_assert_eq!(scratch.coalesce.folded(), 0, "a run is pending");
                scratch.coalesce.fold(values, deltas);
                self.apply_run();
                return;
            }
            scratch.skipped += 1;
        }
        self.plane
            .accumulate_block_into(values, deltas, &mut self.counters, &mut scratch.plane);
    }

    /// The atomic estimates `X_{i,j} = Z_{i,j}²`, group-major.
    pub fn atomic_estimates(&self) -> Vec<f64> {
        self.counters
            .iter()
            .map(|&z| (z as f64) * (z as f64))
            .collect()
    }

    /// The `s2` group means of the atomic estimates — each an unbiased
    /// self-join estimate with variance reduced by `s1`-averaging; the
    /// published estimate is their median. Exposed so observers can
    /// price the estimator's *spread* (confidence intervals, health
    /// monitoring) without re-deriving the group layout.
    pub fn group_means(&self) -> Vec<f64> {
        self.atomic_estimates()
            .chunks_exact(self.params.s1())
            .map(|group| group.iter().sum::<f64>() / self.params.s1() as f64)
            .collect()
    }

    /// The estimate with the confidence interval its group-mean spread
    /// implies: half-width is the larger of the paper's
    /// [`SketchParams::error_bound`] and the empirical deviation of
    /// the group means from their median
    /// (see [`crate::estimator::interval_from_group_means`]).
    pub fn estimate_interval(&self) -> crate::estimator::EstimateInterval {
        crate::estimator::interval_from_group_means(
            &mut self.group_means(),
            self.params.error_bound(),
        )
    }

    /// Checks shape/seed compatibility for merge/inner-product.
    fn check_compatible(&self, other: &Self) -> Result<(), SketchError> {
        if self.params != other.params {
            return Err(SketchError::Incompatible {
                reason: "sketch parameters differ",
            });
        }
        if self.seed != other.seed {
            return Err(SketchError::Incompatible {
                reason: "hash seeds differ",
            });
        }
        Ok(())
    }

    /// Merges another sketch built with the same seed and parameters into
    /// this one; the result sketches the *union* (multiset sum) of the two
    /// streams.
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] on seed/shape mismatch.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.check_compatible(other)?;
        for (z, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *z += o;
        }
        Ok(())
    }

    /// Subtracts another same-seed sketch; the result sketches the multiset
    /// *difference* of the streams (useful for windowed/delta tracking).
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] on seed/shape mismatch.
    pub fn subtract_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.check_compatible(other)?;
        for (z, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *z -= o;
        }
        Ok(())
    }

    /// Estimates the **join size** between the streams summarized by two
    /// same-seed sketches, by median-of-means over the counter products
    /// `Z_{i,j}·Z'_{i,j}` (Lemma 4.4: each product is an unbiased join-size
    /// estimator with variance ≤ 2·SJ(F)·SJ(G)).
    ///
    /// # Errors
    /// [`SketchError::Incompatible`] on seed/shape mismatch.
    pub fn join_estimate(&self, other: &Self) -> Result<f64, SketchError> {
        self.check_compatible(other)?;
        let products: Vec<f64> = self
            .counters
            .iter()
            .zip(other.counters.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .collect();
        Ok(median_of_means(
            &products,
            self.params.s1(),
            self.params.s2(),
        ))
    }
}

impl<H: SignFamily> SelfJoinEstimator for TugOfWarSketch<H> {
    #[inline]
    fn insert(&mut self, v: Value) {
        self.update(v, 1);
    }

    #[inline]
    fn delete(&mut self, v: Value) {
        self.update(v, -1);
    }

    fn estimate(&self) -> f64 {
        median_of_means(&self.atomic_estimates(), self.params.s1(), self.params.s2())
    }

    fn memory_words(&self) -> usize {
        // One counter per estimator; hash seeds are a constant number of
        // words per estimator (4 coefficients for the polynomial family).
        self.counters.len()
    }

    /// Linear fast path: one plane sweep per counter row.
    fn apply_block(&mut self, block: &OpBlock) {
        self.update_block(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_hash::sign::{BchSignHash, TabulationSign, TwoWiseSign};
    use ams_stream::Multiset;

    fn params(s1: usize, s2: usize) -> SketchParams {
        SketchParams::new(s1, s2).unwrap()
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let tw: TugOfWarSketch = TugOfWarSketch::new(params(8, 3), 1);
        assert_eq!(tw.estimate(), 0.0);
    }

    #[test]
    fn single_value_stream_is_estimated_exactly() {
        // All mass on one value: Z = ±f for every estimator, so Z² = f²
        // exactly — zero variance case.
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(params(4, 2), 7);
        for _ in 0..25 {
            tw.insert(42);
        }
        assert_eq!(tw.estimate(), 625.0);
    }

    #[test]
    fn insert_delete_cancels_exactly() {
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(params(8, 2), 3);
        let values = [5u64, 9, 9, 13, 5, 1000];
        for &v in &values {
            tw.insert(v);
        }
        for &v in values.iter().rev() {
            tw.delete(v);
        }
        assert!(tw.counters().iter().all(|&z| z == 0));
        assert_eq!(tw.estimate(), 0.0);
    }

    #[test]
    fn deletions_reach_insert_only_state() {
        // Sketch(Â) must equal Sketch(A) counter-for-counter (linearity).
        let mut mixed: TugOfWarSketch = TugOfWarSketch::new(params(16, 2), 11);
        mixed.insert(1);
        mixed.insert(2);
        mixed.insert(2);
        mixed.delete(2);
        mixed.insert(3);
        mixed.delete(1);
        let mut clean: TugOfWarSketch = TugOfWarSketch::new(params(16, 2), 11);
        clean.insert(2);
        clean.insert(3);
        assert_eq!(mixed.counters(), clean.counters());
    }

    #[test]
    fn bulk_update_equals_repeated_inserts() {
        let mut bulk: TugOfWarSketch = TugOfWarSketch::new(params(8, 2), 5);
        bulk.update(77, 9);
        let mut single: TugOfWarSketch = TugOfWarSketch::new(params(8, 2), 5);
        for _ in 0..9 {
            single.insert(77);
        }
        assert_eq!(bulk.counters(), single.counters());
    }

    /// Averaged over many independent sketches, the estimate must approach
    /// the exact self-join size (unbiasedness of Z²).
    #[test]
    fn estimate_is_unbiased_over_seeds() {
        let values: Vec<u64> = (0..200).map(|i| i % 23).collect();
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        let trials = 300;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut tw: TugOfWarSketch = TugOfWarSketch::new(params(1, 1), seed);
            tw.extend_values(values.iter().copied());
            sum += tw.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.15, "mean {mean} vs exact {exact} (rel {rel})");
    }

    /// With a moderate sketch, a single run should land within the
    /// theoretical 4/√s1 bound (often far inside it).
    #[test]
    fn estimate_within_theorem_bound_on_zipfish_data() {
        let values: Vec<u64> = (0..20_000u64).map(|i| i % 100 * (i % 7)).collect();
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        let p = params(64, 5);
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(p, 2024);
        tw.extend_values(values.iter().copied());
        let rel = (tw.estimate() - exact).abs() / exact;
        assert!(
            rel < p.error_bound(),
            "relative error {rel} exceeds bound {}",
            p.error_bound()
        );
    }

    #[test]
    fn group_means_median_is_the_estimate() {
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(params(16, 5), 17);
        tw.extend_values((0..2_000u64).map(|i| i % 37));
        let mut means = tw.group_means();
        assert_eq!(means.len(), 5);
        assert_eq!(crate::estimator::median(&mut means), Some(tw.estimate()));
    }

    #[test]
    fn estimate_interval_covers_exact_on_zipfish_data() {
        // Theorem 2.2 at s1=64, s2=5: rel error ≤ 0.5 with prob
        // ≥ 1 − 2^(−2.5) ≈ 0.82 per seed; the interval is at least
        // that wide, so coverage over seeds must be comfortably high.
        let values: Vec<u64> = (0..20_000u64).map(|i| i % 100 * (i % 7)).collect();
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        let mut covered = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut tw: TugOfWarSketch = TugOfWarSketch::new(params(64, 5), seed);
            tw.extend_values(values.iter().copied());
            let iv = tw.estimate_interval();
            assert_eq!(iv.estimate, tw.estimate());
            assert!(iv.lower <= iv.estimate && iv.estimate <= iv.upper);
            if iv.contains(exact) {
                covered += 1;
            }
        }
        assert!(covered >= trials * 8 / 10, "covered {covered}/{trials}");
    }

    #[test]
    fn merge_equals_union_stream() {
        let p = params(8, 3);
        let mut a: TugOfWarSketch = TugOfWarSketch::new(p, 99);
        let mut b: TugOfWarSketch = TugOfWarSketch::new(p, 99);
        a.extend_values([1u64, 2, 3]);
        b.extend_values([3u64, 4]);
        let mut union: TugOfWarSketch = TugOfWarSketch::new(p, 99);
        union.extend_values([1u64, 2, 3, 3, 4]);
        a.merge_from(&b).unwrap();
        assert_eq!(a.counters(), union.counters());
    }

    #[test]
    fn subtract_inverts_merge() {
        let p = params(4, 2);
        let mut a: TugOfWarSketch = TugOfWarSketch::new(p, 1);
        a.extend_values([7u64, 8, 9]);
        let snapshot = a.clone();
        let mut b: TugOfWarSketch = TugOfWarSketch::new(p, 1);
        b.extend_values([10u64, 11]);
        a.merge_from(&b).unwrap();
        a.subtract_from(&b).unwrap();
        assert_eq!(a.counters(), snapshot.counters());
    }

    #[test]
    fn mismatched_sketches_refuse_to_combine() {
        let mut a: TugOfWarSketch = TugOfWarSketch::new(params(4, 2), 1);
        let b: TugOfWarSketch = TugOfWarSketch::new(params(4, 2), 2);
        assert_eq!(
            a.merge_from(&b),
            Err(SketchError::Incompatible {
                reason: "hash seeds differ"
            })
        );
        let c: TugOfWarSketch = TugOfWarSketch::new(params(8, 1), 1);
        assert!(a.merge_from(&c).is_err());
        assert!(a.join_estimate(&c).is_err());
    }

    #[test]
    fn join_estimate_of_sketch_with_itself_is_self_join_estimate() {
        let mut tw: TugOfWarSketch = TugOfWarSketch::new(params(16, 3), 5);
        tw.extend_values((0..500u64).map(|i| i % 31));
        let self_join = tw.estimate();
        let via_join = tw.join_estimate(&tw.clone()).unwrap();
        assert_eq!(self_join, via_join);
    }

    #[test]
    fn join_estimate_unbiased_over_seeds() {
        let f: Vec<u64> = (0..300).map(|i| i % 20).collect();
        let g: Vec<u64> = (0..300).map(|i| i % 30).collect();
        let exact = Multiset::from_values(f.iter().copied())
            .join_size(&Multiset::from_values(g.iter().copied())) as f64;
        let trials = 400;
        let mut sum = 0.0;
        for seed in 0..trials {
            let p = params(1, 1);
            let mut sf: TugOfWarSketch = TugOfWarSketch::new(p, seed);
            let mut sg: TugOfWarSketch = TugOfWarSketch::new(p, seed);
            sf.extend_values(f.iter().copied());
            sg.extend_values(g.iter().copied());
            sum += sf.join_estimate(&sg).unwrap();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.2, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn alternative_hash_families_work() {
        fn run<H: SignFamily>() -> f64 {
            let mut tw: TugOfWarSketch<H> = TugOfWarSketch::new(params(64, 3), 77);
            tw.extend_values((0..5_000u64).map(|i| i % 50));
            tw.estimate()
        }
        let exact = Multiset::from_values((0..5_000u64).map(|i| i % 50)).self_join_size() as f64;
        for (name, est, tolerance) in [
            // 4-wise and 3-wise families obey (or nearly obey) the
            // variance analysis; the 2-wise family is the deliberate
            // ablation violating it, so it only gets a loose sanity band.
            ("bch", run::<BchSignHash>(), 0.6),
            ("tabulation", run::<TabulationSign>(), 0.6),
            ("twowise", run::<TwoWiseSign>(), 2.0),
        ] {
            let rel = (est - exact).abs() / exact;
            assert!(rel < tolerance, "{name}: rel error {rel}");
        }
    }

    #[test]
    fn folded_batches_sweep_once_and_drive_the_coalescing_gate() {
        let p = params(64, 4);
        let blocks: Vec<OpBlock> = (0..8u64)
            .map(|b| OpBlock::from_values((0..64).map(|i| (b * 64 + i) % 40)))
            .collect();
        let mut per_block: TugOfWarSketch = TugOfWarSketch::new(p, 3);
        let mut folded: TugOfWarSketch = TugOfWarSketch::new(p, 3);
        for block in &blocks {
            per_block.apply_block(block);
            folded.fold_block(block);
        }
        assert!(
            folded.counters().iter().all(|&z| z == 0),
            "folding alone moves no counter"
        );
        folded.sweep_folded();
        assert_eq!(folded.counters(), per_block.counters());
        assert!(folded.coalesces(), "a skewed batch keeps the gate on");
        // Duplicate-free batches turn the gate off.
        let mut next = 1_000_000u64;
        for _ in 0..40 {
            for _ in 0..4 {
                folded.fold_block(&OpBlock::from_values(next..next + 64));
                next += 64;
            }
            folded.sweep_folded();
        }
        assert!(!folded.coalesces());
    }

    #[test]
    fn memory_words_is_total_counters() {
        let tw: TugOfWarSketch = TugOfWarSketch::new(params(16, 4), 0);
        assert_eq!(tw.memory_words(), 64);
    }
}
