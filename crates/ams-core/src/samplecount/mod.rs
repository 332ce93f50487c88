//! Algorithm sample-count (§2.1, Figure 1): positional sampling with
//! deferred counters.
//!
//! Each of `s = s1·s2` sample points holds a uniformly random position of
//! the insert stream; its atomic estimate is `X = n(2r − 1)`, where `r`
//! counts occurrences of the sampled value at or after the sampled
//! position. `E[X] = SJ(R)` (summing `n(2k−1)` over the k-th-from-last
//! occurrences of a value telescopes to `f²`), and the usual
//! average-then-median aggregation yields Theorem 2.1's guarantee with a
//! `Θ(√t)` sample-size requirement in the worst case.
//!
//! Two variants share one sampling engine (the private `table` module):
//!
//! * [`SampleCount`] — the paper's headline configuration: **O(1)
//!   amortized updates** (reservoir skipping + deferred `N_v` counters)
//!   and O(s) queries;
//! * [`SampleCountFastQuery`] — the §2.1 closing alternative: per-group
//!   aggregates maintained during updates (O(s2) amortized) so queries
//!   cost O(s2).
//!
//! Both handle deletions by reversing the most recent undeleted insert of
//! the deleted value (the canonical-sequence semantics of
//! [`ams_stream::canonical`]); evicted sample points re-enter when their
//! pre-drawn future position arrives.

mod table;

use ams_hash::FxHashMap;
use ams_stream::{OpBlock, SelfJoinEstimator, Value};

use crate::estimator::{median, median_of_present_means};
use crate::params::SketchParams;

use self::table::{AggHook, NoAgg, SampleTable};

/// The shared columnar ingestion loop of both variants: insert entries
/// go through the batch-skipping run path, delete entries replay in
/// order — exactly the [`OpBlock::for_each_op`] expansion order, so
/// run-coalesced blocks stay bit-identical to the scalar stream.
fn apply_block_with<A: AggHook>(table: &mut SampleTable, agg: &mut A, block: &OpBlock) {
    for (v, delta) in block.entries() {
        if delta > 0 {
            table.insert_run(v, delta as u64, agg);
        } else {
            for _ in 0..delta.unsigned_abs() {
                table.delete(v, agg);
            }
        }
    }
}

/// Sample-count with O(1) amortized updates and O(s) queries.
///
/// ```
/// use ams_core::{SampleCount, SketchParams, SelfJoinEstimator};
///
/// let mut sc = SampleCount::new(SketchParams::new(64, 4)?, 42);
/// for i in 0..10_000u64 {
///     sc.insert(i % 100); // 100 values, 100 copies each: SJ = 10⁶
/// }
/// let estimate = sc.estimate();
/// assert!((estimate - 1.0e6).abs() / 1.0e6 < 0.5);
/// assert_eq!(sc.len(), 10_000);
/// # Ok::<(), ams_core::SketchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SampleCount {
    table: SampleTable,
}

impl SampleCount {
    /// Creates an empty tracker with the given shape, drawing all random
    /// positions from `seed`.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        Self {
            table: SampleTable::new(params, seed),
        }
    }

    /// The sketch parameters.
    pub fn params(&self) -> SketchParams {
        self.table.params()
    }

    /// Current multiset size n.
    pub fn len(&self) -> u64 {
        self.table.n()
    }

    /// `true` when the tracked multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.table.n() == 0
    }

    /// Number of sample points currently holding a live sample (may drop
    /// below `s` after deletions; Theorem 2.1's analysis keeps it ≥ s/2
    /// w.h.p. while deletes stay under 1/5 of every prefix).
    pub fn live_points(&self) -> usize {
        self.table.live_points()
    }

    /// Number of insert operations processed so far (the positional
    /// universe the reservoirs sample from).
    pub fn inserts_seen(&self) -> u64 {
        self.table.inserts_seen()
    }

    /// Iterates the live sample as `(value, r)` pairs — `r` being the
    /// count of occurrences of the value at or after the sampled
    /// position. Diagnostic view for experiments and debugging.
    pub fn live_samples(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        self.table.live_samples().map(|(_, v, r)| (v, r))
    }
}

impl SelfJoinEstimator for SampleCount {
    #[inline]
    fn insert(&mut self, v: Value) {
        self.table.insert(v, &mut NoAgg);
    }

    #[inline]
    fn delete(&mut self, v: Value) {
        self.table.delete(v, &mut NoAgg);
    }

    /// O(s): walks the sample points, forming `X_i = n(2r_i − 1)` for the
    /// live ones and aggregating by median-of-present-means (absent points
    /// are ignored, per Fig. 1 steps 27–32).
    fn estimate(&self) -> f64 {
        let n = self.table.n() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let params = self.table.params();
        let mut atoms: Vec<Option<f64>> = vec![None; params.total()];
        for (i, _v, r) in self.table.live_samples() {
            atoms[i] = Some(n * (2.0 * r as f64 - 1.0));
        }
        median_of_present_means(&atoms, params.s1(), params.s2()).unwrap_or(0.0)
    }

    fn memory_words(&self) -> usize {
        self.table.memory_words()
    }

    /// Columnar batch skipping: each `(v, +k)` entry advances the
    /// positional reservoirs segment-at-a-time between firings
    /// (`table`'s `insert_run`), so a whole block costs
    /// O(entries + firings) instead of O(ops) on the O(1)-amortized
    /// path; delete entries replay in order. Bit-identical to the
    /// default in-order expansion on run-coalesced blocks (pinned by
    /// the order-faithfulness property test).
    fn apply_block(&mut self, block: &OpBlock) {
        apply_block_with(&mut self.table, &mut NoAgg, block);
    }
}

/// Per-group aggregates for the fast-query variant: `Σ r` and live counts
/// per group, plus the paper's sparse `k_{v,j}` table (live points per
/// value per group) that makes a tracked insert O(s2) instead of O(|S_v|).
#[derive(Debug, Clone)]
struct GroupAggregates {
    /// Per group: sum of r over live points.
    r_sum: Vec<i64>,
    /// Per group: number of live points.
    num: Vec<u32>,
    /// Per value: sparse list of (group, live point count). Total list
    /// length across values is bounded by the live point count, keeping
    /// the structure O(s) words.
    kv: FxHashMap<Value, Vec<(u32, u32)>>,
}

impl GroupAggregates {
    fn new(s2: usize) -> Self {
        Self {
            r_sum: vec![0; s2],
            num: vec![0; s2],
            kv: FxHashMap::default(),
        }
    }

    fn bump(&mut self, v: Value, group: usize, delta: i32) {
        let list = self.kv.entry(v).or_default();
        match list.iter_mut().position(|&mut (g, _)| g as usize == group) {
            Some(idx) => {
                let count = &mut list[idx].1;
                *count = count.checked_add_signed(delta).expect("k_{v,j} underflow");
                if *count == 0 {
                    list.swap_remove(idx);
                    if list.is_empty() {
                        self.kv.remove(&v);
                    }
                }
            }
            None => {
                debug_assert!(delta > 0, "decrement of absent k_{{v,j}}");
                list.push((group as u32, delta as u32));
            }
        }
    }
}

impl AggHook for GroupAggregates {
    fn tracked_insert(&mut self, v: Value) {
        if let Some(list) = self.kv.get(&v) {
            for &(g, c) in list {
                self.r_sum[g as usize] += c as i64;
            }
        }
    }

    fn tracked_insert_run(&mut self, v: Value, k: u64) {
        // `k` inserts with no firing in between: the live point counts
        // `k_{v,j}` are constant across the run, so the k sequential
        // `tracked_insert` updates collapse to one multiply-add.
        if let Some(list) = self.kv.get(&v) {
            for &(g, c) in list {
                self.r_sum[g as usize] += (k as i64) * (c as i64);
            }
        }
    }

    fn enter(&mut self, group: usize, v: Value) {
        self.num[group] += 1;
        self.r_sum[group] += 1;
        self.bump(v, group, 1);
    }

    fn leave(&mut self, group: usize, v: Value, r: u64) {
        self.num[group] -= 1;
        self.r_sum[group] -= r as i64;
        self.bump(v, group, -1);
    }

    fn drop_value(&mut self, v: Value) {
        // leave() already zeroed and pruned the entries; tolerate both.
        if let Some(list) = self.kv.remove(&v) {
            debug_assert!(list.iter().all(|&(_, c)| c == 0), "drop with live points");
        }
    }

    fn tracked_delete(&mut self, v: Value) {
        if let Some(list) = self.kv.get(&v) {
            for &(g, c) in list {
                self.r_sum[g as usize] -= c as i64;
            }
        }
    }
}

/// Sample-count with O(s2) amortized updates and O(s2) queries (the
/// alternative at the end of §2.1: maintain each group sum during updates
/// so that query time does not scale with s1).
#[derive(Debug, Clone)]
pub struct SampleCountFastQuery {
    table: SampleTable,
    agg: GroupAggregates,
}

impl SampleCountFastQuery {
    /// Creates an empty tracker; `seed` drives the sampled positions
    /// exactly as in [`SampleCount`] (same seed ⇒ same sample
    /// trajectory ⇒ same estimates).
    pub fn new(params: SketchParams, seed: u64) -> Self {
        Self {
            table: SampleTable::new(params, seed),
            agg: GroupAggregates::new(params.s2()),
        }
    }

    /// The sketch parameters.
    pub fn params(&self) -> SketchParams {
        self.table.params()
    }

    /// Current multiset size n.
    pub fn len(&self) -> u64 {
        self.table.n()
    }

    /// `true` when the tracked multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.table.n() == 0
    }

    /// Number of live sample points.
    pub fn live_points(&self) -> usize {
        self.table.live_points()
    }

    /// Number of insert operations processed so far.
    pub fn inserts_seen(&self) -> u64 {
        self.table.inserts_seen()
    }

    /// Iterates the live sample as `(value, r)` pairs.
    pub fn live_samples(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        self.table.live_samples().map(|(_, v, r)| (v, r))
    }
}

impl SelfJoinEstimator for SampleCountFastQuery {
    #[inline]
    fn insert(&mut self, v: Value) {
        self.table.insert(v, &mut self.agg);
    }

    #[inline]
    fn delete(&mut self, v: Value) {
        self.table.delete(v, &mut self.agg);
    }

    /// O(s2): per group j, `Y_j = n·(2·(Σr)/num_j − 1)`; the estimate is
    /// the median of the defined `Y_j`.
    fn estimate(&self) -> f64 {
        let n = self.table.n() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mut group_estimates: Vec<f64> = self
            .agg
            .r_sum
            .iter()
            .zip(self.agg.num.iter())
            .filter(|&(_, &num)| num > 0)
            .map(|(&rs, &num)| n * (2.0 * rs as f64 / num as f64 - 1.0))
            .collect();
        median(&mut group_estimates).unwrap_or(0.0)
    }

    fn memory_words(&self) -> usize {
        self.table.memory_words()
            + self.agg.r_sum.len()
            + self.agg.num.len()
            + self.agg.kv.len()
            + 2 * self.agg.kv.values().map(Vec::len).sum::<usize>()
    }

    /// Columnar batch skipping; see [`SampleCount`]'s `apply_block`.
    /// The group aggregates ride along through
    /// `AggHook::tracked_insert_run`, which collapses each skipped
    /// segment to one multiply-add per affected group.
    fn apply_block(&mut self, block: &OpBlock) {
        apply_block_with(&mut self.table, &mut self.agg, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_hash::SplitMix64;
    use ams_stream::Multiset;

    fn params(s1: usize, s2: usize) -> SketchParams {
        SketchParams::new(s1, s2).unwrap()
    }

    #[test]
    fn empty_tracker_estimates_zero() {
        let sc = SampleCount::new(params(8, 2), 1);
        assert_eq!(sc.estimate(), 0.0);
        let fq = SampleCountFastQuery::new(params(8, 2), 1);
        assert_eq!(fq.estimate(), 0.0);
    }

    #[test]
    fn constant_stream_is_estimated_exactly() {
        // All values equal: every live point has r = n − pos + 1; the
        // estimator is exact in expectation and for n = sampled positions
        // uniform, X = n(2r−1) averages to n². With every position
        // sampled... use s large relative to n for tight behaviour.
        let mut sc = SampleCount::new(params(64, 3), 5);
        let n = 50u64;
        for _ in 0..n {
            sc.insert(7);
        }
        let est = sc.estimate();
        let exact = (n * n) as f64;
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.5, "estimate {est} vs exact {exact}");
    }

    #[test]
    fn estimate_unbiased_over_seeds_insert_only() {
        let values: Vec<u64> = (0..300u64).map(|i| i * i % 37).collect();
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        let trials = 600;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut sc = SampleCount::new(params(1, 1), seed);
            sc.extend_values(values.iter().copied());
            sum += sc.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.15, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn estimate_unbiased_over_seeds_with_deletes() {
        // Mixed stream: estimates should center on the *final* multiset's
        // self-join size.
        let mut stream: Vec<(bool, u64)> = Vec::new();
        let mut rng = SplitMix64::new(99);
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..400 {
            if !live.is_empty() && rng.next_f64() < 0.2 {
                let idx = rng.next_below(live.len() as u64) as usize;
                let v = live.swap_remove(idx);
                stream.push((false, v));
            } else {
                let v = rng.next_below(25);
                live.push(v);
                stream.push((true, v));
            }
        }
        let mut truth = Multiset::new();
        for &(ins, v) in &stream {
            if ins {
                truth.insert(v);
            } else {
                truth.delete(v);
            }
        }
        let exact = truth.self_join_size() as f64;

        let trials = 800;
        let mut sum = 0.0;
        let mut live_runs = 0u32;
        for seed in 1_000..1_000 + trials {
            let mut sc = SampleCount::new(params(1, 1), seed);
            for &(ins, v) in &stream {
                if ins {
                    sc.insert(v);
                } else {
                    sc.delete(v);
                }
            }
            // A single sample point dies when its sampled insert is
            // reversed; unbiasedness is conditional on survival (a dead
            // point yields no estimate at all). The survival rate itself
            // is checked below.
            if sc.live_points() > 0 {
                live_runs += 1;
                sum += sc.estimate();
            }
        }
        let mean = sum / live_runs as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.2, "mean {mean} vs exact {exact} (rel {rel})");
        // With ~20% of inserts reversed, roughly 75–90% of runs keep
        // their point (some dead points also recover via pending
        // positions).
        let live_frac = live_runs as f64 / trials as f64;
        assert!(live_frac > 0.6, "live fraction {live_frac}");
    }

    #[test]
    fn fast_query_matches_base_variant_exactly() {
        // Same seed ⇒ same sampling trajectory ⇒ (numerically) same
        // estimate, for arbitrary insert/delete mixes.
        let mut rng = SplitMix64::new(31);
        let mut live: Vec<u64> = Vec::new();
        let mut base = SampleCount::new(params(16, 4), 777);
        let mut fast = SampleCountFastQuery::new(params(16, 4), 777);
        for step in 0..3_000 {
            if !live.is_empty() && rng.next_f64() < 0.15 {
                let idx = rng.next_below(live.len() as u64) as usize;
                let v = live.swap_remove(idx);
                base.delete(v);
                fast.delete(v);
            } else {
                let v = rng.next_below(40);
                live.push(v);
                base.insert(v);
                fast.insert(v);
            }
            if step % 250 == 0 {
                let (a, b) = (base.estimate(), fast.estimate());
                let diff = (a - b).abs();
                let scale = a.abs().max(b.abs()).max(1.0);
                assert!(diff / scale < 1e-9, "step {step}: base {a} vs fast {b}");
                assert_eq!(base.live_points(), fast.live_points());
            }
        }
    }

    #[test]
    fn skewed_data_converges_with_moderate_sample() {
        // Zipf-ish skew: frequency ∝ rank⁻¹ over 100 values.
        let mut values = Vec::new();
        for rank in 1..=100u64 {
            for _ in 0..(2_000 / rank) {
                values.push(rank);
            }
        }
        let exact = Multiset::from_values(values.iter().copied()).self_join_size() as f64;
        let mut sc = SampleCount::new(params(256, 5), 12_345);
        sc.extend_values(values.iter().copied());
        let rel = (sc.estimate() - exact).abs() / exact;
        assert!(rel < 0.3, "relative error {rel}");
    }

    #[test]
    fn insert_then_full_delete_returns_to_empty() {
        let mut sc = SampleCount::new(params(8, 2), 3);
        for v in [1u64, 2, 2, 3] {
            sc.insert(v);
        }
        for v in [3u64, 2, 2, 1] {
            sc.delete(v);
        }
        assert_eq!(sc.len(), 0);
        assert_eq!(sc.estimate(), 0.0);
    }

    #[test]
    fn live_points_recover_after_deletions() {
        // Deletions evict sample points, but evicted points re-enter when
        // their pre-drawn future positions arrive.
        let mut sc = SampleCount::new(params(16, 2), 9);
        for v in 0..200u64 {
            sc.insert(v % 10);
        }
        // Delete a batch (under the 1/5 prefix constraint overall).
        for v in 0..40u64 {
            sc.delete(v % 10);
        }
        let after_delete = sc.live_points();
        for v in 0..400u64 {
            sc.insert(v % 10);
        }
        // Most dead points re-enter when their pre-drawn future position
        // arrives; a few may have drawn positions beyond the stream end,
        // so full recovery is not guaranteed — near-full is.
        assert!(
            sc.live_points() >= after_delete.max(28),
            "live points did not recover: {} -> {}",
            after_delete,
            sc.live_points()
        );
    }

    #[test]
    fn memory_bounded_by_sample_size_not_domain() {
        let mut sc = SampleCount::new(params(32, 2), 21);
        for v in 0..100_000u64 {
            sc.insert(v); // all distinct: exact histogram would need 100k words
        }
        assert!(
            sc.memory_words() < 20 * 64,
            "memory {} words",
            sc.memory_words()
        );
    }
}
